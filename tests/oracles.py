"""Independent reference implementations used to check the package's fast paths.

These deliberately use the dumbest correct algorithm available: exhaustive
enumeration, exact rational arithmetic, or plain-Python recounts.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from viewsphere.mesh import TriangleMesh
from viewsphere import render
from viewsphere.render import DepthImage, render_all_views
from viewsphere.voxel import _TOUCH_EPS


def ray_triangle_hits(ox, oy, oz, direction, v0, v1, v2):
    """Moller-Trumbore distances for parallel rays; +inf where missed.

    ``v0``, ``v1``, ``v2`` are either one triangle's corners (3,), tested
    against every ray, or per-pair corners (N, 3) matched to rays of shape
    (N,). Runs the renderer's one kernel, ``render._hits``, whose component
    arithmetic is written out term by term, so results are bit-identical
    however the pairs are shaped, sliced or ordered. Degenerate (zero-area)
    triangles never register hits, nor do triangles whose ``a`` is so small
    that ``f = 1 / a`` overflows.
    """
    rows = render._edge_rows(np.asarray(v0).T, np.asarray(v1).T, np.asarray(v2).T)
    h, a = render._view_terms(direction, rows)
    with np.errstate(divide="ignore", over="ignore"):
        f = 1.0 / a
    # a zero or subnormal ``a`` makes ``f`` infinite, and then ``u`` infinite or
    # NaN, which no hit passes; a NaN ``f`` fails every hit comparison quietly
    return render._hits(ox, oy, oz, direction, (*rows, *h, np.where(np.isfinite(f), f, np.nan)))


def camera_rays(view):
    """Orthographic per-pixel ray origins (h, w, 3) from the renderer's origin terms, and the shared unit direction."""
    columns, rows = render._origin_terms(render._frames([view]), *render._pixel_axes())
    return columns.T[None, :, :] + rows.T[:, None, :], view.camera_frame()[2]


def depth_codes(distances: np.ndarray) -> np.ndarray:
    """Quantize hit distances to uint8 codes with the renderer's ``render._code_into``: miss -> 0."""
    t = np.array(distances, dtype=np.float64)
    return render._code_into(np.empty(t.shape, np.uint8), t, np.empty(t.shape, np.bool_))


def render_depth(mesh: TriangleMesh, view) -> DepthImage:
    """Render one orthographic depth image: the one-view case of ``render_all_views``."""
    return render_all_views(mesh, [view])[0]


def unit_cube_mesh() -> TriangleMesh:
    """The axis-aligned unit cube [-0.5, 0.5]^3 as 12 triangles."""
    signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    verts = np.array([[sx * 0.5, sy * 0.5, sz * 0.5] for sx, sy, sz in signs])
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return TriangleMesh(verts, np.array(faces))


def random_mesh(rng: np.random.Generator, n_triangles: int, radius: float = 0.45) -> TriangleMesh:
    """Random triangle soup inside the unit cube (already 'normalized' for rendering)."""
    centers = rng.uniform(-radius, radius, size=(n_triangles, 1, 3))
    spread = rng.uniform(-0.12, 0.12, size=(n_triangles, 3, 3))
    verts = np.clip(centers + spread, -0.5, 0.5).reshape(-1, 3)
    faces = np.arange(3 * n_triangles).reshape(-1, 3)
    return TriangleMesh(verts, faces)


def uv_sphere_mesh(sides: int, radius: float = 0.45) -> TriangleMesh:
    """Closed UV sphere with ``sides`` meridians and parallels: 2 * sides * (sides - 1) faces."""
    phi = math.pi * np.arange(1, sides)[:, None] / sides
    theta = 2.0 * math.pi * np.arange(sides)[None, :] / sides
    ring = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi) * np.ones_like(theta)],
        axis=-1,
    ).reshape(-1, 3)
    verts = radius * np.vstack([[0.0, 0.0, 1.0], ring, [0.0, 0.0, -1.0]])
    south = len(verts) - 1

    def at(i, j):
        return 1 + (i - 1) * sides + j % sides

    faces = []
    for j in range(sides):
        faces += [(0, at(1, j), at(1, j + 1)), (south, at(sides - 1, j + 1), at(sides - 1, j))]
    for i in range(1, sides - 1):
        for j in range(sides):
            faces += [(at(i, j), at(i, j + 1), at(i + 1, j + 1)), (at(i, j), at(i + 1, j + 1), at(i + 1, j))]
    return TriangleMesh(verts, np.array(faces))


def closed_cylinder_mesh(sides: int, radius: float = 0.4, half_height: float = 0.45) -> TriangleMesh:
    """Closed z-axis cylinder: ``sides`` wall quads plus two capping fans."""
    angles = 2 * math.pi * np.arange(sides) / sides
    bottom = np.stack([radius * np.cos(angles), radius * np.sin(angles), np.full(sides, -half_height)], axis=1)
    top = bottom + [0.0, 0.0, 2 * half_height]
    verts = np.vstack([bottom, top, [[0, 0, -half_height]], [[0, 0, half_height]]])
    faces = []
    for i in range(sides):
        j = (i + 1) % sides
        faces += [(i, j, sides + j), (i, sides + j, sides + i), (2 * sides, j, i), (2 * sides + 1, sides + i, sides + j)]
    return TriangleMesh(verts, np.array(faces))


def reference_ray_origins(view) -> list[list[tuple[float, float, float]]]:
    """Ray origin of every pixel (r, c), ``(position + u_c * right) + v_r * up``, in Python floats.

    ``u_c`` and ``v_r`` are the image-plane coordinates of the pixel center,
    the top row at +v. Each component is rounded in that order, one
    operation at a time, as IEEE doubles.
    """
    size, pix = render.IMAGE_SIZE, render.VIEW_SQUARE_SIZE / render.IMAGE_SIZE
    right, up, _ = (frame.tolist() for frame in view.camera_frame())
    position = view.position.tolist()
    us = [(c - (size - 1) / 2.0) * pix for c in range(size)]
    vs = [((size - 1) / 2.0 - r) * pix for r in range(size)]
    columns = [[position[i] + u * right[i] for i in range(3)] for u in us]
    return [[tuple(col[i] + v * up[i] for i in range(3)) for col in columns] for v in vs]


def brute_force_render(mesh: TriangleMesh, view) -> DepthImage:
    """Nearest hit per pixel by testing every triangle against every pixel.

    Shares the ray/triangle kernel with the renderer (the bit-exactness
    contract requires identical per-pair arithmetic) but tests every triangle
    against every pixel instead of only the pixels of its guarded per-row spans.
    Reads ``render.IMAGE_SIZE`` and ``render.VIEW_SQUARE_SIZE`` at call time,
    like the renderer, so a test can narrow both.
    """
    origins, direction = camera_rays(view)
    ox, oy, oz = origins[..., 0], origins[..., 1], origins[..., 2]
    best = np.full((render.IMAGE_SIZE, render.IMAGE_SIZE), np.inf)
    for v0, v1, v2 in mesh.triangles:
        t = ray_triangle_hits(ox, oy, oz, direction, v0, v1, v2)
        best = np.minimum(best, t)
    return DepthImage(depth_codes(best))


def histogram_entropy(pixels: np.ndarray) -> float:
    """Plain-Python recount of the image entropy in bits."""
    counts = Counter(int(v) for v in pixels.ravel())
    total = pixels.size
    h = 0.0
    for count in counts.values():
        p = count / total
        h -= p * math.log2(p)
    return h


def brute_force_peaks(values: np.ndarray) -> list[tuple[int, int, float]]:
    """Plateau-aware local-maximum scan of a 5x12 map, by exhaustive per-cell checks.

    Columns wrap, rows clamp. A cell is a peak iff it is >= every neighbor,
    it is the lexicographically smallest cell of its equal-valued plateau,
    and some cell adjacent to the plateau is strictly lower; a constant map
    has the single peak (0, 0). Sorted by value descending, then (row, col).
    """
    n_rows, n_cols = values.shape

    def neighbors(r, c):
        out = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                rr = r + dr
                if 0 <= rr < n_rows:
                    out.append((rr, (c + dc) % n_cols))
        return out

    if all(values[r, c] == values[0, 0] for r in range(n_rows) for c in range(n_cols)):
        return [(0, 0, float(values[0, 0]))]

    peaks = []
    for r in range(n_rows):
        for c in range(n_cols):
            v = values[r, c]
            if any(values[nr, nc] > v for nr, nc in neighbors(r, c)):
                continue
            plateau = {(r, c)}
            stack = [(r, c)]
            while stack:
                cur = stack.pop()
                for nb in neighbors(*cur):
                    if nb not in plateau and values[nb] == v:
                        plateau.add(nb)
                        stack.append(nb)
            if min(plateau) != (r, c):
                continue
            border = {
                nb for cell in plateau for nb in neighbors(*cell) if nb not in plateau
            }
            if any(values[nb] < v for nb in border):
                peaks.append((r, c, float(v)))
    peaks.sort(key=lambda p: (-p[2], p[0], p[1]))
    return peaks


def analytic_cube_shell(interior: int, padding: int) -> np.ndarray:
    """Exact occupancy of the unit cube's surface on the padded grid.

    Uses rational arithmetic: a closed cell box intersects the cube surface
    iff it intersects the closed cube and is not contained in its open
    interior.
    """
    dims = interior + 2 * padding
    occ = np.zeros((dims, dims, dims), dtype=bool)
    half = Fraction(1, 2)
    for i in range(interior):
        lo_i = Fraction(i, interior) - half
        hi_i = Fraction(i + 1, interior) - half
        for j in range(interior):
            lo_j = Fraction(j, interior) - half
            hi_j = Fraction(j + 1, interior) - half
            for k in range(interior):
                lo_k = Fraction(k, interior) - half
                hi_k = Fraction(k + 1, interior) - half
                los = (lo_i, lo_j, lo_k)
                his = (hi_i, hi_j, hi_k)
                touches = all(lo <= half and hi >= -half for lo, hi in zip(los, his))
                inside = all(lo > -half and hi < half for lo, hi in zip(los, his))
                occ[padding + i, padding + j, padding + k] = touches and not inside
    return occ


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _reference_box_overlap(triangle: np.ndarray, centers: np.ndarray, half: float) -> np.ndarray:
    """Separating-axis overlap of one triangle against many closed cubes, axis by axis."""
    v0, v1, v2 = triangle
    e0 = v1 - v0
    e1 = v2 - v1
    e2 = v0 - v2
    normal = np.array(
        [e0[1] * e1[2] - e0[2] * e1[1], e0[2] * e1[0] - e0[0] * e1[2], e0[0] * e1[1] - e0[1] * e1[0]]
    )
    axes = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), normal]
    for edge in (e0, e1, e2):
        axes.append(np.array([0.0, -edge[2], edge[1]]))  # cross(x, edge)
        axes.append(np.array([edge[2], 0.0, -edge[0]]))  # cross(y, edge)
        axes.append(np.array([-edge[1], edge[0], 0.0]))  # cross(z, edge)

    alive = np.ones(len(centers), dtype=bool)
    for axis in axes:
        r = half * np.abs(axis).sum() + _TOUCH_EPS
        q = (float(_dot3(axis, v0)), float(_dot3(axis, v1)), float(_dot3(axis, v2)))
        lo, hi = min(q), max(q)
        s = _dot3((centers[:, 0], centers[:, 1], centers[:, 2]), axis)
        alive &= ~((lo - s > r) | (hi - s < -r))
    return alive


def reference_voxelize(mesh: TriangleMesh, interior: int = 50, padding: int = 3) -> np.ndarray:
    """Surface occupancy on the padded grid, one triangle at a time.

    Tests each triangle against every cell of its bounding box (one cell
    wider per side), with the dot products written out in three terms like
    the batched voxelizer, so both must agree bit for bit.
    """
    n = interior
    cell = 1.0 / n
    half = cell / 2.0
    dims = n + 2 * padding
    occ = np.zeros((dims, dims, dims), dtype=bool)
    for tri in mesh.triangles:
        lo_idx = np.maximum(np.floor((tri.min(axis=0) + 0.5) / cell).astype(int) - 1, 0)
        hi_idx = np.minimum(np.floor((tri.max(axis=0) + 0.5) / cell).astype(int) + 1, n - 1)
        if (lo_idx > hi_idx).any():
            continue
        ranges = [np.arange(lo_idx[a], hi_idx[a] + 1) for a in range(3)]
        ix, iy, iz = np.meshgrid(*ranges, indexing="ij")
        idx = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        centers = -0.5 + (idx + 0.5) * cell
        sel = idx[_reference_box_overlap(tri, centers, half)] + padding
        occ[sel[:, 0], sel[:, 1], sel[:, 2]] = True
    return occ


def reference_view_features(image: DepthImage) -> np.ndarray:
    """Float64 means of the 8x8 pixel blocks: the view features before integer block sums."""
    h, w = image.pixels.shape
    return image.pixels.astype(np.float64).reshape(h // 8, 8, w // 8, 8).mean(axis=(1, 3)).ravel()


def reference_voxel_features(grid) -> np.ndarray:
    """Float64 occupancy fractions of the 4^3 voxel blocks: the entropy features before integer counts."""
    m = len(grid.occupancy) // 4
    blocks = grid.occupancy.astype(np.float64).reshape(m, 4, m, 4, m, 4)
    return blocks.sum(axis=(1, 3, 5)).ravel() / 64.0


def reference_knn_distances(features: np.ndarray, query: np.ndarray) -> np.ndarray:
    """L1 distances over float64 block means, one per row: the k-NN formula before integer features."""
    return np.abs(features - query).sum(axis=1)


def _reference_neighbors(distances: np.ndarray, k: int):
    exact = [i for i, d in enumerate(distances) if d == 0.0]
    if exact:
        return [exact[0]], None
    order = sorted(range(len(distances)), key=lambda i: distances[i])[:k]  # stable
    return order, [1.0 / (distances[i] + 1e-9) for i in order]


def reference_view_prediction(features, category_ids, viewpoints, categories, k, image):
    """(class scores, viewpoint scores) of the float64 k-NN view predictor for one image."""
    order, weights = _reference_neighbors(
        reference_knn_distances(features, reference_view_features(image)), k
    )
    class_scores = dict.fromkeys(categories, 0.0)
    viewpoint_scores = np.zeros(60)
    if weights is None:
        class_scores[categories[category_ids[order[0]]]] = 1.0
        viewpoint_scores[viewpoints[order[0]]] = 1.0
        return class_scores, viewpoint_scores
    total = np.array(weights).sum()
    for idx, w in zip(order, weights):
        class_scores[categories[category_ids[idx]]] += w / total
        viewpoint_scores[viewpoints[idx]] += w / total
    return class_scores, viewpoint_scores


def reference_entropy_values(features, maps, k, grid) -> np.ndarray:
    """The 5x12 values of the float64 k-NN entropy predictor for one grid."""
    order, weights = _reference_neighbors(
        reference_knn_distances(features, reference_voxel_features(grid)), k
    )
    if weights is None or len(order) == 1:
        return maps[order[0]]
    weights = np.array(weights)
    return (weights[:, None, None] * maps[order]).sum(axis=0) / weights.sum()
