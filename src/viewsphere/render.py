"""Deterministic orthographic depth rendering by batched ray/triangle tests.

Each view casts one ray per pixel center. A triangle is tested only against
the pixel centers of its per-row spans: the rows, and on each row the
columns, that lie within a guard ``g = K * eps * |e1| |e2| / |a| + floor`` of
its projection. ``g`` bounds how far outside the exact triangle the rounded
barycentric test of the kernel can accept a ray; :func:`_guard` derives it.
All (triangle, pixel) pairs run through the one kernel, :func:`_hits`, in
fixed-size blocks, and ``np.minimum.at`` keeps the nearest hit per pixel, so
every image equals testing every triangle against every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh, assert_normalized, pair_chunks
from .viewrig import Viewpoint

IMAGE_SIZE = 224
VIEW_SQUARE_SIZE = 1.9

#: (triangle, pixel) pairs per batched kernel call; small blocks keep memory flat.
_PAIR_CHUNK = 4096
#: Rounding guard ``g = _GUARD_K * eps * |e1| |e2| / |a| + _GUARD_FLOOR`` around
#: each projected triangle, in world units; :func:`_guard` derives both values.
_GUARD_K = 4096.0
_GUARD_FLOOR = 1e-12

BACKGROUND_CODE = 0
NEAR_CODE = 255
FAR_CODE = 1


@dataclass(frozen=True)
class RenderConfig:
    """Renderer knobs; the defaults define the canonical dataset geometry."""

    width: int = IMAGE_SIZE
    height: int = IMAGE_SIZE
    view_size: float = VIEW_SQUARE_SIZE


@dataclass
class DepthImage:
    """8-bit depth image, row-major from top-left.

    Code 0 is background; codes 1..255 encode hit distance, closer = larger.
    """

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            raise ValueError(f"depth image pixels must be uint8, got {pixels.dtype}")
        if pixels.ndim != 2 or pixels.size == 0:
            raise ValueError(f"depth image must be a non-empty 2D array, got shape {pixels.shape}")
        pixels = pixels.copy()
        pixels.setflags(write=False)
        self.pixels = pixels

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _triangle_terms(direction, v0, v1, v2):
    """Moller-Trumbore terms that depend only on the triangle and the ray direction.

    Corners are indexed by their last axis, so ``v0`` may be one corner (3,)
    or one corner per triangle (N, 3). Returns the rows
    ``(v0, e1, e2, h = d x e2)`` as 12 components, and ``a = e1 . h``.
    """
    dx, dy, dz = (float(direction[0]), float(direction[1]), float(direction[2]))
    v0x, v0y, v0z = v0[..., 0], v0[..., 1], v0[..., 2]
    e1x, e1y, e1z = v1[..., 0] - v0x, v1[..., 1] - v0y, v1[..., 2] - v0z
    e2x, e2y, e2z = v2[..., 0] - v0x, v2[..., 1] - v0y, v2[..., 2] - v0z
    hx = dy * e2z - dz * e2y
    hy = dz * e2x - dx * e2z
    hz = dx * e2y - dy * e2x
    a = e1x * hx + e1y * hy + e1z * hz
    return np.array([v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z, hx, hy, hz]), a


def _hits(ox, oy, oz, direction, terms):
    """Distances along the rays for ``terms`` = the 12 triangle rows plus ``f = 1 / a``.

    Each row is a scalar (one triangle against a bundle of rays) or an array
    shaped like the rays (one triangle per ray).
    """
    dx, dy, dz = (float(direction[0]), float(direction[1]), float(direction[2]))
    v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z, hx, hy, hz, f = terms
    sx = ox - v0x
    sy = oy - v0y
    sz = oz - v0z
    u = f * (sx * hx + sy * hy + sz * hz)
    qx = sy * e1z - sz * e1y
    qy = sz * e1x - sx * e1z
    qz = sx * e1y - sy * e1x
    v = f * (dx * qx + dy * qy + dz * qz)
    t = f * (e2x * qx + e2y * qy + e2z * qz)
    hit = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 0.0)
    return np.where(hit, t, np.inf)


def ray_triangle_hits(ox, oy, oz, direction, v0, v1, v2):
    """Moller-Trumbore distances for parallel rays; +inf where missed.

    ``v0``, ``v1``, ``v2`` are either one triangle's corners (3,), tested
    against every ray, or per-pair corners (N, 3) matched to rays of shape
    (N,). The component arithmetic is written out term by term, so results
    are bit-identical however the pairs are shaped, sliced or ordered.
    Degenerate (zero-area) triangles never register hits.
    """
    rows, a = _triangle_terms(direction, np.asarray(v0), np.asarray(v1), np.asarray(v2))
    f = 1.0 / np.where(a != 0.0, a, np.nan)  # NaN fails every hit comparison
    return _hits(ox, oy, oz, direction, (*rows, f))


def _pixel_axes(config: RenderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Image-plane coordinates of pixel centers: u per column, v per row (top row = +v)."""
    pix_u = config.view_size / config.width
    pix_v = config.view_size / config.height
    ucoords = (np.arange(config.width) - (config.width - 1) / 2.0) * pix_u
    vcoords = ((config.height - 1) / 2.0 - np.arange(config.height)) * pix_v
    return ucoords, vcoords


def _ray_origins(view: Viewpoint, config: RenderConfig, out: list | None = None) -> list[np.ndarray]:
    """x, y and z of the per-pixel ray origins, each (h, w): position + u * right + v * up.

    Fills the three planes of ``out`` in place when given.
    """
    right, up, _ = view.camera_frame()
    ucoords, vcoords = _pixel_axes(config)
    if out is None:
        out = [np.empty((config.height, config.width)) for _ in range(3)]
    for c, plane in enumerate(out):
        np.add(view.position[c] + ucoords[None, :] * right[c], vcoords[:, None] * up[c], out=plane)
    return out


def camera_rays(view: Viewpoint, config: RenderConfig | None = None):
    """Orthographic per-pixel ray origins (h, w, 3) and the shared unit direction."""
    origins = np.stack(_ray_origins(view, config or RenderConfig()), axis=-1)
    return origins, view.camera_frame()[2]


def depth_codes(distances: np.ndarray, radius: float) -> np.ndarray:
    """Quantize hit distances to uint8 codes: [radius-1, radius+1] -> [255, 1], miss -> 0."""
    hit = np.isfinite(distances)
    scaled = 255.0 - 127.0 * (np.where(hit, distances, radius) - (radius - 1.0))
    codes = np.clip(np.rint(scaled), FAR_CODE, NEAR_CODE)
    return np.where(hit, codes, BACKGROUND_CODE).astype(np.uint8)


def _guard(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per triangle, a distance in the image plane that holds every pixel ``_hits`` can accept.

    ``_hits`` accepts a ray when its computed barycentrics pass ``u >= 0``,
    ``v >= 0`` and ``u + v <= 1``. Rounding moves each of the three edges the
    test sees. With machine epsilon ``eps``, ``s`` the ray origin minus
    ``v0``, and ``kappa = |e1| |e2| / |a|`` (at least 1, large for triangles
    seen edge-on), a first-order running error analysis gives:

    - the components of ``h = d x e2`` are off by at most 1.5 eps |e2|, and
      the dot products ``s . h`` and ``d . (s x e1)`` by at most
      4.6 eps |s| |e2| and 4.6 eps |s| |e1|;
    - ``a = e1 . h`` is off by at most 4.6 eps |e1| |e2|, so ``f = 1 / a``
      carries a relative error of at most 5.1 eps kappa;
    - an error ``du`` moves the edge ``u = 0`` by ``du`` times the height
      ``|a| / |d x e2|`` of the triangle over that edge, and ``|e2|`` over
      the projected length ``|d x e2|`` is at most ``kappa``; the same holds
      for the other two edges. The relative error of ``f`` matters only on
      ``u + v = 1``, where it moves the edge by 5.1 eps kappa times a height of
      at most sqrt(3) (the unit cube's diagonal).

    So every computed hit lies within ``eps * kappa * (9.2 |s| + 10)`` of the
    exact projected triangle. With a view radius ``R`` and a view square of
    side ``S``, ``|s| <= R + S / sqrt(2) + sqrt(3) / 2``: 4.2 for the default
    rig, where the bound is 49 eps kappa. ``_GUARD_K`` = 4096 covers it 80
    times over and stays a bound up to ``R`` = 440. ``_GUARD_FLOOR`` = 1e-12
    covers the absolute rounding of the ray origins and of the projected
    corners, a few eps ``(R + 1)``.

    The guard stays near 1e-12 for ordinary triangles; it exceeds one pixel
    of the default image (8.5e-3) only where ``kappa`` exceeds about 1e10.
    """
    e1 = np.sqrt(rows[3] * rows[3] + rows[4] * rows[4] + rows[5] * rows[5])
    e2 = np.sqrt(rows[6] * rows[6] + rows[7] * rows[7] + rows[8] * rows[8])
    return _GUARD_K * np.finfo(np.float64).eps * (e1 * e2 / np.abs(a)) + _GUARD_FLOOR


def _row_spans(pu, pv, g, ucoords, vcoords):
    """Yield ``(tri, first, n_cols)`` per (triangle, row) span, ``_PAIR_CHUNK`` rows at a time.

    ``pu``, ``pv`` (T, 3) are the projected corners and ``g`` (T,) the
    guards. A row is taken when its center ``y`` lies within ``g`` of the
    triangle's v-extent. On it, each edge whose v-extent reaches within ``g``
    of ``y`` meets the band ``[y - g, y + g]`` at u within ``|du/dv| g`` of
    where it crosses ``y``; that interval, widened by ``g`` more for the
    rounding of the crossing itself and clamped to the edge's own u-extent,
    holds every point of the edge inside the band. The row's span covers
    these intervals plus ``g`` on both sides, so it holds every pixel center
    within ``g`` of the triangle. ``first`` is the flat index of the span's
    first pixel.
    """
    neg_v = -vcoords  # ascending
    r0 = np.searchsorted(neg_v, -(pv.max(axis=1) + g), side="left")
    n_rows = np.maximum(np.searchsorted(neg_v, -(pv.min(axis=1) - g), side="right") - r0, 0)

    # edges p -> q, one per row of each (3, T) field. A horizontal edge divides
    # by 1 instead of 0 and takes an infinite width, which clamps it to its
    # whole u-extent without forming inf * 0; fmax/fmin fall back to the
    # u-extent should an overflowed slope make a crossing NaN.
    pu, pv = pu.T, pv.T
    qu, qv = np.roll(pu, -1, axis=0), np.roll(pv, -1, axis=0)
    horizontal = pv == qv
    slope = (qu - pu) / np.where(horizontal, 1.0, qv - pv)
    width = g * np.where(horizontal, np.inf, np.abs(slope) + 1.0)  # |du/dv| g + g
    v_extent = [np.minimum(pv, qv) - g, np.maximum(pv, qv) + g]
    edges = [pu, pv, slope, width, *v_extent, np.minimum(pu, qu), np.maximum(pu, qu)]

    for block, span, k in pair_chunks(n_rows, _PAIR_CHUNK):
        tri = np.repeat(np.arange(block.start, block.stop), span)
        row = np.repeat(r0[block], span) + k
        y = vcoords[row]
        e_pu, e_pv, e_slope, e_width, v_lo, v_hi, u_lo, u_hi = (np.take(field, tri, axis=1) for field in edges)
        e_g = g[tri]
        cross = e_pu + (y - e_pv) * e_slope
        near = (v_lo <= y) & (y <= v_hi)
        lo = np.where(near, np.fmax(cross - e_width, u_lo), np.inf).min(axis=0) - e_g
        hi = np.where(near, np.fmin(cross + e_width, u_hi), -np.inf).max(axis=0) + e_g
        col = np.searchsorted(ucoords, lo, side="left")
        n_cols = np.maximum(np.searchsorted(ucoords, hi, side="right") - col, 0)
        yield tri, row * len(ucoords) + col, n_cols


def _cast_view(tris, view, config, origins, tbuf) -> None:
    """Fold the nearest hit of every triangle into the flat depth buffer ``tbuf``.

    ``origins`` holds the view's flat ray-origin planes. Candidate pairs
    come from :func:`_row_spans` and run through ``_hits`` in blocks of at
    most ``_PAIR_CHUNK``; ``np.minimum.at`` reduces them, and min is
    order-independent, so the result equals testing every triangle against
    every pixel.
    """
    right, up, direction = view.camera_frame()
    rows, a = _triangle_terms(direction, tris[:, 0], tris[:, 1], tris[:, 2])
    valid = a != 0.0
    tris, rows, a = tris[valid], rows[:, valid], a[valid]
    terms = np.vstack([rows, 1.0 / a])

    x, y, z = tris[..., 0], tris[..., 1], tris[..., 2]
    pu = x * right[0] + y * right[1] + z * right[2]
    pv = x * up[0] + y * up[1] + z * up[2]
    ox, oy, oz = origins
    for tri, first, n_cols in _row_spans(pu, pv, _guard(rows, a), *_pixel_axes(config)):
        for block, span, k in pair_chunks(n_cols, _PAIR_CHUNK):
            pix = np.repeat(first[block], span) + k
            pair_terms = np.take(terms, np.repeat(tri[block], span), axis=1)
            t = _hits(ox[pix], oy[pix], oz[pix], direction, pair_terms)
            hit = t < np.inf
            np.minimum.at(tbuf, pix[hit], t[hit])


def render_depth(
    mesh: TriangleMesh,
    view: Viewpoint,
    config: RenderConfig | None = None,
) -> DepthImage:
    """Render one orthographic depth image; see :func:`render_all_views`."""
    return render_all_views(mesh, [view], config)[0]


def render_all_views(
    mesh: TriangleMesh,
    rig: list[Viewpoint],
    config: RenderConfig | None = None,
) -> list[DepthImage]:
    """Render every rig viewpoint, ordered by view index, one ray per pixel center.

    Each triangle is tested only against the pixels of its per-row spans:
    the pixel centers within a rounding guard (:func:`_guard`) of its
    projection, so every pixel the kernel could hit is tested and the
    nearest hit per pixel equals testing every triangle against every pixel.
    The depth buffer and the ray-origin planes are allocated once per call
    and reused across views. Bit-identical for identical inputs.
    """
    cfg = config or RenderConfig()
    if len(mesh.faces) == 0:
        return [DepthImage(np.zeros((cfg.height, cfg.width), dtype=np.uint8)) for _ in rig]
    assert_normalized(mesh)

    tris = mesh.triangles
    planes = [np.empty((cfg.height, cfg.width)) for _ in range(3)]
    tbuf = np.empty(cfg.height * cfg.width)
    images = []
    for view in rig:
        _ray_origins(view, cfg, out=planes)
        tbuf.fill(np.inf)
        _cast_view(tris, view, cfg, [p.reshape(-1) for p in planes], tbuf)
        codes = np.zeros(cfg.height * cfg.width, dtype=np.uint8)
        hit = np.flatnonzero(tbuf < np.inf)
        codes[hit] = depth_codes(tbuf[hit], view.radius)
        images.append(DepthImage(codes.reshape(cfg.height, cfg.width)))
    return images


def write_pgm_array(pixels: np.ndarray, path: str | Path) -> None:
    """Write a uint8 array as binary PGM (P5, maxval 255); byte-exact for identical input."""
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise ValueError(f"PGM payload must be a 2D uint8 array, got {pixels.dtype} {pixels.shape}")
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_pgm(image: DepthImage, path: str | Path) -> None:
    """Write a depth image as binary PGM."""
    write_pgm_array(image.pixels, path)


def read_pgm(path: str | Path) -> DepthImage:
    """Read a binary PGM written by :func:`write_pgm` (or any P5 with maxval <= 255)."""
    blob = Path(path).read_bytes()
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(blob):
            raise ValueError(f"{path}: truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(blob) - pos < width * height:
        raise ValueError(f"{path}: truncated PGM payload")
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=width * height)
    return DepthImage(data.reshape(height, width))
