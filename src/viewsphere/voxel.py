"""Binary occupancy grids: surface voxelization by triangle/box overlap."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import MeshError, TriangleMesh, assert_normalized, pair_chunks

INTERIOR_SIZE = 50
PADDING = 3

_MAGIC = b"VOXG"
_HEADER = struct.Struct("<4s3BB8x")  # magic, dims x3, padding, 8 reserved bytes


@dataclass(frozen=True)
class VoxelGrid:
    """Cubic boolean occupancy grid, indexed [x, y, z], with an empty padding shell."""

    occupancy: np.ndarray
    interior_size: int = INTERIOR_SIZE
    padding: int = PADDING

    def __post_init__(self):
        occ = np.array(self.occupancy, dtype=bool, copy=True)
        d = self.interior_size + 2 * self.padding
        if occ.shape != (d, d, d):
            raise ValueError(f"occupancy must have shape ({d}, {d}, {d}), got {occ.shape}")
        core = occ[
            self.padding : self.padding + self.interior_size,
            self.padding : self.padding + self.interior_size,
            self.padding : self.padding + self.interior_size,
        ]
        if occ.sum() != core.sum():
            raise ValueError("padding shell contains occupied voxels")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)

    @property
    def dims(self) -> int:
        return self.interior_size + 2 * self.padding

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())


#: Absolute slack in the separation comparisons. Cell coordinates are rounded
#: floats, so an exact geometric touch can compute as a ~1e-16 separation; the
#: slack keeps closed-box touches occupied without affecting anything farther
#: than 1e-12 away.
_TOUCH_EPS = 1e-12


#: (triangle, cell) pairs per batched overlap test, and triangles whose axis
#: tables are held at once; small blocks keep memory flat.
_PAIR_CHUNK = 4096
_TRIANGLE_BLOCK = 512


def _separating_axes(tris: np.ndarray, half: float) -> list[np.ndarray]:
    """Akenine-Moller's 13 triangle/box separating axes, one (7, T) table each.

    The rows hold the axis components, the triangle's projected interval
    ``lo, hi`` on the axis, and the cell's projected radius ``r`` (plus the
    touch slack) and its negation. The triangle normal comes first because it
    rejects the most candidate cells; the box normals and the nine edge cross
    products follow. Every dot product is written out in three terms, so no
    BLAS kernel decides the rounding.
    """
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    e0, e1, e2 = v1 - v0, v2 - v1, v0 - v2
    zero, one = np.zeros(len(tris)), np.ones(len(tris))
    axes = [
        (
            e0[:, 1] * e1[:, 2] - e0[:, 2] * e1[:, 1],
            e0[:, 2] * e1[:, 0] - e0[:, 0] * e1[:, 2],
            e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0],
        ),
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    ]
    for edge in (e0, e1, e2):
        ex, ey, ez = edge[:, 0], edge[:, 1], edge[:, 2]
        axes += [(zero, -ez, ey), (ez, zero, -ex), (-ey, ex, zero)]  # cross(x|y|z, edge)

    tables = []
    for ax, ay, az in axes:
        q0, q1, q2 = (ax * v[:, 0] + ay * v[:, 1] + az * v[:, 2] for v in (v0, v1, v2))
        lo = np.minimum(np.minimum(q0, q1), q2)
        hi = np.maximum(np.maximum(q0, q1), q2)
        r = half * (np.abs(ax) + np.abs(ay) + np.abs(az)) + _TOUCH_EPS
        tables.append(np.stack([ax, ay, az, lo, hi, r, -r]))
    return tables


def _overlaps(table: np.ndarray, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """Pairs whose cell and triangle are not separated along the axis of ``table``.

    ``table`` holds one column per pair. Every term is finite, so the two
    comparisons negate the separation test ``lo - s > r or hi - s < -r``.
    """
    ax, ay, az, lo, hi, r, neg_r = table
    s = ax * cx + ay * cy + az * cz
    return (lo - s <= r) & (hi - s >= neg_r)


def _mark_surface(tris: np.ndarray, n: int, surface: np.ndarray) -> None:
    """Set ``surface[(ix * n + iy) * n + iz]`` for every cell that a triangle touches.

    Candidates are each triangle's bounding box of cells, one cell wider per
    side. The normal axis rejects most of them; its survivors are regrouped
    into full blocks before the other twelve axes.
    """
    cell = 1.0 / n
    half = cell / 2.0
    lo_idx = np.maximum(np.floor((tris.min(axis=1) + 0.5) / cell).astype(int) - 1, 0)
    hi_idx = np.minimum(np.floor((tris.max(axis=1) + 0.5) / cell).astype(int) + 1, n - 1)
    nx, ny, nz = np.maximum(hi_idx - lo_idx + 1, 0).T
    per_tri = np.stack([ny * nz, nz, *lo_idx.T])
    centers_1d = -0.5 + (np.arange(n) + 0.5) * cell
    normal, *others = _separating_axes(tris, half)

    def test_others(tri, cells, cx, cy, cz):
        for table in others:
            keep = _overlaps(table[:, tri], cx, cy, cz)
            if not keep.all():
                tri, cells, cx, cy, cz = tri[keep], cells[keep], cx[keep], cy[keep], cz[keep]
        surface[cells] = True

    held, n_held = [], 0
    for block, span, k in pair_chunks(nx * ny * nz, _PAIR_CHUNK):
        yz, z_len, x0, y0, z0 = np.repeat(per_tri[:, block], span, axis=1)
        ix, rest = np.divmod(k, yz)
        iy, iz = np.divmod(rest, z_len)
        ix += x0
        iy += y0
        iz += z0
        cx, cy, cz = centers_1d[ix], centers_1d[iy], centers_1d[iz]
        keep = np.flatnonzero(_overlaps(np.repeat(normal[:, block], span, axis=1), cx, cy, cz))
        tri = np.repeat(np.arange(block.start, block.stop), span)[keep]
        cells = (ix[keep] * n + iy[keep]) * n + iz[keep]
        held.append((tri, cells, cx[keep], cy[keep], cz[keep]))
        n_held += len(keep)
        if n_held >= _PAIR_CHUNK:
            test_others(*map(np.concatenate, zip(*held)))
            held, n_held = [], 0
    if held:
        test_others(*map(np.concatenate, zip(*held)))


def voxelize(
    mesh: TriangleMesh,
    interior_size: int = INTERIOR_SIZE,
    padding: int = PADDING,
    solid: bool = False,
) -> VoxelGrid:
    """Voxelize a normalized mesh onto the padded occupancy grid.

    A voxel is occupied iff its closed cell box intersects at least one
    triangle (separating-axis test). With ``solid=True`` the surface grid is
    additionally flood-filled by x-parity scanlines; this assumes reasonably
    watertight geometry and is off by default.

    Raises:
        MeshError: mesh unnormalized or without faces.
        ValueError: interior_size < 1.
    """
    if interior_size < 1:
        raise ValueError(f"interior_size must be >= 1, got {interior_size}")
    if len(mesh.faces) == 0:
        raise MeshError("cannot voxelize a mesh with no faces")
    assert_normalized(mesh)

    n = interior_size
    dims = n + 2 * padding
    occ = np.zeros((dims, dims, dims), dtype=bool)

    surface = np.zeros(n**3, dtype=bool)
    tris = mesh.triangles
    for first in range(0, len(tris), _TRIANGLE_BLOCK):
        _mark_surface(tris[first : first + _TRIANGLE_BLOCK], n, surface)
    occ[padding : padding + n, padding : padding + n, padding : padding + n] = surface.reshape(n, n, n)

    if solid:
        _parity_fill(mesh, occ, n, padding)

    return VoxelGrid(occupancy=occ, interior_size=interior_size, padding=padding)


def _parity_fill(mesh: TriangleMesh, occ: np.ndarray, n: int, padding: int) -> None:
    """Mark interior cells whose center lies inside the mesh, by x-ray parity.

    Rays run along +x through cell centers; crossing counts are unreliable
    exactly on shared edges, which has measure zero for generic meshes. Each
    triangle is tested only against the rays through its y/z bounding box of
    cells, one cell wider per side as in the surface pass, batched into
    (triangle, ray) pairs. A ray a cell or more outside the box misses the
    triangle by about ``cell / (2 * diameter)`` or more in barycentric terms,
    far above the rounding of ``a`` and ``b`` unless ``|den|`` is below ~1e-13.
    """
    cell = 1.0 / n
    centers_1d = -0.5 + (np.arange(n) + 0.5) * cell
    tris = mesh.triangles
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = tris.transpose(1, 2, 0)
    den = (y1 - y0) * (z2 - z0) - (z1 - z0) * (y2 - y0)
    keep = den != 0.0  # zero: edge-on to the x direction
    yz = tris[keep][:, :, 1:]
    lo_idx = np.maximum(np.floor((yz.min(axis=1) + 0.5) / cell).astype(int) - 1, 0)
    hi_idx = np.minimum(np.floor((yz.max(axis=1) + 0.5) / cell).astype(int) + 1, n - 1)
    ny, nz = (hi_idx - lo_idx + 1).T
    rows = np.stack([x0, y0, z0, x1 - x0, y1 - y0, z1 - z0, x2 - x0, y2 - y0, z2 - z0, den])[:, keep]
    per_tri = np.stack([nz, *lo_idx.T])

    rays, xs_hit = [], []
    for block, span, k in pair_chunks(ny * nz, _PAIR_CHUNK):
        z_len, iy, iz = np.repeat(per_tri[:, block], span, axis=1)
        dy, dz = np.divmod(k, z_len)
        iy += dy
        iz += dz
        yc, zc = centers_1d[iy], centers_1d[iz]
        px, py, pz, e1x, e1y, e1z, e2x, e2y, e2z, d = np.repeat(rows[:, block], span, axis=1)
        a = ((yc - py) * e2z - (zc - pz) * e2y) / d
        b = (e1y * (zc - pz) - e1z * (yc - py)) / d
        inside = np.flatnonzero((a >= 0.0) & (b >= 0.0) & (a + b <= 1.0))
        rays.append((iy * n + iz)[inside])
        xs_hit.append((px + a * e1x + b * e2x)[inside])
    if not rays:
        return
    ray, xs = np.concatenate(rays), np.concatenate(xs_hit)
    order = np.lexsort((xs, ray))
    ray, xs = ray[order], xs[order]
    # coplanar triangles sharing an edge report the same crossing twice
    fresh = np.ones(len(ray), dtype=bool)
    fresh[1:] = (ray[1:] != ray[:-1]) | (xs[1:] != xs[:-1])
    ray, xs = ray[fresh], xs[fresh]
    # a crossing at x flips the parity of every cell center at or beyond x
    first_flipped = np.searchsorted(centers_1d, xs, side="left")
    flips = np.bincount(ray * (n + 1) + first_flipped, minlength=n * n * (n + 1))
    odd = np.cumsum(flips.reshape(n * n, n + 1)[:, :n], axis=1) % 2 == 1  # [iy * n + iz, ix]
    occ[padding : padding + n, padding : padding + n, padding : padding + n] |= odd.reshape(n, n, n).transpose(2, 0, 1)


def pool_voxels(grid: VoxelGrid, factor: int) -> np.ndarray:
    """Downsample to occupancy fractions over factor^3 blocks.

    Raises:
        ValueError: if factor does not divide the grid dimension.
    """
    d = grid.dims
    if factor < 1 or d % factor != 0:
        raise ValueError(f"factor {factor} does not divide grid dimension {d}")
    m = d // factor
    blocks = grid.occupancy.astype(np.float64).reshape(m, factor, m, factor, m, factor)
    return blocks.sum(axis=(1, 3, 5)) / float(factor**3)


def save_grid(grid: VoxelGrid, path: str | Path) -> None:
    """Write the binary grid file: 16-byte header + little-endian packed bits, x-major."""
    d = grid.dims
    header = _HEADER.pack(_MAGIC, d, d, d, grid.padding)
    bits = np.packbits(grid.occupancy.ravel(order="C").view(np.uint8), bitorder="little")
    Path(path).write_bytes(header + bits.tobytes())


def load_grid(path: str | Path) -> VoxelGrid:
    """Read a grid written by :func:`save_grid`."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated voxel grid file")
    magic, dx, dy, dz, padding = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if not dx == dy == dz:
        raise ValueError(f"{path}: non-cubic dims {(dx, dy, dz)}")
    n_bits = dx * dy * dz
    payload = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
    if len(payload) != (n_bits + 7) // 8:
        raise ValueError(f"{path}: payload size mismatch")
    flat = np.unpackbits(payload, count=n_bits, bitorder="little").astype(bool)
    return VoxelGrid(
        occupancy=flat.reshape(dx, dy, dz),
        interior_size=dx - 2 * padding,
        padding=padding,
    )
