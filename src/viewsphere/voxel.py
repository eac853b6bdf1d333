"""Binary occupancy grids: surface voxelization by triangle/box overlap."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import MeshError, TriangleMesh, assert_normalized, pair_chunks

#: A 50^3 interior inside an empty shell of PADDING voxels: DIMS^3 cells.
INTERIOR_SIZE = 50
PADDING = 3
DIMS = INTERIOR_SIZE + 2 * PADDING

_MAGIC = b"VOXG"
_HEADER = struct.Struct("<4s3BB8x")  # magic, dims x3, padding, 8 reserved bytes
_INTERIOR = (slice(PADDING, PADDING + INTERIOR_SIZE),) * 3


@dataclass(frozen=True)
class VoxelGrid:
    """Cubic boolean occupancy grid, indexed [x, y, z], with an empty padding shell."""

    occupancy: np.ndarray

    def __post_init__(self):
        occ = np.array(self.occupancy, dtype=bool, copy=True)
        if occ.shape != (DIMS, DIMS, DIMS):
            raise ValueError(f"occupancy must have shape ({DIMS}, {DIMS}, {DIMS}), got {occ.shape}")
        if np.count_nonzero(occ) != np.count_nonzero(occ[_INTERIOR]):
            raise ValueError("padding shell contains occupied voxels")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)

    @property
    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.occupancy))


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
    """Akenine-Moller's triangle/box separating axes but the box normals, one (7, T) table each.

    The rows hold the axis components, the triangle's projected interval
    ``lo, hi`` on the axis, and the cell's projected radius ``r`` (plus the
    touch slack) and its negation. The triangle normal comes first because it
    rejects the most candidate cells; the nine edge cross products follow.
    The three box normals need no table: :func:`_cell_box` keeps exactly the
    cells they keep. Every dot product is written out in three terms, so no
    BLAS kernel decides the rounding.
    """
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    e0, e1, e2 = v1 - v0, v2 - v1, v0 - v2
    zero = np.zeros(len(tris))
    axes = [
        (
            e0[:, 1] * e1[:, 2] - e0[:, 2] * e1[:, 1],
            e0[:, 2] * e1[:, 0] - e0[:, 0] * e1[:, 2],
            e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0],
        )
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


def _cell_box(lo: np.ndarray, hi: np.ndarray, r: float, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells ``[first, stop)`` per axis that the box-normal axes keep, for extents ``lo``, ``hi``.

    On the box normal along x the cell's projection ``s = 1 cx + 0 cy + 0 cz``
    is exactly ``cx``, ``lo`` and ``hi`` are the triangle's x-extent, and the
    radius is ``r``. The axis keeps a cell iff ``lo - cx <= r`` and
    ``hi - cx >= -r``, as :func:`_overlaps` computes them. Rounding is
    monotone, so the first test holds for all centers from some index on and
    the second for all up to some index, and the cells that the three axes
    keep form a box. A search for ``lo - r`` (``hi + r``) among the sorted
    centers places each bound to within one cell: the rounding of either
    side moves a comparison by a few eps, and no two centers lie that close
    to one value. So each bound is the search's index less one, plus the
    outcome of the exact test at that index and at the one before it; the
    infinite centers beyond both ends of the grid fail the first test and
    pass the second, as the index of a bound outside the grid needs.
    """
    ends = np.concatenate([[-np.inf], centers, [np.inf]])  # ends[i + 1] is center i
    near = np.searchsorted(centers, lo - r, side="left")
    first = near - 1 + (lo - ends[near] > r) + (lo - ends[near + 1] > r)
    near = np.searchsorted(centers, hi + r, side="right")
    stop = near - 1 + (hi - ends[near] >= -r) + (hi - ends[near + 1] >= -r)
    return first, stop


def _mark_surface(tris: np.ndarray, surface: np.ndarray) -> None:
    """Set ``surface[(ix * n + iy) * n + iz]``, n = ``INTERIOR_SIZE``, for every cell that a triangle touches.

    Candidates are the cells of each triangle's box that the three box-normal
    axes keep (:func:`_cell_box`). The normal axis rejects most of them; its
    survivors are regrouped into full blocks before the nine edge axes.
    """
    n = INTERIOR_SIZE
    cell = 1.0 / n
    half = cell / 2.0
    centers_1d = -0.5 + (np.arange(n) + 0.5) * cell
    # the box-normal radius half * (|1| + |0| + |0|) + slack
    first, stop = _cell_box(tris.min(axis=1), tris.max(axis=1), half + _TOUCH_EPS, centers_1d)
    nx, ny, nz = np.maximum(stop - first, 0).T
    starts, blocks = pair_chunks(nx * ny * nz, _PAIR_CHUNK)
    # the candidate number of pair p of triangle t is p - starts[t]
    per_tri = np.stack([-starts, ny * nz, nz, *first.T])
    normal, *others = _separating_axes(tris, half)

    def test_others(tri, cells, cx, cy, cz):
        for table in others:
            keep = _overlaps(table[:, tri], cx, cy, cz)
            if not keep.all():
                tri, cells, cx, cy, cz = tri[keep], cells[keep], cx[keep], cy[keep], cz[keep]
        surface[cells] = True

    held, n_held = [], 0
    for block, span, pairs in blocks:
        k, yz, z_len, x0, y0, z0 = np.repeat(per_tri[:, block], span, axis=1)
        k += pairs
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


def voxelize(mesh: TriangleMesh) -> VoxelGrid:
    """Voxelize a normalized mesh onto the padded surface occupancy grid.

    A voxel is occupied iff its closed cell box intersects at least one
    triangle (separating-axis test).

    Raises:
        MeshError: mesh unnormalized or without faces.
    """
    if len(mesh.faces) == 0:
        raise MeshError("cannot voxelize a mesh with no faces")
    assert_normalized(mesh)

    n = INTERIOR_SIZE
    surface = np.zeros(n**3, dtype=bool)
    tris = mesh.triangles
    for first in range(0, len(tris), _TRIANGLE_BLOCK):
        _mark_surface(tris[first : first + _TRIANGLE_BLOCK], surface)
    occ = np.zeros((DIMS, DIMS, DIMS), dtype=bool)
    occ[_INTERIOR] = surface.reshape(n, n, n)
    return VoxelGrid(occ)


def block_sums(values: np.ndarray, factor: int, dtype) -> np.ndarray:
    """Sums over the factor-wide blocks along every axis of ``values``, accumulated in ``dtype``.

    The block axes are folded one at a time by adding slices, which is
    several times faster than one sum over strided axes.

    Raises:
        ValueError: if factor does not divide every dimension.
    """
    if factor < 1 or any(n % factor for n in values.shape):
        raise ValueError(f"factor {factor} does not divide dimensions {values.shape}")
    sums = values.reshape([s for n in values.shape for s in (n // factor, factor)])
    for axis in range(1, values.ndim + 1):
        layer = (slice(None),) * axis
        folded = sums[layer + (0,)].astype(dtype)
        for i in range(1, factor):
            folded += sums[layer + (i,)]
        sums = folded
    return sums


def save_grid(grid: VoxelGrid, path: str | Path) -> None:
    """Write the binary grid file: 16-byte header + little-endian packed bits, x-major."""
    header = _HEADER.pack(_MAGIC, DIMS, DIMS, DIMS, PADDING)
    bits = np.packbits(grid.occupancy.ravel(order="C").view(np.uint8), bitorder="little")
    Path(path).write_bytes(header + bits.tobytes())


def load_grid(path: str | Path) -> VoxelGrid:
    """Read a grid written by :func:`save_grid`.

    Raises:
        ValueError: naming the file, if it is truncated, has a bad magic, a
            header other than dims 56^3 with padding 3, a payload of the
            wrong size, or occupied voxels in the padding shell.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated voxel grid file")
    magic, dx, dy, dz, padding = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if (dx, dy, dz, padding) != (DIMS, DIMS, DIMS, PADDING):
        raise ValueError(
            f"{path}: grid header reads dims {(dx, dy, dz)} with padding {padding}, "
            f"expected {DIMS}^3 with padding {PADDING}"
        )
    n_bits = DIMS**3
    payload = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
    if len(payload) != n_bits // 8:
        raise ValueError(f"{path}: payload size mismatch")
    flat = np.unpackbits(payload, bitorder="little")  # 0/1 bytes; VoxelGrid copies them to bool
    try:
        return VoxelGrid(flat.reshape(DIMS, DIMS, DIMS))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
