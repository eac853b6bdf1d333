"""Deterministic orthographic depth rendering by batched ray/triangle tests.

Each view casts one ray per pixel center. A triangle is tested only against
the pixel centers of its per-row spans: the rows, and on each row the
columns, that lie within a guard ``g = K * eps * |e1| |e2| / |a| + floor`` of
its projection. ``g`` bounds how far outside the exact triangle the rounded
barycentric test of the kernel can accept a ray, and how far inside it can
reject one; :func:`_guard` derives it. The columns of a span more than ``g``
inside every edge are certain hits, and most of them take their 8-bit code
from the triangle's plane depth, which is affine in the pixel's (u, v)
(:func:`_plane_terms`). Every other pair, and every inner pair whose code
rounding could decide, runs through the one kernel, :func:`_hits`, in
fixed-size blocks. The code does not increase with the distance, so
``np.maximum.at`` of the codes keeps the code of the nearest hit per pixel,
and every image equals testing every triangle against every pixel. A view and
its antipode see the same projection mirrored, so they share all of this but
the kernel, and the antipode's image is folded mirrored, at its pair's pixel
indices. Every pass casts one or more such pairs, one slot
each, over stacked images (:func:`_cast_pass`). One workspace per call
(:class:`_Workspace`) holds the triangle terms that no view changes, computed
once per mesh, and the scratch buffers that every block reuses; the images of
a call live in one memory mapping outside the malloc heap
(:func:`render_all_views`).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh, assert_normalized, pair_chunks
from .viewrig import RADIUS, Viewpoint, antipode

#: Every view is IMAGE_SIZE x IMAGE_SIZE pixels over a square of side VIEW_SQUARE_SIZE.
IMAGE_SIZE = 224
VIEW_SQUARE_SIZE = 1.9

#: (triangle, pixel) pairs per batched kernel call; small blocks keep memory flat.
_PAIR_CHUNK = 4096
#: At most this many antipodal pairs per pass; see :func:`_passes`.
_MAX_SLOTS = 6
#: Rounding guard ``g = _GUARD_K * eps * |e1| |e2| / |a| + _GUARD_FLOOR`` around
#: each projected triangle, in world units; :func:`_guard` derives both values.
_GUARD_K = 4096.0
_GUARD_FLOOR = 1e-12

BACKGROUND_CODE = 0
NEAR_CODE = 255
FAR_CODE = 1


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

    @classmethod
    def _frozen(cls, pixels: np.ndarray) -> DepthImage:
        """Wrap a read-only, C-contiguous (H, W) uint8 array without the copy, for arrays that nothing writes to after (:func:`render_all_views`, :func:`read_pgm`)."""
        image = cls.__new__(cls)
        image.pixels = pixels
        return image


def _edge_rows(v0, v1, v2) -> list:
    """The kernel rows that do not depend on the view: ``v0``, ``e1 = v1 - v0`` and ``e2 = v2 - v0``.

    Corners are indexed by their first axis, so ``v0`` may be one corner (3,)
    or one corner per triangle (3, N). Returns 9 components.
    """
    v0x, v0y, v0z = v0[0], v0[1], v0[2]
    return [v0x, v0y, v0z, v1[0] - v0x, v1[1] - v0y, v1[2] - v0z, v2[0] - v0x, v2[1] - v0y, v2[2] - v0z]


def _view_terms(direction, rows) -> tuple[list, np.ndarray]:
    """The Moller-Trumbore terms of the ray direction: ``h = d x e2`` (3 components) and ``a = e1 . h``.

    ``rows`` are the 9 rows of :func:`_edge_rows` (or a table that starts with
    them). ``direction`` is one direction (3,), or one per column of ``rows``
    (3, N).
    """
    dx, dy, dz = direction[0], direction[1], direction[2]
    e1x, e1y, e1z, e2x, e2y, e2z = rows[3:9]
    hx = dy * e2z - dz * e2y
    hy = dz * e2x - dx * e2z
    hz = dx * e2y - dy * e2x
    return [hx, hy, hz], e1x * hx + e1y * hy + e1z * hz


def _hits(ox, oy, oz, direction, terms, scratch=None):
    """Distances along the rays for ``terms`` = the 12 triangle rows plus ``f = 1 / a``.

    Each row, and each component of ``direction``, is a scalar (one triangle,
    or one direction, for a bundle of rays) or an array shaped like the rays
    (one per ray). ``scratch``, if given, is 9
    float64 and then 2 bool arrays shaped like the rays: every intermediate
    and the result are written into them, so the call allocates nothing and
    the result is ``scratch[0]``. Without it each is a new array. Either way
    the same rounded operations run in the same order.
    """
    dx, dy, dz = direction[0], direction[1], direction[2]
    v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z, hx, hy, hz, f = terms
    b = [None] * 11 if scratch is None else scratch
    sx = np.subtract(ox, v0x, out=b[0])
    sy = np.subtract(oy, v0y, out=b[1])
    sz = np.subtract(oz, v0z, out=b[2])
    # u = f * (sx * hx + sy * hy + sz * hz); b[8] holds each product before it is added
    u = np.add(np.multiply(sx, hx, out=b[3]), np.multiply(sy, hy, out=b[8]), out=b[3])
    u = np.multiply(f, np.add(u, np.multiply(sz, hz, out=b[8]), out=b[3]), out=b[3])
    # q = s x e1
    qx = np.subtract(np.multiply(sy, e1z, out=b[4]), np.multiply(sz, e1y, out=b[8]), out=b[4])
    qy = np.subtract(np.multiply(sz, e1x, out=b[5]), np.multiply(sx, e1z, out=b[8]), out=b[5])
    qz = np.subtract(np.multiply(sx, e1y, out=b[6]), np.multiply(sy, e1x, out=b[8]), out=b[6])
    # v = f * (d . q) and t = f * (e2 . q); t takes the place of sx
    v = np.add(np.multiply(dx, qx, out=b[7]), np.multiply(dy, qy, out=b[8]), out=b[7])
    v = np.multiply(f, np.add(v, np.multiply(dz, qz, out=b[8]), out=b[7]), out=b[7])
    t = np.add(np.multiply(e2x, qx, out=b[0]), np.multiply(e2y, qy, out=b[8]), out=b[0])
    t = np.multiply(f, np.add(t, np.multiply(e2z, qz, out=b[8]), out=b[0]), out=b[0])
    # hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
    hit = np.logical_and(np.greater_equal(u, 0.0, out=b[9]), np.greater_equal(v, 0.0, out=b[10]), out=b[9])
    hit = np.logical_and(hit, np.less_equal(np.add(u, v, out=b[8]), 1.0, out=b[10]), out=b[9])
    hit = np.logical_and(hit, np.greater(t, 0.0, out=b[10]), out=b[9])
    if scratch is None:
        return np.where(hit, t, np.inf)
    np.copyto(t, np.inf, where=np.logical_not(hit, out=b[9]))
    return t


def _pixel_axes(slots: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Image-plane coordinates of pixel centers: u per column, v per row (top row = +v) of ``slots`` stacked images."""
    pix = VIEW_SQUARE_SIZE / IMAGE_SIZE
    ucoords = (np.arange(IMAGE_SIZE) - (IMAGE_SIZE - 1) / 2.0) * pix
    vcoords = ((IMAGE_SIZE - 1) / 2.0 - np.arange(IMAGE_SIZE)) * pix
    return ucoords, np.tile(vcoords, slots)


def _grid_index(grid: np.ndarray, keys: np.ndarray, side: str, out: np.ndarray, scratch, flags) -> np.ndarray:
    """``np.searchsorted(grid, keys, side)`` over the pixel centers ``grid``, by arithmetic, written into ``out``.

    ``grid`` holds W >= 2 evenly spaced ascending centers (:func:`_pixel_axes`);
    ``out`` (intp), ``scratch`` (float64) and ``flags`` (bool) are shaped like
    ``keys``. The guess ``g`` is the key's fractional index, from the first
    center in steps of the grid, cast down: rounding moves it by a few eps,
    so the index lies in ``[g, g + 2]``. Keys are first clipped to a quarter
    step inside the end centers, which keeps that window and puts ``g`` in
    ``[0, W - 2]``; the clip comes before any cast, and NaN clips high, so
    no key warns. Then one exact comparison with the center at the index so
    far, twice, finds the index, as :func:`voxel._cell_box` does. A center
    counts iff it is not at least the key (``side="left"``), or not above it
    (``"right"``), so a NaN key, which sorts last, counts every center, and
    a key equal to a center, whatever the signs of their zeros, counts it
    as ``searchsorted`` does.
    """
    step = (grid[-1] - grid[0]) / (len(grid) - 1)
    x = np.fmax(np.fmin(keys, grid[-1] - step / 4, out=scratch), grid[0] + step / 4, out=scratch)
    np.copyto(out, np.divide(np.subtract(x, grid[0], out=x), step, out=x), casting="unsafe")
    above = np.greater_equal if side == "left" else np.greater
    for _ in range(2):
        below = np.logical_not(above(grid.take(out, out=scratch, mode="clip"), keys, out=flags), out=flags)
        np.add(out, below, out=out)
    return out


def _origin_terms(frames, ucoords: np.ndarray, vcoords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ray-origin terms of P views: per column ``position + u * right``, per row ``v * up``, each (3, P W).

    ``frames`` are the views' stacks (:func:`_frames`), and ``ucoords`` and
    ``vcoords`` one image's pixel axes. Column ``k W + c`` holds slot ``k``'s
    column ``c``, and row ``k W + r`` its row ``r``, as the slots' images are
    stacked, and the origin of pixel (r, c) of slot k is the sum of the two,
    one rounded addition per component. Reversed ``ucoords`` make column
    index c name pixel column ``W - 1 - c``: an antipode reads its origins
    with the column indices of its pair's first view.
    """
    position, right, up = frames[:3]
    return (position + ucoords * right).reshape(3, -1), (vcoords * up).reshape(3, -1)


def _code_scale(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The unrounded code ``255 - 127 * (t - (RADIUS - 1))`` of distances ``t``, written into ``out``."""
    return np.subtract(255.0, np.multiply(127.0, np.subtract(t, RADIUS - 1.0, out=out), out=out), out=out)


def _code_into(codes: np.ndarray, t: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Write the uint8 codes of the float64 distances ``t`` into ``codes``.

    Hit distances [RADIUS-1, RADIUS+1] map to codes [255, 1], and a miss to
    0. A distance that is not finite is a miss. Every operation on a hit's
    distance is monotone, so a nearer hit never gets a smaller code. ``t`` is
    overwritten, and ``hit``, a bool array shaped like it, is scratch.
    """
    np.isfinite(t, out=hit)
    np.clip(np.rint(_code_scale(t, out=t), out=t), FAR_CODE, NEAR_CODE, out=t)
    codes.fill(BACKGROUND_CODE)
    np.copyto(codes, t, casting="unsafe", where=hit)
    return codes


def _guard(edge_product: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per triangle, a distance in the image plane that holds every pixel ``_hits`` can accept or reject.

    ``edge_product`` is ``|e1| |e2|`` per triangle (:class:`_Workspace`).

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
    exact projected triangle, and, as the same errors move the edges inward
    as far, every ray farther than that inside all three edges is a hit. The
    rig's cameras sit at ``RADIUS`` = 2 and see a view square of side 1.9, so ``|s| <= 2 + 1.9 / sqrt(2) + sqrt(3) / 2``
    = 4.2 and the bound is 49 eps kappa (a narrower square only lowers it);
    ``_GUARD_K`` = 4096 covers it 80 times over. ``_GUARD_FLOOR`` = 1e-12
    covers the absolute rounding of the ray origins and of the projected
    corners, a few eps ``(RADIUS + 1)``.

    The guard stays near 1e-12 for ordinary triangles; it exceeds one pixel
    (8.5e-3) only where ``kappa`` exceeds about 1e10, and there the band of
    :func:`_band` takes over.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a subnormal ``a`` overflows the guard to inf, which only widens the
        # triangle's spans to every pixel center, as a brute-force test would;
        # a zero ``a`` makes it inf or NaN, but such a triangle gets no spans
        return _GUARD_K * np.finfo(np.float64).eps * (edge_product / np.abs(a)) + _GUARD_FLOOR


def _band(edge_product: np.ndarray, a: np.ndarray, g: np.ndarray, pu: np.ndarray, pv: np.ndarray) -> None:
    """Lower the guards ``g`` to ``min(g, b)`` in place, where ``b`` is a band around a line that holds every hit.

    A triangle seen nearly edge-on has a huge ``kappa``, so its guard ``g``
    (:func:`_guard`) can exceed the view square, although its hits, if any,
    lie on a thin band. ``_hits`` computes ``u = f U`` and ``v = f V`` with
    ``U = s . (d x e2)`` and ``V = d . (s x e1)``, and accepts a ray only if
    both lie in [0, 1]; ``f = 1 / a`` rounds once, and so does each product.
    With ``eps``, ``|s| <= 4.2`` and the error bounds of :func:`_guard` and
    :func:`_plane_terms`, a first-order running error analysis gives:

    - a hit has ``|U_c| <= (1 + 2 eps) |a_c|`` for the computed ``U_c`` and
      ``a_c``, and ``|a_c|`` exceeds ``|a|`` by at most 4.6 eps |e1| |e2|;
    - ``U_c`` is off from the exact ``U`` of the exact ray by at most
      4.6 eps ``|s| |e2|`` from ``h`` and the dot product, and 10.8 eps
      ``|e2|`` from the rounded ray origin and ``s``: 30 eps ``|e2|`` in all;
    - the exact ``|U|`` is the length ``|e2p|`` of the projected ``e2`` times
      the distance of the pixel center from the line of the projected ``e2``
      through the projected ``v0``. ``V`` gives the same for ``e1``.

    So every hit lies within ``(|a| + eps (6.6 |e1| |e2| + 30 |e|)) / |ep|``
    of the line of either projected edge ``ep``, and ``|e| <= sqrt(3)`` in
    the unit cube, so within ``(|a| + 53 eps (|e1| |e2| + 1)) / |ep|``. The
    band takes the line of the longer projected edge, which is at least half
    the projected extent, and stands it in for the triangle in ``pu`` and
    ``pv``: the corners become the projected ``v0`` and ``v0 +- 3 ep /
    |ep|``. Rounding noise dominates ``u`` and ``v`` all along the line, so
    the band must cross the whole view square: the projected ``v0`` lies
    within sqrt(3) / 2 of the view center and every pixel center within
    1.9 / sqrt(2), so the segment reaches past the foot of every center on
    the line. Drawing that segment from computed values adds:

    - the projected corners are off by at most 3.8 eps, so ``ep`` by 9.2 eps
      per component and its computed length ``|ep|_c`` by 16 eps; the
      denominator ``|ep|_c - 32 eps`` is therefore below ``|ep|``;
    - the computed direction of ``ep`` turns by at most 13 eps / ``|ep|``,
      which moves the line by 39 eps / ``|ep|`` within 3 of ``v0``. The
      segment's ends, and the span stage's crossings, round by a few eps.

    So ``b = (|a| + _GUARD_K eps (|e1| |e2| + 1)) / (|ep|_c - 32 eps) +
    _GUARD_FLOOR`` covers the 92 eps of the two lists 44 times over, and the
    floor covers the absolute rounding, as in ``g``. ``b`` is below ``g``
    only for triangles seen nearly edge-on, whose hits are then tested pair
    by pair on a line of pixels instead of on every pixel. The three corners
    lie on one line, so the crossings of a row by any two edges differ by a
    few eps ``(1 + |du/dv|)``, far below the edges' widths (:func:`_row_spans`),
    and a banded triangle gets no inner columns. The antipode casts the same
    lines from the other side, with ``h`` and ``f`` negated, so its hits obey
    the same bound on the mirrored band. A projected edge so short
    that the denominator is not positive, or that ``b`` overflows, keeps
    ``g``. The corners of banded triangles are rewritten in place.
    """
    eps = np.finfo(np.float64).eps
    # |ep|_c < 2, so b > |a| / 2 + _GUARD_FLOOR, which exceeds g unless
    # |a|^2 < 2 _GUARD_K eps |e1| |e2|; twice that bound leaves room for rounding
    with np.errstate(under="ignore"):
        steep = np.flatnonzero(a * a < 4.0 * _GUARD_K * eps * edge_product)
    if len(steep) == 0:
        return
    du, dv = pu[1:, steep] - pu[0, steep], pv[1:, steep] - pv[0, steep]  # the projected e1 and e2
    length = np.sqrt(du * du + dv * dv)
    with np.errstate(over="ignore", divide="ignore"):
        b = (np.abs(a[steep]) + _GUARD_K * eps * (edge_product[steep] + 1.0)) / np.maximum(
            length.max(axis=0) - 32.0 * eps, 0.0
        )
    b += _GUARD_FLOOR
    narrow = np.flatnonzero(b < g[steep])
    banded = steep[narrow]
    longer = (length[1, narrow] > length[0, narrow]).astype(np.intp)
    reach = 3.0 / length[longer, narrow]
    step_u, step_v = reach * du[longer, narrow], reach * dv[longer, narrow]
    u0, v0 = pu[0, banded], pv[0, banded]
    pu[:, banded] = u0 - step_u, u0, u0 + step_u
    pv[:, banded] = v0 - step_v, v0, v0 + step_v
    g[banded] = b[narrow]


class _Workspace:
    """The arrays one :func:`render_all_views` call allocates once and reuses.

    A pass casts up to ``slots`` antipodal pairs at once (:func:`_cast_pass`),
    one per slot, and the per-triangle tables hold one column per (slot,
    triangle): column ``slot * T + t``. A pass of P slots uses the first
    P T columns.

    - Per mesh: ``corners`` (corner, axis, T); the 16 kernel rows of every
      (slot, triangle) in ``terms``, of which rows 0-8, ``v0``, ``e1`` and
      ``e2``, do not depend on the view and are computed here, once per
      triangle and then copied to every slot; ``edge_product`` (slots T,),
      ``|e1| |e2|``, for the guards; ``normals`` (4, T), ``n = e1 x e2``
      and ``n . v0``; and the pixel axes ``ucoords`` (W,) and ``vcoords``
      (slots W,) of the stacked images (:func:`_pixel_axes`).
    - Per pass: :func:`_pass_spans` writes each slot's first view's
      ``h = d x e2`` and ``f = 1 / a`` into rows 9-12 of ``terms`` in place,
      and its direction into rows 13-15, which the kernel gathers per pair;
      :func:`_plane_terms` the plane depth terms and margins into ``plane``
      (4, slots T), and :func:`_row_spans` the per-edge span fields into
      ``edges`` (8, 3, slots T).
    - Per block: one buffer of each dtype (float64, bool, intp and uint8),
      which the span stage, the plane-depth codes and the pair kernel take in
      turn (:meth:`scratch`) and fill with ``out=``. A block of any stage is
      done with its scratch before the next block of any stage begins, and
      hands on only new arrays, but for the codes and pixel indices of
      :func:`_run_codes`, which its caller folds before any other stage
      runs. Each buffer grows to the largest block the call has asked of
      it, at most ``_PAIR_CHUNK`` pairs wide. Gathers into it use the
      array method ``take(..., mode="clip")``, which writes into ``out``
      unbuffered (the hot loops call array methods, not the ``np.take``,
      ``np.repeat`` and ``np.flatnonzero`` wrappers, which cost about 1.5 us
      a call);
      their indices (table columns, and span and run indices from
      :func:`mesh.pair_chunks`,
      pixel rows and columns inside the stacked images, grid indices that
      :func:`_grid_index` clamps) are in range by construction, so nothing
      clips.
    """

    def __init__(self, tris: np.ndarray, slots: int = 1):
        n_tris = len(tris)
        self.corners = np.ascontiguousarray(tris.transpose(1, 2, 0))
        self.terms = np.empty((16, slots * n_tris))
        self.terms[:9, :n_tris] = _edge_rows(*self.corners)
        for slot in range(1, slots):
            self.terms[:9, slot * n_tris : (slot + 1) * n_tris] = self.terms[:9, :n_tris]
        e1x, e1y, e1z, e2x, e2y, e2z = self.terms[3:9]
        self.edge_product = np.sqrt(e1x * e1x + e1y * e1y + e1z * e1z) * np.sqrt(e2x * e2x + e2y * e2y + e2z * e2z)
        v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z = self.terms[:9, :n_tris]
        nx, ny, nz = e1y * e2z - e1z * e2y, e1z * e2x - e1x * e2z, e1x * e2y - e1y * e2x
        self.normals = np.array([nx, ny, nz, nx * v0x + ny * v0y + nz * v0z])
        self.plane = np.empty((4, slots * n_tris))
        self.edges = np.empty((8, 3, slots * n_tris))
        self.ucoords, self.vcoords = _pixel_axes(slots)
        self._buffers: dict[type, np.ndarray] = {}

    def scratch(self, rows: int, n: int, dtype=np.float64) -> np.ndarray:
        """A C-contiguous (rows, n) view of the call's one scratch buffer of ``dtype``."""
        size = rows * n
        buf = self._buffers.get(dtype)
        if buf is None or len(buf) < size:
            buf = self._buffers[dtype] = np.empty(size, dtype)
        return buf[:size].reshape(rows, n)


def _row_spans(ws: _Workspace, pu, pv, g, live, ucoords, vcoords):
    """Yield ``(tri, first, n_cols, lead, n_inner)`` per (triangle, row) span, ``_PAIR_CHUNK`` rows at a time.

    ``pu``, ``pv`` (3, N) are the projected corners, ``g`` (N,) the guards,
    and only the triangles ``live`` get spans. ``vcoords`` holds the rows of
    P square images stacked (:func:`_pixel_axes`), and the N = P T columns
    are P views of the T triangles (:class:`_Workspace`): the spans of slot
    ``k`` lie in rows ``k W`` to ``k W + W - 1``. A row is taken when its center
    ``y`` lies within ``g`` of the triangle's v-extent. On it, each edge whose
    v-extent reaches within ``g`` of ``y`` meets the band ``[y - g, y + g]``
    at u within ``|du/dv| g`` of where it crosses ``y``; that interval,
    widened by ``g`` more for the rounding of the crossing itself and clamped
    to the edge's own u-extent, holds every point of the edge inside the
    band. The row's span covers these intervals plus ``g`` on both sides, so
    it holds every pixel center within ``g`` of the triangle. ``first`` is
    the flat index of the span's first pixel in the stacked images.

    The span's inner columns, ``n_inner`` of them after the first ``lead``,
    are pixel centers more than ``g`` inside every edge, which ``_hits``
    certainly accepts (:func:`_guard`). They come from rows that exactly two
    edges reach. If ``y`` lies in the triangle's v-extent, those two edges
    cross it and the third is more than ``g`` away; a center between the
    crossings and more than an edge's width ``|du/dv| g + g`` from each is
    more than ``g`` from both edge lines, and so from the whole boundary.
    Otherwise the two edges meet at the extreme corner, within ``g`` of
    ``y``, and their widths together exceed the distance between their
    crossings, so no center qualifies. A row that all three edges reach gets
    no inner columns, nor does one that reaches an edge of infinite width. A
    horizontal edge, and one whose width reaches the view square, takes an
    infinite width, which clamps it to its whole u-extent. Every finite
    width is below the view square, so a crossing plus or minus its width
    rounds by a few eps, far below ``g``.

    Every search among the pixel centers is :func:`_grid_index`, one call
    per block for the four column bounds of all its spans. The block bounds
    come from :func:`mesh.pair_chunks`, once per call. The yielded arrays
    are new; the intermediates of a block live in ``ws``.
    """
    width = len(ucoords)
    # -vcoords[:W] equals ucoords, so the rows are searched among the u centers
    scratch = np.empty(len(g)), np.empty(len(g), np.bool_)
    r0 = _grid_index(ucoords, -(pv.max(axis=0) + g), "left", np.empty(len(g), np.intp), *scratch)
    n_rows = _grid_index(ucoords, -(pv.min(axis=0) - g), "right", np.empty(len(g), np.intp), *scratch)
    n_rows -= r0
    np.maximum(n_rows, 0, out=n_rows)
    n_rows[~live] = 0
    slot_r0 = r0.reshape(len(vcoords) // width, -1)  # a view: one row per slot
    slot_r0 += np.arange(0, len(vcoords), width)[:, None]  # each slot's rows in the stacked images

    # edges p -> q, one per row of each (3, N) field. A horizontal edge divides
    # by 1 instead of 0; fmax/fmin fall back to the u-extent should an
    # overflowed slope make a crossing NaN, and NaN leaves a row no inner
    # columns, so the overflow is expected and not reported.
    qu, qv = np.roll(pu, -1, axis=0), np.roll(pv, -1, axis=0)
    horizontal = pv == qv
    e_pu, e_pv, e_slope, e_width, v_lo, v_hi, u_lo, u_hi = ws.edges[:, :, : len(g)]
    e_pu[:], e_pv[:] = pu, pv
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(qu - pu, np.where(horizontal, 1.0, qv - pv), out=e_slope)
        np.multiply(g, np.abs(e_slope) + 1.0, out=e_width)  # |du/dv| g + g
        np.copyto(e_width, np.inf, where=horizontal | (e_width >= VIEW_SQUARE_SIZE))
    np.subtract(np.minimum(pv, qv), g, out=v_lo)
    np.add(np.maximum(pv, qv), g, out=v_hi)
    np.minimum(pu, qu, out=u_lo)
    np.maximum(pu, qu, out=u_hi)

    starts, blocks = pair_chunks(n_rows, _PAIR_CHUNK)
    r0 -= starts  # the row of pair p of triangle t is r0[t] + p
    for block, span, pairs in blocks:
        tri = np.arange(block.start, block.stop).repeat(span)
        row = r0[block].repeat(span)
        row += pairs
        n = len(tri)
        floats = ws.scratch(36, n)
        y, e_g, lo, hi, in_lo, in_hi = floats[24:30]
        cross, bound = floats[30:].reshape(2, 3, n)
        # from the whole table, which is C-contiguous, so take does not copy it
        fields = ws.edges.take(tri, axis=2, out=floats[:24].reshape(8, 3, n), mode="clip")
        e_pu, e_pv, e_slope, e_width, v_lo, v_hi, u_lo, u_hi = fields
        vcoords.take(row, out=y, mode="clip")
        g.take(tri, out=e_g, mode="clip")
        bools = ws.scratch(7, n, np.bool_)
        far, below = bools[:6].reshape(2, 3, n)
        np.less_equal(v_lo, y, out=far)
        np.logical_and(far, np.less_equal(y, v_hi, out=below), out=far)
        all_reach = np.logical_and.reduce(far, axis=0, out=bools[6])
        np.logical_not(far, out=far)  # the edges whose v-extent misses the row
        # each bound serves twice: cross - width bounds the inner columns from
        # the right and the span from the left, and cross + width the converse.
        # An edge that misses the row takes -inf (inf) in a max (min): fmin
        # (fmax) with far * -inf (far * inf), which is that at the edge and
        # NaN, which both skip, elsewhere, as 0 * inf is NaN. The stand-ins
        # take the rows of v_lo and v_hi, which are dead by now
        with np.errstate(over="ignore", invalid="ignore"):
            skip_lo, skip_hi = np.multiply(far, -np.inf, out=v_lo), np.multiply(far, np.inf, out=v_hi)
            np.add(e_pu, np.multiply(np.subtract(y, e_pv, out=cross), e_slope, out=cross), out=cross)
            np.subtract(cross, e_width, out=bound)
            np.fmin(bound, skip_lo, out=bound)
            bound.max(axis=0, out=in_hi)
            np.fmax(bound, u_lo, out=bound)
            np.fmax(bound, skip_hi, out=bound)
            np.subtract(bound.min(axis=0, out=lo), e_g, out=lo)
            np.add(cross, e_width, out=bound)
            np.fmax(bound, skip_hi, out=bound)
            bound.min(axis=0, out=in_lo)
            np.fmin(bound, u_hi, out=bound)
            np.fmin(bound, skip_lo, out=bound)
            np.add(bound.max(axis=0, out=hi), e_g, out=hi)
        np.copyto(in_lo, np.nan, where=all_reach)
        # one search finds all four bounds, with the rows of the dead span
        # fields as scratch. The centers are antisymmetric, so the count of
        # centers <= hi is W less the count below -hi. hi is never NaN: every
        # edge reaches each row of a triangle whose guard is infinite
        np.negative(hi, out=hi)
        np.negative(in_hi, out=in_hi)
        col, stop_cols, start, stop = _grid_index(
            ucoords, floats[26:30], "left", ws.scratch(4, n, np.intp), floats[:4], bools[:4]
        )
        n_cols = np.subtract(width, np.add(stop_cols, col, out=stop_cols))
        np.maximum(n_cols, 0, out=n_cols)
        # the inner columns, from col: [max(start, 0), min(stop, n_cols)). A NaN
        # bound sorts last, so it starts them at W and, negated, stops them at 0
        np.subtract(start, col, out=start)
        np.maximum(start, 0, out=start)
        np.subtract(width, np.add(stop, col, out=stop), out=stop)
        np.minimum(stop, n_cols, out=stop)
        n_inner = np.subtract(stop, start)
        np.maximum(n_inner, 0, out=n_inner)
        lead = np.minimum(start, n_cols)
        row *= width
        row += col
        yield tri, row, n_cols, lead, n_inner


def _project(corners, axis):
    """Coordinate of every corner (corner, axis, T) along the image-plane ``axis``, written out term by term.

    A stack of P axes (3, P, 1) gives (3, P T), column ``slot * T + t``
    (:class:`_Workspace`), and one axis (3,) gives (3, T).
    """
    corners = corners[:, :, None]
    return (corners[:, 0] * axis[0] + corners[:, 1] * axis[1] + corners[:, 2] * axis[2]).reshape(len(corners), -1)


def _plane_terms(ws: _Workspace, position, right, up, g: np.ndarray) -> None:
    """Write the plane depth terms and code margin of every triangle in each slot's view into ``ws.plane``.

    ``position``, ``right`` and ``up`` are stacks of one per slot (3, P, 1)
    (:func:`_frames`), and ``g`` (P T,) holds the guards (:func:`_pass_spans`).

    The ray of pixel (u, v) meets the plane of a triangle at
    ``t = alpha + beta u + gamma v``, with ``n = e1 x e2``, ``f = 1 / a`` the
    kernel's (``a = e1 . (d x e2) = -n . d``) and ``alpha = f (n . position
    - n . v0)``, ``beta = f (n . right)`` and ``gamma = f (n . up)``. The
    unrounded code ``c(t) = 255 - 127 (t - (RADIUS - 1))``
    (:func:`_code_scale`) of the plane depth is affine in u along a row:
    ``c = A + B u`` with ``A = c(alpha + gamma v)`` and ``B = -127 beta``.
    :func:`_run_codes` evaluates ``A`` and ``B`` once per run and the
    bounds ``(A - M) + B u`` and ``(A + M) + B u`` per pixel, and the margin
    ``M`` keeps the kernel's computed ``c(t)`` at an inner pixel between
    the two computed bounds.

    With ``eps``, ``kappa = |e1| |e2| / |a|`` and ``|s| <= 4.2`` as in
    :func:`_guard`, ``|n| <= kappa |a|``, and at an inner pixel the exact
    ``t*``, from the exact ray origin ``position + u right + v up``, lies in
    ``[RADIUS - sqrt(3) / 2, RADIUS + sqrt(3) / 2]``, so ``|t*| <= 2.87``. A
    first-order running error analysis gives:

    - the kernel: its ray origin is off by at most 8.7 eps and ``s`` by
      2.1 eps more, which moves ``t = n . s / a`` by 10.8 eps kappa;
      ``e2 . (s x e1)`` is off by 4.6 eps ``|s| |e1| |e2|``, which moves ``t``
      by 19.3 eps kappa; the relative error 5.1 eps kappa of ``f`` moves it by
      14.7 eps kappa, and the last product by 1.5 eps. In all, 47 eps kappa;
    - the plane terms: ``n`` is off by 2.6 eps ``|e1| |e2|``, so ``n .
      position - n . v0``, ``n . right`` and ``n . up`` are off by 13.2, 4.1
      and 4.1 eps ``|e1| |e2|`` and, with ``|u|, |v| <= 0.95``, move the
      plane depth by 21 eps kappa. The three terms share ``f``, so its
      relative error moves it by 5.1 eps kappa ``|t*|`` = 14.7 eps kappa,
      and not by that times each term. In all, 36 eps kappa;
    - the code, with ``|alpha| <= 2.87 kappa`` and ``|beta u|, |gamma v| <=
      0.95 kappa``: ``alpha + gamma v`` rounds by 4.8 eps kappa, and ``A``,
      of magnitude below 127 * 6.9 kappa, by 127 * 16.5 eps kappa more;
      ``B u`` by 127 * 1.9 eps kappa; and the two sums by eps (127 * 6.9
      kappa + 240 + 2 M). In all, 127 * 30 eps kappa + eps (240 + 2 M).

    So each computed bound lies within ``127 * 66 eps kappa + eps (240 +
    2 M)`` of ``c(t*) -+ M``, and the kernel's computed ``c(t)`` within
    ``127 * 47 eps kappa`` of ``c(t*)``, plus the rounding of ``c``, below
    1e-13. The antipode casts the same line from the other side
    (``position' = -position = RADIUS d``): its exact distance is ``2 RADIUS
    - t*``, whose exact ``c`` is ``256 - c(t*)``, and its kernel obeys the
    same 47 eps kappa bound, so the same bounds, subtracted from 256, hold
    its code too. ``M = 127 g >= 127 (4096 eps kappa + 1e-12)`` covers the
    113 eps kappa of the three lists 36 times over, and 1.27e-10 covers the
    absolute rounding, below 2e-13, many times over. First order suffices:
    a triangle with inner columns has ``g`` below the view square, so eps
    kappa < 5e-4, and its projection holds a disc of radius ``g >= 1e-12``,
    so ``|a|``, twice the projected area, exceeds 1e-23 and no term is
    subnormal.

    Rounding is monotone, and ``rint(256 - x) = 256 - rint(x)`` because 256
    is even, so where the two bounds round to one code ``k``, the view's
    code is ``clip(k)`` and its antipode's ``256 - clip(k)``.
    """
    nx, ny, nz, n_v0 = ws.normals
    n = len(g)
    f = ws.terms[12, :n]
    alpha, beta, gamma, margin = ws.plane[:, :n]
    # a triangle seen edge-on has an infinite f and no inner columns
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(f, ((nx * position[0] + ny * position[1] + nz * position[2]) - n_v0).reshape(n), out=alpha)
        np.multiply(f, (nx * right[0] + ny * right[1] + nz * right[2]).reshape(n), out=beta)
        np.multiply(f, (nx * up[0] + ny * up[1] + nz * up[2]).reshape(n), out=gamma)
        np.multiply(127.0, g, out=margin)


def _frames(views):
    """``position``, ``right``, ``up`` and ``toward`` of P ``views``, each a (3, P, 1) stack."""
    return np.array([(view.position, *view.camera_frame()) for view in views]).transpose(1, 2, 0)[..., None]


def _pass_spans(ws: _Workspace, views):
    """Write the terms of ``views``, one per slot, into ``ws`` and return their spans (:func:`_row_spans`).

    Rows 13-15 of ``ws.terms`` take each column's direction, which the
    kernel gathers too, and ``h`` and ``a`` come from them; the other frame
    components broadcast over the triangles. So every (slot, triangle)
    element goes through the rounded operations that a pass of its view
    alone gives it.
    """
    n_tris = ws.corners.shape[-1]
    n = len(views) * n_tris
    position, right, up, direction = _frames(views)
    terms = ws.terms
    np.copyto(terms[13:, :n].reshape(3, len(views), n_tris), direction)
    h, a = _view_terms(terms[13:, :n], terms[:, :n])
    terms[9:12, :n] = h
    with np.errstate(divide="ignore", over="ignore"):
        f = np.divide(1.0, a, out=terms[12, :n])
    # a zero or subnormal ``a`` makes ``f`` infinite, and then ``u`` infinite or
    # NaN, which no hit passes: the triangle stays in the table and gets no spans
    live = np.isfinite(f)
    pu, pv = _project(ws.corners, right), _project(ws.corners, up)
    g = _guard(ws.edge_product[:n], a)
    _band(ws.edge_product[:n], a, g, pu, pv)
    _plane_terms(ws, position, right, up, g)
    return _row_spans(ws, pu, pv, g, live, ws.ucoords, ws.vcoords[: len(views) * len(ws.ucoords)])


def _run_codes(ws: _Workspace, tri, first, counts, n_inner):
    """Yield the codes of the column runs ``[first, first + counts)`` of spans, ``_PAIR_CHUNK`` pixels at a time.

    ``tri`` holds each run's table column, ``first`` the flat index of its
    first pixel in the stacked images, and every count is positive. The
    first ``n_inner`` runs are inner columns, which take their codes from
    the plane depth (:func:`_plane_terms`): per run, ``A = c(alpha + gamma
    v)``, with ``c`` the unrounded code (:func:`_code_scale`), and ``B =
    -127 beta``, so that a pixel's code lies between ``(A - M) + B u`` and
    ``(A + M) + B u``. Every later run takes the terms ``-inf``, ``inf`` and
    0, whose bounds round apart, so all its pixels go to the kernel. Each
    block is ``(codes, pixels, pairs)``: the codes of its pixels, 0 where
    rounding could decide; their flat indices; and the ``(tri, pix)`` of the
    pixels of code 0, the kernel's pairs. A pixel's flat index and its
    column are each a per-run offset plus the pixel's number
    (:func:`mesh.pair_chunks`). The first two arrays are ``ws`` scratch,
    which the caller folds before it runs the kernel pairs, which are new.
    """
    starts, blocks = pair_chunks(counts, _PAIR_CHUNK)
    offsets = np.array([first, first % IMAGE_SIZE]) - starts
    alpha, beta, gamma, margin = ws.plane.take(tri[:n_inner], axis=1)
    run_terms = np.empty((3, len(tri)))
    run_terms[:, n_inner:] = [[-np.inf], [np.inf], [0.0]]
    lower, upper, slope = run_terms[:, :n_inner]
    scaled = _code_scale(alpha + gamma * ws.vcoords.take(first[:n_inner] // IMAGE_SIZE), out=alpha)
    np.subtract(scaled, margin, out=lower)
    np.add(scaled, margin, out=upper)
    np.multiply(-127.0, beta, out=slope)
    for block, span, pairs in blocks:
        runs = np.arange(block.start, block.stop).repeat(span)
        n = len(runs)
        floats = ws.scratch(4, n)
        lower, upper, slope = run_terms.take(runs, axis=1, out=floats[:3], mode="clip")
        pix_col = offsets.take(runs, axis=1, out=ws.scratch(2, n, np.intp), mode="clip")
        pix, column = np.add(pix_col, pairs, out=pix_col)
        np.multiply(slope, ws.ucoords.take(column, out=floats[3], mode="clip"), out=slope)
        np.rint(np.add(lower, slope, out=lower), out=lower)
        np.rint(np.add(upper, slope, out=upper), out=upper)
        certain = np.equal(lower, upper, out=ws.scratch(1, n, np.bool_)[0])
        np.minimum(np.maximum(lower, FAR_CODE, out=lower), NEAR_CODE, out=lower)  # never NaN
        codes = np.multiply(lower, certain, out=ws.scratch(1, n, np.uint8)[0], casting="unsafe")
        uncertain = np.logical_not(certain, out=certain).nonzero()[0]
        yield codes, pix, (tri[runs[uncertain]], pix[uncertain])


def _kernel_codes(ws: _Workspace, members, bufs, tri, pix) -> None:
    """Fold the codes of ``_hits`` for the pairs ``(tri, pix)`` into each member's buffer (:func:`_cast_pass`).

    ``tri`` holds the pairs' table columns and ``pix`` their flat pixel
    indices in the stacked images, which hold each pair's antipode in its
    first view's pixel order.
    """
    n = len(tri)
    floats = ws.scratch(28, n)
    pair_terms, origins, scratch = floats[:16], floats[16:19], [*floats[19:], *ws.scratch(2, n, np.bool_)]
    ws.terms.take(tri, axis=1, out=pair_terms, mode="clip")
    row, column = ws.scratch(2, n, np.intp)
    codes = ws.scratch(1, n, np.uint8)[0]
    np.floor_divide(pix, IMAGE_SIZE, out=row)
    # the pair's column of its slot's column terms: slot W + c = pix - W (r - slot), slot = r // W
    np.subtract(row, np.floor_divide(row, IMAGE_SIZE, out=column), out=column)
    np.subtract(pix, np.multiply(column, IMAGE_SIZE, out=column), out=column)
    for member, ((columns, origin_rows), buf) in enumerate(zip(members, bufs)):
        if member:  # the antipode: h, f and the direction negated in place
            np.negative(pair_terms[9:], out=pair_terms[9:])
        columns.take(column, axis=1, out=origins, mode="clip")
        # the row terms pass through the kernel's first three rows before it runs
        np.add(origins, origin_rows.take(row, axis=1, out=floats[19:22], mode="clip"), out=origins)
        t = _hits(*origins, pair_terms[13:], pair_terms[:13], scratch)
        # a miss is code 0, which leaves the buffer as it is
        np.maximum.at(buf, pix, _code_into(codes, t, scratch[-1]))


def _cast_pass(ws: _Workspace, view_pairs, bufs) -> None:
    """Fold the code of every triangle's hit into the flat code buffers of the views of ``view_pairs``.

    ``view_pairs`` holds P antipodal pairs, one per slot, each in index order
    (see :func:`viewrig.antipode`). ``bufs`` holds one uint8 buffer per
    member of a pair, the P images of that member stacked in slot order, the
    antipodes' each in its pair's first-view pixel order (mirrored in u),
    and ``ws`` the call's workspace, whose term tables the pass updates. The
    triangle terms, projection, spans, pixel expansion and term gathers come
    from each slot's first view alone. Its
    antipode has ``right' = -right``, ``up' = up`` and ``toward' = -toward``,
    and negating one factor negates a rounded product, sum or difference
    exactly. So the antipode's projection is the first view's mirrored in u,
    its span on a row covers columns ``[W - c - n, W - c)`` for ``[c, c + n)``,
    and its terms are the same with ``h``, ``f`` and the direction negated.
    Zeros may differ in sign, which no comparison, search or hit test in the
    path sees.

    Each span splits into up to three column runs, its inner columns and
    the columns before and after them, and one chunked loop expands every
    run to flat pixels (:func:`_run_codes`), the inner runs first. The
    inner columns take their codes from the plane depth, the antipode's as
    ``256 - code``, and both members fold each pixel at the same index. The
    other columns, and the inner pixels whose code
    rounding could decide, run ``_hits`` once per member
    (:func:`_kernel_codes`), with that member's ray origins: each view adds
    its per-column and per-row origin terms (:func:`_origin_terms`, built
    once per pass for all P slots of each member, mirrored for the
    antipodes) at the pixel's row and column, and gathers its slot's
    direction from ``ws.terms``. Every block holds at most ``_PAIR_CHUNK``
    pixels or pairs. The code of the nearest hit is the largest, and max is
    order-independent, so each image equals the codes of testing every
    triangle against every pixel of its view.
    """
    n = len(view_pairs)
    frames = _frames([view for member in zip(*view_pairs) for view in member])  # the first views, then the antipodes
    vcoords = ws.vcoords[:IMAGE_SIZE]
    members = [_origin_terms(frames[:, :, :n], ws.ucoords, vcoords)]
    members.append(_origin_terms(frames[:, :, n:], ws.ucoords[::-1], vcoords))
    for tri, first, n_cols, lead, n_inner in _pass_spans(ws, [pair[0] for pair in view_pairs]):
        # each span's column runs: the inner ones first, then the columns before and after them
        trail = n_cols - lead - n_inner
        inner, before, after = n_inner.nonzero()[0], lead.nonzero()[0], trail.nonzero()[0]
        head = first + lead  # each span's first inner pixel
        starts = np.concatenate([head[inner], first[before], head[after] + n_inner[after]])
        counts = np.concatenate([n_inner[inner], lead[before], trail[after]])
        runs = tri[np.concatenate([inner, before, after])]
        for codes, pix, pairs in _run_codes(ws, runs, starts, counts, len(inner)):
            np.maximum.at(bufs[0], pix, codes)
            # the antipode's code is 256 - code, and 0 stays 0
            np.maximum.at(bufs[1], pix, np.negative(codes, out=codes))
            if len(pairs[0]):
                _kernel_codes(ws, members, bufs, *pairs)


def _passes(rig: list[Viewpoint], n_tris: int) -> list[list[tuple[Viewpoint, Viewpoint]]]:
    """The antipodal pairs that hold the views of ``rig``, in rig order, split into passes of up to P pairs.

    Each pair is in index order, and a view whose antipode is not in the rig
    is cast with it all the same. Each pass takes P = min(pairs left,
    ``_PAIR_CHUNK // n_tris``, ``_MAX_SLOTS``) pairs, at least one. A mesh of
    more than ``_PAIR_CHUNK / 2`` triangles thus casts one pair per pass, and
    a small one its 30 pairs in a few passes, which share the span stage, the
    plane codes and the kernel calls. ``_MAX_SLOTS`` bounds the antipode
    code buffer (P 50 KB) and the term tables of small meshes.
    """
    per_pass = max(1, min(_PAIR_CHUNK // n_tris, _MAX_SLOTS))
    firsts = list(dict.fromkeys(min(view, antipode(view), key=lambda v: v.index) for view in rig))
    pairs = [(view, antipode(view)) for view in firsts]
    return [pairs[k : k + per_pass] for k in range(0, len(pairs), per_pass)]


def _mirror_rows(src: np.ndarray, out: np.ndarray) -> None:
    """Write ``src[..., ::-1]``, uint8 rows reversed, into ``out``.

    A row reversed is its words of ``gcd(W, 8)`` bytes in reverse order, each
    byte-swapped; numpy copies 8-byte words several times faster than
    single bytes against the stride.
    """
    word = np.dtype(f"u{math.gcd(src.shape[-1], 8)}")
    np.copyto(out.view(word), src.view(word)[..., ::-1])
    out.view(word).byteswap(inplace=True)


def _mapped_images(n: int) -> np.ndarray:
    """``n`` zeroed ``IMAGE_SIZE`` x ``IMAGE_SIZE`` uint8 images in an anonymous memory mapping of their own.

    The pages are mapped at once, and the mapping goes back to the system
    when the last array that views it is dropped, so the images never take
    or leave space in the malloc heap.
    """
    length = n * IMAGE_SIZE * IMAGE_SIZE
    buf = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0))
    return np.frombuffer(buf, np.uint8).reshape(n, IMAGE_SIZE, IMAGE_SIZE)


def render_all_views(mesh: TriangleMesh, rig: list[Viewpoint]) -> list[DepthImage]:
    """Render every rig viewpoint, in rig order, one ray per pixel center.

    Each triangle is tested only against the pixels of its per-row spans:
    the pixel centers within a rounding guard (:func:`_guard`) of its
    projection, so every pixel the kernel could hit is tested. Each pair
    yields an 8-bit code, from the plane depth where that is certain and
    from the kernel elsewhere, and the largest code per pixel is the code of
    the nearest hit, so every image equals testing every triangle against
    every pixel. A view and its antipode share one projection, one span list
    and one term gather, and every pass casts one or more such pairs at once
    (:func:`_passes`, :func:`_cast_pass`); a view whose antipode is not in
    the rig is cast with it, and the antipode's image is not returned.

    All images of a call live in one read-only memory mapping
    (:func:`_mapped_images`), which each returned image views and which is
    freed with the last of them: the first views of a pass fold straight
    into their images, and the antipodes into one stacked code buffer, in
    their pairs' pixel order, from which they are copied mirrored back
    (:func:`_mirror_rows`). The images were a render's largest share of the
    malloc heap. Once freed, they left a hole there whenever a small block
    had been placed above them meanwhile, so whether later large
    allocations anywhere in the process faulted in fresh pages or reused
    the hole came down to where such blocks had landed. The antipode buffer
    and the workspace (:class:`_Workspace`) are allocated once per call and
    reused across passes; the call keeps no state after it returns.
    Bit-identical for identical inputs, however the rig is split into
    passes.
    """
    shape = (IMAGE_SIZE, IMAGE_SIZE)
    if len(mesh.faces) == 0:
        return [DepthImage(np.zeros(shape, dtype=np.uint8)) for _ in rig]
    assert_normalized(mesh)
    if not rig:
        return []
    passes = _passes(rig, len(mesh.faces))
    slots = max(map(len, passes))
    ws = _Workspace(mesh.triangles, slots)
    # each pass's first views, then its antipodes; BACKGROUND_CODE is 0, so
    # the zeroed mapping starts out as background
    pixels = _mapped_images(2 * sum(map(len, passes)))
    antipodes = np.empty(slots * IMAGE_SIZE * IMAGE_SIZE, dtype=np.uint8)
    index = {}
    at = 0
    for view_pairs in passes:
        n = len(view_pairs)
        # per member of a pair, the pass's images stacked in slot order, in the first views' pixel order
        stacked = [pixels[at : at + n].reshape(-1), antipodes[: n * IMAGE_SIZE * IMAGE_SIZE]]
        stacked[1].fill(BACKGROUND_CODE)
        _cast_pass(ws, view_pairs, stacked)
        _mirror_rows(stacked[1].reshape(n, *shape), pixels[at + n : at + 2 * n])
        for slot, (view, mirror) in enumerate(view_pairs):
            index[view], index[mirror] = at + slot, at + n + slot
        at += 2 * n
    pixels.setflags(write=False)
    return [DepthImage._frozen(pixels[index[view]]) for view in rig]


def write_pgm_array(pixels: np.ndarray, path: str | Path) -> None:
    """Write a uint8 array as binary PGM (P5, maxval 255); byte-exact for identical input."""
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise ValueError(f"PGM payload must be a 2D uint8 array, got {pixels.dtype} {pixels.shape}")
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def read_pgm(path: str | Path) -> DepthImage:
    """Read a binary PGM written by :func:`write_pgm_array` (or any P5 with maxval <= 255).

    Raises:
        ValueError: naming the file, if it is not a P5 PGM, or its header
            or payload is truncated or malformed.
    """
    blob = Path(path).read_bytes()
    try:
        return _parse_pgm(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_pgm(blob: bytes) -> DepthImage:
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(blob):
            raise ValueError("truncated PGM header")
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
        raise ValueError(f"not a binary PGM (magic {tokens[0]!r})")
    if not all(tok.isdigit() and int(tok) > 0 for tok in tokens[1:]):
        header = b" ".join(tokens[1:]).decode("ascii", "replace")
        raise ValueError(f"PGM header {header!r}: width, height and maxval must be positive integers")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise ValueError(f"unsupported maxval {maxval}")
    if len(blob) - pos < width * height:
        raise ValueError("truncated PGM payload")
    # frombuffer over bytes is read-only already, so nothing can write to it
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=width * height)
    return DepthImage._frozen(data.reshape(height, width))
