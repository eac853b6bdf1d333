"""Deterministic orthographic depth rendering by batched ray/triangle tests."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh, assert_normalized, pair_chunks
from .viewrig import Viewpoint

IMAGE_SIZE = 224
VIEW_SQUARE_SIZE = 1.9

#: Triangles whose padded pixel rectangle holds more pixels than this are
#: tested on the rectangle itself; smaller ones are batched into pairs.
_LARGE_RECT = 1024
#: (triangle, pixel) pairs per batched kernel call; small blocks keep memory flat.
_PAIR_CHUNK = 4096

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


def _ray_origins(view: Viewpoint, config: RenderConfig) -> list[np.ndarray]:
    """x, y and z of the per-pixel ray origins, each (h, w): position + u * right + v * up."""
    right, up, _ = view.camera_frame()
    ucoords, vcoords = _pixel_axes(config)
    return [view.position[c] + ucoords[None, :] * right[c] + vcoords[:, None] * up[c] for c in range(3)]


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


def render_depth(
    mesh: TriangleMesh,
    view: Viewpoint,
    config: RenderConfig | None = None,
) -> DepthImage:
    """Render one orthographic depth image by casting one ray per pixel center.

    Each triangle is tested only against the pixels of its projected bounding
    rectangle, padded by one pixel, which yields the same nearest hit per
    pixel as testing every triangle against every pixel. Small rectangles are
    batched into (triangle, pixel) pairs and reduced into the depth buffer
    with ``np.minimum.at``; large ones run on their rectangle directly.
    Bit-identical for identical inputs.
    """
    cfg = config or RenderConfig()
    if len(mesh.faces) == 0:
        return DepthImage(np.zeros((cfg.height, cfg.width), dtype=np.uint8))
    assert_normalized(mesh)

    right, up, direction = view.camera_frame()
    tris = mesh.triangles
    rows, a = _triangle_terms(direction, tris[:, 0], tris[:, 1], tris[:, 2])
    valid = a != 0.0
    tris = tris[valid]
    terms = np.vstack([rows[:, valid], 1.0 / a[valid]])

    # pixel rectangle of each triangle's projection, padded by one pixel
    ucoords, vcoords = _pixel_axes(cfg)
    x, y, z = tris[..., 0], tris[..., 1], tris[..., 2]
    pu = x * right[0] + y * right[1] + z * right[2]
    pv = x * up[0] + y * up[1] + z * up[2]
    c0 = np.maximum(np.searchsorted(ucoords, pu.min(axis=1), side="left") - 1, 0)
    c1 = np.minimum(np.searchsorted(ucoords, pu.max(axis=1), side="right") + 1, cfg.width)
    r0 = np.maximum(np.searchsorted(-vcoords, -pv.max(axis=1), side="left") - 1, 0)
    r1 = np.minimum(np.searchsorted(-vcoords, -pv.min(axis=1), side="right") + 1, cfg.height)
    cols = np.maximum(c1 - c0, 0)
    area = np.maximum(r1 - r0, 0) * cols

    tbuf = np.full((cfg.height, cfg.width), np.inf)
    ox, oy, oz = _ray_origins(view, cfg)
    for i in np.flatnonzero(area > _LARGE_RECT):
        rect = (slice(r0[i], r1[i]), slice(c0[i], c1[i]))
        sub = tbuf[rect]
        np.minimum(sub, _hits(ox[rect], oy[rect], oz[rect], direction, terms[:, i]), out=sub)

    small = np.flatnonzero((area > 0) & (area <= _LARGE_RECT))
    terms, cols = terms[:, small], cols[small]
    corner = r0[small] * cfg.width + c0[small]
    flat = tbuf.reshape(-1)
    ox, oy, oz = ox.reshape(-1), oy.reshape(-1), oz.reshape(-1)
    for block, span, k in pair_chunks(area[small], _PAIR_CHUNK):
        row, col = np.divmod(k, np.repeat(cols[block], span))
        pix = np.repeat(corner[block], span) + row * cfg.width + col
        t = _hits(ox[pix], oy[pix], oz[pix], direction, np.repeat(terms[:, block], span, axis=1))
        hit = t < np.inf
        np.minimum.at(flat, pix[hit], t[hit])

    return DepthImage(depth_codes(tbuf, view.radius))


def render_all_views(
    mesh: TriangleMesh,
    rig: list[Viewpoint],
    config: RenderConfig | None = None,
) -> list[DepthImage]:
    """Render every rig viewpoint, ordered by view index."""
    return [render_depth(mesh, view, config) for view in rig]


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
