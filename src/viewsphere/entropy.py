"""Shannon entropy of depth views, the 5x12 spherical entropy map, peak selection."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .render import DepthImage
from .viewrig import N_AZIMUTHS, N_RINGS, N_VIEWS

MAX_ENTROPY_BITS = 8.0  # 8-bit code alphabet

#: Heatmap pixels per map cell along each axis.
HEATMAP_SCALE = 20

#: (drow, dcol) offsets of the 8-neighborhood.
_NEIGHBOR_OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]


def image_entropy(image: DepthImage) -> float:
    """Shannon entropy in bits of the image's 256-code histogram.

    Background (code 0) participates like any other code, so the
    silhouette/background ratio contributes information. Most pixels are
    background, so only the foreground codes are counted, and code 0 gets the
    rest: the counts, and so every bit of the result, equal a full count's.
    """
    pixels = image.pixels.ravel()
    foreground = pixels[pixels != 0]
    counts = np.bincount(foreground, minlength=256)
    counts[0] = pixels.size - len(foreground)
    p = counts[counts > 0] / pixels.size
    return float(-(p * np.log2(p)).sum() + 0.0)


@dataclass(frozen=True)
class EntropyMap:
    """Per-viewpoint entropy in bits on the 5x12 (ring, azimuth) grid."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.shape != (N_RINGS, N_AZIMUTHS):
            raise ValueError(f"entropy map must be {N_RINGS}x{N_AZIMUTHS}, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("entropy map contains non-finite values")
        if (values < 0.0).any() or (values > MAX_ENTROPY_BITS + 1e-9).any():
            raise ValueError(f"entropy values must lie in [0, {MAX_ENTROPY_BITS}] bits")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Peak:
    """A local maximum of the entropy map."""

    ring: int
    azimuth: int
    value: float


def entropy_map_from_views(images: list[DepthImage]) -> EntropyMap:
    """Entropy map from the 60 depth views ordered by view index."""
    if len(images) != N_VIEWS:
        raise ValueError(f"expected {N_VIEWS} images, got {len(images)}")
    values = np.array([image_entropy(img) for img in images]).reshape(N_RINGS, N_AZIMUTHS)
    return EntropyMap(values)


def _neighbors(ring: int, azimuth: int):
    """8-neighborhood with azimuth wrap-around and clamped rings."""
    for dr, dc in _NEIGHBOR_OFFSETS:
        r = ring + dr
        if 0 <= r < N_RINGS:
            yield r, (azimuth + dc) % N_AZIMUTHS


def _plateau(values: list[list[float]], ring: int, azimuth: int) -> set[tuple[int, int]]:
    """Connected component of equal-valued cells containing (ring, azimuth)."""
    v = values[ring][azimuth]
    seen = {(ring, azimuth)}
    frontier = [(ring, azimuth)]
    while frontier:
        r, c = frontier.pop()
        for nr, nc in _neighbors(r, c):
            if (nr, nc) not in seen and values[nr][nc] == v:
                seen.add((nr, nc))
                frontier.append((nr, nc))
    return seen


def find_peaks(emap: EntropyMap) -> list[Peak]:
    """Local maxima of the map, sorted by value descending.

    A cell is a peak iff it is >= all 8 neighbors (azimuth wraps, rings
    clamp), it is the lexicographically smallest cell of its equal-valued
    plateau, and the plateau rises strictly above at least one adjacent cell.
    A constant map degenerates to the single peak (0, 0). Value ties are
    ordered by (ring, azimuth).
    """
    # each cell's highest neighbour in one pass: -inf rows clamp the rings, wrapped columns the azimuths
    padded = np.full((N_RINGS + 2, N_AZIMUTHS + 2), -np.inf)
    padded[1:-1, 1:-1] = emap.values
    padded[1:-1, 0], padded[1:-1, -1] = emap.values[:, -1], emap.values[:, 0]
    highest = np.maximum.reduce(
        [padded[1 + dr : 1 + dr + N_RINGS, 1 + dc : 1 + dc + N_AZIMUTHS] for dr, dc in _NEIGHBOR_OFFSETS]
    )
    values = emap.values.tolist()  # Python floats index faster than numpy scalars
    # a cell above all its neighbours is a plateau of one cell with a lower neighbour
    peaks = [Peak(r, c, values[r][c]) for r, c in np.argwhere(emap.values > highest).tolist()]
    searched = set()  # cells of the plateaus searched so far; each plateau is searched once
    for ring, azimuth in np.argwhere(emap.values == highest).tolist():
        if (ring, azimuth) in searched:
            continue
        plateau = _plateau(values, ring, azimuth)
        searched |= plateau
        if min(plateau) != (ring, azimuth):
            continue
        # a strictly lower neighbor of a plateau cell lies outside the plateau
        v = values[ring][azimuth]
        if any(values[r][c] < v for cell in plateau for r, c in _neighbors(*cell)):
            peaks.append(Peak(ring, azimuth, v))

    peaks.sort(key=lambda p: (-p.value, p.ring, p.azimuth))
    return peaks or [Peak(0, 0, values[0][0])]  # only a constant map has no peak


def write_map_csv(emap: EntropyMap, path: str | Path) -> None:
    """5 rows x 12 columns, full decimal precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in emap.values:
            writer.writerow([repr(float(v)) for v in row])


def read_map_csv(path: str | Path) -> EntropyMap:
    """Read a map written by :func:`write_map_csv`.

    Raises:
        ValueError: naming the file, if a value is not a number or the map
            is not a valid 5x12 entropy map.
    """
    with open(path, newline="") as fh:
        try:
            return EntropyMap(np.array([[float(tok) for tok in row] for row in csv.reader(fh) if row]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def map_to_pgm_pixels(emap: EntropyMap) -> np.ndarray:
    """8-bit heatmap pixels: linear min-max mapping, constant maps to mid-gray.

    Rows follow rings, columns azimuths; each map cell becomes a
    HEATMAP_SCALE-pixel square.
    """
    values = emap.values
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        pixels = np.full(values.shape, 128, dtype=np.uint8)
    else:
        pixels = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return np.repeat(np.repeat(pixels, HEATMAP_SCALE, axis=0), HEATMAP_SCALE, axis=1)
