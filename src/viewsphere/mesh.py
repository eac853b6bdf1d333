"""Triangle meshes: OFF parsing/writing, unit-cube normalization, vertex noise, pair chunking."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data or geometry."""


class OffParseError(MeshError):
    """Malformed OFF input; carries the 1-based line number of the offence."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DegenerateGeometryError(MeshError):
    """Geometry without usable spatial extent."""


@dataclass(frozen=True)
class TriangleMesh:
    """Immutable triangle soup: float64 vertices (V, 3), int64 faces (F, 3)."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=np.float64, copy=True).reshape(-1, 3)
        faces = np.array(self.faces, dtype=np.int64, copy=True).reshape(-1, 3)
        if not np.isfinite(vertices).all():
            raise MeshError("vertex coordinates must be finite")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise MeshError("face index out of range")
        vertices.setflags(write=False)
        faces.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)

    @property
    def triangles(self) -> np.ndarray:
        """Corner coordinates per face, shape (F, 3, 3)."""
        return self.vertices[self.faces]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box (min, max)."""
        if len(self.vertices) == 0:
            raise DegenerateGeometryError("mesh has no vertices")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def pair_chunks(counts: np.ndarray, chunk_size: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Enumerate (triangle, candidate) pairs in blocks of at most ``chunk_size``.

    Triangle ``i`` owns ``counts[i]`` candidates, numbered ``0..counts[i]-1``,
    and pairs run in triangle order, so a triangle may span blocks. Each block
    is ``(tris, span, k)``: the slice of triangles it touches, the number of
    pairs each of them has in the block, and the candidate number of every
    pair. ``np.repeat(x[..., tris], span, axis=-1)`` expands a per-triangle
    array ``x`` to the block's pairs.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for p0 in range(0, total, chunk_size):
        p1 = min(p0 + chunk_size, total)
        tris = slice(int(np.searchsorted(ends, p0, side="right")), int(np.searchsorted(ends, p1 - 1, side="right")) + 1)
        span = np.minimum(ends[tris], p1) - np.maximum(starts[tris], p0)
        yield tris, span, np.arange(p0, p1) - np.repeat(starts[tris], span)


def _logical_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tokens) for non-empty lines, with '#' comments stripped."""
    for no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield no, body.split()


def parse_off(text: str | Iterable[str]) -> TriangleMesh:
    """Parse an OFF-family mesh file.

    Accepts the plain ``OFF`` header as well as the header fused with the
    counts line (a quirk of some ModelNet files). Polygons with more than
    three vertices are fan-triangulated around their first vertex.

    Raises:
        OffParseError: on any malformed content, with the offending line number.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    stream = _logical_lines(lines)
    end_no = len(lines) + 1

    try:
        header_no, header = next(stream)
    except StopIteration:
        raise OffParseError(1, "empty input, expected OFF header") from None

    if header[0] == "OFF" and len(header) == 1:
        try:
            counts_no, counts = next(stream)
        except StopIteration:
            raise OffParseError(end_no, "missing counts line") from None
    elif header[0].startswith("OFF") and header[0] != "OFF":
        # header fused with counts: "OFF490 581 0"
        counts_no, counts = header_no, [header[0][3:], *header[1:]]
    elif header[0] == "OFF":
        counts_no, counts = header_no, header[1:]
    else:
        raise OffParseError(header_no, f"expected OFF header, got {header[0]!r}")

    if len(counts) != 3:
        raise OffParseError(counts_no, f"expected 3 counts (vertices faces edges), got {len(counts)}")
    try:
        n_vertices, n_faces = int(counts[0]), int(counts[1])
        int(counts[2])  # edge count, ignored
    except ValueError:
        raise OffParseError(counts_no, f"non-numeric count in {' '.join(counts)!r}") from None
    if n_vertices < 0 or n_faces < 0:
        raise OffParseError(counts_no, "negative vertex or face count")

    vertices = np.zeros((n_vertices, 3))
    for i in range(n_vertices):
        try:
            no, tokens = next(stream)
        except StopIteration:
            raise OffParseError(
                end_no, f"vertex count mismatch: expected {n_vertices} vertex lines, found {i}"
            ) from None
        if len(tokens) != 3:
            raise OffParseError(no, f"expected 3 vertex coordinates, got {len(tokens)}")
        try:
            vertices[i] = [float(t) for t in tokens]
        except ValueError:
            raise OffParseError(no, f"non-numeric vertex coordinate in {' '.join(tokens)!r}") from None

    triples: list[tuple[int, int, int]] = []
    for i in range(n_faces):
        try:
            no, tokens = next(stream)
        except StopIteration:
            raise OffParseError(
                end_no, f"face count mismatch: expected {n_faces} face lines, found {i}"
            ) from None
        try:
            arity = int(tokens[0])
        except ValueError:
            raise OffParseError(no, f"non-numeric polygon size {tokens[0]!r}") from None
        if arity < 3:
            raise OffParseError(no, f"polygon with {arity} vertices")
        if len(tokens) != arity + 1:
            raise OffParseError(no, f"expected {arity} vertex indices, got {len(tokens) - 1}")
        try:
            idx = [int(t) for t in tokens[1:]]
        except ValueError:
            raise OffParseError(no, "non-numeric vertex index") from None
        for v in idx:
            if not 0 <= v < n_vertices:
                raise OffParseError(no, f"vertex index {v} out of range (0..{n_vertices - 1})")
        for k in range(1, arity - 1):
            triples.append((idx[0], idx[k], idx[k + 1]))

    for no, _ in stream:
        raise OffParseError(no, f"unexpected content after {n_faces} declared faces")

    faces = np.array(triples, dtype=np.int64).reshape(-1, 3)
    if not np.isfinite(vertices).all():
        raise OffParseError(counts_no, "non-finite vertex coordinate")
    return TriangleMesh(vertices=vertices, faces=faces)


def load_off(path: str | Path) -> TriangleMesh:
    """Parse the OFF file at ``path``."""
    return parse_off(Path(path).read_text())


def write_off(mesh: TriangleMesh, path: str | Path) -> None:
    """Write a mesh as an ASCII OFF file with full float precision."""
    out = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    for v in mesh.vertices:
        out.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for f in mesh.faces:
        out.append(f"3 {f[0]} {f[1]} {f[2]}")
    Path(path).write_text("\n".join(out) + "\n")


#: Tolerance by which a "normalized" mesh's bounding box may exceed the unit cube.
UNIT_CUBE_TOL = 1e-9


def assert_normalized(mesh: TriangleMesh) -> None:
    """Raise unless the mesh bounding box lies within the unit cube (+tolerance)."""
    lo, hi = mesh.bounds()
    if (hi > 0.5 + UNIT_CUBE_TOL).any() or (lo < -0.5 - UNIT_CUBE_TOL).any():
        raise MeshError("mesh is not normalized to the unit cube")


def normalize_to_unit_cube(mesh: TriangleMesh) -> TriangleMesh:
    """Uniformly scale + translate so the bounding box is centered at the origin
    with its largest extent equal to 1. Aspect ratios are preserved.

    Raises:
        DegenerateGeometryError: if the mesh has no spatial extent.
    """
    lo, hi = mesh.bounds()
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise DegenerateGeometryError("mesh bounding box has zero extent")
    center = (lo + hi) / 2.0
    return TriangleMesh(vertices=(mesh.vertices - center) / extent, faces=mesh.faces)


def add_gaussian_noise(mesh: TriangleMesh, sigma: float, seed: int) -> TriangleMesh:
    """Perturb every vertex coordinate with independent N(0, sigma^2) noise.

    Deterministic: identical (mesh, sigma, seed) yields identical output.
    Expects a normalized mesh, so sigma is in unit-cube units.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=mesh.vertices.shape)
    return TriangleMesh(vertices=mesh.vertices + noise, faces=mesh.faces)
