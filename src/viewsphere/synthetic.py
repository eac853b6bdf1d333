"""Randomized primitive meshes for desk-scale experiments and tests.

Every generator adds a deliberate asymmetric feature (a tab, ridge, tilted
apex or bump) because bodies of revolution and plain cuboids have rotational
symmetries about +z that make their yaw unidentifiable; the feature gives
each instance one well-defined canonical orientation.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh, write_off

#: Side count for bodies of revolution; coprime with the 12 rig azimuths, so no
#: 30-degree grid rotation maps a facet pattern onto itself.
REVOLUTION_SIDES = 11


def _cuboid(center, extents) -> tuple[np.ndarray, np.ndarray]:
    cx, cy, cz = center
    ex, ey, ez = extents
    signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    verts = np.array([[cx + sx * ex / 2, cy + sy * ey / 2, cz + sz * ez / 2] for sx, sy, sz in signs])
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return verts, np.array(faces)


def _merge(parts: list[tuple[np.ndarray, np.ndarray]]) -> TriangleMesh:
    verts = []
    faces = []
    offset = 0
    for v, f in parts:
        verts.append(v)
        faces.append(f + offset)
        offset += len(v)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def make_box(rng: np.random.Generator) -> TriangleMesh:
    """Cuboid with a tab on the +x face (near the top +y edge) marking its front."""
    ex = rng.uniform(0.7, 1.0)
    ey = rng.uniform(0.4, 0.6)
    ez = rng.uniform(0.25, 0.4)
    tab = rng.uniform(0.18, 0.28) * ex
    body = _cuboid((0.0, 0.0, 0.0), (ex, ey, ez))
    handle = _cuboid((ex / 2 + tab / 2, ey / 4, ez / 4), (tab, ey / 3, ez / 3))
    return _merge([body, handle])


def _ring(radii, z, sides):
    angles = 2.0 * math.pi * np.arange(sides) / sides
    return np.stack([radii * np.cos(angles), radii * np.sin(angles), np.full(sides, z)], axis=1)


def make_cylinder(rng: np.random.Generator) -> TriangleMesh:
    """Faceted cylinder with one raised ridge column at azimuth zero."""
    n = REVOLUTION_SIDES
    radius = rng.uniform(0.26, 0.38)
    height = rng.uniform(0.75, 1.05)
    radii = np.full(n, radius)
    radii[0] *= rng.uniform(1.3, 1.45)
    bottom = _ring(radii, -height / 2, n)
    top = _ring(radii, height / 2, n)
    verts = np.vstack([bottom, top, [[0, 0, -height / 2]], [[0, 0, height / 2]]])
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append((i, j, n + j))
        faces.append((i, n + j, n + i))
        faces.append((2 * n, j, i))  # bottom cap
        faces.append((2 * n + 1, n + i, n + j))  # top cap
    return TriangleMesh(verts, np.array(faces))


def make_cone(rng: np.random.Generator) -> TriangleMesh:
    """Faceted cone whose apex leans toward +x."""
    n = REVOLUTION_SIDES
    radius = rng.uniform(0.3, 0.45)
    height = rng.uniform(0.75, 1.05)
    lean = rng.uniform(0.35, 0.5) * radius
    base = _ring(np.full(n, radius), -height / 2, n)
    verts = np.vstack([base, [[0, 0, -height / 2]], [[lean, 0.0, height / 2]]])
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append((n, j, i))  # base fan
        faces.append((i, j, n + 1))  # side to apex
    return TriangleMesh(verts, np.array(faces))


def make_pyramid(rng: np.random.Generator) -> TriangleMesh:
    """Rectangular-base pyramid with the apex shifted off center."""
    a = rng.uniform(0.65, 0.95)
    b = rng.uniform(0.4, 0.6)
    height = rng.uniform(0.6, 0.9)
    apex = (rng.uniform(0.12, 0.2) * a, rng.uniform(0.08, 0.15) * b, height / 2)
    corners = np.array(
        [
            [-a / 2, -b / 2, -height / 2],
            [a / 2, -b / 2, -height / 2],
            [a / 2, b / 2, -height / 2],
            [-a / 2, b / 2, -height / 2],
        ]
    )
    verts = np.vstack([corners, [apex]])
    faces = np.array([(0, 2, 1), (0, 3, 2), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
    return TriangleMesh(verts, faces)


def make_sphere(rng: np.random.Generator) -> TriangleMesh:
    """Anisotropically scaled UV sphere with a nose bump toward +x."""
    meridians = REVOLUTION_SIDES
    parallels = 8
    scale = np.array([rng.uniform(0.8, 1.0), rng.uniform(0.65, 0.8), rng.uniform(0.5, 0.65)])
    bump = rng.uniform(1.25, 1.4)
    verts = [np.array([0.0, 0.0, 1.0])]
    for i in range(1, parallels):
        phi = math.pi * i / parallels
        for j in range(meridians):
            theta = 2.0 * math.pi * j / meridians
            verts.append(
                np.array(
                    [math.sin(phi) * math.cos(theta), math.sin(phi) * math.sin(theta), math.cos(phi)]
                )
            )
    verts.append(np.array([0.0, 0.0, -1.0]))
    verts = np.array(verts)
    # push vertices near the +x axis outward to mark the front
    toward_x = verts @ np.array([1.0, 0.0, 0.0])
    verts[toward_x > math.cos(math.radians(40))] *= bump
    verts = verts * scale

    def ring_vertex(i, j):
        return 1 + (i - 1) * meridians + (j % meridians)

    faces = []
    for j in range(meridians):
        faces.append((0, ring_vertex(1, j), ring_vertex(1, j + 1)))
        faces.append((len(verts) - 1, ring_vertex(parallels - 1, j + 1), ring_vertex(parallels - 1, j)))
    for i in range(1, parallels - 1):
        for j in range(meridians):
            a = ring_vertex(i, j)
            b = ring_vertex(i, j + 1)
            c = ring_vertex(i + 1, j + 1)
            d = ring_vertex(i + 1, j)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return TriangleMesh(verts, np.array(faces))


_MAKERS = {
    "box": make_box,
    "cylinder": make_cylinder,
    "cone": make_cone,
    "pyramid": make_pyramid,
    "sphere": make_sphere,
}

#: Category names in the order that seeds each category's meshes.
CATEGORIES = tuple(_MAKERS)


def make_primitive(category: str, rng: np.random.Generator) -> TriangleMesh:
    """One randomized instance of the named primitive category."""
    try:
        maker = _MAKERS[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}, expected one of {CATEGORIES}") from None
    return maker(rng)


def generate_model_root(
    root: str | Path,
    per_category: int = 20,
    test_fraction: float = 0.25,
    seed: int = 0,
    categories: tuple[str, ...] = CATEGORIES,
) -> int:
    """Write a ModelNet-style tree of OFF files: root/category/{train,test}/*.off.

    Instance i of each category is seeded independently from (seed, category,
    i), so the tree is reproducible and stable under size changes. Returns the
    number of meshes written.
    """
    root = Path(root)
    n_test = max(1, round(per_category * test_fraction)) if per_category > 1 else 0
    n_train = per_category - n_test
    written = 0
    for cat_index, category in enumerate(categories):
        for split in ("train", "test"):
            (root / category / split).mkdir(parents=True, exist_ok=True)
        for i in range(per_category):
            rng = np.random.default_rng(np.random.SeedSequence([seed, cat_index, i]))
            mesh = make_primitive(category, rng)
            split = "train" if i < n_train else "test"
            write_off(mesh, root / category / split / f"{category}_{i:04d}.off")
            written += 1
    return written
