
import numpy as np
import pytest

from oracles import brute_force_render, closed_cylinder_mesh, random_mesh, unit_cube_mesh
from viewsphere import render
from viewsphere.mesh import MeshError, TriangleMesh
from viewsphere.render import (
    DepthImage,
    RenderConfig,
    camera_rays,
    depth_codes,
    ray_triangle_hits,
    read_pgm,
    render_all_views,
    render_depth,
    write_pgm,
)
from viewsphere.viewrig import Viewpoint, build_rig, viewpoint_from_index


def test_empty_mesh_renders_background():
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    img = render_depth(mesh, viewpoint_from_index(0))
    assert img.pixels.shape == (224, 224)
    assert not img.pixels.any()


def test_cube_silhouette_fraction():
    img = render_depth(unit_cube_mesh(), Viewpoint(ring=2, azimuth=0))
    fraction = np.count_nonzero(img.pixels) / img.pixels.size
    assert abs(fraction - (1.0 / 1.9) ** 2) < 0.01


def test_render_bit_deterministic():
    rng = np.random.default_rng(0)
    mesh = random_mesh(rng, 60)
    view = viewpoint_from_index(17)
    a = render_depth(mesh, view)
    b = render_depth(mesh, view)
    assert np.array_equal(a.pixels, b.pixels)


def test_bvh_matches_brute_force_exactly():
    rng = np.random.default_rng(1)
    for _ in range(5):
        mesh = random_mesh(rng, int(rng.integers(5, 120)))
        for index in rng.integers(0, 60, size=2):
            view = viewpoint_from_index(int(index))
            fast = render_depth(mesh, view)
            slow = brute_force_render(mesh, view)
            assert np.array_equal(fast.pixels, slow.pixels)


def test_ray_triangle_hits_accepts_per_pair_corners():
    rng = np.random.default_rng(8)
    tris = random_mesh(rng, 40).triangles
    tris[5, 2] = tris[5, 1]  # zero area: never a hit
    _, direction = camera_rays(viewpoint_from_index(9))
    # one ray per triangle, aimed at its centroid, every other one pushed sideways
    origins = tris.mean(axis=1) - 3.0 * direction + 0.05 * (np.arange(40) % 2)[:, None]
    ox, oy, oz = origins.T
    pairs = ray_triangle_hits(ox, oy, oz, direction, tris[:, 0], tris[:, 1], tris[:, 2])
    single = [ray_triangle_hits(ox[i], oy[i], oz[i], direction, *tris[i]) for i in range(40)]
    assert np.array_equal(pairs, np.array(single))
    assert np.isfinite(pairs).sum() >= 15 and np.isinf(pairs[5])


def _mixed_mesh():
    """The unit cube (large rectangles), 100 small random triangles (pairs), a
    zero-area triangle, and a big triangle that the narrow view square clips."""
    rng = np.random.default_rng(6)
    parts = [unit_cube_mesh(), random_mesh(rng, 100, radius=0.4)]
    parts.append(TriangleMesh(np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.3, 0.1, -0.2]]), [[0, 1, 2]]))
    parts.append(TriangleMesh(np.array([[0.5, 0.5, 0.5], [-0.5, 0.4, 0.5], [0.45, -0.5, -0.5]]), [[0, 1, 2]]))
    verts, faces = [], []
    for part in parts:
        faces.append(part.faces + sum(len(v) for v in verts))
        verts.append(part.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


#: 64 px over 1.2 units: cube faces still cover > 1,000 px, and corners leave the image.
_NARROW = RenderConfig(width=64, height=64, view_size=1.2)


@pytest.fixture(scope="module")
def mixed_mesh_and_oracle():
    mesh = _mixed_mesh()
    return mesh, [brute_force_render(mesh, view, _NARROW) for view in build_rig()]


@pytest.mark.parametrize("pair_chunk", [None, 7])
def test_both_render_paths_match_brute_force_on_all_views(mixed_mesh_and_oracle, monkeypatch, pair_chunk):
    mesh, oracle = mixed_mesh_and_oracle
    if pair_chunk is not None:
        monkeypatch.setattr(render, "_PAIR_CHUNK", pair_chunk)  # triangles span blocks
    for view, expected in zip(build_rig(), oracle):
        assert np.array_equal(render_depth(mesh, view, _NARROW).pixels, expected.pixels), view


def _mirrored_mesh(seed):
    """Random triangles plus their z-mirrors, with matched vertex order."""
    rng = np.random.default_rng(seed)
    half = rng.uniform(-0.45, 0.45, size=(12, 3, 3))
    mirrored = half * np.array([1.0, 1.0, -1.0])
    verts = np.vstack([half.reshape(-1, 3), mirrored.reshape(-1, 3)])
    faces = np.arange(len(verts)).reshape(-1, 3)
    return TriangleMesh(verts, faces)


def test_z_symmetric_mesh_flips_across_rings():
    mesh = _mirrored_mesh(3)
    rig = build_rig()
    images = render_all_views(mesh, rig)
    for k in range(5):
        for j in range(12):
            a = images[12 * k + j].pixels
            b = images[12 * (4 - k) + j].pixels
            assert np.array_equal(a, np.flipud(b))


def test_render_all_views_order_and_parallel_determinism():
    rng = np.random.default_rng(4)
    mesh = random_mesh(rng, 40)
    rig = build_rig()
    serial = render_all_views(mesh, rig)
    assert len(serial) == 60
    one = render_depth(mesh, rig[23])
    assert np.array_equal(serial[23].pixels, one.pixels)


def test_cylinder_yaw_invariant_foreground():
    # 360-facet cylinder: nearly symmetric under any yaw step
    mesh = closed_cylinder_mesh(360)
    counts = []
    for azimuth in range(12):
        img = render_depth(mesh, Viewpoint(ring=1, azimuth=azimuth))
        counts.append(np.count_nonzero(img.pixels))
    assert max(counts) - min(counts) <= 0.005 * 224 * 224


def test_depth_codes_antitone_and_clamped():
    radius = 2.0
    t = np.array([radius - 1.0, radius - 0.5, radius, radius + 0.5, radius + 1.0, np.inf])
    codes = depth_codes(t, radius)
    assert codes[0] == 255 and codes[4] == 1 and codes[5] == 0
    hit = codes[:-1]
    assert (np.diff(hit.astype(int)) <= 0).all()
    # out-of-range hits clamp instead of wrapping
    assert depth_codes(np.array([radius + 2.0]), radius)[0] == 1
    assert depth_codes(np.array([radius - 2.0]), radius)[0] == 255


def test_foreground_nonzero_background_zero():
    img = render_depth(unit_cube_mesh(), viewpoint_from_index(30))
    values = np.unique(img.pixels)
    assert values[0] == 0
    assert (values[1:] >= 1).all()


def test_render_rejects_unnormalized_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    with pytest.raises(MeshError, match="not normalized"):
        render_depth(TriangleMesh(verts, np.array([[0, 1, 2]])), viewpoint_from_index(0))


def test_degenerate_triangles_are_skipped_not_errors():
    verts = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    img = render_depth(mesh, viewpoint_from_index(0))
    assert not img.pixels.any()


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    img = DepthImage(rng.integers(0, 256, size=(224, 224), dtype=np.uint8))
    path = tmp_path / "v.pgm"
    write_pgm(img, path)
    again = read_pgm(path)
    assert np.array_equal(img.pixels, again.pixels)
    write_pgm(again, tmp_path / "v2.pgm")
    assert path.read_bytes() == (tmp_path / "v2.pgm").read_bytes()


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\nxx")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_depth_image_validation():
    with pytest.raises(ValueError, match="uint8"):
        DepthImage(np.zeros((224, 224)))
    with pytest.raises(ValueError, match="2D"):
        DepthImage(np.zeros((10,), dtype=np.uint8))
