import numpy as np
import pytest

from oracles import render_depth
from viewsphere import synthetic
from viewsphere.mesh import load_off, normalize_to_unit_cube
from viewsphere.viewrig import Viewpoint
from viewsphere.voxel import voxelize


def test_all_categories_produce_valid_meshes():
    rng = np.random.default_rng(0)
    for category in synthetic.CATEGORIES:
        mesh = synthetic.make_primitive(category, rng)
        assert len(mesh.faces) >= 6
        normalized = normalize_to_unit_cube(mesh)
        assert voxelize(normalized).occupied_count > 0


def test_unknown_category_rejected():
    with pytest.raises(ValueError, match="unknown category"):
        synthetic.make_primitive("teapot", np.random.default_rng(0))


def test_instances_vary_but_are_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert synthetic.generate_model_root(a, per_category=2, seed=3) == 10
    synthetic.generate_model_root(b, per_category=2, seed=3)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*.off"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.off"))
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    # different instances of one category differ
    box0 = load_off(a / "box" / "train" / "box_0000.off")
    box1 = load_off(a / "box" / "test" / "box_0001.off")
    assert box0.vertices.shape == box1.vertices.shape
    assert not np.array_equal(box0.vertices, box1.vertices)


def test_shapes_are_yaw_asymmetric():
    # a 180-degree-yaw-symmetric object looks identical from opposite azimuths,
    # which would make its canonical orientation unrecoverable; every category
    # must therefore produce clearly different opposite views
    rng = np.random.default_rng(1)
    view = Viewpoint(ring=1, azimuth=0)
    opposite = Viewpoint(ring=1, azimuth=6)
    for category in synthetic.CATEGORIES:
        mesh = normalize_to_unit_cube(synthetic.make_primitive(category, rng))
        front = render_depth(mesh, view)
        back = render_depth(mesh, opposite)
        differing = np.count_nonzero(front.pixels != back.pixels)
        assert differing > 200, category
