import numpy as np
import pytest

from oracles import (
    analytic_cube_shell,
    closed_cylinder_mesh,
    random_mesh,
    reference_parity_fill,
    reference_voxelize,
    unit_cube_mesh,
    uv_sphere_mesh,
)
from viewsphere import synthetic, voxel
from viewsphere.mesh import MeshError, TriangleMesh, load_off, normalize_to_unit_cube
from viewsphere.voxel import VoxelGrid, load_grid, pool_voxels, save_grid, voxelize


def test_cube_shell_matches_analytic_oracle():
    grid = voxelize(unit_cube_mesh())
    expected = analytic_cube_shell(interior=50, padding=3)
    assert np.array_equal(grid.occupancy, expected)
    assert grid.occupied_count == 50**3 - 48**3 == 14408


def test_single_interior_triangle_marks_one_voxel():
    # well inside cell (30, 30, 30) of the interior grid
    base = -0.5 + np.array([30.4, 30.4, 30.5]) / 50.0
    verts = np.array([base, base + [0.004, 0, 0], base + [0, 0.004, 0]])
    grid = voxelize(TriangleMesh(verts, np.array([[0, 1, 2]])))
    assert grid.occupied_count == 1
    assert grid.occupancy[33, 33, 33]


def test_padding_shell_always_empty():
    rng = np.random.default_rng(0)
    for _ in range(10):
        grid = voxelize(random_mesh(rng, 20))
        occ = grid.occupancy
        p = grid.padding
        shell = occ.sum() - occ[p:-p, p:-p, p:-p].sum()
        assert shell == 0
        assert grid.occupied_count >= 1


def test_axis_permutation_invariance():
    base = voxelize(unit_cube_mesh()).occupied_count
    rng = np.random.default_rng(1)
    mesh = unit_cube_mesh()
    for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1)]:
        permuted = TriangleMesh(mesh.vertices[:, perm], mesh.faces)
        assert voxelize(permuted).occupied_count == base
    del rng


def test_monotone_in_triangles():
    rng = np.random.default_rng(2)
    small = random_mesh(rng, 12)
    extra = random_mesh(rng, 8)
    combined = TriangleMesh(
        np.vstack([small.vertices, extra.vertices]),
        np.vstack([small.faces, extra.faces + len(small.vertices)]),
    )
    a = voxelize(small).occupancy
    b = voxelize(combined).occupancy
    assert np.array_equal(a & b, a)  # adding triangles never unsets a voxel


def test_voxelize_rejects_unnormalized():
    verts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    with pytest.raises(MeshError, match="not normalized"):
        voxelize(TriangleMesh(verts, np.array([[0, 1, 2]])))


def test_voxelize_rejects_empty_mesh():
    with pytest.raises(MeshError, match="no faces"):
        voxelize(TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int)))


def test_voxelize_rejects_bad_interior_size():
    with pytest.raises(ValueError, match="interior_size"):
        voxelize(unit_cube_mesh(), interior_size=0)


def test_solid_fill_cube():
    grid = voxelize(unit_cube_mesh(), solid=True)
    assert grid.occupied_count == 50**3


def test_batched_voxelize_matches_reference_on_random_meshes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mesh = random_mesh(rng, int(rng.integers(5, 200)))
        assert np.array_equal(voxelize(mesh).occupancy, reference_voxelize(mesh))


def test_batched_voxelize_matches_reference_on_desk_primitives(tmp_path):
    synthetic.generate_model_root(tmp_path, per_category=6, test_fraction=0.25, seed=0)
    paths = sorted(tmp_path.rglob("*.off"))
    assert len(paths) == 30
    for path in paths:
        mesh = normalize_to_unit_cube(load_off(path))
        assert np.array_equal(voxelize(mesh).occupancy, reference_voxelize(mesh)), path.name


def test_batched_voxelize_matches_reference_on_dense_sphere():
    mesh = uv_sphere_mesh(40, radius=0.5)  # poles and equator touch the grid boundary
    assert len(mesh.faces) >= 3000
    assert np.array_equal(voxelize(mesh).occupancy, reference_voxelize(mesh))


def test_batched_voxelize_matches_reference_across_tiny_blocks(monkeypatch):
    monkeypatch.setattr(voxel, "_PAIR_CHUNK", 5)  # every triangle spans many blocks
    mesh = unit_cube_mesh()
    expected = reference_voxelize(mesh)
    assert np.array_equal(voxelize(mesh).occupancy, expected)
    reference_parity_fill(mesh, expected, 50, 3)
    assert np.array_equal(voxelize(mesh, solid=True).occupancy, expected)


@pytest.mark.parametrize(
    "mesh",
    [unit_cube_mesh(), uv_sphere_mesh(24), closed_cylinder_mesh(30), uv_sphere_mesh(40)],
    ids=["cube", "sphere", "cylinder", "sphere3120"],
)
def test_parity_fill_matches_reference(mesh):
    expected = voxelize(mesh).occupancy.copy()
    reference_parity_fill(mesh, expected, 50, 3)
    solid = voxelize(mesh, solid=True).occupancy
    assert np.array_equal(solid, expected)
    assert solid.sum() > voxelize(mesh).occupied_count  # the fill added interior cells


def test_grid_validation():
    occ = np.zeros((56, 56, 56), dtype=bool)
    occ[0, 0, 0] = True  # inside padding shell
    with pytest.raises(ValueError, match="padding shell"):
        VoxelGrid(occ)
    with pytest.raises(ValueError, match="shape"):
        VoxelGrid(np.zeros((10, 10, 10), dtype=bool))


def test_pool_empty_grid():
    out = pool_voxels(VoxelGrid(np.zeros((56, 56, 56), dtype=bool)), 4)
    assert out.shape == (14, 14, 14)
    assert (out == 0).all()


def test_pool_full_interior_single_cell():
    occ = np.zeros((56, 56, 56), dtype=bool)
    occ[3:53, 3:53, 3:53] = True
    out = pool_voxels(VoxelGrid(occ), 56)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(50**3 / 56**3)


def test_pool_conserves_mass():
    grid = voxelize(unit_cube_mesh())
    pooled = pool_voxels(grid, 4)
    assert pooled.sum() * 4**3 == pytest.approx(14408, abs=1e-9)
    assert (pooled >= 0).all() and (pooled <= 1).all()


def test_pool_rejects_non_divisor():
    grid = VoxelGrid(np.zeros((56, 56, 56), dtype=bool))
    with pytest.raises(ValueError, match="does not divide"):
        pool_voxels(grid, 5)


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = voxelize(random_mesh(rng, 25))
    path = tmp_path / "g.vox"
    save_grid(grid, path)
    again = load_grid(path)
    assert np.array_equal(grid.occupancy, again.occupancy)
    assert again.interior_size == grid.interior_size
    assert again.padding == grid.padding
    # byte determinism
    save_grid(again, tmp_path / "g2.vox")
    assert (tmp_path / "g.vox").read_bytes() == (tmp_path / "g2.vox").read_bytes()


def test_grid_file_header_is_16_bytes(tmp_path):
    grid = voxelize(unit_cube_mesh())
    path = tmp_path / "g.vox"
    save_grid(grid, path)
    blob = path.read_bytes()
    assert blob[:4] == b"VOXG"
    assert blob[4:7] == bytes([56, 56, 56])
    assert blob[7] == 3
    assert len(blob) == 16 + 56**3 // 8


def test_load_grid_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vox"
    path.write_bytes(b"NOPE" + bytes(12) + bytes(10))
    with pytest.raises(ValueError, match="magic"):
        load_grid(path)
