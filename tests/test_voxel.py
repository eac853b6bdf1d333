import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _reference_box_overlap,
    analytic_cube_shell,
    random_mesh,
    reference_voxelize,
    unit_cube_mesh,
    uv_sphere_mesh,
)
from viewsphere import synthetic, voxel
from viewsphere.cli import main
from viewsphere.entropy import EntropyMap
from viewsphere.mesh import MeshError, TriangleMesh, load_off, normalize_to_unit_cube
from viewsphere.predict import knn_entropy_predictor_train
from viewsphere.voxel import VoxelGrid, block_sums, load_grid, save_grid, voxelize


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
        p = voxel.PADDING
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


_CELL = 1.0 / voxel.INTERIOR_SIZE
_CENTERS = -0.5 + (np.arange(voxel.INTERIOR_SIZE) + 0.5) * _CELL
_R = _CELL / 2.0 + voxel._TOUCH_EPS
#: Coordinates on cell faces, centers and the widened box-normal bounds, an ulp to either side too.
_EXACT = [x for c in _CENTERS for x in (c - _CELL / 2.0, c, c + _CELL / 2.0, c - _R, c + _R)]
_COORD = (
    st.floats(-0.5, 0.5)
    | st.sampled_from(_EXACT)
    | st.tuples(st.sampled_from(_EXACT), st.integers(-1, 1)).map(lambda x: x[0] + x[1] * np.spacing(x[0]))
).map(lambda x: min(max(x, -0.5), 0.5))


@st.composite
def _triangles(draw):
    """1-4 triangles with corners on cell faces and centers or anywhere; some with coincident corners."""
    tris = []
    for _ in range(draw(st.integers(1, 4))):
        corners = [[draw(_COORD) for _ in range(3)] for _ in range(3)]
        collapse = draw(st.sampled_from(["none", "none", "edge", "point"]))
        if collapse != "none":
            corners[1] = corners[0]
        if collapse == "point":
            corners[2] = corners[0]
        tris.append(corners)
    return np.array(tris)


@settings(max_examples=80, deadline=None)
@given(tris=_triangles())
def test_tight_cell_box_is_what_the_box_normal_axes_keep(tris):
    first, stop = voxel._cell_box(tris.min(axis=1), tris.max(axis=1), _R, _CENTERS)
    for t, tri in enumerate(tris):
        for axis in range(3):
            lo, hi = tri[:, axis].min(), tri[:, axis].max()
            # the two box-normal comparisons of _overlaps, on every center
            keep = np.flatnonzero((lo - _CENTERS <= _R) & (hi - _CENTERS >= -_R))
            assert (first[t, axis], stop[t, axis]) == (keep[0], keep[-1] + 1)
            assert len(keep) == keep[-1] + 1 - keep[0]  # the kept cells are one run
    # so the tight box and the ten other axes mark what all 13 axes do on every cell
    surface = np.zeros(voxel.INTERIOR_SIZE**3, dtype=bool)
    voxel._mark_surface(tris, surface)
    ix, iy, iz = np.meshgrid(_CENTERS, _CENTERS, _CENTERS, indexing="ij")
    centers = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
    expected = np.zeros(len(centers), dtype=bool)
    for tri in tris:
        expected |= _reference_box_overlap(tri, centers, _CELL / 2.0)
    assert np.array_equal(surface, expected)


def test_grid_validation():
    occ = np.zeros((56, 56, 56), dtype=bool)
    occ[0, 0, 0] = True  # inside padding shell
    with pytest.raises(ValueError, match="padding shell"):
        VoxelGrid(occ)
    with pytest.raises(ValueError, match="shape"):
        VoxelGrid(np.zeros((10, 10, 10), dtype=bool))


def test_pool_empty_grid():
    out = block_sums(VoxelGrid(np.zeros((56, 56, 56), dtype=bool)).occupancy, 4, np.int64)
    assert out.shape == (14, 14, 14)
    assert (out == 0).all()


def test_pool_full_interior_single_cell():
    occ = np.zeros((56, 56, 56), dtype=bool)
    occ[3:53, 3:53, 3:53] = True
    out = block_sums(VoxelGrid(occ).occupancy, 56, np.int64)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 50**3


def test_pool_conserves_mass():
    pooled = block_sums(voxelize(unit_cube_mesh()).occupancy, 4, np.int64)
    assert pooled.sum() == 14408
    assert (pooled >= 0).all() and (pooled <= 4**3).all()


@pytest.mark.parametrize("factor", [1, 2, 4, 7, 8, 14, 28, 56])
def test_pool_matches_strided_float_sums(factor):
    rng = np.random.default_rng(factor)
    occ = np.zeros((56, 56, 56), dtype=bool)
    occ[3:53, 3:53, 3:53] = rng.random((50, 50, 50)) < 0.3
    m = 56 // factor
    want = occ.astype(np.float64).reshape(m, factor, m, factor, m, factor).sum(axis=(1, 3, 5))
    got = block_sums(VoxelGrid(occ).occupancy, factor, np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_pool_rejects_non_divisor():
    grid = VoxelGrid(np.zeros((56, 56, 56), dtype=bool))
    with pytest.raises(ValueError, match="does not divide"):
        block_sums(grid.occupancy, 5, np.int64)


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = voxelize(random_mesh(rng, 25))
    path = tmp_path / "g.vox"
    save_grid(grid, path)
    again = load_grid(path)
    assert np.array_equal(grid.occupancy, again.occupancy)
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


@pytest.mark.parametrize("dims, padding", [(20, 2), (56, 2), (20, 3), (58, 4)])
def test_load_grid_rejects_other_headers(tmp_path, capsys, dims, padding):
    # a well-formed file for another grid geometry: header, dims^3 bits, shell empty
    occ = np.zeros((dims, dims, dims), dtype=bool)
    occ[padding:-padding, padding:-padding, padding:-padding] = True
    bits = np.packbits(occ.ravel().view(np.uint8), bitorder="little")
    path = tmp_path / "other.vox"
    path.write_bytes(b"VOXG" + bytes([dims, dims, dims, padding]) + bytes(8) + bits.tobytes())
    with pytest.raises(ValueError, match=r"other\.vox.*56\^3 with padding 3"):
        load_grid(path)
    ep = knn_entropy_predictor_train([(voxelize(unit_cube_mesh()), EntropyMap(np.zeros((5, 12))))], k=1)
    ep.save(tmp_path / "e.npz")
    args = ["predict-map", "--grid", str(path), "--model", str(tmp_path / "e.npz"), "--out", str(tmp_path / "m.csv")]
    assert main(args) == 1
    assert "other.vox" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_load_grid_names_file_with_occupied_padding_shell(tmp_path, capsys):
    path = tmp_path / "shell.vox"
    save_grid(voxelize(unit_cube_mesh()), path)
    blob = bytearray(path.read_bytes())
    blob[16] |= 1  # bit 0 is voxel [0, 0, 0], in the padding shell
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"shell\.vox: padding shell contains occupied voxels"):
        load_grid(path)
    ep = knn_entropy_predictor_train([(voxelize(unit_cube_mesh()), EntropyMap(np.zeros((5, 12))))], k=1)
    ep.save(tmp_path / "e.npz")
    args = ["predict-map", "--grid", str(path), "--model", str(tmp_path / "e.npz"), "--out", str(tmp_path / "m.csv")]
    assert main(args) == 1
    assert f"{path}: padding shell" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_load_grid_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vox"
    path.write_bytes(b"NOPE" + bytes(12) + bytes(10))
    with pytest.raises(ValueError, match="magic"):
        load_grid(path)
