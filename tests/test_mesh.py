import numpy as np
import pytest

from viewsphere.mesh import (
    DegenerateGeometryError,
    MeshError,
    OffParseError,
    TriangleMesh,
    add_gaussian_noise,
    is_normalized,
    load_off,
    normalize_to_unit_cube,
    parse_off,
    write_off,
)

MINIMAL_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def test_parse_minimal_off():
    mesh = parse_off(MINIMAL_OFF)
    assert len(mesh.vertices) == 3
    assert len(mesh.faces) == 1
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_parse_quad_fan_triangulates():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    mesh = parse_off(text)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_parse_pentagon_fan():
    text = "OFF\n5 1 0\n" + "\n".join("%d 0 0" % i for i in range(5)) + "\n5 0 1 2 3 4\n"
    assert parse_off(text).faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4]]


def test_parse_vertex_count_mismatch_reports_line():
    text = "OFF\n8 0 0\n" + "\n".join("0 0 %d" % i for i in range(7)) + "\n"
    with pytest.raises(OffParseError, match="vertex count mismatch") as info:
        parse_off(text)
    assert info.value.line_no == 10


def test_parse_face_count_mismatch():
    text = "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    with pytest.raises(OffParseError, match="face count mismatch"):
        parse_off(text)


def test_parse_fused_modelnet_header():
    mesh = parse_off("OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert len(mesh.faces) == 1


def test_parse_header_with_counts_on_same_line():
    mesh = parse_off("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert len(mesh.faces) == 1


def test_parse_comments_and_blank_lines_skipped():
    text = "# comment\nOFF\n\n3 1 0  # counts\n0 0 0\n1 0 0\n# mid comment\n0 1 0\n3 0 1 2\n\n"
    assert len(parse_off(text).faces) == 1


def test_parse_foreign_header():
    with pytest.raises(OffParseError, match="expected OFF header"):
        parse_off("PLY\n3 1 0\n")


def test_parse_non_numeric_vertex():
    with pytest.raises(OffParseError, match="non-numeric") as info:
        parse_off("OFF\n3 1 0\n0 0 zero\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert info.value.line_no == 3


def test_parse_vertex_arity_error():
    with pytest.raises(OffParseError, match="expected 3 vertex coordinates"):
        parse_off("OFF\n1 0 0\n0 0 0 0\n")


def test_parse_polygon_too_small():
    with pytest.raises(OffParseError, match="polygon with 2 vertices"):
        parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n")


def test_parse_index_out_of_range():
    with pytest.raises(OffParseError, match="out of range") as info:
        parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n")
    assert info.value.line_no == 6


def test_parse_trailing_content_rejected():
    with pytest.raises(OffParseError, match="unexpected content"):
        parse_off(MINIMAL_OFF + "3 0 1 2\n")


def test_parse_face_index_arity_error():
    with pytest.raises(OffParseError, match="expected 3 vertex indices, got 4"):
        parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 2\n")


def test_write_then_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    mesh = TriangleMesh(rng.normal(size=(50, 3)), rng.integers(0, 50, size=(30, 3)))
    path = tmp_path / "m.off"
    write_off(mesh, path)
    again = load_off(path)
    assert np.array_equal(mesh.vertices, again.vertices)
    assert np.array_equal(mesh.faces, again.faces)


def test_mesh_validation():
    with pytest.raises(MeshError, match="finite"):
        TriangleMesh(np.array([[0.0, 0.0, np.nan]]), np.zeros((0, 3)))
    with pytest.raises(MeshError, match="out of range"):
        TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))


def test_mesh_is_immutable():
    mesh = parse_off(MINIMAL_OFF)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_normalize_cube_span():
    mesh = TriangleMesh(
        np.array([[-2.0, -2.0, -2.0], [4.0, 4.0, 4.0], [4.0, -2.0, 4.0]]),
        np.array([[0, 1, 2]]),
    )
    out = normalize_to_unit_cube(mesh)
    lo, hi = out.bounds()
    assert np.allclose(lo, [-0.5, -0.5, -0.5], atol=1e-15)
    assert np.allclose(hi, [0.5, 0.5, 0.5], atol=1e-15)
    assert is_normalized(out) and not is_normalized(mesh)


def test_is_normalized_tolerance():
    faces = np.array([[0, 1, 2]])
    corner = np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
    assert is_normalized(TriangleMesh(corner + [0.5 + 1e-10, 0.0, 0.0], faces))
    assert not is_normalized(TriangleMesh(corner + [0.0, 0.0, -0.5 - 1e-8], faces))


def test_normalize_preserves_aspect():
    mesh = TriangleMesh(
        np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5], [2.0, 0.0, 0.5]]),
        np.array([[0, 1, 2]]),
    )
    out = normalize_to_unit_cube(mesh)
    lo, hi = out.bounds()
    assert np.allclose(hi - lo, [1.0, 0.5, 0.25], atol=1e-15)
    assert np.allclose((lo + hi) / 2, 0.0, atol=1e-15)


def test_normalize_degenerate():
    mesh = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateGeometryError):
        normalize_to_unit_cube(mesh)


def test_normalize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mesh = TriangleMesh(rng.normal(scale=5.0, size=(40, 3)), rng.integers(0, 40, (20, 3)))
        once = normalize_to_unit_cube(mesh)
        twice = normalize_to_unit_cube(once)
        assert np.abs(once.vertices - twice.vertices).max() < 1e-12


def test_normalize_commutes_with_translation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        verts = rng.normal(scale=2.0, size=(30, 3))
        faces = rng.integers(0, 30, (10, 3))
        shift = rng.normal(scale=100.0, size=3)
        plain = normalize_to_unit_cube(TriangleMesh(verts, faces))
        moved = normalize_to_unit_cube(TriangleMesh(verts + shift, faces))
        assert np.abs(plain.vertices - moved.vertices).max() < 1e-12


def test_noise_zero_sigma_is_identity():
    mesh = normalize_to_unit_cube(parse_off(MINIMAL_OFF))
    noisy = add_gaussian_noise(mesh, 0.0, seed=1)
    assert np.array_equal(mesh.vertices, noisy.vertices)


def test_noise_deterministic():
    mesh = normalize_to_unit_cube(parse_off(MINIMAL_OFF))
    a = add_gaussian_noise(mesh, 0.10, seed=42)
    b = add_gaussian_noise(mesh, 0.10, seed=42)
    assert np.array_equal(a.vertices, b.vertices)
    c = add_gaussian_noise(mesh, 0.10, seed=43)
    assert not np.array_equal(a.vertices, c.vertices)


def test_noise_negative_sigma():
    mesh = parse_off(MINIMAL_OFF)
    with pytest.raises(ValueError, match="sigma"):
        add_gaussian_noise(mesh, -0.1, seed=0)


def test_noise_displacement_std():
    # 1000 vertices -> 3000 per-axis displacement samples
    rng = np.random.default_rng(11)
    verts = rng.uniform(-0.5, 0.5, size=(1000, 3))
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    noisy = add_gaussian_noise(mesh, 0.02, seed=5)
    std = (noisy.vertices - mesh.vertices).std()
    assert 0.018 <= std <= 0.022
