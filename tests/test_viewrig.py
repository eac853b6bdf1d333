import math

import numpy as np
import pytest

from viewsphere.viewrig import (
    N_VIEWS,
    RADIUS,
    Viewpoint,
    antipode,
    build_rig,
    exact_trig,
    index_of,
    viewpoint_from_index,
)


def test_rig_has_60_views_with_expected_angles():
    rig = build_rig()
    assert len(rig) == N_VIEWS == 60
    assert sorted({v.phi_deg for v in rig}) == [30, 60, 90, 120, 150]
    assert sorted({v.theta_deg for v in rig}) == list(range(0, 360, 30))
    assert [v.index for v in rig] == list(range(60))


def test_positions_on_sphere():
    rig = build_rig()
    assert RADIUS == 2.0
    for v in rig:
        assert abs(np.linalg.norm(v.position) - 2.0) < 1e-9


def test_equator_front_position():
    v = Viewpoint(ring=2, azimuth=0)
    assert v.phi_deg == 90 and v.theta_deg == 0
    assert np.array_equal(v.position, [RADIUS, 0.0, 0.0])


def test_successive_azimuths_subtend_30_degrees():
    rig = build_rig()
    for k in range(5):
        ring = [v for v in rig if v.ring == k]
        for j in range(12):
            a = ring[j].position
            b = ring[(j + 1) % 12].position
            ya = math.degrees(math.atan2(a[1], a[0])) % 360.0
            yb = math.degrees(math.atan2(b[1], b[0])) % 360.0
            assert abs((yb - ya) % 360.0 - 30.0) < 1e-9


def test_index_round_trip():
    for i in range(60):
        v = viewpoint_from_index(i)
        assert index_of(v.ring, v.azimuth) == i


def test_index_convention_anchors():
    v0 = viewpoint_from_index(0)
    assert (v0.ring, v0.azimuth, v0.phi_deg, v0.theta_deg) == (0, 0, 30, 0)
    v59 = viewpoint_from_index(59)
    assert (v59.ring, v59.azimuth, v59.phi_deg, v59.theta_deg) == (4, 11, 150, 330)


def test_out_of_range_indices():
    with pytest.raises(ValueError):
        viewpoint_from_index(60)
    with pytest.raises(ValueError):
        viewpoint_from_index(-1)
    with pytest.raises(ValueError):
        index_of(5, 0)
    with pytest.raises(ValueError):
        index_of(0, 12)


def test_radius_outside_unit_cube_circumsphere():
    assert RADIUS > math.sqrt(3.0) / 2.0  # every camera sees the whole normalized mesh in front of it


def _rounded_set(positions):
    return {tuple(round(c, 9) for c in p) for p in positions}


def test_rig_invariant_under_30_degree_yaw():
    rig = build_rig()
    positions = [v.position for v in rig]
    c, s = exact_trig(30)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rotated = [rot @ p for p in positions]
    assert _rounded_set(positions) == _rounded_set(rotated)


def test_rig_invariant_under_z_reflection():
    rig = build_rig()
    positions = [v.position for v in rig]
    mirrored = [p * np.array([1.0, 1.0, -1.0]) for p in positions]
    assert _rounded_set(positions) == _rounded_set(mirrored)


def test_camera_frame_orthonormal_and_aimed():
    for v in build_rig():
        right, up, toward = v.camera_frame()
        for vec in (right, up, toward):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(right @ up) < 1e-12
        assert abs(right @ toward) < 1e-12
        assert abs(up @ toward) < 1e-12
        # camera looks at the origin
        assert np.allclose(toward, -v.position / RADIUS, atol=1e-12)
        # up is world +z projected onto the image plane
        assert up[2] > 0.0
        assert abs(right[2]) == 0.0


def test_exact_trig_mirror_symmetry():
    # bit-exact negation between mirrored angles is what the renderer's
    # flip symmetry rests on
    for a in range(0, 360, 30):
        c, s = exact_trig(a)
        cm, sm = exact_trig(180 - a)
        assert cm == -c and sm == s
        assert abs(c - math.cos(math.radians(a))) < 1e-15
        assert abs(s - math.sin(math.radians(a))) < 1e-15
    with pytest.raises(ValueError):
        exact_trig(45)


def test_antipode_pairs_views_through_the_origin():
    rig = build_rig()
    pairs = {frozenset((v.index, antipode(v).index)) for v in rig}
    assert len(pairs) == 30 and all(len(pair) == 2 for pair in pairs)
    for v in rig:
        w = antipode(v)
        assert antipode(w) == v
        assert (w.ring, w.azimuth) == (4 - v.ring, (v.azimuth + 6) % 12)
        # exact, not approximate: the renderer shares its projection between the two
        right, up, toward = v.camera_frame()
        w_right, w_up, w_toward = w.camera_frame()
        assert np.array_equal(w.position, -v.position)
        assert np.array_equal(w_right, -right)
        assert np.array_equal(w_up, up)
        assert np.array_equal(w_toward, -toward)
