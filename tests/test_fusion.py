import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsphere.fusion import PoseOffset, fuse, pose_offset
from viewsphere.predict import ViewPrediction
from viewsphere.viewrig import Viewpoint, build_rig, index_of


def _prediction(class_scores, view_index=None, viewpoint_scores=None):
    if viewpoint_scores is None:
        viewpoint_scores = np.zeros(60)
        viewpoint_scores[view_index] = 1.0
    return ViewPrediction(class_scores, viewpoint_scores)


def test_pose_offset_identity():
    for v in build_rig():
        assert pose_offset(v, v.index) == PoseOffset(0, 0)


def test_pose_offset_simple_yaw():
    capture = Viewpoint(ring=2, azimuth=1)  # phi 90, theta 30
    predicted = index_of(2, 0)  # phi 90, theta 0
    assert pose_offset(capture, predicted) == PoseOffset(30, 0)


def test_pose_offset_hand_expanded():
    # capture (phi=30, theta=0), predicted (phi=150, theta=330):
    # d_theta = (0 - 330) mod 360 = 30; d_phi = 30 - 150 = -120
    capture = Viewpoint(ring=0, azimuth=0)
    assert pose_offset(capture, 59) == PoseOffset(30, -120)


def test_pose_offset_rejects_bad_index():
    with pytest.raises(ValueError):
        pose_offset(Viewpoint(0, 0), 60)


def test_pose_offset_validation():
    with pytest.raises(ValueError, match="d_theta"):
        PoseOffset(45, 0)
    with pytest.raises(ValueError, match="d_theta"):
        PoseOffset(-30, 0)
    with pytest.raises(ValueError, match="d_phi"):
        PoseOffset(0, 150)


def test_fuse_unanimous():
    rig = build_rig()
    views = [(rig[i], _prediction({"chair": 1.0}, view_index=rig[i].index)) for i in (0, 7, 23, 41, 59)]
    fused = fuse(views)
    assert fused.category == "chair"
    assert fused.pose == PoseOffset(0, 0)
    assert fused.class_votes == {"chair": 5}
    assert fused.pose_votes == {PoseOffset(0, 0): 5}
    assert fused.views_used == 5


def test_fuse_plurality():
    rig = build_rig()
    views = []
    for i in range(3):
        views.append((rig[i], _prediction({"chair": 0.6, "table": 0.4}, view_index=i)))
    for i in range(3, 5):
        views.append((rig[i], _prediction({"chair": 0.1, "table": 0.9}, view_index=i)))
    fused = fuse(views)
    assert fused.category == "chair"
    assert fused.class_votes == {"chair": 3, "table": 2}


def test_fuse_tie_breaks_by_summed_scores():
    rig = build_rig()
    views = [
        (rig[0], _prediction({"chair": 0.9, "table": 0.1}, view_index=0)),
        (rig[1], _prediction({"chair": 0.8, "table": 0.2}, view_index=1)),
        (rig[2], _prediction({"chair": 0.4, "table": 0.6}, view_index=2)),
        (rig[3], _prediction({"chair": 0.3, "table": 0.7}, view_index=3)),
    ]
    fused = fuse(views)
    assert fused.class_votes == {"chair": 2, "table": 2}
    assert fused.category == "chair"  # 0.9 + 0.8 > 0.6 + 0.7


def test_fuse_residual_tie_lexicographic():
    rig = build_rig()
    views = [
        (rig[0], _prediction({"zebra": 0.8, "apple": 0.2}, view_index=0)),
        (rig[1], _prediction({"apple": 0.8, "zebra": 0.2}, view_index=1)),
    ]
    fused = fuse(views)
    assert fused.category == "apple"


def test_fuse_permutation_invariant():
    rig = build_rig()
    rng = np.random.default_rng(0)
    views = []
    for i in range(7):
        scores = rng.random(3)
        scores /= scores.sum()
        class_scores = dict(zip(("a", "b", "c"), map(float, scores)))
        viewpoint = rng.random(60)
        viewpoint /= viewpoint.sum()
        views.append((rig[int(rng.integers(0, 60))], ViewPrediction(class_scores, viewpoint)))
    fused = fuse(views)
    for _ in range(5):
        perm = [views[i] for i in rng.permutation(len(views))]
        other = fuse(perm)
        assert other.category == fused.category
        assert other.pose == fused.pose


def test_fuse_duplication_keeps_winner():
    rig = build_rig()
    views = [
        (rig[0], _prediction({"chair": 0.7, "table": 0.3}, view_index=0)),
        (rig[5], _prediction({"table": 0.6, "chair": 0.4}, view_index=5)),
        (rig[9], _prediction({"chair": 0.9, "table": 0.1}, view_index=9)),
    ]
    fused = fuse(views)
    doubled = fuse(views + views)
    assert doubled.category == fused.category
    assert doubled.pose == fused.pose
    assert doubled.class_votes == {k: 2 * v for k, v in fused.class_votes.items()}
    assert doubled.views_used == 2 * fused.views_used


def test_exact_grid_rotation_recovery():
    # ground-truth viewpoint predictions of an object yawed by delta recover
    # delta exactly, for every grid rotation and any capture subset
    rig = build_rig()
    for step in range(12):
        delta = 30 * step
        views = []
        for capture in (rig[1], rig[14], rig[27], rig[40], rig[53]):
            predicted = index_of(capture.ring, (capture.azimuth - step) % 12)
            views.append((capture, _prediction({"obj": 1.0}, view_index=predicted)))
        fused = fuse(views)
        assert fused.pose == PoseOffset(delta, 0)


def test_fuse_score_sum_mode():
    rig = build_rig()
    views = [
        (rig[0], _prediction({"chair": 0.6, "table": 0.4}, view_index=0)),
        (rig[1], _prediction({"chair": 0.6, "table": 0.4}, view_index=1)),
        (rig[2], _prediction({"table": 0.9, "chair": 0.1}, view_index=2)),
    ]
    argmax = fuse(views, mode="argmax")
    score_sum = fuse(views, mode="score_sum")
    assert argmax.category == "chair"  # votes 2-1
    assert score_sum.category == "table"  # mass 1.7 vs 1.3
    assert abs(score_sum.class_votes["table"] - 1.7) < 1e-12


def test_fuse_score_sum_pose_votes_equal_one_offset_per_score():
    # the tallies as summed before they were keyed by (yaw steps, ring shift)
    rng = np.random.default_rng(12)
    rig = build_rig()
    for _ in range(40):
        views = []
        for _ in range(rng.integers(1, 8)):
            scores = rng.random(60) * (rng.random(60) < 0.3)  # zeros, and offsets that several views hit
            scores[rng.integers(60)] += 1.0
            classes = rng.random(3)
            classes = dict(zip(_CATEGORIES, (classes / classes.sum()).tolist()))
            views.append((rig[rng.integers(60)], ViewPrediction(classes, scores / scores.sum())))
        groups = defaultdict(list)
        for capture, prediction in views:
            for i, score in enumerate(prediction.viewpoint_scores):
                groups[pose_offset(capture, i)].append(float(score))
        want = {offset: math.fsum(values) for offset, values in groups.items()}
        fused = fuse(views, mode="score_sum")
        assert list(fused.pose_votes.items()) == list(want.items())
        assert fused.pose == min(want, key=lambda offset: (-want[offset], offset))


def test_fuse_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        fuse([])
    rig = build_rig()
    views = [(rig[0], _prediction({"a": 1.0}, view_index=0))]
    with pytest.raises(ValueError, match="unknown fusion mode"):
        fuse(views, mode="median")


_CATEGORIES = ("box", "cone", "sphere")


@st.composite
def _view_predictions(draw):
    """(capture, prediction) pairs with arbitrary nonnegative scores, normalized to sum to 1."""
    weights = st.floats(0.0, 1.0)
    views = []
    for _ in range(draw(st.integers(1, 8))):
        capture = Viewpoint(draw(st.integers(0, 4)), draw(st.integers(0, 11)))
        class_w = draw(st.lists(weights, min_size=len(_CATEGORIES), max_size=len(_CATEGORIES)).filter(any))
        view_w = np.zeros(60)
        for index, w in draw(st.lists(st.tuples(st.integers(0, 59), weights), min_size=1, max_size=4)):
            view_w[index] += w
        if not view_w.any():
            view_w[draw(st.integers(0, 59))] = 1.0
        total = sum(class_w)
        scores = {name: w / total for name, w in zip(_CATEGORIES, class_w)}
        views.append((capture, ViewPrediction(scores, view_w / view_w.sum())))
    return views


@settings(max_examples=150, deadline=None)
@given(views=_view_predictions(), data=st.data(), mode=st.sampled_from(["argmax", "score_sum"]))
def test_fuse_ignores_view_order(views, data, mode):
    shuffled = data.draw(st.permutations(views))
    assert fuse(shuffled, mode=mode) == fuse(views, mode=mode)
