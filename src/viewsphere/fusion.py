"""Majority-vote fusion of per-view predictions into one label and pose offset."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from .predict import ViewPrediction
from .viewrig import N_AZIMUTHS, Viewpoint, viewpoint_from_index

YAW_STEP = 30
PITCH_MIN_OFFSET = -120
PITCH_MAX_OFFSET = 120


@dataclass(frozen=True, order=True)
class PoseOffset:
    """Discretized rotation from the canonical orientation, degrees.

    ``d_theta`` is cyclic yaw in {0, 30, ..., 330}; ``d_phi`` is signed pitch
    in {-120, ..., +120} (the rings span only 30..150 degrees, so pitch is not
    cyclic).
    """

    d_theta: int
    d_phi: int

    def __post_init__(self):
        if self.d_theta % YAW_STEP or not 0 <= self.d_theta < 360:
            raise ValueError(f"d_theta must be a multiple of 30 in [0, 330], got {self.d_theta}")
        if self.d_phi % YAW_STEP or not PITCH_MIN_OFFSET <= self.d_phi <= PITCH_MAX_OFFSET:
            raise ValueError(
                f"d_phi must be a multiple of 30 in [{PITCH_MIN_OFFSET}, {PITCH_MAX_OFFSET}], "
                f"got {self.d_phi}"
            )


def pose_offset(capture: Viewpoint, predicted_index: int) -> PoseOffset:
    """Rotation implied by seeing viewpoint ``predicted_index`` from ``capture``."""
    predicted = viewpoint_from_index(predicted_index)
    return PoseOffset(
        d_theta=(capture.theta_deg - predicted.theta_deg) % 360,
        d_phi=capture.phi_deg - predicted.phi_deg,
    )


@dataclass
class FusedPrediction:
    """Aggregate of per-view votes: winning category and pose plus the tallies."""

    category: str
    pose: PoseOffset
    class_votes: dict[str, float]
    pose_votes: dict[PoseOffset, float]
    views_used: int


def _totals(pairs) -> dict:
    """Sum of the values per key, exactly rounded (``math.fsum``), so the order of ``pairs`` cannot matter."""
    groups = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    return {key: math.fsum(values) for key, values in groups.items()}


def _winner(tallies: dict, tie_scores: dict) -> object:
    """Option with the maximal tally; ties prefer higher summed scores, then the smallest option."""
    return min(tallies, key=lambda option: (-tallies[option], -tie_scores[option], option))


def check_fusion_mode(mode: str) -> None:
    """Raise a ValueError unless ``mode`` is a mode :func:`fuse` takes: ``argmax`` or ``score_sum``."""
    if mode not in ("argmax", "score_sum"):
        raise ValueError(f"unknown fusion mode {mode!r}")


def fuse(
    views: Sequence[tuple[Viewpoint, ViewPrediction]], mode: str = "argmax"
) -> FusedPrediction:
    """Combine per-view predictions by majority vote.

    In ``argmax`` mode each view casts one vote for its best category and one
    for the pose offset implied by its best viewpoint; plurality wins. Ties
    are broken by the larger summed scores among the tied options, then by
    the lexicographically smallest category / smallest (d_theta, d_phi). In
    ``score_sum`` mode the score mass itself is accumulated instead of votes.
    Scores are summed exactly rounded, so the order of ``views`` never
    changes the result.

    Raises:
        ValueError: empty input or unknown mode.
    """
    if not views:
        raise ValueError("cannot fuse an empty list of views")
    check_fusion_mode(mode)

    if mode == "argmax":
        class_hits, pose_hits = [], []
        for capture, prediction in views:
            category, view_index = prediction.top_class(), prediction.top_viewpoint()
            class_hits.append((category, prediction.class_scores[category]))
            pose_hits.append((pose_offset(capture, view_index), float(prediction.viewpoint_scores[view_index])))
        class_votes = Counter(category for category, _ in class_hits)
        pose_votes = Counter(offset for offset, _ in pose_hits)
        class_tie, pose_tie = _totals(class_hits), _totals(pose_hits)
    else:
        class_votes = _totals(pair for _, p in views for pair in p.class_scores.items())
        # keyed by (yaw steps, ring shift), so each PoseOffset is built once
        shifts = _totals(
            (((c.azimuth - i % N_AZIMUTHS) % N_AZIMUTHS, c.ring - i // N_AZIMUTHS), score)
            for c, p in views
            for i, score in enumerate(p.viewpoint_scores.tolist())
        )
        pose_votes = {PoseOffset(YAW_STEP * yaw, YAW_STEP * shift): v for (yaw, shift), v in shifts.items()}
        class_tie, pose_tie = class_votes, pose_votes

    category = _winner(dict(class_votes), class_tie)
    pose = _winner(dict(pose_votes), pose_tie)
    return FusedPrediction(
        category=category,
        pose=pose,
        class_votes=dict(class_votes),
        pose_votes=dict(pose_votes),
        views_used=len(views),
    )
