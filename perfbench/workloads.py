"""Benchmark workloads: seeded input trees and one round of the pipeline.

A round runs the four phases a user of viewsphere runs, one object at a time
in a single process (a closed loop):

1. ``build``: ``pipeline.build_dataset`` over the whole model tree;
2. ``train``: ``pipeline.train_predictors`` on the train split;
3. ``recognize``: ``pipeline.run_recognition`` with both k-NN predictors,
   called once per test record, repeatedly, then ``evaluate``;
4. ``rerender``: ``pipeline.noise_sweep`` on the oracle entropy path, called
   once per (sigma, test record).

The build comes first; the other phases are interleaved after it (see
``run_round``). The same round runs untraced (``PipelineCalls``) and traced
(``replay.Replay``), so both write the same output files and can be compared
byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hostspeed import HostClock, Interval
from viewsphere import pipeline, synthetic
from viewsphere.mesh import TriangleMesh, write_off

#: Desk tree size: 6 instances of each of the 5 primitive categories, 75/25
#: train/test, so every seed has 20 train and 10 test objects (2 per category).
DESK_PER_CATEGORY = 6
DESK_TEST_FRACTION = 0.25

#: Dense spheres: 40 meridians x 40 parallels = 3,120 faces.
DENSE_SIDES = 40
#: Per-axis scale and nose-bump ranges of ``synthetic.make_sphere``.
SPHERE_SCALES = ((0.8, 1.0), (0.65, 0.8), (0.5, 0.65))
SPHERE_BUMP = (1.25, 1.4)


def uv_sphere(scale, bump: float, sides: int = DENSE_SIDES) -> TriangleMesh:
    """A ``synthetic.make_sphere`` instance at ``sides`` x ``sides`` resolution.

    Scaled per axis by ``scale``, with the nose bump toward +x that makes the
    yaw of every instance identifiable; ``2 * sides * (sides - 1)`` faces.
    """
    phi = math.pi * np.arange(1, sides)[:, None] / sides
    theta = 2.0 * math.pi * np.arange(sides)[None, :] / sides
    ring = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi) * np.ones_like(theta)],
        axis=-1,
    ).reshape(-1, 3)
    verts = np.vstack([[0.0, 0.0, 1.0], ring, [0.0, 0.0, -1.0]])
    verts[verts[:, 0] > math.cos(math.radians(40))] *= bump
    verts = verts * np.asarray(scale)

    def ring_vertex(i, j):
        return 1 + (i - 1) * sides + (j % sides)

    south = len(verts) - 1
    faces = []
    for j in range(sides):
        faces.append((0, ring_vertex(1, j), ring_vertex(1, j + 1)))
        faces.append((south, ring_vertex(sides - 1, j + 1), ring_vertex(sides - 1, j)))
    for i in range(1, sides - 1):
        for j in range(sides):
            a, b = ring_vertex(i, j), ring_vertex(i, j + 1)
            c, d = ring_vertex(i + 1, j + 1), ring_vertex(i + 1, j)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return TriangleMesh(verts, np.array(faces))


def write_desk_tree(root: Path, seed: int) -> None:
    synthetic.generate_model_root(
        root, per_category=DESK_PER_CATEGORY, test_fraction=DESK_TEST_FRACTION, seed=seed
    )


def write_dense_tree(root: Path, seed: int) -> None:
    """One train sphere at the middle of the ranges, the same for every seed,
    and one test sphere drawn from the seed.

    With one train object the k-NN entropy predictor returns the train
    sphere's entropy map, so every recognition fuses that map's peaks. A
    seeded train sphere made that 4 to 8 views, and the recognition time per
    object swung with the seed by 0.2 (IQR over median of 8 seeds).
    """
    middle = [(lo + hi) / 2 for lo, hi in SPHERE_SCALES]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    drawn = [rng.uniform(lo, hi) for lo, hi in SPHERE_SCALES]
    spheres = {
        "train": uv_sphere(middle, sum(SPHERE_BUMP) / 2),
        "test": uv_sphere(drawn, rng.uniform(*SPHERE_BUMP)),
    }
    for i, (split, mesh) in enumerate(spheres.items()):
        split_dir = root / "uvsphere" / split
        split_dir.mkdir(parents=True, exist_ok=True)
        write_off(mesh, split_dir / f"uvsphere_{i:04d}.off")


@dataclass(frozen=True)
class Workload:
    name: str
    write_tree: Callable[[Path, int], None]
    #: Recognition passes over the test split per round.
    recognize_passes: int
    #: Vertex-noise levels of the rerender phase, in unit-cube units.
    sigmas: tuple[float, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", write_desk_tree, recognize_passes=10, sigmas=(0.02, 0.06)),
        # One sigma: re-rendering a dense sphere costs as much as building it.
        # 500 passes: the recognitions fall into the two gaps around the one
        # rerender, and with 100 passes each burst was too short (0.3 s) for
        # the host-speed samples around it; the time per object spread by 0.14.
        Workload("dense", write_dense_tree, recognize_passes=500, sigmas=(0.02,)),
    )
}


def noise_seed(seed: int, sigma_index: int) -> int:
    """Seed of one sigma's noise, so each sigma draws independent noise."""
    return int(np.random.SeedSequence([seed, sigma_index]).generate_state(1)[0])


class PipelineCalls:
    """The untraced round: each phase is one public ``pipeline`` call."""

    def build(self, models: Path, out: Path):
        return pipeline.build_dataset(models, out)

    def train(self, records):
        return pipeline.train_predictors(records)

    def recognize(self, record, entropy_predictor, view_predictor):
        (result,) = pipeline.run_recognition([record], entropy_predictor, view_predictor)
        return result

    def rerender(self, record, models: Path, view_predictor, sigma: float, seed: int) -> dict:
        (row,) = pipeline.noise_sweep(
            [record], models, view_predictor, "oracle", sigmas=(sigma,), seed=seed
        )
        return row


@dataclass
class Round:
    """Timed intervals, outputs and failures of one round."""

    wall: Interval | None = None
    build: Interval | None = None
    objects: int = 0
    train: Interval | None = None
    recognize: list[Interval] = field(default_factory=list)
    #: k-NN queries over all recognitions: one entropy-map query per call
    #: plus one view query per fused view.
    recognize_queries: int = 0
    rerender: list[Interval] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sweep_labels: list[str] = field(default_factory=list)
    class_accuracy: float | None = None
    pose_accuracy: float | None = None
    view_table: tuple[int, int] = (0, 0)  # rows, bytes
    entropy_table: tuple[int, int] = (0, 0)
    train_objects: int = 0
    test_objects: int = 0


def _table_size(predictor) -> tuple[int, int]:
    arrays = [v for v in vars(predictor).values() if isinstance(v, np.ndarray)]
    return len(predictor.features), sum(a.nbytes for a in arrays)


def _signature(result) -> tuple:
    return (result.object_id, result.predicted_category, result.predicted_offset, result.views_used)


def _spread(total: int, gaps: int) -> list[int]:
    """Split ``total`` operations over ``gaps`` as evenly as integers allow."""
    bounds = [-(-total * i // gaps) for i in range(gaps + 1)]  # ceil(total * i / gaps)
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def run_round(
    calls, workload: Workload, models: Path, out: Path, seed: int, clock: HostClock
) -> Round:
    """Run the four phases once, writing dataset/, results.csv and sweep.csv under ``out``.

    Each operation is timed by ``clock``, which later corrects its time for the
    host's speed during it. After the build and one training, the recognitions are
    spread evenly between the rerender calls instead of running back to back,
    so that they sample the whole round.
    """
    rnd = Round(wall=Interval(time.perf_counter()))

    with clock.timed() as rnd.build:
        records, skipped = calls.build(models, out / "dataset")
    rnd.objects = len(records) + len(skipped)
    rnd.attempted += rnd.objects
    rnd.failures += [f"build skipped {message}" for message in skipped]

    with clock.timed() as rnd.train:
        entropy_predictor, view_predictor = calls.train(records)
    rnd.view_table = _table_size(view_predictor)
    rnd.entropy_table = _table_size(entropy_predictor)

    test = sorted((r for r in records if r.split == "test"), key=lambda r: r.object_id)
    rnd.train_objects = sum(r.split == "train" for r in records)
    rnd.test_objects = len(test)
    rerenders = [(i, sigma, record) for i, sigma in enumerate(workload.sigmas) for record in test]
    gaps = len(rerenders) + 1
    recognitions = _spread(workload.recognize_passes * len(test), gaps)
    first: dict[str, object] = {}
    recognized = 0
    rows = []
    for gap in range(gaps):
        for _ in range(recognitions[gap]):
            record = test[recognized % len(test)]
            recognized += 1
            rnd.attempted += 1
            try:
                with clock.timed() as interval:
                    result = calls.recognize(record, entropy_predictor, view_predictor)
            except Exception as exc:  # a failed object is counted, the run goes on
                rnd.failures.append(f"recognize {record.object_id}: {exc!r}")
                continue
            rnd.recognize.append(interval)
            rnd.recognize_queries += 1 + result.views_used
            if _signature(first.setdefault(record.object_id, result)) != _signature(result):
                rnd.failures.append(f"recognize {record.object_id}: repeated call disagrees")
        if gap == len(rerenders):
            break
        sigma_index, sigma, record = rerenders[gap]
        rnd.attempted += 1
        try:
            with clock.timed() as interval:
                row = calls.rerender(
                    record, models, view_predictor, sigma, noise_seed(seed, sigma_index)
                )
        except Exception as exc:  # a failed object is counted, the run goes on
            rnd.failures.append(f"rerender {record.object_id} sigma={sigma}: {exc!r}")
            continue
        rows.append(row)
        rnd.rerender.append(interval)
        rnd.sweep_labels.append(f"{record.object_id}/sweep_row@{sigma}")

    results = list(first.values())
    try:
        report = pipeline.evaluate(results, records)
        rnd.class_accuracy, rnd.pose_accuracy = report.class_accuracy, report.pose_accuracy
    except ValueError as exc:
        rnd.failures.append(f"evaluate: {exc}")
    pipeline.write_results(results, out / "results.csv")
    pipeline.write_sweep(rows, out / "sweep.csv")
    rnd.wall.end = time.perf_counter()
    return rnd
