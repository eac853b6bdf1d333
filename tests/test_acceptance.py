"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The desk-scale criteria (9, 10, 12) share one session-scoped synthetic
dataset; its build time is charged to criterion 9's budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    analytic_cube_shell,
    brute_force_peaks,
    brute_force_render,
    random_mesh,
    unit_cube_mesh,
)
from viewsphere import pipeline, synthetic
from viewsphere.entropy import EntropyMap, entropy_map_from_views, find_peaks, image_entropy
from viewsphere.fusion import PoseOffset, fuse
from viewsphere.mesh import TriangleMesh
from viewsphere.predict import ViewPrediction, map_mae
from viewsphere.render import DepthImage, render_all_views, render_depth
from viewsphere.viewrig import Viewpoint, build_rig, index_of, viewpoint_from_index
from viewsphere.voxel import voxelize


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        over = elapsed > budget_s
        status = "PASS" if ok and not over else "FAIL"
        print(
            f"[{status}] criterion {number:02d} {title} "
            f"({elapsed:.2f}s, budget {budget_s:.0f}s)",
            flush=True,
        )
    if elapsed > budget_s:
        raise AssertionError(f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s")


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    """5 primitive categories x 20 instances, built once and shared."""
    root = tmp_path_factory.mktemp("desk_models")
    out = tmp_path_factory.mktemp("desk_dataset")
    start = time.perf_counter()
    synthetic.generate_model_root(root, per_category=20, test_fraction=0.25, seed=7)
    records, skipped = pipeline.build_dataset(root, out, workers=2, seed=0)
    build_seconds = time.perf_counter() - start
    assert skipped == []
    assert len(records) == 100
    return root, records, build_seconds


@pytest.fixture(scope="session")
def desk_predictors(desk_dataset):
    _, records, _ = desk_dataset
    start = time.perf_counter()
    entropy_predictor, view_predictor = pipeline.train_predictors(records, k=5)
    return entropy_predictor, view_predictor, time.perf_counter() - start


def test_criterion_01_entropy_exactness():
    with criterion(1, "entropy exactness on known histograms", 1.0):
        constant = DepthImage(np.zeros((224, 224), dtype=np.uint8))
        assert abs(image_entropy(constant) - 0.0) <= 1e-12

        half = np.zeros((224, 224), dtype=np.uint8)
        half[:112] = 128
        assert abs(image_entropy(DepthImage(half)) - 1.0) <= 1e-12

        quarters = np.zeros((224, 224), dtype=np.uint8)
        quarters[56:112] = 5
        quarters[112:168] = 6
        quarters[168:] = 7
        assert abs(image_entropy(DepthImage(quarters)) - 2.0) <= 1e-12


def test_criterion_02_rig_geometry():
    with criterion(2, "rig geometry: 60 views, radii, pitches, azimuth steps", 1.0):
        rig = build_rig()
        assert len(rig) == 60
        for v in rig:
            assert abs(float(np.linalg.norm(v.position)) - v.radius) <= 1e-9
        assert sorted({v.phi_deg for v in rig}) == [30, 60, 90, 120, 150]
        for k in range(5):
            ring = [v for v in rig if v.ring == k]
            for j in range(12):
                a, b = ring[j].position, ring[(j + 1) % 12].position
                ya = math.degrees(math.atan2(a[1], a[0])) % 360.0
                yb = math.degrees(math.atan2(b[1], b[0])) % 360.0
                assert abs((yb - ya) % 360.0 - 30.0) <= 1e-9


def test_criterion_03_voxelizer():
    with criterion(3, "voxel dims, empty padding shell, exact cube shell", 10.0):
        rng = np.random.default_rng(0)
        for _ in range(100):
            grid = voxelize(random_mesh(rng, int(rng.integers(5, 40))))
            occ = grid.occupancy
            assert occ.shape == (56, 56, 56)
            assert occ.sum() == occ[3:53, 3:53, 3:53].sum()  # shell exactly empty
        cube_grid = voxelize(unit_cube_mesh())
        assert cube_grid.occupied_count == 14408
        assert np.array_equal(cube_grid.occupancy, analytic_cube_shell(50, 3))


def test_criterion_04_renderer_oracle_equivalence():
    with criterion(4, "batched rendering bit-equals brute force on every pixel", 60.0):
        rng = np.random.default_rng(1)
        sizes = rng.integers(10, 501, size=20)
        for n in sizes:
            mesh = random_mesh(rng, int(n))
            view = viewpoint_from_index(int(rng.integers(0, 60)))
            fast = render_depth(mesh, view)
            slow = brute_force_render(mesh, view)
            assert np.array_equal(fast.pixels, slow.pixels)


def test_criterion_05_cube_silhouette():
    with criterion(5, "cube silhouette fraction = (1/1.9)^2 +- 0.01", 1.0):
        img = render_depth(unit_cube_mesh(), Viewpoint(ring=2, azimuth=0))
        fraction = np.count_nonzero(img.pixels) / img.pixels.size
        assert abs(fraction - (1.0 / 1.9) ** 2) <= 0.01


def test_criterion_06_peak_detection():
    with criterion(6, "peak detection matches brute force on 1000 maps", 5.0):
        rng = np.random.default_rng(2)
        cases = []
        for i in range(1000):
            if i % 2:
                cases.append(rng.integers(0, 4, size=(5, 12)).astype(float))
            else:
                cases.append(rng.random((5, 12)) * 8.0)
        wrap = np.zeros((5, 12))
        wrap[2, 0] = 1.0
        wrap[2, 11] = 2.0
        cases.append(wrap)
        cases.append(np.full((5, 12), 1.5))
        for values in cases:
            got = [(p.ring, p.azimuth, p.value) for p in find_peaks(EntropyMap(values))]
            assert got == brute_force_peaks(values)
        constant_peaks = find_peaks(EntropyMap(np.full((5, 12), 3.0)))
        assert [(p.ring, p.azimuth) for p in constant_peaks] == [(0, 0)]


def test_criterion_07_cuboid_entropy_pattern():
    with criterion(7, "cuboid corner views out-score the face-on view", 30.0):
        half = np.array([0.5, 0.25, 0.125])
        signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        verts = np.array([half * s for s in signs])
        quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
        faces = []
        for a, b, c, d in quads:
            faces.append((a, b, c))
            faces.append((a, c, d))
        box = TriangleMesh(verts, np.array(faces))
        emap = entropy_map_from_views(render_all_views(box, build_rig()))
        corner_cols = [1, 4, 7, 10]  # theta 30, 120, 210, 300
        corner_mean = emap.values[np.ix_([1, 2, 3], corner_cols)].mean()
        face_on = emap.values[2, 0]  # phi 90, theta 0
        assert corner_mean > face_on


def test_criterion_08_pose_recovery_exactness():
    with criterion(8, "exact pose recovery for every 30-degree yaw", 1.0):
        rig = build_rig()
        captures = [rig[i] for i in (0, 13, 26, 39, 52, 59)]
        for step in range(12):
            views = []
            for capture in captures:
                predicted = index_of(capture.ring, (capture.azimuth - step) % 12)
                scores = np.zeros(60)
                scores[predicted] = 1.0
                views.append((capture, ViewPrediction({"obj": 1.0}, scores)))
            fused = fuse(views)
            assert fused.pose == PoseOffset(30 * step, 0)


def test_criterion_09_end_to_end_desk_scale(desk_dataset, desk_predictors):
    root, records, build_seconds = desk_dataset
    entropy_predictor, view_predictor, train_seconds = desk_predictors
    with criterion(9, "desk-scale fused accuracy (class >= 0.90, pose >= 0.80)", 600.0 - build_seconds - train_seconds):
        test = [r for r in records if r.split == "test"]
        assert len(test) == 25
        results = pipeline.run_recognition(test, entropy_predictor, view_predictor)
        report = pipeline.evaluate(results, records)
        mean_views = np.mean([r.views_used for r in results])
        print(
            f"  class_accuracy={report.class_accuracy:.3f} "
            f"pose_accuracy={report.pose_accuracy:.3f} mean_views={mean_views:.2f}",
            flush=True,
        )
        assert report.class_accuracy >= 0.90
        assert report.pose_accuracy >= 0.80
        assert all(1 <= r.views_used <= 30 for r in results)


def test_criterion_10_noise_degradation_trend(desk_dataset, desk_predictors):
    root, records, _ = desk_dataset
    _, view_predictor, _ = desk_predictors
    with criterion(10, "accuracy at sigma=0.10 <= accuracy at sigma=0.02", 900.0):
        rows = pipeline.noise_sweep(
            records, root, view_predictor, sigmas=[0.02, 0.10], seed=3
        )
        by_sigma = {row["sigma"]: row["class_accuracy"] for row in rows}
        print(f"  accuracy: sigma=0.02 -> {by_sigma[0.02]:.3f}, sigma=0.10 -> {by_sigma[0.10]:.3f}", flush=True)
        assert by_sigma[0.10] <= by_sigma[0.02]


def test_criterion_11_build_determinism_across_workers(tmp_path_factory):
    with criterion(11, "workers=1 and workers=8 build byte-identical datasets", 300.0):
        root = tmp_path_factory.mktemp("det_models")
        synthetic.generate_model_root(
            root, per_category=4, test_fraction=0.25, seed=21, categories=("box", "cone", "pyramid")
        )
        out1 = tmp_path_factory.mktemp("det_w1")
        out8 = tmp_path_factory.mktemp("det_w8")
        records1, _ = pipeline.build_dataset(root, out1, workers=1, seed=0)
        records8, _ = pipeline.build_dataset(root, out8, workers=8, seed=0)
        assert len(records1) == len(records8) == 12
        assert (out1 / "manifest.csv").read_bytes() == (out8 / "manifest.csv").read_bytes()
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files8 = sorted(p.relative_to(out8) for p in out8.rglob("*") if p.is_file())
        assert files1 == files8
        assert len(files1) == 1 + 12 + 12 * 60  # manifest + voxel grids + views
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out8 / rel).read_bytes(), rel


def test_criterion_12_knn_entropy_beats_constant_mean(desk_dataset, desk_predictors):
    _, records, _ = desk_dataset
    entropy_predictor, _, _ = desk_predictors
    with criterion(12, "held-out k-NN map MAE < constant mean-map MAE", 120.0):
        train = [r for r in records if r.split == "train"]
        test = [r for r in records if r.split == "test"]
        mean_map = EntropyMap(np.mean([r.entropy_map().values for r in train], axis=0))
        from viewsphere.voxel import load_grid

        knn_maes = []
        mean_maes = []
        for r in test:
            truth = r.entropy_map()
            predicted = entropy_predictor.predict_map(load_grid(r.voxel_path))
            knn_maes.append(map_mae(predicted, truth))
            mean_maes.append(map_mae(mean_map, truth))
        print(f"  knn MAE={np.mean(knn_maes):.4f} vs constant-mean MAE={np.mean(mean_maes):.4f}", flush=True)
        assert np.mean(knn_maes) < np.mean(mean_maes)
