import argparse
import shlex
from pathlib import Path

import numpy as np
import pytest

from viewsphere import cli, pipeline, synthetic
from viewsphere.cli import _build_parser, _sigma_list, main
from viewsphere.entropy import EntropyMap, write_map_csv
from viewsphere.fusion import PoseOffset
from viewsphere.mesh import load_off, normalize_to_unit_cube
from viewsphere.predict import (
    KnnEntropyPredictor,
    KnnViewPredictor,
    load_predictor,
    oracle_entropy_predictor,
    read_predictions,
    write_predictions,
)
from viewsphere.render import read_pgm, write_pgm_array
from viewsphere.voxel import VoxelGrid, save_grid


@pytest.fixture(scope="module")
def model_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    n = synthetic.generate_model_root(
        root, per_category=3, test_fraction=1 / 3, seed=9, categories=("box", "pyramid")
    )
    assert n == 6
    return root


@pytest.fixture(scope="module")
def dataset(model_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    records, skipped = pipeline.build_dataset(model_root, out, workers=1, seed=0)
    assert skipped == []
    return out, records


@pytest.fixture(scope="module")
def predictors(dataset):
    _, records = dataset
    return pipeline.train_predictors(records, k=3)


def test_build_dataset_counts_and_layout(dataset):
    out, records = dataset
    assert len(records) == 6
    assert sum(r.split == "train" for r in records) == 4
    assert sum(r.split == "test" for r in records) == 2
    assert [r.object_id for r in records] == sorted(r.object_id for r in records)
    for r in records:
        assert r.voxel_path.is_file()
        assert len(r.view_paths) == 60
        assert len(r.entropies) == 60
        img = read_pgm(r.view_paths[0])
        assert img.pixels.shape == (224, 224)


def test_manifest_round_trip(dataset):
    out, records = dataset
    again = pipeline.read_manifest(out / "manifest.csv")
    assert len(again) == len(records)
    for a, b in zip(records, again):
        assert a.object_id == b.object_id
        assert np.array_equal(a.entropies, b.entropies)
        assert a.view_paths == b.view_paths


def test_build_dataset_is_reproducible(model_root, dataset, tmp_path):
    out, _ = dataset
    again = tmp_path / "again"
    pipeline.build_dataset(model_root, again, workers=1, seed=0)
    assert (out / "manifest.csv").read_bytes() == (again / "manifest.csv").read_bytes()


def test_subsample_selection(model_root, tmp_path):
    found = pipeline.discover_models(model_root, subsample=0.5, seed=1)
    # per (category, split): max(1, round(0.5 * n)) of {train: 2, test: 1}
    assert len(found) == 2 * (1 + 1)
    with pytest.raises(ValueError, match="subsample"):
        pipeline.discover_models(model_root, subsample=0.0)


def test_empty_category_errors(tmp_path):
    (tmp_path / "empty_cat" / "train").mkdir(parents=True)
    with pytest.raises(ValueError, match="no .off meshes"):
        pipeline.discover_models(tmp_path)


def test_duplicate_object_ids_error(tmp_path):
    from viewsphere.mesh import write_off

    rng = np.random.default_rng(0)
    for cat in ("a", "b"):
        d = tmp_path / cat / "train"
        d.mkdir(parents=True)
        write_off(synthetic.make_box(rng), d / "same_name.off")
    with pytest.raises(ValueError, match="duplicate"):
        pipeline.discover_models(tmp_path)


def test_unreadable_file_is_skipped(model_root, tmp_path):
    import shutil

    broken_root = tmp_path / "broken"
    shutil.copytree(model_root, broken_root)
    (broken_root / "box" / "train" / "box_9999.off").write_text("OFF\nnot numbers\n")
    out = tmp_path / "out"
    records, skipped = pipeline.build_dataset(broken_root, out, workers=1)
    assert len(records) == 6
    assert len(skipped) == 1 and skipped[0].count("box_9999") == 1  # the path, once
    manifest_ids = {r.object_id for r in records}
    assert "box_9999" not in manifest_ids


def test_recognition_memorizes_training_objects(dataset, predictors):
    _, records = dataset
    _, view_predictor = predictors
    train = [r for r in records if r.split == "train"]
    results = pipeline.run_recognition(train, "oracle", view_predictor)
    for result in results:
        assert result.predicted_category == result.true_category
        assert result.predicted_offset == PoseOffset(0, 0)
        assert result.views_used >= 1


def test_recognition_max_views(dataset, predictors):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    results = pipeline.run_recognition(test, "oracle", view_predictor, max_views=1)
    assert all(r.views_used == 1 for r in results)
    with pytest.raises(ValueError, match="max_views"):
        pipeline.run_recognition(test, "oracle", view_predictor, max_views=0)


def test_recognition_with_knn_entropy(dataset, predictors):
    _, records = dataset
    entropy_predictor, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    results = pipeline.run_recognition(test, entropy_predictor, view_predictor)
    assert len(results) == len(test)
    assert all(1 <= r.views_used <= 30 for r in results)


def test_recognition_from_exchange_file(dataset, predictors, tmp_path):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    exchange = {
        (r.object_id, i): view_predictor.predict(read_pgm(path))
        for r in test
        for i, path in enumerate(r.view_paths)
    }
    path = tmp_path / "preds.jsonl"
    write_predictions(exchange, path)
    via_file = pipeline.run_recognition(test, "oracle", read_predictions(path))
    via_model = pipeline.run_recognition(test, "oracle", view_predictor)
    for a, b in zip(via_file, via_model):
        assert a.predicted_category == b.predicted_category
        assert a.predicted_offset == b.predicted_offset


def test_recognition_missing_exchange_record(dataset):
    _, records = dataset
    test = [r for r in records if r.split == "test"]
    with pytest.raises(ValueError, match="exchange records do not cover"):
        pipeline.run_recognition(test, "oracle", {})


def test_evaluate_scores_and_confusion(dataset, predictors):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    results = pipeline.run_recognition(test, "oracle", view_predictor)
    report = pipeline.evaluate(results, records)
    assert 0.0 <= report.class_accuracy <= 1.0
    assert 0.0 <= report.pose_accuracy <= 1.0
    true_counts = {c: sum(r.category == c for r in test) for c in report.categories}
    for i, category in enumerate(report.categories):
        assert report.confusion[i].sum() == true_counts.get(category, 0)
    assert report.seconds_per_object is not None

    # order independence
    shuffled = pipeline.evaluate(list(reversed(results)), records)
    assert shuffled.class_accuracy == report.class_accuracy
    assert np.array_equal(shuffled.confusion, report.confusion)


def test_evaluate_perfect_and_one_wrong(dataset):
    _, records = dataset
    test = [r for r in records if r.split == "test"]
    perfect = [
        pipeline.RecognitionResult(r.object_id, r.category, r.category, PoseOffset(0, 0), 3)
        for r in test
    ]
    report = pipeline.evaluate(perfect, records)
    assert report.class_accuracy == 1.0
    assert report.pose_accuracy == 1.0

    wrong = [
        pipeline.RecognitionResult(
            r.object_id,
            r.category,
            r.category if i else "box" if r.category != "box" else "pyramid",
            PoseOffset(0, 0),
            3,
        )
        for i, r in enumerate(test)
    ]
    report = pipeline.evaluate(wrong, records)
    assert report.class_accuracy == pytest.approx((len(test) - 1) / len(test))


def test_evaluate_mismatch_errors(dataset):
    _, records = dataset
    test = [r for r in records if r.split == "test"]
    partial = [
        pipeline.RecognitionResult(r.object_id, r.category, r.category, PoseOffset(0, 0), 1)
        for r in test[1:]
    ]
    with pytest.raises(ValueError, match="mismatch"):
        pipeline.evaluate(partial, records)


def test_evaluate_without_test_split_errors(dataset, tmp_path, capsys):
    out, records = dataset
    with pytest.raises(ValueError, match="no test-split records"):
        pipeline.evaluate([], [r for r in records if r.split == "train"])
    lines = (out / "manifest.csv").read_text().splitlines(keepends=True)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(line for line in lines if line.split(",")[2] != "test"))
    results = tmp_path / "results.csv"
    pipeline.write_results([], results)
    args = ["evaluate", "--results", str(results), "--manifest", str(manifest), "--out", str(tmp_path / "e")]
    assert main(args) == 1
    assert "no test-split records" in capsys.readouterr().err


def test_results_csv_round_trip(dataset, predictors, tmp_path):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    results = pipeline.run_recognition(test, "oracle", view_predictor)
    path = tmp_path / "results.csv"
    pipeline.write_results(results, path)
    again = pipeline.read_results(path)
    for a, b in zip(sorted(results, key=lambda r: r.object_id), again):
        assert (a.object_id, a.true_category, a.predicted_category) == (
            b.object_id,
            b.true_category,
            b.predicted_category,
        )
        assert a.predicted_offset == b.predicted_offset
        assert a.views_used == b.views_used
    report_a = pipeline.evaluate(results, records)
    report_b = pipeline.evaluate(again, records)
    assert report_a.class_accuracy == report_b.class_accuracy
    assert report_a.pose_accuracy == report_b.pose_accuracy


def test_noise_sweep_sigma_zero_matches_clean_run(dataset, predictors, model_root):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    clean = pipeline.evaluate(pipeline.run_recognition(test, "oracle", view_predictor), records)
    rows = pipeline.noise_sweep(records, model_root, view_predictor, sigmas=[0.0], seed=5)
    assert rows[0]["sigma"] == 0.0
    assert rows[0]["class_accuracy"] == clean.class_accuracy
    assert rows[0]["pose_accuracy"] == clean.pose_accuracy


def test_noise_sweep_rejects_exchange_records(dataset, predictors, model_root):
    # exchange records score the clean views; the sweep must predict on noisy renders
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    table = {
        (r.object_id, i): view_predictor.predict(read_pgm(path))
        for r in test
        for i, path in enumerate(r.view_paths)
    }
    with pytest.raises(ValueError, match="view predictor"):
        pipeline.noise_sweep(records, model_root, table, sigmas=[0.0])


@pytest.fixture
def no_mesh_work(monkeypatch):
    """Fail any mesh load or render through ``pipeline``: arguments must be checked before the first one."""

    def never(*args, **kwargs):
        raise AssertionError("a mesh was loaded or rendered before the arguments were checked")

    monkeypatch.setattr(pipeline, "load_off", never)
    monkeypatch.setattr(pipeline, "render_all_views", never)


def test_noise_sweep_max_views(dataset, predictors, model_root, no_mesh_work):
    _, records = dataset
    _, view_predictor = predictors
    with pytest.raises(ValueError, match="max_views"):
        pipeline.noise_sweep(records, model_root, view_predictor, sigmas=[0.0], max_views=0)


def test_noise_sweep_rejects_an_unknown_fusion_mode_before_any_load_or_render(
    dataset, predictors, model_root, no_mesh_work
):
    _, records = dataset
    _, view_predictor = predictors
    with pytest.raises(ValueError, match="unknown fusion mode 'bogus'"):
        pipeline.noise_sweep(records, model_root, view_predictor, sigmas=[0.02], fusion_mode="bogus")


@pytest.mark.parametrize("sigmas", [[0.02, 0.04, -0.1], [0.02, float("inf")]])
def test_noise_sweep_rejects_a_bad_sigma_before_any_load_or_render(
    dataset, predictors, model_root, no_mesh_work, sigmas
):
    _, records = dataset
    _, view_predictor = predictors
    with pytest.raises(ValueError, match=f"sigma must be finite and >= 0, got {sigmas[-1]}"):
        pipeline.noise_sweep(records, model_root, view_predictor, sigmas=sigmas)


def test_cli_noise_sweep_rejects_a_negative_sigma_before_rendering(
    dataset, predictors, model_root, no_mesh_work, tmp_path, capsys
):
    out, _ = dataset
    _, view_predictor = predictors
    view_npz = tmp_path / "view_knn.npz"
    view_predictor.save(view_npz)
    args = ["noise-sweep", "--manifest", str(out / "manifest.csv"), "--models", str(model_root)]
    args += ["--sigmas", "0.02,-0.1", "--view-model", str(view_npz), "--out", str(tmp_path / "sweep")]
    assert main(args) == 1
    assert "sigma must be finite and >= 0, got -0.1" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_cli_noise_sweep_missing_source_mesh(dataset, predictors, tmp_path, capsys):
    out, records = dataset
    _, view_predictor = predictors
    view_npz = tmp_path / "view_knn.npz"
    view_predictor.save(view_npz)
    first = min((r for r in records if r.split == "test"), key=lambda r: r.object_id)
    args = ["noise-sweep", "--manifest", str(out / "manifest.csv"), "--models", str(tmp_path / "empty")]
    args += ["--sigmas", "0.0", "--view-model", str(view_npz), "--out", str(tmp_path / "sweep")]
    assert main(args) == 1
    assert str(tmp_path / "empty" / first.category / "test" / f"{first.object_id}.off") in capsys.readouterr().err


@pytest.mark.parametrize("sigmas", [",", " , ,", ""])
def test_cli_noise_sweep_rejects_empty_sigma_list(dataset, model_root, tmp_path, capsys, sigmas):
    out, _ = dataset
    with pytest.raises(argparse.ArgumentTypeError, match="no noise levels"):
        _sigma_list(sigmas)
    args = ["noise-sweep", "--manifest", str(out / "manifest.csv"), "--models", str(model_root)]
    args += ["--sigmas", sigmas, "--view-model", "v.npz", "--out", str(tmp_path / "sweep")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "--sigmas" in err and f"no noise levels in {sigmas!r}" in err
    assert not (tmp_path / "sweep").exists()


def test_cli_noise_sweep_rejects_sigma_that_is_not_finite(dataset, predictors, model_root, tmp_path, capsys):
    out, _ = dataset
    _, view_predictor = predictors
    view_npz = tmp_path / "view_knn.npz"
    view_predictor.save(view_npz)
    args = ["noise-sweep", "--manifest", str(out / "manifest.csv"), "--models", str(model_root)]
    args += ["--sigmas", "nan", "--view-model", str(view_npz), "--out", str(tmp_path / "sweep")]
    # a validation failure (1), not a partial skip (2)
    assert main(args) == 1
    assert "sigma must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_emit_heatmap(tmp_path):
    values = np.zeros((5, 12))
    values[1, 4] = 2.5
    emap = EntropyMap(values)
    out = tmp_path / "map.pgm"
    pipeline.emit_heatmap(emap, out)
    img = read_pgm(out)
    assert img.pixels.shape == (100, 240)
    assert img.pixels.max() == 255
    from viewsphere.entropy import read_map_csv

    sidecar = read_map_csv(tmp_path / "map.csv")
    assert np.abs(sidecar.values - values).max() < 1e-12

    pipeline.emit_heatmap(EntropyMap(np.full((5, 12), 1.0)), out)
    assert (read_pgm(out).pixels == 128).all()


def test_write_report_files(dataset, predictors, tmp_path):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    report = pipeline.evaluate(pipeline.run_recognition(test, "oracle", view_predictor), records)
    pipeline.write_report(report, tmp_path)
    assert (tmp_path / "report.txt").exists()
    confusion = (tmp_path / "confusion.csv").read_text().splitlines()
    assert confusion[0].startswith("true\\predicted")
    views = (tmp_path / "views.csv").read_text().splitlines()
    assert views[0] == "category,views_used"
    assert len(views) == 1 + len(test)


def test_results_csv_is_deterministic(dataset, predictors, tmp_path):
    _, records = dataset
    _, view_predictor = predictors
    test = [r for r in records if r.split == "test"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    pipeline.write_results(pipeline.run_recognition(test, "oracle", view_predictor), a)
    pipeline.write_results(pipeline.run_recognition(test, "oracle", view_predictor), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workers", [0, -2])
def test_build_dataset_rejects_fewer_than_one_worker(model_root, tmp_path, capsys, workers):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="workers must be >= 1"):
        pipeline.build_dataset(model_root, out, workers=workers)
    assert not out.exists()  # rejected before anything is written
    assert main(["build-dataset", "--input", str(model_root), "--out", str(out), "--workers", str(workers)]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    config = tmp_path / "build.cfg"
    config.write_text(f"workers={workers}\n")
    assert main(["build-dataset", "--config", str(config), "--input", str(model_root), "--out", str(out)]) == 1


@pytest.mark.skipif((__import__("os").cpu_count() or 1) < 4, reason="needs >= 4 cores")
def test_worker_throughput_scales(model_root, tmp_path):
    # soft performance check: 4 workers should at least halve the wall time
    import time

    start = time.perf_counter()
    pipeline.build_dataset(model_root, tmp_path / "w1", workers=1)
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    pipeline.build_dataset(model_root, tmp_path / "w4", workers=4)
    t4 = time.perf_counter() - start
    assert t4 <= 0.5 * t1


# --- CLI ---------------------------------------------------------------


def test_cli_full_chain(model_root, tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["build-dataset", "--input", str(model_root), "--out", str(out)]) == 0
    assert (out / "manifest.csv").is_file()
    manifest = str(out / "manifest.csv")

    models = tmp_path / "knn"
    assert main(["train-knn", "--manifest", manifest, "--out", str(models)]) == 0
    assert (models / "entropy_knn.npz").is_file()
    assert (models / "view_knn.npz").is_file()

    records = pipeline.read_manifest(out / "manifest.csv")
    some_grid = str(records[0].voxel_path)
    map_csv = tmp_path / "map.csv"
    assert (
        main(
            [
                "predict-map",
                "--grid",
                some_grid,
                "--model",
                str(models / "entropy_knn.npz"),
                "--out",
                str(map_csv),
            ]
        )
        == 0
    )
    assert map_csv.is_file()

    assert main(["best-views", "--map", str(map_csv), "--top", "3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "entropy=" in l]
    assert 1 <= len(lines) <= 3

    results_dir = tmp_path / "rec"
    assert (
        main(
            [
                "recognize",
                "--manifest",
                manifest,
                "--out",
                str(results_dir),
                "--entropy-model",
                str(models / "entropy_knn.npz"),
                "--view-model",
                str(models / "view_knn.npz"),
            ]
        )
        == 0
    )
    results_csv = results_dir / "results.csv"
    assert results_csv.is_file()

    eval_dir = tmp_path / "eval"
    assert (
        main(
            [
                "evaluate",
                "--results",
                str(results_csv),
                "--manifest",
                manifest,
                "--out",
                str(eval_dir),
            ]
        )
        == 0
    )
    assert (eval_dir / "report.txt").is_file()
    assert "class_accuracy" in capsys.readouterr().out

    sweep_dir = tmp_path / "sweep"
    assert (
        main(
            [
                "noise-sweep",
                "--manifest",
                manifest,
                "--models",
                str(model_root),
                "--view-model",
                str(models / "view_knn.npz"),
                "--sigmas",
                "0.0",
                "--out",
                str(sweep_dir),
            ]
        )
        == 0
    )
    assert (sweep_dir / "noise_sweep.csv").is_file()

    heat = tmp_path / "heat.pgm"
    assert main(["heatmap", "--map", str(map_csv), "--out", str(heat)]) == 0
    assert heat.is_file()


def test_cli_validation_failures(dataset, model_root, tmp_path, capsys):
    assert main(["build-dataset", "--input", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 1
    assert main(["predict-map", "--out", str(tmp_path / "m.csv")]) == 1
    assert main(["evaluate", "--results", "missing.csv", "--manifest", "m", "--out", "o"]) == 1
    build = ["build-dataset", "--input", str(model_root), "--out", str(tmp_path / "ds")]
    capsys.readouterr()
    assert main(build + ["--subsample", "1/0"]) == 1
    assert "--subsample: zero denominator in '1/0'" in capsys.readouterr().err

    out, _ = dataset
    short = tmp_path / "short.csv"
    short.write_text(",".join(pipeline.RESULT_COLUMNS) + "\nbox_0000,box,box\n")
    evaluate = ["evaluate", "--manifest", str(out / "manifest.csv"), "--out", str(tmp_path / "e")]
    assert main(evaluate + ["--results", str(short)]) == 1

    for name, arrays in (("kindless", {}), ("mapless", {"kind": "entropy_knn"})):
        model = tmp_path / f"{name}.npz"
        np.savez(model, features=np.zeros((1, 4)), **arrays)
        predict_map = ["predict-map", "--grid", "g.vox", "--model", str(model), "--out", "m.csv"]
        assert main(predict_map) == 1


def _csv(*rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


def _manifest(entropy="0.0") -> bytes:
    """One train object whose grid is ``g.vox``, whose views are all ``v.pgm`` and whose first entropy reads ``entropy``."""
    return _csv(pipeline.MANIFEST_COLUMNS, ["box_0000", "box", "train", "g.vox", entropy] + ["0.0"] * 59 + ["v.pgm"] * 60)


def _results(d_theta) -> bytes:
    return _csv(pipeline.RESULT_COLUMNS, ["box_0000", "box", "box", d_theta, "0", "0", "0", "1"])


_MAP_ROW = ["1.0"] * 12
_BEST_VIEWS = ["best-views", "--map", "map.csv"]
_TRAIN = ["train-knn", "--manifest", "manifest.csv", "--out", "out"]
_EVALUATE = ["evaluate", "--results", "results.csv", "--manifest", "manifest.csv", "--out", "out"]
_ORACLE_MAP = ["predict-map", "--mesh", "bad.off", "--out", "out"]


def test_evaluate_rejects_repeated_object_ids(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    row = ["box", "test", "g.vox"] + ["0.0"] * 60 + ["v.pgm"] * 60
    (tmp_path / "manifest.csv").write_bytes(_csv(pipeline.MANIFEST_COLUMNS, ["box_0000", *row], ["box_0001", *row]))
    result = ["0", "0", "0", "0", "1"]
    (tmp_path / "results.csv").write_bytes(
        _csv(
            pipeline.RESULT_COLUMNS,
            ["box_0000", "box", "box", *result],
            ["box_0001", "box", "box", *result],
            ["box_0001", "box", "cone", *result],
        )
    )
    assert main(_EVALUATE) == 1
    assert "repeated object ids in results: ['box_0001']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (subcommands,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subcommands.choices


_COMMANDS = "build-dataset train-knn predict-map best-views recognize evaluate noise-sweep heatmap".split()


@pytest.mark.parametrize("name", _COMMANDS)
def test_cli_subcommand_wiring(name):
    parser = _subcommands()[name]
    assert parser._actions[1].option_strings == ["--config"]  # first flag after --help
    assert parser.get_default("func") is getattr(cli, f"_cmd_{name.replace('-', '_')}")
    assert parser.get_default("_parser") is parser


def test_cli_has_exactly_the_listed_subcommands():
    assert list(_subcommands()) == _COMMANDS


def test_cli_seed_only_where_something_is_random():
    subcommands = _subcommands()
    seeded = {name for name, p in subcommands.items() if any(a.dest == "seed" for a in p._actions)}
    assert seeded == {"build-dataset", "noise-sweep"}


_BAD_OFF = b"OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n"


@pytest.mark.parametrize(
    "argv, files, bad, says",
    [
        pytest.param(_BEST_VIEWS, {"map.csv": _csv(["1.0", "2.0"], ["3.0", "4.0"])}, "map.csv", "5x12", id="map-shape"),
        pytest.param(_BEST_VIEWS, {"map.csv": _csv(["x"] + _MAP_ROW[1:], *[_MAP_ROW] * 4)}, "map.csv", "'x'", id="map-value"),
        pytest.param(_TRAIN, {"manifest.csv": _manifest(), "v.pgm": b"P5\nx 2\n255\n" + bytes(4)}, "v.pgm", "PGM header 'x 2 255'", id="pgm-width"),
        pytest.param(_TRAIN, {"manifest.csv": _manifest(), "v.pgm": b"P5\n0 0\n255\n"}, "v.pgm", "PGM header '0 0 255'", id="pgm-empty"),
        pytest.param(_TRAIN, {"manifest.csv": _manifest(), "v.pgm": b"P5\n-1 -1\n255\nab"}, "v.pgm", "PGM header '-1 -1 255'", id="pgm-negative"),
        pytest.param(_TRAIN, {"manifest.csv": _manifest(), "v.pgm": b"P5\n-2 2\n255\n"}, "v.pgm", "PGM header '-2 2 255'", id="pgm-negative-width"),
        pytest.param(_TRAIN, {"manifest.csv": _manifest(entropy="x")}, "manifest.csv", "'x'", id="manifest-entropy"),
        pytest.param(_TRAIN, {"manifest.csv": _manifest(entropy="-1.0")}, "manifest.csv", "[0, 8.0]", id="manifest-range"),
        pytest.param(_EVALUATE, {"results.csv": _results("15")}, "results.csv", "15", id="results-pose"),
        pytest.param(_EVALUATE, {"results.csv": _results("x")}, "results.csv", "'x'", id="results-value"),
        pytest.param(_ORACLE_MAP, {"bad.off": _BAD_OFF}, "bad.off", "line 4: non-numeric vertex coordinate", id="off-vertex"),
    ],
)
def test_cli_errors_name_the_bad_file(tmp_path, monkeypatch, capsys, argv, files, bad, says):
    monkeypatch.chdir(tmp_path)
    save_grid(VoxelGrid(np.zeros((56, 56, 56), dtype=bool)), "g.vox")  # train-knn reads it before the views
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: "), err
    assert says in err and err.count(bad) == 1, err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_wrong_model_kinds(dataset, predictors, model_root, tmp_path, capsys):
    out, _ = dataset
    entropy_predictor, view_predictor = predictors
    entropy_npz = tmp_path / "entropy_knn.npz"
    view_npz = tmp_path / "view_knn.npz"
    entropy_predictor.save(entropy_npz)
    view_predictor.save(view_npz)
    manifest = ["--manifest", str(out / "manifest.csv")]
    run = ["--out", str(tmp_path / "run")]

    assert main(["predict-map", "--grid", "g.vox", "--model", str(view_npz), "--out", "m.csv"]) == 1
    assert "is not an entropy predictor" in capsys.readouterr().err
    assert main(["recognize", *manifest, *run, "--view-model", str(entropy_npz)]) == 1
    assert "is not a view predictor" in capsys.readouterr().err
    knn = ["--entropy-model", str(view_npz), "--view-model", str(view_npz)]
    assert main(["recognize", *manifest, *run, *knn]) == 1
    assert "is not an entropy predictor" in capsys.readouterr().err

    # noise-sweep predicts on its noisy renders: it takes a view model, never an exchange file
    sweep = ["noise-sweep", *manifest, *run, "--models", str(model_root), "--sigmas", "0.0"]
    assert main(sweep + ["--view-model", str(entropy_npz)]) == 1
    assert "is not a view predictor" in capsys.readouterr().err
    assert main(sweep + ["--view-model", str(view_npz), "--entropy-model", str(view_npz)]) == 1
    assert "is not an entropy predictor" in capsys.readouterr().err
    assert main(sweep + ["--predictions", "preds.jsonl"]) == 1
    assert "unrecognized arguments: --predictions" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _dataset_copy(dataset, tmp_path):
    """A copy of the module's dataset, and its records."""
    import shutil

    copy = tmp_path / "ds"
    shutil.copytree(dataset[0], copy)
    return copy / "manifest.csv", pipeline.read_manifest(copy / "manifest.csv")


def test_cli_recognize_names_a_view_of_the_wrong_size(dataset, model_files, tmp_path, capsys):
    manifest, records = _dataset_copy(dataset, tmp_path)
    test = next(r for r in records if r.split == "test")
    for path in test.view_paths:
        write_pgm_array(np.full((64, 64), 200, np.uint8), path)
    knn = ["--entropy-model", str(model_files[0]), "--view-model", str(model_files[1])]
    assert main(["recognize", "--manifest", str(manifest), "--out", str(tmp_path / "run"), *knn]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "64 x 64" in err and "224" in err, err
    assert any(f"{path}: " in err for path in test.view_paths), err
    assert not (tmp_path / "run").exists()


def test_cli_train_knn_names_a_view_of_the_wrong_size(dataset, tmp_path, capsys):
    manifest, records = _dataset_copy(dataset, tmp_path)
    view = next(r for r in records if r.split == "train").view_paths[7]
    write_pgm_array(np.zeros((64, 64), np.uint8), view)
    assert main(["train-knn", "--manifest", str(manifest), "--out", str(tmp_path / "knn")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {view}: ") and "64 x 64" in err and "224" in err, err
    assert not (tmp_path / "knn").exists()


@pytest.fixture
def model_files(predictors, tmp_path):
    """The module's predictors saved as ``entropy_knn.npz`` and ``view_knn.npz``."""
    paths = tmp_path / "entropy_knn.npz", tmp_path / "view_knn.npz"
    for predictor, path in zip(predictors, paths):
        predictor.save(path)
    return paths


def test_cli_recognize_entropy_model_given_means_knn(dataset, model_files, tmp_path):
    out, records = dataset
    entropy_npz, view_npz = model_files
    test = [r for r in records if r.split == "test"]
    view_predictor = load_predictor(view_npz)

    def expected(entropy_source):
        path = tmp_path / "expected.csv"
        pipeline.write_results(pipeline.run_recognition(test, entropy_source, view_predictor), path)
        return path.read_bytes()

    def recognize(name, *flags):
        args = ["recognize", "--manifest", str(out / "manifest.csv"), "--out", str(tmp_path / name)]
        assert main([*args, "--view-model", str(view_npz), *flags]) == 0
        return (tmp_path / name / "results.csv").read_bytes()

    knn, oracle = expected(load_predictor(entropy_npz)), expected("oracle")
    assert knn != oracle  # the two sources pick different views here
    assert recognize("knn", "--entropy-model", str(entropy_npz)) == knn
    assert recognize("oracle") == oracle


def test_cli_predict_map_mesh_means_oracle(model_root, tmp_path):
    mesh = min((model_root / "box" / "test").glob("*.off"))
    assert main(["predict-map", "--mesh", str(mesh), "--out", str(tmp_path / "cli.csv")]) == 0
    write_map_csv(oracle_entropy_predictor(normalize_to_unit_cube(load_off(mesh))), tmp_path / "direct.csv")
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


_SWEEP = ["noise-sweep", "--manifest", "manifest.csv", "--models", "models", "--out", "out"]
_MESH_ALONE = "--mesh renders the map; it takes no --grid or --model"


@pytest.mark.parametrize(
    "argv, says",
    [
        (["predict-map", "--mesh", "m.off", "--grid", "g.vox", "--out", "out"], _MESH_ALONE),
        (["predict-map", "--mesh", "m.off", "--model", "e.npz", "--out", "out"], _MESH_ALONE),
        (["predict-map", "--grid", "g.vox", "--out", "out"], "provide --grid and --model, or --mesh"),
        (_SWEEP, "noise-sweep needs --view-model"),
    ],
    ids=["mesh-and-grid", "mesh-and-model", "grid-without-model", "sweep-without-view-model"],
)
def test_cli_rejects_missing_or_conflicting_flags(tmp_path, monkeypatch, capsys, argv, says):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {says}\n"
    assert not (tmp_path / "out").exists()


def test_cli_config_supplies_the_models(dataset, model_files, model_root, tmp_path, monkeypatch):
    out, _ = dataset
    entropy_npz, view_npz = model_files
    config = tmp_path / "run.cfg"
    manifest = ["--manifest", str(out / "manifest.csv")]

    def recognize(name, text):
        config.write_text(text)
        assert main(["recognize", *manifest, "--out", str(tmp_path / name), "--config", str(config)]) == 0
        return (tmp_path / name / "results.csv").read_bytes()

    def flags(name, *extra):
        args = ["recognize", *manifest, "--out", str(tmp_path / name), "--view-model", str(view_npz)]
        assert main([*args, *extra]) == 0
        return (tmp_path / name / "results.csv").read_bytes()

    assert recognize("cfg_knn", f"entropy-model={entropy_npz}\nview-model={view_npz}\n") == flags(
        "knn", "--entropy-model", str(entropy_npz)
    )
    # `entropy` names no flag, so `entropy=knn` is ignored and the measured entropies pick the views
    assert recognize("cfg_oracle", f"entropy=knn\nview_model={view_npz}\n") == flags("oracle")

    seen = {}

    def fake_noise_sweep(records, model_root, view_source, entropy_source, **kwargs):
        seen.update(view=view_source, entropy=entropy_source)
        return [dict(sigma=0.0, class_accuracy=1.0, pose_accuracy=1.0, mean_views=1.0)]

    monkeypatch.setattr(pipeline, "noise_sweep", fake_noise_sweep)
    sweep = ["noise-sweep", *manifest, "--models", str(model_root), "--out", str(tmp_path / "sweep")]
    config.write_text(f"entropy_model={entropy_npz}\nview-model={view_npz}\n")
    assert main([*sweep, "--config", str(config)]) == 0
    assert isinstance(seen["view"], KnnViewPredictor) and isinstance(seen["entropy"], KnnEntropyPredictor)
    assert np.array_equal(seen["entropy"].features, load_predictor(entropy_npz).features)
    config.write_text(f"view_model={view_npz}\n")
    assert main([*sweep, "--config", str(config)]) == 0
    assert seen["entropy"] == "oracle"


def test_cli_config_supplies_required_flags(dataset, model_files, tmp_path, capsys):
    out, _ = dataset
    _, view_npz = model_files
    manifest = out / "manifest.csv"
    config = tmp_path / "run.cfg"
    config.write_text(f"manifest={manifest}\nout={tmp_path / 'cfg'}\nview-model={view_npz}\n")
    assert main(["recognize", "--config", str(config)]) == 0
    flags = ["recognize", "--manifest", str(manifest), "--view-model", str(view_npz)]
    assert main([*flags, "--out", str(tmp_path / "flags")]) == 0
    results = (tmp_path / "flags" / "results.csv").read_bytes()
    assert (tmp_path / "cfg" / "results.csv").read_bytes() == results
    # an explicit flag still wins over the file
    assert main(["recognize", "--config", str(config), "--out", str(tmp_path / "explicit")]) == 0
    assert (tmp_path / "explicit" / "results.csv").read_bytes() == results
    # a required flag that neither gives is still argparse's usage error, and --help still marks it required
    config.write_text(f"manifest={manifest}\n")
    capsys.readouterr()
    assert main(["recognize", "--config", str(config)]) == 1
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert main(["recognize", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--manifest MANIFEST" in usage and "[--manifest" not in usage


def _readme_cli_lines() -> list[str]:
    """The ``viewsphere ...`` commands of README's ``## CLI`` block, ``\\`` continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("viewsphere ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    assert {shlex.split(line)[1] for line in lines} == set(_COMMANDS)


def test_cli_best_views_top_must_be_positive(tmp_path, capsys):
    map_csv = tmp_path / "map.csv"
    values = np.zeros((5, 12))
    values[0, 0], values[2, 6] = 2.0, 3.0
    write_map_csv(EntropyMap(values), map_csv)
    assert main(["best-views", "--map", str(map_csv)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["best-views", "--map", str(map_csv), "--top", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["best-views", "--map", str(map_csv), "--top", "0"]) == 1
    assert main(["best-views", "--map", str(map_csv), "--top", "-1"]) == 1


def test_cli_partial_skips_exit_code(model_root, tmp_path):
    import shutil

    broken_root = tmp_path / "broken"
    shutil.copytree(model_root, broken_root)
    (broken_root / "box" / "train" / "box_bad.off").write_text("garbage\n")
    rc = main(["build-dataset", "--input", str(broken_root), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_cli_config_file(model_root, tmp_path, capsys):
    out = tmp_path / "ds"
    config = tmp_path / "run.cfg"
    config.write_text("# defaults for this run\nsubsample=1/3\nseed=4\n")
    assert (
        main(
            [
                "build-dataset",
                "--input",
                str(model_root),
                "--out",
                str(out),
                "--config",
                str(config),
            ]
        )
        == 0
    )
    records = pipeline.read_manifest(out / "manifest.csv")
    # per (category, split) draws: max(1, round(2/3)) + max(1, round(1/3)) per category
    assert len(records) == 4

    # explicit flags win over the file, also when they equal the flag's default
    def build(name, *flags):
        dest = tmp_path / name
        assert main(["build-dataset", "--input", str(model_root), "--out", str(dest), *flags]) == 0
        return (dest / "manifest.csv").read_bytes()

    seed0 = build("seed0", "--subsample", "1/3")
    assert seed0 != (out / "manifest.csv").read_bytes()  # seeds 0 and 4 draw differently
    assert build("explicit_seed", "--config", str(config), "--seed", "0") == seed0
    assert build("explicit_subsample", "--config", str(config), "--subsample", "1") == build("all")


@pytest.mark.parametrize("key", ["func", "_parser", "command", "config"])
def test_cli_config_cannot_set_internal_names(tmp_path, capsys, key):
    map_csv = tmp_path / "map.csv"
    write_map_csv(EntropyMap(np.arange(60.0).reshape(5, 12) / 8.0), map_csv)
    config = tmp_path / "run.cfg"
    config.write_text(f"top=1\n{key}=x\n")
    assert main(["best-views", "--map", str(map_csv), "--config", str(config)]) == 1
    assert repr(key) in capsys.readouterr().err
    config.write_text("top=1\nunknown=x\n")  # keys that name no flag of the command are ignored
    assert main(["best-views", "--map", str(map_csv), "--config", str(config)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_cli_explicit_fusion_beats_config(dataset, monkeypatch, tmp_path):
    out, _ = dataset
    config = tmp_path / "run.cfg"
    config.write_text("fusion=score-sum\nmax-views=2\n")
    seen = {}

    def fake_run_recognition(records, entropy_source, view_source, max_views, fusion_mode):
        seen.update(max_views=max_views, fusion_mode=fusion_mode)
        return [pipeline.RecognitionResult("box_0000", "box", "box", PoseOffset(0, 0), 1)]

    monkeypatch.setattr(pipeline, "run_recognition", fake_run_recognition)
    (tmp_path / "none.jsonl").write_text("")
    args = ["recognize", "--manifest", str(out / "manifest.csv"), "--out", str(tmp_path / "r")]
    args += ["--config", str(config), "--predictions", str(tmp_path / "none.jsonl")]
    assert main(args + ["--fusion", "argmax"]) == 0
    assert seen == {"max_views": 2, "fusion_mode": "argmax"}
    assert main(args) == 0
    assert seen == {"max_views": 2, "fusion_mode": "score_sum"}
