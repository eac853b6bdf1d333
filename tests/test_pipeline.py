import numpy as np
import pytest

from viewsphere import pipeline, synthetic
from viewsphere.cli import main
from viewsphere.entropy import EntropyMap, write_map_csv
from viewsphere.fusion import PoseOffset
from viewsphere.predict import PredictionRecord, write_predictions
from viewsphere.render import read_pgm


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
    assert len(skipped) == 1 and "box_9999" in skipped[0]
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
    exchange = [
        PredictionRecord(r.object_id, i, view_predictor.predict(read_pgm(path)))
        for r in test
        for i, path in enumerate(r.view_paths)
    ]
    path = tmp_path / "preds.jsonl"
    write_predictions(exchange, path)
    from viewsphere.predict import read_predictions

    table = {(p.object_id, p.view_index): p.prediction for p in read_predictions(path)}
    via_file = pipeline.run_recognition(test, "oracle", table)
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


def test_noise_sweep_max_views(dataset, predictors, model_root):
    _, records = dataset
    _, view_predictor = predictors
    with pytest.raises(ValueError, match="max_views"):
        pipeline.noise_sweep(records, model_root, view_predictor, sigmas=[0.0], max_views=0)


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
                "--entropy",
                "knn",
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


def test_cli_validation_failures(dataset, model_root, tmp_path):
    assert main(["build-dataset", "--input", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 1
    assert main(["predict-map", "--out", str(tmp_path / "m.csv")]) == 1
    assert main(["evaluate", "--results", "missing.csv", "--manifest", "m", "--out", "o"]) == 1
    build = ["build-dataset", "--input", str(model_root), "--out", str(tmp_path / "ds")]
    assert main(build + ["--subsample", "1/0"]) == 1

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
    knn = ["--entropy", "knn", "--entropy-model", str(view_npz), "--view-model", str(view_npz)]
    assert main(["recognize", *manifest, *run, *knn]) == 1
    assert "is not an entropy predictor" in capsys.readouterr().err

    predictions = tmp_path / "preds.jsonl"
    record = next(r for r in pipeline.read_manifest(out / "manifest.csv") if r.split == "test")
    prediction = view_predictor.predict(read_pgm(record.view_paths[0]))
    write_predictions([PredictionRecord(record.object_id, 0, prediction)], predictions)
    sweep = ["noise-sweep", *manifest, *run, "--models", str(model_root), "--sigmas", "0.0"]
    assert main(sweep + ["--predictions", str(predictions)]) == 1
    assert "view predictor" in capsys.readouterr().err


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
