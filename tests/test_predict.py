import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _reference_neighbors,
    random_mesh,
    reference_entropy_values,
    reference_knn_distances,
    reference_view_features,
    reference_view_prediction,
    reference_voxel_features,
)
from viewsphere import pipeline, predict, synthetic
from viewsphere.cli import main
from viewsphere.entropy import EntropyMap
from viewsphere.mesh import TriangleMesh
from viewsphere.predict import (
    KnnEntropyPredictor,
    KnnViewPredictor,
    ViewPrediction,
    _FULL_SCAN_VALUES,
    _l1_distances,
    _nearest,
    _pruned_nearest,
    knn_entropy_predictor_train,
    knn_view_predictor_train,
    load_predictor,
    map_mae,
    oracle_entropy_predictor,
    read_predictions,
    write_predictions,
)
from viewsphere.render import DepthImage, read_pgm
from viewsphere.voxel import VoxelGrid, block_sums, load_grid, voxelize


def _uniform_prediction(categories=("a", "b")):
    scores = {name: 1.0 / len(categories) for name in categories}
    return ViewPrediction(scores, np.full(60, 1.0 / 60.0))


def _one_hot(category, view_index, categories=("a", "b")):
    scores = dict.fromkeys(categories, 0.0)
    scores[category] = 1.0
    viewpoint = np.zeros(60)
    viewpoint[view_index] = 1.0
    return ViewPrediction(scores, viewpoint)


def _grid(seed, n_triangles=15):
    rng = np.random.default_rng(seed)
    return voxelize(random_mesh(rng, n_triangles))


def _map(seed):
    rng = np.random.default_rng(seed)
    return EntropyMap(rng.random((5, 12)) * 8.0)


def _image(seed):
    rng = np.random.default_rng(seed)
    return DepthImage(rng.integers(0, 256, size=(224, 224), dtype=np.uint8))


def test_view_prediction_validation():
    with pytest.raises(ValueError, match="60 entries"):
        ViewPrediction({"a": 1.0}, np.full(59, 1.0 / 59.0))
    with pytest.raises(ValueError, match="nonnegative"):
        ViewPrediction({"a": 1.5, "b": -0.5}, np.full(60, 1.0 / 60.0))
    with pytest.raises(ValueError, match="sum"):
        ViewPrediction({"a": 0.7}, np.full(60, 1.0 / 60.0))
    with pytest.raises(ValueError, match="sum"):
        ViewPrediction({"a": 1.0}, np.full(60, 1.0 / 30.0))


def test_argmax_tie_breaks():
    pred = ViewPrediction({"zeta": 0.4, "alpha": 0.4, "mid": 0.2}, np.full(60, 1.0 / 60.0))
    assert pred.top_class() == "alpha"
    scores = np.zeros(60)
    scores[7] = 0.5
    scores[31] = 0.5
    pred = ViewPrediction({"a": 1.0}, scores)
    assert pred.top_viewpoint() == 7


def test_oracle_entropy_predictor_valid_and_symmetric():
    rng = np.random.default_rng(0)
    half = rng.uniform(-0.45, 0.45, size=(10, 3, 3))
    mirrored = half * np.array([1.0, 1.0, -1.0])
    verts = np.vstack([half.reshape(-1, 3), mirrored.reshape(-1, 3)])
    mesh = TriangleMesh(verts, np.arange(len(verts)).reshape(-1, 3))
    emap = oracle_entropy_predictor(mesh)
    assert emap.values.shape == (5, 12)
    for k in range(5):
        assert np.abs(emap.values[k] - emap.values[4 - k]).max() < 1e-9


def test_knn_entropy_exact_match_returns_stored_map():
    dataset = [(_grid(i), _map(i)) for i in range(6)]
    predictor = knn_entropy_predictor_train(dataset, k=3)
    out = predictor.predict_map(dataset[2][0])
    assert np.array_equal(out.values, dataset[2][1].values)


def test_knn_entropy_k1_nearest_verbatim():
    dataset = [(_grid(i), _map(i)) for i in range(5)]
    predictor = knn_entropy_predictor_train(dataset, k=1)
    query = _grid(100, n_triangles=18)
    distances = [np.abs(f - KnnEntropyPredictor.featurize(query)).sum() for f, _ in
                 zip(predictor.features, dataset)]
    nearest = int(np.argmin(distances))
    out = predictor.predict_map(query)
    assert np.array_equal(out.values, dataset[nearest][1].values)


def test_knn_entropy_self_consistency_mae_zero():
    dataset = [(_grid(i), _map(i)) for i in range(4)]
    predictor = knn_entropy_predictor_train(dataset, k=2)
    for grid, emap in dataset:
        assert map_mae(predictor.predict_map(grid), emap) == 0.0


def test_knn_entropy_blend_is_deterministic_and_valid():
    dataset = [(_grid(i), _map(i)) for i in range(6)]
    predictor = knn_entropy_predictor_train(dataset, k=4)
    query = _grid(200, n_triangles=25)
    a = predictor.predict_map(query)
    b = predictor.predict_map(query)
    assert np.array_equal(a.values, b.values)
    assert (a.values >= 0).all() and (a.values <= 8.0).all()


def test_knn_entropy_errors():
    with pytest.raises(ValueError, match="empty"):
        knn_entropy_predictor_train([], k=3)
    with pytest.raises(ValueError, match="k must be"):
        knn_entropy_predictor_train([(_grid(0), _map(0))], k=0)


def test_knn_view_errors():
    with pytest.raises(ValueError, match="empty"):
        knn_view_predictor_train([], k=3)
    with pytest.raises(ValueError, match="k must be"):
        knn_view_predictor_train([(_image(0), "a", 0)], k=0)
    with pytest.raises(ValueError, match="viewpoints"):
        knn_view_predictor_train([(_image(0), "a", 60)], k=1)


def test_knn_view_exact_match_full_mass():
    dataset = [(_image(i), "cat" if i % 2 else "box", i % 60) for i in range(8)]
    predictor = knn_view_predictor_train(dataset, k=3)
    pred = predictor.predict(dataset[5][0])
    assert pred.class_scores["cat"] == 1.0
    assert pred.viewpoint_scores[5] == 1.0


def _loop_scores(predictor, image):
    """Class and viewpoint scores summed neighbour by neighbour, as the predictor once did."""
    order, weights = _nearest(predictor, predictor.featurize(image))
    class_scores = dict.fromkeys(predictor.categories, 0.0)
    viewpoint_scores = np.zeros(60)
    total = weights.sum()
    for idx, w in zip(order, weights):
        class_scores[predictor.categories[predictor.category_ids[idx]]] += w / total
        viewpoint_scores[predictor.viewpoints[idx]] += w / total
    return class_scores, viewpoint_scores


@pytest.mark.parametrize("exact", [False, True])
def test_knn_view_scores_equal_a_per_neighbour_loop(exact):
    # rows of constant block sums: the query of zeros is 784 * s / 64 block means from a row of s
    sums = [37, 91, 5, 240, 13, 77, 1000, 3]
    features = np.array([np.full(784, s) for s in sums], dtype=np.int16)
    if exact:
        features[6] = 0
    category_ids = np.array([1, 1, 0, 1, 2, 1, 0, 1])  # the neighbours repeat category "b"
    viewpoints = np.array([7, 7, 3, 7, 59, 0, 7, 7])  # and viewpoint 7
    predictor = KnnViewPredictor(features, category_ids, viewpoints, ["a", "b", "c"], k=5)
    image = DepthImage(np.zeros((224, 224), np.uint8))
    pred = predictor.predict(image)
    class_scores, viewpoint_scores = _loop_scores(predictor, image)
    assert list(pred.class_scores) == ["a", "b", "c"]
    assert [float(pred.class_scores[c]) for c in "abc"] == [float(class_scores[c]) for c in "abc"]
    assert pred.viewpoint_scores.tolist() == viewpoint_scores.tolist()
    if exact:
        assert pred.class_scores == {"a": 1.0, "b": 0.0, "c": 0.0} and pred.viewpoint_scores[7] == 1.0
    else:
        assert 0 < pred.class_scores["a"] < pred.class_scores["b"] < 1 and pred.viewpoint_scores[7] < 1


def test_knn_view_single_category_dataset():
    dataset = [(_image(i), "only", i) for i in range(5)]
    predictor = knn_view_predictor_train(dataset, k=3)
    pred = predictor.predict(_image(99))
    assert pred.class_scores == {"only": 1.0}


def test_knn_view_scores_sum_to_one():
    dataset = [(_image(i), f"c{i % 3}", i) for i in range(9)]
    predictor = knn_view_predictor_train(dataset, k=4)
    pred = predictor.predict(_image(50))
    assert abs(sum(pred.class_scores.values()) - 1.0) < 1e-9
    assert abs(pred.viewpoint_scores.sum() - 1.0) < 1e-9


def test_map_metrics():
    a = _map(1)
    assert map_mae(a, a) == 0.0
    shifted = EntropyMap(np.clip(a.values + 0.5, 0.0, 8.0))
    if (a.values <= 7.5).all():
        assert abs(map_mae(a, shifted) - 0.5) < 1e-12
    b = _map(2)
    assert abs(map_mae(a, b) - np.mean(np.abs(a.values - b.values))) < 1e-12


def test_exchange_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    predictions = {}
    for i in range(4):
        viewpoint = rng.random(60)
        viewpoint /= viewpoint.sum()
        class_scores = {"chair": 0.25, "table": 0.75}
        predictions[f"obj_{i}", i * 3] = ViewPrediction(class_scores, viewpoint)
    path = tmp_path / "preds.jsonl"
    write_predictions(predictions, path)
    again = read_predictions(path)
    assert list(again) == list(predictions)
    for key, before in predictions.items():
        assert before.class_scores == again[key].class_scores
        assert np.array_equal(before.viewpoint_scores, again[key].viewpoint_scores)


def test_exchange_rejects_wrong_vector_length(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"object_id": "o", "view_index": 0, "class_scores": {"a": 1.0}, '
        f'"viewpoint_scores": {[1.0 / 59] * 59}}}\n'
    )
    with pytest.raises(ValueError, match=r"bad\.jsonl:1.*59"):
        read_predictions(path)


def test_exchange_rejects_negative_and_bad_sums(tmp_path):
    path = tmp_path / "bad.jsonl"
    good_vec = [1.0 / 60] * 60
    path.write_text(
        '{"object_id": "o", "view_index": 0, "class_scores": {"a": 1.5, "b": -0.5}, '
        f'"viewpoint_scores": {good_vec}}}\n'
    )
    with pytest.raises(ValueError, match="negative class score"):
        read_predictions(path)
    path.write_text(
        '{"object_id": "o", "view_index": 0, "class_scores": {"a": 0.9}, '
        f'"viewpoint_scores": {good_vec}}}\n'
    )
    with pytest.raises(ValueError, match="class scores sum"):
        read_predictions(path)


def test_exchange_rejects_schema_violations(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="invalid JSON"):
        read_predictions(path)
    good_vec = [1.0 / 60] * 60
    path.write_text(f'{{"object_id": "o", "viewpoint_scores": {good_vec}}}\n')
    with pytest.raises(ValueError, match="schema keys"):
        read_predictions(path)
    path.write_text(
        '{"object_id": "o", "view_index": 60, "class_scores": {"a": 1.0}, '
        f'"viewpoint_scores": {good_vec}}}\n'
    )
    with pytest.raises(ValueError, match="view_index"):
        read_predictions(path)
    huge = "1" + "0" * 400  # a JSON integer that no float holds
    for class_scores, viewpoint_scores in [(huge, good_vec), ("1.0", [huge] + [0] * 59)]:
        path.write_text(
            f'{{"object_id": "o", "view_index": 0, "class_scores": {{"a": {class_scores}}}, '
            f'"viewpoint_scores": [{", ".join(map(str, viewpoint_scores))}]}}\n'
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: score too large"):
            read_predictions(path)


def test_exchange_rejects_repeated_records(tmp_path):
    prediction = ViewPrediction({"a": 1.0}, np.full(60, 1.0 / 60))
    path = tmp_path / "twice.jsonl"
    write_predictions(dict.fromkeys([("o", 0), ("o", 1), ("p", 0)], prediction), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")  # ("o", 1) again on line 4
    with pytest.raises(ValueError, match=r"twice\.jsonl:4: repeated record for \('o', 1\)"):
        read_predictions(path)


def test_exchange_normalizes_sloppy_sums(tmp_path):
    path = tmp_path / "sloppy.jsonl"
    vec = [1.0 / 60] * 60
    vec[0] += 5e-7  # inside exchange tolerance, outside strict tolerance
    path.write_text(
        '{"object_id": "o", "view_index": 3, "class_scores": {"a": 1.0000004}, '
        f'"viewpoint_scores": {vec}}}\n'
    )
    prediction = read_predictions(path)["o", 3]
    assert abs(prediction.viewpoint_scores.sum() - 1.0) <= 1e-9
    assert abs(sum(prediction.class_scores.values()) - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "class_scores, viewpoint_scores",
    [({"a": float("nan")}, [1 / 60] * 60), ({"a": 1.0}, [float("nan")] + [1 / 59] * 59)],
)
def test_nan_scores_are_rejected(tmp_path, class_scores, viewpoint_scores):
    with pytest.raises(ValueError, match="sum to nan"):
        ViewPrediction(class_scores, np.array(viewpoint_scores))
    path = tmp_path / "nan.jsonl"
    record = dict(object_id="o", view_index=0, class_scores=class_scores, viewpoint_scores=viewpoint_scores)
    path.write_text(json.dumps(record) + "\n")  # json writes a NaN score as the token NaN
    with pytest.raises(ValueError, match=r"nan\.jsonl:1: .*sum to nan"):
        read_predictions(path)


def test_exchange_rejects_boolean_view_index(tmp_path):
    path = tmp_path / "bool.jsonl"
    record = dict(object_id="o", view_index=True, class_scores={"a": 1.0}, viewpoint_scores=[1 / 60] * 60)
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"bool\.jsonl:1: view_index must be an integer"):
        read_predictions(path)


def test_predictor_save_load_round_trip(tmp_path):
    entropy_dataset = [(_grid(i), _map(i)) for i in range(4)]
    ep = knn_entropy_predictor_train(entropy_dataset, k=2)
    ep.save(tmp_path / "e.npz")
    ep2 = load_predictor(tmp_path / "e.npz")
    query = _grid(77, 20)
    assert np.array_equal(ep.predict_map(query).values, ep2.predict_map(query).values)

    view_dataset = [(_image(i), f"c{i % 2}", i) for i in range(6)]
    vp = knn_view_predictor_train(view_dataset, k=2)
    vp.save(tmp_path / "v.npz")
    vp2 = load_predictor(tmp_path / "v.npz")
    img = _image(88)
    assert vp.predict(img).class_scores == vp2.predict(img).class_scores
    assert np.array_equal(vp.predict(img).viewpoint_scores, vp2.predict(img).viewpoint_scores)

    # the pooled tables are rebuilt on load, not stored
    assert np.array_equal(ep2.pooled, ep.pooled) and np.array_equal(vp2.pooled, vp.pooled)
    with np.load(tmp_path / "e.npz") as blob:
        assert set(blob.files) == {"kind", "features", "maps", "k"}
    with np.load(tmp_path / "v.npz") as blob:
        assert set(blob.files) == {"kind", "features", "category_ids", "viewpoints", "categories", "k"}


# --- integer features ----------------------------------------------------


def _block_table(rng, n_rows, width, max_value, dtype):
    """Random block sums with an all-0 and an all-max row, so the maximum distance occurs."""
    table = rng.integers(0, max_value + 1, size=(n_rows, width)).astype(dtype)
    table[0] = 0
    table[1] = max_value
    return table


@pytest.mark.parametrize("cls, width", [(KnnViewPredictor, 784), (KnnEntropyPredictor, 2744)])
def test_integer_distances_bit_equal_float_formula(cls, width):
    rng = np.random.default_rng(5)
    assert cls.WIDTH == width
    table = _block_table(rng, 40, width, cls.MAX_FEATURE, cls.FEATURE_DTYPE)
    other = rng.integers(0, cls.MAX_FEATURE + 1, size=width).astype(cls.FEATURE_DTYPE)
    for query in (table[0], table[1], table[7], other):
        got = _l1_distances(table, query, cls.BLOCK)
        want = reference_knn_distances(table / float(cls.BLOCK), query / float(cls.BLOCK))
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    farthest = _l1_distances(table, table[0], cls.BLOCK)[1]
    assert farthest == width * cls.MAX_FEATURE / cls.BLOCK  # all-0 against all-max blocks


def _construct(cls, features, k=1):
    """A ``cls`` predictor over ``features``, with valid labels or maps."""
    n = len(features)
    if cls is KnnViewPredictor:
        return cls(features, np.zeros(n, np.int64), np.zeros(n, np.int64), ["a"], k)
    return cls(features, np.zeros((n, 5, 12)), k)


def test_row_sums_fit_int32_and_tables_have_fixed_width():
    # _l1_distances sums rows in int32; the constructors admit no table wider than WIDTH
    for cls in (KnnViewPredictor, KnnEntropyPredictor):
        assert cls.WIDTH * cls.MAX_FEATURE < 2**31
        wide = np.zeros((2, cls.WIDTH + 1), dtype=cls.FEATURE_DTYPE)
        _construct(cls, wide[:, :-1])
        with pytest.raises(ValueError, match=rf"\(n, {cls.WIDTH}\)"):
            _construct(cls, wide)


@pytest.mark.parametrize("cls", [KnnViewPredictor, KnnEntropyPredictor])
@pytest.mark.parametrize("at", ["low", "high"])
def test_constructors_reject_out_of_range_tables(cls, at):
    # a wrapped table - query would give a wrong L1 distance, so no table may leave 0..MAX_FEATURE
    table = np.zeros((2, cls.WIDTH), dtype=cls.FEATURE_DTYPE)
    table[1, 5] = cls.MAX_FEATURE
    _construct(cls, table)
    table[1, 7] = -1 if at == "low" else cls.MAX_FEATURE + 1
    with pytest.raises(ValueError, match=rf"block sums in 0\.\.{cls.MAX_FEATURE}"):
        _construct(cls, table)


@st.composite
def _knn_cases(draw, cls):
    """A (table, query, k) case for a ``cls`` predictor, built to trip a pruned search.

    Rows are one random base row with a few of its first 32 values moved by
    small steps, so distances tie often and opposite steps in one pooled
    block cancel in its bound. Some rows copy others or are replaced by far
    random rows; k may reach past the table; the query is a row, the base,
    all zeros or random.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n + 2))
    top = cls.MAX_FEATURE
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, top + 1, cls.WIDTH)
    table = np.repeat(base[None], n, axis=0)
    move = st.tuples(st.integers(0, 31), st.sampled_from([-2, -1, 1, 2, top]))
    for row in table:
        for cell, step in draw(st.lists(move, max_size=4)):
            row[cell] = min(max(row[cell] + step, 0), top)
    rows = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(rows, rows), max_size=3)):
        table[i] = table[j]
    for i in draw(st.lists(rows, max_size=2)):
        table[i] = rng.integers(0, top + 1, cls.WIDTH)
    query = {
        "row": table[draw(rows)],
        "base": base,
        "zeros": np.zeros(cls.WIDTH, np.int64),
        "random": rng.integers(0, top + 1, cls.WIDTH),
    }[draw(st.sampled_from(["row", "base", "zeros", "random"]))]
    return table.astype(cls.FEATURE_DTYPE), query.astype(cls.FEATURE_DTYPE), k


@pytest.mark.parametrize("cls", [KnnViewPredictor, KnnEntropyPredictor])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nearest_matches_full_scan_oracle(cls, data):
    # the tables here are small enough for _nearest's full scan, so the bound stage is tested alone
    table, query, k = data.draw(_knn_cases(cls))
    _assert_full_scan_neighbors(_pruned_nearest(_construct(cls, table, k), query), table, query, k, cls)


def _assert_full_scan_neighbors(got, table, query, k, cls):
    order, weights = got
    want_order, want_weights = _reference_neighbors(
        reference_knn_distances(table / float(cls.BLOCK), query / float(cls.BLOCK)), k
    )
    assert order.tolist() == want_order
    assert np.array_equal(weights, np.ones(1) if want_weights is None else want_weights)


@pytest.mark.parametrize("cls", [KnnViewPredictor, KnnEntropyPredictor])
@pytest.mark.parametrize("above", [False, True])
def test_nearest_scans_small_tables_in_full(cls, above, monkeypatch):
    # the largest table at or below the cutoff, or the smallest above it
    n = _FULL_SCAN_VALUES // cls.WIDTH + above
    assert (n * cls.WIDTH > _FULL_SCAN_VALUES) == above
    rng = np.random.default_rng(11)
    top = cls.MAX_FEATURE
    table = np.repeat(rng.integers(0, top + 1, cls.WIDTH)[None], n, axis=0)
    table[:, :32] = np.clip(table[:, :32] + rng.integers(-2, 3, (n, 32)), 0, top)
    table[n // 2] = table[3]
    table = table.astype(cls.FEATURE_DTYPE)
    pruned_calls = []

    def counting(predictor, query):
        pruned_calls.append(len(predictor.features))
        return _pruned_nearest(predictor, query)

    monkeypatch.setattr(predict, "_pruned_nearest", counting)
    queries = [table[5], table[3], np.clip(table[7].astype(np.int64) + 1, 0, top).astype(cls.FEATURE_DTYPE)]
    for k in (1, 5):
        predictor = _construct(cls, table, k)
        for query in queries:
            _assert_full_scan_neighbors(_nearest(predictor, query), table, query, k, cls)
    assert pruned_calls == ([n] * 6 if above else [])


def test_pooled_tables_are_int32_block_sums():
    rng = np.random.default_rng(3)
    for cls, blocks in ((KnnViewPredictor, 7**2), (KnnEntropyPredictor, 7**3)):
        table = _block_table(rng, 4, cls.WIDTH, cls.MAX_FEATURE, cls.FEATURE_DTYPE)
        pooled = _construct(cls, table).pooled
        assert pooled.dtype == np.int32 and pooled.shape == (4, blocks)
        f = cls.BOUND_POOL
        for row, got in zip(table, pooled):
            feature = row.reshape(cls.FEATURE_SHAPE)
            want = [feature[tuple(slice(f * i, f * i + f) for i in at)].sum() for at in np.ndindex(*(n // f for n in cls.FEATURE_SHAPE))]
            assert got.tolist() == want


def test_featurize_sums_blocks_exactly():
    images = [_image(i) for i in range(3)]
    images += [DepthImage(np.zeros((224, 224), np.uint8)), DepthImage(np.full((224, 224), 255, np.uint8))]
    for image in images:
        features = KnnViewPredictor.featurize(image)
        assert features.dtype == np.int16
        assert np.array_equal(features / 64.0, reference_view_features(image))
    # the size is checked before pooling, so a shape that the pool factor does not divide names both sizes
    for height, width in ((224, 220), (100, 100)):
        with pytest.raises(ValueError, match=f"view image is {height} x {width} pixels, not 224 x 224"):
            KnnViewPredictor.featurize(DepthImage(np.zeros((height, width), np.uint8)))
    full = np.zeros((56, 56, 56), dtype=bool)
    full[3:53, 3:53, 3:53] = True
    for grid in (_grid(0), _grid(1, 40), VoxelGrid(full)):
        features = KnnEntropyPredictor.featurize(grid)
        assert features.dtype == np.int8
        assert np.array_equal(features / 64.0, reference_voxel_features(grid))
    assert KnnEntropyPredictor.featurize(VoxelGrid(full)).max() == 64


def test_view_featurize_rejects_a_poolable_image_of_the_wrong_size():
    # 64 x 64 pools by 8 into 8 x 8 blocks; only the size check stops it
    with pytest.raises(ValueError, match="view image is 64 x 64 pixels, not 224 x 224"):
        KnnViewPredictor.featurize(DepthImage(np.zeros((64, 64), np.uint8)))
    with pytest.raises(ValueError, match="view image is 232 x 224 pixels, not 224 x 224"):
        knn_view_predictor_train([(_image(0), "a", 0), (DepthImage(np.zeros((232, 224), np.uint8)), "a", 1)])


def test_feature_tables_are_integer_and_smaller():
    ep = knn_entropy_predictor_train([(_grid(i), _map(i)) for i in range(3)], k=2)
    vp = knn_view_predictor_train([(_image(i), "a", i) for i in range(3)], k=2)
    assert ep.features.dtype == np.int8 and ep.features.shape == (3, 14**3)
    assert vp.features.dtype == np.int16 and vp.features.shape == (3, 28**2)
    assert ep.features.nbytes * 8 == np.zeros((3, 14**3)).nbytes
    assert vp.features.nbytes * 4 == np.zeros((3, 28**2)).nbytes
    with pytest.raises(ValueError, match="int16"):
        KnnViewPredictor(vp.features / 64.0, vp.category_ids, vp.viewpoints, vp.categories, 2)
    with pytest.raises(ValueError, match="int8"):
        KnnEntropyPredictor(ep.features.astype(np.int16), ep.maps, 2)


@pytest.fixture(scope="module")
def desk_seed0(tmp_path_factory):
    """The seed-0 desk set: 6 primitives per category, a quarter held out for test."""
    root = tmp_path_factory.mktemp("desk_models")
    synthetic.generate_model_root(root, per_category=6, test_fraction=0.25, seed=0)
    out = tmp_path_factory.mktemp("desk_dataset")
    records, skipped = pipeline.build_dataset(root, out, workers=1, seed=0)
    assert skipped == []
    train = [r for r in records if r.split == "train"]
    test = [r for r in records if r.split == "test"]
    return train, test, pipeline.train_predictors(records)


def _legacy_tables(train):
    """Float64 feature tables as the predictors stored them before integer features."""
    voxel = np.array([reference_voxel_features(load_grid(r.voxel_path)) for r in train])
    view = np.array([reference_view_features(read_pgm(p)) for r in train for p in r.view_paths])
    return voxel, view


def _save_legacy(path_entropy, path_view, train, ep, vp):
    voxel, view = _legacy_tables(train)
    np.savez(path_entropy, kind="entropy_knn", features=voxel, maps=ep.maps, k=ep.k)
    np.savez(
        path_view,
        kind="view_knn",
        features=view,
        category_ids=vp.category_ids,
        viewpoints=vp.viewpoints,
        categories=np.array(vp.categories),
        k=vp.k,
    )


def _same_prediction(a: ViewPrediction, class_scores, viewpoint_scores):
    return a.class_scores == class_scores and np.array_equal(a.viewpoint_scores, viewpoint_scores)


def test_desk_predictions_bit_equal_float_reference(desk_seed0):
    train, test, (ep, vp) = desk_seed0
    voxel, view = _legacy_tables(train)
    assert np.array_equal(ep.features / 64.0, voxel) and np.array_equal(vp.features / 64.0, view)
    for record in test:
        grid = load_grid(record.voxel_path)
        want = reference_entropy_values(voxel, ep.maps, ep.k, grid)
        assert np.array_equal(ep.predict_map(grid).values, want)
        for path in record.view_paths:
            image = read_pgm(path)
            want = reference_view_prediction(
                view, vp.category_ids, vp.viewpoints, vp.categories, vp.k, image
            )
            assert _same_prediction(vp.predict(image), *want)


def test_legacy_float_models_load_exactly(desk_seed0, tmp_path):
    train, test, (ep, vp) = desk_seed0
    _save_legacy(tmp_path / "e.npz", tmp_path / "v.npz", train, ep, vp)
    ep2, vp2 = load_predictor(tmp_path / "e.npz"), load_predictor(tmp_path / "v.npz")
    assert ep2.features.dtype == np.int8 and np.array_equal(ep2.features, ep.features)
    assert vp2.features.dtype == np.int16 and np.array_equal(vp2.features, vp.features)
    assert np.array_equal(ep2.pooled, ep.pooled) and np.array_equal(vp2.pooled, vp.pooled)
    for record in test:
        grid = load_grid(record.voxel_path)
        assert np.array_equal(ep2.predict_map(grid).values, ep.predict_map(grid).values)
        for path in record.view_paths[::6]:
            image = read_pgm(path)
            a, b = vp.predict(image), vp2.predict(image)
            assert _same_prediction(a, b.class_scores, b.viewpoint_scores)


def test_desk_view_queries_read_few_rows(desk_seed0, monkeypatch):
    # a search that fell back to a full scan would pass the exactness tests
    train, test, (ep, vp) = desk_seed0
    rows_read = []
    l1 = predict._l1_distances

    def counting(table, query, block):
        if table.shape[1] == vp.pooled.shape[1]:  # the bounds open a view query
            rows_read.append(0)
        elif table.shape[1] == vp.WIDTH:
            rows_read[-1] += len(table)
        return l1(table, query, block)

    monkeypatch.setattr(predict, "_l1_distances", counting)
    results = pipeline.run_recognition(test, ep, vp)
    assert len(rows_read) == sum(r.views_used for r in results) > 0
    assert max(rows_read) <= 0.05 * len(vp.features)


def _save_view_model(path, features, n=None, **overrides):
    n = len(features) if n is None else n
    arrays = dict(
        kind="view_knn",
        features=features,
        category_ids=np.zeros(n, dtype=np.int64),
        viewpoints=np.arange(n, dtype=np.int64) % 60,
        categories=np.array(["a"]),
        k=1,
    )
    arrays.update(overrides)
    np.savez(path, **arrays)


def _save_entropy_model(path, features, maps):
    np.savez(path, kind="entropy_knn", features=features, maps=maps, k=1)


@pytest.mark.parametrize(
    "kind, bad_value",
    [("view", 0.3), ("view", 255.0 + 1 / 64), ("view", -1 / 64), ("view", np.nan), ("voxel", 0.3),
     ("voxel", 65 / 64), ("voxel", np.inf)],
)
def test_legacy_models_off_the_1_64_grid_are_rejected(tmp_path, capsys, kind, bad_value):
    features = np.zeros((2, 784 if kind == "view" else 2744))
    features[1, 5] = bad_value
    path = tmp_path / "bad.npz"
    if kind == "view":
        _save_view_model(path, features)
    else:
        _save_entropy_model(path, features, np.zeros((2, 5, 12)))
    with pytest.raises(ValueError, match="bad.npz.*block"):
        load_predictor(path)
    assert main(["predict-map", "--grid", "g.vox", "--model", str(path), "--out", "m.csv"]) == 1
    assert "bad.npz" in capsys.readouterr().err


def test_loader_rejects_disagreeing_shapes(tmp_path):
    views = np.zeros((3, 784), dtype=np.int16)
    cases = {
        "short_ids": lambda p: _save_view_model(p, views, category_ids=np.zeros(2, dtype=np.int64)),
        "long_viewpoints": lambda p: _save_view_model(p, views, viewpoints=np.zeros(4, dtype=np.int64)),
        "flat_features": lambda p: _save_view_model(p, np.zeros(784, dtype=np.int16), n=1),
        "cube_features": lambda p: _save_view_model(p, np.zeros((3, 28, 28), dtype=np.int16)),
        "map_rows": lambda p: _save_entropy_model(p, np.zeros((3, 2744), np.int8), np.zeros((2, 5, 12))),
        "map_cells": lambda p: _save_entropy_model(p, np.zeros((3, 2744), np.int8), np.zeros((3, 5, 11))),
        "flat_maps": lambda p: _save_entropy_model(p, np.zeros((3, 2744), np.int8), np.zeros(180)),
        "flat_voxels": lambda p: _save_entropy_model(p, np.zeros(2744, np.int8), np.zeros((1, 5, 12))),
    }
    for name, save in cases.items():
        path = tmp_path / f"{name}.npz"
        save(path)
        with pytest.raises(ValueError, match=f"{name}.npz"):
            load_predictor(path)
    _save_view_model(tmp_path / "good.npz", views)
    assert load_predictor(tmp_path / "good.npz").features.shape == (3, 784)


def _table_with(width, dtype, value):
    table = np.zeros((2, width), dtype)
    table[1, 5] = value
    return table


def _maps_with(value):
    maps = np.zeros((2, 5, 12))
    maps[1, 2, 3] = value
    return maps


@pytest.mark.parametrize(
    "case, overrides, message",
    [
        ("k0", dict(k=0), "k must be"),
        ("category5", dict(category_ids=np.array([0, 5])), "category_ids"),
        ("view60", dict(viewpoints=np.array([0, 60])), "viewpoints"),
        ("view_negative", dict(viewpoints=np.array([-1, 0])), "viewpoints"),
        ("float_views", dict(viewpoints=np.array([0.0, 1.0])), "viewpoints"),
        ("width700", dict(features=np.zeros((2, 700), np.int16)), r"\(n, 784\)"),
        ("map_nan", dict(maps=_maps_with(np.nan)), "non-finite"),
        ("map_9", dict(maps=_maps_with(9.0)), "entropy values must lie in"),
        ("map_negative", dict(maps=_maps_with(-1.0)), "entropy values must lie in"),
        ("view_int_negative", dict(features=_table_with(784, np.int16, -1)), r"0\.\.16320"),
        ("view_int_high", dict(features=_table_with(784, np.int16, 16321)), r"0\.\.16320"),
        ("voxel_int_negative", dict(voxels=_table_with(2744, np.int8, -1)), r"0\.\.64"),
        ("voxel_int_high", dict(voxels=_table_with(2744, np.int8, 65)), r"0\.\.64"),
        ("voxel_int64_wraps", dict(voxels=_table_with(2744, np.int64, 300)), "block sums"),
    ],
)
def test_loader_rejects_bad_values(tmp_path, capsys, case, overrides, message):
    path = tmp_path / f"{case}.npz"
    if {"maps", "voxels"} & set(overrides):  # entropy models: `recognize --entropy-model` fails at load
        voxels = overrides.get("voxels", np.zeros((2, 2744), np.int8))
        _save_entropy_model(path, voxels, overrides.get("maps", np.zeros((2, 5, 12))))
        model = ["--entropy-model", str(path), "--predictions", str(tmp_path / "p.jsonl")]
    else:
        _save_view_model(path, overrides.pop("features", np.zeros((2, 784), np.int16)), **overrides)
        model = ["--view-model", str(path)]
    with pytest.raises(ValueError, match=f"{case}.npz: .*{message}"):
        load_predictor(path)
    manifest = tmp_path / "manifest.csv"
    row = dict(object_id="o", category="a", split="test", voxel_path="o.vox", entropies=np.zeros(60))
    pipeline.write_manifest([{**row, "view_paths": [f"v{i:02d}.pgm" for i in range(60)]}], manifest)
    assert main(["recognize", "--manifest", str(manifest), *model, "--out", str(tmp_path / "out")]) == 1
    assert f"{case}.npz" in capsys.readouterr().err
