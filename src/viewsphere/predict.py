"""The two models of best-view recognition as k-NN tables, the map metric, and exchange files.

The entropy model maps a voxel grid to an entropy map; the view model maps a
depth view to class and viewpoint scores. External view models plug in
through the JSON-lines exchange files, not through a class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .entropy import EntropyMap, entropy_map_from_views
from .mesh import TriangleMesh
from .render import IMAGE_SIZE, DepthImage, render_all_views
from .viewrig import N_AZIMUTHS, N_RINGS, N_VIEWS, build_rig
from .voxel import DIMS, VoxelGrid, block_sums

SCORE_SUM_TOL = 1e-9
EXCHANGE_SUM_TOL = 1e-6
KNN_EPSILON = 1e-9

VOXEL_POOL_FACTOR = 4
IMAGE_POOL_FACTOR = 8


@dataclass(frozen=True)
class ViewPrediction:
    """Per-view scores: a distribution over categories and one over the 60 viewpoints."""

    class_scores: dict[str, float]
    viewpoint_scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.viewpoint_scores, dtype=np.float64, copy=True)
        if scores.shape != (N_VIEWS,):
            raise ValueError(f"viewpoint_scores must have {N_VIEWS} entries, got {scores.shape}")
        if (scores < 0).any():
            raise ValueError("negative viewpoint score: scores must be nonnegative")
        if min(self.class_scores.values(), default=0.0) < 0:
            raise ValueError("negative class score: scores must be nonnegative")
        # "not <=" so that a NaN sum fails too
        total = float(scores.sum())
        if not abs(total - 1.0) <= SCORE_SUM_TOL:
            raise ValueError(f"viewpoint scores sum to {total!r}, expected 1")
        class_total = float(sum(self.class_scores.values()))
        if not abs(class_total - 1.0) <= SCORE_SUM_TOL:
            raise ValueError(f"class scores sum to {class_total!r}, expected 1")
        scores.setflags(write=False)
        object.__setattr__(self, "viewpoint_scores", scores)
        object.__setattr__(self, "class_scores", dict(self.class_scores))

    def top_class(self) -> str:
        """Highest-scoring category; ties go to the lexicographically smallest name."""
        return max(sorted(self.class_scores), key=self.class_scores.__getitem__)

    def top_viewpoint(self) -> int:
        """Highest-scoring view index; ties go to the smallest index."""
        return int(np.argmax(self.viewpoint_scores))


def oracle_entropy_predictor(mesh: TriangleMesh) -> EntropyMap:
    """Ground-truth entropy map: render all 60 views and measure their entropy.

    This is the expensive path that learned predictors approximate; use it to
    score a :class:`KnnEntropyPredictor`.
    """
    return entropy_map_from_views(render_all_views(mesh, build_rig()))


def _check_labels(name: str, labels: np.ndarray, n_rows: int, bound: int) -> None:
    """``labels`` must hold one integer in 0..bound-1 per table row."""
    if labels.shape != (n_rows,):
        raise ValueError(f"{name} has shape {labels.shape}, features have {n_rows} rows")
    if labels.dtype.kind not in "iu" or not ((labels >= 0) & (labels < bound)).all():
        raise ValueError(f"{name} must be integers in 0..{bound - 1}")


def _l1_distances(table: np.ndarray, query: np.ndarray, block: int) -> np.ndarray:
    """L1 distances from ``query`` to each row of an integer block-sum table, in block means.

    The features are signed and the constructors keep them in
    0..``MAX_FEATURE``, so ``table - query`` cannot wrap, and each row sum
    fits int32: it is at most ``WIDTH * MAX_FEATURE``, 784 * 16,320 for
    views and 2,744 * 64 for grids, both below 2**31. The int32 pooled
    tables of :func:`_pruned_nearest` hold the same totals in fewer, larger
    values, so their row sums are no larger. An integer sum over
    ``block`` equals the float64 distance between the block means bit for
    bit: every term and partial sum of that distance is a multiple of
    1/block far below 2**53.
    """
    d = np.subtract(table, query)
    np.abs(d, out=d)
    return d.sum(axis=1, dtype=np.int32) / float(block)


def _knn_weights(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and 1/(d+eps) weights of the k nearest; the first exact match alone has weight 1."""
    exact = np.flatnonzero(distances == 0.0)
    if exact.size:
        return exact[:1], np.ones(1)
    order = np.argsort(distances, kind="stable")[:k]
    return order, 1.0 / (distances[order] + KNN_EPSILON)


#: :func:`_nearest` scans a table of at most this many feature values in full;
#: below it the bound stage (the query's pooled sums, the bounds, and a second
#: distance call for the k rows of the ``kth`` step) costs more than it saves.
#: Measured on a 2-vCPU Xeon, medians per query: the first rows of the seed-0
#: ``desk`` view table broke even at 167 rows (130,928 values; 150 rows: 57 us
#: full against 66 us pruned, 200 rows: 69 against 62 us), the first rows of
#: the grid table of ``generate_model_root(per_category=100)`` at about 100
#: rows (274,400 values). The 60-row ``dense`` view table (28 against 51 us) and
#: the 20-row ``desk`` entropy table (27 against 64 us) fall below it, the
#: 1,200-row ``desk`` view table (555 against 124 us) above. Outputs do not
#: depend on it.
_FULL_SCAN_VALUES = 2**17


def _nearest(predictor, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and weights that :func:`_knn_weights` picks from a full scan of ``predictor.features``.

    Tables of more than ``_FULL_SCAN_VALUES`` values go through the exact
    pruned search of :func:`_pruned_nearest`, which reads few rows.
    """
    table = predictor.features
    if table.size <= _FULL_SCAN_VALUES:
        return _knn_weights(_l1_distances(table, query, predictor.BLOCK), predictor.k)
    return _pruned_nearest(predictor, query)


def _pruned_nearest(predictor, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`_nearest` returns, from the rows that the pooled bounds cannot rule out.

    By the triangle inequality, |sum(a) - sum(b)| <= sum(|a - b|) over any
    block, so the L1 distance between pooled rows is a lower bound on the
    distance between the rows (the successive elimination bound of Li &
    Salari, IEEE TIP 4(1), 1995). The k rows with the smallest bounds (all
    rows if k exceeds the table) give an upper bound ``kth`` on the k-th
    smallest distance, and only rows whose bound is at most ``kth`` can be
    picked. Every exact match (bound 0) and every row within ``kth``
    survive, in index order, so the stable sort and the first-exact-match
    rule of :func:`_knn_weights` pick the same rows with the same weights.
    Bounds and distances are both in block means: dividing integers by the
    same block size cannot reverse their order.
    """
    table, block, k = predictor.features, predictor.BLOCK, predictor.k
    pooled_query = block_sums(query.reshape(predictor.FEATURE_SHAPE), predictor.BOUND_POOL, np.int32).ravel()
    bounds = _l1_distances(predictor.pooled, pooled_query, block)
    first = min(k, len(table))
    kth = _l1_distances(table[np.argpartition(bounds, first - 1)[:first]], query, block).max()
    rows = np.flatnonzero(bounds <= kth)
    order, weights = _knn_weights(_l1_distances(table[rows], query, block), k)
    return rows[order], weights


class _KnnTable:
    """A k-NN table of integer block sums and its ``k``, as both predictors hold them.

    A subclass sets ``BLOCK`` (pixels or voxels per block), ``FEATURE_DTYPE``,
    ``MAX_FEATURE``, ``FEATURE_SHAPE`` (the block grid of one row), ``WIDTH``
    and ``BOUND_POOL``. ``pooled`` sums each row over ``BOUND_POOL``-wide
    blocks for the search bounds of :func:`_pruned_nearest`; it is built here, so
    model files never hold it.
    """

    def __init__(self, features: np.ndarray, k: int):
        """Raises ValueError for ``k < 1`` or a table other than a non-empty
        (n, ``WIDTH``) table of ``FEATURE_DTYPE`` block sums in 0..``MAX_FEATURE``."""
        name = type(self).__name__
        if features.shape[1:] != (self.WIDTH,) or not len(features) or features.dtype != self.FEATURE_DTYPE:
            raise ValueError(
                f"{name} features must be a non-empty (n, {self.WIDTH}) "
                f"{np.dtype(self.FEATURE_DTYPE)} table, got {features.dtype} of shape {features.shape}"
            )
        lo, hi = features.min(), features.max()
        if lo < 0 or hi > self.MAX_FEATURE:
            raise ValueError(f"{name} features must be block sums in 0..{self.MAX_FEATURE}, got {lo}..{hi}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.features = features
        # BOUND_POOL divides FEATURE_SHAPE[0], so no block spans two rows
        self.pooled = block_sums(
            features.reshape((-1,) + self.FEATURE_SHAPE[1:]), self.BOUND_POOL, np.int32
        ).reshape(len(features), -1)
        self.k = k


class KnnEntropyPredictor(_KnnTable):
    """Distance-weighted k-NN regression from pooled voxel occupancy to entropy maps.

    ``features`` holds one row of int8 occupied-voxel counts per 4^3 block for
    each training grid; distances are L1 over the occupancy fractions.
    ``pooled`` sums each row's 14^3 counts over 2^3 blocks.
    """

    BLOCK = VOXEL_POOL_FACTOR**3
    FEATURE_DTYPE = np.int8
    MAX_FEATURE = BLOCK
    FEATURE_SHAPE = (DIMS // VOXEL_POOL_FACTOR,) * 3
    WIDTH = math.prod(FEATURE_SHAPE)
    BOUND_POOL = 2

    def __init__(self, features: np.ndarray, maps: np.ndarray, k: int):
        """Raises ValueError for a bad table or ``k``, or maps other than (n, 5, 12) valid entropy maps."""
        super().__init__(features, k)
        if maps.shape != (len(features), N_RINGS, N_AZIMUTHS):
            raise ValueError(f"maps must be ({len(features)}, {N_RINGS}, {N_AZIMUTHS}), got {maps.shape}")
        for values in maps:
            EntropyMap(values)  # checks the range
        self.maps = maps

    @staticmethod
    def featurize(grid: VoxelGrid) -> np.ndarray:
        return block_sums(grid.occupancy, VOXEL_POOL_FACTOR, KnnEntropyPredictor.FEATURE_DTYPE).ravel()

    def predict_map(self, grid: VoxelGrid) -> EntropyMap:
        order, weights = _nearest(self, self.featurize(grid))
        if len(order) == 1:
            return EntropyMap(self.maps[order[0]])  # verbatim, no w/w rounding
        blended = (weights[:, None, None] * self.maps[order]).sum(axis=0) / weights.sum()
        return EntropyMap(blended)

    def save(self, path: str | Path) -> None:
        np.savez(path, kind="entropy_knn", features=self.features, maps=self.maps, k=self.k)


def knn_entropy_predictor_train(
    dataset: Iterable[tuple[VoxelGrid, EntropyMap]], k: int = 5
) -> KnnEntropyPredictor:
    """Train the k-NN entropy-map predictor on (grid, map) pairs.

    Raises:
        ValueError: empty dataset, or a check of :class:`KnnEntropyPredictor` fails.
    """
    features = []
    maps = []
    for grid, emap in dataset:
        features.append(KnnEntropyPredictor.featurize(grid))
        maps.append(emap.values)
    if not features:
        raise ValueError("cannot train on an empty dataset")
    return KnnEntropyPredictor(np.array(features), np.array(maps), k)


class KnnViewPredictor(_KnnTable):
    """Distance-weighted k-NN over average-pooled depth images.

    ``features`` holds one row of int16 pixel sums per 8x8 block for each
    training view; distances are L1 over the block means. Scores are neighbor
    votes on both heads, normalized to sum to one; an exact feature match
    takes the whole mass. ``pooled`` sums each row's 28x28 block sums over
    4x4 blocks.
    """

    BLOCK = IMAGE_POOL_FACTOR**2
    FEATURE_DTYPE = np.int16
    MAX_FEATURE = BLOCK * 255
    FEATURE_SHAPE = (IMAGE_SIZE // IMAGE_POOL_FACTOR,) * 2
    WIDTH = math.prod(FEATURE_SHAPE)
    BOUND_POOL = 4

    def __init__(
        self,
        features: np.ndarray,
        category_ids: np.ndarray,
        viewpoints: np.ndarray,
        categories: list[str],
        k: int,
    ):
        """Raises ValueError for a bad table or ``k``, or labels that index no category or view."""
        super().__init__(features, k)
        _check_labels("category_ids", category_ids, len(features), len(categories))
        _check_labels("viewpoints", viewpoints, len(features), N_VIEWS)
        self.category_ids = category_ids
        self.viewpoints = viewpoints
        self.categories = list(categories)

    @staticmethod
    def check_image(image: DepthImage) -> None:
        """Raise a ValueError naming both shapes unless ``image`` is a rendered view, IMAGE_SIZE x IMAGE_SIZE."""
        if image.pixels.shape != (IMAGE_SIZE, IMAGE_SIZE):
            height, width = image.pixels.shape
            raise ValueError(f"view image is {height} x {width} pixels, not {IMAGE_SIZE} x {IMAGE_SIZE}")

    @staticmethod
    def featurize(image: DepthImage) -> np.ndarray:
        KnnViewPredictor.check_image(image)
        return block_sums(image.pixels, IMAGE_POOL_FACTOR, KnnViewPredictor.FEATURE_DTYPE).ravel()

    def predict(self, image: DepthImage) -> ViewPrediction:
        order, weights = _nearest(self, self.featurize(image))
        shares = weights / weights.sum()
        # bincount adds the shares in neighbour order, from 0.0
        class_scores = np.bincount(self.category_ids[order], shares, len(self.categories))
        viewpoint_scores = np.bincount(self.viewpoints[order], shares, N_VIEWS)
        return ViewPrediction(dict(zip(self.categories, class_scores.tolist())), viewpoint_scores)

    def save(self, path: str | Path) -> None:
        np.savez(
            path,
            kind="view_knn",
            features=self.features,
            category_ids=self.category_ids,
            viewpoints=self.viewpoints,
            categories=np.array(self.categories),
            k=self.k,
        )


def knn_view_predictor_train(
    dataset: Iterable[tuple[DepthImage, str, int]], k: int = 5
) -> KnnViewPredictor:
    """Train the k-NN view predictor on (image, category, view index) triples.

    Raises:
        ValueError: empty dataset, or a check of :class:`KnnViewPredictor` fails.
    """
    features = []
    labels = []
    viewpoints = []
    for image, category, view_index in dataset:
        features.append(KnnViewPredictor.featurize(image))
        labels.append(category)
        viewpoints.append(view_index)
    if not features:
        raise ValueError("cannot train on an empty dataset")
    categories = sorted(set(labels))
    lookup = {name: i for i, name in enumerate(categories)}
    return KnnViewPredictor(
        np.array(features),
        np.array([lookup[name] for name in labels], dtype=np.int64),
        np.array(viewpoints, dtype=np.int64),
        categories,
        k,
    )


def _feature_table(features: np.ndarray, cls) -> np.ndarray:
    """Return a stored feature table as ``cls``'s integer block sums.

    Tables saved before the features were integers hold float64 block means;
    they are scaled by the block size, which is exact. The cast to
    ``cls.FEATURE_DTYPE`` must keep every value; the constructor checks the
    range.
    """
    if features.dtype.kind == "f":
        features = features * float(cls.BLOCK)
    elif features.dtype.kind not in "iu":
        raise ValueError(f"features have unsupported dtype {features.dtype}")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        table = features.astype(cls.FEATURE_DTYPE)
    if not np.array_equal(table, features):
        raise ValueError(
            f"features are not {np.dtype(cls.FEATURE_DTYPE)} block sums "
            f"(or block means that are multiples of 1/{cls.BLOCK})"
        )
    return table


def load_predictor(path: str | Path) -> KnnEntropyPredictor | KnnViewPredictor:
    """Load a predictor saved by the ``save`` methods above.

    Raises:
        ValueError: naming the file, if an array is missing, the kind is
            unknown, a feature table does not hold integer block sums (or, in
            older files, block means), or the constructor rejects the arrays.
    """
    with np.load(path, allow_pickle=False) as blob:
        try:
            kind = str(blob["kind"])
            if kind == "entropy_knn":
                features = _feature_table(blob["features"], KnnEntropyPredictor)
                return KnnEntropyPredictor(features, blob["maps"], int(blob["k"]))
            if kind == "view_knn":
                return KnnViewPredictor(
                    _feature_table(blob["features"], KnnViewPredictor),
                    blob["category_ids"],
                    blob["viewpoints"],
                    [str(c) for c in blob["categories"]],
                    int(blob["k"]),
                )
        except KeyError as exc:  # an array the saved predictor must hold is missing
            raise ValueError(f"{path}: {exc.args[0]}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        raise ValueError(f"{path}: unknown predictor kind {kind!r}")


def map_mae(a: EntropyMap, b: EntropyMap) -> float:
    """Mean absolute error over the 60 cells, bits."""
    return float(np.abs(a.values - b.values).mean())


def write_predictions(predictions: Mapping[tuple[str, int], ViewPrediction], path: str | Path) -> None:
    """Write (object_id, view_index) -> prediction as JSON lines; floats round-trip losslessly."""
    with open(path, "w", encoding="utf-8") as fh:
        for (object_id, view_index), prediction in predictions.items():
            record = {
                "object_id": object_id,
                "view_index": view_index,
                "class_scores": dict(sorted(prediction.class_scores.items())),
                "viewpoint_scores": prediction.viewpoint_scores.tolist(),
            }
            fh.write(json.dumps(record) + "\n")


def _is_number(value) -> bool:
    """Whether a decoded JSON value is a number (a bool is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_predictions(path: str | Path) -> dict[tuple[str, int], ViewPrediction]:
    """Read an exchange file written by :func:`write_predictions`.

    Scores that sum to within ``EXCHANGE_SUM_TOL`` of 1 are rescaled to sum
    to 1; :class:`ViewPrediction` checks the values.

    Raises:
        ValueError: any schema or value violation, or a second record for the
            same (object_id, view_index), reported with the line number.
    """
    predictions = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(raw, dict) or set(raw) != {
                "object_id",
                "view_index",
                "class_scores",
                "viewpoint_scores",
            }:
                raise ValueError(f"{where}: record must have exactly the four schema keys")
            key = object_id, view_index = raw["object_id"], raw["view_index"]
            if not isinstance(object_id, str):
                raise ValueError(f"{where}: object_id must be a string")
            if type(view_index) is not int or not 0 <= view_index < N_VIEWS:  # a bool is not an index
                raise ValueError(f"{where}: view_index must be an integer in 0..{N_VIEWS - 1}")
            if key in predictions:
                raise ValueError(f"{where}: repeated record for ({object_id!r}, {view_index})")
            vscores = raw["viewpoint_scores"]
            if not isinstance(vscores, list) or len(vscores) != N_VIEWS:
                got = len(vscores) if isinstance(vscores, list) else type(vscores).__name__
                raise ValueError(f"{where}: viewpoint_scores must be a list of {N_VIEWS} numbers, got {got}")
            if not all(_is_number(s) for s in vscores):
                raise ValueError(f"{where}: viewpoint_scores must be numbers")
            cscores = raw["class_scores"]
            if (
                not isinstance(cscores, dict)
                or not cscores
                or not all(isinstance(name, str) for name in cscores)
                or not all(_is_number(s) for s in cscores.values())
            ):
                raise ValueError(f"{where}: class_scores must be a non-empty name->number mapping")
            try:
                varr = np.array(vscores, dtype=np.float64)
                vsum, csum = float(varr.sum()), float(sum(cscores.values()))
                class_scores = {name: float(s) for name, s in cscores.items()}
            except OverflowError:  # an integer beyond the float range
                raise ValueError(f"{where}: score too large for a float") from None
            # keep bit-exact values when already normalized; rescale sloppy external sums
            if SCORE_SUM_TOL < abs(vsum - 1.0) <= EXCHANGE_SUM_TOL:
                varr = varr / vsum
            if SCORE_SUM_TOL < abs(csum - 1.0) <= EXCHANGE_SUM_TOL:
                class_scores = {name: s / csum for name, s in class_scores.items()}
            try:
                predictions[key] = ViewPrediction(class_scores, varr)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return predictions
