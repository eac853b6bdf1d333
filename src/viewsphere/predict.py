"""Predictor seams standing in for learned models: k-NN baselines, metrics, exchange files."""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .entropy import EntropyMap, entropy_map_from_views
from .mesh import TriangleMesh
from .render import DepthImage, RenderConfig, render_all_views
from .viewrig import N_VIEWS, build_rig
from .voxel import VoxelGrid, pool_voxels

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
        if (scores < 0).any() or not self.class_scores or min(self.class_scores.values()) < 0:
            raise ValueError("scores must be nonnegative")
        if abs(scores.sum() - 1.0) > SCORE_SUM_TOL:
            raise ValueError(f"viewpoint scores sum to {scores.sum()!r}, expected 1")
        class_total = sum(self.class_scores.values())
        if abs(class_total - 1.0) > SCORE_SUM_TOL:
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


class EntropyPredictor(ABC):
    """Predicts a spherical entropy map from a voxel grid; must be deterministic."""

    @abstractmethod
    def predict_map(self, grid: VoxelGrid) -> EntropyMap: ...


class ViewPredictor(ABC):
    """Predicts category and viewpoint scores from one depth view; must be deterministic."""

    @abstractmethod
    def predict(self, image: DepthImage) -> ViewPrediction: ...


def oracle_entropy_predictor(mesh: TriangleMesh, config: RenderConfig | None = None) -> EntropyMap:
    """Ground-truth entropy map: render all 60 views and measure their entropy.

    This is the expensive path that learned predictors approximate; use it to
    score any EntropyPredictor.
    """
    return entropy_map_from_views(render_all_views(mesh, build_rig(), config))


def _knn_weights(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | int:
    """Indices and 1/(d+eps) weights of the k nearest, or the index of an exact match."""
    exact = np.flatnonzero(distances == 0.0)
    if exact.size:
        return int(exact[0])
    order = np.argsort(distances, kind="stable")[: min(k, len(distances))]
    return order, 1.0 / (distances[order] + KNN_EPSILON)


class KnnEntropyPredictor(EntropyPredictor):
    """Distance-weighted k-NN regression from pooled voxel fractions to entropy maps."""

    def __init__(self, features: np.ndarray, maps: np.ndarray, k: int):
        self.features = features
        self.maps = maps
        self.k = k

    @staticmethod
    def featurize(grid: VoxelGrid) -> np.ndarray:
        return pool_voxels(grid, VOXEL_POOL_FACTOR).ravel()

    def predict_map(self, grid: VoxelGrid) -> EntropyMap:
        distances = np.abs(self.features - self.featurize(grid)).sum(axis=1)
        picked = _knn_weights(distances, self.k)
        if isinstance(picked, int):
            return EntropyMap(self.maps[picked])
        order, weights = picked
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
        ValueError: empty dataset or k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    features = []
    maps = []
    for grid, emap in dataset:
        features.append(KnnEntropyPredictor.featurize(grid))
        maps.append(emap.values)
    if not features:
        raise ValueError("cannot train on an empty dataset")
    return KnnEntropyPredictor(np.array(features), np.array(maps), k)


class KnnViewPredictor(ViewPredictor):
    """Distance-weighted k-NN over average-pooled depth images.

    Scores are neighbor votes on both heads, normalized to sum to one; an
    exact feature match takes the whole mass.
    """

    def __init__(
        self,
        features: np.ndarray,
        category_ids: np.ndarray,
        viewpoints: np.ndarray,
        categories: list[str],
        k: int,
    ):
        self.features = features
        self.category_ids = category_ids
        self.viewpoints = viewpoints
        self.categories = list(categories)
        self.k = k

    @staticmethod
    def featurize(image: DepthImage) -> np.ndarray:
        f = IMAGE_POOL_FACTOR
        h, w = image.pixels.shape
        if h % f or w % f:
            raise ValueError(f"image dims {(h, w)} not divisible by pool factor {f}")
        pooled = image.pixels.astype(np.float64).reshape(h // f, f, w // f, f).mean(axis=(1, 3))
        return pooled.ravel()

    def predict(self, image: DepthImage) -> ViewPrediction:
        distances = np.abs(self.features - self.featurize(image)).sum(axis=1)
        class_scores = dict.fromkeys(self.categories, 0.0)
        viewpoint_scores = np.zeros(N_VIEWS)
        picked = _knn_weights(distances, self.k)
        if isinstance(picked, int):
            class_scores[self.categories[self.category_ids[picked]]] = 1.0
            viewpoint_scores[self.viewpoints[picked]] = 1.0
            return ViewPrediction(class_scores, viewpoint_scores)
        order, weights = picked
        total = weights.sum()
        for idx, w in zip(order, weights):
            class_scores[self.categories[self.category_ids[idx]]] += w / total
            viewpoint_scores[self.viewpoints[idx]] += w / total
        return ViewPrediction(class_scores, viewpoint_scores)

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
        ValueError: empty dataset, k < 1, or a view index out of range.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    features = []
    labels = []
    viewpoints = []
    for image, category, view_index in dataset:
        if not 0 <= view_index < N_VIEWS:
            raise ValueError(f"view index {view_index} out of range")
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


def load_predictor(path: str | Path) -> KnnEntropyPredictor | KnnViewPredictor:
    """Load a predictor saved by the ``save`` methods above."""
    with np.load(path, allow_pickle=False) as blob:
        try:
            kind = str(blob["kind"])
            if kind == "entropy_knn":
                return KnnEntropyPredictor(blob["features"], blob["maps"], int(blob["k"]))
            if kind == "view_knn":
                return KnnViewPredictor(
                    blob["features"],
                    blob["category_ids"],
                    blob["viewpoints"],
                    [str(c) for c in blob["categories"]],
                    int(blob["k"]),
                )
        except KeyError as exc:  # an array the saved predictor must hold is missing
            raise ValueError(f"{path}: {exc.args[0]}") from None
        raise ValueError(f"{path}: unknown predictor kind {kind!r}")


def map_mae(a: EntropyMap, b: EntropyMap) -> float:
    """Mean absolute error over the 60 cells, bits."""
    return float(np.abs(a.values - b.values).mean())


def map_mse(a: EntropyMap, b: EntropyMap) -> float:
    """Mean squared error over the 60 cells, bits^2."""
    return float(((a.values - b.values) ** 2).mean())


@dataclass(frozen=True)
class PredictionRecord:
    """One exchange-file record: scores for one (object, view) pair."""

    object_id: str
    view_index: int
    prediction: ViewPrediction


def write_predictions(records: Iterable[PredictionRecord], path: str | Path) -> None:
    """Write records as JSON lines; floats round-trip losslessly."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "object_id": rec.object_id,
                        "view_index": rec.view_index,
                        "class_scores": {
                            name: rec.prediction.class_scores[name]
                            for name in sorted(rec.prediction.class_scores)
                        },
                        "viewpoint_scores": [float(s) for s in rec.prediction.viewpoint_scores],
                    }
                )
                + "\n"
            )


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    """Read and validate an exchange file written by :func:`write_predictions`.

    Raises:
        ValueError: any schema violation, reported with the line number.
    """
    records = []
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
            object_id = raw["object_id"]
            view_index = raw["view_index"]
            if not isinstance(object_id, str):
                raise ValueError(f"{where}: object_id must be a string")
            if not isinstance(view_index, int) or not 0 <= view_index < N_VIEWS:
                raise ValueError(f"{where}: view_index must be an integer in 0..{N_VIEWS - 1}")
            vscores = raw["viewpoint_scores"]
            if not isinstance(vscores, list) or len(vscores) != N_VIEWS:
                got = len(vscores) if isinstance(vscores, list) else type(vscores).__name__
                raise ValueError(f"{where}: viewpoint_scores must be a list of {N_VIEWS} numbers, got {got}")
            if not all(isinstance(s, (int, float)) and not isinstance(s, bool) for s in vscores):
                raise ValueError(f"{where}: viewpoint_scores must be numbers")
            varr = np.array(vscores, dtype=np.float64)
            if (varr < 0).any():
                raise ValueError(f"{where}: negative viewpoint score")
            vsum = float(varr.sum())
            if abs(vsum - 1.0) > EXCHANGE_SUM_TOL:
                raise ValueError(f"{where}: viewpoint scores sum to {vsum!r}, expected 1")
            cscores = raw["class_scores"]
            if (
                not isinstance(cscores, dict)
                or not cscores
                or not all(isinstance(name, str) for name in cscores)
                or not all(
                    isinstance(s, (int, float)) and not isinstance(s, bool) for s in cscores.values()
                )
            ):
                raise ValueError(f"{where}: class_scores must be a non-empty name->number mapping")
            if min(cscores.values()) < 0:
                raise ValueError(f"{where}: negative class score")
            csum = float(sum(cscores.values()))
            if abs(csum - 1.0) > EXCHANGE_SUM_TOL:
                raise ValueError(f"{where}: class scores sum to {csum!r}, expected 1")
            # keep bit-exact values when already normalized; rescale sloppy external sums
            if abs(vsum - 1.0) > SCORE_SUM_TOL:
                varr = varr / vsum
            if abs(csum - 1.0) > SCORE_SUM_TOL:
                class_scores = {name: float(s) / csum for name, s in cscores.items()}
            else:
                class_scores = {name: float(s) for name, s in cscores.items()}
            records.append(
                PredictionRecord(object_id, view_index, ViewPrediction(class_scores, varr))
            )
    return records
