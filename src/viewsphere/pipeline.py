"""End-to-end orchestration: dataset building, recognition runs, evaluation, noise sweeps."""

from __future__ import annotations

import csv
import time
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .entropy import (
    EntropyMap,
    entropy_map_from_views,
    find_peaks,
    image_entropy,
    map_to_pgm_pixels,
    top_n_views,
    write_map_csv,
)
from .fusion import FusedPrediction, PoseOffset, fuse
from .mesh import add_gaussian_noise, is_normalized, load_off, normalize_to_unit_cube
from .predict import (
    KnnEntropyPredictor,
    KnnViewPredictor,
    ViewPrediction,
    knn_entropy_predictor_train,
    knn_view_predictor_train,
)
from .render import read_pgm, render_all_views, write_pgm_array
from .viewrig import N_VIEWS, build_rig, index_of
from .voxel import load_grid, save_grid, voxelize

DEFAULT_SIGMAS = (0.02, 0.04, 0.06, 0.08, 0.10)

MANIFEST_COLUMNS = (
    ["object_id", "category", "split", "voxel_path"]
    + [f"entropy_{i:02d}" for i in range(N_VIEWS)]
    + [f"view_{i:02d}" for i in range(N_VIEWS)]
)


@dataclass
class DatasetRecord:
    """One processed mesh: its voxel grid, 60 ground-truth entropies, 60 view files."""

    object_id: str
    category: str
    split: str
    voxel_path: Path
    entropies: np.ndarray
    view_paths: list[Path]

    def entropy_map(self) -> EntropyMap:
        return EntropyMap(self.entropies.reshape(5, 12))


def write_manifest(rows: Sequence[dict], path: str | Path) -> None:
    """Write manifest rows (already containing relative path strings) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["object_id"], row["category"], row["split"], row["voxel_path"]]
                + [repr(float(v)) for v in row["entropies"]]
                + row["view_paths"]
            )


def read_manifest(path: str | Path) -> list[DatasetRecord]:
    """Read a manifest, resolving file paths relative to its directory."""
    path = Path(path)
    base = path.parent
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_COLUMNS:
            raise ValueError(f"{path}: unexpected manifest header")
        for row in reader:
            if not row:
                continue
            if len(row) != len(MANIFEST_COLUMNS):
                raise ValueError(f"{path}: row for {row[0]!r} has {len(row)} columns")
            records.append(
                DatasetRecord(
                    object_id=row[0],
                    category=row[1],
                    split=row[2],
                    voxel_path=base / row[3],
                    entropies=np.array([float(v) for v in row[4 : 4 + N_VIEWS]]),
                    view_paths=[base / p for p in row[4 + N_VIEWS :]],
                )
            )
    return records


def discover_models(
    model_root: str | Path, subsample: float = 1.0, seed: int = 0
) -> list[tuple[Path, str, str, str]]:
    """Find (path, object_id, category, split) under a ModelNet-style tree.

    Subsampling draws a seeded uniform fraction per (category, split); each
    category and split is seeded independently of traversal order. Categories
    without any mesh raise.
    """
    if not 0 < subsample <= 1:
        raise ValueError(f"subsample must be in (0, 1], got {subsample}")
    root = Path(model_root)
    if not root.is_dir():
        raise ValueError(f"model root {root} is not a directory")
    found = []
    categories = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not categories:
        raise ValueError(f"model root {root} contains no category directories")
    for category in categories:
        n_meshes = 0
        for split_dir in sorted((root / category).iterdir()):
            if not split_dir.is_dir():
                continue
            files = sorted(split_dir.glob("*.off"))
            n_meshes += len(files)
            if not files:
                continue
            if subsample < 1.0:
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        [seed, zlib.crc32(category.encode()), zlib.crc32(split_dir.name.encode())]
                    )
                )
                keep = max(1, round(subsample * len(files)))
                chosen = sorted(rng.choice(len(files), size=keep, replace=False))
                files = [files[i] for i in chosen]
            for f in files:
                found.append((f, f.stem, category, split_dir.name))
        if n_meshes == 0:
            raise ValueError(f"category {category!r} contains no .off meshes")
    counts = Counter(object_id for _, object_id, _, _ in found)
    dupes = sorted(object_id for object_id, n in counts.items() if n > 1)
    if dupes:
        raise ValueError(f"duplicate object ids: {dupes[:5]}")
    return found


def _process_object(task: tuple[str, str, str, str, str]) -> dict:
    """Worker: mesh file -> voxel grid + 60 views + entropies. Returns a manifest row."""
    off_path, object_id, category, split, out_dir = task
    out = Path(out_dir)
    try:
        mesh = normalize_to_unit_cube(load_off(off_path))
        grid = voxelize(mesh)
        voxel_rel = f"voxels/{object_id}.vox"
        save_grid(grid, out / voxel_rel)
        images = render_all_views(mesh, build_rig())
        view_dir = out / "views" / object_id
        view_dir.mkdir(parents=True, exist_ok=True)
        view_rels = []
        for i, image in enumerate(images):
            rel = f"views/{object_id}/view_{i:02d}.pgm"
            write_pgm_array(image.pixels, out / rel)
            view_rels.append(rel)
        return {
            "object_id": object_id,
            "category": category,
            "split": split,
            "voxel_path": voxel_rel,
            "entropies": [image_entropy(img) for img in images],
            "view_paths": view_rels,
        }
    except Exception as exc:  # per-object failures become skips, not aborts
        return {"object_id": object_id, "error": f"{off_path}: {exc}"}


def build_dataset(
    model_root: str | Path,
    out_dir: str | Path,
    workers: int = 1,
    subsample: float = 1.0,
    seed: int = 0,
) -> tuple[list[DatasetRecord], list[str]]:
    """Process every (subsampled) mesh and write the dataset + manifest.

    The manifest is sorted by object_id and byte-identical for identical
    inputs regardless of worker count. Returns (records, skipped messages).
    """
    out = Path(out_dir)
    (out / "voxels").mkdir(parents=True, exist_ok=True)
    (out / "views").mkdir(parents=True, exist_ok=True)
    tasks = [
        (str(path), object_id, category, split, str(out))
        for path, object_id, category, split in discover_models(model_root, subsample, seed)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_process_object, tasks, chunksize=1))
    else:
        outcomes = [_process_object(t) for t in tasks]

    skipped = sorted(o["error"] for o in outcomes if "error" in o)
    rows = sorted((o for o in outcomes if "error" not in o), key=lambda r: r["object_id"])
    write_manifest(rows, out / "manifest.csv")
    return read_manifest(out / "manifest.csv"), skipped


def train_predictors(
    records: Sequence[DatasetRecord], k: int = 5
) -> tuple[KnnEntropyPredictor, KnnViewPredictor]:
    """Train both k-NN predictors from the train-split records of a manifest."""
    train = [r for r in records if r.split == "train"]
    if not train:
        raise ValueError("no train-split records in manifest")
    entropy_predictor = knn_entropy_predictor_train(
        ((load_grid(r.voxel_path), r.entropy_map()) for r in train), k=k
    )
    view_predictor = knn_view_predictor_train(
        (
            (read_pgm(path), r.category, i)
            for r in train
            for i, path in enumerate(r.view_paths)
        ),
        k=k,
    )
    return entropy_predictor, view_predictor


@dataclass
class RecognitionResult:
    """Fused prediction for one object, plus the ground truth used for scoring."""

    object_id: str
    true_category: str
    predicted_category: str
    predicted_offset: PoseOffset
    views_used: int
    true_offset: PoseOffset = field(default_factory=lambda: PoseOffset(0, 0))
    seconds: float | None = None
    fused: FusedPrediction | None = None


def _predict_view(
    view_source, object_id: str, view_index: int, image_path: Path
) -> ViewPrediction:
    if hasattr(view_source, "predict"):
        if not image_path.is_file():
            raise FileNotFoundError(f"missing view image {image_path}")
        return view_source.predict(read_pgm(image_path))
    try:
        return view_source[(object_id, view_index)]
    except KeyError:
        raise ValueError(
            f"exchange records do not cover view {view_index} of object {object_id!r}"
        ) from None


def run_recognition(
    records: Sequence[DatasetRecord],
    entropy_source: str | KnnEntropyPredictor,
    view_source: KnnViewPredictor | Mapping[tuple[str, int], ViewPrediction],
    max_views: int | None = None,
    fusion_mode: str = "argmax",
) -> list[RecognitionResult]:
    """Best-view recognition for every record.

    ``entropy_source`` is either the string ``"oracle"`` (use the manifest's
    stored ground-truth entropies) or an EntropyPredictor applied to the
    stored voxel grid. ``view_source`` is a ViewPredictor or an exchange-file
    mapping (object_id, view_index) -> ViewPrediction.
    """
    if max_views is not None and max_views < 1:
        raise ValueError(f"max_views must be >= 1, got {max_views}")
    rig = build_rig()
    results = []
    for record in sorted(records, key=lambda r: r.object_id):
        start = time.perf_counter()
        if entropy_source == "oracle":
            emap = record.entropy_map()
        else:
            emap = entropy_source.predict_map(load_grid(record.voxel_path))
        peaks = find_peaks(emap) if max_views is None else top_n_views(emap, max_views)
        views = []
        for peak in peaks:
            idx = index_of(peak.ring, peak.azimuth)
            prediction = _predict_view(view_source, record.object_id, idx, record.view_paths[idx])
            views.append((rig[idx], prediction))
        fused = fuse(views, mode=fusion_mode)
        results.append(
            RecognitionResult(
                object_id=record.object_id,
                true_category=record.category,
                predicted_category=fused.category,
                predicted_offset=fused.pose,
                views_used=fused.views_used,
                seconds=time.perf_counter() - start,
                fused=fused,
            )
        )
    return results


RESULT_COLUMNS = [
    "object_id",
    "true_category",
    "predicted_category",
    "true_d_theta",
    "true_d_phi",
    "predicted_d_theta",
    "predicted_d_phi",
    "views_used",
]


def write_results(results: Sequence[RecognitionResult], path: str | Path) -> None:
    """One CSV row per object: truth, prediction, and the number of fused views."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for r in sorted(results, key=lambda r: r.object_id):
            writer.writerow(
                [
                    r.object_id,
                    r.true_category,
                    r.predicted_category,
                    r.true_offset.d_theta,
                    r.true_offset.d_phi,
                    r.predicted_offset.d_theta,
                    r.predicted_offset.d_phi,
                    r.views_used,
                ]
            )


def read_results(path: str | Path) -> list[RecognitionResult]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected results header")
        results = []
        for row in reader:
            if not row:
                continue
            results.append(
                RecognitionResult(
                    object_id=row[0],
                    true_category=row[1],
                    predicted_category=row[2],
                    true_offset=PoseOffset(int(row[3]), int(row[4])),
                    predicted_offset=PoseOffset(int(row[5]), int(row[6])),
                    views_used=int(row[7]),
                )
            )
    return results


@dataclass
class EvaluationReport:
    """Aggregate scores over the test split."""

    class_accuracy: float
    pose_accuracy: float
    categories: list[str]
    confusion: np.ndarray
    views_used: dict[str, list[int]]
    seconds_per_object: float | None


def evaluate(
    results: Sequence[RecognitionResult], records: Sequence[DatasetRecord]
) -> EvaluationReport:
    """Score results against the manifest's test split.

    Pose is correct only on an exact (ring, azimuth) cell match, i.e. the
    predicted offset equals the true offset. Order independent.

    Raises:
        ValueError: results do not exactly cover the test split.
    """
    test = {r.object_id: r for r in records if r.split == "test"}
    got = {r.object_id: r for r in sorted(results, key=lambda r: r.object_id)}
    if set(test) != set(got):
        missing = sorted(set(test) - set(got))[:5]
        extra = sorted(set(got) - set(test))[:5]
        raise ValueError(f"results/manifest mismatch: missing {missing}, extra {extra}")
    for object_id, result in got.items():
        if result.true_category != test[object_id].category:
            raise ValueError(f"category mismatch for {object_id!r}")

    ordered = [got[object_id] for object_id in sorted(got)]
    n = len(ordered)
    class_hits = sum(r.predicted_category == r.true_category for r in ordered)
    pose_hits = sum(r.predicted_offset == r.true_offset for r in ordered)
    categories = sorted({r.true_category for r in ordered} | {r.predicted_category for r in ordered})
    cat_index = {c: i for i, c in enumerate(categories)}
    confusion = np.zeros((len(categories), len(categories)), dtype=np.int64)
    views_used: dict[str, list[int]] = {}
    for r in ordered:
        confusion[cat_index[r.true_category], cat_index[r.predicted_category]] += 1
        views_used.setdefault(r.true_category, []).append(r.views_used)
    seconds = [r.seconds for r in ordered if r.seconds is not None]
    return EvaluationReport(
        class_accuracy=class_hits / n,
        pose_accuracy=pose_hits / n,
        categories=categories,
        confusion=confusion,
        views_used=views_used,
        seconds_per_object=sum(seconds) / len(seconds) if seconds else None,
    )


def write_report(report: EvaluationReport, out_dir: str | Path) -> None:
    """Write report.txt, confusion.csv and views.csv under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timing = (
        f"{report.seconds_per_object:.4f}" if report.seconds_per_object is not None else "n/a"
    )
    mean_views = np.mean([m for counts in report.views_used.values() for m in counts])
    lines = [
        f"class_accuracy {report.class_accuracy:.4f}",
        f"pose_accuracy {report.pose_accuracy:.4f}",
        f"mean_views_used {mean_views:.2f}",
        f"seconds_per_object {timing}",
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    with open(out / "confusion.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true\\predicted"] + report.categories)
        for i, category in enumerate(report.categories):
            writer.writerow([category] + [int(v) for v in report.confusion[i]])
    with open(out / "views.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["category", "views_used"])
        for category in report.categories:
            for m in report.views_used.get(category, []):
                writer.writerow([category, m])


def noise_sweep(
    records: Sequence[DatasetRecord],
    model_root: str | Path,
    view_source,
    entropy_source: str | KnnEntropyPredictor = "oracle",
    sigmas: Sequence[float] = DEFAULT_SIGMAS,
    seed: int = 0,
    max_views: int | None = None,
    fusion_mode: str = "argmax",
) -> list[dict]:
    """Re-render the test split under vertex noise and re-run recognition per sigma.

    Noisy meshes are re-normalized into the unit cube when the perturbation
    pushes vertices outside it (sigma = 0 therefore reproduces the clean run
    bit-exactly). Returns one row per sigma with both accuracies; any accuracy
    degradation trend is reported, not enforced.
    """
    root = Path(model_root)
    rig = build_rig()
    test = sorted((r for r in records if r.split == "test"), key=lambda r: r.object_id)
    if not test:
        raise ValueError("no test-split records in manifest")
    rows = []
    for sigma_index, sigma in enumerate(sigmas):
        class_hits = 0
        pose_hits = 0
        total_views = 0
        for record in test:
            mesh_path = root / record.category / record.split / f"{record.object_id}.off"
            if not mesh_path.is_file():
                raise FileNotFoundError(f"source mesh not found: {mesh_path}")
            mesh = normalize_to_unit_cube(load_off(mesh_path))
            noise_seed = np.random.SeedSequence(
                [seed, sigma_index, zlib.crc32(record.object_id.encode())]
            ).generate_state(1)[0]
            noisy = add_gaussian_noise(mesh, sigma, int(noise_seed))
            if not is_normalized(noisy):
                noisy = normalize_to_unit_cube(noisy)
            images = render_all_views(noisy, rig)
            if entropy_source == "oracle":
                emap = entropy_map_from_views(images)
            else:
                emap = entropy_source.predict_map(voxelize(noisy))
            peaks = find_peaks(emap) if max_views is None else top_n_views(emap, max_views)
            views = []
            for peak in peaks:
                idx = index_of(peak.ring, peak.azimuth)
                if hasattr(view_source, "predict"):
                    prediction = view_source.predict(images[idx])
                else:
                    prediction = _predict_view(view_source, record.object_id, idx, Path("/dev/null"))
                views.append((rig[idx], prediction))
            fused = fuse(views, mode=fusion_mode)
            class_hits += fused.category == record.category
            pose_hits += fused.pose == PoseOffset(0, 0)
            total_views += fused.views_used
        rows.append(
            {
                "sigma": sigma,
                "class_accuracy": class_hits / len(test),
                "pose_accuracy": pose_hits / len(test),
                "mean_views": total_views / len(test),
            }
        )
    return rows


def write_sweep(rows: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sigma", "class_accuracy", "pose_accuracy", "mean_views"])
        for row in rows:
            writer.writerow(
                [row["sigma"], row["class_accuracy"], row["pose_accuracy"], row["mean_views"]]
            )


def emit_heatmap(emap: EntropyMap, path: str | Path, scale: int = 20) -> None:
    """Write a nearest-neighbor upscaled PGM heatmap plus a raw-values CSV sidecar."""
    pixels = map_to_pgm_pixels(emap, scale=scale)
    write_pgm_array(pixels, path)
    write_map_csv(emap, Path(path).with_suffix(".csv"))
