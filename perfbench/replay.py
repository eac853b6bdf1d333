"""Traced replay of the pipeline: the same layer calls, in the same order, inside spans.

``Replay`` mirrors ``pipeline.build_dataset``/``_process_object``, the
``pipeline.run_recognition`` loop and the ``pipeline.noise_sweep`` loop using
only public layer functions, and wraps each layer call in a span. The
benchmark checks that the replay writes byte-identical outputs to the
untraced pipeline, so the replay cannot drift from ``pipeline.py`` unnoticed.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from viewsphere import pipeline
from viewsphere.entropy import entropy_map_from_views, find_peaks, image_entropy
from viewsphere.fusion import PoseOffset, fuse
from viewsphere.mesh import UNIT_CUBE_TOL, add_gaussian_noise, load_off, normalize_to_unit_cube
from viewsphere.predict import knn_entropy_predictor_train, knn_view_predictor_train
from viewsphere.render import read_pgm, render_all_views, write_pgm_array
from viewsphere.viewrig import build_rig, index_of
from viewsphere.voxel import load_grid, save_grid, voxelize

#: ``pipeline.train_predictors`` default neighbour count.
TRAIN_K = 5


@dataclass
class Span:
    name: str
    parent: int | None
    object_id: str | None
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counters kept in memory; written out once at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, object_id: str | None = None):
        parent = self._open[-1] if self._open else None
        if object_id is None and parent is not None:
            object_id = self.spans[parent].object_id
        index = len(self.spans)
        self.spans.append(Span(name, parent, object_id, 0.0))
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        """Add ``value()`` to a counter; the counting runs in its own span so
        it is not charged to the layer around it."""
        with self.span("trace.count"):
            self.counts[name] += int(value())

    def self_times(self, index) -> dict[str, list[float]]:
        """Per span name, each call's duration minus the time its children cover,
        divided by the host-speed ``index(start, end)`` around the call."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, list[float]] = {}
        for s, covered in zip(self.spans, child_time):
            out.setdefault(s.name, []).append((s.end - s.start - covered) / index(s.start, s.end))
        return out

    def totals(self, index) -> dict[str, float]:
        """Per span name, the summed duration of all calls, each divided by its ``index``."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) / index(s.start, s.end)
        return totals

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "object": s.object_id,
                }
                fh.write(json.dumps(record) + "\n")


class Replay:
    """Drop-in for ``workloads.PipelineCalls`` that replays each phase inside spans."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer

    def build(self, models: Path, out: Path):
        tr = self.tr
        with tr.span("pipeline.build_dataset"):
            out = Path(out)
            (out / "voxels").mkdir(parents=True, exist_ok=True)
            (out / "views").mkdir(parents=True, exist_ok=True)
            outcomes = [
                self._process_object(path, object_id, category, split, out)
                for path, object_id, category, split in pipeline.discover_models(models)
            ]
            skipped = sorted(o["error"] for o in outcomes if "error" in o)
            rows = sorted((o for o in outcomes if "error" not in o), key=lambda r: r["object_id"])
            with tr.span("pipeline.manifest_io"):
                pipeline.write_manifest(rows, out / "manifest.csv")
            with tr.span("pipeline.manifest_io"):
                records = pipeline.read_manifest(out / "manifest.csv")
        return records, skipped

    def _process_object(self, off_path, object_id, category, split, out: Path) -> dict:
        tr = self.tr
        with tr.span("pipeline.build_object", object_id):
            try:
                with tr.span("mesh.load_off"):
                    mesh = load_off(off_path)
                with tr.span("mesh.normalize"):
                    mesh = normalize_to_unit_cube(mesh)
                tr.count("mesh.faces", lambda: len(mesh.faces))
                with tr.span("voxel.voxelize"):
                    grid = voxelize(mesh)
                tr.count("voxel.faces", lambda: len(mesh.faces))
                tr.count("voxel.occupied", lambda: grid.occupied_count)
                voxel_rel = f"voxels/{object_id}.vox"
                with tr.span("voxel.save_grid"):
                    save_grid(grid, out / voxel_rel)
                images = self._render(mesh)
                view_dir = out / "views" / object_id
                view_dir.mkdir(parents=True, exist_ok=True)
                view_rels = []
                for i, image in enumerate(images):
                    rel = f"views/{object_id}/view_{i:02d}.pgm"
                    with tr.span("render.write_pgm"):
                        write_pgm_array(image.pixels, out / rel)
                    view_rels.append(rel)
                with tr.span("entropy.map"):
                    entropies = [image_entropy(img) for img in images]
                return {
                    "object_id": object_id,
                    "category": category,
                    "split": split,
                    "voxel_path": voxel_rel,
                    "entropies": entropies,
                    "view_paths": view_rels,
                }
            except Exception as exc:  # mirrors _process_object: failures become skips
                return {"object_id": object_id, "error": f"{off_path}: {exc}"}

    def _render(self, mesh):
        with self.tr.span("render.render_all_views"):
            images = render_all_views(mesh, build_rig())
        self.tr.count("render.face_views", lambda: len(mesh.faces) * len(images))
        self.tr.count("render.hit_pixels", lambda: sum(np.count_nonzero(i.pixels) for i in images))
        return images

    def train(self, records):
        tr = self.tr
        train = [r for r in records if r.split == "train"]

        def grids():
            for r in train:
                with tr.span("voxel.load_grid"):
                    grid = load_grid(r.voxel_path)
                yield grid, r.entropy_map()

        def views():
            for r in train:
                for i, path in enumerate(r.view_paths):
                    with tr.span("render.read_pgm"):
                        image = read_pgm(path)
                    yield image, r.category, i

        with tr.span("predict.entropy_train"):
            entropy_predictor = knn_entropy_predictor_train(grids(), k=TRAIN_K)
        with tr.span("predict.view_train"):
            view_predictor = knn_view_predictor_train(views(), k=TRAIN_K)
        return entropy_predictor, view_predictor

    def _peaks(self, emap):
        with self.tr.span("entropy.find_peaks"):
            peaks = find_peaks(emap)
        self.tr.count("entropy.peaks", lambda: len(peaks))
        return peaks

    def _fuse(self, views):
        with self.tr.span("fusion.fuse"):
            fused = fuse(views, mode="argmax")
        self.tr.count("fusion.views_fused", lambda: fused.views_used)
        return fused

    def _predict(self, view_predictor, image):
        with self.tr.span("predict.view_knn"):
            prediction = view_predictor.predict(image)
        self.tr.count("predict.views_predicted", lambda: 1)
        return prediction

    def recognize(self, record, entropy_predictor, view_predictor):
        tr = self.tr
        with tr.span("pipeline.recognize", record.object_id):
            rig = build_rig()
            with tr.span("voxel.load_grid"):
                grid = load_grid(record.voxel_path)
            with tr.span("predict.entropy_knn"):
                emap = entropy_predictor.predict_map(grid)
            views = []
            for peak in self._peaks(emap):
                idx = index_of(peak.ring, peak.azimuth)
                with tr.span("render.read_pgm"):
                    image = read_pgm(record.view_paths[idx])
                views.append((rig[idx], self._predict(view_predictor, image)))
            fused = self._fuse(views)
            return pipeline.RecognitionResult(
                object_id=record.object_id,
                true_category=record.category,
                predicted_category=fused.category,
                predicted_offset=fused.pose,
                views_used=fused.views_used,
            )

    def rerender(self, record, models: Path, view_predictor, sigma: float, seed: int) -> dict:
        tr = self.tr
        with tr.span("pipeline.rerender", record.object_id):
            rig = build_rig()
            mesh_path = Path(models) / record.category / record.split / f"{record.object_id}.off"
            with tr.span("mesh.load_off"):
                mesh = load_off(mesh_path)
            with tr.span("mesh.normalize"):
                mesh = normalize_to_unit_cube(mesh)
            tr.count("mesh.faces", lambda: len(mesh.faces))
            # noise_sweep with a single sigma uses sigma index 0
            state = np.random.SeedSequence([seed, 0, zlib.crc32(record.object_id.encode())])
            with tr.span("mesh.add_noise"):
                noisy = add_gaussian_noise(mesh, sigma, int(state.generate_state(1)[0]))
                lo, hi = noisy.bounds()
                if (hi > 0.5 + UNIT_CUBE_TOL).any() or (lo < -0.5 - UNIT_CUBE_TOL).any():
                    noisy = normalize_to_unit_cube(noisy)
            images = self._render(noisy)
            with tr.span("entropy.map"):
                emap = entropy_map_from_views(images)
            views = []
            for peak in self._peaks(emap):
                idx = index_of(peak.ring, peak.azimuth)
                views.append((rig[idx], self._predict(view_predictor, images[idx])))
            fused = self._fuse(views)
            class_hits = 0
            pose_hits = 0
            class_hits += fused.category == record.category
            pose_hits += fused.pose == PoseOffset(0, 0)
            return {
                "sigma": sigma,
                "class_accuracy": class_hits / 1,
                "pose_accuracy": pose_hits / 1,
                "mean_views": fused.views_used / 1,
            }


#: Per-layer ``*_s`` metrics: the median self time of one call of the span.
SELF_TIME_METRICS = {
    "mesh.load_off_s": "mesh.load_off",
    "mesh.normalize_s": "mesh.normalize",
    "mesh.add_noise_s": "mesh.add_noise",
    "voxel.voxelize_s": "voxel.voxelize",
    "voxel.save_grid_s": "voxel.save_grid",
    "voxel.load_grid_s": "voxel.load_grid",
    "render.render_all_views_s": "render.render_all_views",
    "render.write_pgm_s": "render.write_pgm",
    "render.read_pgm_s": "render.read_pgm",
    "entropy.map_s": "entropy.map",
    "entropy.find_peaks_s": "entropy.find_peaks",
    "predict.view_knn_s": "predict.view_knn",
    "predict.entropy_knn_s": "predict.entropy_knn",
    "predict.train_s": "predict.view_train",
    "fusion.fuse_s": "fusion.fuse",
    "pipeline.build_self_s": "pipeline.build_object",
    "pipeline.recognize_self_s": "pipeline.recognize",
    "pipeline.rerender_self_s": "pipeline.rerender",
    "pipeline.manifest_io_s": "pipeline.manifest_io",
}

COUNT_METRICS = (
    "mesh.faces",
    "voxel.occupied",
    "render.hit_pixels",
    "entropy.peaks",
    "predict.views_predicted",
    "fusion.views_fused",
)


def layer_metrics(tracer: Tracer, index) -> dict[str, tuple[float, str]]:
    """(value, unit) of every per-layer metric from one traced round.

    ``index(start, end)`` is the host's speed index around a span
    (``hostspeed.HostClock.index``); times are divided by it.
    """
    self_times = tracer.self_times(index)
    totals = tracer.totals(index)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = (statistics.median(self_times[span]), "s")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts[name], "count")
    metrics["voxel.faces_per_s"] = (tracer.counts["voxel.faces"] / totals["voxel.voxelize"], "1/s")
    metrics["render.face_views_per_s"] = (
        tracer.counts["render.face_views"] / totals["render.render_all_views"],
        "1/s",
    )
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics

