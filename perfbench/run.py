#!/usr/bin/env python3
"""viewsphere benchmark: end-to-end metrics of the pipeline, or per-layer metrics of a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0

The workload's input meshes are generated from ``--seed``. Every timing is
corrected for the host's speed at the time it was taken (see ``hostspeed.py``).
With ``--trace 0``
whole rounds of the pipeline run untraced while they fit in ``--seconds`` (at
least one), and the end-to-end metrics are reported. With ``--trace 1`` one
untraced round and one traced replay of it run, the replay's outputs must be
byte-identical to the untraced ones, and the per-layer metrics are reported.

Every round's outputs (views, grids, manifest, results.csv, noise-sweep rows)
are checksummed. At the seed recorded in ``reference.json`` they must match the
reference checksums; at any seed, repeated rounds must match each other. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
environment, a report and the checksums. The exit code is 0 only when every
output was correct. Spans and full checksum maps are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Setup (input generation plus a warm-up build) repeats; the median is reported.
SETUP_REPEATS = 5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_outputs(out: Path, sweep_labels: list[str]) -> dict[str, str]:
    """sha256 of every output of one round, keyed ``<object_id>/<kind>`` or by file name."""
    from viewsphere import pipeline

    dataset = out / "dataset"
    manifest = (dataset / "manifest.csv").read_bytes()
    digests = {"manifest.csv": sha256(manifest)}
    rows = manifest.splitlines(keepends=True)[1:]
    for line, record in zip(rows, pipeline.read_manifest(dataset / "manifest.csv")):
        key = record.object_id
        digests[f"{key}/manifest_row"] = sha256(line)
        digests[f"{key}/grid"] = sha256(record.voxel_path.read_bytes())
        views = hashlib.sha256()
        for path in record.view_paths:
            views.update(path.read_bytes())
        digests[f"{key}/views"] = views.hexdigest()
    for name, labels in (("results.csv", None), ("sweep.csv", sweep_labels)):
        blob = (out / name).read_bytes()
        digests[name] = sha256(blob)
        lines = blob.splitlines(keepends=True)[1:]
        if labels is None:
            labels = [f"{line.split(b',', 1)[0].decode()}/result_row" for line in lines]
        if len(labels) != len(lines):
            raise ValueError(f"{name}: {len(lines)} rows for {len(labels)} operations")
        digests.update((label, sha256(line)) for label, line in zip(labels, lines))
    return digests


def compare(expected: dict[str, str], actual: dict[str, str], what: str) -> list[str]:
    """One failure per object (or whole file) whose outputs differ, naming the kinds."""
    kinds_by_owner: dict[str, list[str]] = {}
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            owner, _, kind = key.rpartition("/")
            kinds_by_owner.setdefault(owner or key, []).append(kind if owner else "bytes")
    return [f"{what}: {owner} {'/'.join(kinds)} differ" for owner, kinds in kinds_by_owner.items()]


def checksum_summary(digests: dict[str, str]) -> dict[str, str]:
    """Whole-file digests plus one digest per output kind over all objects."""
    summary = {k: v for k, v in digests.items() if "/" not in k}
    for kind in ("views", "grid", "manifest_row", "result_row", "sweep_row"):
        h = hashlib.sha256()
        for key in sorted(k for k in digests if k.split("/", 1)[-1].startswith(kind)):
            h.update(f"{key}={digests[key]}\n".encode())
        summary[kind] = h.hexdigest()
    return summary


def _blas_core() -> str | None:
    """Kernel core OpenBLAS picked at run time (DYNAMIC_ARCH), if it can be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    names = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename")
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _cache_bytes(level: int) -> int | None:
    """Size of CPU 0's unified or data cache at ``level``, from sysfs."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if int(Path(index, "level").read_text()) != level:
                continue
            if Path(index, "type").read_text().strip() == "Instruction":
                continue
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if size[-1:] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    return None


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=False,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "viewsphere").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_core": _blas_core(),
    }


def percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def mean(samples) -> float:
    samples = list(samples)
    return statistics.fmean(samples) if samples else 0.0


def round_time(rnd, scaled) -> float:
    """Host-speed-corrected time of a round's timed operations."""
    intervals = [rnd.build, rnd.train, *rnd.recognize, *rnd.rerender]
    return sum(scaled(i) for i in intervals)


def tree_faces(models: Path) -> list[int]:
    """Face count of every input mesh, from the OFF count lines."""
    faces = []
    for path in sorted(models.glob("*/*/*.off")):
        with open(path) as fh:
            fh.readline()
            faces.append(int(fh.readline().split()[1]))
    return faces


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import viewsphere
    from viewsphere import pipeline, synthetic

    if Path(viewsphere.__file__).resolve().parent != (SRC / "viewsphere").resolve():
        print(f"imported viewsphere from {viewsphere.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import replay
    import workloads
    from hostspeed import HostClock

    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    ref_digests = reference["checksums"] if args.seed == reference["seed"] else None
    print(json.dumps({"env": environment()}), flush=True)

    base = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        with HostClock() as clock:
            setups = []
            for i in range(SETUP_REPEATS):
                models = base / f"setup{i}" / "models"
                with clock.timed() as interval:
                    workload.write_tree(models, args.seed)
                    warm = base / f"setup{i}" / "warm"
                    synthetic.generate_model_root(
                        warm, per_category=1, categories=("box",), seed=args.seed
                    )
                    pipeline.build_dataset(warm, base / f"setup{i}" / "warm_out")
                setups.append(interval)
            faces = tree_faces(models)

            failures: list[str] = []
            rounds = []
            digests = []

            def one_round(calls, name):
                out = base / name
                rnd = workloads.run_round(calls, workload, models, out, args.seed, clock)
                digest = digest_outputs(out, rnd.sweep_labels)
                shutil.rmtree(out)
                failures.extend(rnd.failures)
                if ref_digests is not None:
                    failures.extend(compare(ref_digests, digest, f"{name} vs reference"))
                elif digests:
                    failures.extend(compare(digests[0], digest, f"{name} vs round0"))
                rounds.append(rnd)
                digests.append(digest)
                return rnd

            if args.trace:
                untraced = one_round(workloads.PipelineCalls(), "round0")
                tracer = replay.Tracer()
                traced = one_round(replay.Replay(tracer), "replay")
                tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.jsonl")
            else:
                start = time.perf_counter()
                while True:
                    one_round(workloads.PipelineCalls(), f"round{len(rounds)}")
                    elapsed = time.perf_counter() - start
                    if elapsed + elapsed / len(rounds) > args.seconds:
                        break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    (WORK / f"checksums-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps(digests[0], indent=1, sort_keys=True) + "\n"
    )
    attempted = sum(r.attempted for r in rounds)
    failed = min(len(failures), attempted)
    first = rounds[0]
    scaled = clock.scaled_s
    setup_s = [scaled(i) for i in setups]
    build_s = [scaled(r.build) for r in rounds]
    recognize = [scaled(i) for r in rounds for i in r.recognize]
    rerender = [scaled(i) for r in rounds for i in r.rerender]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_wall_s": [r.wall.wall_s for r in rounds],
        "host_speed_index": clock.summary(),
        # wall times before the host-speed correction, for comparison
        "wall_s": {
            "setup.median": statistics.median(i.wall_s for i in setups),
            "build": [r.build.wall_s for r in rounds],
            "recognize.mean": mean(i.wall_s for r in rounds for i in r.recognize),
            "rerender.mean": mean(i.wall_s for r in rounds for i in r.rerender),
        },
        "input_faces": {
            "meshes": len(faces), "min": min(faces), "max": max(faces), "total": sum(faces)
        },
        "objects_per_phase": {
            "build": first.objects,
            "train": first.train_objects,
            "recognize": first.test_objects,
            "rerender": first.test_objects,
        },
        "samples": {
            "setup": len(setup_s),
            "recognize": len(recognize),
            "rerender": len(rerender),
        },
        "view_table": {"rows": first.view_table[0], "bytes": first.view_table[1]},
        "entropy_table": {"rows": first.entropy_table[0], "bytes": first.entropy_table[1]},
        "class_accuracy": first.class_accuracy,
        "pose_accuracy": first.pose_accuracy,
        # reported, not gated: too unsteady from run to run (see README)
        "train_s": [scaled(r.train) for r in rounds],
        "recognize_object_s.mean": mean(recognize),
        "recognize_object_s.p50": percentile(recognize, 50),
        "recognize_object_s.p90": percentile(recognize, 90),
        "recognize_queries": sum(r.recognize_queries for r in rounds),
        "rerender_object_s.p50": percentile(rerender, 50),
        "rerender_object_s.p90": percentile(rerender, 90),
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
    }
    print(json.dumps({"report": report}), flush=True)
    checked = "reference" if ref_digests is not None else "printed only"
    print(json.dumps({"checksums": checksum_summary(digests[0]), "checked": checked}), flush=True)

    if args.trace:
        metrics = replay.layer_metrics(tracer, clock.index)
        metrics["predict.view_table_bytes"] = (first.view_table[1], "bytes")
        metrics["predict.entropy_table_bytes"] = (first.entropy_table[1], "bytes")
        metrics["trace.wall_ratio"] = (
            round_time(traced, scaled) / round_time(untraced, scaled),
            "ratio",
        )
    else:
        # An object's recognition time grows with its number of entropy peaks,
        # one k-NN query each, so it is gated per query; the time of one
        # object's recognition swings with the peak counts a seed draws.
        # Rerender is gated as a mean, not a median, for the same reason.
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "build_objects_per_s": (sum(r.objects for r in rounds) / sum(build_s), "1/s"),
            "recognize_query_s": (
                sum(recognize) / max(sum(r.recognize_queries for r in rounds), 1),
                "s",
            ),
            "rerender_object_s.mean": (mean(rerender), "s"),
            "class_accuracy": (first.class_accuracy or 0.0, "ratio"),
            "pose_accuracy": (first.pose_accuracy or 0.0, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "dense"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "viewsphere" / "__init__.py").is_file():
        print(f"viewsphere sources not found under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
