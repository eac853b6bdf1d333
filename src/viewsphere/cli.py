"""Command line interface.

Exit codes: 0 success, 1 validation failure, 2 completed with partial skips.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .entropy import find_peaks, read_map_csv, top_n_views, write_map_csv
from .mesh import MeshError, load_off, normalize_to_unit_cube
from .predict import (
    EntropyPredictor,
    ViewPredictor,
    load_predictor,
    oracle_entropy_predictor,
    read_predictions,
)
from .viewrig import index_of
from .voxel import load_grid


def _fraction(text: str) -> float:
    """Parse '0.25' or '1/3' style fractions."""
    if "/" in text:
        num, den = (float(tok) for tok in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


def _sigma_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _read_config(path: str) -> dict[str, str]:
    """key=value lines mirroring the CLI flags; '#' starts a comment."""
    values = {}
    for no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _cmd_build_dataset(args) -> int:
    records, skipped = pipeline.build_dataset(
        args.input, args.out, workers=args.workers, subsample=args.subsample, seed=args.seed
    )
    for message in skipped:
        print(f"skipped: {message}", file=sys.stderr)
    print(f"built {len(records)} objects into {args.out} ({len(skipped)} skipped)")
    return 2 if skipped else 0


def _cmd_train_knn(args) -> int:
    records = pipeline.read_manifest(args.manifest)
    entropy_predictor, view_predictor = pipeline.train_predictors(records, k=args.k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entropy_predictor.save(out / "entropy_knn.npz")
    view_predictor.save(out / "view_knn.npz")
    n_train = sum(r.split == "train" for r in records)
    print(f"trained k={args.k} predictors on {n_train} objects -> {out}")
    return 0


def _cmd_predict_map(args) -> int:
    if args.oracle:
        if not args.mesh:
            raise ValueError("--oracle requires --mesh")
        emap = oracle_entropy_predictor(normalize_to_unit_cube(load_off(args.mesh)))
    else:
        if not (args.grid and args.model):
            raise ValueError("provide --grid and --model, or --mesh with --oracle")
        emap = _load_model(args.model, EntropyPredictor).predict_map(load_grid(args.grid))
    write_map_csv(emap, args.out)
    print(f"wrote entropy map to {args.out}")
    return 0


def _cmd_best_views(args) -> int:
    emap = read_map_csv(args.map)
    peaks = top_n_views(emap, args.top) if args.top is not None else find_peaks(emap)
    lines = [
        f"{index_of(p.ring, p.azimuth):2d} ring={p.ring} azimuth={p.azimuth} "
        f"phi={30 * (p.ring + 1)} theta={30 * p.azimuth} entropy={p.value:.6f}"
        for p in peaks
    ]
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _load_model(path: str, kind: type[EntropyPredictor] | type[ViewPredictor]):
    """Load a saved predictor and check that it is of the given kind."""
    model = load_predictor(path)
    if not isinstance(model, kind):
        noun = "an entropy" if kind is EntropyPredictor else "a view"
        raise ValueError(f"{path} is not {noun} predictor")
    return model


def _load_view_source(args):
    if bool(args.view_model) == bool(args.predictions):
        raise ValueError("provide exactly one of --view-model or --predictions")
    if args.view_model:
        return _load_model(args.view_model, ViewPredictor)
    return {(r.object_id, r.view_index): r.prediction for r in read_predictions(args.predictions)}


def _load_entropy_source(args):
    if args.entropy == "oracle":
        return "oracle"
    if not args.entropy_model:
        raise ValueError("--entropy knn requires --entropy-model")
    return _load_model(args.entropy_model, EntropyPredictor)


def _cmd_recognize(args) -> int:
    records = pipeline.read_manifest(args.manifest)
    test = [r for r in records if r.split == "test"]
    if not test:
        raise ValueError("manifest has no test-split records")
    results = pipeline.run_recognition(
        test,
        entropy_source=_load_entropy_source(args),
        view_source=_load_view_source(args),
        max_views=args.max_views,
        fusion_mode=args.fusion.replace("-", "_"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_results(results, out / "results.csv")
    mean_views = sum(r.views_used for r in results) / len(results)
    print(f"recognized {len(results)} objects (mean views {mean_views:.2f}) -> {out / 'results.csv'}")
    return 0


def _cmd_evaluate(args) -> int:
    results = pipeline.read_results(args.results)
    records = pipeline.read_manifest(args.manifest)
    report = pipeline.evaluate(results, records)
    pipeline.write_report(report, args.out)
    print(f"class_accuracy {report.class_accuracy:.4f}")
    print(f"pose_accuracy {report.pose_accuracy:.4f}")
    print(f"report written to {args.out}")
    return 0


def _cmd_noise_sweep(args) -> int:
    records = pipeline.read_manifest(args.manifest)
    rows = pipeline.noise_sweep(
        records,
        args.models,
        view_source=_load_view_source(args),
        entropy_source=_load_entropy_source(args),
        sigmas=args.sigmas,
        seed=args.seed,
        max_views=args.max_views,
        fusion_mode=args.fusion.replace("-", "_"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_sweep(rows, out / "noise_sweep.csv")
    for row in rows:
        print(
            f"sigma={row['sigma']:.2f} class_accuracy={row['class_accuracy']:.4f} "
            f"pose_accuracy={row['pose_accuracy']:.4f} mean_views={row['mean_views']:.2f}"
        )
    return 0


def _cmd_heatmap(args) -> int:
    emap = read_map_csv(args.map)
    pipeline.emit_heatmap(emap, args.out)
    print(f"wrote heatmap to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewsphere",
        description="Multi-view 3D object recognition and pose estimation from entropy-selected best views.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file mirroring the flags of this command")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")

    p = sub.add_parser("build-dataset", help="voxelize and render a ModelNet-style mesh tree")
    common(p)
    p.add_argument("--input", required=True, help="model root: category/split/*.off")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--subsample", type=_fraction, default=1.0, help="fraction like 0.25 or 1/3")
    p.set_defaults(func=_cmd_build_dataset, _parser=p)

    p = sub.add_parser("train-knn", help="train k-NN predictors from a dataset manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="directory for entropy_knn.npz and view_knn.npz")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=_cmd_train_knn, _parser=p)

    p = sub.add_parser("predict-map", help="predict or compute an entropy map")
    common(p)
    p.add_argument("--grid", help="voxel grid file (with --model)")
    p.add_argument("--model", help="entropy_knn.npz predictor")
    p.add_argument("--mesh", help="OFF mesh (with --oracle)")
    p.add_argument("--oracle", action="store_true", help="render and measure instead of predicting")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_predict_map, _parser=p)

    p = sub.add_parser("best-views", help="list entropy-map peaks, best first")
    common(p)
    p.add_argument("--map", required=True, help="entropy map CSV")
    p.add_argument("--top", type=int, default=None, help="keep at most N peaks")
    p.add_argument("--out", help="optional output text file")
    p.set_defaults(func=_cmd_best_views, _parser=p)

    def recognition_flags(p):
        p.add_argument("--entropy", choices=["oracle", "knn"], default="oracle")
        p.add_argument("--entropy-model", help="entropy_knn.npz (required with --entropy knn)")
        p.add_argument("--view-model", help="view_knn.npz predictor")
        p.add_argument("--predictions", help="JSON-lines exchange file from an external model")
        p.add_argument("--max-views", type=int, default=None)
        p.add_argument("--fusion", choices=["argmax", "score-sum"], default="argmax")

    p = sub.add_parser("recognize", help="fused recognition over the manifest's test split")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for results.csv")
    recognition_flags(p)
    p.set_defaults(func=_cmd_recognize, _parser=p)

    p = sub.add_parser("evaluate", help="score a results.csv against its manifest")
    common(p)
    p.add_argument("--results", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for the report files")
    p.set_defaults(func=_cmd_evaluate, _parser=p)

    p = sub.add_parser("noise-sweep", help="accuracy under increasing vertex noise")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True, help="mesh root the manifest was built from")
    p.add_argument(
        "--sigmas",
        type=_sigma_list,
        default=list(pipeline.DEFAULT_SIGMAS),
        help="comma-separated noise levels",
    )
    p.add_argument("--out", required=True)
    recognition_flags(p)
    p.set_defaults(func=_cmd_noise_sweep, _parser=p)

    p = sub.add_parser("heatmap", help="render an entropy map CSV as a PGM heatmap")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True, help="output PGM path (CSV sidecar written alongside)")
    p.set_defaults(func=_cmd_heatmap, _parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become defaults, which argparse converts with each
            # flag's type; a second parse lets every explicit flag win
            config = _read_config(args.config)
            args._parser.set_defaults(**{k: v for k, v in config.items() if k in vars(args)})
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for partial skips
        return 1 if exc.code else 0
    except (ValueError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
