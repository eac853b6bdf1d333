"""Command line interface.

Exit codes: 0 success, 1 validation failure, 2 completed with partial skips.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from . import pipeline
from .entropy import find_peaks, read_map_csv, write_map_csv
from .mesh import MeshError, load_off, normalize_to_unit_cube
from .predict import (
    KnnEntropyPredictor,
    KnnViewPredictor,
    load_predictor,
    oracle_entropy_predictor,
    read_predictions,
)
from .viewrig import Viewpoint
from .voxel import load_grid


def _fraction(text: str) -> float:
    """Parse '0.25' or '1/3' style fractions.

    Raises ``argparse.ArgumentTypeError``, whose message argparse prints; it
    replaces a ``ValueError``'s message with "invalid _fraction value".
    """
    if "/" in text:
        num, den = (float(tok) for tok in text.split("/", 1))
        if den == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


def _sigma_list(text: str) -> list[float]:
    """Parse comma-separated noise levels; raises ``argparse.ArgumentTypeError`` like :func:`_fraction`."""
    sigmas = [float(tok) for tok in text.split(",") if tok.strip()]
    if not sigmas:
        raise argparse.ArgumentTypeError(f"no noise levels in {text!r}")
    return sigmas


#: Namespace entries that the parser sets itself; a config file must not replace them.
_INTERNAL_DESTS = frozenset({"func", "_parser", "command", "config"})


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
    if args.mesh:
        if args.grid or args.model:
            raise ValueError("--mesh renders the map; it takes no --grid or --model")
        emap = oracle_entropy_predictor(normalize_to_unit_cube(load_off(args.mesh)))
    elif args.grid and args.model:
        emap = _load_model(args.model, KnnEntropyPredictor).predict_map(load_grid(args.grid))
    else:
        raise ValueError("provide --grid and --model, or --mesh")
    write_map_csv(emap, args.out)
    print(f"wrote entropy map to {args.out}")
    return 0


def _cmd_best_views(args) -> int:
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    peaks = find_peaks(read_map_csv(args.map))[: args.top]
    lines = []
    for p in peaks:
        view = Viewpoint(p.ring, p.azimuth)
        lines.append(
            f"{view.index:2d} ring={p.ring} azimuth={p.azimuth} "
            f"phi={view.phi_deg} theta={view.theta_deg} entropy={p.value:.6f}"
        )
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _load_model(path: str, kind: type[KnnEntropyPredictor] | type[KnnViewPredictor]):
    """Load a saved predictor and check that it is of the given kind."""
    model = load_predictor(path)
    if not isinstance(model, kind):
        noun = "an entropy" if kind is KnnEntropyPredictor else "a view"
        raise ValueError(f"{path} is not {noun} predictor")
    return model


def _load_view_source(args):
    if bool(args.view_model) == bool(args.predictions):
        raise ValueError("provide exactly one of --view-model or --predictions")
    if args.view_model:
        return _load_model(args.view_model, KnnViewPredictor)
    return read_predictions(args.predictions)


def _load_entropy_source(args):
    """The ``--entropy-model`` predictor; without one, the ground-truth entropies (``"oracle"``)."""
    return _load_model(args.entropy_model, KnnEntropyPredictor) if args.entropy_model else "oracle"


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
    if not args.view_model:
        # an exchange file scores the clean views, not the noisy renders
        raise ValueError("noise-sweep needs --view-model")
    records = pipeline.read_manifest(args.manifest)
    rows = pipeline.noise_sweep(
        records,
        args.models,
        view_source=_load_model(args.view_model, KnnViewPredictor),
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

    def command(name, func, help):
        """Add subcommand ``name``, which runs ``func``; ``--config`` is its first flag."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value file mirroring the flags of this command")
        p.set_defaults(func=func, _parser=p)
        return p

    p = command("build-dataset", _cmd_build_dataset, "voxelize and render a ModelNet-style mesh tree")
    p.add_argument("--input", required=True, help="model root: category/split/*.off")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--subsample", type=_fraction, default=1.0, help="fraction like 0.25 or 1/3")
    p.add_argument("--seed", type=int, default=0, help="seed of the subsample draw")

    p = command("train-knn", _cmd_train_knn, "train k-NN predictors from a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="directory for entropy_knn.npz and view_knn.npz")
    p.add_argument("--k", type=int, default=5)

    p = command("predict-map", _cmd_predict_map, "predict or compute an entropy map")
    p.add_argument("--grid", help="voxel grid file (with --model)")
    p.add_argument("--model", help="entropy_knn.npz predictor")
    p.add_argument("--mesh", help="OFF mesh to render and measure instead of predicting")
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("best-views", _cmd_best_views, "list entropy-map peaks, best first")
    p.add_argument("--map", required=True, help="entropy map CSV")
    p.add_argument("--top", type=int, default=None, help="keep at most N peaks")
    p.add_argument("--out", help="optional output text file")

    def recognition_flags(p):
        p.add_argument("--entropy-model", help="entropy_knn.npz predictor; without it, the measured entropies")
        p.add_argument("--view-model", help="view_knn.npz predictor")
        p.add_argument("--max-views", type=int, default=None)
        p.add_argument("--fusion", choices=["argmax", "score-sum"], default="argmax")

    p = command("recognize", _cmd_recognize, "fused recognition over the manifest's test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for results.csv")
    recognition_flags(p)
    p.add_argument("--predictions", help="JSON-lines exchange file from an external model (not with --view-model)")

    p = command("evaluate", _cmd_evaluate, "score a results.csv against its manifest")
    p.add_argument("--results", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for the report files")

    p = command("noise-sweep", _cmd_noise_sweep, "accuracy under increasing vertex noise")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True, help="mesh root the manifest was built from")
    p.add_argument(
        "--sigmas",
        type=_sigma_list,
        default=list(pipeline.DEFAULT_SIGMAS),
        help="comma-separated noise levels",
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the vertex noise")
    p.add_argument("--out", required=True)
    recognition_flags(p)

    p = command("heatmap", _cmd_heatmap, "render an entropy map CSV as a PGM heatmap")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True, help="output PGM path (CSV sidecar written alongside)")

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str] | None) -> None:
    """Make the values of the command's ``--config`` file its defaults.

    Defaults are converted with each flag's type, and an explicit flag wins.
    A file may supply a flag the command requires, so this parse, which only
    finds the command and its file, checks for no flag; it prints nothing and
    leaves usage errors and ``--help`` to the parse that follows.
    """
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    required = [a for p in subcommands.choices.values() for a in p._actions if a.required]
    for action in required:
        action.required = False
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(argv)
    except SystemExit:
        return
    finally:
        for action in required:
            action.required = True
    if not args.config:
        return
    config = _read_config(args.config)
    for key in _INTERNAL_DESTS.intersection(config):
        raise ValueError(f"{args.config}: {key!r} is not a flag that a config file can set")
    supplied = [action for action in args._parser._actions if action.dest in config]
    args._parser.set_defaults(**{action.dest: config[action.dest] for action in supplied})
    for action in supplied:
        action.required = False


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        _apply_config(parser, argv)
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
