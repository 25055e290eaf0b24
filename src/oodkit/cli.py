"""Command-line pipeline: gen-data, train, eval, corrupt-eval, sweep.

Every command is a pure function of its config file, seed, and input
files: rerunning writes byte-identical outputs. Wall-clock timestamps
appear only in manifest.json, never in results or model files.

Exit codes: 0 success, 2 config error, 3 data error, 4 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .datasynth import make_default_benchmark, read_split, write_split
from .metrics import (
    GRID_QUANTITIES,
    accuracy,
    classify,
    export_decision_grid,
    export_histograms,
    grid_bounds,
    mce,
)
from .nn import MlpModel, ModelFileError, load_model, one_blas_thread, save_model
from .scores import SOFTMAX_SCORES, write_score_dump
from .seeding import STREAM_INIT, derive_seed
from .trainer import (
    TRAIN_SPLITS,
    TrainConfig,
    TrainingDiverged,
    WorkerExited,
    corruption_error_table,
    eval_report,
    eval_splits,
    grid_configs,
    init_model,
    score_populations,
    sweep,
    train,
)

CONFIG_VERSION = 1

# Default output root when --out is omitted; each command appends its name.
OUT_ROOT_ENV = "OODKIT_OUT_ROOT"

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _load_json(path, what: str, version_key: str, keys: tuple[str, ...]) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    if doc.get(version_key) != CONFIG_VERSION:
        raise ConfigError(
            f"{version_key} must be {CONFIG_VERSION}, got {doc.get(version_key)!r}"
        )
    unknown = set(doc) - {version_key, *keys}
    if unknown:
        raise ConfigError(f"unknown keys in {what} {path}: {sorted(unknown)}")
    return doc


def load_config(path) -> dict:
    doc = _load_json(path, "config file", "config_version", ("data", "train", "eval"))
    # no command reads an eval key yet
    _section(doc, "eval", ())
    return doc


# the data section is make_default_benchmark's keyword arguments
DATA_KEYS = {name: param.default for name, param in
             inspect.signature(make_default_benchmark).parameters.items()}


def _section(doc: dict, name: str, known) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(
            f"unknown keys in config section {name!r}: {sorted(unknown)}"
        )
    return dict(section)


def train_config_from(doc: dict, seed_override: int | None = None) -> TrainConfig:
    kwargs = _section(doc, "train", {f.name for f in dataclasses.fields(TrainConfig)})
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(doc: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def build_manifest(
    command: str,
    config_snapshot: dict,
    seeds: dict[str, int],
    out_dir: Path,
    outputs: list[str],
) -> dict:
    """Hash the named output files. No timestamp; write_manifest_file
    adds one to the standalone manifest.json only."""
    entries = {}
    for name in sorted(outputs):
        p = out_dir / name
        entries[name] = {"sha256": _sha256(p), "bytes": p.stat().st_size}
    return {
        "tool": "oodkit",
        "tool_version": __version__,
        "command": command,
        "config": config_snapshot,
        "seeds": seeds,
        "outputs": entries,
    }


def write_manifest_file(command: str, config: dict, seeds: dict[str, int], out_dir: Path,
                        outputs: list[str], hashed: dict | None = None) -> None:
    """manifest.json over outputs plus hashed, the "outputs" of an earlier
    build_manifest, whose files are not hashed again."""
    doc = build_manifest(command, config, seeds, out_dir, outputs)
    doc["outputs"] = dict(sorted({**(hashed or {}), **doc["outputs"]}.items()))
    doc["created_utc"] = datetime.now(timezone.utc).isoformat()
    _dump_json(doc, out_dir / "manifest.json")


def write_results(
    command: str, config: dict, seeds: dict[str, int], out_dir: Path,
    outputs: list[str], name: str, results: dict,
) -> None:
    """Write `results` to `name` with the manifest of `outputs` embedded
    as its last key, then manifest.json, which also covers `name`. Each
    file is hashed once."""
    results["manifest"] = build_manifest(command, config, seeds, out_dir, outputs)
    _dump_json(results, out_dir / name)
    write_manifest_file(command, config, seeds, out_dir, [name],
                        results["manifest"]["outputs"])


def _load_benchmark_dir(data_dir: Path, roles: tuple[str, ...]) -> dict:
    """Read exactly the named splits; every one must exist."""
    missing = [r for r in roles if not (data_dir / f"{r}.csv").exists()]
    if missing:
        raise DataError(
            f"data directory {data_dir} is missing splits: "
            f"{', '.join(m + '.csv' for m in missing)}"
        )
    try:
        return {r: read_split(data_dir / f"{r}.csv", role=r) for r in roles}
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _load_model(path) -> MlpModel:
    try:
        return load_model(path)
    except ModelFileError as exc:
        raise DataError(str(exc)) from exc


def _check_input_dim(model: MlpModel, split) -> None:
    if model.input_dim != split.features.shape[1]:
        raise DataError(
            f"model expects {model.input_dim}-D inputs but data has "
            f"{split.features.shape[1]} columns"
        )


def _resolve_out(arg_out: str | None, command: str) -> Path:
    """--out wins; otherwise $OODKIT_OUT_ROOT/<command>. Neither it nor its
    nearest existing ancestor may be anything but a directory, or the
    command's mkdir, its last step, would fail after all its work."""
    root = os.environ.get(OUT_ROOT_ENV)
    if arg_out is None and not root:
        raise ConfigError(
            f"no output directory: pass --out or set {OUT_ROOT_ENV}"
        )
    out = Path(arg_out) if arg_out is not None else Path(root) / command
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"output directory {out} cannot be made: {existing} "
                          "is not a directory")
    return out


# the least value of every numeric flag, checked before any command runs
FLAG_MINIMUMS = {"--mc-passes": 1, "--histogram-bins": 1, "--grid-resolution": 2,
                 "--workers": 1, "--seed": 0}


def _parse_scores(arg: str) -> tuple[str, ...]:
    kinds = tuple(k.strip() for k in arg.split(",") if k.strip())
    unknown = [k for k in kinds if k not in SOFTMAX_SCORES]
    if unknown:
        raise ConfigError(
            f"unknown score kinds {unknown}; choose from {tuple(SOFTMAX_SCORES)}"
        )
    if not kinds:
        raise ConfigError("--scores must select at least one kind")
    return kinds


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args, out_dir: Path) -> int:
    doc = load_config(args.config)
    section = {**DATA_KEYS, **_section(doc, "data", DATA_KEYS)}
    if args.seed is not None:
        section["seed"] = args.seed
    try:
        benchmark = make_default_benchmark(**section)
    except ValueError as exc:
        raise ConfigError(f"invalid data config: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for role, split in benchmark.items():
        name = f"{role}.csv"
        write_split(split, out_dir / name)
        outputs.append(name)
    write_manifest_file("gen-data", section, {"data": section["seed"]}, out_dir,
                        outputs)
    for name in sorted(outputs):
        print(f"wrote {out_dir / name}")
    return EXIT_OK


def cmd_train(args, out_dir: Path) -> int:
    doc = load_config(args.config)
    config = train_config_from(doc, seed_override=args.seed)
    benchmark = _load_benchmark_dir(Path(args.data), TRAIN_SPLITS)
    model = init_model(config, benchmark["train"].features.shape[1])
    try:
        trained, history = train(config, benchmark, model)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(trained, out_dir / "model.json")
    _dump_json(history.to_dict(), out_dir / "history.json")
    write_manifest_file(
        "train",
        dataclasses.asdict(config),
        {"train": config.seed, "init": derive_seed(config.seed, STREAM_INIT)},
        out_dir,
        ["model.json", "history.json"],
    )
    best = history.records[history.best_epoch - 1]
    print(
        f"trained {config.objective} for {config.epochs} epochs; "
        f"best epoch {history.best_epoch} "
        f"(val acc {best.val_accuracy:.2f}%, "
        f"val entropy AUC {best.val_entropy_auc:.2f})"
    )
    print(f"wrote {out_dir / 'model.json'}")
    return EXIT_OK


def cmd_eval(args, out_dir: Path) -> int:
    score_kinds = _parse_scores(args.scores)
    model = _load_model(args.model)
    data_dir = Path(args.data)
    benchmark = _load_benchmark_dir(data_dir, eval_splits(args.mahalanobis))
    test_id, test_ood = benchmark["test_id"], benchmark["test_ood"]
    _check_input_dim(model, test_id)

    try:
        pops, id_samples = score_populations(
            model,
            test_id,
            test_ood,
            mc_passes=args.mc_passes,
            seed=args.seed,
            train_split=benchmark.get("train"),
        )
        report = eval_report(test_id, pops, id_samples, args.mc_passes)
    except ValueError as exc:
        # a train split the Mahalanobis fit cannot use, or overflowing scores
        raise DataError(f"cannot evaluate {args.model} on {data_dir}: {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    # --scores narrows the exported kinds, never the results JSON
    exported = {
        kind: pair for kind, pair in pops.items()
        if kind in score_kinds or kind == "mahalanobis"
    }
    for kind, (s_id, s_ood) in sorted(exported.items()):
        name = f"scores_{kind}.csv"
        write_score_dump(out_dir / name, s_id, s_ood)
        outputs.append(name)
    export_histograms(exported, args.histogram_bins, out_dir / "histograms.csv")
    outputs.append("histograms.csv")

    if model.input_dim == 2:
        bounds = grid_bounds(np.concatenate([test_id.features, test_ood.features]))
        paths = {q: out_dir / f"grid_{q}.csv" for q in GRID_QUANTITIES}
        export_decision_grid(model, bounds, args.grid_resolution, paths)
        outputs.extend(p.name for p in paths.values())

    results = {
        "accuracy": round(report.id_accuracy, 2),
        "auc": {kind: round(auc, 2) for kind, auc in report.auc.items()},
        "warnings": report.warnings,
    }
    config = {
        "model": str(args.model),
        "data": str(args.data),
        "mc_passes": args.mc_passes,
        "mahalanobis": args.mahalanobis,
        "scores": ",".join(score_kinds),
        "grid_resolution": args.grid_resolution,
        "histogram_bins": args.histogram_bins,
    }
    write_results("eval", config, {"eval": args.seed}, out_dir, outputs,
                  "results.json", results)

    print(f"accuracy: {results['accuracy']:.2f}%")
    for kind, val in results["auc"].items():
        print(f"auc[{kind}]: {val:.2f}")
    print(f"wrote {out_dir / 'results.json'}")
    return EXIT_OK


def cmd_corrupt_eval(args, out_dir: Path) -> int:
    model = _load_model(args.model)
    data_dir = Path(args.data)
    benchmark = _load_benchmark_dir(data_dir, ("test_id",))
    test_id = benchmark["test_id"]
    _check_input_dim(model, test_id)
    if test_id.features.shape[1] != 2:
        raise DataError(
            "the corruption suite needs 2-D features (rotate is planar), but "
            f"{data_dir / 'test_id.csv'} has {test_id.features.shape[1]} columns"
        )
    try:
        clean_error = round(
            100.0 - accuracy(classify(model, test_id.features), test_id.labels), 2
        )
        table = corruption_error_table(model, test_id, args.seed)
    except ValueError as exc:
        # a model whose outputs overflow
        raise DataError(f"cannot evaluate {args.model} on {data_dir}: {exc}") from exc
    rounded = {
        kind: {str(sev): round(err, 2) for sev, err in row.items()}
        for kind, row in table.items()
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "clean_error": clean_error,
        "errors": rounded,
        "mce": round(mce(table), 2),
        "warnings": [],
    }
    config = {"model": str(args.model), "data": str(args.data)}
    write_results("corrupt-eval", config, {"corrupt": args.seed}, out_dir, [],
                  "corruption_report.json", results)
    print(f"clean error: {clean_error:.2f}%")
    print(f"mCE: {results['mce']:.2f}")
    print(f"wrote {out_dir / 'corruption_report.json'}")
    return EXIT_OK


def cmd_sweep(args, out_dir: Path) -> int:
    doc = load_config(args.config)
    base_config = train_config_from(doc, seed_override=args.seed)
    grid = _load_json(args.grid, "grid file", "grid_version", ("grid",)).get("grid")
    if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
        raise ConfigError("grid file must contain a 'grid' list of objects")

    try:
        grid_configs(base_config, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    benchmark = _load_benchmark_dir(Path(args.data), TRAIN_SPLITS)
    try:
        best_config, best_model, rows = sweep(
            base_config, grid, benchmark, workers=args.workers
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(best_model, out_dir / "model.json")
    # the validation metrics are the rows' only floats
    leaderboard = {"rows": [
        {k: round(v, 2) if isinstance(v, float) else v
         for k, v in row.to_dict().items()}
        for row in rows
    ]}
    _dump_json(leaderboard, out_dir / "leaderboard.json")
    _dump_json(dataclasses.asdict(best_config), out_dir / "best_config.json")
    write_manifest_file(
        "sweep",
        dataclasses.asdict(base_config),
        {"train": base_config.seed},
        out_dir,
        ["model.json", "leaderboard.json", "best_config.json"],
    )
    winner = next(r for r in rows if r.selected)
    print(
        f"swept {len(rows)} points; selected overrides {winner.overrides} "
        f"(val acc {winner.val_accuracy:.2f}%, "
        f"val entropy AUC {winner.val_entropy_auc:.2f})"
    )
    print(f"wrote {out_dir / 'leaderboard.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodkit",
        description="OOD-aware training objectives on a synthetic benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_help = f"output directory (default: ${OUT_ROOT_ENV}/<command>)"

    p = sub.add_parser("gen-data", help="sample the synthetic benchmark splits")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one objective on a data directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained model on the test splits")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--mc-passes", type=int, default=30)
    p.add_argument("--mahalanobis", action="store_true")
    p.add_argument(
        "--scores",
        default=",".join(SOFTMAX_SCORES),
        help="comma-separated score kinds to export as CSV dumps",
    )
    p.add_argument("--grid-resolution", type=int, default=200)
    p.add_argument("--histogram-bins", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "corrupt-eval", help="error table over the corruption suite"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt_eval)

    p = sub.add_parser("sweep", help="grid search over objective knobs")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--workers", type=int, default=1,
        help="grid points trained in parallel; leaderboard is order-independent",
    )
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy warnings are silenced; explicit checks report every blow-up
        with one_blas_thread(), np.errstate(all="ignore"):
            out_dir = _resolve_out(args.out, args.command)
            for flag, least in FLAG_MINIMUMS.items():
                value = getattr(args, flag[2:].replace("-", "_"), None)
                if value is not None and value < least:
                    raise ConfigError(f"{flag} must be >= {least}, got {value}")
            return args.func(args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except WorkerExited as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
