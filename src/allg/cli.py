"""Command-line interface: select, evaluate, grid, ablate, gradcheck.

Every command reads an optional JSON config file (schema_version 1) whose
values individual flags override, and writes timestamp-free artifacts so
identical configs reproduce identical files at a fixed BLAS thread count.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import data
from .data import DATASET_KEYS, standardize
from .errors import AllgError, ConfigError, DataError, NumericalError
from .evaluate import SELECTORS, Protocol, SelectorSpec, check_protocol, run_protocol, summarize
from .gradcheck import run_all
from .model import (NON_NEGATIVE, POSITIVE, VARIANTS, check_options, config_from_options,
                    distinct_list, rule, save_checkpoint)
from .rng import substream
from .training import run_selection, stage1_memo

SCHEMA_VERSION = 1
GRID_AXES = ("alpha", "beta", "lambda")
LOSS_COLUMNS = ("epoch", "recon", "adjacency", "propagation", "selection", "total")

# Key -> annotation tables of the config file's blocks, checked by check_options.
CONFIG_KEYS = {"schema_version": int, "dataset": str | dict, "seed": NON_NEGATIVE, "out": str,
               "subsample": rule(int, ">= 2", lambda v: v >= 2), "model": dict,
               "protocol": dict, "grid": dict, "selectors": tuple[str | dict, ...]}
SELECTOR_KEYS = {"kind": str, "params": dict}
GRID_KEYS = dict.fromkeys(GRID_AXES, distinct_list(POSITIVE))


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    check_options(CONFIG_KEYS, cfg, "config")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")
    return cfg


def _parse_int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _gather(args) -> tuple:
    """Merge config file values with CLI overrides (flags win) and check every block.

    Returns (merged config dict, selector specs, Protocol, grid points), so
    every command refuses the same bad values before it reads the data.
    """
    cfg = _load_config_file(args.config) if args.config else {}
    if isinstance(cfg.get("dataset"), str):
        cfg["dataset"] = {"path": cfg["dataset"]}
    for flag, key in (("dataset", "path"), ("label_column", "label_column")):
        if getattr(args, flag) is not None:
            cfg.setdefault("dataset", {})[key] = getattr(args, flag)
    for key in ("seed", "out", "subsample"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if getattr(args, "budgets", None) is not None:
        cfg.setdefault("protocol", {})["budgets"] = _parse_int_list(args.budgets)
    if getattr(args, "selector", None) is not None:
        cfg["selectors"] = [{"kind": k.strip()} for k in args.selector.split(",") if k.strip()]
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", "allg_out")
    check_options(CONFIG_KEYS, cfg, "config")
    for block, table in (("dataset", DATASET_KEYS), ("model", SELECTORS["allg"][1]),
                         ("protocol", Protocol), ("grid", GRID_KEYS)):
        check_options(table, cfg.get(block, {}), block)
    return cfg, _selector_specs(cfg), Protocol(**cfg.get("protocol", {})), _grid_points(cfg)


def _load_dataset(cfg: dict):
    """The `dataset` block's CSV (a digit-string label column is an index), subsampled.

    load_csv is looked up on the module at call time, so a patch of
    allg.data.load_csv (as the benchmark's tracer makes) sees the call.
    """
    entry = dict(cfg.get("dataset", {}))
    if "path" not in entry:
        raise ConfigError("no dataset given; use --dataset PATH or the config file")
    label = entry.get("label_column")
    if isinstance(label, str) and label.isdigit():
        entry["label_column"] = int(label)
    return _maybe_subsample(data.load_csv(**entry), cfg)


def _maybe_subsample(ds, cfg: dict):
    """Deterministic uniform subsample for smoke-testing large datasets."""
    size = cfg.get("subsample")
    if size is None or size >= ds.n_samples:
        return ds
    keep = np.sort(substream(cfg["seed"], "subsample").permutation(ds.n_samples)[:size])
    return data.take(ds, keep, f"sub{size}")


def _selector_specs(cfg: dict) -> list:
    specs = []
    for entry in cfg.get("selectors", ["random", "kmeans", "dcs", "allg"]):
        entry = {"kind": entry} if isinstance(entry, str) else entry
        check_options(SELECTOR_KEYS, entry, "selectors entry")
        if "kind" not in entry:
            raise ConfigError(f"selectors entry {entry!r} has no 'kind'")
        model = cfg.get("model", {}) if entry["kind"] == "allg" else {}
        specs.append(SelectorSpec(entry["kind"], {**model, **entry.get("params", {})}))
    labels = [s.label for s in specs]
    if not labels or len(set(labels)) != len(labels):
        raise ConfigError(f"config key 'selectors' must be a non-empty list without repeated "
                          f"labels (params 'name' tells two of one kind apart), got {labels}")
    return specs


def _grid_points(cfg: dict) -> list:
    """Every (alpha, beta, lambda) of the `grid` block's axes, each axis sorted."""
    grid = cfg.get("grid", {})
    return list(itertools.product(*(sorted(grid.get(name, [0.1, 1.0, 10.0]))
                                    for name in GRID_AXES)))


def _out_dir(cfg: dict) -> str:
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config key 'out' names no usable directory: {exc}") from exc
    return out


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row; str() keeps every digit of a float."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write(",".join(str(v) for v in row) + "\n")


def _write_report(path, cells) -> None:
    _write_csv(path, ("selector", "classifier", "budget", "seed", "accuracy"),
               [(c.selector, c.classifier, c.budget, c.seed, c.accuracy) for c in cells])


def cmd_select(args) -> int:
    cfg, *_ = _gather(args)
    ds = _load_dataset(cfg)
    if args.m is not None and not 1 <= args.m <= ds.n_samples:
        raise ConfigError(f"--m {args.m} must lie in 1..{ds.n_samples} for this pool")
    std, _, _ = standardize(ds)
    mcfg = config_from_options({**cfg.get("model", {}), "seed": cfg["seed"]}, ds.dim, ds.n_samples)
    out = _out_dir(cfg)
    result, params, history = run_selection(std.features, mcfg)
    _write_csv(os.path.join(out, "ranking.csv"), ("index", "score"),
               zip(result.ranked_indices[:args.m], result.scores))
    _write_csv(os.path.join(out, "losses.csv"), LOSS_COLUMNS,
               [[epoch[k] for k in LOSS_COLUMNS] for epoch in history])
    save_checkpoint(os.path.join(out, "checkpoint.npz"), params, mcfg)
    _write_json(os.path.join(out, "run.json"), {
        "command": "select",
        "dataset": ds.name,
        "n_candidates": ds.n_samples,
        "config": dataclasses.asdict(mcfg),
        "final_losses": result.final_losses,
    })
    print(f"wrote ranking for {ds.n_samples} candidates to {out}/ranking.csv")
    return 0


def _snapshot(out: str, command: str, cfg: dict, dataset_name: str) -> None:
    _write_json(os.path.join(out, "run.json"),
                {"command": command, "dataset": dataset_name, "config": cfg})


def cmd_evaluate(args) -> int:
    cfg, specs, protocol, _ = _gather(args)
    ds = _load_dataset(cfg)
    check_protocol(ds, specs, protocol)
    out = _out_dir(cfg)
    cells = run_protocol(ds, specs, protocol, cfg["seed"])
    summary = summarize(cells)
    _write_report(os.path.join(out, "report.csv"), cells)
    _write_csv(os.path.join(out, "means.csv"),
               ("selector", "classifier", "budget", "mean_accuracy"),
               [(sel, clf, b, mean) for sel, by_clf in summary.items()
                for clf, means in by_clf.items() for b, mean in means["budgets"].items()])
    _write_json(os.path.join(out, "summary.json"), summary)
    _snapshot(out, "evaluate", cfg, ds.name)
    for sel, by_clf in summary.items():
        for clf, means in by_clf.items():
            print(f"{sel} + {clf}: average accuracy {means['average']:.4f}")
    return 0


def cmd_grid(args) -> int:
    cfg, _, protocol, points = _gather(args)
    # One fixed validation seed for the whole sweep.
    protocol = dataclasses.replace(protocol, runs=1)
    specs = [SelectorSpec("allg", {**cfg.get("model", {}), "alpha": alpha, "beta": beta,
                                   "lam": lam}) for alpha, beta, lam in points]
    ds = _load_dataset(cfg)
    for spec in specs:
        check_protocol(ds, [spec], protocol)
    out = _out_dir(cfg)
    rows = []
    with stage1_memo():  # every point has the one run seed, so shares A_0 and the pretrain
        for (alpha, beta, lam), spec in zip(points, specs):
            cells = run_protocol(ds, [spec], protocol, cfg["seed"])
            averages = [means["average"] for means in summarize(cells)["allg"].values()]
            mean = float(sum(averages) / len(averages))
            rows.append((alpha, beta, lam, mean))
            print(f"alpha={alpha} beta={beta} lambda={lam}: mean accuracy {mean:.4f}")
    best = max(rows, key=lambda r: (r[3], (-r[0], -r[1], -r[2])))
    _write_csv(os.path.join(out, "grid.csv"), ("alpha", "beta", "lambda", "mean_accuracy"), rows)
    _write_json(os.path.join(out, "best.json"), {
        "alpha": best[0], "beta": best[1], "lambda": best[2], "mean_accuracy": best[3],
    })
    _snapshot(out, "grid", cfg, ds.name)
    print(f"best: alpha={best[0]} beta={best[1]} lambda={best[2]} ({best[3]:.4f})")
    return 0


def cmd_ablate(args) -> int:
    cfg, _, protocol, _ = _gather(args)
    model = cfg.get("model", {})
    specs = [SelectorSpec("allg", {**model, "variant": v, "name": v}) for v in VARIANTS]
    ds = _load_dataset(cfg)
    check_protocol(ds, specs, protocol)
    out = _out_dir(cfg)
    with stage1_memo():  # a run's variants share A_0; their label-derived seeds differ
        cells = run_protocol(ds, specs, protocol, cfg["seed"])
    summary = summarize(cells)
    _write_report(os.path.join(out, "ablation_report.csv"), cells)
    _write_csv(os.path.join(out, "ablation.csv"),
               ("variant", "classifier", *protocol.budgets, "average"),
               [(variant, clf, *(f"{m:.6f}" for m in means["budgets"].values()),
                 f"{means['average']:.6f}")
                for variant, by_clf in summary.items() for clf, means in by_clf.items()])
    _snapshot(out, "ablate", cfg, ds.name)
    for variant, by_clf in summary.items():
        avgs = [means["average"] for means in by_clf.values()]
        print(f"{variant}: average accuracy {sum(avgs) / len(avgs):.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    out = None if args.out is None else _out_dir({"out": args.out})
    reports = run_all()
    lines = []
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{status} {rep.name}: max relative error {rep.max_rel_err:.3e} "
                     f"(tolerance {rep.tolerance:.0e})")
        failed = failed or not rep.passed
    print("\n".join(lines))
    if out is not None:
        with open(os.path.join(out, "gradcheck.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if failed:
        raise NumericalError("gradient check failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allg",
        description="Unsupervised active learning via learnable graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budgets=False):
        p.add_argument("--config", help="JSON config file (schema_version 1)")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dataset", default=None, help="CSV path")
        p.add_argument("--label-column", dest="label_column", default=None,
                       help="label column name or index")
        p.add_argument("--subsample", type=int, default=None,
                       help="uniformly subsample the dataset to N rows (smoke tests)")
        if budgets:
            p.add_argument("--budgets", default=None, help="comma-separated query budgets")

    p = sub.add_parser("select", help="rank a candidate pool with ALLG")
    common(p)
    p.add_argument("--m", type=int, default=None, help="write only the top-m rows")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="benchmark selectors with classifiers")
    common(p, budgets=True)
    p.add_argument("--selector", default=None, help="comma-separated selector kinds")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="hyperparameter grid search for ALLG")
    common(p, budgets=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate", help="run all ablation variants")
    common(p, budgets=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except AllgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
