"""Command-line entry point.

Subcommands map one-to-one onto the harness operations::

    hughop run            --config cfg.json [--seed N] [--out DIR] [--set k=v ...]
    hughop tune           --config cfg.json [...]
    hughop hug-efficiency --target '{"target":"lg","a":1,"dim":25}' --bs 1,5 --ts 1,5
    hughop stability      --target ... --step 0.1 --steps 10000
    hughop hop-scaling    --target ... --dims 10,50 --lams 1,2,4 --kappas 0.25,0.5
    hughop theorem2       --dim 200 --lam 2 --kappa 1 --iters 100000
    hughop models         cauchit|rasch|spatial [--iterations N] [--out DIR]

Failures exit nonzero after printing a one-line JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import ConfigError, HugHopError
from .harness import (
    ExperimentConfig,
    grid_tune,
    hop_scaling_experiment,
    hug_efficiency_experiment,
    run_chain,
    set_by_path,
    stability_experiment,
    theorem2_experiment,
    write_rows_csv,
)
from .targets import make_target


def _parse_set(values: list[str]) -> dict:
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config", "a config file is required for this subcommand")
    raw = json.loads(Path(args.config).read_text())
    for path, value in _parse_set(args.set).items():
        set_by_path(raw, path, value)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    return ExperimentConfig.from_dict(raw)


def _positive(args, *flags: str) -> None:
    """Raise a :class:`ConfigError` for the first of ``flags`` whose value is not positive."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not value > 0:
            raise ConfigError(flag, f"must be positive, got {value}")


def _positive_list(args, flag: str, kind=float) -> list:
    """The positive numbers of ``kind`` that ``flag`` lists, comma-separated."""
    text = getattr(args, flag[2:])
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(v > 0 for v in values):
        raise ConfigError(flag, f"expected comma-separated positive numbers, got {text!r}")
    return values


def _target_spec(text: str) -> dict:
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ConfigError("--target", "must be a JSON object")
    return spec


def _build_target(spec: dict):
    try:
        return make_target(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError("--target", str(exc))


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    config = _load_config(args)
    _, summary = run_chain(config)
    print(json.dumps(summary.to_dict(), sort_keys=True))
    return 0


def _cmd_tune(args) -> int:
    config = _load_config(args)
    result = grid_tune(config)
    if args.out:
        out = _out_dir(args)
        write_rows_csv(out / "tune_table.csv", result.table, config)
        (out / "best.json").write_text(
            json.dumps({"best": result.best, "score": result.best_score}, sort_keys=True)
        )
    print(json.dumps({"best": result.best, "score": result.best_score}, sort_keys=True))
    return 0


def _cmd_hug_efficiency(args) -> int:
    target = _build_target(_target_spec(args.target))
    if not target.has_exact_sampler:
        raise ConfigError("--target", f"{target.name}: hug efficiency sweep needs exact sampling")
    _positive(args, "--reps")
    rows = hug_efficiency_experiment(
        target,
        n_bounces_grid=_positive_list(args, "--bs", int),
        total_time_grid=_positive_list(args, "--ts"),
        n_reps=args.reps,
        seed=args.seed or 0,
        mode=args.mode,
    )
    write_rows_csv(_out_dir(args) / "hug_efficiency.csv", rows, {"target": args.target})
    print(json.dumps(rows[-1], sort_keys=True))
    return 0


def _cmd_stability(args) -> int:
    target = _build_target(_target_spec(args.target))
    _positive(args, "--step", "--steps")
    result = stability_experiment(target, step=args.step, steps=args.steps, seed=args.seed or 0)
    out = _out_dir(args) / "stability.csv"
    rows = [{"bounce": i + 1, "delta": float(d)} for i, d in enumerate(result["delta"])]
    if rows:
        write_rows_csv(out, rows, {"target": args.target, "step": args.step})
    print(
        json.dumps(
            {
                "steps_recorded": len(result["delta"]),
                "max_abs_delta": float(np.max(np.abs(result["delta"]))) if rows else 0.0,
                "diverged": result["diverged"],
                "failed_at": result["failed_at"],
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_hop_scaling(args) -> int:
    template = _target_spec(args.target)
    dims = _positive_list(args, "--dims", int)
    for dim in dims:
        _build_target({**template, "dim": dim})
    _positive(args, "--iters")
    rows = hop_scaling_experiment(
        template,
        dims=dims,
        lam_grid=_positive_list(args, "--lams"),
        kappa_grid=_positive_list(args, "--kappas"),
        iterations=args.iters,
        seed=args.seed or 0,
    )
    write_rows_csv(_out_dir(args) / "hop_scaling.csv", rows, {"target": args.target})
    print(json.dumps({"cells": len(rows)}, sort_keys=True))
    return 0


def _cmd_theorem2(args) -> int:
    _positive(args, "--dim", "--lam", "--kappa", "--iters")
    result = theorem2_experiment(
        {"dist": "uniform", "low": args.low, "high": args.high},
        dim=args.dim,
        lam=args.lam,
        kappa=args.kappa,
        iterations=args.iters,
        seed=args.seed or 0,
    )
    if args.out:
        (_out_dir(args) / "theorem2.json").write_text(json.dumps(result, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_models(args) -> int:
    from . import model_runs

    if args.iterations is not None:
        _positive(args, "--iterations")
    _positive(args, "--grid-rows", "--grid-cols")
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    if args.model == "cauchit":
        report = model_runs.run_cauchit_comparison(
            seed=seed, iterations=args.iterations, out_dir=out
        )
    elif args.model == "rasch":
        report = model_runs.run_rasch_comparison(
            seed=seed, iterations=args.iterations, out_dir=out
        )
    else:
        report = model_runs.run_spatial_comparison(
            seed=seed,
            sweeps=args.iterations,
            out_dir=out,
            n_rows=args.grid_rows,
            n_cols=args.grid_cols,
        )
    print(json.dumps(report, sort_keys=True, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hughop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hughop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("run", help="run one configured chain")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tune", help="grid-tune kernel parameters with pilot runs")
    common(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("hug-efficiency", help="proposal-quality sweep over (B, T)")
    common(p)
    p.add_argument("--target", required=True, help="target spec as JSON")
    p.add_argument("--bs", default="1,2,5,10", help="comma-separated bounce counts")
    p.add_argument("--ts", default="0.5,1,2", help="comma-separated integration times")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--mode", default="plain", choices=["plain", "hessian"])
    p.set_defaults(func=_cmd_hug_efficiency)

    p = sub.add_parser("stability", help="log-density drift of the raw bounce loop")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=10_000)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("hop-scaling", help="hop ESS(logpi) over (dim, lambda, kappa)")
    common(p)
    p.add_argument("--target", required=True, help="target spec JSON without 'dim'")
    p.add_argument("--dims", default="10,50,100")
    p.add_argument("--lams", default="1,2,4,8,16")
    p.add_argument("--kappas", default="0.25,0.5,1,2")
    p.add_argument("--iters", type=int, default=50_000)
    p.set_defaults(func=_cmd_hop_scaling)

    p = sub.add_parser("theorem2", help="hop acceptance vs. its large-d limit")
    common(p)
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--low", type=float, default=0.5, help="precision-law lower bound")
    p.add_argument("--high", type=float, default=5.0, help="precision-law upper bound")
    p.set_defaults(func=_cmd_theorem2)

    p = sub.add_parser("models", help="simulated-data model comparisons")
    common(p)
    p.add_argument("model", choices=["cauchit", "rasch", "spatial"])
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--grid-rows", type=int, default=8)
    p.add_argument("--grid-cols", type=int, default=8)
    p.set_defaults(func=_cmd_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HugHopError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
