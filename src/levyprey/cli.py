"""Command-line surface: simulate | ensemble | classify | convergence | sweep.

Reads a flat ``key = value`` config (see the config module), runs the
requested operation, and emits plot-ready CSV through _write_csv, whose
docstring describes the ``#`` metadata block that makes each file
reproducible from its own header. No timestamps are embedded: identical
runs produce identical bytes.

Exit codes: 0 success (a hypothesis that fails to hold is still success),
1 usage or configuration error, 2 runtime fault.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Sequence

import numpy as np

from . import analysis, engine, ensemble, oracle, parallel
from .config import ConfigError, RunConfig, parse_config, parse_config_file
from .engine import SimulationError
from .model import FieldError
from .presets import SWEEPS

__all__ = ["main", "entry"]


_BLOCK_ROWS = 2048  # rows formatted by one `%`: a few hundred kB of text


def _write_csv(path: str, cfg: RunConfig, command: str, extra: Sequence[str],
               header: str, table: np.ndarray) -> None:
    """Write one output CSV: the ``#`` metadata block, the header row, the rows.

    The metadata block records ``command``, ``preset`` (``none`` without
    one), one ``override: key = value`` line per explicit key in sorted
    order, one ``assumed: key = value (package default)`` line per preset
    assumption the config did not override, then ``seed``, ``dt`` and
    ``t_end``, and last the command's own ``extra`` lines: ``floor_hits`` and
    ``jump_events`` (simulate), ``n_reps``, ``floor_hits_total`` and the
    ``verify:`` lines (ensemble), ``observed_order`` (convergence).
    ``table`` is a 2-D float array, one CSV row per array row, formatted
    ``_BLOCK_ROWS`` rows at a time by one ``%``. Every number is written with
    17 significant digits, which round-trips a double exactly, a NaN is an
    empty cell (only a missing value is NaN), and lines end in ``\\n``.
    """
    meta = [
        f"command = {command}",
        f"preset = {cfg.preset or 'none'}",
        *(f"override: {k} = {cfg[k]!r}" for k in sorted(cfg.explicit)),
        *(f"assumed: {k} = {cfg[k]!r} (package default)" for k in cfg.assumed_keys),
        f"seed = {cfg.seed}",
        f"dt = {cfg['dt']!r}",
        f"t_end = {cfg['t_end']!r}",
        *extra,
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {line}\n" for line in meta)
        fh.write(header + "\n")
        rowfmt = "%.17g," * (table.shape[1] - 1) + "%.17g\n"
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            text = (rowfmt * len(block)) % tuple(block.ravel().tolist())
            fh.write(text.replace("nan", "") if np.isnan(block).any() else text)


def _write_ensemble(
    path: str, cfg: RunConfig, stats: ensemble.EnsembleStats, summary: Sequence[str]
) -> None:
    extra = [
        f"n_reps = {stats.n_replicates}",
        f"floor_hits_total = {stats.floor_hits_total}",
        *(f"verify: {line}" for line in summary),
    ]
    bands = ("mean", "sd", "q025", "q500", "q975")
    header = ",".join(["t", *(f"{b}_{s}" for s in "xyz" for b in bands)])
    columns = [getattr(stats, b)[:, i] for i in range(3) for b in bands]
    table = np.column_stack((stats.stat_times, *columns))
    _write_csv(path, cfg, "ensemble", extra, header, table)


def _load_config(args: argparse.Namespace, default: str = "") -> RunConfig:
    """--config if given, else the ``default`` config text; then --seed; prints the warnings."""
    cfg = parse_config_file(args.config) if args.config else parse_config(default)
    if args.seed is not None:
        cfg = cfg.replaced(seed=args.seed)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _floats(option: str, text: str) -> list[float]:
    """The values of a comma-separated list; a blank entry is an error."""
    entries = text.split(",")
    if not any(v.strip() for v in entries):
        raise ConfigError(f"{option} must be nonempty: got []")
    try:
        return [float(v) for v in entries]
    except ValueError:
        raise ConfigError(f"{option} must be a comma-separated float list, got {text!r}") from None


def _require_out(args: argparse.Namespace, cfg: RunConfig) -> str:
    """Output path: --out wins, then the config's `output` key."""
    out = args.out or cfg.output
    if out:
        return out
    raise ConfigError("an output path is required (--out PATH or 'output =' in the config)")


def _simulate(path: str, cfg: RunConfig) -> engine.Trajectory:
    """Integrate one path and write it as t,x,y,z."""
    traj = engine.simulate(
        cfg.to_params(), cfg.to_noise(), cfg.to_delays(), cfg.to_history(), cfg.to_step_config()
    )
    extra = [f"floor_hits = {traj.floor_hits}", f"jump_events = {traj.jump_events}"]
    table = np.column_stack((traj.times, traj.states))
    _write_csv(path, cfg, "simulate", extra, "t,x,y,z", table)
    return traj


def _ensemble(cfg: RunConfig) -> tuple[ensemble.EnsembleStats, list[str]]:
    """Run the replicates, classify, and verify; returns the stats and the
    summary lines: predicted regime, verdict, then the verification details."""
    p, n, d = cfg.to_params(), cfg.to_noise(), cfg.to_delays()
    stats = ensemble.run_ensemble(p, n, d, cfg.to_history(), cfg.to_step_config(), cfg.n_reps)
    report = analysis.classify(p, n, d)
    outcome = ensemble.verify_regime(stats, report)
    if outcome.checkable:
        verdict = "PASS" if outcome.passed else "FAIL"
    else:
        verdict = "NOT CHECKABLE"
    summary = [f"predicted = {report.predicted.value}", f"outcome = {verdict}", *outcome.details]
    return stats, summary


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _require_out(args, cfg)
    traj = _simulate(out, cfg)
    print(f"wrote {out} ({len(traj.times)} points, floor_hits={traj.floor_hits})")
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _require_out(args, cfg)
    stats, summary = _ensemble(cfg)
    _write_ensemble(out, cfg, stats, summary)
    for line in summary:
        print(line)
    print(f"wrote {out}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    p, n, d = cfg.to_params(), cfg.to_noise(), cfg.to_delays()
    report = analysis.classify(p, n, d)
    for line in report.trace:
        print(line)
    if report.c1 is not None:
        print(f"c1 = {report.c1!r}")
        print(f"c2 = {report.c2!r}")
        print(f"c3 = {report.c3!r}")
    print(f"c4 = {report.c4!r}")
    print(f"B1 = {report.b1!r}, B2 = {report.b2!r}, B3 = {report.b3!r}")
    if report.lx is not None:
        print(f"Lx = {report.lx!r}, Ly = {report.ly!r}, Lz = {report.lz!r}")
    print(f"predicted: {report.predicted.value}")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _require_out(args, cfg)
    try:
        table = oracle.convergence_study(
            cfg.to_params(),
            cfg.to_delays(),
            cfg.to_history(),
            _floats("--dts", args.dts),
            t_end=cfg["t_end"],
            ref_dt=args.ref_dt,
        )
    except FieldError as exc:  # a step size breaks a rule: name its option
        option = "--ref-dt" if exc.field == "ref_dt" else "--dts"
        if exc.field in ("dt", "ref_dt"):
            raise ConfigError(f"{option} {exc.rule}: got {exc.value!r}") from None
        raise ConfigError(f"{exc.field} {exc.rule} from {option}: got {exc.value!r}") from None
    order = table.observed_order
    extra = [] if order is None else [f"observed_order = {order:.17g}"]
    # a missing pair_order (None) becomes nan, which the writer leaves empty
    rows = np.array([(r.dt, r.max_err, r.pair_order) for r in table.rows], dtype=float)
    _write_csv(out, cfg, "convergence", extra, "dt,max_err,pair_order", rows)
    if order is not None:
        print(f"observed order: {order:.3f}")
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    default = ""
    if args.sweep:
        for option, given in (("--var", args.var), ("--values", args.values)):
            if given is not None:
                raise ConfigError(f"{option} cannot be combined with --sweep, which gives both")
        if args.sweep not in SWEEPS:
            raise ConfigError(
                f"unknown sweep preset {args.sweep!r} (available: {', '.join(sorted(SWEEPS))})"
            )
        preset = SWEEPS[args.sweep]
        var, values = preset.variable, list(preset.values)
        default = f"preset = {preset.base}\n"  # a --config wins; the preset gives var and values
    elif args.var and args.values:
        var, values = args.var, _floats("--values", args.values)
    else:
        raise ConfigError("sweep requires --sweep NAME or both --var and --values")

    cfg = _load_config(args, default)
    out = _require_out(args, cfg)
    stem = out[:-4] if out.endswith(".csv") else out
    targets = ("tau1", "tau2", "tau3") if var == "tau_all" else (var,)
    paths = [f"{stem}_{var}={value:g}.csv" for value in values]
    clashes = sorted({p for p in paths if paths.count(p) > 1})
    if clashes:
        raise ConfigError(f"sweep values give the same output file name: {', '.join(clashes)}")

    # every value is typed and checked before any file is written
    cfgs = [cfg.replaced(**{t: value for t in targets}) for value in values]

    if args.mode == "simulate":
        # the values' paths are stepped and written across the cores; a fault
        # leaves the files and lines that a loop over the values would
        def write(path: str, cfg_v: RunConfig) -> str:
            _simulate(path, cfg_v)
            return path

        work = sum(cfg_v.to_step_config().n_steps for cfg_v in cfgs)
        written, fault = parallel.run_tasks(
            [partial(write, path, cfg_v) for path, cfg_v in zip(paths, cfgs)], work, undo=os.remove
        )
        for path in written:
            print(f"wrote {path}")
        if fault is not None:
            raise fault
    else:
        for cfg_v, path in zip(cfgs, paths):
            stats, summary = _ensemble(cfg_v)
            # sweep files record the prediction and verdict, not the details
            _write_ensemble(path, cfg_v, stats, summary[:2])
            print(f"wrote {path}")

    index_path = f"{stem}_index.csv"
    with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variable,value,file\n")
        fh.writelines(f"{var},{value:g},{path}\n" for value, path in zip(values, paths))
    print(f"wrote {index_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyprey",
        description=(
            "Simulate and analyze a two-prey/one-predator stochastic delay system "
            "with Brownian noise and compensated compound-Poisson jumps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, needs_out: bool = True) -> None:
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--seed", type=int, help="override the RNG seed")
        if needs_out:
            sp.add_argument("--out", help="output CSV path")

    sp = sub.add_parser("simulate", help="integrate one trajectory and write t,x,y,z CSV")
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("ensemble", help="run replicates, write stats CSV, verify the regime")
    common(sp)
    sp.set_defaults(func=_cmd_ensemble)

    sp = sub.add_parser("classify", help="evaluate every regime threshold and print the trace")
    common(sp, needs_out=False)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("convergence", help="noise-off step-size study against the reference solver")
    common(sp)
    sp.add_argument(
        "--dts",
        default="1e-2,5e-3,2.5e-3",
        help="descending comma-separated step sizes (default %(default)s)",
    )
    sp.add_argument("--ref-dt", type=float, default=None, help="reference solver step size")
    sp.set_defaults(func=_cmd_convergence)

    sp = sub.add_parser("sweep", help="repeat simulate/ensemble over a swept parameter")
    common(sp)
    sp.add_argument("--sweep", help="sweep preset name (e.g. fig6)")
    sp.add_argument("--var", help="config key to sweep (or tau_all)")
    sp.add_argument("--values", help="comma-separated values")
    sp.add_argument(
        "--mode", choices=("simulate", "ensemble"), default="simulate", help="per-value operation"
    )
    sp.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SimulationError, OSError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
