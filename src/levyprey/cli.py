"""Command-line surface: simulate | ensemble | classify | convergence | sweep.

Reads a flat ``key = value`` config (see the config module), runs the
requested operation, and emits plot-ready CSV. Every output file starts with
``#``-prefixed metadata lines recording the preset, explicit overrides, the
seed, step size, and any package-assumed values, so a file is reproducible
from its own header. Numeric fields use 17 significant digits and round-trip
exactly, and no timestamps are embedded: identical runs produce identical
bytes.

Exit codes: 0 success (a hypothesis that fails to hold is still success),
1 usage or configuration error, 2 runtime fault.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

from . import analysis, engine, ensemble, oracle
from .config import ConfigError, RunConfig, parse_config, parse_config_file
from .engine import SimulationError
from .presets import SWEEPS

__all__ = ["main", "entry"]

_FMT = "{:.17g}"  # round-trip exact for doubles


def _num(v) -> str:
    return _FMT.format(float(v))


def _metadata_lines(cfg: RunConfig, command: str, extra: Sequence[tuple[str, str]] = ()) -> list[str]:
    lines = [f"# command = {command}"]
    lines.append(f"# preset = {cfg.preset if cfg.preset else 'none'}")
    for key in sorted(cfg.explicit):
        lines.append(f"# override: {key} = {cfg.values[key]!r}")
    for key in cfg.assumed_keys:
        lines.append(f"# assumed: {key} = {cfg.values[key]!r} (package default)")
    lines.append(f"# seed = {cfg.seed}")
    lines.append(f"# dt = {cfg.values['dt']!r}")
    lines.append(f"# t_end = {cfg.values['t_end']!r}")
    for k, v in extra:
        lines.append(f"# {k} = {v}")
    return lines


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_trajectory(path: str, cfg: RunConfig, traj: engine.Trajectory) -> None:
    meta = _metadata_lines(
        cfg,
        "simulate",
        extra=[
            ("floor_hits", str(traj.floor_hits)),
            ("jump_events", str(traj.jump_events)),
        ],
    )
    rows = [
        ",".join((_num(t), _num(s[0]), _num(s[1]), _num(s[2])))
        for t, s in zip(traj.times, traj.states)
    ]
    _write_lines(path, [*meta, "t,x,y,z", *rows])


_ENSEMBLE_HEADER = "t," + ",".join(
    f"mean_{s},sd_{s},q025_{s},q500_{s},q975_{s}" for s in ("x", "y", "z")
)


def _write_ensemble(
    path: str, cfg: RunConfig, stats: ensemble.EnsembleStats, summary: Sequence[str]
) -> None:
    meta = _metadata_lines(
        cfg,
        "ensemble",
        extra=[
            ("n_reps", str(stats.n_replicates)),
            ("floor_hits_total", str(stats.floor_hits_total)),
        ],
    )
    meta.extend(f"# verify: {line}" for line in summary)
    rows = []
    for i, t in enumerate(stats.stat_times):
        cells = [_num(t)]
        for s in range(3):
            cells.extend(
                (
                    _num(stats.mean[i, s]),
                    _num(stats.sd[i, s]),
                    _num(stats.q025[i, s]),
                    _num(stats.q500[i, s]),
                    _num(stats.q975[i, s]),
                )
            )
        rows.append(",".join(cells))
    _write_lines(path, [*meta, _ENSEMBLE_HEADER, *rows])


def _write_convergence(path: str, cfg: RunConfig, table: oracle.ConvergenceTable) -> None:
    meta = _metadata_lines(cfg, "convergence")
    if table.observed_order is not None:
        meta.append(f"# observed_order = {_num(table.observed_order)}")
    rows = [
        ",".join(
            (
                _num(r.dt),
                _num(r.max_err),
                _num(r.pair_order) if r.pair_order is not None else "",
            )
        )
        for r in table.rows
    ]
    _write_lines(path, [*meta, "dt,max_err,pair_order", *rows])


def _load_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        cfg = parse_config_file(args.config)
    else:
        cfg = parse_config("")
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replaced(seed=args.seed)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _require_out(args: argparse.Namespace, cfg: RunConfig) -> str:
    """Output path: --out wins, then the config's `output` key."""
    out = args.out or cfg.output
    if out:
        return out
    raise ConfigError("an output path is required (--out PATH or 'output =' in the config)")


def _simulate(cfg: RunConfig) -> engine.Trajectory:
    return engine.simulate(
        cfg.to_params(), cfg.to_noise(), cfg.to_delays(), cfg.to_history(), cfg.to_step_config()
    )


def _ensemble(cfg: RunConfig) -> tuple[ensemble.EnsembleStats, list[str]]:
    """Run the replicates, classify, and verify; returns the stats and the
    summary lines: predicted regime, verdict, then the verification details."""
    p, n, d = cfg.to_params(), cfg.to_noise(), cfg.to_delays()
    stats = ensemble.run_ensemble(
        p, n, d, cfg.to_history(), cfg.to_step_config(), n_reps=cfg.n_reps, base_seed=cfg.seed
    )
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
    traj = _simulate(cfg)
    _write_trajectory(out, cfg, traj)
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
        dts = [float(v) for v in args.dts.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--dts must be a comma-separated float list, got {args.dts!r}")
    table = oracle.convergence_study(
        cfg.to_params(),
        cfg.to_delays(),
        cfg.to_history(),
        dts,
        t_end=float(cfg.values["t_end"]),
        ref_dt=args.ref_dt,
        seed=cfg.seed,
    )
    _write_convergence(out, cfg, table)
    if table.observed_order is not None:
        print(f"observed order: {table.observed_order:.3f}")
    print(f"wrote {out}")
    return 0


def _sweep_targets(var: str) -> tuple[str, ...]:
    if var == "tau_all":
        return ("tau1", "tau2", "tau3")
    return (var,)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep:
        if args.sweep not in SWEEPS:
            raise ConfigError(
                f"unknown sweep preset {args.sweep!r} (available: {', '.join(sorted(SWEEPS))})"
            )
        preset = SWEEPS[args.sweep]
        var, values = preset.variable, list(preset.values)
        if getattr(args, "config", None):
            base_cfg = None  # user config wins; preset supplies var/values only
        else:
            base_cfg = parse_config(f"preset = {preset.base}\n")
    elif args.var and args.values:
        var = args.var
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--values must be a comma-separated float list, got {args.values!r}")
        base_cfg = None
    else:
        raise ConfigError("sweep requires --sweep NAME or both --var and --values")

    targets = _sweep_targets(var)  # key validity is enforced by replaced() below
    cfg = base_cfg if base_cfg is not None else _load_config(args)
    if base_cfg is not None and getattr(args, "seed", None) is not None:
        cfg = cfg.replaced(seed=args.seed)
    out = _require_out(args, cfg)
    stem = out[:-4] if out.endswith(".csv") else out

    paths = [f"{stem}_{var}={value:g}.csv" for value in values]
    clashes = sorted({p for p in paths if paths.count(p) > 1})
    if clashes:
        raise ConfigError(
            f"sweep values give the same output file name: {', '.join(clashes)}"
        )

    index_rows = []
    for value, path in zip(values, paths):
        cfg_v = cfg.replaced(**{t: value for t in targets})
        if args.mode == "simulate":
            _write_trajectory(path, cfg_v, _simulate(cfg_v))
        else:
            stats, summary = _ensemble(cfg_v)
            # sweep files record the prediction and verdict, not the details
            _write_ensemble(path, cfg_v, stats, summary[:2])
        index_rows.append(f"{var},{value:g},{path}")
        print(f"wrote {path}")

    index_path = f"{stem}_index.csv"
    _write_lines(index_path, ["variable,value,file", *index_rows])
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
