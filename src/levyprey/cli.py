"""Command-line surface: simulate | ensemble | classify | convergence | sweep.

Reads a flat ``key = value`` config (see the config module), runs the
requested operation, and emits plot-ready CSV through _write_csv, whose
docstring describes the ``#`` metadata block that makes each file
reproducible from its own header. No timestamps are embedded: identical
runs produce identical bytes.

The rows are formatted on arrays by _csv_rows and equal ``'%.17g' % v``
per cell byte for byte. A cell with 1e-28 <= |v| < 1e16 is scaled into
[1e16, 1e17) by an exact power of ten in double-double arithmetic (Dekker's
two-product on Veltkamp splits, error below 2**-47) and rounded to 17
digits. A cell whose scaled fraction lies within 1e-9 of 1/2, whose
rounding carries to 1e17, or that lies outside the range or is not finite
is formatted by ``'%.17g' % v`` itself. _write_csv gives the argument.

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


_SLAB_CELLS = 2048  # cells formatted per slab: a few hundred kB of temporaries
_HALF_MARGIN = 1e-9  # a scaled fraction this close to 1/2 goes to the fallback


def _ceil_pow10(e: int) -> float:
    """The smallest double >= 10**e."""
    x = float(f"1e{e}")
    m, d = x.as_integer_ratio()
    below = m < d * 10**e if e >= 0 else m * 10**-e < d
    return float(np.nextafter(x, np.inf)) if below else x


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x split into hi + lo, each with at most 26 significant bits."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# _DECADES[i] is the smallest double >= 10**(i - 28), so a searchsorted gives
# the exact decade of every |v| in [_DECADES[0], 1e16); 10**k = _POW_HI[k] +
# _POW_LO[k] exactly for k <= 44 (5**44 < 2**103)
_DECADES = np.array([_ceil_pow10(e) for e in range(-28, 17)])
_POW_HI = np.array([float(10**k) for k in range(45)])
_POW_LO = np.array([float(10**k - int(h)) for k, h in enumerate(_POW_HI.tolist())])
_POW_HH, _POW_HL = _veltkamp(_POW_HI)
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _field_words() -> tuple[np.ndarray, ...]:
    """The 8-byte words a cell's 48-byte field is assembled from.

    Field layout: byte 0 the sign, 1-5 the "0.000" prefix, 6 the first digit,
    then digits 2 to 17 at bytes 8, 10, ..., 38, each followed by a slot for
    the point, then "e-XX" at 40-43 and the separator at 47; every other
    byte is NUL. Returns, as uint64: ``digits`` (index w + 10000 * strip:
    the four digits of w, trailing zeros blanked when ``strip``), ``marks``
    (5 x 34, column point * 17 + ints: the integer part's zeros to restore
    and, with ``point``, the point after the first ``ints`` digits),
    ``head`` (index (sign * 6 + prefix length) * 10 + first digit) and
    ``tail`` (index the negative exponent, 0 for none).
    """
    w = np.arange(10000, dtype=np.int16)
    pairs = np.zeros((2, 10000, 4, 2), np.uint8)
    for i in range(4):
        pairs[:, :, i, 0] = ord("0") + w // 10 ** (3 - i) % 10
        pairs[1, :, i, 0] *= w % 10 ** (4 - i) != 0
    marks = np.zeros((2, 17, 40), np.uint8)
    for ints in range(1, 17):
        marks[:, ints, 8:6 + 2 * ints:2] = ord("0")
        marks[1, ints, 5 + 2 * ints] = ord(".")
    head = np.zeros((2, 6, 10, 8), np.uint8)
    head[1, :, :, 0] = ord("-")
    for n in range(2, 6):
        head[:, n, :, 1:1 + n] = np.frombuffer(b"0.000"[:n], np.uint8)
    head[:, :, :, 6] = ord("0") + np.arange(10)
    tail = np.zeros((29, 8), np.uint8)
    tail[5:, :2] = np.frombuffer(b"e-", np.uint8)
    tail[5:, 2] = ord("0") + np.arange(5, 29) // 10
    tail[5:, 3] = ord("0") + np.arange(5, 29) % 10
    words = (pairs.reshape(20000, 8), marks.reshape(34, 40), head.reshape(120, 8), tail)
    digits, marks, head, tail = (np.ascontiguousarray(t).view(np.uint64) for t in words)
    return digits.ravel(), marks.T.copy(), head.ravel(), tail.ravel()


_DIGITS, _MARKS, _HEAD, _TAIL = _field_words()
_COMMA, _NEWLINE = np.frombuffer(bytes(7) + b"," + bytes(7) + b"\n", np.uint64)


def _round17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell rounded to 17 significant digits as an integer N in
    [10**16, 10**17) and a decimal exponent x, |v| ~ N * 10**(x - 16), and
    the mask of cells where N is exact; see _write_csv."""
    a = np.abs(v)
    decade = np.searchsorted(_DECADES, a, side="right")
    exact = (decade > 0) & (decade < len(_DECADES))
    a[~exact] = 1.0  # a stand-in, formatted by the fallback
    k = np.where(exact, len(_DECADES) - decade, 16)
    # P = a * 10**k as p + q: p = fl(a * hi) is an integer, q the exact rest
    # of a * hi (Dekker's two-product) plus a * lo
    ah, al = _veltkamp(a)
    hh, hl = _POW_HH[k], _POW_HL[k]
    p = a * _POW_HI[k]
    q = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _POW_LO[k]
    whole = np.floor(q)
    frac = q - whole
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    exact &= (np.abs(frac - 0.5) > _HALF_MARGIN) & (n < _POW10[17])
    n[~exact] = _POW10[16]
    k[~exact] = 16
    return n, 16 - k, exact


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 array: exactly the bytes of ``'%.17g'``
    per cell, ``,`` between cells, ``\\n`` after each row, NaN as an empty cell.

    See _write_csv for why the array path equals ``'%.17g'``.
    """
    rows, cols = block.shape
    v = block.ravel()
    n, x, exact = _round17(v)
    ints = np.where(x >= 0, x + 1, 1)  # digits before the point
    point = (n % _POW10[17 - ints] != 0) & ((x >= 0) | (x < -4))
    prefix = np.where((x < 0) & (x >= -4), 1 - x, 0)  # "0.", "0.0", ...
    first, rest = np.divmod(n, _POW10[16])
    first[v == 0] = 0  # zero's stand-in N is 10**16: "1" becomes "0"
    upper, lower = np.divmod(rest, _POW10[8])
    w1, w2 = np.divmod(upper, 10000)
    w3, w4 = np.divmod(lower, 10000)
    field = np.empty((6, v.size), np.uint64)  # one column per cell
    field[0] = _HEAD[(np.signbit(v) * 6 + prefix) * 10 + first]
    field[1] = _DIGITS[w1 + 10000 * ((w2 == 0) & (lower == 0))]
    field[2] = _DIGITS[w2 + 10000 * (lower == 0)]
    field[3] = _DIGITS[w3 + 10000 * (w4 == 0)]
    field[4] = _DIGITS[w4 + 10000]
    field[5] = _TAIL[np.where(x < -4, -x, 0)]
    mark = point * 17 + ints
    for j in range(5):
        field[j] |= _MARKS[j][mark]
    nan = np.isnan(v)
    slow = np.flatnonzero(~exact & (v != 0) & ~nan)
    if slow.size:  # each left-justified in 40 bytes, its spaces made NUL
        text = np.frombuffer((b"%-40.17g" * slow.size) % tuple(v[slow].tolist()), np.uint8)
        field[:5, slow] = (text * (text != ord(" "))).view(np.uint64).reshape(-1, 5).T
        field[5, slow] = 0
    field[:, nan] = 0
    sep = field[5].reshape(rows, cols)
    sep[:, :-1] |= _COMMA
    sep[:, -1] |= _NEWLINE
    return field.T.tobytes().translate(None, b"\0")


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
    ``table`` is a 2-D float array, one CSV row per array row, and lines end
    in ``\\n``. Every number is written as ``'%.17g'`` writes it, which
    round-trips a double exactly, and a NaN is an empty cell (only a missing
    value is NaN).

    The rows are formatted on arrays, ``_SLAB_CELLS`` cells at a time, by
    _csv_rows, and equal ``'%.17g'`` byte for byte by construction. For a
    cell with 10**-28 <= |v| < 10**16, the decade e of |v| is exact (a
    search among the smallest doubles >= 10**e), so P = |v| * 10**k with
    k = 16 - e lies in [10**16, 10**17). With 10**k = hi + lo exactly
    (k <= 44), P is computed as p + q: p = fl(|v| * hi), an integer since it
    is above 2**53, and q the exact rest of that product (Dekker's
    two-product on Veltkamp splits) plus |v| * lo, within 2**-47 of P - p.
    P rounds to the 17-digit integer N = p + round(q), which is what
    ``%.17g`` rounds to, unless q's fraction lies within ``_HALF_MARGIN``
    (1e-9) of 1/2, where round-half-even on the exact value could differ,
    or N carries into 10**17. Those cells, |v| outside the range, and
    infinities are each formatted by ``'%.17g' % v``; zero is
    ``0`` (``-0`` for -0.0). N's digits come from 4-digit lookup words and
    are laid out by the ``%g`` rules (fixed form for exponents -4 to 16,
    else ``e-XX``; trailing zeros and a bare point dropped) in a 48-byte
    NUL-padded field per cell, and one ``bytes.translate`` per slab deletes
    the NULs.
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
    slab = max(1, _SLAB_CELLS // table.shape[1])
    with open(path, "wb") as fh:
        fh.write("".join([*(f"# {line}\n" for line in meta), f"{header}\n"]).encode())
        for start in range(0, len(table), slab):
            fh.write(_csv_rows(table[start:start + slab]))


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

    # every value is typed and checked, its memory limit too, before any task runs
    cfgs = [cfg.replaced(**{t: value for t in targets}) for value in values]

    def charge(cfg_v: RunConfig) -> tuple[int, int]:  # step-replicates, bytes held over its processes
        c, d = cfg_v.to_step_config(), cfg_v.to_delays()
        if args.mode == "simulate":
            return c.n_steps, engine._check_horizon(c, d)
        _, _, pairs, stats, hold = ensemble._layout(c, d, cfg_v.n_reps)
        return c.n_steps * cfg_v.n_reps, 2 * stats + len(pairs) * hold

    def write(path: str, cfg_v: RunConfig) -> str:
        if args.mode == "simulate":
            _simulate(path, cfg_v)
        else:  # sweep files record the prediction and verdict, not the details
            stats, summary = _ensemble(cfg_v)
            _write_ensemble(path, cfg_v, stats, summary[:2])
        return path

    # a fault leaves the files and lines that a loop over the values would
    works, helds = zip(*map(charge, cfgs))
    tasks = [partial(write, path, cfg_v) for path, cfg_v in zip(paths, cfgs)]
    written, fault = parallel.run_tasks(tasks, sum(works), max(helds), engine._MAX_BYTES, undo=os.remove)
    for path in written:
        print(f"wrote {path}")
    if fault is not None:
        raise fault

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
