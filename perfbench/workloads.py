"""Benchmark workloads: generated configs, CLI invocations and output checks.

A workload is a fixed list of ``levyprey`` CLI invocations on configs that
are generated from the workload seed; the program receives only those config
files and ``--seed``. One *pass* runs every invocation once. ``full`` is the
timed size; ``tiny`` runs the same invocations on short horizons, for the
benchmark's own tests.

Checks never rely on the timing code: every invocation must exit 0 and its
outputs must pass the workload's checks (row counts, finite non-negative
values, the workload's invariant). For the default seed at full size the
data rows of every CSV must also match a SHA-256 pinned here.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

NAMES = ("ensemble_long", "ensemble_wide", "sweep_csv", "convergence")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0

# Terminal means of the compensator workload must lie within this many
# standard errors of the exact expectation 10. The three species share one
# jump clock, so their z-scores move together; 4.5 keeps the false-alarm rate
# of a correct program below 1e-5 per seed while a missing compensator shows
# up as |z| of about 70 at full size and about 7 at tiny size.
_Z_MAX = 4.5

# shipped sweep presets on `persist`: name -> (swept key, values)
_SWEEPS = {"fig6": ("tau1", (0.5, 2.0)), "fig8": ("tau3", (0.5, 2.0))}
_CONVERGENCE_DTS = (1e-2, 5e-3, 2.5e-3)

# n_reps and horizon per size; dt is the preset's or the one stated here
_SIZE = {
    "ensemble_long": {"full": {"n_reps": 8, "t_end": 500.0}, "tiny": {"n_reps": 2, "t_end": 5.0}},
    "ensemble_wide": {"full": {"n_reps": 5000, "t_end": 1.0}, "tiny": {"n_reps": 50, "t_end": 1.0}},
    "sweep_csv": {"full": {"t_end": 500.0}, "tiny": {"t_end": 5.0}},
    "convergence": {"full": {"t_end": 10.0}, "tiny": {"t_end": 1.0}},
}

# Digests of CSV data rows (lines not starting with '#') and of stdout, taken
# at full size. Outputs under "any seed" do not depend on the seed.
PINNED: dict[str, dict[str, dict[str, str]]] = {
    "ensemble_long": {
        "seed 0": {"ensemble_long.csv": "a8f56613a0a2494cb38bf149911c730eb309fab1ce30a1f7646d0ad3a0284d3f"},
    },
    "ensemble_wide": {
        "seed 0": {"ensemble_wide.csv": "0539fa408d66f8942b040584cd7d595976f52a1222fd011c0652c33b97f26297"},
    },
    "sweep_csv": {
        "seed 0": {
            "sweep_fig6_tau1=0.5.csv": "7a2065014a061e449995924dddd419eba613752e07cbc9d60a0336ed5d18d916",
            "sweep_fig6_tau1=2.csv": "c9431250f81a6eca17c11e17ca6c3e4beac46a09b7e9fb7c7e9a662c671257be",
            "sweep_fig6_index.csv": "bdb5b72f7aa63334764ede518664576d28624fcf1ed4f9202dddb825c56d84b5",
            "sweep_fig8_tau3=0.5.csv": "be7e89e8c134bf07665f2e455ae79bcbd5384facc232dbbd486c62f0e7d86a22",
            "sweep_fig8_tau3=2.csv": "18b35366d2021e5f2a2b51c9c143be6b926295c3b0bfb5427acefde5e386545a",
            "sweep_fig8_index.csv": "bfcec34c2df22dc95a22dd58a9118e002aa0e14569060984f302ce658e90aa7d",
        },
    },
    "convergence": {
        "any seed": {
            "convergence.csv": "b65b7cceee840af6a501be51eefd7bafa0d32f988dcb93495e834af028e9b6cb",
            "classify.1.stdout": "2360310973478e509c79e4d60a075f66ef2d3326bcd73e534e409601b8583899",
        },
    },
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, the CSVs it writes, and its output check.

    ``check(workdir, stdout)`` returns a list of problems, empty when the
    outputs are correct.
    """

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[str, str], list[str]]


@dataclass(frozen=True)
class Workload:
    configs: dict[str, str]  # file name -> text, written into the work dir
    invocations: tuple[Invocation, ...]
    steps_per_pass: int  # engine step-replicates plus oracle RK4 steps
    input_size: str
    pinned: dict[str, str] = field(default_factory=dict)  # output -> expected digest


def data_digest(path: str) -> str:
    """SHA-256 of a CSV's data rows: every line that does not start with '#'."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split(",")
            if not header:
                header = cells
            else:
                rows.append(cells)
    return header, rows


def _numeric_table(path: str, n_rows: int) -> tuple[list[str], list[list[float]], list[str]]:
    """Header, rows as floats (NaN for a blank cell), and the problems found:
    wrong row count, ragged rows, non-numeric, non-finite or negative values."""
    name = os.path.basename(path)
    if not os.path.isfile(path):
        return [], [], [f"{name}: not written"]
    header, cells = _read_table(path)
    problems = []
    if len(cells) != n_rows:
        problems.append(f"{name}: {len(cells)} data rows, expected {n_rows}")
    rows: list[list[float]] = []
    for i, row in enumerate(cells):
        if len(row) != len(header):
            problems.append(f"{name}: row {i} has {len(row)} cells, header has {len(header)}")
            break
        try:
            values = [float(c) if c else math.nan for c in row]
        except ValueError:
            problems.append(f"{name}: row {i} is not numeric: {row}")
            break
        bad = [v for v, c in zip(values, row) if c and not (math.isfinite(v) and v >= 0.0)]
        if bad:
            problems.append(f"{name}: row {i} has a non-finite or negative value {bad[0]!r}")
            break
        rows.append(values)
    return header, rows, problems


def _n_steps(t_end: float, dt: float) -> int:
    return max(1, int(round(t_end / dt)))


def _stat_points(n_steps: int) -> int:
    """Rows of an ensemble CSV: the stats grid caps at 2001 points plus the endpoint."""
    n_points = n_steps + 1
    stride = max(1, math.ceil(n_points / 2001))
    return len(range(0, n_points, stride)) + (0 if (n_points - 1) % stride == 0 else 1)


def _expect_lines(stdout: str, lines: tuple[str, ...]) -> list[str]:
    have = set(stdout.splitlines())
    return [f"stdout lacks {line!r}" for line in lines if line not in have]


def _ensemble_long(seed: int, n_reps: int, t_end: float) -> Workload:
    dt = 0.01
    n = _n_steps(t_end, dt)
    out = "ensemble_long.csv"

    def check(workdir: str, stdout: str) -> list[str]:
        _, _, problems = _numeric_table(os.path.join(workdir, out), _stat_points(n))
        return problems + _expect_lines(stdout, ("predicted = AllPersist", "outcome = PASS"))

    cfg = (
        f"preset = persist\nt_end = {t_end!r}\ndt = {dt!r}\nn_reps = {n_reps}\n"
        f"seed = {seed}\noutput = {out}\n"
    )
    return Workload(
        configs={"ensemble_long.cfg": cfg},
        invocations=(
            Invocation(("ensemble", "--config", "ensemble_long.cfg", "--seed", str(seed)), (out,), check),
        ),
        steps_per_pass=n_reps * n,
        input_size=f"persist, T = {t_end:g}, dt = {dt:g}, {n_reps} replicates x {n} steps per pass",
    )


def _ensemble_wide(seed: int, n_reps: int, t_end: float) -> Workload:
    dt = 0.1
    n = _n_steps(t_end, dt)
    out = "ensemble_wide.csv"

    def check(workdir: str, stdout: str) -> list[str]:
        header, rows, problems = _numeric_table(os.path.join(workdir, out), n + 1)
        if problems or not rows:
            return problems
        last = dict(zip(header, rows[-1]))
        for s in "xyz":
            se = last[f"sd_{s}"] / math.sqrt(n_reps)
            z = abs(last[f"mean_{s}"] - 10.0) / se if se > 0 else math.inf
            if not z < _Z_MAX:
                problems.append(f"terminal mean_{s} = {last[f'mean_{s}']!r} is {z:.2f} SE from 10")
        return problems + _expect_lines(stdout, ("outcome = NOT CHECKABLE",))

    # criterion 07: zero rates and sigma, so only the compensated jumps act
    zero = ("r1", "r2", "alpha1", "alpha2", "alpha3", "beta", "delta", "a1", "a2",
            "sigma1", "sigma2", "sigma3", "tau1", "tau2", "tau3")
    cfg = "".join(f"{k} = 0\n" for k in zero) + (
        "K1 = 1\nK2 = 1\nq1 = -0.04\nq2 = -0.006\nq3 = -0.008\nlambda = 1\n"
        f"x0 = 10\ny0 = 10\nz0 = 10\ndt = {dt!r}\nt_end = {t_end!r}\nn_reps = {n_reps}\n"
        f"seed = {seed}\noutput = {out}\n"
    )
    return Workload(
        configs={"ensemble_wide.cfg": cfg},
        invocations=(
            Invocation(("ensemble", "--config", "ensemble_wide.cfg", "--seed", str(seed)), (out,), check),
        ),
        steps_per_pass=n_reps * n,
        input_size=f"compensator config, T = {t_end:g}, dt = {dt:g}, {n_reps} replicates x {n} steps per pass",
    )


def _sweep_csv(seed: int, t_end: float) -> Workload:
    dt = 0.01
    n = _n_steps(t_end, dt)
    configs: dict[str, str] = {}
    invocations = []
    for sweep, (var, values) in _SWEEPS.items():
        stem = f"sweep_{sweep}"
        paths = tuple(f"{stem}_{var}={v:g}.csv" for v in values)
        index = f"{stem}_index.csv"

        def check(workdir: str, stdout: str, paths=paths, index=index, var=var) -> list[str]:
            problems = []
            for path in paths:
                _, rows, found = _numeric_table(os.path.join(workdir, path), n + 1)
                problems += found
                if not found and rows and rows[-1][0] != n * dt:
                    problems.append(f"{path}: ends at t = {rows[-1][0]!r}, expected {n * dt!r}")
            index_path = os.path.join(workdir, index)
            listed = [r[2] for r in _read_table(index_path)[1]] if os.path.isfile(index_path) else []
            if listed != list(paths):
                problems.append(f"{index}: lists {listed}, expected {list(paths)} for {var}")
            return problems

        cfg_name = f"{stem}.cfg"
        configs[cfg_name] = f"preset = persist\nt_end = {t_end!r}\nseed = {seed}\noutput = {stem}.csv\n"
        argv = ("sweep", "--config", cfg_name, "--sweep", sweep, "--mode", "simulate", "--seed", str(seed))
        invocations.append(Invocation(argv, (*paths, index), check))
    n_paths = sum(len(values) for _, values in _SWEEPS.values())
    return Workload(
        configs=configs,
        invocations=tuple(invocations),
        steps_per_pass=n_paths * n,
        input_size=(
            f"sweeps {'+'.join(_SWEEPS)} on persist, T = {t_end:g}, dt = {dt:g}, "
            f"{n_paths} single paths x {n} steps per pass, each written at full resolution"
        ),
    )


def _convergence(seed: int, t_end: float) -> Workload:
    out = "convergence.csv"
    dts = ",".join(f"{dt:g}" for dt in _CONVERGENCE_DTS)
    ref_dt = min(_CONVERGENCE_DTS) / 4.0  # the oracle's default reference step

    def check_convergence(workdir: str, stdout: str) -> list[str]:
        _, _, problems = _numeric_table(os.path.join(workdir, out), len(_CONVERGENCE_DTS))
        orders = [line.split(":", 1)[1] for line in stdout.splitlines() if line.startswith("observed order:")]
        if len(orders) != 1 or not 0.8 <= float(orders[0]) <= 1.2:
            problems.append(f"observed order {orders} not in [0.8, 1.2]")
        return problems

    def check_classify(workdir: str, stdout: str) -> list[str]:
        return _expect_lines(stdout, ("predicted: Indeterminate",))

    cfg = f"preset = fig3\nt_end = {t_end!r}\nseed = {seed}\noutput = {out}\n"
    common = ("--config", "convergence.cfg", "--seed", str(seed))
    engine_steps = sum(_n_steps(t_end, dt) for dt in _CONVERGENCE_DTS)
    rk4_steps = _n_steps(t_end, ref_dt)
    return Workload(
        configs={"convergence.cfg": cfg},
        invocations=(
            Invocation(("convergence", *common, "--dts", dts), (out,), check_convergence),
            Invocation(("classify", *common), (), check_classify),
        ),
        steps_per_pass=engine_steps + rk4_steps,
        input_size=(
            f"fig3, T = {t_end:g}, engine dts {dts} ({engine_steps} steps) against "
            f"RK4 at dt = {ref_dt:g} ({rk4_steps} steps), then classify"
        ),
    )


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's configs, invocations and checks for one seed and size."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (one of {', '.join(NAMES)})")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (one of {', '.join(SIZES)})")
    builders = {
        "ensemble_long": _ensemble_long,
        "ensemble_wide": _ensemble_wide,
        "sweep_csv": _sweep_csv,
        "convergence": _convergence,
    }
    pinned: dict[str, str] = {}
    if size == "full":
        pins = PINNED[name]
        pinned = dict(pins.get("any seed", {}))
        if seed == DEFAULT_SEED:
            pinned.update(pins.get(f"seed {DEFAULT_SEED}", {}))
    return replace(builders[name](seed, **_SIZE[name][size]), pinned=pinned)
