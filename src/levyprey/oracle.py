"""Independent deterministic reference solver for the noise-free core.

Classic four-stage Runge-Kutta, extended to delays by reading the stored
solution on the grid. Positive delays are whole multiples of dt
(engine.lag_steps), so the delay taps of a step at grid index m, for a lag of
k steps, ask for only three kinds of value:

* step start (stage 1): the stored sample at m - k;
* step end (stage 4): the stored sample at m + 1 - k;
* midpoint (stages 2 and 3): the value at m + 1/2 - k. Before t = 0 it is
  the history's constant; after t = 0 it is a cubic (Lagrange) interpolation
  of stored nodes.

The midpoints are interpolated a smooth piece (see below) at a time. A piece
of gs steps, gs the lags' common divisor, is stored in full at the step that
ends it; a positive lag is at least gs steps long, so no midpoint of the piece
is read before then. Each midpoint is computed once: stages 2 and 3 share it,
and so do the two lags that read a series (x at k1 and k3, y at k2 and k3).
The query sits half a step from its nearest nodes, so the interpolation
weights depend only on its offset from the stencil's first node and on the
stencil's size: _WEIGHTS holds them for the six stencils that occur. All
stencils of a piece have the same number of nodes, so a table built once per
solve holds, per stencil node, every offset's weight and node index, and a
piece's midpoints are one array sum over its gs + 1 nodes, with the IEEE
operations of a scalar sum in its order. A window that drops a piece once no
lag reads it again holds at most kmax + gs midpoints per series (kmax the
longest lag), whatever the horizon, plus the table and O(gs) transient
arrays; the horizon check charges them (_midpoint_bytes).
The stored solution is kept as simulate keeps its grid record
(engine._window): at the start of a piece, once engine._DRAW_CHUNK steps or
more have passed since the last copy, their rows are copied into the
returned path, and the record keeps the kmax + 1 rows a step reads, which
also hold the gs + 1 interpolation nodes of the piece before. Between
copies it grows by less than a chunk and a piece, at most kmax + gs rows,
the bound the midpoints already have.

A zero lag reads the stage value itself, which is ordinary RK4. Two details
keep the observed order near four despite the limited smoothness of delay
problems. Solution kinks propagate from t = 0 at sums of the delays, so they
land on multiples of the delays' common grid divisor and no step straddles
one. And the midpoint stencil stays inside the smooth piece between two such
multiples that holds the query; that piece ends at or before m, because a
positive lag is at least one divisor long, so the stencil only ever reads
stored nodes and never a value of the step being taken (a piece of one or two
steps gives a linear or quadratic stencil).

The rate function is model.drift, on plain floats; the engine's step update
(engine._stepper) computes the same rate in its own operand form (``xd1 *
(1/K1)`` where drift has ``xd1 / K1``) until ROADMAP item 1 merges the two.
Finiteness is checked once per step, on the new state. With the stochastic
engine this solver shares the grid rules (step count, delay taps), the history
fill (engine.init_history), the record window and the path type (a
Trajectory with no jumps and no floor clamps). The integration machinery (RK4
stages and the midpoint interpolation) is separate on purpose, so it can
serve as the engine's convergence oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import engine as _engine
from .model import DelaySpec, FieldError, HistorySpec, ModelParams, NoiseSpec, _in_range, drift

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "solve_deterministic",
    "convergence_study",
]


def _lagrange_weights(s: float, last: int) -> tuple[float, ...]:
    """Lagrange weights of the nodes 0 .. last for the value at s."""
    weights = []
    for a in range(last + 1):
        w = 1.0
        for b in range(last + 1):
            if b != a:
                w *= (s - b) / (a - b)
        weights.append(w)
    return tuple(weights)


# the weights of every midpoint stencil, keyed by (u - lo, hi - lo) for a
# query at u on the nodes lo .. hi: a stencil has two to four nodes and the
# query lies between two of them, half a step from each
_WEIGHTS = {
    (s, last): _lagrange_weights(s, last)
    for s, last in ((0.5, 1), (0.5, 2), (1.5, 2), (0.5, 3), (1.5, 3), (2.5, 3))
}


def _interpolate(series: list[float], at: int, table: list) -> list[float]:
    """The midpoints of the last stored smooth piece, whose first node is
    series[at], summed on arrays a stencil node at a time: 0.0 + w0 * v0 +
    w1 * v1 ..., the scalar sum's IEEE operations in its order."""
    if not table:
        return []
    nodes = np.array(series[at:])
    acc = 0.0
    for weights, index in table:
        acc += weights * nodes[index]
    return acc.tolist()


def _midpoint_bytes(c: _engine.StepConfig, d: DelaySpec) -> int:
    """Bytes solve_deterministic holds beyond simulate's charge
    (engine._trajectory_bytes): kmax + gs midpoints of x and of y, a list
    slot and a float each; the midpoint table, a weight and a node index per
    offset for up to four stencil nodes; and a piece of record growth."""
    ks = _engine.lag_steps(d, c.dt)
    gs = math.gcd(*ks)
    return 2 * 32 * (max(ks) + gs) + (4 * 16 + _engine._ROW_BYTES) * gs


def solve_deterministic(
    p: ModelParams, d: DelaySpec, h: HistorySpec, dt: float, t_end: float
) -> _engine.Trajectory:
    """Integrate the noise-free delayed system over [0, t_end] with RK4.

    Raises SimulationError (a RuntimeError) when the solution stops being
    finite, as the stochastic engine does. The end-of-step check is the only
    one needed: every term of f_x has x as a factor, every term of f_y has y
    and every term of f_z has z, so a non-finite stage value always makes a
    rate component non-finite, and that component enters the step's
    weighted sum. A horizon whose record window, path and midpoints
    (_midpoint_bytes) would be over simulate's limit (engine._check_horizon)
    raises ValueError before anything is allocated.
    """
    c = _engine.StepConfig(dt=dt, t_end=t_end)
    _engine._check_horizon(c, d, midpoints=_midpoint_bytes(c, d))
    n_steps = c.n_steps
    k1, k2, k3 = _engine.lag_steps(d, dt)
    xs, ys, zs = record = _engine.init_history(h, d, c)
    kmax = len(xs) - 1  # the longest lag
    states = np.empty((n_steps + 1, 3))
    states[0] = h.x0, h.y0, h.z0
    written = 0  # the last step whose row is in states
    chunk = _engine._DRAW_CHUNK

    # smooth pieces are bounded by multiples of the common divisor of the lags
    # (with no positive lag the run is one smooth piece, taken a chunk at a
    # time); a series that no positive lag reads needs no midpoints
    gs = math.gcd(k1, k2, k3)
    piece = gs or chunk
    # per offset j in a piece, the stencil of the query at j + 1/2: its first
    # node from the piece's start, and its weights. All of a piece's stencils
    # have min(gs, 3) + 1 nodes, so the table holds, per node i, every
    # offset's weight and the index of its node i
    firsts = [min(max(j - 1, 0), max(0, gs - 3)) for j in range(gs)]
    stencils = [_WEIGHTS[j + 0.5 - f, min(f + 3, gs) - f] for j, f in enumerate(firsts)]
    table = [(np.array(w), np.add(firsts, i)) for i, w in enumerate(zip(*stencils))]
    x_table, y_table = (table if k1 or k3 else []), (table if k2 or k3 else [])
    # the x and y midpoints at n + 1/2 for n = lo - kmax .. lo - 1 while the
    # piece from step lo is taken, the history's constant first
    xm, ym = [h.x0] * kmax, [h.y0] * kmax

    def reads(mids: list[float], k: int):
        # lag k's midpoints over one piece; a zero lag reads the stage value
        return mids[kmax - k:kmax - k + gs] if k else repeat(0.0)

    half, sixth = dt / 2.0, dt / 6.0
    for lo in range(0, n_steps, piece):
        if lo - written >= chunk:
            # the pieces since the last copy go into the path, and the record
            # keeps its window, which holds the piece before's nodes
            _engine._window(record, states, written + 1, lo + 1, kmax + 1)
            written = lo
        if lo:
            # the piece before is stored, its first node gs rows before the
            # last, and a lag of k >= gs steps first reads it at step
            # lo - gs + k >= lo; the oldest is read no more
            xm += _interpolate(xs, len(xs) - 1 - gs, x_table)
            ym += _interpolate(ys, len(ys) - 1 - gs, y_table)
            del xm[:gs], ym[:gs]
        taps = zip(reads(xm, k1), reads(ym, k2), reads(xm, k3), reads(ym, k3))
        base = len(xs) - 1 - lo  # the record index of t = 0
        for i, (xm1, ym2, xm3, ym3) in zip(range(lo, min(lo + piece, n_steps)), taps):
            m = base + i
            x0, y0, z0 = xs[m], ys[m], zs[m]
            # step start: xs[m - 0] is x0 itself, so zero lags need no care here
            f1 = drift(x0, y0, z0, xs[m - k1], ys[m - k2], xs[m - k3], ys[m - k3], p)

            # midpoints (stages 2 and 3); a zero lag reads the stage value
            x1, y1, z1 = x0 + half * f1[0], y0 + half * f1[1], z0 + half * f1[2]
            f2 = drift(x1, y1, z1, xm1 if k1 else x1, ym2 if k2 else y1, xm3 if k3 else x1,
                       ym3 if k3 else y1, p)

            x2, y2, z2 = x0 + half * f2[0], y0 + half * f2[1], z0 + half * f2[2]
            f3 = drift(x2, y2, z2, xm1 if k1 else x2, ym2 if k2 else y2, xm3 if k3 else x2,
                       ym3 if k3 else y2, p)

            # step end: stored samples, since m + 1 - k <= m for a positive lag
            e = m + 1
            x3, y3, z3 = x0 + dt * f3[0], y0 + dt * f3[1], z0 + dt * f3[2]
            f4 = drift(x3, y3, z3, xs[e - k1] if k1 else x3, ys[e - k2] if k2 else y3,
                       xs[e - k3] if k3 else x3, ys[e - k3] if k3 else y3, p)

            nx = x0 + sixth * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0])
            ny = y0 + sixth * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1])
            nz = z0 + sixth * (f1[2] + 2.0 * f2[2] + 2.0 * f3[2] + f4[2])
            if not (math.isfinite(nx) and math.isfinite(ny) and math.isfinite(nz)):
                raise _engine.SimulationError(
                    f"reference solver produced non-finite state at t={(i + 1) * dt:g}"
                )
            xs.append(nx)
            ys.append(ny)
            zs.append(nz)

    _engine._window(record, states, written + 1, n_steps + 1, kmax + 1)
    return _engine._path(states, dt, jump_events=0, floor_hits=0)


@dataclass(frozen=True)
class ConvergenceRow:
    dt: float
    max_err: float
    pair_order: float | None  # order estimate against the previous (coarser) row


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    observed_order: float | None  # least-squares slope of log(err) vs log(dt)


def _order_table(dts: list[float], errs: list[float]) -> ConvergenceTable:
    rows: list[ConvergenceRow] = []
    for i, (dt, err) in enumerate(zip(dts, errs)):
        pair = None
        if i > 0 and err > 0 and errs[i - 1] > 0:
            pair = math.log(errs[i - 1] / err) / math.log(dts[i - 1] / dt)
        rows.append(ConvergenceRow(dt=dt, max_err=err, pair_order=pair))
    observed = None
    pts = [(math.log(dt), math.log(err)) for dt, err in zip(dts, errs) if err > 0]
    if len(pts) >= 2:
        lx = np.array([a for a, _ in pts])
        ly = np.array([b for _, b in pts])
        observed = float(np.polyfit(lx, ly, 1)[0])
    return ConvergenceTable(rows=tuple(rows), observed_order=observed)


def _check_step(field: str, dt: float, t_end: float, d: DelaySpec, solver: bool = False) -> None:
    """_check_horizon for one study step, whose size error names ``field``;
    a ``solver`` step is charged solve_deterministic's midpoints too."""
    try:
        c = _engine.StepConfig(dt=dt, t_end=t_end)
        _engine._check_horizon(c, d, "raise it, or lower t_end or the delays",
                               _midpoint_bytes(c, d) if solver else 0)
    except FieldError:
        raise
    except ValueError as exc:
        raise FieldError("convergence_study", field, f"makes the {exc}", dt) from None


def convergence_study(
    p: ModelParams,
    d: DelaySpec,
    h: HistorySpec,
    dt_list: list[float],
    t_end: float,
    *,
    ref_dt: float | None = None,
) -> ConvergenceTable:
    """Max-norm error of the engine's noise-off path against a fine reference
    solution (ref_dt, by default min(dt_list) / 4), for each step size in
    dt_list, with observed order. A dt_list that is empty or not strictly
    descending, and a dt or ref_dt that breaks the grid rules or the horizon
    limit (simulate's for a dt, solve_deterministic's for ref_dt), raise
    FieldError on "dt" or "ref_dt" before the reference is solved."""
    if len(dt_list) == 0:
        raise FieldError("convergence_study", "dt", "must be nonempty", dt_list)
    if any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise FieldError("convergence_study", "dt", "must be strictly descending", dt_list)
    for dt in dt_list:
        _check_step("dt", dt, t_end, d)
    if ref_dt is None:
        ref_dt = min(dt_list) / 4.0
    _in_range("convergence_study", "ref_dt", ref_dt, strict=True)
    strides = [_engine.grid_steps(dt, ref_dt) for dt in dt_list]
    for dt, k in zip(dt_list, strides):
        if k is None:
            raise FieldError("convergence_study", "ref_dt", f"must divide dt = {dt:g}", ref_dt)
    _check_step("ref_dt", ref_dt, t_end, d, solver=True)
    ref = solve_deterministic(p, d, h, ref_dt, t_end).states
    noise_off = NoiseSpec(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, lam=0.0)
    errs = []
    for dt, k in zip(dt_list, strides):
        states = _engine.simulate(p, noise_off, d, h, _engine.StepConfig(dt=dt, t_end=t_end)).states
        errs.append(float(np.max(np.abs(states - ref[::k]))))
    return _order_table(list(dt_list), errs)
