"""Independent deterministic reference solver for the noise-free core.

Classic four-stage Runge-Kutta, extended to delays by reading the stored
solution on the grid. Positive delays are whole multiples of dt
(engine.lag_steps), so the delay taps of a step at grid index m, for a lag of
k steps, ask for only three kinds of value:

* step start (stage 1): the stored sample at m - k;
* step end (stage 4): the stored sample at m + 1 - k;
* midpoint (stages 2 and 3): the value at m + 1/2 - k. Before t = 0 it comes
  from the initial history function; after t = 0 it is a cubic (Lagrange)
  interpolation of stored nodes.

Each midpoint is computed once. It does not depend on the stage, so stages 2
and 3 share it. And x is read at lags k1 and k3, y at k2 and k3: the shorter
lag of a series computes the value, and the longer lag reads the same value
|k1 - k3| (or |k2 - k3|) steps later. A value is held only when that later
step exists and is dropped when read, so the held values are bounded by the
spread between the lags, not by the horizon. The query sits half a step from
its nearest nodes, so the interpolation weights depend only on the query's
offset from the stencil's first node and on the stencil's size: _WEIGHTS
holds them for the six stencils that occur, and a midpoint costs two to four
multiply-adds.

A zero lag reads the stage value itself, which is ordinary RK4. Two details
keep the observed order near four despite the limited smoothness of delay
problems. Solution kinks propagate from t = 0 at sums of the delays, so they
land on multiples of the delays' common grid divisor and no step straddles
one. And the midpoint stencil stays inside the smooth piece between two such
multiples that holds the query; that piece ends at or before m, because a
positive lag is at least one divisor long, so the stencil only ever reads
stored nodes and never a value of the step being taken (a piece of one or two
steps gives a linear or quadratic stencil).

The rate function is model.drift, on plain floats; the engine's _advance
computes the same rate in its own operand form (``xd1 * (1/K1)`` where drift
has ``xd1 / K1``) until ROADMAP item 2 merges the two. Finiteness is checked
once per step, on the new state. With the stochastic engine this solver
shares the grid rules (step count, delay taps), the history fill
(engine.init_history) and the path type (a Trajectory with no jumps and no
floor clamps). The integration machinery (RK4 stages and the midpoint
interpolation) is separate on purpose, so it can serve as the engine's
convergence oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine as _engine
from .model import DelaySpec, FieldError, HistorySpec, ModelParams, NoiseSpec, _in_range, drift

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "solve_deterministic",
    "convergence_study",
    "rk4_self_convergence",
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


def _midpoint_pairs(value: Callable[[int], float], ka: int, kb: int, n_steps: int):
    """Per step i, (value(i - ka), value(i - kb)) for the two lags ka and kb
    that read one series, 0 for a zero lag. When both are positive, the
    shorter lag computes each value and holds it for the longer one, which
    reads it |ka - kb| steps later; a value is held only when that step
    exists and is dropped when read, so at most |ka - kb| values are held."""
    if not (ka and kb):
        for i in range(n_steps):
            yield (ka and value(i - ka)), (kb and value(i - kb))
        return
    short, spread = min(ka, kb), abs(ka - kb)
    held: deque[float] = deque()
    for i in range(n_steps):
        v = value(i - short)
        if i + spread < n_steps:
            held.append(v)
        w = held.popleft() if i >= spread else value(i - short - spread)
        yield (v, w) if ka <= kb else (w, v)


def solve_deterministic(
    p: ModelParams, d: DelaySpec, h: HistorySpec, dt: float, t_end: float
) -> _engine.Trajectory:
    """Integrate the noise-free delayed system over [0, t_end] with RK4.

    Raises SimulationError (a RuntimeError) when the solution stops being
    finite, as the stochastic engine does. The end-of-step check is the only
    one needed: every term of f_x has x as a factor, every term of f_y has y
    and every term of f_z has z, so a non-finite stage value always makes a
    rate component non-finite, and that component enters the step's
    weighted sum.
    """
    c = _engine.StepConfig(dt=dt, t_end=t_end)
    k1, k2, k3 = _engine.lag_steps(d, dt)
    xs, ys, zs = _engine.init_history(h, d, c)
    base = len(xs) - 1  # index of t = 0

    # smooth pieces are bounded by multiples of the common divisor of the lags
    gs = math.gcd(k1, k2, k3)

    def mid(series: list[float], which: int, n: int) -> float:
        # x (which = 0) or y (1) at t = (n + 1/2)*dt, where n = i - k >= -k
        if n < 0:
            return h.value_at((n + 0.5) * dt)[which]
        # up to four nodes around the query, inside its smooth piece lo .. lo + gs
        lo = n // gs * gs
        first = min(max(n - 1, lo), max(lo, lo + gs - 3))
        last = min(first + 3, lo + gs) - first
        nodes = series[base + first:base + first + last + 1]
        acc = 0.0
        for w, v in zip(_WEIGHTS[n + 0.5 - first, last], nodes):
            acc += w * v
        return acc

    def taps(x: float, y: float, xd1: float, yd2: float, xd3: float, yd3: float):
        # the delayed arguments of one stage; a zero lag reads the stage value
        return (xd1 if k1 else x, yd2 if k2 else y, xd3 if k3 else x, yd3 if k3 else y)

    # the midpoint values of each step, each interpolated once (a zero lag
    # gives 0 here and reads the stage value in taps)
    x_mids = _midpoint_pairs(lambda n: mid(xs, 0, n), k1, k3, c.n_steps)
    y_mids = _midpoint_pairs(lambda n: mid(ys, 1, n), k2, k3, c.n_steps)
    half = dt / 2.0
    sixth = dt / 6.0
    for i, ((xm1, xm3), (ym2, ym3)) in enumerate(zip(x_mids, y_mids)):
        m = base + i
        x0, y0, z0 = xs[m], ys[m], zs[m]
        # step start: xs[m - 0] is x0 itself, so zero lags need no care here
        f1 = drift(x0, y0, z0, xs[m - k1], ys[m - k2], xs[m - k3], ys[m - k3], p)

        mids = (xm1, ym2, xm3, ym3)
        x1, y1, z1 = x0 + half * f1[0], y0 + half * f1[1], z0 + half * f1[2]
        f2 = drift(x1, y1, z1, *taps(x1, y1, *mids), p)

        x2, y2, z2 = x0 + half * f2[0], y0 + half * f2[1], z0 + half * f2[2]
        f3 = drift(x2, y2, z2, *taps(x2, y2, *mids), p)

        # step end: stored samples, since m + 1 - k <= m for a positive lag
        e = m + 1
        ends = (k1 and xs[e - k1], k2 and ys[e - k2], k3 and xs[e - k3], k3 and ys[e - k3])
        x3, y3, z3 = x0 + dt * f3[0], y0 + dt * f3[1], z0 + dt * f3[2]
        f4 = drift(x3, y3, z3, *taps(x3, y3, *ends), p)

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

    return _engine.Trajectory.from_grid(xs, ys, zs, base, dt, jump_events=0, floor_hits=0)


@dataclass(frozen=True)
class ConvergenceRow:
    dt: float
    max_err: float
    pair_order: float | None  # order estimate against the previous (coarser) row


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    observed_order: float | None  # least-squares slope of log(err) vs log(dt)

    def errors(self) -> list[float]:
        return [r.max_err for r in self.rows]


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


def _check_step(field: str, dt: float, t_end: float, d: DelaySpec) -> None:
    """_check_horizon for one study step, whose size error names ``field``."""
    try:
        _engine._check_horizon(
            _engine.StepConfig(dt=dt, t_end=t_end), d, "raise it, or lower t_end or the delays"
        )
    except FieldError:
        raise
    except ValueError as exc:
        raise FieldError("convergence_study", field, f"makes the {exc}", dt) from None


def _study(
    p: ModelParams,
    d: DelaySpec,
    h: HistorySpec,
    dt_list: list[float],
    t_end: float,
    ref_dt: float | None,
    states_at: Callable[[float], np.ndarray],
) -> ConvergenceTable:
    """Max-norm error of states_at(dt) against a fine reference solution, per dt.
    Every dt, then ref_dt, is checked against the grid rules and against
    simulate's horizon limit before the reference is solved; a broken one
    raises FieldError on "dt" or "ref_dt"."""
    if len(dt_list) == 0:
        raise ValueError("dt_list must be nonempty")
    if any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ValueError("dt_list must be strictly descending")
    for dt in dt_list:
        _check_step("dt", dt, t_end, d)
    if ref_dt is None:
        ref_dt = min(dt_list) / 4.0
    _in_range("convergence_study", "ref_dt", ref_dt, strict=True)
    strides = [_engine.grid_steps(dt, ref_dt) for dt in dt_list]
    for dt, k in zip(dt_list, strides):
        if k is None:
            raise FieldError("convergence_study", "ref_dt", f"must divide dt = {dt:g}", ref_dt)
    _check_step("ref_dt", ref_dt, t_end, d)
    ref = solve_deterministic(p, d, h, ref_dt, t_end).states
    errs = [float(np.max(np.abs(states_at(dt) - ref[::k]))) for dt, k in zip(dt_list, strides)]
    return _order_table(list(dt_list), errs)


def convergence_study(
    p: ModelParams,
    d: DelaySpec,
    h: HistorySpec,
    dt_list: list[float],
    t_end: float,
    *,
    ref_dt: float | None = None,
    seed: int = 0,
) -> ConvergenceTable:
    """Max-norm error of the engine's noise-off path against the reference,
    for each step size in descending dt_list, with observed order."""
    noise_off = NoiseSpec(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, lam=0.0)

    def engine_states(dt: float) -> np.ndarray:
        cfg = _engine.StepConfig(dt=dt, t_end=t_end, seed=seed)
        return _engine.simulate(p, noise_off, d, h, cfg).states

    return _study(p, d, h, dt_list, t_end, ref_dt, engine_states)


def rk4_self_convergence(
    p: ModelParams,
    d: DelaySpec,
    h: HistorySpec,
    dt_list: list[float],
    t_end: float,
    *,
    ref_dt: float | None = None,
) -> ConvergenceTable:
    """Self-convergence of the reference solver against its own fine-dt run."""
    return _study(
        p, d, h, dt_list, t_end, ref_dt,
        lambda dt: solve_deterministic(p, d, h, dt, t_end).states,
    )
