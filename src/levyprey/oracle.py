"""Independent deterministic reference solver for the noise-free core.

Classic four-stage Runge-Kutta, extended to delays by interpolating the
stored solution at the stage times. Two details keep the observed order near
four despite the limited smoothness of delay problems:

* positive delays must be whole multiples of dt (engine.lag_steps), so
  solution kinks (which propagate from t = 0 at sums of the delays) land on
  grid nodes and no step straddles one;
* the cubic interpolation stencil used for mid-step delay taps is confined
  to the smooth piece containing the query: pieces are bounded by multiples
  of the delays' common grid divisor, and queries before t = 0 evaluate the
  initial history function directly.

Zero delays degenerate to ordinary RK4 (stage values feed back into the
taps). With the stochastic engine this solver shares the model's rate
function, the grid rules (step count, delay taps, grid tolerance), the
history fill (engine.init_history and its buffer) and the path type (a
Trajectory with no jumps and no floor clamps). The integration machinery
(RK4 stages and the mid-step interpolation) is separate on purpose, so it
can serve as the engine's convergence oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine as _engine
from .model import (
    DelaySpec,
    DelayedState,
    HistorySpec,
    ModelParams,
    NoiseSpec,
    State,
    drift,
)

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "solve_deterministic",
    "convergence_study",
    "rk4_self_convergence",
]


def _cubic_interp(series: list[float], u: float, lo_bound: int, hi_bound: int) -> float:
    """Lagrange interpolation of grid samples at fractional index u, with the
    stencil confined to node indices [lo_bound, hi_bound]."""
    j = math.floor(u)
    lo = j - 1
    if lo < lo_bound:
        lo = lo_bound
    if lo > hi_bound - 3:
        lo = max(lo_bound, hi_bound - 3)
    hi = min(lo + 3, hi_bound)
    acc = 0.0
    for a in range(lo, hi + 1):
        w = 1.0
        for b in range(lo, hi + 1):
            if b != a:
                w *= (u - b) / (a - b)
        acc += w * series[a]
    return acc


def solve_deterministic(
    p: ModelParams, d: DelaySpec, h: HistorySpec, dt: float, t_end: float
) -> _engine.Trajectory:
    """Integrate the noise-free delayed system over [0, t_end] with RK4.

    Raises SimulationError (a RuntimeError) when the solution stops being
    finite, as the stochastic engine does.
    """
    c = _engine.StepConfig(dt=dt, t_end=t_end)
    k1_lag, k2_lag, k3_lag = _engine.lag_steps(d, dt)

    # the history on the grid; runtime queries at s <= 0 go straight to the
    # history function, so the stored prefix is only read at grid nodes
    buf = _engine.init_history(h, d, c)
    xs, ys, zs = buf.xs, buf.ys, buf.zs
    base = len(xs) - 1  # index of t = 0

    # smooth pieces are bounded by multiples of the common divisor of the lags
    gs = 0
    for k in (k1_lag, k2_lag, k3_lag):
        if k:
            gs = math.gcd(gs, k)

    series = (xs, ys, zs)
    grid_tol = _engine._GRID_TOL

    def tap(which: int, u: float) -> float:
        # u is a fractional grid index; integers are direct samples
        r = round(u)
        if abs(u - r) <= grid_tol:
            return series[which][r]
        if u <= base:
            t = (u - base) * dt
            return h.value_at(t)[which]
        last = len(xs) - 1
        if gs > 0:
            piece = int((u - base) // gs)
            lo_b = base + piece * gs
            hi_b = min(lo_b + gs, last)
        else:
            lo_b, hi_b = base, last
        return _cubic_interp(series[which], u, lo_b, hi_b)

    def delayed_at(u: float, stage: State) -> DelayedState:
        xd1 = stage.x if k1_lag == 0 else tap(0, u - k1_lag)
        yd2 = stage.y if k2_lag == 0 else tap(1, u - k2_lag)
        xd3 = stage.x if k3_lag == 0 else tap(0, u - k3_lag)
        yd3 = stage.y if k3_lag == 0 else tap(1, u - k3_lag)
        return DelayedState(xd1, yd2, xd3, yd3)

    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(c.n_steps):
        m = base + i
        y0 = State(xs[m], ys[m], zs[m])

        try:
            f1 = drift(y0, delayed_at(m, y0), p)

            y1 = State(y0.x + half * f1[0], y0.y + half * f1[1], y0.z + half * f1[2])
            f2 = drift(y1, delayed_at(m + 0.5, y1), p)

            y2 = State(y0.x + half * f2[0], y0.y + half * f2[1], y0.z + half * f2[2])
            f3 = drift(y2, delayed_at(m + 0.5, y2), p)

            y3 = State(y0.x + dt * f3[0], y0.y + dt * f3[1], y0.z + dt * f3[2])
            f4 = drift(y3, delayed_at(m + 1.0, y3), p)
        except ValueError as exc:  # drift rejects a non-finite stage value
            raise _engine.SimulationError(
                f"reference solver produced non-finite stage at t={(i + 1) * dt:g}: {exc}"
            ) from exc

        nx = y0.x + sixth * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0])
        ny = y0.y + sixth * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1])
        nz = y0.z + sixth * (f1[2] + 2.0 * f2[2] + 2.0 * f3[2] + f4[2])
        if not (math.isfinite(nx) and math.isfinite(ny) and math.isfinite(nz)):
            raise _engine.SimulationError(
                f"reference solver produced non-finite state at t={(i + 1) * dt:g}"
            )
        buf.append(nx, ny, nz)

    return buf.trajectory(base, jump_events=0, floor_hits=0)


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


def _max_err_on_coarse_grid(
    coarse_states: np.ndarray, coarse_dt: float, ref: _engine.Trajectory
) -> float:
    k = _engine.grid_steps(coarse_dt, ref.dt)
    if k is None:
        raise ValueError(f"reference dt={ref.dt:g} must divide dt={coarse_dt:g}")
    ref_states = ref.states[:: k]
    m = min(len(coarse_states), len(ref_states))
    return float(np.max(np.abs(coarse_states[:m] - ref_states[:m])))


def _study(
    p: ModelParams,
    d: DelaySpec,
    h: HistorySpec,
    dt_list: list[float],
    t_end: float,
    ref_dt: float | None,
    states_at: Callable[[float], np.ndarray],
) -> ConvergenceTable:
    """Max-norm error of states_at(dt) against a fine reference solution, per dt."""
    if len(dt_list) == 0:
        raise ValueError("dt_list must be nonempty")
    if any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ValueError("dt_list must be strictly descending")
    if ref_dt is None:
        ref_dt = min(dt_list) / 4.0
    ref = solve_deterministic(p, d, h, ref_dt, t_end)
    errs = [_max_err_on_coarse_grid(states_at(dt), dt, ref) for dt in dt_list]
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
