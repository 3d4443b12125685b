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
taps). The rate function is model.drift, on plain floats; the engine's
_advance computes the same rate in its own operand form (``xd1 * (1/K1)``
where drift has ``xd1 / K1``) until ROADMAP item 2 merges the two.
Finiteness is checked once per step, on the new state. With the stochastic
engine this solver shares the grid rules (step count, delay taps, grid
tolerance), the history fill (engine.init_history and its buffer) and the
path type (a Trajectory with no jumps and no floor clamps). The integration
machinery (RK4 stages and the mid-step interpolation) is separate on
purpose, so it can serve as the engine's convergence oracle.
"""

from __future__ import annotations

import math
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
    finite, as the stochastic engine does. The end-of-step check is the only
    one needed: every term of f_x has x as a factor, every term of f_y has y
    and every term of f_z has z, so a non-finite stage value always makes a
    rate component non-finite, and that component enters the step's
    weighted sum.
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

    def taps(u: float, x: float, y: float) -> tuple[float, float, float, float]:
        # x(t-tau1), y(t-tau2), x(t-tau3), y(t-tau3) at fractional index u;
        # a zero lag reads the stage value (x, y) itself
        return (
            x if k1_lag == 0 else tap(0, u - k1_lag),
            y if k2_lag == 0 else tap(1, u - k2_lag),
            x if k3_lag == 0 else tap(0, u - k3_lag),
            y if k3_lag == 0 else tap(1, u - k3_lag),
        )

    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(c.n_steps):
        m = base + i
        x0, y0, z0 = xs[m], ys[m], zs[m]
        f1 = drift(x0, y0, z0, *taps(m, x0, y0), p)

        x1, y1, z1 = x0 + half * f1[0], y0 + half * f1[1], z0 + half * f1[2]
        f2 = drift(x1, y1, z1, *taps(m + 0.5, x1, y1), p)

        x2, y2, z2 = x0 + half * f2[0], y0 + half * f2[1], z0 + half * f2[2]
        f3 = drift(x2, y2, z2, *taps(m + 0.5, x2, y2), p)

        x3, y3, z3 = x0 + dt * f3[0], y0 + dt * f3[1], z0 + dt * f3[2]
        f4 = drift(x3, y3, z3, *taps(m + 1.0, x3, y3), p)

        nx = x0 + sixth * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0])
        ny = y0 + sixth * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1])
        nz = z0 + sixth * (f1[2] + 2.0 * f2[2] + 2.0 * f3[2] + f4[2])
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
    Every dt, then ref_dt, is checked against the grid rules (a broken one
    raises FieldError) before the reference is solved."""
    if len(dt_list) == 0:
        raise ValueError("dt_list must be nonempty")
    if any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ValueError("dt_list must be strictly descending")
    for dt in dt_list:
        _engine.StepConfig(dt=dt, t_end=t_end)  # dt > 0, horizon on its grid
        _engine.lag_steps(d, dt)
    if ref_dt is None:
        ref_dt = min(dt_list) / 4.0
    _in_range("convergence_study", "ref_dt", ref_dt, strict=True)
    strides = [_engine.grid_steps(dt, ref_dt) for dt in dt_list]
    for dt, k in zip(dt_list, strides):
        if k is None:
            raise FieldError("convergence_study", "ref_dt", f"must divide dt = {dt:g}", ref_dt)
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
