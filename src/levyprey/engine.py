"""Time stepping for the stochastic delayed system.

The scheme is explicit Euler for the drift, a multiplicative Brownian
increment, and a compensated compound-Poisson jump increment, per species i:

    S' = S + f_i(S, delays)*dt + sigma_i*S*sqrt(dt)*Z_i + q_i*S*(dN - lambda*dt)

with Z_i independent standard normals and dN the Poisson count of jump
arrivals during the step (one shared count for all species by default).
Multiple arrivals within a step collapse into the count, which is exact for
the compensator at first order. Strong order is 0.5 in the noise, and the
scheme reduces to explicit Euler on the deterministic core when all noise
is switched off.

Delay taps are resolved on the time grid: each positive delay, and the
horizon t_end, must be a whole multiple of dt (anything else is rejected),
which removes interpolation error at the taps and ends every run exactly at
t_end. A positivity floor of 1e-12 masks the rare discretization overshoot
below zero; every clamp is counted so the artifact stays observable.
Components that are exactly zero stay zero: the origin is absorbing under
purely multiplicative terms, and clamping a true zero upward would re-seed
an extinct population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .model import DelaySpec, FieldError, HistorySpec, ModelParams, NoiseSpec, _in_range

__all__ = [
    "StepConfig",
    "HistoryBuffer",
    "Trajectory",
    "SimulationError",
    "init_history",
    "simulate",
]

# relative slack for every "is this value a whole number of steps" decision
_GRID_TOL = 1e-9

# value a positive component is clamped to when a step overshoots below zero
_POSITIVITY_FLOOR = 1e-12


class SimulationError(RuntimeError):
    """Integration fault: non-finite state or unusable step configuration."""


@dataclass(frozen=True)
class StepConfig:
    """Discretization: step size and horizon in days (t_end on the dt grid), RNG seed."""

    dt: float
    t_end: float
    seed: int = 0

    def __post_init__(self) -> None:
        _in_range("StepConfig", "dt", self.dt, strict=True)
        _in_range("StepConfig", "t_end", self.t_end, strict=True)
        _on_grid("StepConfig", "t_end", self.t_end, self.dt)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


class HistoryBuffer:
    """Grid-aligned state record from the far end of the delay window onward.

    Samples are spaced exactly dt apart, starting at the far end of the
    initial history window. The buffer only grows; at the horizons this
    engine targets the full record is a few megabytes, so nothing is evicted
    and the trajectory can be read straight out of it.
    """

    __slots__ = ("dt", "xs", "ys", "zs")

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.zs: list[float] = []

    def append(self, x: float, y: float, z: float) -> None:
        self.xs.append(x)
        self.ys.append(y)
        self.zs.append(z)

    def trajectory(self, start: int, jump_events: int, floor_hits: int) -> Trajectory:
        """The samples from index ``start`` (t = 0) onward, as a path on the grid."""
        n = len(self.xs) - start
        states = np.empty((n, 3))
        states[:, 0] = self.xs[start:]
        states[:, 1] = self.ys[start:]
        states[:, 2] = self.zs[start:]
        return Trajectory(np.arange(n) * self.dt, states, jump_events, floor_hits)


@dataclass(frozen=True)
class Trajectory:
    """One integrated sample path on [0, t_end].

    times       uniform grid including t=0
    states      (n+1, 3) array of (x, y, z) per grid point, all >= 0
    jump_events number of steps with at least one jump arrival
    floor_hits  number of positivity-floor clamps across all steps
    """

    times: np.ndarray
    states: np.ndarray
    jump_events: int
    floor_hits: int

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def grid_steps(value: float, dt: float) -> int | None:
    """Whole number of steps k >= 1 with k*dt equal to value within the grid
    tolerance, or None when value is not a positive multiple of dt."""
    k = round(value / dt)
    if k < 1 or abs(k * dt - value) > _GRID_TOL * max(1.0, value):
        return None
    return k


def _on_grid(owner: str, field: str, value: float, dt: float) -> int:
    """grid_steps(value, dt), raising FieldError when value is off the grid."""
    k = grid_steps(value, dt)
    if k is None:
        raise FieldError(owner, field, f"must be divided evenly by dt = {dt:g}", value)
    return k


def lag_steps(d: DelaySpec, dt: float) -> tuple[int, int, int]:
    """Delay taps in whole steps; FieldError names a positive delay off the dt grid."""
    ks = []
    for name, tau in zip(("tau1", "tau2", "tau3"), d.taus):
        ks.append(0 if tau == 0.0 else _on_grid("DelaySpec", name, tau, dt))
    return (ks[0], ks[1], ks[2])


def init_history(h: HistorySpec, d: DelaySpec, c: StepConfig) -> HistoryBuffer:
    """Populate a buffer at every grid point of [-tau_max, 0].

    Constant histories fill their value; table histories fill by linear
    interpolation between samples and must span the whole window. Whether a
    table covers a grid time is decided by HistorySpec.value_at alone.
    """
    kmax = max(lag_steps(d, c.dt))
    buf = HistoryBuffer(c.dt)
    for i in range(kmax + 1):
        try:
            s = h.value_at((i - kmax) * c.dt)
        except ValueError as exc:
            lo, hi = h.span()
            raise ValueError(
                f"history table spans [{lo!r}, {hi!r}] but must cover [{-kmax * c.dt!r}, 0]"
            ) from exc
        buf.append(s.x, s.y, s.z)
    return buf


def _advance(x, y, z, xd1, yd2, xd3, yd3, pp, nn, z1, z2, z3, j1, j2, j3):
    """One raw update. pp/nn are the tuples prepared by _pack_params/_pack_noise;
    returns the three candidate values before floor handling."""
    (r1, r2, ik1, ik2, a1, a2, al1, al2, al3, beta, delta, dt) = pp
    (s1, s2, s3, q1, q2, q3, lam_dt) = nn
    fx = r1 * x * (1.0 - xd1 * ik1) - al1 * x * z + beta * x * y * z
    fy = r2 * y * (1.0 - yd2 * ik2) - al2 * y * z + beta * x * y * z
    fz = -delta * z - al3 * z * z + a1 * xd3 * z + a2 * yd3 * z
    nx = x + fx * dt + s1 * x * z1 + q1 * x * (j1 - lam_dt)
    ny = y + fy * dt + s2 * y * z2 + q2 * y * (j2 - lam_dt)
    nz = z + fz * dt + s3 * z * z3 + q3 * z * (j3 - lam_dt)
    return nx, ny, nz


def _pack_params(p: ModelParams, dt: float):
    return (
        p.r1,
        p.r2,
        1.0 / p.k1,
        1.0 / p.k2,
        p.a1,
        p.a2,
        p.alpha1,
        p.alpha2,
        p.alpha3,
        p.beta,
        p.delta,
        dt,
    )


def _pack_noise(n: NoiseSpec, dt: float):
    sqdt = math.sqrt(dt)
    return (
        n.sigma1 * sqdt,
        n.sigma2 * sqdt,
        n.sigma3 * sqdt,
        n.q1,
        n.q2,
        n.q3,
        n.lam * dt,
    )


def simulate(
    p: ModelParams,
    n: NoiseSpec,
    d: DelaySpec,
    h: HistorySpec,
    c: StepConfig,
    *,
    replicate: int = 0,
) -> Trajectory:
    """Integrate one sample path over [0, t_end].

    The Gaussian and Poisson draws come from disjoint streams derived from
    (c.seed, replicate), so identical inputs give bit-identical trajectories
    and toggling jumps leaves the Brownian path untouched.
    """
    k1, k2, k3 = lag_steps(d, c.dt)
    buf = init_history(h, d, c)
    n_steps = c.n_steps
    dt = c.dt
    floor = _POSITIVITY_FLOOR

    gauss = rng.stream(c.seed, replicate, rng.GAUSSIAN)
    jump_stream = rng.stream(c.seed, replicate, rng.JUMPS)
    normals = gauss.standard_normal((n_steps, 3)).tolist()
    lam_dt = n.lam * dt
    if n.shared_clock:
        shared_counts = jump_stream.poisson(lam_dt, n_steps).tolist()
        counts = None
    else:
        counts = jump_stream.poisson(lam_dt, (n_steps, 3)).tolist()
        shared_counts = None

    pp = _pack_params(p, dt)
    nn = _pack_noise(n, dt)
    xs, ys, zs = buf.xs, buf.ys, buf.zs
    base = len(xs) - 1  # index of t = 0
    jump_events = 0
    floor_hits = 0
    isfinite = math.isfinite

    for i in range(n_steps):
        m = base + i
        if shared_counts is not None:
            j1 = j2 = j3 = shared_counts[i]
        else:
            j1, j2, j3 = counts[i]
        zr = normals[i]
        x, y, z = xs[m], ys[m], zs[m]
        nx, ny, nz = _advance(
            x,
            y,
            z,
            xs[m - k1],
            ys[m - k2],
            xs[m - k3],
            ys[m - k3],
            pp,
            nn,
            zr[0],
            zr[1],
            zr[2],
            j1,
            j2,
            j3,
        )
        if not (isfinite(nx) and isfinite(ny) and isfinite(nz)):
            raise SimulationError(
                f"non-finite state at t={(i + 1) * dt:g}: from ({x:g},{y:g},{z:g}), "
                f"normals=({zr[0]:g},{zr[1]:g},{zr[2]:g}), jumps=({j1},{j2},{j3})"
            )
        if nx < floor and x > 0.0:
            nx = floor
            floor_hits += 1
        if ny < floor and y > 0.0:
            ny = floor
            floor_hits += 1
        if nz < floor and z > 0.0:
            nz = floor
            floor_hits += 1
        xs.append(nx)
        ys.append(ny)
        zs.append(nz)
        if j1 or j2 or j3:
            jump_events += 1

    return buf.trajectory(base, jump_events, floor_hits)
