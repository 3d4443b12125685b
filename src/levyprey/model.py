"""Parameter types and pointwise terms of the two-prey/one-predator model.

State variables: ``x`` and ``y`` are prey densities, ``z`` the predator
density. The deterministic core couples delayed logistic growth of each prey
with predation, prey cooperation against the predator, and predator
recruitment from delayed prey abundance:

    dx/dt = r1*x*(1 - x(t-tau1)/K1) - alpha1*x*z + beta*x*y*z
    dy/dt = r2*y*(1 - y(t-tau2)/K2) - alpha2*y*z + beta*x*y*z
    dz/dt = -delta*z - alpha3*z^2 + a1*x(t-tau3)*z + a2*y(t-tau3)*z

The stochastic extension adds multiplicative Brownian noise (intensity
sigma_i per species) and compensated compound-Poisson jumps: an arrival
multiplies species i by (1 + q_i) and the drift carries the compensator
-q_i*lambda*S_i so the jump term is mean-zero.

All rates are per day; populations share the unit of the carrying
capacities. Every type here is an immutable value, and every operation is
pure, so instances are safe to share across threads or processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

__all__ = [
    "State",
    "DelayedState",
    "ModelParams",
    "NoiseSpec",
    "DelaySpec",
    "HistorySpec",
    "drift",
    "parameter_fingerprint",
]

_SPECIES = ("x", "y", "z")


class State(NamedTuple):
    """Population triple (prey-1, prey-2, predator)."""

    x: float
    y: float
    z: float


class DelayedState(NamedTuple):
    """Delay taps entering the drift: x(t-tau1), y(t-tau2), x(t-tau3), y(t-tau3)."""

    x_tau1: float
    y_tau2: float
    x_tau3: float
    y_tau3: float


@dataclass(frozen=True)
class ModelParams:
    """Biological rates of the deterministic core.

    r1, r2       intrinsic prey growth rates (1/day)
    k1, k2       prey carrying capacities (population), strictly positive
    alpha1/2     predation rates on prey 1/2 (1/(population*day))
    alpha3       predator intra-species competition (1/(population*day))
    beta         prey cooperation against the predator (1/(population^2*day))
    delta        predator death rate (1/day)
    a1, a2       predator recruitment per delayed prey (1/(population*day))
    """

    r1: float
    r2: float
    k1: float
    k2: float
    alpha1: float
    alpha2: float
    alpha3: float
    beta: float
    delta: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"ModelParams.{f.name} must be finite, got {v!r}")
            if v < 0:
                raise ValueError(f"ModelParams.{f.name} must be >= 0, got {v!r}")
        if self.k1 <= 0:
            raise ValueError(f"ModelParams.k1 must be > 0, got {self.k1!r}")
        if self.k2 <= 0:
            raise ValueError(f"ModelParams.k2 must be > 0, got {self.k2!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic forcing: Brownian intensities, jump marks, jump arrival rate.

    sigma1..3    Brownian intensities per species (1/sqrt(day))
    q1..3        relative jump marks; a jump sends s -> s*(1+q), so q > -1
    lam          Poisson arrival rate of jump events (events/day)
    shared_clock one Poisson clock drives all species (a common environmental
                 shock); set False for three independent clocks
    """

    sigma1: float
    sigma2: float
    sigma3: float
    q1: float
    q2: float
    q3: float
    lam: float = 1.0
    shared_clock: bool = True

    def __post_init__(self) -> None:
        for name in ("sigma1", "sigma2", "sigma3", "lam"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"NoiseSpec.{name} must be finite and >= 0, got {v!r}")
        for name in ("q1", "q2", "q3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= -1.0:
                raise ValueError(
                    f"NoiseSpec.{name} must be > -1 so jumps preserve positivity, got {v!r}"
                )


@dataclass(frozen=True)
class DelaySpec:
    """Feedback delays (days): prey-1 logistic, prey-2 logistic, predator recruitment."""

    tau1: float
    tau2: float
    tau3: float

    def __post_init__(self) -> None:
        for name in ("tau1", "tau2", "tau3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"DelaySpec.{name} must be finite and >= 0, got {v!r}")

    @property
    def tau_max(self) -> float:
        return max(self.tau1, self.tau2, self.tau3)

    @property
    def taus(self) -> tuple[float, float, float]:
        return (self.tau1, self.tau2, self.tau3)


@dataclass(frozen=True)
class HistorySpec:
    """Initial population history on [-tau_max, 0].

    Either a constant triple held over the whole window, or a table of
    (t, x, y, z) samples interpreted piecewise-linearly. Table times must be
    strictly increasing and are checked against the actual delay window when
    a history buffer is built.
    """

    kind: str
    constant: State | None = None
    samples: tuple[tuple[float, float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if self.constant is None:
                raise ValueError("constant history requires a value triple")
            for name, v in zip(_SPECIES, self.constant):
                if not math.isfinite(v) or v < 0:
                    raise ValueError(f"history {name}0 must be finite and >= 0, got {v!r}")
        elif self.kind == "table":
            rows = self.samples
            if not rows or len(rows) < 2:
                raise ValueError("table history requires at least two (t,x,y,z) samples")
            for i, row in enumerate(rows):
                if len(row) != 4:
                    raise ValueError(f"table row {i} must be (t, x, y, z)")
                if not all(math.isfinite(v) for v in row):
                    raise ValueError(f"table row {i} contains a non-finite value")
                if any(v < 0 for v in row[1:]):
                    raise ValueError(f"table row {i} contains a negative population")
                if i > 0 and row[0] <= rows[i - 1][0]:
                    raise ValueError("table times must be strictly increasing")
        else:
            raise ValueError(f"unknown history kind {self.kind!r}")

    @classmethod
    def from_constant(cls, x0: float, y0: float, z0: float) -> "HistorySpec":
        return cls(kind="constant", constant=State(float(x0), float(y0), float(z0)))

    @classmethod
    def from_table(cls, rows: Iterable[tuple[float, float, float, float]]) -> "HistorySpec":
        return cls(kind="table", samples=tuple(tuple(float(v) for v in r) for r in rows))

    def span(self) -> tuple[float, float]:
        """Time interval covered by this history."""
        if self.kind == "constant":
            return (-math.inf, 0.0)
        assert self.samples is not None
        return (self.samples[0][0], self.samples[-1][0])

    def value_at(self, t: float) -> State:
        """Evaluate the history at time t (constant, or linear between samples)."""
        if self.kind == "constant":
            assert self.constant is not None
            return self.constant
        assert self.samples is not None
        rows = self.samples
        lo, hi = self.span()
        if t < lo - 1e-12 or t > hi + 1e-12:
            raise ValueError(f"history query at t={t} outside table span [{lo}, {hi}]")
        if t <= rows[0][0]:
            return State(*rows[0][1:])
        if t >= rows[-1][0]:
            return State(*rows[-1][1:])
        # linear scan is fine: tables are small and this is not a hot path
        for (t0, *v0), (t1, *v1) in zip(rows, rows[1:]):
            if t0 <= t <= t1:
                w = (t - t0) / (t1 - t0)
                return State(*(a + w * (b - a) for a, b in zip(v0, v1)))
        raise AssertionError("unreachable: table covers the query point")


def _require_finite(value: float, label: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"non-finite input: {label} = {value!r}")


def drift(state: State, delayed: DelayedState, p: ModelParams) -> tuple[float, float, float]:
    """Deterministic rate (fx, fy, fz) at the given state and delay taps.

    Pure; rejects non-finite inputs naming the offending component.
    """
    x, y, z = state
    for label, v in zip(("state.x", "state.y", "state.z"), (x, y, z)):
        _require_finite(v, label)
    for label, v in zip(
        ("delayed.x_tau1", "delayed.y_tau2", "delayed.x_tau3", "delayed.y_tau3"), delayed
    ):
        _require_finite(v, label)
    fx = p.r1 * x * (1.0 - delayed.x_tau1 / p.k1) - p.alpha1 * x * z + p.beta * x * y * z
    fy = p.r2 * y * (1.0 - delayed.y_tau2 / p.k2) - p.alpha2 * y * z + p.beta * x * y * z
    fz = -p.delta * z - p.alpha3 * z * z + p.a1 * delayed.x_tau3 * z + p.a2 * delayed.y_tau3 * z
    return (fx, fy, fz)


def parameter_fingerprint(p: ModelParams, n: NoiseSpec, d: DelaySpec) -> str:
    """Stable short digest of a parameter set, used to match reports to runs."""
    payload = {
        "params": {f.name: getattr(p, f.name) for f in fields(p)},
        "noise": {f.name: getattr(n, f.name) for f in fields(n)},
        "delays": {f.name: getattr(d, f.name) for f in fields(d)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
