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

drift evaluates the three rates on plain floats (state, then the four
delay taps) and is the reference solver's rate function; the engine's
stepper computes the same rates in its own operand form.

All rates are per day; populations share the unit of the carrying
capacities. Every type here is an immutable value, and every operation is
pure, so instances are safe to share across threads or processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, fields

__all__ = [
    "ModelParams",
    "NoiseSpec",
    "DelaySpec",
    "HistorySpec",
    "FieldError",
    "drift",
    "parameter_fingerprint",
]


class FieldError(ValueError):
    """An input value that breaks its rule; carries the ``owner``, ``field``, ``rule`` and ``value``."""

    def __init__(self, owner: str, field: str, rule: str, value: object) -> None:
        super().__init__(f"{owner}.{field} {rule}, got {value!r}")
        self.owner = owner
        self.field = field
        self.rule = rule
        self.value = value

    def __reduce__(self):  # pickled as its constructor's arguments, not its message
        return type(self), (self.owner, self.field, self.rule, self.value)


def _in_range(
    owner: str, field: str, value: float, low: float = 0.0, strict: bool = False, any_int: bool = False
) -> None:
    """The range rule of every numeric input: finite, and >= low (> low if
    strict). An int beyond float range is not finite, as a config's 1e400 is
    not, unless any_int allows ints of any size (a seed, a replicate count)."""
    try:  # unlike math.isfinite, the comparison alone takes a huge int
        finite = -math.inf < (value if any_int else float(value)) < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise FieldError(owner, field, "must be finite", value)
    if value < low or (strict and value == low):
        raise FieldError(owner, field, f"must be {'>' if strict else '>='} {low:g}", value)


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
            _in_range("ModelParams", f.name, getattr(self, f.name), strict=f.name in ("k1", "k2"))

    @property
    def well_posed(self) -> bool:
        """The unique-global-solution condition delta > alpha3."""
        return self.delta > self.alpha3


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic forcing: Brownian intensities, jump marks, jump arrival rate.

    sigma1..3    Brownian intensities per species (1/sqrt(day))
    q1..3        relative jump marks; a jump sends s -> s*(1+q), so q > -1
    lam          Poisson arrival rate of jump events (events/day); one clock
                 drives all species (a common environmental shock)
    """

    sigma1: float
    sigma2: float
    sigma3: float
    q1: float
    q2: float
    q3: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sigma1", "sigma2", "sigma3", "lam"):
            _in_range("NoiseSpec", name, getattr(self, name))
        for name in ("q1", "q2", "q3"):  # a jump sends s -> s*(1+q); q > -1 keeps s > 0
            _in_range("NoiseSpec", name, getattr(self, name), low=-1.0, strict=True)


@dataclass(frozen=True)
class DelaySpec:
    """Feedback delays (days): prey-1 logistic, prey-2 logistic, predator recruitment."""

    tau1: float
    tau2: float
    tau3: float

    def __post_init__(self) -> None:
        for name, v in zip(("tau1", "tau2", "tau3"), self.taus):
            _in_range("DelaySpec", name, v)

    @property
    def taus(self) -> tuple[float, float, float]:
        return (self.tau1, self.tau2, self.tau3)


@dataclass(frozen=True)
class HistorySpec:
    """Initial populations (x0, y0, z0), held constant on [-tau_max, 0]."""

    x0: float
    y0: float
    z0: float

    def __post_init__(self) -> None:
        for f in fields(self):
            # floats, so every grid record and ring built from them is float,
            # and -0.0 becomes 0.0; an int beyond float range stays one, and
            # is not finite
            value = getattr(self, f.name)
            with contextlib.suppress(OverflowError):
                value = float(value) + 0.0
            _in_range("HistorySpec", f.name, value)
            object.__setattr__(self, f.name, value)


def drift(
    x: float, y: float, z: float, xd1: float, yd2: float, xd3: float, yd3: float, p: ModelParams
) -> tuple[float, float, float]:
    """Deterministic rate (fx, fy, fz) at state (x, y, z) and delay taps
    xd1 = x(t-tau1), yd2 = y(t-tau2), xd3 = x(t-tau3), yd3 = y(t-tau3).

    Pure arithmetic on floats; a non-finite input gives a non-finite rate
    and is left to the caller's end-of-step check.
    """
    fx = p.r1 * x * (1.0 - xd1 / p.k1) - p.alpha1 * x * z + p.beta * x * y * z
    fy = p.r2 * y * (1.0 - yd2 / p.k2) - p.alpha2 * y * z + p.beta * x * y * z
    fz = -p.delta * z - p.alpha3 * z * z + p.a1 * xd3 * z + p.a2 * yd3 * z
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
