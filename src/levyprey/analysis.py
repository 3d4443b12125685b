"""Closed-form regime thresholds and running time averages.

Three exclusive long-run regimes can be certified from the parameters alone:

* extinction of everything, when every net log-growth margin is negative:
  c1 = r1 - sigma1^2/2, c2 = r2 - sigma2^2/2,
  c3 = a1*(K1/r1)*c1 + a2*(K2/r2)*c2 - delta - sigma3^2/2,
  and max{c1, c2, c3} < 0;

* predator extinction with both prey persisting in mean, when
  min{c1, c2, 1 - r1 + 2*r1/K1, 1 - r2 + 2*r2/K2} > 0 and the predator
  recruitment margin c4 = a1*K1 + a2*K2 - delta - sigma3^2/2 is <= 0;

* persistence in mean of all three species, when the prey lower bounds
  Lx = c1 / (1 - r1 + 2*r1/K1) and Ly (symmetric) are positive, the
  denominators are positive, and the predator margin
  a1*Lx + a2*Ly - delta - sigma3^2/2 is positive, in which case the
  time-averaged predator is bounded below by Lz = margin / alpha3.

The classifier also evaluates the ultimate-boundedness margins
B1 = sigma1^2 + q1^2*lambda + 2*r1 + beta*K2 - alpha1*K1 (and analogues)
and the unique-global-solution condition delta > alpha3. Integrals of the
jump marks against the arrival measure reduce to q^2*lambda because marks
are constant per species (see NoiseSpec).

Parameter sets satisfying none of the three hypotheses are reported as
Indeterminate: the sufficient conditions simply do not apply, and no regime
is predicted.

``classify`` is the one place these terms are computed: a single pass
evaluates each once and returns them all in a RegimeReport. A term that is
undefined for the parameters (c3 when r_i = 0, a prey bound with a zero
denominator, Lz when alpha3 = 0) is None there, and the trace says why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import Trajectory
from .model import DelaySpec, ModelParams, NoiseSpec, parameter_fingerprint

__all__ = [
    "Regime",
    "RegimeReport",
    "TimeAverageSeries",
    "time_average",
    "classify",
]


class Regime(str, Enum):
    EXTINCTION_ALL = "ExtinctionAll"
    PREDATOR_EXTINCT_PREY_PERSIST = "PredatorExtinctPreyPersist"
    ALL_PERSIST = "AllPersist"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class TimeAverageSeries:
    """Running time averages <s>(t) = (1/t) * integral of s over [0, t].

    Computed with the trapezoidal rule on the trajectory grid; the t=0 entry
    is defined as the initial state.
    """

    times: np.ndarray
    means: np.ndarray  # (n+1, 3)

    @property
    def x(self) -> np.ndarray:
        return self.means[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.means[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.means[:, 2]

    @property
    def terminal(self) -> np.ndarray:
        return self.means[-1]


def time_average(traj: Trajectory) -> TimeAverageSeries:
    """Trapezoidal running average of each species over [0, t]."""
    t = np.asarray(traj.times, dtype=float)
    s = np.asarray(traj.states, dtype=float)
    if len(t) == 0:
        raise ValueError("trajectory is empty")
    means = np.empty_like(s)
    means[0] = s[0]
    if len(t) > 1:
        seg = 0.5 * (s[1:] + s[:-1]) * np.diff(t)[:, None]
        integral = np.cumsum(seg, axis=0)
        means[1:] = integral / t[1:, None]
    return TimeAverageSeries(times=t.copy(), means=means)


def _sq(v: float) -> float:
    # float ** raises OverflowError where float * returns inf; classify must not fault
    try:
        return v**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RegimeReport:
    """Every threshold value, which hypotheses hold, and the predicted regime.

    Bounds that are undefined for the given parameters (zero denominator,
    alpha3 = 0, r_i = 0) are None, with the reason recorded in the trace.
    """

    c1: float | None
    c2: float | None
    c3: float | None
    c4: float
    prey_min: float  # min{c1, c2, denom1, denom2} entering the predator-extinction test
    denom1: float
    denom2: float
    lx: float | None
    ly: float | None
    lz: float | None
    b1: float
    b2: float
    b3: float
    bounded: bool
    well_posed_ok: bool  # delta > alpha3
    extinction_ok: bool
    predator_extinction_ok: bool
    persistence_ok: bool
    predicted: Regime
    overlap: tuple[str, ...]
    trace: tuple[str, ...]
    provenance: str


def _fmt(v: float | None) -> str:
    return "undefined" if v is None else f"{v:.10g}"


def classify(p: ModelParams, n: NoiseSpec, d: DelaySpec) -> RegimeReport:
    """Evaluate every hypothesis and predict the regime.

    Pure function; never faults. Sub-checks that cannot be evaluated become
    trace entries. When several hypotheses hold simultaneously (possible for
    contrived parameters) the precedence is extinction > full persistence >
    predator extinction, and the overlap is flagged.
    """
    trace = [f"delays: tau = ({d.tau1:g}, {d.tau2:g}, {d.tau3:g}) days"]

    well_posed = p.well_posed
    trace.append(
        f"unique-global-solution condition delta > alpha3: "
        f"{p.delta:.10g} > {p.alpha3:.10g} -> {'holds' if well_posed else 'fails'}"
    )

    # terms shared by several hypotheses, each computed once
    sq1, sq2, sq3 = _sq(n.sigma1), _sq(n.sigma2), _sq(n.sigma3)
    c1 = p.r1 - sq1 / 2.0
    c2 = p.r2 - sq2 / 2.0
    half_s3 = sq3 / 2.0
    denom1 = 1.0 - p.r1 + 2.0 * p.r1 / p.k1
    denom2 = 1.0 - p.r2 + 2.0 * p.r2 / p.k2

    c3: float | None = None
    extinction_ok = False
    if p.r1 == 0 or p.r2 == 0:
        trace.append(
            "extinction margins not evaluable: c3 is undefined when r1 or r2 is zero "
            "(divides by the growth rate)"
        )
    else:
        c3 = p.a1 * (p.k1 / p.r1) * c1 + p.a2 * (p.k2 / p.r2) * c2 - p.delta - half_s3
        extinction_ok = max(c1, c2, c3) < 0.0
        trace.append(
            f"extinction margins: c1 = {_fmt(c1)}, c2 = {_fmt(c2)}, c3 = {_fmt(c3)}; "
            f"max < 0 -> {'holds' if extinction_ok else 'fails'}"
        )

    c4 = p.a1 * p.k1 + p.a2 * p.k2 - p.delta - half_s3
    prey_min = min(c1, c2, denom1, denom2)
    predator_ok = prey_min > 0.0 and c4 <= 0.0
    trace.append(
        f"predator-extinction test: c4 = {_fmt(c4)} (need <= 0), "
        f"min{{c1, c2, 1-r1+2r1/K1, 1-r2+2r2/K2}} = {_fmt(prey_min)} (need > 0) "
        f"-> {'holds' if predator_ok else 'fails'}"
    )

    # the prey bounds stand on their own whenever their denominators do (the
    # predator-extinction regime quotes them even when Lz cannot be formed)
    lx = c1 / denom1 if denom1 != 0.0 else None
    ly = c2 / denom2 if denom2 != 0.0 else None
    lz: float | None = None
    persistence_ok = False
    undefined = "persistence bounds not evaluable: "
    if lx is None:
        trace.append(undefined + "prey-1 denominator 1 - r1 + 2*r1/K1 is zero; bound undefined")
    elif ly is None:
        trace.append(undefined + "prey-2 denominator 1 - r2 + 2*r2/K2 is zero; bound undefined")
    elif p.alpha3 == 0.0:
        trace.append(undefined + "alpha3 is zero; predator bound Lz undefined")
    else:
        margin = p.a1 * lx + p.a2 * ly - p.delta - half_s3
        lz = margin / p.alpha3
        persistence_ok = lx > 0.0 and ly > 0.0 and margin > 0.0 and min(denom1, denom2) > 0.0
        trace.append(
            f"persistence bounds: Lx = {_fmt(lx)}, Ly = {_fmt(ly)}, Lz = {_fmt(lz)}; "
            f"all positive with positive denominators -> "
            f"{'holds' if persistence_ok else 'fails'}"
        )

    # jump marks integrate against the arrival measure to q^2 * lambda
    b1 = sq1 + _sq(n.q1) * n.lam + 2.0 * p.r1 + p.beta * p.k2 - p.alpha1 * p.k1
    b2 = sq2 + _sq(n.q2) * n.lam + 2.0 * p.r2 + p.beta * p.k1 - p.alpha2 * p.k2
    b3 = (
        sq3
        + _sq(n.q3) * n.lam
        + 2.0 * p.a1 * p.k1
        + 2.0 * p.a2 * p.k2
        - p.delta
        - p.alpha1 * p.k1
        - p.alpha2 * p.k2
    )
    bounded = b1 < 0.0 and b2 < 0.0 and b3 < 0.0
    trace.append(
        f"boundedness margins: B1 = {_fmt(b1)}, B2 = {_fmt(b2)}, B3 = {_fmt(b3)}; "
        f"all < 0 -> {'holds' if bounded else 'fails'}"
    )

    holding = [
        regime.value
        for regime, ok in (
            (Regime.EXTINCTION_ALL, extinction_ok),
            (Regime.ALL_PERSIST, persistence_ok),
            (Regime.PREDATOR_EXTINCT_PREY_PERSIST, predator_ok),
        )
        if ok
    ]
    predicted = Regime(holding[0]) if holding else Regime.INDETERMINATE
    overlap: tuple[str, ...] = ()
    if len(holding) > 1:
        overlap = tuple(holding)
        trace.append(
            f"overlapping hypotheses {holding}; precedence picks {predicted.value}"
        )
    trace.append(f"predicted regime: {predicted.value}")

    defined = c3 is not None  # c1 and c2 are reported only alongside c3
    return RegimeReport(
        c1=c1 if defined else None,
        c2=c2 if defined else None,
        c3=c3,
        c4=c4,
        prey_min=prey_min,
        denom1=denom1,
        denom2=denom2,
        lx=lx,
        ly=ly,
        lz=lz,
        b1=b1,
        b2=b2,
        b3=b3,
        bounded=bounded,
        well_posed_ok=well_posed,
        extinction_ok=extinction_ok,
        predator_extinction_ok=predator_ok,
        persistence_ok=persistence_ok,
        predicted=predicted,
        overlap=overlap,
        trace=tuple(trace),
        provenance=parameter_fingerprint(p, n, d),
    )
