"""Ready-made scenarios and sweep definitions.

The ``fig1``..``fig3`` scenarios are the three published simulation columns
(extinction, predator extinction, persistence flavors). They omit the
predator-to-prey transformation rates and the jump arrival rate, so those
ship as explicitly flagged package assumptions: a1 = a2 = 0.05 and
lambda = 1/day, overridable like everything else. Time horizon, step size,
and initial populations for the figure scenarios are likewise package
choices.

Caution on fig3: with the assumed transformation rates its core is
finite-time explosive (the prey-2 delayed feedback r2*tau2 = 2.3 rings the
populations up until the cooperation term beta*x*y*z outgrows predation
around y ~ alpha1/beta = 130, after which prey growth is self-reinforcing).
The interior equilibrium near (28, 25, 13) is an unstable spiral, so the
preset starts there and keeps a 10-day horizon: 200/200 seeds run clean at
the default step, while longer horizons or starts with first-peak overshoot
near the flip explode for a sizable fraction of jump sequences.

The ``extinct``/``persist``/``predator_extinct`` scenarios are constructed
so the corresponding sufficient conditions provably hold, which the figure
columns do not manage (fig1's prey margins are positive, fig3 violates the
prey denominator condition); these three are what the verification suite
exercises end to end.

Sweep presets mirror the published parameter studies: transformation rates,
carrying capacities, and the three delays (0.5 to 2 days for single delays,
0.5 to 1 day for the joint sweep). They run on the ``persist`` base, which
is delay-sensitive but provably stable across the swept ranges; the fig3
core explodes within days at tau = 2 or K = 150.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import DelaySpec, HistorySpec, ModelParams, NoiseSpec

__all__ = ["Scenario", "SweepPreset", "PRESETS", "SWEEPS", "ASSUMED_KEYS"]

# scenario fields that are package assumptions for the figure presets
ASSUMED_KEYS = ("a1", "a2", "lambda")

_TABLE_Q = dict(q1=-0.04, q2=-0.006, q3=-0.008)
_TABLE_TAU = DelaySpec(tau1=0.5, tau2=1.0, tau3=1.5)


@dataclass(frozen=True)
class Scenario:
    """A complete runnable parameter set with its documentation."""

    name: str
    description: str
    params: ModelParams
    noise: NoiseSpec
    delays: DelaySpec
    history: HistorySpec
    dt: float = 1e-2
    t_end: float = 200.0
    assumed: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepPreset:
    """One-variable parameter sweep over a base scenario."""

    name: str
    base: str
    variable: str  # config key, or "tau_all" for all three delays at once
    values: tuple[float, ...]
    description: str


def _figure_scenario(
    name,
    description,
    *,
    r1,
    r2,
    alpha1,
    alpha2,
    alpha3,
    beta,
    delta,
    sigmas,
    history=(10.0, 10.0, 5.0),
    t_end=200.0,
):
    return Scenario(
        name=name,
        description=description,
        params=ModelParams(
            r1=r1,
            r2=r2,
            k1=100.0,
            k2=100.0,
            alpha1=alpha1,
            alpha2=alpha2,
            alpha3=alpha3,
            beta=beta,
            delta=delta,
            a1=0.05,
            a2=0.05,
        ),
        noise=NoiseSpec(
            sigma1=sigmas[0], sigma2=sigmas[1], sigma3=sigmas[2], lam=1.0, **_TABLE_Q
        ),
        delays=_TABLE_TAU,
        history=HistorySpec(*history),
        t_end=t_end,
        assumed=ASSUMED_KEYS,
    )


FIG1 = _figure_scenario(
    "fig1",
    "published extinction-flavored column",
    r1=0.7,
    r2=0.65,
    alpha1=0.3,
    alpha2=0.35,
    alpha3=0.5,
    beta=1e-4,
    delta=0.1,
    sigmas=(1e-4, 2e-4, 2e-4),
)

FIG2 = _figure_scenario(
    "fig2",
    "published predator-extinction-flavored column",
    r1=1.7,
    r2=1.8,
    alpha1=0.2,
    alpha2=0.28,
    alpha3=0.5,
    beta=1e-4,
    delta=0.4,
    sigmas=(1e-5, 2e-4, 2e-3),
)

FIG3 = _figure_scenario(
    "fig3",
    "published persistence-flavored column (finite-time explosive core, short horizon)",
    r1=2.0,
    r2=2.3,
    alpha1=0.13,
    alpha2=0.17,
    alpha3=0.2,
    beta=1e-3,
    delta=0.02,
    sigmas=(1e-5, 2e-4, 2e-3),
    history=(28.0, 25.0, 13.0),
    t_end=10.0,
)

# Constructed so max{c1, c2, c3} < 0: heavy prey noise sigma1 = sigma2 = 1
# (c1 = c2 = -0.4) drags c3 = -40.225 with it. Small initial populations keep
# the transient's contribution to the 500-day running averages small.
EXTINCT = Scenario(
    name="extinct",
    description="constructed so the all-species extinction condition holds",
    params=ModelParams(
        r1=0.1,
        r2=0.1,
        k1=100.0,
        k2=100.0,
        alpha1=0.3,
        alpha2=0.35,
        alpha3=0.5,
        beta=1e-4,
        delta=0.1,
        a1=0.05,
        a2=0.05,
    ),
    noise=NoiseSpec(sigma1=1.0, sigma2=1.0, sigma3=0.5, lam=1.0, **_TABLE_Q),
    delays=_TABLE_TAU,
    history=HistorySpec(1.0, 1.0, 1.0),
    dt=1e-2,
    t_end=500.0,
)

# Constructed so the full-persistence condition holds: Lx = Ly ~ 0.98039,
# Lz ~ 0.88039. Weak predation (alpha1 = alpha2 = 1e-3) keeps the prey near
# their carrying capacities so the delayed logistic feedback is strong, and
# beta = 0 removes the cooperation term that could destabilize large states.
PERSIST = Scenario(
    name="persist",
    description="constructed so the full persistence condition holds",
    params=ModelParams(
        r1=0.5,
        r2=0.5,
        k1=100.0,
        k2=100.0,
        alpha1=1e-3,
        alpha2=1e-3,
        alpha3=0.2,
        beta=0.0,
        delta=0.02,
        a1=0.1,
        a2=0.1,
    ),
    noise=NoiseSpec(sigma1=1e-3, sigma2=1e-3, sigma3=1e-3, lam=1.0, **_TABLE_Q),
    delays=_TABLE_TAU,
    history=HistorySpec(5.0, 5.0, 5.0),
    dt=1e-2,
    t_end=500.0,
)

# As `persist` but with recruitment too weak to sustain the predator:
# c4 = 0.02 - 0.1 - sigma3^2/2 <= 0 while the prey-side minimum stays > 0.
PREDATOR_EXTINCT = Scenario(
    name="predator_extinct",
    description="constructed so the predator dies out while both prey persist",
    params=replace(PERSIST.params, a1=1e-4, a2=1e-4, delta=0.1),
    noise=PERSIST.noise,
    delays=_TABLE_TAU,
    history=HistorySpec(5.0, 5.0, 1.0),
    dt=1e-2,
    t_end=500.0,
)

PRESETS: dict[str, Scenario] = {
    s.name: s for s in (FIG1, FIG2, FIG3, EXTINCT, PERSIST, PREDATOR_EXTINCT)
}

SWEEPS: dict[str, SweepPreset] = {
    s.name: s
    for s in (
        SweepPreset(
            "fig4_a1", "persist", "a1", (0.01, 0.05, 0.1), "predator response to a1"
        ),
        SweepPreset(
            "fig4_a2", "persist", "a2", (0.01, 0.05, 0.1), "predator response to a2"
        ),
        SweepPreset(
            "fig5_k1", "persist", "K1", (50.0, 100.0, 150.0), "predator response to K1"
        ),
        SweepPreset(
            "fig5_k2", "persist", "K2", (50.0, 100.0, 150.0), "predator response to K2"
        ),
        SweepPreset("fig6", "persist", "tau1", (0.5, 2.0), "prey-1 delay 0.5 to 2 days"),
        SweepPreset("fig7", "persist", "tau2", (0.5, 2.0), "prey-2 delay 0.5 to 2 days"),
        SweepPreset("fig8", "persist", "tau3", (0.5, 2.0), "predator delay 0.5 to 2 days"),
        SweepPreset(
            "fig9", "persist", "tau_all", (0.5, 1.0), "all three delays 0.5 to 1 day"
        ),
    )
}
