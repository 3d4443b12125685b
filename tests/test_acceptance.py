"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or in the captured
output); run the whole module with `pytest tests/test_acceptance.py -v`.
The ensemble criteria integrate 200 replicates over 500 days and take a
couple of minutes combined.
"""

import math
import time

import numpy as np
import pytest

import levyprey as lp
from conftest import rk4_self_convergence
from levyprey import PRESETS, Regime, engine
from levyprey.cli import main as cli_main


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _ensemble(preset_name: str, n_reps: int = 200, seed: int = 101):
    sc = PRESETS[preset_name]
    cfg = lp.StepConfig(dt=sc.dt, t_end=sc.t_end, seed=seed)
    stats = lp.run_ensemble(sc.params, sc.noise, sc.delays, sc.history, cfg, n_reps=n_reps)
    report = lp.classify(sc.params, sc.noise, sc.delays)
    return sc, stats, report


def test_01_threshold_exactness():
    t0 = time.perf_counter()
    reports = {name: lp.classify(*(lambda s: (s.params, s.noise, s.delays))(PRESETS[name]))
               for name in ("fig1", "fig2", "fig3")}
    elapsed = time.perf_counter() - t0

    r1 = reports["fig1"]
    c1_ok = abs(r1.c1 - (0.7 - 5e-9)) < 1e-15
    b1_expected = 1e-8 + 0.0016 + 1.4 + 0.01 - 30  # hand sum, rounds to -28.588
    b1_ok = abs(r1.b1 - b1_expected) <= 1e-12
    wp_ok = not r1.well_posed_ok  # delta = 0.1 does not exceed alpha3 = 0.5
    fast = elapsed < 1.0
    _report(
        1,
        "threshold-exactness",
        c1_ok and b1_ok and wp_ok and fast,
        f"c1={r1.c1!r}, B1={r1.b1!r} (target {b1_expected!r}), "
        f"delta>alpha3 fails={not r1.well_posed_ok}, runtime={elapsed:.3f}s",
    )


def test_02_constructed_extinction_scenario():
    sc, stats, report = _ensemble("extinct")
    med = stats.terminal_medians
    regime_ok = report.predicted is Regime.EXTINCTION_ALL
    max_c = max(report.c1, report.c2, report.c3)
    value_ok = abs(max_c - (-0.4)) < 1e-12
    outcome = lp.verify_regime(stats, report)
    medians_ok = outcome.checkable and outcome.passed and np.all(med < 0.05)
    _report(
        2,
        "extinction-scenario",
        regime_ok and value_ok and medians_ok,
        f"predicted={report.predicted.value}, max c={max_c:.6g}, "
        f"medians=({med[0]:.4g}, {med[1]:.4g}, {med[2]:.4g}) vs 0.05 "
        f"over {stats.n_replicates} reps, T={sc.t_end}",
    )


def test_03_constructed_persistence_scenario():
    sc, stats, report = _ensemble("persist")
    med = stats.terminal_medians
    regime_ok = report.predicted is Regime.ALL_PERSIST
    lx_ok = abs(report.lx - 0.98039) < 1e-4 and abs(report.ly - 0.98039) < 1e-4
    lz_ok = abs(report.lz - 0.8804) < 1e-4
    outcome = lp.verify_regime(stats, report)
    bounds = 0.8 * np.array([report.lx, report.ly, report.lz])
    medians_ok = outcome.checkable and outcome.passed and np.all(med >= bounds)
    _report(
        3,
        "persistence-scenario",
        regime_ok and lx_ok and lz_ok and medians_ok,
        f"predicted={report.predicted.value}, Lx={report.lx:.5f}, Lz={report.lz:.5f}, "
        f"medians=({med[0]:.3g}, {med[1]:.3g}, {med[2]:.3g}) vs 0.8*bounds="
        f"({bounds[0]:.3g}, {bounds[1]:.3g}, {bounds[2]:.3g})",
    )


def test_04_constructed_predator_extinction_scenario():
    sc, stats, report = _ensemble("predator_extinct")
    med = stats.terminal_medians
    regime_ok = report.predicted is Regime.PREDATOR_EXTINCT_PREY_PERSIST
    outcome = lp.verify_regime(stats, report)
    z_ok = med[2] < 0.05
    prey_ok = med[0] >= 0.8 * report.lx and med[1] >= 0.8 * report.ly
    _report(
        4,
        "predator-extinction-scenario",
        regime_ok and outcome.passed and z_ok and prey_ok,
        f"predicted={report.predicted.value}, c4={report.c4:.6g}, "
        f"medians=({med[0]:.3g}, {med[1]:.3g}, {med[2]:.4g})",
    )


def test_05_deterministic_convergence_orders():
    sc = PRESETS["fig3"]
    hist = lp.HistorySpec(28.0, 25.0, 13.0)
    engine_table = lp.convergence_study(
        sc.params, sc.delays, hist, [1e-2, 5e-3, 2.5e-3], t_end=10.0
    )
    hist_osc = lp.HistorySpec(10.0, 10.0, 5.0)
    oracle_table = rk4_self_convergence(
        sc.params, sc.delays, hist_osc, [1e-2, 5e-3, 2.5e-3], t_end=10.0
    )
    engine_ok = 0.8 <= engine_table.observed_order <= 1.2
    oracle_ok = 3.5 <= oracle_table.observed_order <= 4.5
    _report(
        5,
        "deterministic-convergence",
        engine_ok and oracle_ok,
        f"engine order={engine_table.observed_order:.3f} (errs "
        f"{[f'{r.max_err:.3g}' for r in engine_table.rows]}), "
        f"reference-solver order={oracle_table.observed_order:.3f}",
    )


def test_06_logistic_closed_form():
    p = lp.ModelParams(r1=1.0, r2=0.0, k1=100.0, k2=1.0, alpha1=0, alpha2=0,
                       alpha3=0, beta=0, delta=0, a1=0, a2=0)
    h = lp.HistorySpec(10.0, 0.0, 0.0)
    sol = lp.solve_deterministic(p, lp.DelaySpec(0, 0, 0), h, dt=1e-3, t_end=10.0)
    exact = 100.0 / (1.0 + 9.0 * np.exp(-sol.times))
    rel = float(np.max(np.abs(sol.x - exact) / exact))
    _report(6, "logistic-closed-form", rel <= 1e-6, f"max relative error {rel:.3g} <= 1e-6")


def test_07_compensator_neutrality():
    # zero rates make the drift vanish; sigma = 0 kills diffusion; what is
    # left is dS = q*S*(dN - lambda*dt), whose per-step mean is exactly zero
    p = lp.ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=0, alpha2=0,
                       alpha3=0, beta=0, delta=0, a1=0, a2=0)
    n = lp.NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
    h = lp.HistorySpec(10.0, 10.0, 10.0)
    cfg = lp.StepConfig(dt=0.1, t_end=1.0, seed=2026)
    n_reps = 100_000
    stats = lp.run_ensemble(p, n, lp.DelaySpec(0, 0, 0), h, cfg, n_reps=n_reps)
    terminal_mean = stats.mean[-1]
    se = stats.sd[-1] / math.sqrt(n_reps)
    z = np.abs(terminal_mean - 10.0) / se
    _report(
        7,
        "compensator-neutrality",
        bool(np.all(z < 3.0)),
        f"terminal means {np.round(terminal_mean, 5).tolist()} vs 10, "
        f"|z|={np.round(z, 3).tolist()} over {n_reps} replicates",
    )


def test_08_positivity_floor_untouched():
    # replicates (555, k) step in blocks through the batched driver, which
    # records every grid point, so every state of every path is checked. A
    # clamp writes exactly 1e-12: a replicate counts as clean when no state
    # equals it, which can only under-count clean runs
    sc = PRESETS["persist"]
    cfg = lp.StepConfig(dt=1e-3, t_end=10.0, seed=555)
    args = (sc.params, sc.noise, sc.delays, sc.history, cfg)
    clean = 0
    n_runs, block = 1000, 250
    grid = range(cfg.n_steps + 1)
    paths, terminal = np.empty((block, len(grid), 3)), np.empty((block, 3))
    for a in range(0, n_runs, block):
        engine._simulate_batch(*args, range(a, a + block), grid, paths, terminal)
        assert np.all(paths >= 1e-12)
        clean += np.count_nonzero((paths != 1e-12).all(axis=(1, 2)))
        if a == 0:  # the same paths as simulate, bit for bit
            for k in range(20):
                assert np.array_equal(paths[k], lp.simulate(*args, replicate=k).states)
    _report(
        8,
        "positivity",
        clean >= math.ceil(0.99 * n_runs),
        f"floor untouched in {clean}/{n_runs} runs at dt=1e-3; all states >= 1e-12",
    )


def test_09_determinism(tmp_path):
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text("preset = fig1\nt_end = 5\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rc1 = cli_main(["simulate", "--config", str(cfg_file), "--seed", "42", "--out", out1])
    rc2 = cli_main(["simulate", "--config", str(cfg_file), "--seed", "42", "--out", out2])
    csv_ok = rc1 == 0 and rc2 == 0 and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # replicate k's numbers depend only on (seed, k): the same whether 16
    # replicates run one at a time or 300 run in two batched blocks
    sc = PRESETS["persist"]
    cfg = lp.StepConfig(dt=0.01, t_end=5.0, seed=3)
    a = lp.run_ensemble(sc.params, sc.noise, sc.delays, sc.history, cfg, n_reps=16)
    b = lp.run_ensemble(sc.params, sc.noise, sc.delays, sc.history, cfg, n_reps=300)
    reps_ok = np.array_equal(a.terminal_averages, b.terminal_averages[:16])
    _report(
        9,
        "determinism",
        csv_ok and reps_ok,
        f"seed-42 CSVs byte-identical={csv_ok}, "
        f"replicates 0-15 identical at 16 and 300 replicates={reps_ok}",
    )


def test_10_delay_amplitude_qualitative():
    sc = PRESETS["persist"]
    cfg = lp.StepConfig(dt=1e-2, t_end=50.0, seed=2026)
    wins = 0
    n_seeds = 100
    for k in range(n_seeds):
        amp = {}
        for tau1 in (0.5, 2.0):
            d = lp.DelaySpec(tau1, sc.delays.tau2, sc.delays.tau3)
            traj = lp.simulate(sc.params, sc.noise, d, sc.history, cfg, replicate=k)
            amp[tau1] = float(traj.x.max() - traj.x.min())
        wins += amp[2.0] > amp[0.5]
    _report(
        10,
        "delay-amplitude",
        wins >= 0.8 * n_seeds,
        f"tau1=2 amplitude exceeded tau1=0.5 in {wins}/{n_seeds} matched seeds over [0, 50]",
    )
