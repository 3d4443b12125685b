"""End-to-end tests of the command-line surface."""

import math
import os
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_children
from levyprey import cli, engine, ensemble, oracle, parallel
from levyprey.cli import main
from levyprey.config import parse_config

EXTINCT_CFG = "preset = extinct\nt_end = 2\nn_reps = 4\n"
SHORT_FIG1 = "preset = fig1\nt_end = 2\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestClassify:
    def test_extinction_scenario_stdout(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "preset = extinct\n")
        assert main(["classify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ExtinctionAll" in out
        assert "c1 = " in out and "c2 = " in out and "c3 = " in out
        assert "-0.4" in out and "-40.225" in out

    def test_exit_zero_on_indeterminate(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "preset = fig2\n")
        assert main(["classify", "--config", cfg]) == 0
        assert "Indeterminate" in capsys.readouterr().out


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", SHORT_FIG1)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--seed", "42", "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "42", "--out", out2]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_header_and_roundtrip_precision(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", SHORT_FIG1)
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "t,x,y,z"
        assert any(ln.startswith("# preset = fig1") for ln in meta)
        assert any("# seed = 0" in ln for ln in meta)
        assert any("assumed: a1" in ln for ln in meta)
        # float fields round-trip exactly through the text representation
        import levyprey as lp

        scn = lp.PRESETS["fig1"]
        traj = lp.simulate(scn.params, scn.noise, scn.delays, scn.history,
                           lp.StepConfig(dt=scn.dt, t_end=2.0, seed=0))
        first = body[1].split(",")
        assert float(first[1]) == traj.states[0, 0]
        last = body[-1].split(",")
        assert float(last[1]) == traj.states[-1, 0]
        assert float(last[2]) == traj.states[-1, 1]
        assert float(last[3]) == traj.states[-1, 2]

    def test_seed_changes_output(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", SHORT_FIG1)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--config", cfg, "--seed", "1", "--out", out1])
        main(["simulate", "--config", cfg, "--seed", "2", "--out", out2])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_missing_out_is_usage_error(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", SHORT_FIG1)
        assert main(["simulate", "--config", cfg]) == 1

    def test_unwritable_path_is_runtime_fault(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", SHORT_FIG1)
        out = str(tmp_path / "nosuchdir" / "t.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2


class TestEnsemble:
    def test_stats_csv_schema_and_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path, "e.cfg", EXTINCT_CFG)
        out = str(tmp_path / "stats.csv")
        assert main(["ensemble", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "stats.csv").read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == (
            "t,mean_x,sd_x,q025_x,q500_x,q975_x,"
            "mean_y,sd_y,q025_y,q500_y,q975_y,"
            "mean_z,sd_z,q025_z,q500_z,q975_z"
        )
        assert len(body) > 10
        assert any("# verify: predicted = ExtinctionAll" in ln for ln in lines)
        stdout = capsys.readouterr().out
        assert "predicted = ExtinctionAll" in stdout

    def test_seed_option_equals_config_seed(self, tmp_path):
        # 64 replicates run through the batched driver; the seed reaches it
        # the same way from --seed and from the config
        base = "preset = persist\nt_end = 1\nn_reps = 64\n"
        runs = {
            "option": (base, ["--seed", "7"]),
            "config": (base + "seed = 7\n", []),
            "default": (base, []),
        }
        rows = {}
        for name, (text, flags) in runs.items():
            cfg = _write(tmp_path, f"{name}.cfg", text)
            out = tmp_path / f"{name}.csv"
            assert main(["ensemble", "--config", cfg, "--out", str(out), *flags]) == 0
            rows[name] = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows["option"] == rows["config"]
        assert rows["option"] != rows["default"]

    def test_indeterminate_prediction_is_not_checkable(self, tmp_path, capsys):
        # fig2 meets no sufficient condition: the run succeeds and says that
        # there is nothing to verify, on stdout and in the CSV
        cfg = _write(tmp_path, "f2.cfg", "preset = fig2\nt_end = 5\nn_reps = 4\n")
        out = tmp_path / "f2.csv"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[:2] == ["predicted = Indeterminate", "outcome = NOT CHECKABLE"]
        assert stdout[3:] == ["no sufficient condition applies; nothing to verify", f"wrote {out}"]
        verify = [ln for ln in out.read_text().splitlines() if ln.startswith("# verify: ")]
        assert verify == [f"# verify: {line}" for line in stdout[:4]]


class TestConvergence:
    def test_error_table_written(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "conv.cfg",
            "preset = fig3\nx0 = 28\ny0 = 25\nz0 = 13\nt_end = 2\n",
        )
        out = str(tmp_path / "conv.csv")
        assert main(["convergence", "--config", cfg, "--out", out, "--dts", "1e-2,5e-3"]) == 0
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "dt,max_err,pair_order"
        assert len(body) == 3
        errs = [float(row.split(",")[1]) for row in body[1:]]
        assert errs[1] < errs[0]
        assert "observed order" in capsys.readouterr().out


class TestSweep:
    def test_tau1_sweep_writes_files_and_index(self, tmp_path):
        cfg = _write(tmp_path, "sw.cfg", "preset = fig3\nt_end = 2\n")
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", "--config", cfg, "--out", out,
            "--var", "tau1", "--values", "0.5,2",
        ])
        assert rc == 0
        f1 = tmp_path / "sweep_tau1=0.5.csv"
        f2 = tmp_path / "sweep_tau1=2.csv"
        idx = tmp_path / "sweep_index.csv"
        assert f1.exists() and f2.exists() and idx.exists()
        rows = idx.read_text().splitlines()
        assert rows[0] == "variable,value,file"
        assert len(rows) == 3
        assert str(f1) in rows[1] and str(f2) in rows[2]

    def test_sweep_preset(self, tmp_path, capsys):
        out = str(tmp_path / "d.csv")
        # fig9 sweeps all three delays jointly on the persist base
        rc = main(["sweep", "--sweep", "fig9", "--out", out])
        assert rc == 0
        assert (tmp_path / "d_tau_all=0.5.csv").exists()
        assert (tmp_path / "d_tau_all=1.csv").exists()
        # the base preset warns as it does in every other subcommand
        assert capsys.readouterr().err.startswith("warning: delta = 0.02 does not exceed alpha3 = 0.2")

    @pytest.mark.parametrize("var, values, mode, error", [
        ("seed", "1.5", "simulate", "seed must be an integer, got 1.5"),
        ("n_reps", "2.7", "ensemble", "n_reps must be an integer, got 2.7"),
        ("output", "1,2", "simulate", "'output' is not a numeric key"),
        ("preset", "1", "simulate", "'preset' is not a numeric key"),
    ], ids=["seed", "n_reps", "output", "preset"])
    def test_swept_values_are_typed_like_config_values(self, tmp_path, capsys, var, values, mode, error):
        cfg = _write(tmp_path, "sw.cfg", "preset = extinct\nt_end = 0.02\nn_reps = 2\n")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw.csv"),
                   "--var", var, "--values", values, "--mode", mode])
        assert rc == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"config error: {error}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sw.cfg"]

    def test_integral_sweep_of_an_integer_key(self, tmp_path):
        cfg = _write(tmp_path, "sw.cfg", "preset = fig1\nt_end = 0.02\n")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw.csv"),
                   "--var", "seed", "--values", "1,2"])
        assert rc == 0
        meta = (tmp_path / "sw_seed=2.csv").read_text().splitlines()
        assert "# override: seed = 2" in meta and "# seed = 2" in meta

    def test_ensemble_mode_equals_the_ensemble_command(self, tmp_path, capsys, cores, monkeypatch):
        # on one core, 64 replicates per value run as one block through the
        # batched driver; each value's file is the ensemble command's on the
        # same config plus that value's override, less the verify details
        # after the predicted regime and the outcome. On two cores the
        # second value runs in a child, and stdout and files are the same
        blocks = []
        real = engine._simulate_batch
        monkeypatch.setattr(engine, "_simulate_batch", lambda *a: blocks.append(a[5]) or real(*a))
        base = "preset = persist\nt_end = 5\nn_reps = 64\n"
        _write(tmp_path, "sw.cfg", base)
        argv = ["sweep", "--sweep", "fig6", "--mode", "ensemble", "--config", "../sw.cfg", "--out", "sw.csv"]
        runs = []
        for n_cores in (1, 2):
            cores(n_cores)
            blocks.clear()
            work = tmp_path / str(n_cores)
            work.mkdir()
            monkeypatch.chdir(work)
            assert main(argv) == 0
            runs.append((capsys.readouterr(), {p.name: p.read_bytes() for p in sorted(work.iterdir())}))
            # the recorder sees this process's blocks only
            assert blocks == {1: [range(64), range(64)], 2: [range(64)]}[n_cores]
        assert runs[0] == runs[1]
        cores(1)
        monkeypatch.chdir(tmp_path / "1")
        assert runs[0][0].out.splitlines() == [
            "wrote sw_tau1=0.5.csv", "wrote sw_tau1=2.csv", "wrote sw_index.csv"
        ]
        assert runs[0][1]["sw_index.csv"].decode() == (
            "variable,value,file\ntau1,0.5,sw_tau1=0.5.csv\ntau1,2,sw_tau1=2.csv\n"
        )
        for value in ("0.5", "2"):
            _write(tmp_path, "e.cfg", base + f"tau1 = {value}\n")
            assert main(["ensemble", "--config", "../e.cfg", "--out", "e.csv"]) == 0
            want = (tmp_path / "1" / "e.csv").read_bytes().splitlines(keepends=True)
            details = [ln for ln in want if ln.startswith(b"# verify: ")][2:]
            assert len(details) == 4
            got = runs[0][1][f"sw_tau1={value}.csv"]
            assert got == b"".join(ln for ln in want if ln not in details)

    def test_ensemble_mode_stops_at_a_faulting_value(self, tmp_path, capsys, monkeypatch):
        # fig3 over 20 days explodes at replicate 3 of a 64-replicate block;
        # over 10 days it does not. The sweep keeps the file of the value
        # before the fault, writes no index and prints one fault line
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "sw.cfg", "preset = fig3\nn_reps = 64\n")
        argv = ["sweep", "--mode", "ensemble", "--config", "sw.cfg", "--out", "sw.csv",
                "--var", "t_end", "--values", "10,20"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("runtime fault:")] == err[-1:]
        assert err[-1].startswith("runtime fault: replicate 3: non-finite state at t=19.37: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sw.cfg", "sw_t_end=10.csv"]

    def test_sweep_requires_var_or_preset(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 1

    def test_colliding_file_names_rejected_before_writing(self, tmp_path, capsys):
        # both values print as 0.123456 under {value:g}
        cfg = _write(tmp_path, "sw.cfg", "preset = fig3\nt_end = 2\n")
        out = str(tmp_path / "sw.csv")
        rc = main(["sweep", "--config", cfg, "--out", out,
                   "--var", "r1", "--values", "0.1234561,0.1234564"])
        assert rc == 1
        assert "sw_r1=0.123456.csv" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sw.cfg"]

    @pytest.mark.parametrize("mode, var, values, error", [
        ("simulate", "t_end", "1,1e9", "simulation too large: "),
        ("ensemble", "n_reps", "4,100000000", "ensemble too large: "),
    ], ids=["simulate", "ensemble"])
    def test_a_value_over_the_limit_stops_the_sweep_before_any_file(self, tmp_path, capsys, mode, var,
                                                                     values, error):
        # the second value is over the memory limit: the first is not run
        cfg = _write(tmp_path, "sw.cfg", "preset = fig1\nt_end = 2\n")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw.csv"), "--mode", mode,
                   "--var", var, "--values", values])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("config error:")] == err.splitlines()[-1:]
        assert err.splitlines()[-1].startswith(f"config error: {error}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sw.cfg"]

    @pytest.mark.parametrize("mode, values, code", [
        ("simulate", "0,4", 0), ("simulate", "0,1,4", 2), ("simulate", "0,4,1,5", 2),
        ("ensemble", "0,4", 0), ("ensemble", "0,1,4", 2), ("ensemble", "0,4,1,5", 2),
    ], ids=["no-fault", "fault-in-parent-share", "fault-in-child-share",
            "ensemble-no-fault", "ensemble-fault-in-parent-share", "ensemble-fault-in-child-share"])
    def test_sweep_across_cores_equals_the_in_process_loop(self, tmp_path, capsys, cores, monkeypatch,
                                                           mode, values, code):
        # fig3 over 20 days explodes at seeds 1 and 5, not at 0 and 4, also
        # as the one replicate of an ensemble, which steps simulate's path.
        # Each value is run and written by one of two processes; the files,
        # stdout and stderr must be those of the loop over the values, which
        # stops at the first fault: with 0,1,4 this process faults on 1
        # while the child writes 4's file, which must not be left behind
        text = "preset = fig3\nt_end = 20\n" + ("n_reps = 1\n" if mode == "ensemble" else "")
        runs = []
        for n_cores in (1, 2):
            cores(n_cores)
            work = tmp_path / str(n_cores)
            work.mkdir()
            monkeypatch.chdir(work)
            _write(work, "sw.cfg", text)
            rc = main(["sweep", "--config", "sw.cfg", "--out", "sw.csv", "--var", "seed", "--values", values,
                       "--mode", mode])
            files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
            runs.append((rc, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        rc, out, files = runs[0]
        assert rc == code
        written = {"0,4": ["0", "4"], "0,1,4": ["0"], "0,4,1,5": ["0", "4"]}[values]
        assert out.out.splitlines()[:len(written)] == [f"wrote sw_seed={v}.csv" for v in written]
        assert sorted(files) == sorted(["sw.cfg", *(f"sw_seed={v}.csv" for v in written)]
                                       + (["sw_index.csv"] if code == 0 else []))
        assert_no_children()

    @pytest.mark.parametrize("mode, text, var, values, largest, code", [
        # largest names the value with the largest charge: tau3 = 2 has the
        # most history rows, so the largest trajectory and ring, and the
        # seeds share one; seed 1 faults
        ("simulate", "preset = fig3\nt_end = 2\n", "tau3", "1.5,2", "tau3 = 2\n", 0),
        ("simulate", "preset = fig3\nt_end = 20\n", "seed", "0,1,4", "", 2),
        ("ensemble", "preset = fig3\nt_end = 2\nn_reps = 257\n", "tau3", "1.5,2", "tau3 = 2\n", 0),
        ("ensemble", "preset = fig3\nt_end = 20\nn_reps = 3\n", "seed", "0,1,4", "", 2),
    ], ids=["no-fault", "fault", "ensemble-no-fault", "ensemble-fault"])
    def test_near_the_limit_values_run_in_process(self, tmp_path, capsys, cores, monkeypatch,
                                                  mode, text, var, values, largest, code):
        # spread, each of two processes holds up to the largest charge of the
        # values: a trajectory, or an ensemble's statistics twice and a hold
        # (ring or trajectory) per task, here two blocks or three replicates.
        # With the limit one byte under two charges nothing forks, and the
        # files, stdout, stderr and exit code equal those of the spread run
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        cores(2)
        cfg = parse_config(text + largest)
        c, d = cfg.to_step_config(), cfg.to_delays()
        held = engine._trajectory_bytes(c, d)
        if mode == "ensemble":
            _, _, pairs, stats, hold = ensemble._layout(c, d, cfg.n_reps)
            held = 2 * stats + len(pairs) * hold
            # one value's work is below the spread threshold, the sweep's is
            # not: only the sweep may fork
            monkeypatch.setattr(parallel, "_FORK_MIN", c.n_steps * cfg.n_reps + 1)
        runs = []
        for limit in (engine._MAX_BYTES, 2 * held - 1):
            monkeypatch.setattr(engine, "_MAX_BYTES", limit)
            forks.clear()
            work = tmp_path / str(limit)
            work.mkdir()
            monkeypatch.chdir(work)
            _write(work, "sw.cfg", text)
            rc = main(["sweep", "--config", "sw.cfg", "--out", "sw.csv", "--var", var, "--values", values,
                       "--mode", mode])
            files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
            runs.append((rc, capsys.readouterr(), files, len(forks)))
        assert runs[0][:3] == runs[1][:3]
        assert (runs[0][0], runs[0][3], runs[1][3]) == (code, 1, 0)
        assert_no_children()


# The output format, pinned byte for byte (metadata included) on tiny runs of
# every subcommand that writes files.
_GOLDEN = {
    "sim.csv": (
        "# command = simulate\n"
        "# preset = fig1\n"
        "# override: seed = 3\n"
        "# override: t_end = 0.03\n"
        "# assumed: a1 = 0.05 (package default)\n"
        "# assumed: a2 = 0.05 (package default)\n"
        "# assumed: lambda = 1.0 (package default)\n"
        "# seed = 3\n"
        "# dt = 0.01\n"
        "# t_end = 0.03\n"
        "# floor_hits = 0\n"
        "# jump_events = 0\n"
        "t,x,y,z\n"
        "0,10,10,5\n"
        "0.01,9.9175093981840963,9.8845226569201685,4.9204750435148012\n"
        "0.02,9.837860934442368,9.7731397125956398,4.8439662593204122\n"
        "0.029999999999999999,9.7612139411464849,9.6658702195930921,4.7704662363142107\n"
    ),
    "ens.csv": (
        "# command = ensemble\n"
        "# preset = extinct\n"
        "# override: n_reps = 2\n"
        "# override: t_end = 0.01\n"
        "# seed = 0\n"
        "# dt = 0.01\n"
        "# t_end = 0.01\n"
        "# n_reps = 2\n"
        "# floor_hits_total = 0\n"
        "# verify: predicted = ExtinctionAll\n"
        "# verify: outcome = FAIL\n"
        "# verify: median terminal averages: <x> = 1.03467, <y> = 0.986372,"
        " <z> = 1.01829 over 2 replicates\n"
        "# verify: <x> = 1.03467 < 0.05 -> FAIL\n"
        "# verify: <y> = 0.986372 < 0.05 -> FAIL\n"
        "# verify: <z> = 1.01829 < 0.05 -> FAIL\n"
        "t,mean_x,sd_x,q025_x,q500_x,q975_x,mean_y,sd_y,q025_y,q500_y,q975_y,mean_z,sd_z,"
        "q025_z,q500_z,q975_z\n"
        "0,1,0,1,1,1,1,0,1,1,1,1,0,1,1,1\n"
        "0.01,1.0693462278577959,0.010798155409246399,1.0620925513893207,1.0693462278577959,"
        "1.0765999043262711,0.97274442839607678,0.095019204717131475,0.90891514059756218,"
        "0.97274442839607678,1.0365737161945914,1.0365749347459421,0.045373645158835789,"
        "1.0060951231759254,1.0365749347459421,1.0670547463159588\n"
    ),
    "conv.csv": (
        "# command = convergence\n"
        "# preset = fig3\n"
        "# override: t_end = 0.1\n"
        "# assumed: a1 = 0.05 (package default)\n"
        "# assumed: a2 = 0.05 (package default)\n"
        "# assumed: lambda = 1.0 (package default)\n"
        "# seed = 0\n"
        "# dt = 0.01\n"
        "# t_end = 0.1\n"
        "# observed_order = 1.0049130353198308\n"
        "dt,max_err,pair_order\n"
        "0.01,0.00094070211219587918,\n"
        "0.0050000000000000001,0.00046875202026797069,1.0049130353198279\n"
    ),
    "sw_tau1=0.01.csv": (
        "# command = simulate\n"
        "# preset = none\n"
        "# override: r1 = 0.5\n"
        "# override: t_end = 0.02\n"
        "# override: tau1 = 0.01\n"
        "# seed = 0\n"
        "# dt = 0.01\n"
        "# t_end = 0.02\n"
        "# floor_hits = 0\n"
        "# jump_events = 0\n"
        "t,x,y,z\n"
        "0,10,10,5\n"
        "0.01,9.8995785906767715,9.8844160094087954,4.92054715789385\n"
        "0.02,9.8024505322171045,9.7730671806269296,4.8442780255252451\n"
    ),
    "sw_tau1=0.02.csv": (
        "# command = simulate\n"
        "# preset = none\n"
        "# override: r1 = 0.5\n"
        "# override: t_end = 0.02\n"
        "# override: tau1 = 0.02\n"
        "# seed = 0\n"
        "# dt = 0.01\n"
        "# t_end = 0.02\n"
        "# floor_hits = 0\n"
        "# jump_events = 0\n"
        "t,x,y,z\n"
        "0,10,10,5\n"
        "0.01,9.8995785906767715,9.8844160094087954,4.92054715789385\n"
        "0.02,9.8024505322171045,9.7730671806269296,4.8442780255252451\n"
    ),
    "sw_index.csv": (
        "variable,value,file\n"
        "tau1,0.01,sw_tau1=0.01.csv\n"
        "tau1,0.02,sw_tau1=0.02.csv\n"
    ),
}


# values whose text is easy to get wrong: signed zero, the smallest subnormal
# and other subnormals, the largest magnitudes, integer-valued floats
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310, 1e308,
                -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22, 0.1]


def _per_cell_rows(table):
    """The rows as ``'%.17g' % v`` formats each cell, the reference the
    writer must equal; a NaN is an empty cell."""
    return [",".join("" if math.isnan(v) else "%.17g" % v for v in row) + "\n"
            for row in table.tolist()]


def _assert_rows(got, table):
    """The written rows ``got`` equal the per-cell reference rows of ``table``."""
    want = _per_cell_rows(table)
    assert len(got) == len(want)
    # the first differing row, not a diff of thousands
    assert next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None


def _assert_kernel_rows(table):
    _assert_rows(cli._csv_rows(table).decode().splitlines(keepends=True), table)


def _in_range(gen, cells):
    """Signed values log-uniform over the array path's range, 1e-28 to 1e16."""
    return gen.choice([-1.0, 1.0], cells) * 10.0 ** gen.uniform(-28, 16, cells)


class TestOutputFormat:
    @pytest.mark.parametrize("width", [1, 3, 16])
    # the row count at width 1; at width w, a slab of cli._SLAB_CELLS cells
    # is _SLAB_CELLS // w rows: 0, 1, one slab, one slab + 1, two slabs + 3
    @pytest.mark.parametrize(
        "width1_rows", [0, 1, cli._SLAB_CELLS, cli._SLAB_CELLS + 1, 2 * cli._SLAB_CELLS + 3]
    )
    def test_block_writer_matches_per_cell_reference(self, tmp_path, width1_rows, width):
        slabs, extra = divmod(width1_rows, cli._SLAB_CELLS)
        rows = slabs * (cli._SLAB_CELLS // width) + extra
        gen = np.random.default_rng(width1_rows * 100 + width)
        cells = rows * width
        wide = gen.standard_normal(cells) * 10.0 ** gen.integers(-300, 300, cells)
        flat = np.where(gen.random(cells) < 0.5, _in_range(gen, cells), wide)
        flat[gen.permutation(cells)[: len(_EDGE_VALUES)]] = _EDGE_VALUES[:cells]
        table = flat.reshape(rows, width)
        if rows:  # a missing value in the first slab and in the last
            table[0, width // 2] = table[-1, -1] = math.nan
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), parse_config(""), "test", [], "HEADER", table)
        _assert_rows(path.read_text().partition("HEADER\n")[2].splitlines(keepends=True), table)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
    def test_rows_equal_percent_format_on_any_float(self, values, width):
        # NaN, infinities, -0.0 and subnormals included
        cells = np.array(values + [0.0] * (-len(values) % width))
        _assert_kernel_rows(cells.reshape(-1, width))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-28, max_value=1e16, exclude_max=True), min_size=1, max_size=40),
           st.booleans())
    def test_rows_equal_percent_format_in_the_array_range(self, values, negative):
        cells = np.array(values)
        _assert_kernel_rows((-cells if negative else cells).reshape(-1, 1))

    def test_rows_equal_percent_format_at_the_hard_cases(self):
        powers = np.array([float(f"1e{e}") for e in range(-29, 18)])
        below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
        neighbours = np.concatenate([powers, below, np.nextafter(below, 0), above, np.nextafter(above, np.inf)])
        # the switch between fixed and exponent form, at 1e-4
        switch = 1e-4 * (1 + np.arange(-40, 41) * 2.0**-52)
        # values below 10**e whose 17-digit rounding carries into 10**e
        carries = [v for v in neighbours.tolist() if Decimal("%.17g" % v).as_tuple().digits == (1,)
                   and Fraction(v) < Fraction(Decimal("%.17g" % v))]
        assert 1e-14 in carries  # the double nearest 10**-14 lies below it
        # exact ties at 17 digits, which %.17g rounds half to even
        halves = [(2**52 + 2 * i + 1) / 4 for i in range(20)] + [m * 2.0**-25 for m in range(1, 40, 2)]
        halves = [v for v in halves if len(Decimal(v).as_tuple().digits) == 18]
        assert len(halves) >= 20 and all(Decimal(v).as_tuple().digits[-1] == 5 for v in halves)
        cells = np.concatenate([neighbours, switch, carries, halves])
        _assert_kernel_rows(np.concatenate([cells, -cells]).reshape(-1, 1))
        # a zero column beside negatives
        _assert_kernel_rows(np.column_stack([np.zeros(len(cells)), -cells, -np.zeros(len(cells))]))

    def test_powers_of_ten_split_exactly(self):
        for k, (hi, lo) in enumerate(zip(cli._POW_HI.tolist(), cli._POW_LO.tolist())):
            assert int(hi) + int(lo) == 10**k
        for e, bound in enumerate(cli._DECADES.tolist(), start=-28):
            assert Fraction(bound) >= Fraction(10) ** e > Fraction(float(np.nextafter(bound, 0)))

    @pytest.mark.parametrize("rows, width", [(50_001, 4), (2_002, 16)])
    def test_writer_memory_is_a_slab_not_the_table(self, tmp_path, rows, width):
        # a path at T = 500 and an ensemble's statistics table: the writer
        # holds one slab's temporaries, whatever the table's size
        table = np.random.default_rng(0).random((rows, width)) * 100
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path / "t.csv"), parse_config(""), "test", [], "HEADER", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_every_writer_byte_for_byte(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "sim.cfg", "preset = fig1\nt_end = 0.03\n")
        _write(tmp_path, "ens.cfg", "preset = extinct\nt_end = 0.01\nn_reps = 2\n")
        _write(tmp_path, "conv.cfg", "preset = fig3\nt_end = 0.1\n")
        _write(tmp_path, "sw.cfg", "t_end = 0.02\nr1 = 0.5\n")
        for argv in (
            ["simulate", "--config", "sim.cfg", "--seed", "3", "--out", "sim.csv"],
            ["ensemble", "--config", "ens.cfg", "--out", "ens.csv"],
            ["convergence", "--config", "conv.cfg", "--out", "conv.csv",
             "--dts", "1e-2,5e-3", "--ref-dt", "2.5e-3"],
            ["sweep", "--config", "sw.cfg", "--out", "sw.csv", "--var", "tau1", "--values", "0.01,0.02"],
        ):
            assert main(argv) == 0
        got = {name: (tmp_path / name).read_bytes() for name in _GOLDEN}
        # observed_order is a LAPACK least-squares slope whose last bits may
        # depend on the BLAS build; every other byte must match exactly
        line = re.search(rb"^# observed_order = (.*)\n", got["conv.csv"], re.M)
        assert float(line[1]) == pytest.approx(1.0049130353198308, rel=1e-12)
        got["conv.csv"] = got["conv.csv"].replace(line[0], b"# observed_order = 1.0049130353198308\n")
        assert got == {name: text.encode() for name, text in _GOLDEN.items()}


class TestErrors:
    def test_config_error_exit_code(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", "q1 = -2\n")
        assert main(["classify", "--config", cfg]) == 1

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("argv, text, error", [
        (["ensemble"], "preset = persist\nt_end = 5\nx0\n", "line 3: expected 'key = value', got 'x0'"),
        (["ensemble"], "preset = persist\nx0 =\n", "line 2: empty value for 'x0'"),
        (["sweep", "--sweep", "nosuch"], "preset = persist\n",
         "unknown sweep preset 'nosuch' (available: fig4_a1, fig4_a2, fig5_k1, fig5_k2, "
         "fig6, fig7, fig8, fig9)"),
    ], ids=["no-equals", "empty-value", "unknown-sweep"])
    def test_bad_input_is_one_config_error_line(self, tmp_path, capsys, argv, text, error):
        cfg = _write(tmp_path, "bad.cfg", text)
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_config_not_utf8_names_its_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"preset = persist\nx0 = 5\xff\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {str(cfg)!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_empty_sweep_is_config_error(self, tmp_path, capsys):
        # a value list with no values is refused like an empty --dts, before
        # the index is written
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--var", "tau1", "--values", ",", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: --values must be nonempty: got []\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra, option", [
        (["--var", "tau1"], "--var"),
        (["--values", "abc"], "--values"),
        (["--var", "tau1", "--values", "0.5"], "--var"),
    ])
    def test_sweep_preset_with_var_or_values_is_config_error(self, tmp_path, capsys, extra, option):
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--sweep", "fig6", "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == (
            f"config error: {option} cannot be combined with --sweep, which gives both\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_blank_list_entry_is_config_error(self, tmp_path, capsys):
        # a typo must not run fewer values or steps than written
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\nt_end = 1\n")
        out = tmp_path / "o.csv"
        for argv, option, text in (
            (["sweep", "--var", "tau1", "--values", "0.5,,1"], "--values", "0.5,,1"),
            (["sweep", "--var", "tau1", "--values", "0.5,1,"], "--values", "0.5,1,"),
            (["convergence", "--config", cfg, "--dts", "1e-2,,5e-3"], "--dts", "1e-2,,5e-3"),
        ):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"config error: {option} must be a comma-separated float list, got {text!r}"
            )
            assert sorted(p.name for p in tmp_path.iterdir()) == ["f3.cfg"]

    def test_runtime_fault_exit_code(self, tmp_path):
        # fig3 core from a start whose first overshoot crosses the
        # cooperation flip: integration diverges and must exit 2
        cfg = _write(tmp_path, "boom.cfg", "preset = fig3\nx0 = 10\ny0 = 10\nz0 = 5\nt_end = 10\nseed = 2\n")
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2

    @pytest.mark.parametrize("extra", [[], ["--dts", "1e-2", "--ref-dt", "1e-2"]])
    def test_oracle_divergence_is_runtime_fault(self, tmp_path, capsys, extra):
        # the fig3 core explodes near t = 20; the reference solver's one
        # end-of-step check must report it as a runtime fault, both when the
        # overflow first shows in the new state (default steps) and when it
        # first shows in a stage value that only the rates carry forward
        # (dt = 1e-2)
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\nt_end = 200\n")
        out = str(tmp_path / "c.csv")
        assert main(["convergence", "--config", cfg, "--out", out, *extra]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if not ln.startswith("warning:")] == [
            ln for ln in err if ln.startswith("runtime fault: reference solver")
        ]
        assert len(err) == 2

    def test_off_grid_convergence_step_is_config_error(self, tmp_path, capsys, monkeypatch):
        # dt = 0.003 fits neither fig3's delays nor t_end = 10: the study must
        # stop instead of comparing a shifted system against the reference,
        # and must stop before it spends any time on the reference
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference was solved")

        monkeypatch.setattr(oracle, "solve_deterministic", no_reference)
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\n")
        out = tmp_path / "c.csv"
        argv = ["convergence", "--config", cfg, "--out", str(out),
                "--dts", "0.01,0.003", "--ref-dt", "0.0005"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("warning: delta = 0.02")
        assert err[1] == "config error: t_end must be divided evenly by dt = 0.003 from --dts: got 10.0"
        assert not out.exists()
        # a step list that is empty or not descending, a step that is not a
        # positive number or is off the delay grid, and a reference step that
        # is not a positive number or does not divide a study step, are caught
        # as early, each naming its option and value
        for dts, ref_dt, error in (
            ("-0.01", "0.001", "--dts must be > 0: got -0.01"),
            (",", "0.001", "--dts must be nonempty: got []"),
            ("5e-3,1e-2", "0.001", "--dts must be strictly descending: got [0.005, 0.01]"),
            ("0.2", "0.05", "tau1 must be divided evenly by dt = 0.2 from --dts: got 0.5"),
            ("0.01", "0.003", "--ref-dt must divide dt = 0.01: got 0.003"),
            ("0.01", "0", "--ref-dt must be > 0: got 0.0"),
            ("0.01", "nan", "--ref-dt must be finite: got nan"),
            ("0.01", "-1e-3", "--ref-dt must be > 0: got -0.001"),
        ):
            argv = ["convergence", "--config", cfg, "--out", str(out), f"--dts={dts}", f"--ref-dt={ref_dt}"]
            assert main(argv) == 1
            assert capsys.readouterr().err.splitlines()[-1] == f"config error: {error}"
            assert not out.exists()

    @pytest.mark.parametrize("text, flags, error", [
        ("preset = fig1\nt_end = 2\nseed = -3\n", [], "seed must be >= 0 (line 3): got -3"),
        ("preset = fig1\nt_end = 2\n", ["--seed", "-1"], "seed must be >= 0: got -1"),
    ], ids=["config", "option"])
    def test_negative_seed_names_its_key(self, tmp_path, capsys, text, flags, error):
        cfg = _write(tmp_path, "s.cfg", text)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", cfg, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
        assert not out.exists()

    def test_oversized_ensemble_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(ensemble.engine, "simulate", no_replicate)
        cfg = _write(tmp_path, "big.cfg", "preset = persist\nt_end = 500\nn_reps = 100000\n")
        out = tmp_path / "e.csv"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("config error: ensemble too large: n_reps=100000 x 2001 stat points")
        assert not out.exists()

    def test_oversized_delay_ring_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a batched block keeps kmax + 1 grid rows of its 256 replicates:
        # tau1 = 2000 at dt = 0.01 is 200001 rows, 1.14 GiB, though the path
        # statistics and the horizon are small
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        for name in ("simulate", "_simulate_batch"):
            monkeypatch.setattr(engine, name, no_replicate)
        cfg = _write(tmp_path, "ring.cfg", "preset = persist\ntau1 = 2000\nt_end = 1\nn_reps = 256\n")
        out = tmp_path / "e.csv"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("config error:")] == [
            "config error: ensemble too large: n_reps=256 x 101 stat points needs 1.14 GiB "
            "of path statistics and delay ring (limit 1 GiB); lower n_reps"
        ]
        assert not out.exists()

    def test_oversized_simulation_is_config_error(self, tmp_path, capsys):
        # 1e11 steps: the grid record alone would need terabytes, so simulate
        # must refuse before drawing, naming the keys that set the step count
        cfg = _write(tmp_path, "long.cfg", "preset = fig1\nt_end = 1000000000\n")
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("warning: delta = 0.1")
        assert err[1] == (
            "config error: simulation too large: 100000000000 steps (t_end=1000000000.0, "
            "dt=0.01) needs 13411.05 GiB of grid record (151 history rows) and path "
            "(limit 1 GiB); lower t_end or the delays, or raise dt"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, n_reps, filler, message", [
        ("simulate", "", "init_history",
         "config error: simulation too large: 1000 steps (t_end=1.0, dt=0.001) needs 8.94 GiB "
         "of grid record (100000001 history rows) and path (limit 1 GiB); "
         "lower t_end or the delays, or raise dt"),
        ("ensemble", "n_reps = 2\n", "_simulate_batch",
         "config error: ensemble too large: n_reps=2 x 1001 stat points needs 4.47 GiB "
         "of path statistics and delay ring (limit 1 GiB); lower n_reps"),
    ], ids=["simulate", "ensemble"])
    def test_oversized_delay_history_is_config_error(self, tmp_path, capsys, monkeypatch, command, n_reps,
                                                     filler, message):
        # 1000 steps, but tau1 = 100000 at dt = 0.001 is 10^8 history rows:
        # 8.94 GiB of grid record for simulate, and for an ensemble, whose
        # paths simulate could not keep, a one-block ring of 2 replicates
        # (4.47 GiB); refused before the history or the ring is filled
        def no_history(*args, **kwargs):
            raise AssertionError("the history was filled")

        monkeypatch.setattr(engine, filler, no_history)
        cfg = _write(tmp_path, "h.cfg", f"preset = fig1\ntau1 = 100000\ndt = 0.001\nt_end = 1\n{n_reps}")
        out = tmp_path / "s.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("config error:")] == [message]
        assert not out.exists()

    @pytest.mark.parametrize("steps, option, value, n_steps", [
        (["--dts", "1e-7"], "--dts", "1e-07", 10000000),
        (["--dts", "1e-6", "--ref-dt", "1e-8"], "--ref-dt", "1e-08", 100000000),
    ], ids=["study-step", "reference-step"])
    def test_oversized_convergence_is_config_error(self, tmp_path, capsys, monkeypatch, steps, option,
                                                   value, n_steps):
        # every study step and the reference step obey simulate's horizon
        # limit, checked before the reference is solved; the error names the
        # option the step came from and its value
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference was solved")

        monkeypatch.setattr(oracle, "solve_deterministic", no_reference)
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\nt_end = 1\n")
        out = tmp_path / "c.csv"
        assert main(["convergence", "--config", cfg, "--out", str(out), *steps]) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error:")]
        assert len(err) == 1
        assert err[0].startswith(f"config error: {option} makes the simulation too large: "
                                 f"{n_steps} steps (t_end=1.0, dt={value}) needs ")
        assert err[0].endswith(f"; raise it, or lower t_end or the delays: got {value}")
        assert not out.exists()

    def test_replicate_fault_is_one_runtime_fault_line(self, tmp_path, capsys):
        # fig3 over 20 days: 38 of the first 100 replicates explode (3, 8,
        # 11, 12 and 15 of the first 16; 96 is the last); 16 replicates run
        # one at a time and 100 in a batch, and both must stop at the lowest
        # faulting index
        def fault_lines(text, counts):
            lines = {}
            for n_reps in counts:
                cfg = _write(tmp_path, "f.cfg", f"preset = fig3\nt_end = 20\n{text}n_reps = {n_reps}\n")
                out = tmp_path / "e.csv"
                assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 2 and err[0].startswith("warning: delta = 0.02")
                assert not out.exists()
                lines[n_reps] = err[1]
            return lines

        lines = fault_lines("", (16, 100))
        assert lines[16] == lines[100]
        assert lines[16].startswith("runtime fault: replicate 3: non-finite state at t=19.37: ")
        # with every sigma 0 a block draws no normals, yet its line reports
        # the normals simulate drew
        quiet = fault_lines("sigma1 = 0\nsigma2 = 0\nsigma3 = 0\n", (16, 64))
        assert quiet[16] == quiet[64]
        assert quiet[16].startswith("runtime fault: replicate 3: non-finite state at t=19.39: ")

    @pytest.mark.parametrize("n_reps", [63, 64])
    def test_horizon_limit_is_one_rule_for_every_ensemble(self, tmp_path, capsys, monkeypatch, n_reps):
        # below 64 replicates each runs through simulate, which keeps its
        # path, only while the paths fit simulate's horizon limit, and as one
        # block otherwise; blocks keep only their statistics rows and delay
        # rings, so the horizon alone refuses nothing. fig3 over 20 days is
        # 2000 steps after 151 history rows: with the limit set at exactly
        # that horizon the replicate fault is reported; one byte per step more
        # and it still is, by one block of all the replicates
        ran = []
        for name in ("simulate", "_simulate_batch"):
            real = getattr(engine, name)
            monkeypatch.setattr(engine, name,
                                lambda *a, name=name, real=real, **kw: ran.append(name) or real(*a, **kw))
        cfg = _write(tmp_path, "f.cfg", f"preset = fig3\nt_end = 20\nn_reps = {n_reps}\n")
        out = tmp_path / "e.csv"
        at_limit = (engine._MAX_BYTES - 151 * engine._ROW_BYTES) // 2000
        for step_bytes in (at_limit, at_limit + 1):
            monkeypatch.setattr(engine, "_STEP_BYTES", step_bytes)
            ran.clear()
            assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and not out.exists()
            assert err[1].startswith("runtime fault: replicate 3: non-finite state at t=19.37: ")
        assert ran == ["_simulate_batch"]

    def test_ensemble_beyond_float_range_is_config_error(self, tmp_path, capsys):
        # the size check must not turn n_reps into a float on the way
        cfg = _write(tmp_path, "huge.cfg", "preset = persist\nn_reps = 1" + "0" * 400 + "\n")
        out = tmp_path / "e.csv"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("warning: delta = 0.02")
        assert err[1].startswith("config error: ensemble too large: n_reps=1" + "0" * 400 + " x 2001")
        assert not out.exists()

    def test_step_too_small_for_any_grid_is_config_error(self, tmp_path, capsys):
        # at dt = 1e-320 every value / dt overflows: off the grid, not a crash
        tiny = _write(tmp_path, "tiny.cfg", "preset = fig3\ndt = 1e-320\n")
        assert main(["classify", "--config", tiny]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: tau1 must be divided evenly by dt = 9.99989e-321 (line 1): got 0.5"
        ]
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\n")
        out = tmp_path / "c.csv"
        assert main(["convergence", "--config", cfg, "--out", str(out), "--dts", "1e-320"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("warning: delta = 0.02")
        assert err[1] == "config error: t_end must be divided evenly by dt = 9.99989e-321 from --dts: got 10.0"
        assert not out.exists()
