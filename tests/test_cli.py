"""End-to-end tests of the command-line surface."""

import pytest

from levyprey import ensemble
from levyprey.cli import main

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

    def test_sweep_preset(self, tmp_path):
        out = str(tmp_path / "d.csv")
        # fig9 sweeps all three delays jointly on the persist base
        rc = main(["sweep", "--sweep", "fig9", "--out", out])
        assert rc == 0
        assert (tmp_path / "d_tau_all=0.5.csv").exists()
        assert (tmp_path / "d_tau_all=1.csv").exists()

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


class TestErrors:
    def test_config_error_exit_code(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", "q1 = -2\n")
        assert main(["classify", "--config", cfg]) == 1

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 1

    def test_runtime_fault_exit_code(self, tmp_path):
        # fig3 core from a start whose first overshoot crosses the
        # cooperation flip: integration diverges and must exit 2
        cfg = _write(tmp_path, "boom.cfg", "preset = fig3\nx0 = 10\ny0 = 10\nz0 = 5\nt_end = 10\nseed = 2\n")
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2

    @pytest.mark.parametrize("extra", [[], ["--dts", "1e-2", "--ref-dt", "1e-2"]])
    def test_oracle_divergence_is_runtime_fault(self, tmp_path, capsys, extra):
        # the fig3 core explodes near t = 20; the reference solver must report
        # it as a runtime fault, whether the end-of-step check or a stage
        # evaluation sees the overflow first
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\nt_end = 200\n")
        out = str(tmp_path / "c.csv")
        assert main(["convergence", "--config", cfg, "--out", out, *extra]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if not ln.startswith("warning:")] == [
            ln for ln in err if ln.startswith("runtime fault: reference solver")
        ]
        assert len(err) == 2

    def test_off_grid_convergence_step_is_config_error(self, tmp_path, capsys):
        # dt = 0.003 fits neither fig3's delays nor t_end = 10: the study must
        # stop instead of comparing a shifted system against the reference
        cfg = _write(tmp_path, "f3.cfg", "preset = fig3\n")
        out = tmp_path / "c.csv"
        argv = ["convergence", "--config", cfg, "--out", str(out),
                "--dts", "0.01,0.003", "--ref-dt", "0.0005"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("warning: delta = 0.02")
        assert err[1] == "config error: StepConfig.t_end must be divided evenly by dt = 0.003, got 10.0"
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
