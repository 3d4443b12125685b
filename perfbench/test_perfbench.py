"""Tests of the benchmark harness itself, at tiny workload sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from levyprey import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_the_harness_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "fail_frac" in proc.stdout


def _prepared(tmp_path, monkeypatch, name: str) -> workloads.Workload:
    monkeypatch.chdir(tmp_path)
    wl = workloads.build(name, 0, "tiny")
    for file, text in wl.configs.items():
        (tmp_path / file).write_text(text)
    return wl


def _corrupting(write):
    """cli.main that runs the real one, then rewrites the first data row of its CSV."""
    real = cli.main

    def main(argv):
        rc = real(argv)
        path = "convergence.csv"
        if os.path.isfile(path):
            lines = open(path).read().splitlines()
            first = next(i for i, line in enumerate(lines) if line[:1].isdigit())
            lines[first] = write(lines[first])
            open(path, "w").write("\n".join(lines) + "\n")
        return rc

    return main


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    wl = _prepared(tmp_path, monkeypatch, "convergence")
    reference: dict = {}
    clean = child.run_pass(cli, wl, reference, None, child.HostSpeed())
    assert (clean["ops"], clean["failed"]) == (2, 0), clean["problems"]

    # same shape, different digits: only the comparison with the first pass sees it
    monkeypatch.setattr(cli, "main", _corrupting(lambda row: row.replace("1", "2", 1)))
    changed = child.run_pass(cli, wl, reference, None, child.HostSpeed())
    assert (changed["ops"], changed["failed"]) == (2, 1)
    assert any("differs from the first pass" in p for p in changed["problems"])

    # a non-finite value fails the content check even with no earlier pass
    monkeypatch.setattr(cli, "main", _corrupting(lambda row: "nan," + row.split(",", 1)[1]))
    fresh = child.run_pass(cli, wl, {}, None, child.HostSpeed())
    assert fresh["failed"] == 1
    assert any("non-finite or negative" in p for p in fresh["problems"])


def test_pinned_digest_mismatch_counts_as_failed(tmp_path, monkeypatch):
    wl = _prepared(tmp_path, monkeypatch, "ensemble_wide")
    wl = dataclasses.replace(wl, pinned={"ensemble_wide.csv": "0" * 64})
    record = child.run_pass(cli, wl, {}, None, child.HostSpeed())
    assert record["failed"] == 1
    assert any("differs from the pinned" in p for p in record["problems"])


def test_tracer_wraps_every_call_site_and_restores_it():
    import levyprey.cli
    import levyprey.ensemble
    import levyprey.oracle

    originals = (levyprey.ensemble.time_average, levyprey.cli.parse_config_file,
                 levyprey.oracle.solve_deterministic, levyprey.engine.simulate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = (levyprey.ensemble.time_average, levyprey.cli.parse_config_file,
                   levyprey.oracle.solve_deterministic, levyprey.engine.simulate)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert levyprey.analysis.time_average is levyprey.ensemble.time_average
    finally:
        tracer.uninstall()
    assert (levyprey.ensemble.time_average, levyprey.cli.parse_config_file,
            levyprey.oracle.solve_deterministic, levyprey.engine.simulate) == originals


def test_traced_passes_match_untraced_and_nest_their_spans(tmp_path, monkeypatch):
    wl = _prepared(tmp_path, monkeypatch, "ensemble_wide")
    passes, tracer = child.run_passes(cli, wl, seconds=0.0, trace=True, reference={})
    assert [p["traced"] for p in passes] == [False, True]
    assert sum(p["failed"] for p in passes) == 0, [p["problems"] for p in passes]
    layers = passes[1]["layers"]
    n_reps = 50
    assert layers["engine.simulate.calls"] == n_reps
    assert layers["rng.stream.calls"] == 2 * n_reps
    assert layers["analysis.time_average.calls"] == n_reps
    assert layers["engine.step_reps"] == wl.steps_per_pass
    assert layers["engine.simulate.self_s"] > 0
    by_index = tracer.spans
    for name, start, end, parent, _ in by_index:
        if parent >= 0:
            assert by_index[parent][1] <= start <= end <= by_index[parent][2], name


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "convergence", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
