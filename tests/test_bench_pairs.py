"""scripts/bench_pairs.py refuses checkouts whose commits it cannot record."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def test_a_directory_outside_git_is_refused_before_any_run(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and str(parent) in lines[0] and "git worktree add" in lines[0]
    assert not out.exists()
