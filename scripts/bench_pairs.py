#!/usr/bin/env python3
"""Compare a change with its parent commit in alternating pairs of benchmark runs.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \\
        [--workload all | NAME ...] [--seed 0]

PARENT_DIR and CHANGE_DIR are two checkouts, each with its own perfbench/
and src/. A pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, for every workload in turn,
and the side that runs first swaps on every pair, so a drift in the host's
speed falls on both sides alike. A set is always ten pairs, and T is
run_seconds from CHANGE_DIR's BENCHMARK.json, passed to both sides so that
they measure for the same time.

Each run's end-to-end metrics and fail_frac are kept under ``runs``. Per
metric, ``metrics`` gives each side's median and quartiles
(statistics.quantiles, inclusive), the pairs the change won (ties count for
neither; "better" and "bound" come from CHANGE_DIR's BENCHMARK.json), the
relative change of the medians, and whether the gap between the medians
exceeds the parent's interquartile range. The set is appended to ``--out``
when that file exists, so one file can hold sets at several seeds.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10


def _commit(checkout: str) -> str:
    """The checkout's HEAD commit, with "-dirty" when it has uncommitted changes."""
    try:
        head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One timed perfbench run in checkout: its end-to-end metric values,
    fail_frac and correct flag, read from the JSON line the run prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run["fail_frac"] = result["failed"] / result["attempted"]
    run["correct"] = result["correct"]
    return run


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Per end-to-end metric of spec, both sides' spread, the change's wins
    over pairs and the relative change of the medians."""
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        sides = {side: [r[name] for r in runs[side]] for side in SIDES}
        parent, change = _spread(sides["parent"]), _spread(sides["change"])
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        metrics[name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "bound": m["bound"],
            "relative_change": change["median"] / parent["median"] - 1.0,
            "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write or append a set to")
    ap.add_argument("--workload", nargs="+", default=["all"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]] if args.workload == ["all"] else args.workload
    seconds = spec["run_seconds"]

    runs = {w: {side: [] for side in SIDES} for w in names}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for w in names:
            for side in order:
                runs[w][side].append(run_once(checkouts[side], w, args.seed, seconds))
                print(f"pair {pair + 1}/{PAIRS} {w} {side}: "
                      f"wall_s {runs[w][side][-1]['wall_s']:.4g}", file=sys.stderr)

    record = {"method": (
        "Each set alternates pairs of runs of `python3 perfbench/run.py --workload W --seed S "
        "--seconds T --trace 0` (the set's seed and seconds) in a checkout of the parent and one "
        "of the change, swapping which side runs first on every pair (scripts/bench_pairs.py). "
        "Each run's end-to-end metrics and fail_frac are kept under "
        "runs; per metric, metrics gives each side's median and quartiles (statistics.quantiles, "
        "inclusive), the pairs the change won (ties count for neither), and whether the gap between "
        "the medians exceeds the parent's interquartile range."
    ), "sets": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["sets"].append({
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "parent": _commit(checkouts["parent"]),
        "change": _commit(checkouts["change"]),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {w: {"metrics": summarize(runs[w], spec), "runs": runs[w]} for w in names},
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w in names:
        for name, m in record["sets"][-1]["workloads"][w]["metrics"].items():
            print(f"{w:14s} {name:12s} parent {m['parent']['median']:>12.6g} "
                  f"change {m['change']['median']:>12.6g} {m['relative_change']:+7.1%} "
                  f"wins {m['change_wins']}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
