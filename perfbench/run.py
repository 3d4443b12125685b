"""Run one levyprey benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload ensemble_long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each run starts fresh child processes (child.py) with ``src`` on PYTHONPATH
and BLAS/OpenMP threads capped at the number of usable cores, in ROUNDS
rounds. Wall and set-up times are scaled to a reference host speed, measured
next to the work by child.speed. With ``--trace 0`` a round starts PROBES_PER_ROUND children that only
set up, then one child that sets up and times untraced passes for
``--seconds / ROUNDS``; the last line of stdout is a JSON object holding
every end-to-end metric listed in BENCHMARK.json. With ``--trace 1`` each
round's child alternates untraced and traced passes and the JSON holds every
per-layer metric instead. Readable lines with units and sample counts come
first; a record with provenance goes to ``.perfbench_out/``.

Exit status 0 means the run completed and its result was printed; an
operation that failed is counted in the result, not in the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The host's speed shifts between plateaus lasting several seconds, so a run
# is split into rounds that sample set-up and passes across the whole run.
ROUNDS = 4
PROBES_PER_ROUND = 1  # set-up-only children before each timed child
CHILD_TIMEOUT_S = 120  # per child, so a hung child cannot hold a run for minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _run_child(args: list[str], workdir: str, env: dict[str, str]) -> dict:
    result_path = os.path.join(workdir, "child_result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args, "--result", result_path]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within {CHILD_TIMEOUT_S} s: {' '.join(args)}") from None
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(args)}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, spec: dict) -> dict:
    """Run one workload in fresh children; return its metrics and record."""
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    workdir = os.path.join(ROOT, ".perfbench_work", name)
    outdir = os.path.join(ROOT, ".perfbench_out")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.build(name, seed, size)
    base = ["--workload", name, "--seed", str(seed), "--size", size]
    reference_path = os.path.join(workdir, "reference.json")
    started: list[dict] = []  # results of every child, for set-up time
    children: list[dict] = []  # results of the timed children
    try:
        for r in range(ROUNDS):
            if not trace:
                started += [_run_child(base, workdir, env) for _ in range(PROBES_PER_ROUND)]
            args = [*base, "--seconds", repr(seconds / ROUNDS), "--trace", str(int(trace))]
            if trace:
                args += ["--spans", os.path.join(outdir, f"spans_{name}_seed{seed}_round{r}.csv")]
            if children:
                args += ["--reference", reference_path]
            children.append(_run_child(args, workdir, env))
            started.append(children[-1])
            if r == 0:
                with open(reference_path, "w", encoding="utf-8") as fh:
                    json.dump(children[0]["reference"], fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [p for c in children for p in c["passes"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # scaled to the reference host speed (child.speed); raw figures go in the report
    wall = statistics.median([p["ref_wall_s"] for p in untraced])
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    values: dict[str, float] = {
        "wall_s": wall,
        "steps_per_s": wl.steps_per_pass / wall,
        "setup_s": statistics.median([c["setup_s"] * c["speed"] for c in started]),
        "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024.0,
    }
    raw_wall = statistics.median([p["wall_s"] for p in untraced])
    raw_setup = statistics.median([c["setup_s"] for c in started])
    samples = {
        "wall_s": f"median of {len(untraced)} untraced passes at reference speed (raw {raw_wall:.4g} s)",
        "steps_per_s": f"{wl.steps_per_pass} steps per pass over wall_s",
        "setup_s": f"median of {len(started)} child starts at reference speed (raw {raw_setup:.4g} s)",
        "peak_rss_mb": f"largest ru_maxrss of {len(children)} timed children",
    }
    if trace:
        for key in traced[0]["layers"]:
            values[key] = statistics.median([p["layers"][key] for p in traced])
            samples[key] = f"median of {len(traced)} traced passes"
        values["cli.out_bytes"] = statistics.median([p["out_bytes"] for p in traced])
        values["process.cpu_s"] = statistics.median([p["cpu_s"] for p in untraced])
        values["trace.overhead_frac"] = statistics.median([p["ref_wall_s"] for p in traced]) / wall - 1.0
        samples["cli.out_bytes"] = f"median of {len(traced)} traced passes"
        samples["process.cpu_s"] = f"user + sys, median of {len(untraced)} untraced passes"
        samples["trace.overhead_frac"] = f"{len(traced)} traced vs {len(untraced)} untraced passes"

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"harness did not compute {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    provenance = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": children[0]["python"],
        "numpy": children[0]["numpy"],
        "git_commit": _git_commit(),
        "workload": name,
        "seed": seed,
        "size": size,
        "input_size": wl.input_size,
        "steps_per_pass": wl.steps_per_pass,
        "run_seconds": seconds,
        "host_speed": statistics.median([p["ref_wall_s"] / p["wall_s"] for p in passes]),
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
    }
    record = {
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {k: samples[k] for k in metrics},
        "passes": passes,
        "setups": [{k: c[k] for k in ("setup_s", "speed")} for c in started],
        "problems": [p for c in children for p in c["problems"]],
    }
    with open(os.path.join(outdir, f"{name}_seed{seed}_trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record: dict) -> None:
    prov = record["provenance"]
    attempted, failed = record["attempted"], record["failed"]
    print(f"== {prov['workload']} (seed {prov['seed']}, size {prov['size']}): {prov['input_size']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for key, metric in record["metrics"].items():
        print(f"{key:34s} {metric['value']:>16.6g} {metric['unit']:<14s} {record['samples'][key]}")
    print(f"{'fail_frac':34s} {failed / attempted:>16.6g} {'ratio':<14s} {failed} failed of {attempted} operations")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full", help="tiny is for the tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "levyprey", "__init__.py")):
        print(f"error: no levyprey sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, seconds, bool(args.trace), args.size, spec) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_record(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
