"""One benchmark run in a fresh process: set up, then time workload passes.

run.py starts this script with the work directory as its current directory
and ``src`` on PYTHONPATH::

    python3 child.py --workload NAME --seed N --size full --spawned-at T \\
        --result FILE [--seconds S --trace 0|1 --spans FILE --reference FILE]

Set-up is everything from process start (``--spawned-at``, a CLOCK_MONOTONIC
reading taken by the parent just before it started this process) to ready:
importing numpy and levyprey, writing the generated configs and parsing them
with ``parse_config_file``. With ``--seconds 0`` the process only sets up.

Then it runs passes of the workload, each invocation through ``cli.main``
in-process, until the next pass would likely end after ``--seconds``. With
``--trace 1`` untraced and traced passes alternate. The host's speed is
measured after set-up and around every invocation (see ``speed``). Every
invocation counts as one operation; it fails on a non-zero exit code, an
exception, or any problem its output check reports. Outputs of every pass must match the first
pass's digests, so a traced pass that changed a result is a failure.
``--reference`` carries the first pass's digests and check results over from
an earlier process of the same run; outputs with the same digests are not
checked again.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import spans
import workloads

_MAX_PROBLEMS = 20  # problems kept per run; every one is still counted

# The host's speed drifts by tens of percent over seconds to minutes, and CPU
# time drifts with it. A fixed pure-Python loop in the program's own style
# (calls returning tuples, growing lists, float formatting), timed next to
# the work, measures that drift: ``speed()`` is REF_LOOP_S over the loop's
# current time, where REF_LOOP_S is a round figure near the loop's typical
# time on a 2-core Intel Xeon VM with Python 3.11.7. Wall times are
# reported scaled by it.
REF_LOOP_S = 0.02


def _step(x: float, y: float, z: float, xd: float, yd: float, zd: float) -> tuple[float, float, float]:
    return x + 0.001 * (xd - x * z), y + 0.001 * (yd - y * x), z - 0.001 * (zd - z)


def _loop_s() -> float:
    t0 = time.perf_counter()
    xs, ys, zs = [1.0], [0.5], [0.25]
    for i in range(20_000):
        j = i // 2
        x, y, z = _step(xs[i], ys[i], zs[i], xs[j], ys[j], zs[j])
        xs.append(x)
        ys.append(y)
        zs.append(z)
    _ = [f"{a:.17g},{b:.17g}" for a, b in zip(xs[::4], ys[::4])]
    return time.perf_counter() - t0


def speed() -> float:
    """Current host speed relative to the reference: best of three loop timings."""
    return REF_LOOP_S / min(_loop_s() for _ in range(3))


class HostSpeed:
    """Scales each invocation's wall time by the host speed measured just
    before and just after it, giving seconds at the reference speed."""

    def __init__(self) -> None:
        self.last = speed()

    def scale(self, wall: float) -> float:
        before, self.last = self.last, speed()
        return wall * (before + self.last) / 2.0


def _run_invocation(cli, inv: workloads.Invocation) -> tuple[object, str, str, float, float]:
    """(exit code or exception text, stdout, stderr, wall s, cpu s) of one call."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc: object = cli.main(list(inv.argv))
    except Exception:  # an escaped exception is a failed operation, not a crashed run
        rc = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    wall = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), wall, time.process_time() - cpu0


def _check(
    wl: workloads.Workload, k: int, rc: object, stdout: str, stderr: str, reference: dict
) -> list[str]:
    """Problems with invocation k's results. ``reference`` holds, per
    invocation, the first pass's digests and content problems; an output with
    the same digests has the same content, so its check is not repeated."""
    inv = wl.invocations[k]
    problems = []
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {rc!r}: {last[0]}")
    digests = {f"{inv.argv[0]}.{k}.stdout": workloads.text_digest(stdout)}
    for name in inv.outputs:
        digests[name] = workloads.data_digest(name) if os.path.isfile(name) else "missing"
    for name, digest in digests.items():
        expected = wl.pinned.get(name)
        if expected is not None and digest != expected:
            problems.append(f"{name}: data digest {digest[:12]} differs from the pinned {expected[:12]}")
    if k in reference:
        first_digests, content = reference[k]
        changed = [n for n, d in digests.items() if first_digests.get(n) != d]
        if not changed:
            return problems + content
        problems += [f"{n}: output differs from the first pass" for n in changed]
    try:
        content = inv.check(os.getcwd(), stdout)
    except Exception as exc:  # a malformed output can break a check's parsing
        content = [f"output check raised {type(exc).__name__}: {exc}"]
    reference.setdefault(k, (digests, content))
    return problems + content


def run_pass(
    cli, wl: workloads.Workload, reference: dict, tracer: spans.Tracer | None, host: HostSpeed
) -> dict:
    """Run every invocation once; time, count and check it."""
    record = {"traced": tracer is not None, "wall_s": 0.0, "ref_wall_s": 0.0, "cpu_s": 0.0,
              "ops": 0, "failed": 0, "out_bytes": 0, "problems": []}
    for k, inv in enumerate(wl.invocations):
        if tracer is not None:
            tracer.install()
        try:
            rc, stdout, stderr, wall, cpu = _run_invocation(cli, inv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["wall_s"] += wall
        record["ref_wall_s"] += host.scale(wall)
        record["cpu_s"] += cpu
        record["out_bytes"] += sum(os.path.getsize(n) for n in inv.outputs if os.path.isfile(n))
        problems = _check(wl, k, rc, stdout, stderr, reference)
        record["ops"] += 1
        if problems:
            record["failed"] += 1
            record["problems"] += [f"{inv.argv[0]} #{k}: {p}" for p in problems]
    return record


def run_passes(
    cli, wl: workloads.Workload, seconds: float, trace: bool, reference: dict
) -> tuple[list[dict], spans.Tracer | None]:
    """Passes until the next one would likely end after ``seconds``; with tracing,
    untraced and traced passes alternate and at least one of each runs."""
    tracer = spans.Tracer() if trace else None
    passes: list[dict] = []
    start = time.perf_counter()
    host = HostSpeed()
    while True:
        traced = trace and len(passes) % 2 == 1
        if tracer is not None:
            tracer.run_id = len(passes)
        passes.append(run_pass(cli, wl, reference, tracer if traced else None, host))
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + passes[-1]["wall_s"] > seconds:
            break
    if tracer is not None:
        times = tracer.layer_times()
        for run_id, record in enumerate(passes):
            if record["traced"]:
                record["layers"] = spans.layer_metrics(times.get(run_id, {}), tracer.counts[run_id])
    return passes, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--reference", help="first-pass digests and check results of an earlier process")
    args = ap.parse_args(argv)

    import numpy
    from levyprey import cli, config

    wl = workloads.build(args.workload, args.seed, args.size)
    for name, text in wl.configs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    for name in wl.configs:
        config.parse_config_file(name)
    result: dict = {"setup_s": time.monotonic() - args.spawned_at, "speed": speed(),
                    "numpy": numpy.__version__, "python": sys.version.split()[0]}

    if args.seconds > 0:
        reference: dict = {}
        if args.reference:
            with open(args.reference, encoding="utf-8") as fh:
                reference = {int(k): (d, c) for k, (d, c) in json.load(fh).items()}
        passes, tracer = run_passes(cli, wl, args.seconds, bool(args.trace), reference)
        problems = [p for record in passes for p in record.pop("problems")]
        result.update(passes=passes, problems=problems[:_MAX_PROBLEMS],
                      reference=reference)
        if tracer is not None and args.spans:
            tracer.write(args.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
