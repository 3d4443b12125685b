"""Spans around the package's public functions, kept in memory for a traced pass.

Each traced function is wrapped at every name in the ``levyprey`` package
that is bound to it. Callers look functions up in different places:
``ensemble`` does ``from .analysis import time_average``, ``cli`` does
``from .config import parse_config_file``, and ``ensemble`` and ``oracle``
call ``engine.simulate`` through the module attribute. A wrapper installed
only on the defining module would silently miss the first two.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 at top level) and ``run_id`` the
pass it belongs to. Calls are synchronous and single-threaded, so spans nest
and a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# (defining module, function); the span name is "<module>.<function>"
TRACED = (
    ("levyprey.cli", "main"),
    ("levyprey.config", "parse_config_file"),
    ("levyprey.ensemble", "run_ensemble"),
    ("levyprey.ensemble", "verify_regime"),
    ("levyprey.engine", "simulate"),
    ("levyprey.engine", "init_history"),
    ("levyprey.rng", "stream"),
    ("levyprey.analysis", "time_average"),
    ("levyprey.analysis", "classify"),
    ("levyprey.oracle", "convergence_study"),
    ("levyprey.oracle", "solve_deterministic"),
)

# counts read from a traced function's return value
COUNTERS: dict[str, Callable[[object], dict[str, int]]] = {
    "engine.simulate": lambda traj: {
        "engine.step_reps": len(traj.times) - 1,
        "engine.floor_hits": traj.floor_hits,
    },
    # computed, not measured: the (n_reps, stat points, 3) float64 path array
    "ensemble.run_ensemble": lambda stats: {
        "ensemble.stats_bytes": stats.n_replicates * len(stats.stat_times) * 3 * 8,
    },
    "oracle.solve_deterministic": lambda sol: {"oracle.rk4_steps": len(sol.times) - 1},
}


class Tracer:
    """Records spans and counts while installed; ``run_id`` tags the current pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, counts, stack = self.spans, self.counts, self._open
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, self.run_id))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if counter is not None:
                for key, value in counter(result).items():
                    counts[self.run_id][key] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every package-level binding of each traced function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "levyprey" or n.startswith("levyprey.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[1]}.{attr}", original)
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            for module, key in sites:
                setattr(module, key, wrapper)
                self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def layer_times(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """Per run: span name -> (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            agg = out[run_id][name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_time[i]
        return {r: {n: tuple(v) for n, v in names.items()} for r, names in out.items()}

    def write(self, path: str) -> None:
        """Write every span as CSV, once, when the run ends."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,run_id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{run_id},{parent},{name},{start!r},{end!r}\n")


def layer_metrics(times: dict[str, tuple[int, float, float]], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""

    def calls(name: str) -> int:
        return times.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return times.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return times.get(name, (0, 0.0, 0.0))[2]

    step_reps = counts.get("engine.step_reps", 0)
    rk4_steps = counts.get("oracle.rk4_steps", 0)
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "config.parse_config_file.s": total("config.parse_config_file"),
        "ensemble.run_ensemble.self_s": self_s("ensemble.run_ensemble"),
        "ensemble.stats_bytes": counts.get("ensemble.stats_bytes", 0),
        "ensemble.verify_regime.s": total("ensemble.verify_regime"),
        "engine.simulate.calls": calls("engine.simulate"),
        "engine.simulate.self_s": self_s("engine.simulate"),
        "engine.step_reps": step_reps,
        "engine.ns_per_step_rep": self_s("engine.simulate") / step_reps * 1e9 if step_reps else 0.0,
        "engine.init_history.s": total("engine.init_history"),
        "engine.floor_hits": counts.get("engine.floor_hits", 0),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.s": total("rng.stream"),
        "analysis.time_average.calls": calls("analysis.time_average"),
        "analysis.time_average.s": total("analysis.time_average"),
        "analysis.classify.s": total("analysis.classify"),
        "oracle.solve_deterministic.calls": calls("oracle.solve_deterministic"),
        "oracle.solve_deterministic.s": total("oracle.solve_deterministic"),
        "oracle.us_per_step": total("oracle.solve_deterministic") / rk4_steps * 1e6 if rk4_steps else 0.0,
        "oracle.convergence_study.self_s": self_s("oracle.convergence_study"),
    }
