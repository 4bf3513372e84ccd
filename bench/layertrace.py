"""Outside-in layer tracing for the benchmark.

The tracer replaces each traced library function by a wrapper in every
``elrbounds`` module namespace that holds it, which is where its callers
look it up (``cli`` calls ``divergence_bounds`` through its own import of
the name, ``divergences`` calls ``theorem_triple`` the same way, and so
on).  Nothing in the library changes.

Every call records a span: group, start, end, parent span and the op it
belongs to.  Spans stay in flat in-memory arrays until the run ends; only
then are they folded into per-group calls, self time (span duration minus
the time covered by its child spans) and errors.  Size counters (nodes,
grid points, ranks, map evaluations, bytes) are summed as calls happen.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# group -> (module, function names, size stat or None, size of one call)
LAYERS = {
    "functionals.moments": ("functionals", ("moments",), "nodes",
                            lambda args, result: args[0].size),
    "functionals.make_functional": ("functionals", ("make_functional",), None, None),
    "elr_bounds.theorem_triple": ("elr_bounds", ("theorem_triple",), None, None),
    "divided_diff.certify_3convex": ("divided_diff", ("certify_3convex",),
                                     "grid_points", lambda args, result: args[3]),
    "fuzzing.bracket_fuzz": ("fuzzing", ("bracket_fuzz",), None, None),
    "fuzzing.random_functional": ("fuzzing", ("random_functional",), None, None),
    "fuzzing.draw_bundle": ("fuzzing", ("draw_bundle",), None, None),
    "divergences.check_probability_vector": (
        "divergences", ("check_probability_vector",), None, None),
    "divergences.ratio_functional": ("divergences", ("ratio_functional",), None, None),
    "divergences.f_divergence": ("divergences", ("f_divergence",), None, None),
    "divergences.divergence_bounds": ("divergences", ("divergence_bounds",), None, None),
    "zipf_mandelbrot.zm_distribution": ("zipf_mandelbrot", ("zm_distribution",),
                                        "ranks", lambda args, result: result.N),
    "zipf_mandelbrot.zm_ratio_extrema": ("zipf_mandelbrot", ("zm_ratio_extrema",),
                                         None, None),
    "expconv.gamma": ("expconv", ("gamma",), None, None),
    "stolarsky_means.mean": ("stolarsky_means", ("mean_B1", "mean_M2"), None, None),
    # map_evals is counted by the benchmark's own d3 wrappers, see workloads
    "stolarsky_means.xi": ("stolarsky_means", ("cauchy_xi", "mvt_xi"), None, None),
    "registry.resolve": ("registry", ("resolve_phi", "resolve_generator"), None, None),
    "cli.run": ("cli", ("run",), None, None),
    "cli.dump_report": ("cli", ("dump_report",), "bytes",
                        lambda args, result: len(result)),
}

MAP_EVALS = "stolarsky_means.xi.map_evals"

# counters that must repeat exactly between two traced runs of one seed
SIZE_STATS = tuple(f"{group}.{stat}" for group, (_, _, stat, _) in LAYERS.items()
                   if stat) + (MAP_EVALS,)


class Tracer:
    """Span recorder; install() patches the library, summary() folds spans."""

    def __init__(self):
        self.groups = list(LAYERS)
        self._start = array("q")
        self._end = array("q")
        self._parent = array("l")
        self._group = array("l")
        self._op = array("l")
        self._failed = array("b")
        self._stack: list[int] = []
        self.sizes = dict.fromkeys(SIZE_STATS, 0)
        self.op = -1
        self._restore: list[tuple] = []

    def count_map_eval(self) -> None:
        self.sizes[MAP_EVALS] += 1

    def _wrap(self, gid: int, fn, size_key, size_of):
        start, end, parent, group = self._start, self._end, self._parent, self._group
        ops, failed, stack, sizes = self._op, self._failed, self._stack, self.sizes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1] if stack else -1)
            group.append(gid)
            ops.append(self.op)
            failed.append(1)
            stack.append(index)
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            failed[index] = 0
            if size_key is not None:
                sizes[size_key] += size_of(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every elrbounds namespace."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "elrbounds"
                                         or name.startswith("elrbounds."))]
        for gid, (group, (module, names, stat, size_of)) in enumerate(LAYERS.items()):
            home = sys.modules[f"elrbounds.{module}"]
            size_key = f"{group}.{stat}" if stat else None
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(gid, original, size_key, size_of)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    @property
    def spans(self) -> int:
        return len(self._start)

    def summary(self) -> dict:
        """Per-group calls, self_ms and errors, plus the size counters."""
        n = len(self._start)
        duration = [e - s for s, e in zip(self._start, self._end)]
        covered = [0] * n
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                covered[parent] += duration[index]
        calls = [0] * len(self.groups)
        self_ns = [0] * len(self.groups)
        errors = [0] * len(self.groups)
        for index, gid in enumerate(self._group):
            calls[gid] += 1
            self_ns[gid] += duration[index] - covered[index]
            errors[gid] += self._failed[index]
        out = {}
        for gid, group in enumerate(self.groups):
            out[f"{group}.calls"] = calls[gid]
            out[f"{group}.self_ms"] = self_ns[gid] / 1e6
            out[f"{group}.errors"] = errors[gid]
        out.update(self.sizes)
        return out
