"""One benchmark process: set-up, then an untraced timed loop or the two
fixed-length passes of the traced run.  Started by ``run.py`` in a fresh
interpreter with BLAS/OpenMP threads pinned to 1; prints one JSON object.

    python3 bench/worker.py --workload W --seed N --mode setup|timed|traced
                            [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
# The library, numpy and the benchmark modules that use them are imported
# inside functions: set-up time starts before the first of those imports.

# op time between two host-speed measurements
SPEED_EVERY_S = 0.05
# Latency quantiles are medians over consecutive blocks of this many ops
# (the last block takes the remainder), so every block leaves 10 samples
# beyond its p90.  A block of the shortest ops spans about 35 ms, short
# enough that most blocks miss the host's brief slow spells, which would
# otherwise set the tail of sub-millisecond ops.
BLOCK_OPS = 100


def _setup(workload: str):
    """Import the library and run one untimed warm-up op; the clock covers
    both, so lazy imports and first-call costs land in set-up."""
    started = time.perf_counter()
    import elrbounds.cli  # noqa: F401  (the import being timed)
    import workloads
    wl = workloads.WORKLOADS[workload]
    warm = workloads.canary_input(workload)
    try:
        result = wl.op(warm)
    except Exception as exc:  # reported as a failed warm-up, not a crash
        result = exc
    setup_s = time.perf_counter() - started

    import elrbounds
    if Path(elrbounds.__file__).resolve().parent != SRC_DIR / "elrbounds":
        raise SystemExit(f"error: elrbounds imported from {elrbounds.__file__}, "
                         f"not from {SRC_DIR}")
    if isinstance(result, Exception):
        return wl, {"setup_s": setup_s, "warmup_errors": [f"raised {result!r}"],
                    "planted_fault_caught": False}
    return wl, {"setup_s": setup_s,
                "warmup_errors": wl.check(warm, result),
                "planted_fault_caught": bool(
                    wl.check(warm, workloads.plant_fault(workload, warm, result)))}


class OpLoop:
    """Runs and checks ops one after another, and measures the host speed
    before the first op and after every ``SPEED_EVERY_S`` of op time.  Each
    op time is kept raw and multiplied by the mean of the two speed
    measurements around it, which gives the time the op would take on the
    reference host (see hostspeed.py)."""

    def __init__(self, wl, seed: int, wrap_d3=None, tracer=None):
        import hostspeed
        import workloads
        self._measure = hostspeed.measure
        wrap_d3 = wrap_d3 or workloads.unwrapped
        self.wl, self.seed, self.wrap_d3, self.tracer = wl, seed, wrap_d3, tracer
        self.raw: list[float] = []
        self.adjusted: list[float] = []
        self.speeds = [self._measure()]
        self.failures: list[str] = []
        self._pending: list[float] = []

    def run(self, index: int) -> None:
        inp = self.wl.make_input(self.seed, index)
        if self.tracer is not None:
            self.tracer.op = index
        started = time.perf_counter()
        try:
            result = self.wl.op(inp, self.wrap_d3)
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed, errors = time.perf_counter() - started, [f"raised {exc!r}"]
        else:
            elapsed = time.perf_counter() - started
            try:
                errors = self.wl.check(inp, result)
            except Exception as exc:  # a result the check cannot read is wrong
                errors = [f"check raised {exc!r}"]
        if errors:
            self.failures.append(f"op {index}: {'; '.join(errors)}")
        self._pending.append(elapsed)
        if sum(self._pending) >= SPEED_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Close the pending ops with a speed measurement."""
        if not self._pending:
            return
        self.speeds.append(self._measure())
        speed = 0.5 * (self.speeds[-2] + self.speeds[-1])
        self.raw.extend(self._pending)
        self.adjusted.extend(v * speed for v in self._pending)
        self._pending = []


def _timed(wl, seed: int, seconds: float) -> dict:
    """Closed loop for ``seconds``, split into one-second windows."""
    loop = OpLoop(wl, seed)
    windows = max(1, round(seconds))
    edges = [0]
    index = 0
    loop_start = time.perf_counter()
    for w in range(windows):
        window_end = loop_start + (w + 1) * seconds / windows
        while True:  # at least one op per window
            loop.run(index)
            index += 1
            if time.perf_counter() >= window_end:
                break
        loop.flush()
        edges.append(len(loop.raw))

    def summary(values: list[float]) -> dict:
        per_window = [values[a:b] for a, b in zip(edges, edges[1:])]
        starts = range(0, max(len(values) - BLOCK_OPS, 0) + 1, BLOCK_OPS)
        blocks = [values[a:a + BLOCK_OPS] for a in starts]
        blocks[-1] = values[starts[-1]:]  # the remainder joins the last block
        deciles = [statistics.quantiles(b, n=10) if len(b) > 1 else b * 9
                   for b in blocks]
        rates = [len(w) / sum(w) for w in per_window]
        return {"ops_per_s": statistics.median(rates),
                "op_p50_ms": statistics.median(d[4] for d in deciles) * 1e3,
                "op_p90_ms": statistics.median(d[8] for d in deciles) * 1e3,
                "latency_blocks": len(blocks),
                "window_ops_per_s": rates}

    return {
        "attempted": len(loop.raw),
        "failed": len(loop.failures),
        "failures": loop.failures[:10],
        **summary(loop.adjusted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_speed": statistics.median(loop.speeds),
        "raw": summary(loop.raw),
    }


def _fixed_pass(wl, seed: int, wrap_d3=None, tracer=None) -> OpLoop:
    """Ops 0..traced_ops-1 of the seed."""
    loop = OpLoop(wl, seed, wrap_d3, tracer)
    for index in range(wl.traced_ops):
        loop.run(index)
    loop.flush()
    return loop


def _traced(wl, seed: int) -> dict:
    """The same fixed op sequence untraced, then traced.  Span times are
    scaled by the traced pass's mean host speed."""
    import layertrace
    import workloads
    untraced = _fixed_pass(wl, seed)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = _fixed_pass(wl, seed, workloads.counting_d3(tracer.count_map_eval),
                             tracer)
    finally:
        tracer.uninstall()
    speed = statistics.mean(traced.speeds)
    layers = {k: v * speed if k.endswith(".self_ms") else v
              for k, v in tracer.summary().items()}
    return {
        "attempted": 2 * wl.traced_ops,
        "failed": len(untraced.failures) + len(traced.failures),
        "failures": (untraced.failures + traced.failures)[:10],
        "untraced_ops_per_s": wl.traced_ops / sum(untraced.adjusted),
        "traced_ops_per_s": wl.traced_ops / sum(traced.adjusted),
        "spans": tracer.spans,
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC_DIR))

    wl, record = _setup(args.workload)
    if args.mode == "timed":
        record.update(_timed(wl, args.seed, args.seconds))
    elif args.mode == "traced":
        record.update(_traced(wl, args.seed))
    import numpy
    scipy = sys.modules.get("scipy")
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__ if scipy else None}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
