"""elrbounds benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload verify|divergence|zipf|means
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  Every measurement runs in a fresh single-threaded worker process
(``worker.py``) with BLAS/OpenMP pools pinned to one thread.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh processes), ops per second, op latency p50/p90, the share of
ops that passed their output check, and peak RSS.  ``--trace 1`` prints the
per-layer metrics of two traced processes, which must agree exactly on
every counter, plus the tracing overhead and import times.  A line with the
environment and sample details precedes the result, which is always the
last line of standard output.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

WORKLOADS = ("verify", "divergence", "zipf", "means")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

# set-up is sampled in this many fresh processes besides the timed one
SETUP_PROBES = 6

# A fixed import, timed in a fresh process of its own right before every
# set-up sample.  It goes through what set-up spends its time on (finding,
# unmarshalling and running modules, loading extensions) without touching
# the library, so it tracks the host's speed at importing; the op-time
# calibration of hostspeed.py does not (see README.md).
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); "
                    "import numpy, email.parser, xml.dom.minidom, http.client, "
                    "unittest, asyncio; print(time.perf_counter() - t)")
# its time on the reference host at usual speed
REFERENCE_IMPORT_S = 0.15

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

IMPORT_MODULES = ("elrbounds", "cli", "divided_diff", "functionals", "elr_bounds",
                  "divergences", "zipf_mandelbrot", "expconv", "stolarsky_means",
                  "registry", "fuzzing")

# counters of the traced run: calls, errors and the size statistics
EXACT_SUFFIXES = (".calls", ".errors", ".nodes", ".grid_points", ".ranks",
                  ".map_evals", ".bytes")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _python(args: list[str], what: str, timeout: float) -> tuple[str, str]:
    """Run a fresh single-threaded interpreter; returns its last stdout line
    and its stderr."""
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{what} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return lines[-1], proc.stderr


def _worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
            importtime: bool = False, timeout: float = 150.0) -> tuple[dict, str]:
    args = [*(["-X", "importtime"] if importtime else []),
            str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    line, stderr = _python(args, f"{mode} worker", timeout)
    return json.loads(line), stderr


def _sampled_setup(workload: str, seed: int, mode: str = "setup",
                   seconds: float = 0.0) -> tuple[dict, float]:
    """A worker run preceded by the reference import; returns the record
    and its set-up time scaled to the reference host."""
    line, _ = _python(["-c", REFERENCE_IMPORT], "reference import", 60.0)
    reference_s = float(line)
    record, _ = _worker(workload, seed, mode, seconds, timeout=seconds + 120.0)
    return record, record["setup_s"] * REFERENCE_IMPORT_S / reference_s


def _import_ms(stderr: str) -> dict[str, float]:
    """Self import time per elrbounds module, and summed over every numpy
    and scipy submodule, from ``-X importtime`` output."""
    selfs: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        selfs[name] = selfs.get(name, 0.0) + int(fields[0]) / 1e3
    out = {}
    for module in IMPORT_MODULES:
        key = "elrbounds" if module == "elrbounds" else f"elrbounds.{module}"
        out[f"import.{module}_ms"] = selfs.get(key, 0.0)
    for package in ("scipy", "numpy"):
        out[f"import.{package}_ms"] = sum(
            v for k, v in selfs.items() if k == package or k.startswith(package + "."))
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (the checkout may not be
    a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _environment(seed: int, versions: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            **versions,
            "git_commit": _git_commit(),
            "seed": seed,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "thread_pins": THREAD_PINS}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    sampled = [_sampled_setup(workload, seed) for _ in range(SETUP_PROBES)]
    sampled.append(_sampled_setup(workload, seed, "timed", seconds))
    processes = [record for record, _ in sampled]
    setups = [setup for _, setup in sampled]
    timed = processes[-1]
    ok = all(not p["warmup_errors"] and p["planted_fault_caught"] for p in processes)
    attempted, failed = timed["attempted"], timed["failed"]
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(timed["ops_per_s"], "1/s"),
            "op_p50_ms": _metric(timed["op_p50_ms"], "ms"),
            "op_p90_ms": _metric(timed["op_p90_ms"], "ms"),
            "ok_ratio": _metric((attempted - failed) / attempted, "1"),
            "peak_rss_mb": _metric(timed["peak_rss_mb"], "MB"),
        },
    }
    details = {
        "setup_samples_s": setups,
        "unadjusted_setup_samples_s": [p["setup_s"] for p in processes],
        "latency_samples": attempted,
        "latency_blocks": timed["latency_blocks"],
        "host_speed": timed["host_speed"],
        "unadjusted": timed["raw"],
        "failures": timed["failures"],
        "warmup_errors": [p["warmup_errors"] for p in processes if p["warmup_errors"]],
        "planted_fault_caught": all(p["planted_fault_caught"] for p in processes),
        "versions": timed["versions"],
    }
    return result, details


def _per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    runs = [_worker(workload, seed, "traced", importtime=True) for _ in range(2)]
    first, second = (r[0]["layers"] for r in runs)
    exact = [k for k in first if k.endswith(EXACT_SUFFIXES)]
    mismatched = {k: (first[k], second.get(k)) for k in exact if first[k] != second.get(k)}
    imports = [_import_ms(stderr) for _, stderr in runs]
    records = [r[0] for r in runs]
    metrics = {}
    for key, value in first.items():
        if key in exact:
            metrics[key] = _metric(value, "count")
        else:
            metrics[key] = _metric(statistics.median([value, second[key]]), "ms")
    for key in imports[0]:
        metrics[key] = _metric(statistics.median([i[key] for i in imports]), "ms")
    untraced = statistics.median(r["untraced_ops_per_s"] for r in records)
    traced = statistics.median(r["traced_ops_per_s"] for r in records)
    metrics["trace.untraced_ops_per_s"] = _metric(untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = _metric(traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = _metric(traced - untraced, "1/s")
    metrics["trace.spans"] = _metric(records[0]["spans"], "count")
    ok = all(not r["warmup_errors"] and r["planted_fault_caught"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": ok and failed == 0 and not mismatched
                   and records[0]["spans"] == records[1]["spans"],
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "counter_mismatches": mismatched,
        "failures": [f for r in records for f in r["failures"]],
        "warmup_errors": [r["warmup_errors"] for r in records if r["warmup_errors"]],
        "planted_fault_caught": all(r["planted_fault_caught"] for r in records),
        "versions": records[0]["versions"],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "elrbounds" / "cli.py").is_file():
        print(f"error: no elrbounds sources under {SRC_DIR}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # byte-compile once, so that no set-up sample pays for compilation
    compileall.compile_dir(SRC_DIR, quiet=1)
    try:
        if args.trace:
            result, details = _per_layer(args.workload, args.seed)
        else:
            result, details = _end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details = {"workload": args.workload, "seconds": args.seconds,
               "trace": args.trace,
               "environment": _environment(args.seed, details.pop("versions")),
               **details}
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
