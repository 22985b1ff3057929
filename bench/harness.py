"""Measurement loop, set-up timing, environment record and the traced run."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import CheckError
from spans import PER_LAYER_UNITS, SETUP, Tracer, layer_metrics
from workloads import WORKLOADS, NullProbe

SETUP_REPEATS = 5


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and has no dict form
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpus": os.cpu_count(), "machine": platform.machine()}


def measure(workload, seconds: float, probe) -> dict:
    """Repeat whole rounds until `seconds` have passed; at least one round.

    A round whose program call raises counts as one failed operation; a
    failed check (CheckError) ends the run.
    """
    samples: list[float] = []
    parts: dict[str, list[float]] = {}
    attempted = failed = ops = rounds = 0
    peak_mb = 0.0
    deadline = perf_counter() + seconds
    while True:
        try:
            result = workload.round(rounds, probe)
        except CheckError:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            attempted += 1
        else:
            samples.extend(result.samples)
            attempted += result.attempted
            ops += result.ops
            for name, value in result.parts.items():
                parts.setdefault(name, []).append(value)
        rounds += 1
        if rounds == 1:  # fixed work: set-up and one round, however many rounds fit
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() >= deadline:
            break
    return {"samples": samples, "attempted": attempted, "failed": failed, "ops": ops,
            "rounds": rounds, "peak_rss_mb": peak_mb,
            "parts": {n: statistics.median(v) for n, v in parts.items()}}


def median(values: list[float]) -> float:
    if not values:
        raise CheckError("no operation completed; nothing was timed")
    return statistics.median(values)


def setup_seconds(script: Path, workload: str, seed: int) -> float:
    """Median processor time of a fresh interpreter that imports diffload and sets up.

    Processor time (user + system) of the child rather than wall time: on a
    shared machine a cold start waits for the CPU by varying amounts, which
    moved wall-clock medians by 30% from run to run.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, str(script), "--workload", workload,
                        "--seed", str(seed), "--setup-only"],
                       check=True, timeout=170, stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(times)


def untraced_run(workload, seconds: float, setup_s: float) -> tuple[dict, dict]:
    workload.setup()
    run = measure(workload, seconds, NullProbe())
    metrics = {"op_s": {"value": median(run["samples"]), "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"}}
    return metrics, run


def traced_run(workload, seconds: float, out: Path) -> tuple[dict, dict]:
    """Untraced rounds, then the same number of seconds of traced rounds."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase(SETUP):
            workload.setup()
        untraced = measure(workload, seconds, NullProbe())
        traced = measure(workload, seconds, tracer)
    finally:
        tracer.uninstall()
    layers, self_seconds = layer_metrics(tracer, traced["ops"])
    traced_op, untraced_op = median(traced["samples"]), median(untraced["samples"])
    layers.update({"trace.op_s": traced_op, "trace.untraced_op_s": untraced_op,
                   "trace.overhead_share": traced_op / untraced_op - 1.0})
    tracer.write_jsonl(out / f"trace-{workload.name}.jsonl")
    (out / f"layers-{workload.name}.json").write_text(json.dumps(
        {"per_op": layers, "self_seconds": self_seconds, "ops": traced["ops"],
         "parts": traced["parts"], "untraced_parts": untraced["parts"]}, indent=1) + "\n")
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    run = dict(traced, attempted=traced["attempted"] + untraced["attempted"],
               failed=traced["failed"] + untraced["failed"])
    return metrics, run


def run(script: Path, name: str, seed: int, seconds: float, trace: bool,
        out: Path) -> tuple[dict, dict]:
    """One benchmark run: (the result line, a fuller record for the run's JSON file)."""
    workload = WORKLOADS[name](seed, out / name / "run")
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    try:
        if trace:
            metrics, stats = traced_run(workload, seconds, out)
        else:
            metrics, stats = untraced_run(workload, seconds,
                                          setup_seconds(script, name, seed))
        correct = True
    except CheckError:
        traceback.print_exc(file=sys.stderr)
        correct, metrics, stats = False, {}, {"attempted": 1, "failed": 0}
    result = {"correct": correct, "attempted": stats["attempted"], "failed": stats["failed"],
              "metrics": metrics}
    record.update(result, rounds=stats.get("rounds"), parts=stats.get("parts"))
    return result, record
