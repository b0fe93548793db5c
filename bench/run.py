"""Benchmark entry point.

    python3 bench/run.py --workload wide_feasible --seed 1 --seconds 40 --trace 0

runs one workload in a fresh worker process with BLAS/OpenMP pinned to one
thread, checks every answer, and prints each metric by name with its unit
and better direction. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.

Without ``--workload``, every workload runs untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Set-up is timed in this many fresh processes (the measuring worker is
# one of them) and reported as the median.
SETUP_SAMPLES = 5
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every run, set-up included, must end within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env={**os.environ, **PINNED},
            stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    samples = [worker(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    result = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    samples.append(result)
    metrics = result["metrics"]
    if trace:
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in samples), "s")
        metrics["setup.build_inputs_s"] = (statistics.median(s["build_s"] for s in samples), "s")
    else:
        metrics["setup_s"] = (statistics.median(s["import_s"] + s["build_s"] for s in samples), "s")
    env = {
        **result["env"],
        "unscaled": {name: value for name, (value, _) in result.get("unscaled", {}).items()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    line = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return line, env


def show(line: dict, names: dict) -> None:
    for name, entry in line["metrics"].items():
        better = names.get(name, {}).get("better", "?")
        print(f"  {name:<46} {entry['value']:>14.6g} {entry['unit']:<9} ({better} is better)")


def check_names(line: dict, names: dict, workload: str) -> None:
    missing = sorted(set(names) - set(line["metrics"]))
    if missing:
        print(f"note: {workload} did not report {missing}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    modes = {0: {m["name"]: m for m in bench["end_to_end"]},
             1: {m["name"]: m for m in bench["per_layer"]}}
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")

    try:
        if args.workload is not None:
            line, env = run_workload(args.workload, args.seed, seconds, args.trace)
            check_names(line, modes[args.trace], args.workload)
            show(line, modes[args.trace])
            print(json.dumps({"env": env}))
            print(json.dumps(line))
            return 0
        summary = {}
        for workload in workloads:
            for trace in (0, 1):
                line, env = run_workload(workload, args.seed, seconds, trace)
                check_names(line, modes[trace], workload)
                print(f"{workload} ({'traced' if trace else 'untraced'}): correct={line['correct']} "
                      f"attempted={line['attempted']} failed={line['failed']}")
                show(line, modes[trace])
                summary[f"{workload}/{'traced' if trace else 'untraced'}"] = line
        print(json.dumps({"env": env}))
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
