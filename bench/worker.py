"""One workload in one process: set-up, closed loop and answer checks.

Started by ``run.py`` with the BLAS/OpenMP thread count pinned to 1. It
prints one JSON object as its last line of standard output. With
``--setup-only`` it times the cold import and the input building and
stops; ``run.py`` starts it several times that way and reports the median.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A run stops here even before its first pass ends, to end well within 180 s.
HARD_LIMIT_S = 120.0
INF = math.inf
# End-to-end times are scaled to the host speed at which the reference
# kernel below takes REF_NOMINAL_S (its time on an idle two-vCPU Xeon VM).
# That VM ran single-threaded code 1.0x to 1.8x slower in phases from a
# second to minutes; the kernel slows down with the solver, so the scaled
# times cancel most of it. The unscaled times are printed alongside.
REF_NOMINAL_S = 0.55e-3
# Host speed at an operation: median kernel time over this many operations
# on each side of it.
REF_WINDOW = 5


def cold_import() -> float:
    """Import the package from this checkout's source tree; return seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import ellipsoid  # noqa: F401
    import ellipsoid.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not Path(ellipsoid.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ellipsoid was imported from {ellipsoid.__file__}, not {src}")
    return elapsed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; a failed operation enters as math.inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    """One operation: wall seconds, cuts, and why it failed (None if answered).

    ``wrong`` marks an answer contrary to the truth, as opposed to a
    numerical breakdown that gave no answer.
    """

    seconds: float
    cuts: int = 0
    error: str | None = None
    wrong: bool = False
    inconclusive: bool = False
    trace_bytes: int = 0
    # Wall time of the `solve` call inside a CLI request; None when the
    # operation is the solve itself.
    solve_s: float | None = None

    @property
    def solve_seconds(self) -> float:
        return self.seconds if self.solve_s is None else self.solve_s


def rows_hold(blocks, x) -> bool:
    """Independent check a.x >= b - tol * (1 + |b|) on every row."""
    import numpy as np
    from ellipsoid.solver import DEFAULT_VIOLATION_TOL

    return all(bool(np.all(A @ x - b >= -DEFAULT_VIOLATION_TOL * (1.0 + np.abs(b))))
               for A, b in blocks)


class LibraryRunner:
    """Closed-loop client of `ellipsoid.solver.solve`."""

    root = "solver.solve"

    def __init__(self, cases):
        from ellipsoid.solver import Constraint, LinearSystem

        from workloads import RADIUS

        self.cases = cases
        built = {}
        self.systems = []
        for case in cases:
            rows = []
            for block in case.blocks:
                if id(block) not in built:
                    A, b = block
                    built[id(block)] = [Constraint(a, float(v)) for a, v in zip(A, b)]
                rows.extend(built[id(block)])
            self.systems.append(LinearSystem(case.dim, tuple(rows), RADIUS))

    def run(self, index: int, rec=None) -> Outcome:
        from ellipsoid import solver

        case, system = self.cases[index], self.systems[index]
        cfg = solver.SolverConfig(epsilon=case.epsilon)
        span = rec.span(self.root) if rec is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                outcome = solver.solve(system, cfg)
        except solver.NumericalBreakdown as exc:
            return Outcome(time.perf_counter() - start, exc.iteration, f"{exc}")
        seconds = time.perf_counter() - start

        with rec.span("solver.certify") if rec is not None else contextlib.nullcontext():
            cert = solver.certify(outcome, system, epsilon=case.epsilon)
        expected = solver.Feasible if case.feasible else solver.VolumeExhausted
        error = None
        if not isinstance(outcome, expected):
            error = f"expected {expected.__name__}, got {type(outcome).__name__}"
        elif not cert.passed:
            error = f"certify failed: {cert}"
        elif case.feasible and not rows_hold(case.blocks, outcome.point):
            error = "returned point violates a row"
        return Outcome(seconds, outcome.iterations, error, wrong=error is not None)


class CliRunner:
    """Closed-loop client of in-process `ellipsoid.cli.main`."""

    root = "cli.main"

    def __init__(self, cases, probe, workdir: Path):
        from ellipsoid import cli

        self.cases = cases
        self.workdir = workdir
        # Time the CLI's `solve` call, so that cut_us_p50 is solve time per
        # cut here too. A refactor that drops the name falls back to the
        # request's time.
        self.solve_s = None
        solve = getattr(cli, "solve", None)
        if solve is not None:
            def timed_solve(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return solve(*args, **kwargs)
                finally:
                    self.solve_s = time.perf_counter() - start

            cli.solve = timed_solve
        self.requests = [self._write(case, f"req{i}", verify=True) for i, case in enumerate(cases)]
        self.probe = [self._write(case, f"probe{i}", verify=False) for i, case in enumerate(probe)]

    def _write(self, case, stem: str, verify: bool) -> list[str]:
        from ellipsoid.problems import ProblemConstraint, ProblemFile, serialize_problem

        from workloads import RADIUS

        A, b = case.rows()
        problem = ProblemFile(case.dim, RADIUS, [
            ProblemConstraint(a.tolist(), float(v), ">=") for a, v in zip(A, b)])
        path = self.workdir / f"{stem}.json"
        path.write_text(serialize_problem(problem), encoding="utf-8")
        argv = ["--input", str(path), "--output", "json"]
        if verify:
            argv += ["--verify", "--trace", str(self.workdir / f"{stem}.ndjson")]
        if case.epsilon is not None:
            argv += ["--epsilon", repr(case.epsilon)]
        if case.svg:
            argv += ["--svg", str(self.workdir / f"{stem}.svg")]
        return argv

    @staticmethod
    def _call(argv, rec=None):
        from ellipsoid import cli

        out, err = io.StringIO(), io.StringIO()
        span = rec.span(CliRunner.root) if rec is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def run(self, index: int, rec=None) -> Outcome:
        case, argv = self.cases[index], self.requests[index]
        trace_path = Path(argv[argv.index("--trace") + 1])
        svg_path = Path(argv[argv.index("--svg") + 1]) if case.svg else None
        # Outputs of an earlier pass must not pass for this request's.
        for path in (trace_path, svg_path):
            if path is not None:
                path.unlink(missing_ok=True)
        self.solve_s = None
        seconds, code, out, err = self._call(argv, rec)
        if code == 3:
            return Outcome(seconds, error=f"numerical breakdown (exit 3): {out.strip()}")
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return Outcome(seconds, error=f"exit {code}, no JSON report: {err.strip()}",
                           wrong=True)
        cuts = report.get("iterations", 0)
        agreement = report.get("oracle", {}).get("agreement")
        trace = trace_path.read_bytes() if trace_path.exists() else b""
        trace_lines = trace.count(b"\n")
        error = None
        if code != (0 if case.feasible else 1):
            error = f"exit {code} with status {report.get('status')}"
        elif report.get("certified") is not True:
            error = "report not certified"
        elif agreement not in ("agree", "inconclusive"):
            error = f"oracle agreement {agreement!r}"
        elif case.feasible and not rows_hold(case.blocks, report["point"]):
            error = "returned point violates a row"
        elif trace_lines != cuts + (1 if case.feasible else 0):
            error = f"trace has {trace_lines} records for {cuts} cuts"
        elif svg_path is not None and not (
                svg_path.exists() and b"<svg" in svg_path.read_bytes()[:400]):
            error = "SVG file missing or without its <svg> element"
        return Outcome(seconds, cuts, error, wrong=error is not None,
                       inconclusive=agreement == "inconclusive",
                       trace_bytes=len(trace), solve_s=self.solve_s)

    def probe_breakdown_share(self) -> float:
        """Share of the default-epsilon tilted slabs that exit 3."""
        return sum(self._call(argv)[1] == 3 for argv in self.probe) / len(self.probe)


def build(workload: str, seed: int, workdir: Path):
    """Generate the seeded data and build program inputs; return (runner, build seconds)."""
    import workloads

    cases = workloads.GENERATORS[workload](seed)
    probe = workloads.slab_probe(seed) if workload == "cli_mixed" else None
    start = time.perf_counter()
    if workload == "cli_mixed":
        runner = CliRunner(cases, probe, workdir)
    else:
        runner = LibraryRunner(cases)
    return runner, time.perf_counter() - start


def reference_kernel():
    """A fixed interpreter-bound loop of small numpy calls, like the solver's."""
    import numpy as np

    v, M = np.ones(10), np.eye(10)

    def run() -> float:
        start = time.perf_counter()
        for _ in range(300):
            float(v @ v)
            M @ v
        return time.perf_counter() - start

    return run


def host_speed(refs: list[float]) -> list[float]:
    """Per operation: the slowdown factor of the host around it."""
    return [statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]) / REF_NOMINAL_S
            for i in range(len(refs))]


def closed_loop(runner, seconds: float, workload: str, seed: int, rec=None):
    """One client: the next operation starts when the previous one returns.

    Operations go through the cases in passes until ``seconds`` have passed
    and the first pass is complete. The reference kernel runs before each
    operation, outside its timing. With a recorder, each operation runs
    untraced and then traced, so the pair gives the tracing overhead; only
    the untraced outcomes feed the end-to-end metrics.
    """
    outcomes, traced, refs = [], [], []
    count = len(runner.cases)
    reference = reference_kernel()

    def checked(outcome, index):
        if outcome.error is not None:
            print(f"FAILED workload={workload} seed={seed} index={index}: {outcome.error}",
                  file=sys.stderr)
        return outcome

    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(outcomes) >= count):
            break
        i = len(outcomes)
        refs.append(reference())
        outcomes.append(checked(runner.run(i % count), i % count))
        if rec is not None:
            rec.op = i
            with rec.installed():
                traced.append(checked(runner.run(i % count, rec), i % count))
    return outcomes, traced, refs


def best_of_passes(outcomes, count: int) -> list[tuple[Outcome, bool]]:
    """Per case: its fastest pass, and whether any of its passes failed.

    On a shared two-vCPU Xeon VM a single thread ran 1.0x to 1.8x slower
    in phases of about a second. The fastest of a case's passes filters
    those phases out.
    """
    best: dict[int, Outcome] = {}
    failed: set[int] = set()
    for i, o in enumerate(outcomes):
        case = i % count
        if o.error is not None:
            failed.add(case)
        if case not in best or o.seconds < best[case].seconds:
            best[case] = o
    return [(o, case in failed) for case, o in best.items()]


def end_to_end(outcomes, count: int, speed=None) -> dict:
    """End-to-end metrics over cases, each at its fastest pass.

    With ``speed``, each operation's times are divided by the host's
    slowdown factor around it. A case that failed in any pass counts as
    infinitely slow in the percentiles. With one client in a closed loop,
    throughput is answered cases over the time their operations took.
    """
    if speed is not None:
        outcomes = [replace(o, seconds=o.seconds / f,
                            solve_s=None if o.solve_s is None else o.solve_s / f)
                    for o, f in zip(outcomes, speed)]
    cases = best_of_passes(outcomes, count)
    times = [INF if failed else o.seconds for o, failed in cases]
    per_cut = [INF if failed else o.solve_seconds / max(o.cuts, 1) for o, failed in cases]
    answered = sum(not failed for _, failed in cases)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_ms_p50": (percentile(times, 0.5) * 1e3, "ms"),
        "solve_ms_p90": (percentile(times, 0.9) * 1e3, "ms"),
        "answered_per_s": (answered / sum(o.seconds for o, _ in cases), "1/s"),
        "answered_share": (sum(o.error is None for o in outcomes) / len(outcomes), "ratio"),
        "cut_us_p50": (percentile(per_cut, 0.5) * 1e6, "us"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def per_layer(rec, runner, outcomes, traced) -> dict:
    from spans import aggregate

    agg = aggregate(rec.spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    ops = len(traced)
    root_s = agg.get(runner.root, zero)["total_s"]
    out = {}

    def present(name):
        return name in rec.present or name in (runner.root, "solver.certify")

    def layer(name, per_call, scale, unit, share=True, calls=True, self_time=False):
        if not present(name):
            return
        s = agg.get(name, zero)
        busy = s["self_s" if self_time else "total_s"]
        if calls:
            out[f"{name}.calls"] = (s["calls"] / ops, "calls/op")
        out[f"{name}.{per_call}"] = (busy / s["calls"] * scale if s["calls"] else 0.0, unit)
        if share:
            out[f"{name}.share"] = (s["total_s"] / root_s, "ratio")

    layer("solver.find_violated", "us_per_call", 1e6, "us")
    if present("solver.find_violated"):
        calls = agg.get("solver.find_violated", zero)["calls"]
        scanned = rec.counters.get("solver.rows_scanned", 0.0)
        out["solver.rows_scanned_per_call"] = (scanned / calls if calls else 0.0, "rows")
    out["solver.solve.self_share"] = (agg.get("solver.solve", zero)["self_s"] / root_s, "ratio")
    layer("solver.certify", "us_per_call", 1e6, "us", share=False, calls=False)

    layer("engine.central_cut_update", "self_us_per_call", 1e6, "us", self_time=True)
    if present("engine.central_cut_update"):
        cuts = agg.get("engine.central_cut_update", zero)["calls"]
        solves = agg.get("solver.solve", zero)["calls"]
        out["engine.cuts_per_solve"] = (cuts / solves if solves else 0.0, "cuts")

    for kernel in ("cholesky", "mat_vec", "rank1_downdate", "quadratic_form"):
        layer(f"linalg.{kernel}", "us_per_call", 1e6, "us")
    if present("linalg.cholesky"):
        busy = agg.get("linalg.cholesky", zero)["total_s"]
        flops = rec.counters.get("linalg.cholesky.flops", 0.0)
        out["linalg.cholesky.mflops_computed"] = (flops / busy / 1e6 if busy else 0.0, "MFLOP/s")

    layer("oracle.vertex_enumeration_check", "ms_per_call", 1e3, "ms")
    layer("oracle.grid_feasibility_scan", "ms_per_call", 1e3, "ms", share=False)
    out["oracle.inconclusive_share"] = (sum(o.inconclusive for o in traced) / ops, "ratio")
    if present("oracle.vertex_enumeration_check"):
        empty = {i for i in range(ops) if not runner.cases[i % len(runner.cases)].feasible}
        sub = aggregate(rec.spans, empty)
        oracle_s = sub.get("oracle.vertex_enumeration_check", zero)["total_s"]
        sub_root = sub.get(runner.root, zero)["total_s"]
        out["oracle.empty_request_share"] = (oracle_s / sub_root if sub_root else 0.0, "ratio")

    layer("problems.parse_problem", "us_per_call", 1e6, "us", share=False, calls=False)
    layer("problems.to_linear_system", "us_per_call", 1e6, "us", share=False, calls=False)
    layer("svgplot.emit_svg_trace", "ms_per_call", 1e3, "ms", share=False, calls=False)
    layer("cli.replay_shapes", "ms_per_call", 1e3, "ms", share=False, calls=False)
    out["cli.main.self_share"] = (agg.get("cli.main", zero)["self_s"] / root_s, "ratio")
    out["cli.trace_bytes_per_request"] = (sum(o.trace_bytes for o in traced) / ops, "bytes")
    out["cli.default_eps_slab_breakdown_share"] = (
        runner.probe_breakdown_share() if isinstance(runner, CliRunner) else 0.0, "ratio")

    untraced_s = sum(o.seconds for o in outcomes)
    out["trace.overhead_share"] = (sum(o.seconds for o in traced) / untraced_s - 1.0, "ratio")
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = cold_import()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner, build_s = build(args.workload, args.seed, workdir)
        result = {"import_s": import_s, "build_s": build_s}
        if not args.setup_only:
            rec = None
            if args.trace:
                from spans import SpanRecorder

                rec = SpanRecorder()
            outcomes, traced, refs = closed_loop(runner, args.seconds, args.workload,
                                                       args.seed, rec)
            everything = outcomes + traced
            result.update(
                attempted=len(everything),
                failed=sum(o.error is not None for o in everything),
                wrong=sum(o.wrong for o in everything),
                env=environment(),
            )
            if rec is None:
                speed = host_speed(refs)
                result["metrics"] = end_to_end(outcomes, len(runner.cases), speed)
                result["unscaled"] = end_to_end(outcomes, len(runner.cases))
                result["env"]["host_slowdown_p10_p50_p90"] = [
                    percentile(speed, q) for q in (0.1, 0.5, 0.9)]
            else:
                result["metrics"] = per_layer(rec, runner, outcomes, traced)
                out_dir = ROOT / ".bench_out"
                out_dir.mkdir(exist_ok=True)
                rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
