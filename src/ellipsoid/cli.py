"""Command-line driver.

Reads a JSON problem file, runs the solver, and reports the result as text
or JSON.  Optionally writes a newline-delimited trace, a 2-D SVG plot of
the ellipse sequence, and an exact oracle cross-check (dim <= 40, at most
240 rows).

Exit statuses: 0 feasible, 1 no feasible point found (volume exhausted,
iteration cap, or a numerical breakdown after which the oracle proved the
region empty: status "infeasible" with its certificate y), 2 input error,
3 numerical breakdown without such a proof.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys

import numpy as np

from .engine import log_unit_ball_volume
from .oracle import (
    MAX_CONSTRAINTS,
    MAX_DIM,
    FeasibleWitness,
    Infeasible,
    vertex_enumeration_check,
)
from .problems import ProblemFormatError, parse_problem, to_linear_system
from .solver import (
    DEFAULT_VIOLATION_TOL,
    Feasible,
    IterationCapReached,
    LinearSystem,
    NumericalBreakdown,
    SolverConfig,
    TraceRecord,
    VolumeExhausted,
    as_arrays,
    certify,
    solve,
)
from .svgplot import emit_svg_trace

EXIT_FEASIBLE = 0
EXIT_NOT_FOUND = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

# Without --epsilon the threshold is this fraction of the initial ball volume.
DEFAULT_EPSILON_FACTOR = 1e-8


def replay_shapes(sys: LinearSystem, records: list[TraceRecord]):
    """The ellipsoid sequence of a solve: the initial ball, then the
    ``(center, shape)`` that each cut record holds.

    Returns [] when no cuts were made: the initial ball coincides with the
    bounding circle, so there is nothing to plot beyond it.
    """
    cut_records = [r for r in records if r.violated_index is not None]
    if not cut_records:
        return []
    # The bounding ball's shape, R^2 I, as engine.ball forms it.
    start = sys.radius * sys.radius * np.eye(sys.dim)
    start.setflags(write=False)
    return [(np.zeros(sys.dim), start)] + [
        (np.array(rec.center), rec.shape) for rec in cut_records
    ]


def _in_oracle_range(sys: LinearSystem) -> bool:
    return sys.dim <= MAX_DIM and len(sys.constraints) <= MAX_CONSTRAINTS


def _witness_margin(sys: LinearSystem, x: np.ndarray) -> float:
    """min(min_i (a_i.x - b_i) / ||a_i||, R - ||x||): the radius of the
    largest ball about ``x`` inside the region and the bounding ball."""
    A, b = as_arrays(sys)
    # ||a_i|| by hypot, which overflows only where the norm does; the
    # initial 0 makes a one-entry row's norm |a|.
    margins = (A.dot(x) - b) / np.hypot.reduce(A, axis=1, initial=0.0)
    return min(sys.radius - math.sqrt(x.dot(x)), float(margins.min(initial=math.inf)))


def _deep_witness(sys: LinearSystem, epsilon: float) -> np.ndarray | None:
    """A point whose margin is about (1 + 1/n) r, where B(0, r) has volume
    epsilon, when the oracle finds one in the region shrunk by that margin.

    The factor leaves room for the oracle's tolerance and costs at most
    e in volume: (1 + 1/n)^n < e.
    """
    n = sys.dim
    r = (1.0 + 1.0 / n) * math.exp((math.log(epsilon) - log_unit_ball_volume(n)) / n)
    if not r < sys.radius:
        return None
    A, b = as_arrays(sys)
    with np.errstate(over="ignore"):
        shifted = b + r * np.hypot.reduce(A, axis=1, initial=0.0)
    try:
        region = LinearSystem.from_arrays(A, shifted, sys.radius - r)
    except ValueError:  # a shifted bound beyond the float range
        return None
    verdict = vertex_enumeration_check(region)
    return verdict.point if isinstance(verdict, FeasibleWitness) else None


def _oracle_section(sys: LinearSystem, outcome, epsilon: float) -> dict:
    if not _in_oracle_range(sys):
        reason = f"oracle limited to dim <= {MAX_DIM} and at most {MAX_CONSTRAINTS} rows"
        return {"agreement": "skipped", "reason": reason}
    verdict = vertex_enumeration_check(sys)
    if isinstance(verdict, FeasibleWitness):
        section = {"verdict": "feasible", "witness": verdict.point.tolist()}
    elif isinstance(verdict, Infeasible):
        section = {"verdict": "infeasible"}
    else:
        return {"verdict": "inconclusive", "reason": verdict.reason, "agreement": "inconclusive"}
    if isinstance(outcome, IterationCapReached):
        # A capped run claims neither answer, so there is nothing to agree with.
        section["agreement"] = "no_claim"
    elif isinstance(outcome, Feasible) == isinstance(verdict, FeasibleWitness):
        section["agreement"] = "agree"
    elif isinstance(outcome, VolumeExhausted):
        # The run claims only that the region inside the ball has volume
        # below epsilon.  A witness x with margin r > 0 puts B(x, r) in the
        # region, so it contradicts the claim only when that ball alone
        # reaches epsilon; a region thinner than that is non-empty yet small.
        # The least-norm witness lies on its active rows, with margin 0, so
        # a deeper witness is sought first.
        x = _deep_witness(sys, epsilon)
        if x is None:
            x = verdict.point
        r = section["witness_margin"] = _witness_margin(sys, x)
        contradicts = r > 0.0 and (
            log_unit_ball_volume(sys.dim) + sys.dim * math.log(r) >= math.log(epsilon)
        )
        section["agreement"] = "disagree" if contradicts else "consistent"
    else:
        section["agreement"] = "disagree"
    return section


def _report_breakdown(sys: LinearSystem, exc: NumericalBreakdown, output: str) -> int:
    """Report a breakdown: as ``infeasible`` (exit 1) when the oracle
    certifies the region empty, else as ``numerical_breakdown`` (exit 3)."""
    verdict = vertex_enumeration_check(sys) if _in_oracle_range(sys) else None
    proved = isinstance(verdict, Infeasible)
    report = {"status": "infeasible" if proved else "numerical_breakdown",
              "iteration": exc.iteration, "reason": exc.reason}
    if proved:
        report["y"] = verdict.y.tolist()
    if output == "json":
        print(json.dumps(report))
    elif proved:
        print(f"status: infeasible\nafter {exc}\ncertificate y: {report['y']}")
    else:
        print(f"error: {exc}", file=_sys.stderr)
    return EXIT_NOT_FOUND if proved else EXIT_NUMERICAL


def _report(outcome, sys: LinearSystem, cfg: SolverConfig, oracle: dict | None) -> dict:
    report = {
        "dim": sys.dim,
        "num_constraints": len(sys.constraints),
        "epsilon": cfg.epsilon,
        "log_epsilon": math.log(cfg.epsilon),
    }
    cert = certify(
        outcome, sys, violation_tolerance=cfg.violation_tolerance, epsilon=cfg.epsilon
    )
    if isinstance(outcome, Feasible):
        report.update(
            status="feasible",
            iterations=outcome.iterations,
            point=outcome.point.tolist(),
            min_slack=cert.min_slack,
            certified=cert.passed,
        )
    elif isinstance(outcome, VolumeExhausted):
        report.update(
            status="volume_exhausted",
            iterations=outcome.iterations,
            final_log_volume=outcome.final_log_volume,
            log_volume_margin=cert.log_volume_margin,
            certified=cert.passed,
        )
    else:
        report.update(
            status="iteration_cap_reached",
            iterations=outcome.iterations,
            certified=cert.passed,
        )
    if oracle is not None:
        report["oracle"] = oracle
    return report


def _json_value(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    return value


def _json_float(value: float) -> str:
    # float.__repr__ is how json.dumps writes a float, subclasses included.
    return float.__repr__(value) if math.isfinite(value) else "null"


def _trace_line(rec: TraceRecord) -> str:
    """One trace line, ``{"iter": I, "violated_index": K, "center": [C1, ...],
    "log_volume": V, "cut_quadratic_form": Q}`` and a newline, as json.dumps
    writes that dict (floats by float.__repr__), but with null for a
    non-finite float; K and Q are null on the terminal feasible record."""
    # A list's repr joins float.__repr__ of each entry with ", ".
    center = repr(rec.center)[1:-1]
    # Finite reprs hold no "n"; "nan" and "inf" do.
    if "n" in center:
        center = ", ".join(map(_json_float, rec.center))
    index, qf = rec.violated_index, rec.cut_quadratic_form
    return (
        f'{{"iter": {rec.iter}, "violated_index": {"null" if index is None else index}, '
        f'"center": [{center}], "log_volume": {_json_float(rec.log_volume)}, '
        f'"cut_quadratic_form": {"null" if qf is None else _json_float(qf)}}}\n'
    )


def _print_text(report: dict) -> None:
    print(f"status: {report['status']}")
    print(f"iterations: {report['iterations']}")
    if report["status"] == "feasible":
        point = ", ".join(f"{v:.12g}" for v in report["point"])
        print(f"point: [{point}]")
        print(f"min slack: {report['min_slack']:.6g}")
    elif report["status"] == "volume_exhausted":
        print(f"final log-volume: {report['final_log_volume']:.6f}")
        print(f"log epsilon: {report['log_epsilon']:.6f}")
    print(f"certified: {report['certified']}")
    if "oracle" in report:
        print(f"oracle: {report['oracle']['agreement']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsoid-solve",
        description="Find a point satisfying a system of linear inequalities, "
        "or certify that any feasible region in the bounding ball has "
        "volume below epsilon.",
    )
    parser.add_argument("--input", required=True, help="problem file (JSON)")
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="volume threshold (default: 1e-8 x initial ball volume)",
    )
    parser.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_VIOLATION_TOL,
        help="violation tolerance (scaled per row by 1+|b|)",
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--trace", default=None, help="write ndjson trace records here")
    parser.add_argument("--svg", default=None, help="write an SVG plot here (dim 2 only)")
    parser.add_argument(
        "--verify", action="store_true",
        help="cross-check with the exact oracle (dim <= 40, at most 240 rows)",
    )
    return parser


# Built once per process: argparse keeps no state between parse_args calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)

    try:
        with open(args.input, "rb") as fh:
            problem = parse_problem(fh.read())
        sys = to_linear_system(problem)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    except (ProblemFormatError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR

    if args.svg is not None and sys.dim != 2:
        print(
            f"error: --svg requires a 2-D problem (got dim = {sys.dim}); "
            "the plot is a drawing of ellipses in the plane",
            file=_sys.stderr,
        )
        return EXIT_INPUT_ERROR

    epsilon = args.epsilon
    if epsilon is None:
        # The initial ball's log-volume, as engine.ball computes it.
        log_volume = log_unit_ball_volume(sys.dim) + sys.dim * math.log(sys.radius)
        try:
            epsilon = DEFAULT_EPSILON_FACTOR * math.exp(log_volume)
        except OverflowError:
            print(
                f"error: the initial ball's volume, e^{log_volume:.6g}, is beyond the float "
                "range, so there is no default epsilon; pass --epsilon",
                file=_sys.stderr,
            )
            return EXIT_INPUT_ERROR
    # Trace records are built only for the outputs that read them.
    records: list[TraceRecord] = []
    wants_records = args.trace is not None or args.svg is not None
    try:
        cfg = SolverConfig(
            epsilon=epsilon,
            max_iterations=args.max_iter,
            violation_tolerance=args.tol,
            trace=records.append if wants_records else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR

    breakdown = None
    try:
        outcome = solve(sys, cfg)
    except NumericalBreakdown as exc:
        breakdown = exc

    # After a breakdown the records of the cuts made before it are written.
    # Encoded after the solve, in one write, so the cut loop pays only for
    # appending each record.
    if args.trace is not None:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write("".join(map(_trace_line, records)))
        except OSError as exc:
            print(f"error: cannot write {args.trace}: {exc}", file=_sys.stderr)
            return EXIT_INPUT_ERROR

    if args.svg is not None:
        try:
            with open(args.svg, "wb") as fh:
                emit_svg_trace(sys, records, replay_shapes(sys, records), fh)
        except OSError as exc:
            print(f"error: cannot write {args.svg}: {exc}", file=_sys.stderr)
            return EXIT_INPUT_ERROR

    if breakdown is not None:
        return _report_breakdown(sys, breakdown, args.output)

    oracle = _oracle_section(sys, outcome, cfg.epsilon) if args.verify else None
    report = _report(outcome, sys, cfg, oracle)
    if args.output == "json":
        print(json.dumps(_json_value(report), allow_nan=False))
    else:
        _print_text(report)
    return EXIT_FEASIBLE if isinstance(outcome, Feasible) else EXIT_NOT_FOUND


if __name__ == "__main__":
    raise SystemExit(main())
