"""End-to-end tests of the command-line driver."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellipsoid.cli
import ellipsoid.oracle
from ellipsoid.cli import DEFAULT_EPSILON_FACTOR, _trace_line, main
from ellipsoid.engine import ball, log_unit_ball_volume, step_log_ratio
from ellipsoid.oracle import FeasibleWitness, vertex_enumeration_check
from ellipsoid.problems import parse_problem, to_linear_system
from ellipsoid.solver import Constraint, LinearSystem, TraceRecord, VolumeExhausted
from instances import feasible_instance, infeasible_instance

SVG_NS = "{http://www.w3.org/2000/svg}"

FEASIBLE_DOC = {
    "dim": 2,
    "radius": 2.0,
    "constraints": [
        {"a": [1.0, 0.0], "b": 0.5, "sense": ">="},
        {"a": [0.0, 1.0], "b": 0.5, "sense": ">="},
    ],
}

# x1 >= 1 and x1 <= -1: no point satisfies both.
DISJOINT_DOC = {
    "dim": 2,
    "radius": 2.0,
    "constraints": [
        {"a": [1.0, 0.0], "b": 1.0, "sense": ">="},
        {"a": [1.0, 0.0], "b": -1.0, "sense": "<="},
    ],
}


def write_problem(tmp_path, doc, name="problem.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_feasible_run_verifies_against_oracle(tmp_path, capsys):
    path = write_problem(tmp_path, FEASIBLE_DOC)
    assert main(["--input", path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "status: feasible" in out
    assert "certified: True" in out
    assert "oracle: agree" in out


def test_json_report_structure(tmp_path, capsys):
    path = write_problem(tmp_path, FEASIBLE_DOC)
    assert main(["--input", path, "--output", "json", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 2
    assert report["num_constraints"] == 2
    assert report["status"] == "feasible"
    assert report["certified"] is True
    assert report["min_slack"] >= -1e-9
    assert len(report["point"]) == 2
    assert report["log_epsilon"] == pytest.approx(math.log(report["epsilon"]))
    assert report["oracle"]["agreement"] == "agree"
    assert report["oracle"]["verdict"] == "feasible"


def test_disjoint_system_exhausts_volume(tmp_path, capsys):
    path = write_problem(tmp_path, DISJOINT_DOC)
    code = main(["--input", path, "--epsilon", "1e-6", "--output", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "volume_exhausted"
    assert report["iterations"] == 63
    assert report["final_log_volume"] < report["log_epsilon"]
    assert report["log_volume_margin"] > 0.0
    assert report["certified"] is True


def test_trace_records_are_built_only_for_trace_or_svg(tmp_path, capsys, monkeypatch):
    import ellipsoid.solver

    calls = []
    quadratic_form = ellipsoid.solver.quadratic_form

    def counting(*args):
        calls.append(args)
        return quadratic_form(*args)

    monkeypatch.setattr(ellipsoid.solver, "quadratic_form", counting)
    path = write_problem(tmp_path, DISJOINT_DOC)
    argv = ["--input", path, "--epsilon", "1e-6", "--output", "json", "--verify"]
    assert main(argv) == 1
    plain = json.loads(capsys.readouterr().out)
    assert calls == []

    assert main(argv + ["--trace", str(tmp_path / "trace.ndjson")]) == 1
    traced = json.loads(capsys.readouterr().out)
    assert len(calls) == traced["iterations"] == 63
    assert plain == traced


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity (RFC 8259)."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("doc", [
    # x >= 1 and x <= 0 on the line: the interval path, log-volume -inf.
    {"dim": 1, "radius": 2.0, "constraints": [
        {"a": [1.0], "b": 1.0, "sense": ">="},
        {"a": [1.0], "b": 0.0, "sense": "<="},
    ]},
    # No rows: the feasible report's min_slack is +inf.
    {"dim": 2, "radius": 1.0, "constraints": []},
])
def test_json_report_is_strict_json(tmp_path, capsys, doc):
    path = write_problem(tmp_path, doc)
    code = main(["--input", path, "--output", "json", "--verify"])
    report = strict_json(capsys.readouterr().out)
    if doc["dim"] == 1:
        assert code == 1
        assert report["status"] == "volume_exhausted"
        assert report["final_log_volume"] is None
        assert report["log_volume_margin"] is None
    else:
        assert code == 0
        assert report["min_slack"] is None
    assert report["certified"] is True


@pytest.mark.parametrize("doc", [
    {"dim": 41, "radius": 1.0, "constraints": [{"a": [1.0] * 41, "b": 0.0, "sense": ">="}]},
    {"dim": 2, "radius": 2.0,
     "constraints": [{"a": [1.0, float(i)], "b": -5.0, "sense": ">="} for i in range(241)]},
])
def test_verify_beyond_oracle_limits_is_skipped(tmp_path, capsys, doc):
    path = write_problem(tmp_path, doc)
    assert main(["--input", path, "--output", "json", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["agreement"] == "skipped"
    assert "dim <= 40 and at most 240 rows" in report["oracle"]["reason"]


def system_doc(system) -> dict:
    return {"dim": system.dim, "radius": system.radius, "constraints": [
        {"a": con.normal.tolist(), "b": con.bound, "sense": ">="} for con in system.constraints]}


@pytest.mark.parametrize("feasible", [True, False])
def test_verify_agrees_in_ten_dimensions(tmp_path, capsys, feasible):
    rng = np.random.default_rng(10)
    system = feasible_instance(rng, 10, 30)[0] if feasible else infeasible_instance(rng, 10, 30)
    path = write_problem(tmp_path, system_doc(system))
    # A thousandth of the initial volume closes out the empty slab before
    # the cuts break down.
    epsilon = 1e-3 * math.exp(ball(10, system.radius).log_volume)
    code = main(["--input", path, "--output", "json", "--verify", "--epsilon", repr(epsilon)])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if feasible else 1)
    assert report["status"] == ("feasible" if feasible else "volume_exhausted")
    assert report["oracle"]["verdict"] == ("feasible" if feasible else "infeasible")
    assert report["oracle"]["agreement"] == "agree"


def test_failed_nnls_is_inconclusive(tmp_path, capsys, monkeypatch):
    # An NNLS that returns garbage gives neither a witness nor a
    # certificate; the oracle says so instead of guessing.
    monkeypatch.setattr(ellipsoid.oracle, "_nnls", lambda E, f: np.full(E.shape[1], np.nan))
    path = write_problem(tmp_path, DISJOINT_DOC)
    system = to_linear_system(parse_problem(json.dumps(DISJOINT_DOC).encode()))
    verdict = ellipsoid.oracle.vertex_enumeration_check(system)
    assert isinstance(verdict, ellipsoid.oracle.Inconclusive) and verdict.reason
    assert main(["--input", path, "--output", "json", "--verify", "--epsilon", "1e-6"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "volume_exhausted"
    assert report["oracle"] == {"verdict": "inconclusive", "reason": verdict.reason,
                                "agreement": "inconclusive"}


def test_missing_input_file(tmp_path, capsys):
    assert main(["--input", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_problem_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 2, "radius": 1.0, "constraints": '
                    '[{"a": [1, 0], "b": %s, "sense": ">="}]}' % ("9" * 401))
    assert main(["--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith('error: constraint 0: "b" must be finite')


def test_row_whose_square_underflows_exits_2(tmp_path, capsys):
    doc = {"dim": 2, "radius": 1.0,
           "constraints": [{"a": [1e-200, 0.0], "b": 0.0, "sense": ">="}]}
    assert main(["--input", write_problem(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: constraint normal must be nonzero\n"


@pytest.mark.parametrize("dim, radius", [(1, 0.3), (2, 2.0), (3, 7.25), (6, 1e3)])
def test_default_epsilon_is_a_fraction_of_the_ball_volume(tmp_path, capsys, dim, radius):
    doc = {"dim": dim, "radius": radius,
           "constraints": [{"a": [1.0] * dim, "b": 0.0, "sense": ">="}]}
    assert main(["--input", write_problem(tmp_path, doc), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    epsilon = DEFAULT_EPSILON_FACTOR * math.exp(ball(dim, radius).log_volume)
    assert report["epsilon"] == epsilon
    assert report["log_epsilon"] == math.log(epsilon)


def test_default_epsilon_beyond_the_float_range_exits_2(tmp_path, capsys):
    # R^2 = 1e200 is finite, but the ball's volume, about R^4, is not.
    doc = {"dim": 4, "radius": 1e100,
           "constraints": [{"a": [1.0, 0.0, 0.0, 0.0], "b": 0.0, "sense": ">="}]}
    assert main(["--input", write_problem(tmp_path, doc)]) == 2
    assert "pass --epsilon" in capsys.readouterr().err


def test_svg_flag_rejects_non_planar_problems(tmp_path, capsys):
    doc = {
        "dim": 3,
        "radius": 1.0,
        "constraints": [{"a": [1.0, 0.0, 0.0], "b": 0.1, "sense": ">="}],
    }
    path = write_problem(tmp_path, doc)
    assert main(["--input", path, "--svg", str(tmp_path / "plot.svg")]) == 2
    assert "2-D" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_rejects_bad_epsilon(tmp_path, capsys, value):
    path = write_problem(tmp_path, FEASIBLE_DOC)
    assert main(["--input", path, "--epsilon", value]) == 2
    assert "error:" in capsys.readouterr().err


def test_iteration_cap_flag(tmp_path, capsys):
    path = write_problem(tmp_path, DISJOINT_DOC)
    code = main(["--input", path, "--max-iter", "3", "--output", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "iteration_cap_reached"
    assert report["iterations"] == 3


def test_iteration_cap_makes_no_claim_for_the_oracle(tmp_path, capsys):
    # The oracle finds a witness, but a capped run claims neither answer,
    # so it neither agrees nor disagrees.
    path = write_problem(tmp_path, FEASIBLE_DOC)
    argv = ["--input", path, "--max-iter", "0", "--verify"]
    assert main(argv + ["--output", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "iteration_cap_reached"
    assert report["oracle"]["verdict"] == "feasible"
    assert report["oracle"]["agreement"] == "no_claim"
    assert main(argv) == 1
    assert "oracle: no_claim" in capsys.readouterr().out


# 0.3 <= 0.6 x1 + 0.8 x2 <= 0.30000001: non-empty, 1e-8 thick.
THIN_SLAB_DOC = {
    "dim": 2,
    "radius": 2.0,
    "constraints": [
        {"a": [0.6, 0.8], "b": 0.3, "sense": ">="},
        {"a": [0.6, 0.8], "b": 0.30000001, "sense": "<="},
    ],
}


def test_thin_region_is_consistent_with_exhausted_volume(tmp_path, capsys):
    # The region is non-empty but far thinner than a ball of volume 1e-2,
    # so the solver's claim and the oracle's witness do not contradict.
    path = write_problem(tmp_path, THIN_SLAB_DOC)
    argv = ["--input", path, "--verify", "--tol", "0", "--epsilon", "1e-2"]
    assert main(argv + ["--output", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "volume_exhausted"
    assert report["oracle"]["verdict"] == "feasible"
    assert report["oracle"]["witness_margin"] <= 1e-8
    assert report["oracle"]["agreement"] == "consistent"
    assert main(argv) == 1
    assert "oracle: consistent" in capsys.readouterr().out


@pytest.mark.parametrize("epsilon, agreement", [(1e-2, "disagree"), (20.0, "consistent")])
def test_exhausted_volume_on_a_roomy_region(tmp_path, capsys, monkeypatch, epsilon, agreement):
    # x1, x2 >= 0.5 within radius 2 holds a disc of radius about 0.54, area
    # about 0.9: a run claiming volume below 1e-2 there is wrong, one
    # claiming below 20 is not.  The least-norm witness (0.5, 0.5) lies on
    # both rows; the margin comes from a deeper witness.
    monkeypatch.setattr(ellipsoid.cli, "solve", lambda sys, cfg: VolumeExhausted(-10.0, 7))
    path = write_problem(tmp_path, FEASIBLE_DOC)
    argv = ["--input", path, "--output", "json", "--verify", "--epsilon", repr(epsilon)]
    assert main(argv) == 1
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert oracle["witness"] == [0.5, 0.5]
    assert oracle["agreement"] == agreement
    r = oracle["witness_margin"]
    assert (r > 0.0 and math.pi * r * r >= epsilon) == (agreement == "disagree")


def reference_witness_margin(sys: LinearSystem, x: np.ndarray) -> float:
    """``cli._witness_margin`` one row at a time, norms by math.hypot."""
    margin = sys.radius - math.sqrt(x.dot(x))
    for con in sys.constraints:
        a = con.normal
        margin = min(margin, (a.dot(x) - con.bound) / math.hypot(*a.tolist()))
    return margin


def reference_deep_witness(sys: LinearSystem, epsilon: float):
    """``cli._deep_witness`` with each shifted row rebuilt as a Constraint."""
    n = sys.dim
    r = (1.0 + 1.0 / n) * math.exp((math.log(epsilon) - log_unit_ball_volume(n)) / n)
    if not r < sys.radius:
        return None
    try:
        rows = tuple(Constraint(con.normal, con.bound + r * math.hypot(*con.normal.tolist()))
                     for con in sys.constraints)
    except ValueError:
        return None
    verdict = vertex_enumeration_check(LinearSystem(n, rows, sys.radius - r))
    return verdict.point if isinstance(verdict, FeasibleWitness) else None


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_witness_paths_match_their_per_row_references(seed, n, m):
    # Rows scaled by 10^-3 to 10^3 around a point p of the ball, each with a
    # slack of -0.2 R to R, so the region is roomy, thin or empty; the
    # volume's ball radius spans 1e-3 R to 2 R.
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(0.5, 5.0))
    A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    norms = np.linalg.norm(A, axis=1)
    p = rng.normal(size=n)
    p *= radius * rng.uniform() / np.linalg.norm(p)
    b = A @ p - rng.uniform(-0.2, 1.0, size=m) * radius * norms
    sys = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), radius)
    r0 = radius * 10.0 ** rng.uniform(-3.0, math.log10(2.0))
    epsilon = math.exp(log_unit_ball_volume(n) + n * math.log(r0))

    x = ellipsoid.cli._deep_witness(sys, epsilon)
    assert (x is None) == (reference_deep_witness(sys, epsilon) is None)
    if x is None:
        x = p
    # A row's margin is a dot product (n u each form, u = eps / 2), a
    # subtraction and a division (u each), over a norm by hypot (about
    # n u for numpy's reduction, u for math.hypot): the forms differ by at
    # most (3n + 5) u times (|a|.|x| + |b|) / ||a||, and R - ||x|| is the
    # same code in both.  The bound allows more than twice that.
    scale = max(radius, float(np.linalg.norm(x)),
                float(((np.abs(A) @ np.abs(x) + np.abs(b)) / norms).max()))
    got, want = ellipsoid.cli._witness_margin(sys, x), reference_witness_margin(sys, x)
    assert abs(got - want) <= 4.0 * (n + 2) * np.finfo(float).eps * scale


def test_radius_whose_square_overflows_exits_2(tmp_path, capsys):
    doc = {"dim": 2, "radius": 1e200,
           "constraints": [{"a": [1.0, 0.0], "b": 0.5, "sense": ">="}]}
    assert main(["--input", write_problem(tmp_path, doc), "--epsilon", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius must be positive with a nonzero, finite square, got 1e+200\n"


def test_rejects_negative_iteration_cap(tmp_path, capsys):
    path = write_problem(tmp_path, DISJOINT_DOC)
    assert main(["--input", path, "--max-iter", "-5"]) == 2
    assert "max_iterations" in capsys.readouterr().err
    assert main(["--input", path, "--max-iter", "0", "--output", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["iterations"] == 0


def test_trace_file_records_every_step(tmp_path, capsys):
    path = write_problem(tmp_path, FEASIBLE_DOC)
    trace_path = tmp_path / "trace.ndjson"
    assert main(["--input", path, "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    iterations = int(out.split("iterations: ")[1].split("\n")[0])

    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(records) == iterations + 1
    cuts, terminal = records[:-1], records[-1]
    assert [r["iter"] for r in cuts] == list(range(iterations))
    log_v0 = math.log(4.0 * math.pi)
    expected = log_v0
    for rec in cuts:
        assert rec["violated_index"] in (0, 1)
        assert rec["cut_quadratic_form"] > 0.0
        expected += step_log_ratio(2)
        assert rec["log_volume"] == pytest.approx(expected, abs=1e-9)
        assert len(rec["center"]) == 2
    assert terminal["iter"] == iterations
    assert terminal["violated_index"] is None
    assert terminal["cut_quadratic_form"] is None


def test_trace_writes_non_finite_floats_as_null():
    rec = TraceRecord(4, 1, [math.nan, math.inf, -0.0, -math.inf], -math.inf, math.nan,
                      np.eye(4))
    line = _trace_line(rec)
    assert line.endswith("\n") and line.count("\n") == 1
    assert strict_json(line) == {"iter": 4, "violated_index": 1,
                                 "center": [None, None, -0.0, None],
                                 "log_volume": None, "cut_quadratic_form": None}


def record_dict(rec: TraceRecord) -> dict:
    """The trace line's fields, in order, as json.dumps is to write them."""
    return {
        "iter": rec.iter,
        "violated_index": rec.violated_index,
        "center": rec.center,
        "log_volume": rec.log_volume,
        "cut_quadratic_form": rec.cut_quadratic_form,
    }


# Finite floats with the awkward cases drawn often: signed zeros,
# subnormals and the ends of the range.
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
)


@given(
    st.integers(0, 10**6),
    st.none() | st.integers(0, 10**4),
    st.lists(finite_floats, min_size=1, max_size=40),
    finite_floats,
    st.none() | finite_floats,
)
@settings(max_examples=300, deadline=None)
def test_trace_line_is_json_dumps_of_the_record(it, index, center, log_volume, qf):
    rec = TraceRecord(it, index, center, log_volume, qf, np.eye(len(center)))
    assert _trace_line(rec) == json.dumps(record_dict(rec)) + "\n"


def test_svg_written_with_one_ellipse_per_state(tmp_path, capsys):
    path = write_problem(tmp_path, DISJOINT_DOC)
    svg_path = tmp_path / "plot.svg"
    code = main(
        ["--input", path, "--epsilon", "1e-6", "--svg", str(svg_path)]
    )
    assert code == 1
    capsys.readouterr()
    root = ET.fromstring(svg_path.read_bytes())
    # 63 cuts: the initial ball plus one ellipse per cut.
    assert len(root.findall(f".//{SVG_NS}ellipse")) == 64
    assert len(root.findall(f".//{SVG_NS}circle")) == 1
    assert len(root.findall(f".//{SVG_NS}line")) == 2


def test_svg_without_cuts_has_no_ellipses(tmp_path, capsys):
    doc = {
        "dim": 2,
        "radius": 2.0,
        "constraints": [{"a": [1.0, 0.0], "b": -5.0, "sense": ">="}],
    }
    path = write_problem(tmp_path, doc)
    svg_path = tmp_path / "plot.svg"
    assert main(["--input", path, "--svg", str(svg_path)]) == 0
    capsys.readouterr()
    root = ET.fromstring(svg_path.read_bytes())
    assert root.findall(f".//{SVG_NS}ellipse") == []
    assert len(root.findall(f".//{SVG_NS}circle")) == 1


def test_numerical_breakdown_exits_3(tmp_path, capsys):
    # A thin non-empty slab tilted off the axes: repeated opposing cuts
    # flatten the ellipsoid until ln|det J| no longer bears out the running
    # volume, long before the (tiny) volume threshold, and the oracle finds
    # a witness, so there is no certificate to report instead.
    u = [math.cos(0.3), math.sin(0.3)]
    doc = {
        "dim": 2,
        "radius": 2.0,
        "constraints": [
            {"a": u, "b": 0.3, "sense": ">="},
            {"a": u, "b": 0.3 + 1e-9, "sense": "<="},
        ],
    }
    path = write_problem(tmp_path, doc)
    assert main(["--input", path, "--output", "json", "--epsilon", "1e-40"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "numerical_breakdown"
    assert report["iteration"] > 10
    assert report["reason"]


def test_numerical_breakdown_writes_its_trace(tmp_path, capsys):
    u = [math.cos(0.3), math.sin(0.3)]
    doc = {
        "dim": 2,
        "radius": 2.0,
        "constraints": [
            {"a": u, "b": 0.3, "sense": ">="},
            {"a": u, "b": 0.3 + 1e-9, "sense": "<="},
        ],
    }
    path = write_problem(tmp_path, doc)
    trace = tmp_path / "t.ndjson"
    argv = ["--input", path, "--output", "json", "--epsilon", "1e-40", "--trace", str(trace)]
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    # One record per cut made; the cut that broke down has none.
    assert [r["iter"] for r in records] == list(range(report["iteration"]))


def test_no_answer_comes_from_past_the_float64_wall(tmp_path, capsys):
    # With no violation tolerance, cutting on 0.3 <= u.x <= 0.3 + 1e-12
    # past the float64 wall lands a center that passes every row, about 48
    # from the origin in a ball of radius 2.  The volume audit stops the run
    # at the wall instead.
    u = [math.cos(0.3), math.sin(0.3)]
    doc = {
        "dim": 2,
        "radius": 2.0,
        "constraints": [
            {"a": u, "b": 0.3, "sense": ">="},
            {"a": u, "b": 0.3 + 1e-12, "sense": "<="},
        ],
    }
    path = write_problem(tmp_path, doc)
    argv = ["--input", path, "--output", "json", "--epsilon", "1e-40", "--tol", "0"]
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "numerical_breakdown"
    assert report["reason"].startswith("volume audit")


# An empty slab tilted off the axes: at the default epsilon the cuts break
# down before the volume runs out.
TILTED_SLAB_DOC = {
    "dim": 2,
    "radius": 2.0,
    "constraints": [
        {"a": [math.cos(0.3), math.sin(0.3)], "b": 0.5, "sense": ">="},
        {"a": [math.cos(0.3), math.sin(0.3)], "b": 0.3, "sense": "<="},
    ],
}


def test_breakdown_on_an_empty_slab_reports_its_certificate(tmp_path, capsys):
    path = write_problem(tmp_path, TILTED_SLAB_DOC)
    assert main(["--input", path, "--output", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    assert report["iteration"] > 10
    assert report["reason"]
    # y >= 0 proves that no point of the ball holds both rows: any such x
    # gives y.b <= y.(A x) <= R ||A^T y||, and y.b exceeds R ||A^T y||.
    c, s = Fraction(math.cos(0.3)), Fraction(math.sin(0.3))
    A = [(c, s), (-c, -s)]
    b = [Fraction(0.5), Fraction(-0.3)]
    y = [Fraction(v) for v in report["y"]]
    assert len(y) == 2 and all(v >= 0 for v in y)
    yb = sum(v * bi for v, bi in zip(y, b))
    ATy = [sum(v * row[j] for v, row in zip(y, A)) for j in range(2)]
    assert yb > 0 and yb * yb > Fraction(2) ** 2 * sum(t * t for t in ATy)

    assert main(["--input", path]) == 1
    out = capsys.readouterr().out
    assert "status: infeasible" in out
    assert "certificate y: [" in out


def test_breakdown_with_a_certificate_writes_trace_and_svg(tmp_path, capsys):
    path = write_problem(tmp_path, TILTED_SLAB_DOC)
    trace, svg = tmp_path / "t.ndjson", tmp_path / "s.svg"
    argv = ["--input", path, "--output", "json", "--trace", str(trace), "--svg", str(svg)]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == report["iteration"]
    assert all(r["violated_index"] in (0, 1) for r in records)
    root = ET.parse(svg).getroot()
    assert root.tag == f"{SVG_NS}svg"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "--epsilon" in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    assert main(["--frobnicate"]) == 2
    capsys.readouterr()


def test_input_flag_is_required(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = write_problem(tmp_path, FEASIBLE_DOC)
    good = ["--input", path, "--output", "json", "--verify"]
    assert main(good) == 0
    first = capsys.readouterr().out
    assert main(good + ["--frobnicate"]) == 2
    assert main(["--help"]) == 0
    assert main(["--output", "json"]) == 2
    capsys.readouterr()
    assert main(good) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["status"] == "feasible"


def test_console_script_is_installed():
    assert shutil.which("ellipsoid-solve") is not None


def test_module_invocation_via_subprocess(tmp_path):
    path = write_problem(tmp_path, FEASIBLE_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "ellipsoid.cli", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: feasible" in proc.stdout
