"""Acceptance suite: seven end-to-end checks of the package's guarantees.

Each test exercises one advertised property at its stated tolerance and
prints a single "criterion N: PASS" line when it holds.  Budgeted tests
also assert their wall-clock limit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import numpy.testing as npt
import pytest

from ellipsoid.engine import (
    ball,
    log_unit_ball_volume,
    step_log_ratio,
)
from ellipsoid.oracle import Infeasible, vertex_enumeration_check
from ellipsoid.solver import (
    Feasible,
    SolverConfig,
    VolumeExhausted,
    certify,
    iteration_cap,
    solve,
)
from instances import (
    contains,
    feasible_instance,
    infeasible_instance,
    random_state,
    unit_direction,
    sample_in_ellipsoid,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _pass(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "ellipsoid.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.fixture(scope="module")
def containment_corpus():
    """50 random ellipsoids over dims 2..8, each with a cut direction."""
    rng = np.random.default_rng(31415)
    return [
        (random_state(rng, 2 + i % 7), unit_direction(rng, 2 + i % 7))
        for i in range(50)
    ]


@pytest.fixture(scope="module")
def infeasible_runs():
    """50 empty-slab systems (45 planar, 5 in dim 3), solved to exhaustion."""
    rng = np.random.default_rng(20260818)
    t0 = time.perf_counter()
    runs = []
    for i in range(50):
        n = 2 if i < 45 else 3
        m = int(rng.integers(2, 11))
        sys_ = infeasible_instance(rng, n, m)
        log_v0 = ball(n, sys_.radius).log_volume
        eps = 1e-3 * math.exp(log_v0)
        out = solve(sys_, SolverConfig(epsilon=eps))
        runs.append((sys_, eps, log_v0, out))
    return {"runs": runs, "seconds": time.perf_counter() - t0}


def test_criterion_1_closed_form_update():
    new = ball(2, 1.0).cut(np.array([1.0, 0.0]))
    npt.assert_allclose(new.center, [1.0 / 3.0, 0.0], rtol=0.0, atol=1e-12)
    npt.assert_allclose(
        new.shape, np.diag([4.0 / 9.0, 4.0 / 3.0]), rtol=0.0, atol=1e-12
    )
    _pass(1, "closed-form single-cut update")


def test_criterion_2_volume_ratio_bound():
    t0 = time.perf_counter()
    for n in range(2, 1001):
        assert step_log_ratio(n) <= -1.0 / (2.0 * (n + 1))
    rng = np.random.default_rng(97)
    for n in range(2, 9):
        for _ in range(100):
            state = random_state(rng, n)
            new = state.cut(unit_direction(rng, n))
            measured = 0.5 * (
                np.linalg.slogdet(new.shape)[1] - np.linalg.slogdet(state.shape)[1]
            )
            assert measured == pytest.approx(step_log_ratio(n), abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(2, f"volume-ratio bound, {elapsed:.1f}s")


def test_criterion_3_half_ellipsoid_containment(containment_corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(62831)
    for state, a in containment_corpus:
        new = state.cut(a)
        pts = sample_in_ellipsoid(rng, state, 4000)
        kept = pts[(pts - state.center) @ a >= 0.0][:1000]
        assert len(kept) == 1000
        for x in kept:
            assert contains(new, x, slack=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(3, f"half-ellipsoid containment, {elapsed:.1f}s")


def test_criterion_4_oracle_agreement(infeasible_runs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    for i in range(200):
        n = 2 + i % 2
        m = 1 + i % 10
        sys_, _ = feasible_instance(rng, n, m, rho=0.05)
        eps = 0.5 * math.exp(log_unit_ball_volume(n)) * 0.05**n
        out = solve(sys_, SolverConfig(epsilon=eps))
        assert isinstance(out, Feasible)
        assert certify(out, sys_).passed
    for sys_, _, _, out in infeasible_runs["runs"]:
        assert not isinstance(out, Feasible)
        assert isinstance(out, VolumeExhausted)
        assert vertex_enumeration_check(sys_) == Infeasible()
    elapsed = time.perf_counter() - t0 + infeasible_runs["seconds"]
    assert elapsed < 60.0
    _pass(4, f"oracle agreement on 250 instances, {elapsed:.1f}s")


def test_criterion_5_iteration_bound(infeasible_runs):
    for sys_, eps, log_v0, out in infeasible_runs["runs"]:
        bound = math.ceil(2.0 * (sys_.dim + 1) * (log_v0 - math.log(eps)))
        assert isinstance(out, VolumeExhausted)
        assert out.iterations <= bound
        assert out.iterations <= iteration_cap(sys_.dim, log_v0, eps)
    _pass(5, "iteration bound on exhausted runs")


def test_criterion_6_cut_scale_invariance(containment_corpus):
    for state, a in containment_corpus:
        base = state.cut(a)
        for lam in (1e-6, 1e6):
            scaled = state.cut(lam * a)
            for ref, got in ((base.center, scaled.center), (base.shape, scaled.shape)):
                tol = 1e-12 * (1.0 + float(np.max(np.abs(ref))))
                assert float(np.max(np.abs(got - ref))) <= tol
    _pass(6, "cut-scale invariance")


def test_criterion_7_cli_contract(tmp_path):
    feasible = tmp_path / "feasible.json"
    feasible.write_text(
        json.dumps(
            {
                "dim": 2,
                "radius": 2.0,
                "constraints": [
                    {"a": [1.0, 0.0], "b": 0.5, "sense": ">="},
                    {"a": [0.0, 1.0], "b": 0.5, "sense": ">="},
                ],
            }
        )
    )
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(
        json.dumps(
            {
                "dim": 2,
                "radius": 2.0,
                "constraints": [
                    {"a": [1.0, 0.0], "b": 1.0, "sense": ">="},
                    {"a": [1.0, 0.0], "b": -1.0, "sense": "<="},
                ],
            }
        )
    )
    single_cut = tmp_path / "single_cut.json"
    single_cut.write_text(
        json.dumps(
            {
                "dim": 2,
                "radius": 1.0,
                "constraints": [{"a": [1.0, 0.0], "b": 0.3, "sense": ">="}],
            }
        )
    )

    # Invocation 1: feasible system, oracle cross-check, exit 0.
    proc = run_cli("--input", str(feasible), "--verify")
    assert proc.returncode == 0
    assert "oracle: agree" in proc.stdout

    # Invocation 2: disjoint system, exit 1 with volume below threshold,
    # and an arithmetic trace log-volume sequence.
    trace_path = tmp_path / "trace.ndjson"
    proc = run_cli(
        "--input", str(disjoint),
        "--epsilon", "1e-6",
        "--output", "json",
        "--trace", str(trace_path),
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["status"] == "volume_exhausted"
    assert report["final_log_volume"] < report["log_epsilon"]

    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert records
    expected = math.log(4.0 * math.pi)
    for rec in records:
        assert rec["violated_index"] is not None
        expected += step_log_ratio(2)
        assert rec["log_volume"] == pytest.approx(expected, abs=1e-9)

    # Invocation 3: unreadable input, exit 2.
    proc = run_cli("--input", str(tmp_path / "missing.json"))
    assert proc.returncode == 2

    # Single-cut SVG: initial disc plus one updated ellipse with semi-axes
    # 2/3 and 2/sqrt(3).
    svg_path = tmp_path / "plot.svg"
    proc = run_cli("--input", str(single_cut), "--svg", str(svg_path))
    assert proc.returncode == 0
    ellipses = ET.fromstring(svg_path.read_bytes()).findall(f".//{SVG_NS}ellipse")
    assert len(ellipses) == 2
    radii = sorted(float(ellipses[1].get(k)) for k in ("rx", "ry"))
    assert radii[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert radii[1] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    _pass(7, "command-line contract")
