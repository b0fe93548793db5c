"""The benchmark's traced run wraps package functions at these module globals.

``bench/spans.py`` skips a global that no longer exists, and a global that
is kept but no longer called reads 0 calls, so a refactor of either kind
would silently empty its per-layer metrics. These tests only import the
list and wrap each name for the length of one test; they change nothing
under bench/.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from spans import WRAPPED, SpanRecorder  # noqa: E402

# No path the benchmark runs reaches the grid scan; it stays as an oracle
# reference for the tests.
NOT_ON_A_BENCH_PATH = {("ellipsoid.oracle", "grid_feasibility_scan")}


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in WRAPPED])
def test_wrapped_global_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def run_bench_inputs(tmp: Path) -> None:
    """One CLI request as ``cli_mixed`` sends it for a planar file, one
    untraced and one traced library solve."""
    from ellipsoid import cli, solver

    problem = tmp / "p.json"
    problem.write_text(json.dumps({"dim": 2, "radius": 2.0, "constraints": [
        {"a": [1.0, 0.0], "b": 0.5, "sense": ">="},
        {"a": [0.0, 1.0], "b": 0.5, "sense": ">="},
    ]}))
    argv = ["--input", str(problem), "--output", "json", "--verify",
            "--trace", str(tmp / "t.ndjson"), "--svg", str(tmp / "p.svg")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0

    rows = (solver.Constraint(np.array([1.0, 0.0, 0.0]), 0.5),
            solver.Constraint(np.array([0.0, 1.0, 1.0]), 0.5))
    system = solver.LinearSystem(3, rows, 2.0)
    solver.solve(system, solver.SolverConfig(epsilon=1e-6))
    solver.solve(system, solver.SolverConfig(epsilon=1e-6, trace=lambda rec: None))


@pytest.fixture(scope="module")
def bench_path_calls(tmp_path_factory):
    """Calls per wrapped global from :func:`run_bench_inputs`."""
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for module_name, attr, _, _ in WRAPPED:
            module = importlib.import_module(module_name)

            def counted(*args, _fn=getattr(module, attr), _key=(module_name, attr), **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            patch.setattr(module, attr, counted)
        run_bench_inputs(tmp_path_factory.mktemp("request"))
    return calls


@pytest.mark.parametrize("module, attr", [
    (m, a) for m, a, _, _ in WRAPPED if (m, a) not in NOT_ON_A_BENCH_PATH
])
def test_bench_paths_reach_wrapped_global(bench_path_calls, module, attr):
    assert bench_path_calls.get((module, attr), 0) > 0


def test_traced_bench_run_records_every_layer(tmp_path):
    # The traced run wraps these globals with the harness's own observers,
    # which read find_violated's first argument and result: a refactor that
    # breaks what they read fails every traced bench run.
    saved = [getattr(importlib.import_module(m), a) for m, a, _, _ in WRAPPED]
    recorder = SpanRecorder()
    with recorder.installed():
        run_bench_inputs(tmp_path)
    assert recorder.counters["solver.rows_scanned"] > 0
    recorded = {span[0] for span in recorder.spans}
    assert recorded == {name for m, a, name, _ in WRAPPED if (m, a) not in NOT_ON_A_BENCH_PATH}
    assert [getattr(importlib.import_module(m), a) for m, a, _, _ in WRAPPED] == saved
