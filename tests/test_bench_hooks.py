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
from spans import WRAPPED  # noqa: E402

# No path the benchmark runs reaches the grid scan; it stays as an oracle
# reference for the tests.
NOT_ON_A_BENCH_PATH = {("ellipsoid.oracle", "grid_feasibility_scan")}


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in WRAPPED])
def test_wrapped_global_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.fixture(scope="module")
def bench_path_calls(tmp_path_factory):
    """Calls per wrapped global from one CLI request as ``cli_mixed`` sends
    it for a planar file, one untraced and one traced library solve."""
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for module_name, attr, _, _ in WRAPPED:
            module = importlib.import_module(module_name)

            def counted(*args, _fn=getattr(module, attr), _key=(module_name, attr), **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            patch.setattr(module, attr, counted)

        from ellipsoid.cli import main
        from ellipsoid.solver import Constraint, LinearSystem, SolverConfig, solve

        tmp = tmp_path_factory.mktemp("request")
        problem = tmp / "p.json"
        problem.write_text(json.dumps({"dim": 2, "radius": 2.0, "constraints": [
            {"a": [1.0, 0.0], "b": 0.5, "sense": ">="},
            {"a": [0.0, 1.0], "b": 0.5, "sense": ">="},
        ]}))
        argv = ["--input", str(problem), "--output", "json", "--verify",
                "--trace", str(tmp / "t.ndjson"), "--svg", str(tmp / "p.svg")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

        rows = (Constraint(np.array([1.0, 0.0, 0.0]), 0.5),
                Constraint(np.array([0.0, 1.0, 1.0]), 0.5))
        system = LinearSystem(3, rows, 2.0)
        solve(system, SolverConfig(epsilon=1e-6))
        solve(system, SolverConfig(epsilon=1e-6, trace=lambda rec: None))
    return calls


@pytest.mark.parametrize("module, attr", [
    (m, a) for m, a, _, _ in WRAPPED if (m, a) not in NOT_ON_A_BENCH_PATH
])
def test_bench_paths_reach_wrapped_global(bench_path_calls, module, attr):
    assert bench_path_calls.get((module, attr), 0) > 0
