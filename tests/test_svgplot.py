"""Tests for the 2-D SVG emitter."""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsoid.cli import main, replay_shapes
from ellipsoid.engine import ball, log_unit_ball_volume
from ellipsoid.solver import Constraint, LinearSystem, SolverConfig, solve
from ellipsoid.svgplot import ellipse_axes, emit_svg_trace
from instances import (
    awkward_floats,
    feasible_instance,
    infeasible_instance,
    random_pd,
    unit_direction,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(sys: LinearSystem, records, shapes) -> bytes:
    buf = io.BytesIO()
    emit_svg_trace(sys, records, shapes, buf)
    return buf.getvalue()


def ellipses_of(doc: bytes):
    root = ET.fromstring(doc)
    return root.findall(f".//{SVG_NS}ellipse")


def test_ellipse_axes_diagonal_and_rotated():
    major, minor, angle = ellipse_axes(np.diag([4.0, 1.0]))
    assert (major, minor, angle) == (2.0, 1.0, 0.0)

    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    K = rot @ np.diag([9.0, 4.0]) @ rot.T
    major, minor, angle = ellipse_axes(K)
    assert major == pytest.approx(3.0, abs=1e-12)
    assert minor == pytest.approx(2.0, abs=1e-12)
    assert math.sin(angle - theta) == pytest.approx(0.0, abs=1e-12)


def test_ellipse_axes_clamps_degenerate_minor():
    major, minor, _ = ellipse_axes(np.diag([1.0, 0.0]))
    assert (major, minor) == (1.0, 0.0)
    with pytest.raises(ValueError):
        ellipse_axes(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ellipse_axes(np.eye(3))


def reference_ellipse_axes(K: np.ndarray) -> tuple[float, float, float]:
    """ellipse_axes on numpy float64 scalars read by indexing."""
    half_diff = 0.5 * (K[0, 0] - K[1, 1])
    mean = 0.5 * (K[0, 0] + K[1, 1])
    root = math.hypot(half_diff, K[0, 1])
    lam_max, lam_min = mean + root, max(mean - root, 0.0)
    if not lam_max > 0.0:
        raise ValueError("shape matrix has no positive direction")
    angle = 0.5 * math.atan2(2.0 * K[0, 1], K[0, 0] - K[1, 1])
    return math.sqrt(lam_max), math.sqrt(lam_min), angle


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["pd", "awkward"]))
@settings(max_examples=300, deadline=None)
def test_ellipse_axes_matches_the_numpy_scalar_reference(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "pd":
        K = random_pd(rng, 2) * 10.0 ** rng.uniform(-30.0, 30.0)
    else:
        K = awkward_floats(rng, (2, 2))
        K[1, 0] = K[0, 1]
    with np.errstate(all="ignore"):
        try:
            expected = reference_ellipse_axes(K)
        except ValueError:
            expected = None
    if expected is None:
        with pytest.raises(ValueError):
            ellipse_axes(K)
    else:
        got = ellipse_axes(K)
        assert all(type(v) is float for v in got)
        assert struct.pack("<3d", *got) == struct.pack("<3d", *expected)


def test_emitter_rejects_other_dimensions():
    sys3 = LinearSystem(3, (), 1.0)
    with pytest.raises(ValueError, match="2-D"):
        render(sys3, [], [])


def solved_with_trace(sys: LinearSystem):
    records = []
    solve(sys, SolverConfig(epsilon=1e-6, trace=records.append))
    return records


def reference_replay_shapes(sys: LinearSystem, records):
    """The ellipsoid sequence rebuilt by re-applying every recorded cut to
    the bounding ball; [] when no cut was made."""
    cut_records = [r for r in records if r.violated_index is not None]
    if not cut_records:
        return []
    state = ball(sys.dim, sys.radius)
    shapes = [(state.center, state.shape)]
    for rec in cut_records:
        con = sys.constraints[rec.violated_index]
        state = state.cut(con.normal)
        shapes.append((state.center, state.shape))
    return shapes


def test_no_cuts_draws_only_circle_and_lines():
    sys = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), -5.0),), 2.0)
    doc = render(sys, solved_with_trace(sys), [])
    root = ET.fromstring(doc)
    assert len(root.findall(f".//{SVG_NS}circle")) == 1
    assert len(root.findall(f".//{SVG_NS}line")) == 1
    assert ellipses_of(doc) == []


def test_one_ellipse_element_per_shape():
    sys = LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), 0.5),
            Constraint(np.array([0.0, 1.0]), 0.5),
        ),
        2.0,
    )
    records = solved_with_trace(sys)
    cuts = sum(1 for r in records if r.violated_index is not None)
    shapes = reference_replay_shapes(sys, records)
    assert len(shapes) == cuts + 1
    doc = render(sys, records, shapes)
    assert len(ellipses_of(doc)) == cuts + 1
    assert len(ET.fromstring(doc).findall(f".//{SVG_NS}line")) == 2


def test_single_cut_radii_from_unit_ball():
    state = ball(2, 1.0)
    new = state.cut(np.array([1.0, 0.0]))
    sys = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 0.3),), 1.0)
    doc = render(sys, [], [(state.center, state.shape), (new.center, new.shape)])
    second = ellipses_of(doc)[1]
    radii = sorted([float(second.get("rx")), float(second.get("ry"))])
    assert radii[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert radii[1] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    assert "translate(0.333333333333 0)" in second.get("transform")


def test_labels_name_the_cut_rows():
    sys = LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), 0.5),
            Constraint(np.array([0.0, 1.0]), 0.5),
        ),
        2.0,
    )
    records = solved_with_trace(sys)
    doc = render(sys, records, reference_replay_shapes(sys, records))
    titles = [t.text for t in ET.fromstring(doc).findall(f".//{SVG_NS}title")]
    assert titles[0] == "ellipsoid 0"
    assert titles[1] == f"ellipsoid 1 (cut on row {records[0].violated_index})"


def test_output_is_deterministic():
    sys = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 0.5),), 2.0)
    records = solved_with_trace(sys)
    shapes = reference_replay_shapes(sys, records)
    assert render(sys, records, shapes) == render(sys, records, shapes)


def planar_system(rng, kind: str, m: int) -> tuple[LinearSystem, float]:
    """A 2-D system of the given kind and the epsilon to solve it at."""
    if kind == "feasible":
        sys, _ = feasible_instance(rng, 2, m)
        return sys, 0.5 * math.exp(log_unit_ball_volume(2)) * 0.05**2
    if kind == "empty":
        sys = infeasible_instance(rng, 2, m + 1)
        return sys, 1e-3 * math.exp(ball(2, sys.radius).log_volume)
    # Every row holds on the whole bounding ball, so no cut is made.
    rows = tuple(Constraint(unit_direction(rng, 2), -3.0) for _ in range(m - 1))
    return LinearSystem(2, rows, 2.0), 1e-6


def trace_line(rec) -> str:
    return json.dumps({
        "iter": rec.iter,
        "violated_index": rec.violated_index,
        "center": rec.center,
        "log_volume": rec.log_volume,
        "cut_quadratic_form": rec.cut_quadratic_form,
    }) + "\n"


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["feasible", "empty", "no_cuts"]),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_recorded_shapes_match_replayed_cuts(seed, kind, m):
    sys, eps = planar_system(np.random.default_rng(seed), kind, m)
    records = []
    solve(sys, SolverConfig(epsilon=eps, trace=records.append))
    expected = reference_replay_shapes(sys, records)
    shapes = replay_shapes(sys, records)
    if kind == "no_cuts":
        assert shapes == []
    assert len(shapes) == len(expected)
    for (center, shape), (ref_center, ref_shape) in zip(shapes, expected):
        assert center.tobytes() == ref_center.tobytes()
        assert shape.tobytes() == ref_shape.tobytes()
        assert not shape.flags.writeable
    if records[-1].violated_index is None:
        # The terminal record holds the final ellipsoid.
        final = expected[-1][1] if expected else ball(2, sys.radius).shape
        assert records[-1].shape.tobytes() == final.tobytes()
    svg = render(sys, records, expected)
    assert render(sys, records, shapes) == svg

    # The CLI writes the same drawing, and its ndjson trace has the five
    # record fields and nothing else.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "p.json").write_text(json.dumps({
            "dim": 2,
            "radius": sys.radius,
            "constraints": [{"a": c.normal.tolist(), "b": c.bound, "sense": ">="}
                            for c in sys.constraints],
        }))
        argv = ["--input", str(out / "p.json"), "--epsilon", repr(eps),
                "--trace", str(out / "t.ndjson"), "--svg", str(out / "p.svg")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == (1 if kind == "empty" else 0)
        assert (out / "p.svg").read_bytes() == svg
        assert (out / "t.ndjson").read_text() == "".join(map(trace_line, records))
