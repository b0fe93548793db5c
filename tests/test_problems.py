"""Tests for problem-file parsing, validation, and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsoid.problems import (
    ProblemConstraint,
    ProblemFile,
    ProblemFormatError,
    parse_problem,
    serialize_problem,
    to_linear_system,
)
from ellipsoid.solver import Constraint, LinearSystem

seeds = st.integers(min_value=0, max_value=2**32 - 1)

BASIC = '{"dim": 2, "radius": 2.0, "constraints": [{"a": [1, 0], "b": 0.5, "sense": ">="}]}'


def test_parse_basic_document():
    problem = parse_problem(BASIC)
    assert problem.dim == 2
    assert problem.radius == 2.0
    assert problem.constraints == [ProblemConstraint([1.0, 0.0], 0.5, ">=")]
    sys = to_linear_system(problem)
    assert sys.dim == 2 and sys.radius == 2.0
    np.testing.assert_array_equal(sys.constraints[0].normal, [1.0, 0.0])
    assert sys.constraints[0].bound == 0.5


def test_parse_accepts_bytes():
    problem = parse_problem(BASIC.encode("utf-8"))
    assert problem.dim == 2


def test_le_rows_are_negated_in_the_linear_system():
    doc = BASIC.replace('">="', '"<="')
    sys = to_linear_system(parse_problem(doc))
    np.testing.assert_array_equal(sys.constraints[0].normal, [-1.0, 0.0])
    assert sys.constraints[0].bound == -0.5


def test_constraints_key_is_optional():
    problem = parse_problem('{"dim": 3, "radius": 1.5}')
    assert problem.constraints == []
    assert to_linear_system(problem).constraints == ()


def test_length_mismatch_names_the_constraint():
    doc = '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1], "b": 0, "sense": ">="}]}'
    with pytest.raises(ProblemFormatError, match="constraint 0"):
        parse_problem(doc)


def test_syntax_errors_carry_a_location():
    with pytest.raises(ProblemFormatError, match="line 1"):
        parse_problem('{"dim": 2,,}')
    with pytest.raises(ProblemFormatError, match="UTF-8"):
        parse_problem(b"\xff\xfe{}")


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2, 3]",
        '{"radius": 1.0}',
        '{"dim": 2}',
        '{"dim": 2, "radius": 1.0, "extra": 1}',
        '{"dim": 2.5, "radius": 1.0}',
        '{"dim": true, "radius": 1.0}',
        '{"dim": 0, "radius": 1.0}',
        '{"dim": 2, "radius": 0}',
        '{"dim": 2, "radius": -3}',
        '{"dim": 2, "radius": "two"}',
        '{"dim": 2, "radius": 1.0, "constraints": {}}',
        '{"dim": 2, "radius": 1.0, "constraints": [[1, 0]]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1, 0], "b": 0}]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1, 0], "b": 0, "sense": ">"}]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1, 0], "b": 0, "sense": ">=", "tag": 1}]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [0, 0], "b": 0, "sense": ">="}]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1, true], "b": 0, "sense": ">="}]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": 7, "b": 0, "sense": ">="}]}',
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1, 0], "b": null, "sense": ">="}]}',
    ],
)
def test_invalid_documents_are_rejected(doc):
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)


HUGE = "9" * 401  # a JSON integer that float() cannot convert


@pytest.mark.parametrize(
    "doc, where",
    [
        ('{"dim": 1, "radius": %s}' % HUGE, '"radius"'),
        ('{"dim": 1, "radius": 1.0, "constraints": [{"a": [1], "b": %s, "sense": ">="}]}'
         % HUGE, '"b"'),
        ('{"dim": 2, "radius": 1.0, "constraints": [{"a": [1, -%s], "b": 0, "sense": ">="}]}'
         % HUGE, '"a" entry 1'),
    ],
    ids=["radius", "b", "a"],
)
def test_integers_beyond_the_float_range_are_rejected(doc, where):
    with pytest.raises(ProblemFormatError, match=where) as info:
        parse_problem(doc)
    assert HUGE not in str(info.value)


def test_serialize_then_parse_is_identity():
    problem = ProblemFile(
        2,
        2.0,
        [
            ProblemConstraint([1.0, 0.0], 0.5, ">="),
            ProblemConstraint([0.25, -1.0], -0.125, "<="),
        ],
    )
    assert parse_problem(serialize_problem(problem)) == problem


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_round_trip_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    rows = []
    for _ in range(int(rng.integers(0, 8))):
        a = rng.normal(size=dim)
        while not np.any(a):  # a zero row would be rejected by the parser
            a = rng.normal(size=dim)
        sense = ">=" if rng.integers(2) == 0 else "<="
        rows.append(ProblemConstraint([float(v) for v in a], float(rng.normal()), sense))
    problem = ProblemFile(dim, float(rng.uniform(0.1, 10.0)), rows)
    assert parse_problem(serialize_problem(problem)) == problem


def test_row_key_errors_name_unknown_then_missing_keys():
    base = '{"dim": 1, "radius": 1.0, "constraints": [%s]}'
    with pytest.raises(ProblemFormatError, match=r"unknown keys: \['tag'\]"):
        parse_problem(base % '{"a": [1], "sense": ">=", "tag": 1}')
    with pytest.raises(ProblemFormatError, match=r"missing keys: \['b', 'sense'\]"):
        parse_problem(base % '{"a": [1]}')


def reference_system(problem: ProblemFile) -> LinearSystem:
    """One Constraint.from_row per row: the reference for to_linear_system."""
    # Its a.a > 0 test warns where a.a overflows; the one-array check does not.
    with np.errstate(over="ignore"):
        cons = tuple(Constraint.from_row(row.a, row.b, row.sense) for row in problem.constraints)
    return LinearSystem(problem.dim, cons, problem.radius)


# Entries that exercise the sign of zero, subnormals, and squares that
# underflow (1e-170, 1e-200) or overflow (1e200).
entries = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-170, -1e-200, 1e200, -1e308]),
)


@st.composite
def problem_files(draw):
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.builds(
        ProblemConstraint,
        st.lists(entries, min_size=dim, max_size=dim),
        entries,
        st.sampled_from([">=", "<="]),
    ), max_size=12))
    return ProblemFile(dim, 2.0, rows)


@given(problem_files())
@settings(max_examples=300, deadline=None)
def test_to_linear_system_matches_the_per_row_reference(problem):
    try:
        expected = reference_system(problem)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            to_linear_system(problem)
        assert str(info.value) == str(exc)
        return
    got = to_linear_system(problem)
    assert (got.dim, got.radius) == (expected.dim, expected.radius)
    assert len(got.constraints) == len(expected.constraints)
    for con, ref in zip(got.constraints, expected.constraints):
        assert con.normal.tobytes() == ref.normal.tobytes()
        assert con.normal.dtype == np.float64 and con.normal.shape == (problem.dim,)
        assert not con.normal.flags.writeable
        assert con.normal.flags.c_contiguous
        # repr tells -0.0 from 0.0.
        assert type(con.bound) is float and repr(con.bound) == repr(ref.bound)


def test_le_rows_negate_zero_entries_and_bounds_to_minus_zero():
    problem = ProblemFile(2, 1.0, [ProblemConstraint([1.0, 0.0], 0.0, "<=")])
    (con,) = to_linear_system(problem).constraints
    assert con.normal.tobytes() == np.array([-1.0, -0.0]).tobytes()
    assert repr(con.bound) == "-0.0"


def test_row_whose_square_underflows_is_rejected():
    problem = parse_problem(
        '{"dim": 2, "radius": 1.0, "constraints": [{"a": [1e-200, 0.0], "b": 0, "sense": ">="}]}'
    )
    with pytest.raises(ValueError, match="constraint normal must be nonzero"):
        reference_system(problem)
    with pytest.raises(ValueError, match="constraint normal must be nonzero"):
        to_linear_system(problem)
