"""Problem-file parsing and serialization.

A problem is a UTF-8 JSON object with keys "dim" (integer), "radius"
(number) and "constraints" (array of {"a": [numbers], "b": number,
"sense": ">=" or "<="}).  Unknown keys are rejected.  Parsing keeps rows in
their written sense; conversion to a :class:`LinearSystem` negates "<="
rows into ">=" form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .solver import LinearSystem

_TOP_KEYS = {"dim", "radius", "constraints"}
_ROW_KEYS = {"a", "b", "sense"}
_SENSE_SIGN = {">=": 1.0, "<=": -1.0}


class ProblemFormatError(ValueError):
    """Malformed or invalid problem file."""


@dataclass(frozen=True)
class ProblemConstraint:
    a: list[float]
    b: float
    sense: str


@dataclass(frozen=True)
class ProblemFile:
    dim: int
    radius: float
    constraints: list[ProblemConstraint] = field(default_factory=list)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        # An integer too large for a float; its digits are not echoed.
        raise ProblemFormatError(
            f"{where} must be finite, got an integer beyond the float range"
        ) from None
    if not math.isfinite(out):
        raise ProblemFormatError(f"{where} must be finite, got {value!r}")
    return out


def parse_problem(text: str | bytes) -> ProblemFile:
    """Parse and validate a problem document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"problem file is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc

    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ProblemFormatError(f"unknown keys: {sorted(unknown)}")
    for key in ("dim", "radius"):
        if key not in doc:
            raise ProblemFormatError(f'missing required key "{key}"')

    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ProblemFormatError(f'"dim" must be an integer, got {dim!r}')
    if dim < 1:
        raise ProblemFormatError(f'"dim" must be >= 1, got {dim}')
    radius = _number(doc["radius"], '"radius"')
    if radius <= 0.0:
        raise ProblemFormatError(f'"radius" must be > 0, got {radius}')

    rows_doc = doc.get("constraints", [])
    if not isinstance(rows_doc, list):
        raise ProblemFormatError('"constraints" must be an array')
    rows = []
    for i, row in enumerate(rows_doc):
        where = f"constraint {i}"
        if not isinstance(row, dict):
            raise ProblemFormatError(f"{where} must be an object")
        if row.keys() != _ROW_KEYS:
            unknown = set(row) - _ROW_KEYS
            if unknown:
                raise ProblemFormatError(f"{where} has unknown keys: {sorted(unknown)}")
            raise ProblemFormatError(
                f"{where} is missing keys: {sorted(_ROW_KEYS - set(row))}"
            )
        if not isinstance(row["a"], list):
            raise ProblemFormatError(f'{where}: "a" must be an array')
        # A finite float is taken as it is; any other entry goes through
        # _number, and its location is formatted only then.
        a = [
            v if type(v) is float and math.isfinite(v)
            else _number(v, f'{where}: "a" entry {j}')
            for j, v in enumerate(row["a"])
        ]
        if len(a) != dim:
            raise ProblemFormatError(
                f'{where}: "a" has length {len(a)}, expected dim = {dim}'
            )
        if not any(a):
            raise ProblemFormatError(f"{where}: normal is all zeros")
        b = _number(row["b"], f'{where}: "b"')
        sense = row["sense"]
        if sense not in (">=", "<="):
            raise ProblemFormatError(f'{where}: "sense" must be ">=" or "<=", got {sense!r}')
        rows.append(ProblemConstraint(a, b, sense))
    return ProblemFile(dim, radius, rows)


def serialize_problem(problem: ProblemFile) -> str:
    doc = {
        "dim": problem.dim,
        "radius": problem.radius,
        "constraints": [
            {"a": row.a, "b": row.b, "sense": row.sense} for row in problem.constraints
        ],
    }
    return json.dumps(doc, indent=2)


def to_linear_system(problem: ProblemFile) -> LinearSystem:
    """Normalize rows to >= form and build the solver's system.

    The rows go into one m x n array, "<=" rows negated in bulk, which
    :meth:`LinearSystem.from_arrays` checks and turns into the system's
    rows.  Normals, bounds and error messages are those of
    :meth:`Constraint.from_row` on each row: multiplying by -1.0 negates
    exactly, 0.0 included.
    """
    rows = problem.constraints
    m, dim = len(rows), problem.dim
    try:
        sign = np.array([_SENSE_SIGN[row.sense] for row in rows])
    except KeyError as exc:
        raise ValueError(f'sense must be ">=" or "<=", got {exc.args[0]!r}') from None
    A = np.array([row.a for row in rows], dtype=float).reshape(m, dim) * sign[:, None]
    b = np.array([row.b for row in rows], dtype=float) * sign
    return LinearSystem.from_arrays(A, b, problem.radius)


__all__ = [
    "ProblemConstraint",
    "ProblemFile",
    "ProblemFormatError",
    "parse_problem",
    "serialize_problem",
    "to_linear_system",
]
