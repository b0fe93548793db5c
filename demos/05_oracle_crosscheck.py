"""
Cross-checking the solver against an exact oracle
=================================================

The ellipsoid solver is fast but subtle; the oracle is exact, and each of
its answers carries its own proof.  The region {A x >= b} meets the
bounding ball exactly when its least-norm point does.  The oracle finds
that point with one least-distance solve (a nonnegative least-squares
problem): either the point lies in the ball and is checked against every
row, or the solve's multipliers combine the rows into one inequality that
no point of the ball can satisfy, checked in exact arithmetic.  Run both
on random systems in dimensions 2 to 4 and compare verdicts.
"""

import math

import numpy as np

from ellipsoid.engine import ball
from ellipsoid.oracle import FeasibleWitness, vertex_enumeration_check
from ellipsoid.solver import Constraint, Feasible, LinearSystem, SolverConfig, solve

rng = np.random.default_rng(7)
RADIUS = 2.0


def random_direction(n):
    v = rng.normal(size=n)
    return v / float(np.linalg.norm(v))


def random_system(n, feasible):
    # Feasible: rows tangent to a small ball around a known point.
    # Infeasible: an empty slab plus rows that never bind.
    if feasible:
        p = random_direction(n) * rng.uniform(0.0, RADIUS - 0.2)
        rows = []
        for _ in range(rng.integers(2, 7)):
            a = random_direction(n)
            rows.append(Constraint(a, float(a @ p) - 0.1))
    else:
        u = random_direction(n)
        b = float(rng.uniform(-0.5, 0.5))
        rows = [Constraint(u, b), Constraint(-u, -(b - 0.3))]
        for _ in range(rng.integers(0, 5)):
            rows.append(Constraint(random_direction(n), -(RADIUS + 1.0)))
    return LinearSystem(n, tuple(rows), RADIUS)


agree = 0
cases = 0
print("case  dim  rows  solver      oracle      |witness|  verdicts")
for n in (2, 3, 4):
    # Volume threshold: a thousandth of the bounding ball.  Small enough to
    # separate the verdicts, large enough that an empty slab is closed out
    # in a few dozen cuts.
    epsilon = 1e-3 * math.exp(ball(n, RADIUS).log_volume)
    for i in range(6):
        system = random_system(n, feasible=i % 2 == 0)
        outcome = solve(system, SolverConfig(epsilon=epsilon))
        verdict = vertex_enumeration_check(system)

        solver_says = "feasible" if isinstance(outcome, Feasible) else "no point"
        if isinstance(verdict, FeasibleWitness):
            oracle_says = "feasible"
            norm = f"{float(np.linalg.norm(verdict.point)):.4f}"
        else:
            oracle_says = "infeasible"
            norm = "-"

        match = (solver_says == "feasible") == (oracle_says == "feasible")
        agree += match
        tag = "agree" if match else "DISAGREE"
        rows = len(system.constraints)
        print(f"{cases:>4}  {n:>3}  {rows:>4}  {solver_says:<10}  {oracle_says:<10}  "
              f"{norm:>9}  {tag}")
        cases += 1

print(f"\n{agree}/{cases} cases agree")
