"""Seeded input generators for the benchmark workloads.

Every generator returns plain numpy data that depends only on the seed
argument. The worker turns that data into program inputs through the
package's public constructors (``Constraint``/``LinearSystem``, or a
problem file for the CLI), so input building is timed as set-up and the
program never sees the generator.

The constructions mirror ``tests/instances.py``: ``feasible_instance``
(rows ``a.x >= a.p - rho`` around a hidden point ``p``) and
``infeasible_instance`` (an empty slab ``u.x >= b``, ``u.x <= b - gap``,
padded with always-true rows). Properties that set a solve's cost (the
dimension, the row count, the hidden point's distance from the origin)
are stratified rather than drawn, so that two seeds give the same mix
and differ only in directions and offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RADIUS = 2.0
RHO = 0.05
# Right-hand side of an always-true row: a unit normal keeps a.x >= -(R+1)
# everywhere in the bounding ball and a little beyond it.
ALWAYS_TRUE_B = -(RADIUS + 1.0)

WIDE_DIM = 10
WIDE_ROWS = 1000
WIDE_BINDING = 20
# Every workload has at least 100 cases, so that a p90 over cases has at
# least 10 beyond it. wide_feasible has 200: its cut counts vary most from
# case to case, and 200 halves the seed-to-seed spread of their quartiles.
# The wide pool is WIDE_BLOCKS blocks of WIDE_STRATA cases; each block holds
# one hidden-point distance per stratum, so any run of whole blocks has the
# same mix of easy and hard cases.
WIDE_STRATA = 25
WIDE_BLOCKS = 8

TALL_DIMS = np.arange(20, 41)
TALL_BLOCKS = 5

CLI_ROWS = (6, 10, 14, 20)
CLI_FEASIBLE_DIMS = (2, 3, 4)
CLI_FEASIBLE_REPEATS = 6
# Empty slabs as (dim, rows, count). Planar ones run the oracle's full
# 401 x 401 grid scan (~17 ms at the seed). 4-D ones get a full vertex
# enumeration and an ``Inconclusive`` verdict; with 20 rows they are the
# costliest requests, and there are 16 so that the p90 falls among cases of
# one kind. A 3-D empty slab's grid scan costs ~7.4 s, a fifth of one run
# for one request, so its share is 0.
CLI_EMPTY = ((2, 6, 3), (2, 10, 3), (2, 14, 3), (2, 20, 3), (4, 20, 16))
PROBE_DIMS = (2, 3, 4)
PROBE_PER_DIM = 4

EXHAUST_FRACTION = 1e-3


@dataclass(frozen=True)
class Case:
    """One program input with its truth known by construction.

    The system's rows are the ``blocks`` concatenated in order. A block may
    be shared between cases, so that its constraint objects are built once.
    ``epsilon`` is None when the CLI's default threshold applies.
    """

    dim: int
    blocks: tuple
    epsilon: float | None
    feasible: bool
    svg: bool = False

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.concatenate([A for A, _ in self.blocks]),
                np.concatenate([b for _, b in self.blocks]))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, *workload.encode()])


def unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def log_ball_volume(n: int, radius: float) -> float:
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0) + n * math.log(radius)


def _binding_block(rng, n: int, m: int, distance: float):
    """Rows a.x >= a.p - rho around a hidden point p at the given distance."""
    p = unit_directions(rng, 1, n)[0] * distance
    A = unit_directions(rng, m, n)
    return A, A @ p - RHO


def _slab_block(rng, n: int, m: int):
    """An empty slab u.x >= b, -u.x >= -(b - gap), then m - 2 always-true rows."""
    u = unit_directions(rng, 1, n)[0]
    b = rng.uniform(-0.3 * RADIUS, 0.3 * RADIUS)
    gap = rng.uniform(0.1 * RADIUS, 0.3 * RADIUS)
    A = np.vstack([u, -u, unit_directions(rng, m - 2, n)])
    return A, np.concatenate([[b, gap - b], np.full(m - 2, ALWAYS_TRUE_B)])


def _exhaust_epsilon(n: int) -> float:
    return EXHAUST_FRACTION * math.exp(log_ball_volume(n, RADIUS))


def _distances(rng, count: int) -> np.ndarray:
    # One hidden-point distance per stratum of [0, R - rho - 0.1), shuffled.
    top = RADIUS - RHO - 0.1
    return rng.permutation((np.arange(count) + rng.uniform(size=count)) * top / count)


def wide_feasible(seed: int) -> list[Case]:
    # Why: each separation scans almost every row while the 10x10 update
    # stays cheap. This workload shows a change to `solver` separation, and a
    # change to `engine`/`linalg` should leave it flat.
    rng = _rng(seed, "wide_feasible")
    n = WIDE_DIM
    shared = (unit_directions(rng, WIDE_ROWS - WIDE_BINDING, n),
              np.full(WIDE_ROWS - WIDE_BINDING, ALWAYS_TRUE_B))
    # Half the volume of the ball B(p, rho) the region contains, so the
    # truth is Feasible.
    epsilon = 0.5 * math.exp(log_ball_volume(n, RHO))
    return [Case(n, (shared, _binding_block(rng, n, WIDE_BINDING, d)), epsilon, True)
            for _ in range(WIDE_BLOCKS) for d in _distances(rng, WIDE_STRATA)]


def tall_exhaust(seed: int) -> list[Case]:
    # Why: the same loop used the other way. Separation hits within the first
    # rows, and every solve runs hundreds of cuts to exhaustion. The update
    # and its PD check dominate, so `engine`/`linalg` changes and changes in
    # cut count show here, and separation changes should not.
    rng = _rng(seed, "tall_exhaust")
    # Blocks of one case per dimension, as in wide_feasible.
    dims = [int(n) for _ in range(TALL_BLOCKS) for n in rng.permutation(TALL_DIMS)]
    return [Case(n, (_slab_block(rng, n, n),), _exhaust_epsilon(n), False) for n in dims]


def cli_mixed(seed: int) -> list[Case]:
    # Why: the only workload that runs `problems`, `oracle`, `svgplot`,
    # `cli.replay_shapes` and trace writing. The oracle is used both ways:
    # an early witness on feasible inputs and a full scan on empty ones.
    rng = _rng(seed, "cli_mixed")
    cases = []
    for n in CLI_FEASIBLE_DIMS:
        for m in CLI_ROWS:
            for d in _distances(rng, CLI_FEASIBLE_REPEATS):
                cases.append(Case(n, (_binding_block(rng, n, m, d),), None, True, n == 2))
    for n, m, count in CLI_EMPTY:
        for _ in range(count):
            cases.append(Case(n, (_slab_block(rng, n, m),), _exhaust_epsilon(n), False, n == 2))
    return [cases[i] for i in rng.permutation(len(cases))]


def slab_probe(seed: int) -> list[Case]:
    """Tilted empty slabs at the CLI's default epsilon.

    At the seed every one of them stops with a numerical breakdown (exit 3),
    which contradicts the README's "Numerical notes". They are measured
    apart from the timed requests, as a per-layer share.
    """
    rng = _rng(seed, "slab_probe")
    return [Case(n, (_slab_block(rng, n, 2),), None, False)
            for n in PROBE_DIMS for _ in range(PROBE_PER_DIM)]


GENERATORS = {
    "wide_feasible": wide_feasible,
    "tall_exhaust": tall_exhaust,
    "cli_mixed": cli_mixed,
}
