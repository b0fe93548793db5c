"""Ellipsoid-method feasibility solver for systems of linear inequalities.

Given constraints ``a_i^T x >= b_i`` and a radius R such that a feasible
point (if one exists) lies in the ball of radius R about the origin, the
solver either returns a feasible point or certifies that any feasible
region inside that ball has volume below a chosen threshold.  Each
iteration cuts the current ellipsoid through its center with a violated
row and replaces it by the smallest ellipsoid covering the feasible half,
shrinking the volume by a fixed dimension-dependent factor.

Layout (import from the submodules; the package root exports nothing else):

- :mod:`ellipsoid.engine`   the central-cut update on a center and a factor J,
  the ellipsoid state, the volume audit and the kernels (products, rank-one
  update)
- :mod:`ellipsoid.solver`   the system and its arrays, the cutting loop, outcomes,
  certification
- :mod:`ellipsoid.oracle`   exact ground truth for small instances
- :mod:`ellipsoid.problems` problem-file parsing / serialization
- :mod:`ellipsoid.svgplot`  2-D SVG rendering of the ellipse sequence
- :mod:`ellipsoid.cli`      the ``ellipsoid-solve`` command
"""

__version__ = "0.1.0"
