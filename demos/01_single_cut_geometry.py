"""
Geometry of a single central cut
================================

Start from the unit disc, slice it through the center, and look at the
smallest ellipse that still covers the kept half.  Everything here has a
closed form in dimension 2, so the numbers can be checked by hand.
"""

import math

import numpy as np

from ellipsoid.engine import ball, step_log_ratio

# The unit disc: center at the origin, shape matrix I, log-volume ln(pi).
disc = ball(2, 1.0)
print("initial center:", disc.center)
print("initial shape:\n", disc.shape)
print(f"initial log-volume: {disc.log_volume:.6f} (ln pi = {math.log(math.pi):.6f})")

# Cut along the first coordinate axis.  The normal is a plain array, and
# ``disc.cut`` runs the solver's own update, engine.central_cut_update, on
# the disc's center and factor.  The kept half is x1 >= 0; the covering
# ellipse slides its center to (1/3, 0), shrinks to semi-axis 2/3 along the
# cut normal, and stretches to 2/sqrt(3) across it.
after = disc.cut(np.array([1.0, 0.0]))
print("\nafter one cut along e1")
print("center:", after.center, "(expected [1/3, 0])")
print("shape:\n", after.shape)
print("semi-axes:", np.sqrt(np.diag(after.shape)),
      f"(expected [{2 / 3:.6f}, {2 / math.sqrt(3):.6f}])")

# The volume drops by a fixed factor that depends only on the dimension.
drop = after.log_volume - disc.log_volume
print(f"\nlog-volume change: {drop:.6f}")
print(f"step_log_ratio(2): {step_log_ratio(2):.6f}")
print(f"area ratio: {math.exp(drop):.6f} (about 0.7698: each cut keeps ~77%)")

# Only the direction of the cut matters, not its length.
scaled = disc.cut(np.array([1e6, 0.0]))
print("\nsame cut scaled by 1e6, center:", scaled.center)
print("max center difference:", float(np.max(np.abs(scaled.center - after.center))))
