"""Boosts and translations: detecting a central charge with interference.

Finite boosts and translations commute as maps of phase space, so in the
non-projective representation applying them in either order gives the
same state.  In the projective representation the two orders differ by a
global phase exp(i m a v): the mass shows up as the central charge of
the symmetry algebra, exactly as in quantum mechanics.

The measured phase is compared against the prediction obtained by
exponentiating the symbolic commutator of the generators (for a central
commutator, e^A e^B = e^B e^A e^[A,B]).
"""

import numpy as np

from koopman.galilei import boost, predicted_weyl_phase, translation, weyl_phase
from koopman.grid import Axis, GridSpec, gaussian_init

grid = GridSpec((Axis("q", -8, 16, 128), Axis("p", -8, 16, 128)))
w = gaussian_init(grid, centers=(0.3, -0.4), widths=(1.0, 0.7))
mass = 1.0

print(__doc__)

g1 = boost(1.3, 0.0, "kvn", mass)
g2 = translation(0.7, "kvn", mass)
ph, res = weyl_phase(g1, g2, w)
print("non-projective boost(v=1.3) vs translation(a=0.7):")
print(f"  measured phase angle {np.angle(ph):+.2e} rad, residual {res:.2e}")
print("  -> the orderings agree exactly: vanishing central charge\n")

print("projective representation, sweep of (a, v):")
print("    a     v     measured      m*a*v      |angle error|   residual")
for a in (0.5, 0.7, 0.9):
    for v in (1.1, 1.3, 1.5):
        g1 = boost(v, 0.0, "kvh", mass)
        g2 = translation(a, "kvh", mass)
        ph, res = weyl_phase(g1, g2, w)
        pred = predicted_weyl_phase(g1, g2)
        err = abs(np.angle(ph * np.conj(pred)))
        print(f"  {a:4.2f}  {v:4.2f}  {np.angle(ph):+10.6f}  {mass*a*v:+10.6f}"
              f"   {err:10.2e}   {res:.2e}")
print("\nthe measured phases sit on the curve exp(i m a v): the mass is")
print("the central charge of the projective representation.")
