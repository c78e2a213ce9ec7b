"""A classical particle and a quantum particle trading momentum.

The hybrid state psi(q, p, x) couples a classical sector (phase-space
coordinates q, p) to a quantum sector (position x) through a spring
V(q - x).  The coupling enters the generator twice: as a derivative
(force) term acting on the classical momentum and as a multiplication
term acting on the quantum phase.  With both pieces present, the two
sectors exchange momentum while <p> + <k> stays constant; keeping only
the multiplication piece remains translation invariant yet visibly
pumps total momentum.

Run time is under a minute on the full 64^3 grid.
"""

import numpy as np

from koopman.evolve import build_plan, make_potential, run
from koopman.grid import Axis, GridSpec, gaussian_init

grid = GridSpec((Axis("q", -8, 16, 64), Axis("p", -8, 16, 64),
                 Axis("x", -8, 16, 64)))
w0 = gaussian_init(grid, centers=(1.2, 0.0, -1.2), widths=(1.0, 1.0, 1.0))
pot = make_potential("hybrid_pair", grid, {"kappa": 1.0})

print(__doc__)

print("full coupling (force + multiplication), dt = 1e-3, t = 1:")
plan = build_plan(grid, "hybrid", [1.0, 1.0], pot, dt=1e-3)
record, _ = run(w0, plan, 1.0, sample_every=100)
print("    t     <p>        <k>        <p>+<k>")
for row in record.rows:
    t, _, _, p, k = row[:5]
    print(f"  {t:4.1f}  {p:+9.5f}  {k:+9.5f}  {p + k:+12.3e}")
total = record.series("p_mean") + record.series("k_mean")
print(f"  -> total drift {np.max(np.abs(total - total[0])):.2e}; the sectors "
      "exchanged momentum of order "
      f"{np.max(np.abs(record.series('p_mean') - record.series('p_mean')[0])):.2f}\n")

print("multiplication-only coupling (the force term removed), dt = 5e-3:")
plan_v = build_plan(grid, "hybrid", [1.0, 1.0], pot, dt=5e-3,
                    interaction="potential_only")
record_v, _ = run(w0, plan_v, 1.0, sample_every=40)
print("    t     <p>        <k>        <p>+<k>")
for row in record_v.rows:
    t, _, _, p, k = row[:5]
    print(f"  {t:4.1f}  {p:+9.5f}  {k:+9.5f}  {p + k:+12.3e}")
total_v = record_v.series("p_mean") + record_v.series("k_mean")
print(f"  -> total drift {np.max(np.abs(total_v - total_v[0])):.2e}: "
      "translation invariance alone does not conserve momentum.")
print("\nnote: the exact commutator of p + k with the hybrid generator is")
print("i (d2V/dqdx) lam_p, so strict conservation needs states whose phase")
print("gradient matches the momentum (<lam_p> = 0, <lam_q> = <p>).  The")
print("real packet at rest used here satisfies that, which is why the")
print("full-coupling run conserves the total to rounding (the force kick")
print("and the -V phase act in one exact flow) while the multiplication-only")
print("run loses it outright.")
