"""Free packet on phase space: one transport law, two phase conventions.

A classical state here is a complex amplitude psi(q, p) on phase space.
Two Hermitian operator assignments generate valid dynamics for it:

* the plain (non-projective) rule transports |psi| along the classical
  flow and never creates a phase: a real initial state stays real;
* the projective rule performs the same transport but multiplies the
  amplitude by exp(i S), S being the classical action accumulated along
  the trajectory (p^2 t / 2m for free motion).

Both densities are identical; only the phase bookkeeping differs.
"""

import numpy as np

from koopman.evolve import build_plan, make_potential, run
from koopman.grid import Axis, GridSpec, gaussian_init

grid = GridSpec((Axis("q", "q", -8, 16, 256), Axis("p", "p", -8, 16, 256)))
packet = gaussian_init(grid, centers=(0.0, 2.0), widths=(1.0, 1.0))
free = make_potential("free", grid)
t_final = 0.5

print(__doc__)
print(f"packet launched at (q, p) = (0, 2), evolved to t = {t_final}\n")

states = {}
for formalism in ("kvn", "kvh"):
    plan = build_plan(grid, formalism, [1.0], free, dt=0.1)
    record, w = run(packet, plan, t_final, sample_every=1)
    states[formalism] = w
    rows = record.rows
    print(f"[{formalism}] center drift and reality diagnostic:")
    print("    t      <q>       <p>       max|Im psi|")
    for r in rows:
        print(f"  {r[0]:4.1f}  {r[2]:8.5f}  {r[3]:8.5f}  {r[6]:10.2e}")
    print()

q, p = grid.coordinate("q"), grid.coordinate("p")
shifted = packet.closed_form({"q": q - p * t_final, "p": p})
mask = np.abs(shifted) > 1e-6 * np.abs(shifted).max()

err_plain = np.max(np.abs(states["kvn"].values - shifted)[mask])
action_phase = np.exp(1j * p ** 2 * t_final / 2)
err_proj = np.max(np.abs(states["kvh"].values - shifted * action_phase)[mask])
dens_gap = np.max(np.abs(np.abs(states["kvn"].values) ** 2
                         - np.abs(states["kvh"].values) ** 2))

print("closed-form checks (masked sup norm):")
print(f"  plain  psi(t) vs psi0(q - p t, p)            : {err_plain:.2e}")
print(f"  proj.  psi(t) vs psi0(q - p t, p) e^(ip^2t/2) : {err_proj:.2e}")
print(f"  pointwise density difference between the two : {dens_gap:.2e}")
print("\nthe projective phase is observable interference data, not gauge:")
phase_at = [(1.0, 3.0), (0.5, -2.0)]
for qv, pv in phase_at:
    iq = int(round((qv - grid.axis("q").min) / grid.axis("q").spacing))
    ip = int(round((pv - grid.axis("p").min) / grid.axis("p").spacing))
    measured = np.angle(states["kvh"].values[iq, ip]
                        * np.conj(states["kvn"].values[iq, ip]))
    predicted = (pv ** 2 * t_final / 2) % (2 * np.pi)
    predicted = predicted if predicted <= np.pi else predicted - 2 * np.pi
    print(f"  at (q={qv}, p={pv}): arg ratio = {measured:+.6f},"
          f"  p^2 t/2 mod 2pi = {predicted:+.6f}")
