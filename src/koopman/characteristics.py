"""Independent reference solutions via Hamilton-flow characteristics.

The transport equations solved spectrally in ``evolve`` have exact
solutions along classical trajectories: the modulus is carried by the
flow, and in the projective formalism the phase accumulates the
classical action integral of the Lagrangian sum p^2/2m - V.  This module
integrates the flow with a classic fixed-step RK4 (kept deliberately
free of the spectral machinery so the two routes stay independent),
accumulates the action as an augmented state, and reconstructs reference
wavefunctions semi-Lagrangian style: trace every grid node backward,
evaluate the initial state there, multiply by exp(i S).

The ``interp`` mode alone decides how the initial state is read at the
backward-flow points: "closed_form" (the default) evaluates the state's
closed form exactly (gaussian_init states carry one), and "cubic"
interpolates the samples with periodic cubic splines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.ndimage import map_coordinates

from .evolve import Potential
from .grid import Wavefunction, inner_product, phase_mask

_RK4_NODES = (0.0, 0.5, 0.5, 1.0)
_RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
# Seeds per block of the RK4 flow.  The compiled potential's temporaries
# (64 KiB here) then stay under glibc's default 128 KiB mmap threshold,
# so they are not mapped and zero-filled afresh at every stage.
_FLOW_BLOCK = 8192


def integrate_flow(masses: Sequence[float], potential: Potential,
                   qnames: Sequence[str], seeds: np.ndarray,
                   t_final: float, steps: int):
    """Fixed-step RK4 for dq = p/m, dp = -dV/dq, dS = sum p^2/2m - V.

    ``seeds`` has shape (n, 2*npairs): q columns then p columns.  Returns
    the end state (q, p, S), shaped (n, npairs), (n, npairs) and (n,).
    Negative t_final integrates backward (the action integral is then
    the backward accumulation; negate it for the forward action).
    V and its gradient are compiled once.  Seeds are integrated in
    blocks, and every stage writes into arrays allocated before the
    first block.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    npair = len(qnames)
    if seeds.shape[1] != 2 * npair:
        raise ValueError("seeds must have q columns then p columns")
    masses = np.asarray(masses, dtype=float)
    twice_masses = 2 * masses
    h = t_final / steps
    if potential.cpoly is None:
        V, forces = None, []
    else:
        V = potential.cpoly.compile()
        grads = enumerate(potential.cpoly.partial(name) for name in qnames)
        forces = [(d, g.compile()) for d, g in grads if not g.is_zero]
    bindings = dict(potential.constants)

    Q = seeds[:, :npair].copy()
    P = seeds[:, npair:].copy()
    S = np.zeros(len(seeds))
    # work arrays for one block of seeds: a stage's derivatives, the
    # weighted stage sums, the next stage's arguments and scratch
    nb = max(1, min(_FLOW_BLOCK, len(seeds)))
    pair_work = np.zeros((8, nb, npair))
    action_work = np.zeros((3, nb))

    for lo in range(0, len(seeds), nb):
        Qb, Pb, Sb = Q[lo:lo + nb], P[lo:lo + nb], S[lo:lo + nb]
        kq, kp, aq, ap, Qs, Ps, tq, tp = pair_work[:, :len(Qb)]
        ks, as_, ts = action_work[:, :len(Qb)]
        for _ in range(steps):
            Qc, Pc = Qb, Pb
            for acc in (aq, ap, as_):
                acc.fill(0.0)
            for stage, w in enumerate(_RK4_WEIGHTS):
                np.divide(Pc, masses, out=kq)
                for d, name in enumerate(qnames):
                    bindings[name] = Qc[:, d]
                for d, force in forces:
                    np.negative(force(bindings), out=kp[:, d])
                np.divide(np.square(Pc, out=tp), twice_masses, out=tp)
                ks.fill(0.0)      # by columns: np.sum over a short last axis is slow
                for d in range(npair):
                    ks += tp[:, d]
                if V is not None:
                    ks -= V(bindings)
                aq += np.multiply(kq, w, out=tq)
                ap += np.multiply(kp, w, out=tp)
                as_ += np.multiply(ks, w, out=ts)
                if stage < 3:
                    c = h * _RK4_NODES[stage + 1]
                    Qc = np.add(Qb, np.multiply(kq, c, out=Qs), out=Qs)
                    Pc = np.add(Pb, np.multiply(kp, c, out=Ps), out=Ps)
            Qb += np.multiply(aq, h, out=aq)
            Pb += np.multiply(ap, h, out=ap)
            Sb += np.multiply(as_, h, out=as_)

    return Q, P, S


# ---------------------------------------------------------------------------
# semi-Lagrangian reconstruction
# ---------------------------------------------------------------------------

def _interpolate_samples(w0: Wavefunction, points: dict) -> np.ndarray:
    """Periodic cubic interpolation of the sampled amplitudes at
    arbitrary points."""
    idx_coords = np.array([(np.asarray(points[a.name]) - a.min) / a.spacing
                           for a in w0.grid.axes])
    re = map_coordinates(w0.values.real, idx_coords, order=3, mode="grid-wrap")
    im = map_coordinates(w0.values.imag, idx_coords, order=3, mode="grid-wrap")
    return re + 1j * im


def reference_solution(w0: Wavefunction, masses: Sequence[float],
                       potential: Potential, t: float, formalism: str,
                       interp: str = "closed_form", flow_steps: int | None = None):
    """Exact-transport reference at time t on w0's grid.

    Returns (wavefunction, valid_mask); nodes whose backward trajectory
    leaves the sampled domain are flagged False and should be excluded
    from comparisons.  ``interp`` is one of "closed_form" (exact
    evaluation of w0.closed_form; ValueError when w0 has none) or "cubic"
    (interpolation of the samples, closed form or not).
    """
    if formalism not in ("kvn", "kvh"):
        raise ValueError("reference solutions cover kvn and kvh only")
    if interp not in ("closed_form", "cubic"):
        raise ValueError(f"unknown interpolation mode {interp!r}")
    if interp == "closed_form" and w0.closed_form is None:
        raise ValueError("interp 'closed_form' needs a state with a closed form")
    grid = w0.grid
    qnames, pnames = grid.names("q"), grid.names("p")
    if grid.names("x"):
        raise ValueError("reference solutions cover classical grids only")
    if len(qnames) != len(pnames):
        raise ValueError("need paired q and p axes")
    if flow_steps is None:
        flow_steps = max(64, int(round(abs(t) / 0.002)))

    names = qnames + pnames
    seeds = np.stack([np.broadcast_to(grid.coordinate(n), grid.shape).ravel()
                      for n in names], axis=1)
    if t == 0:
        arrival, s_fwd = seeds.T, np.zeros(len(seeds))
    else:
        q, p, s_back = integrate_flow(masses, potential, qnames, seeds, -t, flow_steps)
        arrival, s_fwd = [*q.T, *p.T], -s_back

    points = {}
    valid = np.ones(len(seeds), dtype=bool)
    for name, z in zip(names, arrival):
        a = grid.axis(name)
        valid &= (z >= a.min) & (z < a.min + a.extent)
        points[name] = z

    if interp == "closed_form":
        amp = np.asarray(w0.closed_form(points), dtype=complex)
    else:
        amp = _interpolate_samples(w0, points)
    if formalism == "kvh":
        amp = amp * np.exp(1j * s_fwd)
    return (Wavefunction(grid, amp.reshape(grid.shape)),
            valid.reshape(grid.shape))


# ---------------------------------------------------------------------------
# comparison metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareMetrics:
    l2: float
    masked_linf: float
    modulus_l2: float
    modulus_masked_linf: float
    phase_masked_maxabs: float
    global_phase: float
    residual_after_global: float
    excluded_fraction: float


def compare(a: Wavefunction, b: Wavefunction, mask_threshold: float = 1e-6,
            valid_mask: np.ndarray | None = None) -> CompareMetrics:
    """Difference metrics between two states on one grid.

    L2 norms run over the valid nodes.  The L-infinity norms and the
    phase comparison are restricted to the mask |b| > mask_threshold *
    max|b| (phase is meaningless in exponential tails), intersected with
    valid_mask; the phase comparison removes (and reports) the best-fit
    global phase.
    """
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    wgt = a.grid.cell_weight
    mask = phase_mask(b, mask_threshold)
    if valid_mask is not None:
        mask = mask & valid_mask
        excluded = 1.0 - float(np.sum(valid_mask)) / mask.size
    else:
        excluded = 0.0
    masked = mask.any()

    def norms(diff):
        """(L2 over the valid nodes, L-infinity over the mask)."""
        if valid_mask is not None:
            diff = np.where(valid_mask, diff, 0.0)
        mag = np.abs(diff)
        return (float(np.sqrt(np.sum(mag ** 2) * wgt)),
                float(np.max(mag[mask])) if masked else 0.0)

    l2, masked_linf = norms(a.values - b.values)
    modulus_l2, modulus_masked_linf = norms(np.abs(a.values) - np.abs(b.values))
    ov = inner_product(b, a)
    phi = float(np.angle(ov)) if ov != 0 else 0.0
    residual, _ = norms(a.values - np.exp(1j * phi) * b.values)
    if masked:
        rel = a.values[mask] * np.conj(b.values[mask]) * np.exp(-1j * phi)
        phase_err = float(np.max(np.abs(np.angle(rel))))
    else:
        phase_err = 0.0
    return CompareMetrics(l2, masked_linf, modulus_l2, modulus_masked_linf,
                          phase_err, phi, residual, excluded)
