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

Initial states that carry their closed form (gaussian_init does) are
evaluated exactly at the backward-flow points; otherwise the sampled
state is interpolated (periodic cubic by default, or band-limited
4x upsampling followed by cubic for the "spectral" knob).
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


@dataclass
class TrajectoryBundle:
    """Start and end of the flow for a batch of seeds, with the action.

    positions/momenta have shape (2, nseeds, npairs), action (2, nseeds).
    """
    positions: np.ndarray
    momenta: np.ndarray
    action: np.ndarray
    masses: tuple
    potential: Potential
    qnames: tuple

    def energies(self) -> np.ndarray:
        kin = np.zeros(self.positions.shape[:2])
        for d, m in enumerate(self.masses):
            kin += self.momenta[:, :, d] ** 2 / (2 * m)
        if self.potential.cpoly is None:
            return kin
        bindings = dict(self.potential.constants)
        for d, name in enumerate(self.qnames):
            bindings[name] = self.positions[..., d]
        return kin + self.potential.cpoly.evaluate(bindings).real

    def energy_drift(self) -> float:
        e = self.energies()
        return float(np.max(np.abs(e - e[0])))


def integrate_flow(masses: Sequence[float], potential: Potential,
                   qnames: Sequence[str], seeds: np.ndarray,
                   t_final: float, steps: int) -> TrajectoryBundle:
    """Fixed-step RK4 for dq = p/m, dp = -dV/dq, dS = sum p^2/2m - V.

    ``seeds`` has shape (n, 2*npairs): q columns then p columns.
    Negative t_final integrates backward (the action integral is then
    the backward accumulation; negate it for the forward action).
    V and its gradient are compiled once.  Seeds are integrated in
    blocks, and every stage writes into arrays allocated before the
    first block.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    qnames = tuple(qnames)
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

    return TrajectoryBundle(
        positions=np.array([seeds[:, :npair], Q]), momenta=np.array([seeds[:, npair:], P]),
        action=np.array([np.zeros_like(S), S]),
        masses=tuple(masses), potential=potential, qnames=qnames)


# ---------------------------------------------------------------------------
# semi-Lagrangian reconstruction
# ---------------------------------------------------------------------------

def _interpolate_samples(w0: Wavefunction, points: dict, order_mode: str) -> np.ndarray:
    """Periodic interpolation of sampled amplitudes at arbitrary points."""
    grid = w0.grid
    values = w0.values
    if order_mode == "spectral":
        # band-limited 4x upsampling, then cubic on the refined grid
        factor = 4
        spec = np.fft.fftn(values)
        shape = values.shape
        big = np.zeros([n * factor for n in shape], dtype=complex)
        idx = np.ix_(*[np.fft.fftfreq(n, 1.0 / n).astype(int) for n in shape])
        big[idx] = spec
        values = np.fft.ifftn(big) * factor ** len(shape)
        scale = factor
    elif order_mode == "cubic":
        scale = 1
    else:
        raise ValueError(f"unknown interpolation mode {order_mode!r}")
    idx_coords = []
    for a in grid.axes:
        z = points[a.name]
        idx_coords.append((np.asarray(z) - a.min) / a.spacing * scale)
    idx_coords = np.array(idx_coords)
    re = map_coordinates(values.real, idx_coords, order=3, mode="grid-wrap")
    im = map_coordinates(values.imag, idx_coords, order=3, mode="grid-wrap")
    return re + 1j * im


def reference_solution(w0: Wavefunction, masses: Sequence[float],
                       potential: Potential, t: float, formalism: str,
                       interp: str = "cubic", flow_steps: int | None = None):
    """Exact-transport reference at time t on w0's grid.

    Returns (wavefunction, valid_mask); nodes whose backward trajectory
    leaves the sampled domain are flagged False and should be excluded
    from comparisons.  Uses w0.closed_form when available (exact
    evaluation), else periodic interpolation of the samples.
    """
    if formalism not in ("kvn", "kvh"):
        raise ValueError("reference solutions cover kvn and kvh only")
    grid = w0.grid
    qnames, pnames = grid.names("q"), grid.names("p")
    if grid.names("x"):
        raise ValueError("reference solutions cover classical grids only")
    if len(qnames) != len(pnames):
        raise ValueError("need paired q and p axes")
    if flow_steps is None:
        flow_steps = max(64, int(round(abs(t) / 0.002)))

    mesh = [grid.coordinate(n) for n in qnames] + [grid.coordinate(n) for n in pnames]
    mesh = [np.broadcast_to(m, grid.shape).ravel() for m in mesh]
    seeds = np.stack(mesh, axis=1)

    if t == 0:
        arrival_q = seeds[:, : len(qnames)]
        arrival_p = seeds[:, len(qnames):]
        s_fwd = np.zeros(len(seeds))
    else:
        bundle = integrate_flow(masses, potential, qnames, seeds, -t, flow_steps)
        arrival_q = bundle.positions[-1]
        arrival_p = bundle.momenta[-1]
        s_fwd = -bundle.action[-1]

    points = {}
    valid = np.ones(len(seeds), dtype=bool)
    for d, name in enumerate(qnames):
        a = grid.axis(name)
        z = arrival_q[:, d]
        valid &= (z >= a.min) & (z < a.min + a.extent)
        points[name] = z
    for d, name in enumerate(pnames):
        a = grid.axis(name)
        z = arrival_p[:, d]
        valid &= (z >= a.min) & (z < a.min + a.extent)
        points[name] = z

    if w0.closed_form is not None:
        amp = np.asarray(w0.closed_form(points), dtype=complex)
    else:
        amp = _interpolate_samples(w0, points, interp)
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

    def to_row(self) -> tuple:
        return (self.l2, self.masked_linf, self.modulus_l2,
                self.modulus_masked_linf, self.phase_masked_maxabs,
                self.global_phase, self.residual_after_global,
                self.excluded_fraction)

    columns = ("l2", "masked_linf", "modulus_l2", "modulus_masked_linf",
               "phase_masked_maxabs", "global_phase", "residual_after_global",
               "excluded_fraction")


def compare(a: Wavefunction, b: Wavefunction, mask_threshold: float = 1e-6,
            valid_mask: np.ndarray | None = None) -> CompareMetrics:
    """Difference metrics between two states on one grid.

    The phase comparison removes (and reports) the best-fit global phase
    and is restricted to the mask |b| > mask_threshold * max|b| (phase is
    meaningless in exponential tails), intersected with valid_mask.
    """
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    wgt = a.grid.cell_weight
    mask = phase_mask(b, mask_threshold)
    total = mask.size
    if valid_mask is not None:
        mask = mask & valid_mask
        excluded = 1.0 - float(np.sum(valid_mask)) / total
    else:
        excluded = 0.0
    diff = a.values - b.values
    if valid_mask is not None:
        diff = np.where(valid_mask, diff, 0.0)
    l2 = float(np.sqrt(np.sum(np.abs(diff) ** 2) * wgt))
    masked_linf = float(np.max(np.abs(diff)[mask])) if mask.any() else 0.0
    dmod = np.abs(a.values) - np.abs(b.values)
    if valid_mask is not None:
        dmod = np.where(valid_mask, dmod, 0.0)
    modulus_l2 = float(np.sqrt(np.sum(dmod ** 2) * wgt))
    modulus_masked_linf = float(np.max(np.abs(dmod)[mask])) if mask.any() else 0.0

    ov = inner_product(b, a)
    phi = float(np.angle(ov)) if ov != 0 else 0.0
    shifted = a.values - np.exp(1j * phi) * b.values
    if valid_mask is not None:
        shifted = np.where(valid_mask, shifted, 0.0)
    residual = float(np.sqrt(np.sum(np.abs(shifted) ** 2) * wgt))
    if mask.any():
        rel = a.values[mask] * np.conj(b.values[mask]) * np.exp(-1j * phi)
        phase_err = float(np.max(np.abs(np.angle(rel))))
    else:
        phase_err = 0.0
    return CompareMetrics(l2, masked_linf, modulus_l2, modulus_masked_linf,
                          phase_err, phi, residual, excluded)
