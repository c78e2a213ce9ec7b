"""Independent reference solutions via Hamilton-flow characteristics.

The transport equations solved spectrally in ``evolve`` have exact
solutions along classical trajectories: the modulus is carried by the
flow, and in the projective formalism the phase accumulates the
classical action integral of the Lagrangian sum p^2/2m - V.  This module
integrates the flow with a classic fixed-step RK4 (kept deliberately
free of the spectral machinery so the two routes stay independent),
accumulates the action as an augmented state, and reconstructs reference
wavefunctions semi-Lagrangian style: trace every grid node backward,
evaluate the initial state there, multiply by exp(i S).  V is an exact
CPoly over the q names (None for free); nothing here imports ``evolve``.

The ``interp`` mode alone decides how the initial state is read at the
backward-flow points: "closed_form" (the default) evaluates the state's
closed form exactly (gaussian_init states carry one), and "cubic"
interpolates the samples with a periodic cubic B-spline, in numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exactpoly import CPoly
from .grid import Wavefunction, inner_product, phase_mask

_RK4_NODES = (0.0, 0.5, 0.5, 1.0)
_RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
# Seeds per block of the RK4 flow.  Each row of a block's packed state is
# a contiguous 64 KiB array, so the compiled potential's temporaries stay
# under glibc's default 128 KiB mmap threshold and are not mapped and
# zero-filled afresh at every stage.  A flow step is bound by its count
# of numpy calls: smaller blocks pay the fixed cost per call more often.
_FLOW_BLOCK = 8192


def integrate_flow(masses: Sequence[float], potential: CPoly | None,
                   qnames: Sequence[str], seeds: np.ndarray,
                   t_final: float, steps: int):
    """Fixed-step RK4 for dq = p/m, dp = -dV/dq, dS = sum p^2/2m - V.

    ``seeds`` has shape (n, 2*npairs): q columns then p columns, with one
    positive mass per q axis.  Returns the end state (q, p, S), shaped
    (n, npairs), (n, npairs) and (n,); the seeds are left unchanged.
    Negative t_final integrates backward (the action integral is then
    the backward accumulation; negate it for the forward action).  A
    block of seeds is one packed array of rows, q then p then S, so each
    RK4 combination is one numpy call: a one-pair harmonic step makes 47
    calls per block, 8 per stage for the derivative and 15 for the rest.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    npair = len(qnames)
    if not npair or seeds.shape[1] != 2 * npair:
        raise ValueError("seeds must have q columns then p columns")
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (npair,) or not np.all((masses > 0) & np.isfinite(masses)):
        raise ValueError(f"need one positive, finite mass per q axis {tuple(qnames)}, "
                         f"got {masses.tolist()}")
    twice_masses, mass_rows = 2 * masses, masses[:, None]
    h = t_final / steps
    if potential is None:
        V, forces = None, []
    else:
        V = potential.compile()
        grads = enumerate(-potential.partial(name) for name in qnames)
        forces = [(npair + d, g.compile()) for d, g in grads if not g.is_zero]
    bindings = {}

    n, rows = len(seeds), 2 * npair + 1
    # not one packed (rows, n) array: as the flow's largest allocation,
    # freeing it would lift glibc's dynamic mmap threshold and the RSS
    q_end, p_end, s_end = np.empty((npair, n)), np.empty((npair, n)), np.empty(n)
    # one block's packed state, derivative, weighted stage sum and next
    # stage argument (no S row: no stage reads S); the force-free p rows
    # of the derivative stay zero
    nb = max(1, min(_FLOW_BLOCK, n))
    work = np.zeros((4 * rows - 1, nb))

    for lo in range(0, n, nb):
        block = seeds[lo:lo + nb]
        y, k, acc, arg = (work[i:i + rows, :len(block)] for i in range(0, 4 * rows, rows))
        y[:-1], y[-1] = block.T, 0.0
        ks = k[-1]
        for _ in range(steps):
            yc = y
            for stage, w in enumerate(_RK4_WEIGHTS):
                pc = yc[npair:2 * npair]
                for name, q in zip(qnames, yc):
                    bindings[name] = q
                np.divide(np.square(pc[0], out=ks), twice_masses[0], out=ks)
                for d in range(1, npair):    # a q row of k is the scratch
                    ks += np.divide(np.square(pc[d], out=k[d]), twice_masses[d], out=k[d])
                if V is not None:
                    ks -= V(bindings)
                np.divide(pc, mass_rows, out=k[:npair])
                for row, force in forces:
                    k[row] = force(bindings)
                if stage < 3:
                    c = h * _RK4_NODES[stage + 1]
                    yc = np.add(y[:-1], np.multiply(k[:-1], c, out=arg), out=arg)
                if stage == 0:
                    np.multiply(k, w, out=acc)
                else:
                    acc += np.multiply(k, w, out=k)
            y += np.multiply(acc, h, out=acc)
        q_end[:, lo:lo + nb], p_end[:, lo:lo + nb] = y[:npair], y[npair:-1]
        s_end[lo:lo + nb] = y[-1]

    return q_end.T, p_end.T, s_end


# ---------------------------------------------------------------------------
# semi-Lagrangian reconstruction
# ---------------------------------------------------------------------------

# Points per block of the cubic interpolation: each tap's index, weight
# and value arrays are then 32 or 64 KiB, below glibc's default 128 KiB
# mmap threshold, so they are not mapped and zero-filled afresh per tap.
_INTERP_BLOCK = 4096


def _interpolate_samples(w0: Wavefunction, points: dict) -> np.ndarray:
    """Periodic cubic B-spline interpolation of the sampled amplitudes at
    arbitrary points, inside the box or not.

    The prefilter is exact: sampling a cubic B-spline at the nodes weighs
    them 1/6, 2/3, 1/6, whose periodic symbol (2 + cos w)/3 per axis is
    divided out in Fourier space.  Each point then sums the 4^d taps
    around it, the four per axis weighted by the cubic B-spline.
    """
    shape = w0.grid.shape
    # one buffer through both transforms: numpy's fftn allocates one
    # array per axis unless given ``out``
    coef = np.fft.fftn(w0.values, out=np.empty(shape, dtype=complex))
    for d, n in enumerate(shape):
        symbol = (2.0 + np.cos(2 * np.pi * np.fft.fftfreq(n))) / 3.0
        coef /= symbol.reshape((n,) + (1,) * (len(shape) - d - 1))
    flat = np.fft.ifftn(coef, out=coef).ravel()
    strides = [math.prod(shape[d + 1:]) for d in range(len(shape))]

    coords = [np.asarray(points[a.name], dtype=float).ravel() for a in w0.grid.axes]
    out = np.zeros(len(coords[0]), dtype=complex)
    for lo in range(0, len(out), _INTERP_BLOCK):
        offsets, weights = [], []
        for a, stride, z in zip(w0.grid.axes, strides, coords):
            u = (z[lo:lo + _INTERP_BLOCK] - a.min) / a.spacing
            start = np.floor(u)
            t = u - start
            s = 1.0 - t
            weights.append((s * s * s / 6, (3 * t - 6) * t * t / 6 + 2 / 3,
                            ((-3 * t + 3) * t + 3) * t / 6 + 1 / 6, t * t * t / 6))
            i0 = start.astype(np.intp) - 1
            offsets.append([(i0 + o) % a.points * stride for o in range(4)])
        acc = out[lo:lo + _INTERP_BLOCK]
        for taps in itertools.product(range(4), repeat=len(shape)):
            idx = sum(off[o] for off, o in zip(offsets, taps))
            wgt = math.prod(w[o] for w, o in zip(weights, taps))
            acc += wgt * flat.take(idx)
    return out


def reference_solution(w0: Wavefunction, masses: Sequence[float],
                       potential: CPoly | None, t: float, formalism: str,
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
