"""Split-step spectral propagators for phase-space wavefunctions.

The generator splits as H = T + V; the projective rule f - p df/dp
makes each part one exact flow, a pointwise phase after one fftn:

  A (T part)  stream q by p tau/m, times exp(+i tau p^2/2m) in kvh and
              hybrid, times exp(-i tau k^2/2m) on x (q- and x-spectral)
  B (V part)  kick p by -dV/dq tau, times exp(-i tau V) in kvh and
              hybrid (p-spectral; a plain multiplication without a kick)

A plan is a flat list of flows (FFT axes and multiplier factors); a
step is the palindromic A(dt/2) B(dt) A(dt/2) (Strang, second order),
and plans without a V part are the single A(dt), exact for any dt.
Between samples ``run`` merges the trailing A(dt/2) of a step with the
leading one of the next into A(dt) ("first same as last"), so a step
costs two FFT pairs.  Every flow is unitary up to rounding, so norms
are preserved to ~1e-15 per step.  Forces are never finite-differenced:
the gradient of the polynomial potential is taken symbolically.

A note on hybrid total momentum: the commutator of p+k with the hybrid
generator equals i (d2V/dqdx) lam_p, so <p+k> is conserved (by the exact
flow) only on states with <lam_p> = 0 and <lam_q> = <p>; for harmonic
coupling the first moments close and the conservation is then exact.
B fixes lam_p and A fixes p, k and lam_q, so each flow keeps both
conditions and <p+k>: the drift sits at rounding (4e-14 over the 1000
steps of scenarios/hybrid_harmonic.cfg), while a multiplication-only or
force-only coupling drifts at O(1).  In the classical two-particle case
the kick shifts p1 + p2 by exactly zero pointwise, so the splitting adds
no error to total momentum; the 7e-8 drift criterion 9 measures on the
coarse 32^4 grid (leakage 1e-6) does not depend on the splitting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .exactpoly import CPoly
from .grid import (
    GridSpec,
    Wavefunction,
    _fft,
    _ifft,
    apply_lambda,
    inner_product,
    leakage,
    norm,
)

class NumericalAbort(RuntimeError):
    """Raised when non-finite amplitudes appear during a run."""

    def __init__(self, step: int):
        super().__init__(f"non-finite amplitudes detected at step {step}")
        self.step = step


@dataclass(frozen=True)
class Potential:
    """Polynomial potential over the grid's q (and x) coordinates."""
    cpoly: CPoly | None          # None for free
    constants: dict

    def bindings(self, grid: GridSpec) -> dict:
        out = dict(grid.coordinate_bindings())
        out.update(self.constants)
        return out

    def values(self, grid: GridSpec) -> np.ndarray | float:
        if self.cpoly is None:
            return 0.0
        return self.cpoly.evaluate(self.bindings(grid)).real

    def force_fields(self, grid: GridSpec) -> dict:
        """-dV/dq per q axis (the kick shifts p by force * dt)."""
        out = {}
        for qname in grid.names("q"):
            d = None if self.cpoly is None else self.cpoly.partial(qname)
            out[qname] = 0.0 if d is None or d.is_zero else -d.evaluate(self.bindings(grid)).real
        return out


def make_potential(kind: str, grid: GridSpec, constants: Mapping | None = None) -> Potential:
    """Named potential families over a grid's coordinates.

    harmonic:    kappa/2 sum q^2        (any number of q axes)
    quartic:     alpha/4 sum q^4
    pair:        kappa/2 (q1 - q2)^2    (exactly two q axes)
    hybrid_pair: kappa/2 (q - x)^2      (one q and one x axis)
    """
    constants = {k: float(v) for k, v in (constants or {}).items()}
    if kind == "free":
        return Potential(None, constants)

    qnames = grid.names("q")
    xnames = grid.names("x")
    default = {"quartic": "alpha"}.get(kind, "kappa")
    constants.setdefault(default, 1.0)
    symbols = tuple(constants) + qnames + xnames
    var = lambda n: CPoly.variable(symbols, n)

    if kind == "harmonic":
        V = CPoly.constant(symbols, 0)
        for qn in qnames:
            V = V + var("kappa") * var(qn) * var(qn) / 2
    elif kind == "quartic":
        V = CPoly.constant(symbols, 0)
        for qn in qnames:
            V = V + var("alpha") * var(qn) ** 4 / 4
    elif kind == "pair":
        if len(qnames) != 2:
            raise ValueError("pair coupling needs exactly two q axes")
        d = var(qnames[0]) - var(qnames[1])
        V = var("kappa") * d * d / 2
    elif kind == "hybrid_pair":
        if len(qnames) != 1 or len(xnames) != 1:
            raise ValueError("hybrid coupling needs one q and one x axis")
        d = var(qnames[0]) - var(xnames[0])
        V = var("kappa") * d * d / 2
    else:
        raise ValueError(f"unsupported potential kind {kind!r}")
    return Potential(V, constants)


@dataclass(frozen=True, eq=False)
class Flow:
    """One exact flow: fftn over ``axes``, multiply by each of ``factors``
    (kept in their broadcast shapes), ifftn back.  Without axes the
    factors multiply in physical space."""
    axes: tuple
    factors: tuple = field(repr=False)

    def apply(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The flow applied to ``values``, whose memory it may reuse when
        ``overwrite`` is set."""
        if self.axes:
            out = _fft(values, self.axes, overwrite)
        else:
            out = values if overwrite else values.copy()
        for f in self.factors:
            out *= f
        return _ifft(out, self.axes, True) if self.axes else out


def free_flow(grid: GridSpec, formalism: str, masses: Sequence[float],
              tau: float) -> Flow:
    """Flow A over time tau: stream each q by p tau/m, times
    exp(+i tau p^2/2m) in kvh and hybrid, times exp(-i tau k^2/2m) on
    each x axis; one factor per (q, p) pair and one per x axis."""
    qn, pn, xn = grid.names("q"), grid.names("p"), grid.names("x")
    factors = []
    for (qname, pname), m in zip(zip(qn, pn), masses):
        p = grid.coordinate(pname)
        expo = grid.wavenumber(qname) * p / m
        if formalism in ("kvh", "hybrid"):
            expo = expo - p ** 2 / (2 * m)
        factors.append(np.exp(-1j * tau * expo))
    for xname, m in zip(xn, masses[len(qn):]):
        factors.append(np.exp(-1j * tau * grid.wavenumber(xname) ** 2 / (2 * m)))
    return Flow(tuple(grid.index(n) for n in qn + xn), tuple(factors))


@dataclass
class PropagatorPlan:
    """A grid-bound, palindromic flat list of exact flows making one step:
    (A(dt/2), B(dt), A(dt/2)), or (A(dt),) when there is no V part."""
    grid: GridSpec
    formalism: str               # kvn | kvh | hybrid
    masses: tuple                # classical (per q axis) then quantum (per x axis)
    potential: Potential
    dt: float
    substeps: tuple = ()
    _a: dict = field(default_factory=dict, repr=False)   # weight -> A flow


def build_plan(grid: GridSpec, formalism: str, masses: Sequence[float],
               potential: Potential, dt: float,
               interaction: str = "full") -> PropagatorPlan:
    """``interaction = "potential_only"`` drops the kick from B, leaving
    the multiplication by exp(-i dt V): the negative control of the
    hybrid momentum exchange."""
    if formalism not in ("kvn", "kvh", "hybrid"):
        raise ValueError(f"unknown formalism {formalism!r}")
    if interaction not in ("full", "potential_only"):
        raise ValueError(f"unknown interaction mode {interaction!r}")
    qn, pn, xn = grid.names("q"), grid.names("p"), grid.names("x")
    if len(qn) != len(pn):
        raise ValueError("need matching q and p axes")
    if formalism in ("kvn", "kvh") and xn:
        raise ValueError(f"{formalism} grids cannot carry x axes")
    if formalism == "hybrid" and (not xn or not qn):
        raise ValueError("hybrid grids need both classical and quantum axes")
    masses = tuple(float(m) for m in masses)
    if len(masses) != len(qn) + len(xn):
        raise ValueError("need one mass per classical pair and per x axis")
    if not all(0 < m < np.inf for m in masses):
        raise ValueError("masses must be positive and finite")
    if dt <= 0:
        raise ValueError("dt must be positive")

    plan = PropagatorPlan(grid, formalism, masses, potential, float(dt))
    # B(dt) as one p-spectral factor exp(-i dt (sum k_p force + V)): the
    # kick shifts each p by force*dt, and kvh and hybrid add exp(-i dt V)
    terms, axes = [], ()
    if interaction != "potential_only":
        forces = potential.force_fields(grid)
        for qname, pname in zip(qn, pn):
            f = forces[qname]
            if not (np.ndim(f) or f):
                continue
            # a kick of more than half the p extent in one step aliases
            # through the periodic boundary
            fmax = float(np.max(np.abs(f)))
            if fmax * dt > grid.axis(pname).extent / 2:
                warnings.warn(
                    f"dt={dt} kicks {pname} by up to {fmax * dt:.3g}, more than "
                    f"half the axis extent; momentum will wrap within one step",
                    RuntimeWarning, stacklevel=2)
            terms.append(grid.wavenumber(pname) * f)
            axes += (grid.index(pname),)
    if formalism != "kvn" and potential.cpoly is not None:
        terms.append(potential.values(grid))
    if not terms:
        plan.substeps = (free_flow(grid, formalism, masses, dt),)
        return plan
    plan._a = {w: free_flow(grid, formalism, masses, w * dt) for w in (0.5, 1.0)}
    plan._a[0.0] = None
    kick = Flow(axes, (np.exp(-1j * dt * sum(terms)),))
    plan.substeps = (plan._a[0.5], kick, plan._a[0.5])
    return plan


def step(w: Wavefunction, plan: PropagatorPlan, lead: float = 0.5,
         trail: float = 0.5) -> Wavefunction:
    """A(lead dt) B(dt) A(trail dt); the defaults make one full Strang
    step, norm-preserving to rounding.  ``run`` passes lead = 1 to absorb
    the trailing half-flow a previous call left out with trail = 0.  A plan
    without a V part is the exact A(dt), whatever the weights."""
    if w.grid != plan.grid:
        raise ValueError("wavefunction grid does not match the plan")
    flows = plan.substeps
    if len(flows) == 3:
        if lead not in plan._a or trail not in plan._a:
            raise ValueError("lead and trail weights must be 0, 0.5 or 1")
        flows = (plan._a[lead], flows[1], plan._a[trail])
    v = w.values
    for flow in flows:
        if flow is not None:
            v = flow.apply(v, overwrite=v is not w.values)
    return Wavefunction(plan.grid, v)


@dataclass
class RunRecord:
    """Per-sample observable time series with a fixed CSV schema."""
    columns = ("t", "norm", "q_mean", "p_mean", "k_mean", "energy",
               "im_max", "leakage")
    rows: list = field(default_factory=list)

    def append(self, **kw):
        self.rows.append(tuple(kw.get(c) for c in self.columns))

    def series(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([np.nan if r[i] is None else r[i] for r in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            for r in self.rows:
                fh.write(",".join("" if v is None else f"{v:.17g}" for v in r) + "\n")


def _observables(w: Wavefunction, plan: PropagatorPlan) -> dict:
    nrm2 = inner_product(w, w).real
    qn, pn, xn = (plan.grid.names(r) for r in ("q", "p", "x"))
    dens = np.abs(w.values) ** 2 * plan.grid.cell_weight
    q_mean = sum(float(np.sum(dens * plan.grid.coordinate(n))) for n in qn) / nrm2
    p_mean = sum(float(np.sum(dens * plan.grid.coordinate(n))) for n in pn) / nrm2
    energy = 0.0
    for i, pname in enumerate(pn):
        energy += float(np.sum(dens * plan.grid.coordinate(pname) ** 2)) \
            / (2 * plan.masses[i]) / nrm2
    Vg = plan.potential.values(plan.grid)
    if np.ndim(Vg):
        energy += float(np.sum(dens * Vg)) / nrm2
    k_mean = None
    if xn:
        k_mean = 0.0
        for j, xname in enumerate(xn):
            kw = apply_lambda(w, xname)
            k_mean += inner_product(w, kw).real / nrm2
            energy += norm(kw) ** 2 / (2 * plan.masses[len(pn) + j]) / nrm2
    return {
        "norm": float(np.sqrt(nrm2)),
        "q_mean": q_mean,
        "p_mean": p_mean,
        "k_mean": k_mean,
        "energy": energy,
        "im_max": float(np.max(np.abs(w.values.imag))),
        "leakage": leakage(w),
    }


def step_count(t_final: float, dt: float) -> int:
    """The whole number of dt steps in t_final; ValueError otherwise."""
    nsteps = int(round(t_final / dt))
    if abs(nsteps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("t_final must be an integer multiple of dt")
    return nsteps


def run(w0: Wavefunction, plan: PropagatorPlan, t_final: float,
        sample_every: int = 1):
    """Propagate to t_final (an integer number of steps), sampling
    observables at t = 0, every ``sample_every`` steps and at t_final.
    Returns (record, final).

    Between samples the trailing A(dt/2) of each step merges into the
    next step's leading one; sampled and returned states are closed.
    Raises NumericalAbort (with the offending step index) if amplitudes
    stop being finite.
    """
    nsteps = step_count(t_final, plan.dt)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    record = RunRecord()
    w = w0
    record.append(t=0.0, **_observables(w, plan))
    lead = 0.5
    for n in range(1, nsteps + 1):
        sampled = n % sample_every == 0 or n == nsteps
        trail = 0.5 if sampled else 0.0
        w = step(w, plan, lead=lead, trail=trail)
        lead = 1.0 - trail
        if sampled:
            if not np.all(np.isfinite(w.values)):
                raise NumericalAbort(n)
            record.append(t=n * plan.dt, **_observables(w, plan))
    return record, w
