"""Split-step spectral propagators for phase-space wavefunctions.

The generator splits as H = T + V, and each part is one exact flow: the
formalism's assignment rule applied to it on ``layout(grid, masses,
formalism)`` (T is ``ccr.time_translation`` there, V the exact
polynomial of ``make_potential``), with the masses and dt folded in as
exact fractions, and turned into FFT axes and pointwise factors by
``flow_of``:

  A(tau) = exp(-i tau rule(sum p^2/2m + sum k^2/2m))   (q- and x-spectral)
  B(dt)  = exp(-i dt rule(V))                          (p-spectral)

A streams q by p tau/m and B kicks p by -dV/dq dt; in kvh and hybrid
the rule's scalar f - p df/dp adds exp(+i tau p^2/2m) and exp(-i dt V),
and on x it is the multiplication by exp(-i tau k^2/2m).

A plan holds each flow (FFT axes and multiplier factors) once, and
``apply`` runs them, for steps and ``galilei.act`` alike; a step is the
palindromic A(dt/2) B(dt) A(dt/2) (Strang, second order), and plans
without a V part are the single A(dt), exact for any dt.
Between samples ``run`` merges the trailing A(dt/2) of a step with the
leading one of the next into A(dt) ("first same as last"), so a step
costs two FFT pairs.  Every flow is unitary up to rounding, so norms
are preserved to ~1e-15 per step.  Forces are never finite-differenced:
the gradient of the polynomial potential is taken symbolically.

Buffers: ``run`` never mutates its initial state.  Its first step copies
out of it, and every later FFT and multiply works in place on one buffer
the run owns; the state ``run`` returns is that buffer.  ``step`` leaves
its input alone unless called with ``overwrite``.  That buffer and the
flow factors are in grid's padded layout (every axis but the first one
element longer), so no strided FFT axis has a power-of-two stride, which
would crowd each line into a few cache sets: on 64^3 an axis-0 FFT took
twice as long as one along the contiguous axis.

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

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import ccr
from .exactpoly import CPoly, I, pair_potential
from .grid import (
    GridSpec,
    Wavefunction,
    _copy,
    _exp,
    _fft,
    _ifft,
    _multiply,
    leakage,
)

class NumericalAbort(RuntimeError):
    """Non-finite amplitudes found by the check at ``step``; ``since`` is
    the last step checked finite before it (None if none was)."""

    def __init__(self, step: int, since: int | None):
        window = ("no earlier step was checked" if since is None
                  else f"they appeared after step {since}")
        super().__init__(f"non-finite amplitudes detected at step {step} ({window})")
        self.step = step
        self.since = since


# the one constant each potential family reads, 1 unless given
_CONSTANT = {"harmonic": "kappa", "quartic": "alpha", "pair": "kappa", "hybrid_pair": "kappa"}


def make_potential(kind: str, grid: GridSpec, constants: Mapping | None = None) -> CPoly | None:
    """A named potential family as one exact polynomial over the grid's q
    and x coordinates, its constant folded in as a fraction; None for free.
    A constant the family does not read is an error.

    harmonic:    kappa/2 sum q^2        (any number of q axes)
    quartic:     alpha/4 sum q^4
    pair:        kappa/2 (q1 - q2)^2    (exactly two q axes)
    hybrid_pair: kappa/2 (q - x)^2      (one q and one x axis), both from
                 exactpoly.pair_potential, as the exact suites build them
    """
    if kind != "free" and kind not in _CONSTANT:
        raise ValueError(f"unsupported potential kind {kind!r}")
    constants, name = constants or {}, _CONSTANT.get(kind)
    unread = [k for k in constants if k != name]
    if unread:
        raise ValueError(f"potential {kind!r} reads no {unread[0]!r}")
    if name is None:
        return None
    c = Fraction(constants.get(name, 1))

    qnames = grid.names("q")
    xnames = grid.names("x")
    symbols = qnames + xnames
    total = lambda powers: sum(powers, CPoly.constant(symbols, 0))
    if kind == "harmonic":
        return total(CPoly.variable(symbols, n) ** 2 for n in qnames) * c / 2
    if kind == "quartic":
        return total(CPoly.variable(symbols, n) ** 4 for n in qnames) * c / 4
    if kind == "pair":
        if len(qnames) != 2:
            raise ValueError("pair coupling needs exactly two q axes")
        return pair_potential(symbols, [qnames], c)
    if len(qnames) != 1 or len(xnames) != 1:
        raise ValueError("hybrid coupling needs one q and one x axis")
    return pair_potential(symbols, [qnames + xnames], c)


@dataclass(frozen=True, eq=False)
class Flow:
    """One exact flow: fftn over ``axes``, multiply by each of ``factors``
    (kept in their broadcast shapes), ifftn back.  Without axes the
    factors multiply in physical space.  Factors that ``flow_of`` makes
    are in grid's padded layout, so each multiply of a padded state is
    one contiguous pass (``grid._multiply``)."""
    axes: tuple
    factors: tuple = field(repr=False)

    def apply(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The flow applied to ``values``, whose memory it may reuse when
        ``overwrite`` is set."""
        if self.axes:
            out = _fft(values, self.axes, overwrite)
        else:
            out = values if overwrite else _copy(values)
        for f in self.factors:
            _multiply(out, f)
        return _ifft(out, self.axes, True) if self.axes else out


def _letters(alg: ccr.Algebra, grid: GridSpec) -> dict:
    """Each generator of ``alg`` as (grid axis index, values on the grid):
    the multiplication letters, q then p then x in normal order, take the
    grid's axes of their role in order, and each derivative letter the
    axis of its conjugate, with its wavenumbers."""
    mult = alg.generators[:len(alg.generators) // 2]
    names = grid.names("q") + grid.names("p") + grid.names("x")
    if [alg.name(g)[0] for g in mult] != [n[0] for n in names]:
        raise ValueError("the grid's axes do not match the exponent's particle layout")
    out = {}
    for g, n in zip(mult, names):
        out[g] = grid.index(n), grid.coordinate(n)
        out[alg.conjugate[g]] = grid.index(n), grid.wavenumber(n)
    return out


def _value(word, c, letters):
    """c times the word on the grid."""
    return math.prod((letters[g][1] for g in word), start=complex(c.constant_value()))


def _factors(terms: dict, letters: dict, shape: tuple) -> tuple:
    """exp of the sum of ``terms``: one factor per group of terms joined
    through shared axes, in the group's broadcast shape, with each term
    summed in place; a constant joins the group that appears first."""
    axes_of = [(frozenset(letters[g][0] for g in w), w, c) for w, c in terms.items()]
    groups = []
    for axes, _, _ in axes_of:
        if axes:
            groups = [a for a in groups if not a & axes] + [
                axes.union(*(a for a in groups if a & axes))]
    first = lambda group: min(i for i, (axes, _, _) in enumerate(axes_of) if axes & group)
    factors = []
    for n, group in enumerate(sorted(groups, key=first) or [frozenset()]):
        acc = np.zeros([k if i in group else 1 for i, k in enumerate(shape)], np.complex128)
        for axes, w, c in axes_of:
            if axes <= group and (axes or n == 0):
                acc += _value(w, c, letters)
        factors.append(_exp(acc))
    return tuple(factors)


def flow_of(x: ccr.NCPoly, grid: GridSpec) -> tuple:
    """The flows whose product is e^X on the grid, for an exact operator X
    with its parameters folded in.  The axes of X's derivative letters
    move; the terms D with no multiplication letter on a moved axis are
    diagonal once those axes are transformed, and the rest, M, must be
    multiplications with a central [D, M]: e^X = e^(M + [D, M]/2) e^D,
    one flow over the moved axes and, unless M = 0, a multiplication."""
    alg = x.algebra
    letters = _letters(alg, grid)
    derivative = set(alg.generators[len(alg.generators) // 2:])
    moved = sorted({letters[g][0] for w in x.terms for g in w if g in derivative})
    in_m = lambda w: any(letters[g][0] in moved and g not in derivative for g in w)
    d = {w: c for w, c in x.terms.items() if not in_m(w)}
    m = ccr.NCPoly(alg, {w: c for w, c in x.terms.items() if in_m(w)})
    if any(not derivative.isdisjoint(w) for w in m.terms):
        raise ValueError("exponent has no exact grid flow: a term multiplies "
                         "and differentiates along its moved axes")
    bracket = ccr.NCPoly(alg, d).commutator(m)
    if not bracket.is_central():
        raise ValueError("exponent has no exact grid flow: its diagonal and "
                         "multiplication parts do not have a central commutator")
    flows = (Flow(tuple(moved), _factors(d, letters, grid.shape)),)
    if m.is_zero:
        return flows
    return flows + (Flow((), _factors((m + bracket * Fraction(1, 2)).terms, letters,
                                      grid.shape)),)


@dataclass
class PropagatorPlan:
    """A grid-bound step's exact flows, each held once: ``a`` maps a weight
    w to A(w dt), for w = 0.5 and 1, or 1 alone when there is no V part,
    and ``b`` is B(dt), or None without a V part."""
    grid: GridSpec
    formalism: str               # kvn | kvh | hybrid
    masses: tuple                # classical (per q axis) then quantum (per x axis)
    potential: CPoly | None
    dt: float
    a: dict = field(repr=False)
    b: Flow | None = field(repr=False)


def layout(grid: GridSpec, masses: Sequence[float], formalism: str) -> ccr.Algebra:
    """The algebra of the grid's layout, one 1-D classical particle per
    (q, p) pair then one quantum particle per x axis, masses folded in as
    exact fractions; the one check of a run's formalism (kvn, kvh or
    hybrid) against it.  Every formalism that fits gets the same algebra."""
    if formalism not in ("kvn", "kvh", "hybrid"):
        raise ValueError(f"unknown formalism {formalism!r}")
    if len(grid.names("q")) != len(grid.names("p")):
        raise ValueError("need matching q and p axes")
    sectors = ["classical"] * len(grid.names("q")) + ["quantum"] * len(grid.names("x"))
    if len(masses) != len(sectors):
        raise ValueError("need one mass per classical pair and per x axis")
    if not all(0 < m < np.inf for m in masses):
        raise ValueError("masses must be positive and finite")
    alg = ccr.Algebra([ccr.ParticleSpec(s, 1, Fraction(m)) for s, m in zip(sectors, masses)])
    alg.require_layout(formalism)
    return alg


def build_plan(grid: GridSpec, formalism: str, masses: Sequence[float],
               potential: CPoly | None, dt: float,
               interaction: str = "full") -> PropagatorPlan:
    """The flows A and B of the module docstring, on ``layout(grid,
    masses, formalism)``.  ``interaction = "potential_only"`` keeps only
    B's terms without a derivative letter, the multiplication by
    exp(-i dt V): the negative control of the hybrid momentum exchange.
    kvn has no such term, so it refuses the mode."""
    masses = tuple(float(m) for m in masses)
    alg = layout(grid, masses, formalism)
    if interaction not in ("full", "potential_only"):
        raise ValueError(f"unknown interaction mode {interaction!r}")
    if interaction == "potential_only" and formalism == "kvn":
        raise ValueError("kvn has no potential phase: potential_only would run free")
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")

    qn, pn, xn = grid.names("q"), grid.names("p"), grid.names("x")
    letters = _letters(alg, grid)
    letter = dict(zip(qn + pn + xn, alg.generators))    # q, p and x lead the normal order
    # H = T + V(q, x) multiplies on no moved axis: each part is one flow
    flow = lambda x: flow_of(x, grid)[0]
    kinetic = ccr.time_translation(alg, formalism)
    A = lambda tau: flow(kinetic * (-I * Fraction(tau)))

    b = alg.zero()
    if potential is not None:
        value = {n: alg.observable(alg.name(letter[n])) for n in qn + xn}
        f = sum((math.prod((value[s] ** e for s, e in zip(potential.symbols, expo)), start=c)
                 for expo, c in potential.terms.items()), 0)
        b = alg.apply_rule(f, formalism) * (-I * Fraction(dt))
    if interaction == "potential_only":
        derivative = set(alg.generators[len(alg.generators) // 2:])
        b = ccr.NCPoly(alg, {w: c for w, c in b.terms.items() if derivative.isdisjoint(w)})
    for pname in pn:
        # B moves p by [p, B], read off its lam_p terms; a kick of more than
        # half the p extent in one step aliases through the periodic boundary
        kick = alg.from_word((letter[pname],)).commutator(b)
        shift = np.max(np.abs(sum((_value(w, c, letters) for w, c in kick.terms.items()), 0.0)))
        if shift > grid.axis(pname).extent / 2:
            warnings.warn(
                f"dt={dt} kicks {pname} by up to {shift:.3g}, more than "
                f"half the axis extent; momentum will wrap within one step",
                RuntimeWarning, stacklevel=2)
    weights = (1.0,) if b.is_zero else (0.5, 1.0)
    return PropagatorPlan(grid, formalism, masses, potential, float(dt),
                          {w: A(w * dt) for w in weights}, None if b.is_zero else flow(b))


def apply(flows, w: Wavefunction, overwrite: bool = False) -> Wavefunction:
    """The flows applied to ``w`` in order, skipping None.  ``w.values`` is
    left unchanged unless ``overwrite`` is set; every flow after the first
    reuses the memory of the one before it."""
    v = w.values
    for flow in flows:
        if flow is not None:
            v = flow.apply(v, overwrite=overwrite or v is not w.values)
    return Wavefunction(w.grid, v)


def step(w: Wavefunction, plan: PropagatorPlan, lead: float = 0.5,
         trail: float = 0.5, overwrite: bool = False) -> Wavefunction:
    """A(lead dt) B(dt) A(trail dt); the defaults make one full Strang
    step, norm-preserving to rounding.  ``run`` passes lead = 1 to absorb
    the trailing half-flow a previous call left out with trail = 0.  A plan
    without a V part is the exact A(dt), whatever the weights.

    ``w.values`` is left unchanged unless ``overwrite`` is set, which lets
    the step reuse its memory (as ``Flow.apply`` does)."""
    if w.grid != plan.grid:
        raise ValueError("wavefunction grid does not match the plan")
    if plan.b is None:
        return apply((plan.a[1.0],), w, overwrite)
    if not {lead, trail} <= {0.0, *plan.a}:
        raise ValueError("lead and trail weights must be 0, 0.5 or 1")
    return apply((plan.a.get(lead), plan.b, plan.a.get(trail)), w, overwrite)


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


def _observables(w: Wavefunction, plan: PropagatorPlan) -> dict:
    """One sample's row.  |psi|^2 is formed once; the q and p moments come
    from its 1-D marginals, the potential energy from it summed over the
    axes V does not depend on, and <k>, <k^2> from one forward FFT per x
    axis (Parseval: sum |fft|^2 = points * sum |psi|^2)."""
    grid = plan.grid
    qn, pn, xn = (grid.names(r) for r in ("q", "p", "x"))
    cw = grid.cell_weight

    def squared_modulus(values):
        out = np.abs(values)
        out *= out
        return out

    def summed(a, keep):
        """``a`` summed over every axis not in ``keep``, keeping dims."""
        return a.sum(axis=tuple(i for i in range(a.ndim) if i not in keep), keepdims=True)

    dens = squared_modulus(w.values)
    nrm2 = float(np.sum(dens)) * cw
    marginal = {n: summed(dens, {grid.index(n)}) for n in qn + pn}
    mean = lambda n, f: float(np.sum(marginal[n] * f)) * cw / nrm2
    q_mean = sum((mean(n, grid.coordinate(n)) for n in qn), 0.0)
    p_mean = sum((mean(n, grid.coordinate(n)) for n in pn), 0.0)
    energy = sum((mean(n, grid.coordinate(n) ** 2) / (2 * m)
                  for n, m in zip(pn, plan.masses)), 0.0)
    Vg = 0.0 if plan.potential is None else plan.potential.evaluate(grid.coordinate_bindings())
    if np.ndim(Vg):
        on = {i for i, n in enumerate(Vg.shape) if n > 1}
        energy += float(np.sum(summed(dens, on) * Vg)) * cw / nrm2
    k_mean = None
    if xn:
        k_mean = 0.0
        for xname, m in zip(xn, plan.masses[len(pn):]):
            i = grid.index(xname)
            power = summed(squared_modulus(_fft(w.values, (i,))), {i})
            k = grid.wavenumber(xname)
            scale = cw / grid.axis(xname).points / nrm2
            k_mean += float(np.sum(power * k)) * scale
            energy += float(np.sum(power * k ** 2)) * scale / (2 * m)
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
    ``w0`` is never mutated: the first step copies out of it and later
    steps work in place, so the returned state is the run's own buffer
    (``w0`` itself only when there are no steps).
    Finiteness is checked at each sample; NumericalAbort reports the
    detecting step and the last step checked finite before it.
    """
    nsteps = step_count(t_final, plan.dt)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    record = RunRecord()
    w = w0
    record.append(t=0.0, **_observables(w, plan))
    lead, checked = 0.5, None
    for n in range(1, nsteps + 1):
        sampled = n % sample_every == 0 or n == nsteps
        trail = 0.5 if sampled else 0.0
        w = step(w, plan, lead=lead, trail=trail, overwrite=w is not w0)
        lead = 1.0 - trail
        if sampled:
            if not np.all(np.isfinite(w.values)):
                raise NumericalAbort(n, checked)
            checked = n
            record.append(t=n * plan.dt, **_observables(w, plan))
    return record, w
