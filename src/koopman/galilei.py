"""Finite Galilei transformations on phase-space wavefunctions.

Implements the unitary actions of translations, momentum translations,
boosts and free time evolution for a single classical particle in one
dimension, in both the non-projective (kvn) and projective (kvh)
representations.  Shifts are exact spectral phase multiplications; the
projective representation additionally multiplies the position-dependent
phase factors that make the boost/translation pair noncommuting up to a
global phase.

The measured Weyl phase between two finite transformations is compared
against the prediction derived from the symbolic commutator of their
exponents (for central commutators e^A e^B = e^B e^A e^[A,B]), so the
numeric grid action and the exact algebra check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import ccr
from .exactpoly import GaussianRational
from .evolve import build_plan, free_flow, make_potential, run
from .grid import Wavefunction, inner_product, norm, shift


@dataclass(frozen=True)
class GroupElement:
    """One finite transformation; boosts carry their evaluation time
    explicitly because the boost generator is time dependent."""
    kind: str        # translation | momentum_translation | boost | free_time | rotation
    formalism: str   # kvn | kvh
    mass: float = 1.0
    a: float = 0.0   # translation offset
    b: float = 0.0   # momentum offset
    v: float = 0.0   # boost velocity
    t: float = 0.0   # boost evaluation time / time-translation span
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("translation", "momentum_translation", "boost",
                             "free_time", "rotation"):
            raise ValueError(f"unknown group element kind {self.kind!r}")
        if self.formalism not in ("kvn", "kvh"):
            raise ValueError(f"unknown formalism {self.formalism!r}")
        for value in (self.mass, self.a, self.b, self.v, self.t, self.theta):
            if not np.isfinite(value):
                raise ValueError("group parameters must be finite")


def translation(a: float, formalism: str, mass: float = 1.0) -> GroupElement:
    return GroupElement("translation", formalism, mass, a=a)


def momentum_translation(b: float, formalism: str, mass: float = 1.0) -> GroupElement:
    return GroupElement("momentum_translation", formalism, mass, b=b)


def boost(v: float, t: float = 0.0, formalism: str = "kvn", mass: float = 1.0) -> GroupElement:
    return GroupElement("boost", formalism, mass, v=v, t=t)


def free_time(t: float, formalism: str, mass: float = 1.0) -> GroupElement:
    return GroupElement("free_time", formalism, mass, t=t)


def invert(g: GroupElement) -> GroupElement:
    """Inverse element: parameter negation at matched boost time."""
    return replace(g, a=-g.a, b=-g.b, v=-g.v,
                   t=-g.t if g.kind == "free_time" else g.t)


def _single_particle_axes(w: Wavefunction):
    qn, pn, xn = (w.grid.names(r) for r in ("q", "p", "x"))
    if len(qn) != 1 or len(pn) != 1 or xn:
        raise ValueError("finite transformations act on single-particle "
                         "(q, p) grids")
    return qn[0], pn[0]


def act(g: GroupElement, w: Wavefunction) -> Wavefunction:
    """Apply one finite transformation; unitary up to rounding."""
    qn, pn = _single_particle_axes(w)
    m = g.mass
    if g.kind == "rotation":
        raise ValueError("rotations exist on grids of dimension >= 2 only; "
                         "the symbolic module covers the rotation algebra")
    if g.kind == "translation":
        return shift(w, qn, g.a)
    if g.kind == "momentum_translation":
        return shift(w, pn, g.b)
    if g.kind == "boost":
        out = shift(shift(w, qn, g.v * g.t), pn, m * g.v)
        if g.formalism == "kvh":
            qc = w.grid.coordinate(qn)
            phase = np.exp(1j * (m * qc * g.v - 0.5 * m * g.t * g.v ** 2))
            out = Wavefunction(w.grid, out.values * phase)
        return out
    if g.kind == "free_time":
        return Wavefunction(w.grid, free_flow(w.grid, g.formalism, [m], g.t).apply(w.values))
    raise AssertionError(g.kind)


# ---------------------------------------------------------------------------
# Weyl (projective) phases
# ---------------------------------------------------------------------------

def _exponent_operator(g: GroupElement, alg: ccr.Algebra) -> ccr.NCPoly:
    """The exponent X in U = e^X, with all parameters folded in exactly."""
    mi = Fraction(g.mass)
    minus_i = GaussianRational(0, -1)
    plus_i = GaussianRational(0, 1)
    if g.kind == "translation":
        return alg.op("lam_q", minus_i * Fraction(g.a))
    if g.kind == "momentum_translation":
        return alg.op("lam_p", minus_i * Fraction(g.b))
    obs = lambda n: alg.observable(n)
    if g.kind == "boost":
        gfun = mi * obs("q") - Fraction(g.t) * obs("p")
        return alg.apply_rule(gfun, g.formalism) * (plus_i * Fraction(g.v))
    if g.kind == "free_time":
        hfun = obs("p") * obs("p") / (2 * mi)
        return alg.apply_rule(hfun, g.formalism) * (minus_i * Fraction(g.t))
    raise ValueError(f"no exponent for kind {g.kind!r}")


def predicted_weyl_phase(g1: GroupElement, g2: GroupElement) -> complex:
    """exp([X1, X2]) from the exact algebra; the commutator must be central."""
    alg = ccr.single_classical()
    c = _exponent_operator(g1, alg).commutator(_exponent_operator(g2, alg))
    if not c.is_central():
        raise ValueError("exponents do not have a central commutator; "
                         "orderings differ by more than a global phase")
    # parameters are folded in exactly, so the scalar is a plain constant
    val = complex(c.central_part().constant_value())
    return complex(np.exp(val))


def weyl_phase(g1: GroupElement, g2: GroupElement, w: Wavefunction):
    """Measure the global phase between the two application orders.

    Returns (phase, residual): u = g1 g2 w, v = g2 g1 w, the best-fit
    phase e^{i phi} = <v, u>/|<v, u>| and the residual ||u - e^{i phi} v||.
    A residual above ~1e-6 signals a non-central discrepancy.
    """
    u = act(g1, act(g2, w))
    v = act(g2, act(g1, w))
    ov = inner_product(v, u)
    if ov == 0:
        return 1.0 + 0j, float(norm(Wavefunction(w.grid, u.values - v.values)))
    phase = ov / abs(ov)
    residual = float(norm(Wavefunction(w.grid, u.values - phase * v.values)))
    return complex(phase), residual


@dataclass(frozen=True)
class CovarianceResult:
    formalism: str
    v: float
    t: float
    phase: complex
    residual: float


def covariance_check(formalism: str, v: float, t_final: float,
                     w0: Wavefunction, mass: float = 1.0) -> CovarianceResult:
    """Free evolution then boost(t) versus boost(0) then free evolution.

    Both orders must agree up to a global phase (residual <= 1e-6); the
    boost generators are evaluated at the indicated times.
    """
    qn, pn = _single_particle_axes(w0)
    pot = make_potential("free", w0.grid)
    plan = build_plan(w0.grid, formalism, [mass], pot, dt=t_final)
    _, after_boost_first = run(act(boost(v, 0.0, formalism, mass), w0), plan, t_final)
    _, evolved = run(w0, plan, t_final)
    boost_last = act(boost(v, t_final, formalism, mass), evolved)
    ov = inner_product(after_boost_first, boost_last)
    phase = ov / abs(ov) if ov != 0 else 1.0 + 0j
    residual = float(norm(Wavefunction(
        w0.grid, boost_last.values - phase * after_boost_first.values)))
    return CovarianceResult(formalism, v, t_final, complex(phase), residual)
