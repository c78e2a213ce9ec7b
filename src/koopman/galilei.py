"""Finite Galilei transformations on phase-space wavefunctions.

Implements the unitary actions of translations, boosts and free time
evolution for a single classical particle in one dimension, in both the
non-projective (kvn) and projective (kvh) representations.  Each element
is one exact flow: translations and boosts shift q by a + v t and p by
m v with one spectral phase factor over the axes that move, and free
time is the propagator's free flow.  The projective boost then
multiplies the position-dependent phase that makes the
boost/translation pair noncommute up to a global phase.

The measured Weyl phase between two finite transformations is compared
against the prediction derived from the symbolic commutator of their
exponents (for central commutators e^A e^B = e^B e^A e^[A,B]), so the
numeric grid action and the exact algebra check each other.  Boost
covariance of free evolution applies free_time directly, with the same
best-fit phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ccr
from .exactpoly import I
from .evolve import Flow, free_flow
from .grid import Wavefunction, inner_product, norm


# the parameters each kind reads; the others must stay 0
_READS = {"translation": "a", "boost": "vt", "free_time": "t"}


@dataclass(frozen=True)
class GroupElement:
    """One finite transformation; boosts carry their evaluation time
    explicitly because the boost generator is time dependent."""
    kind: str        # translation | boost | free_time
    formalism: str   # kvn | kvh
    mass: float = 1.0
    a: float = 0.0   # translation offset
    v: float = 0.0   # boost velocity
    t: float = 0.0   # boost evaluation time / time-translation span

    def __post_init__(self):
        if self.kind not in _READS:
            raise ValueError(f"unknown group element kind {self.kind!r}")
        if self.formalism not in ("kvn", "kvh"):
            raise ValueError(f"unknown formalism {self.formalism!r}")
        if not 0 < self.mass < np.inf:
            raise ValueError("mass must be positive and finite")
        for value in (self.a, self.v, self.t):
            if not np.isfinite(value):
                raise ValueError("group parameters must be finite")
        unread = [f for f in "avt" if f not in _READS[self.kind] and getattr(self, f)]
        if unread:
            raise ValueError(f"a {self.kind} does not read {', '.join(unread)}")


def translation(a: float, formalism: str, mass: float = 1.0) -> GroupElement:
    return GroupElement("translation", formalism, mass, a=a)


def boost(v: float, t: float = 0.0, formalism: str = "kvn", mass: float = 1.0) -> GroupElement:
    return GroupElement("boost", formalism, mass, v=v, t=t)


def free_time(t: float, formalism: str, mass: float = 1.0) -> GroupElement:
    return GroupElement("free_time", formalism, mass, t=t)


def act(g: GroupElement, w: Wavefunction) -> Wavefunction:
    """Apply one finite transformation; unitary up to rounding."""
    grid, m = w.grid, g.mass
    qn, pn, xn = (grid.names(r) for r in "qpx")
    if len(qn) != 1 or len(pn) != 1 or xn:
        raise ValueError("finite transformations act on single-particle (q, p) grids")
    qn, pn = qn[0], pn[0]
    if g.kind == "free_time":
        flow = free_flow(grid, g.formalism, [m], g.t)
    else:   # psi(q - a - v t, p - m v); the fields a kind does not use are 0
        moves = [(n, d) for n, d in ((qn, g.a + g.v * g.t), (pn, m * g.v)) if d]
        expo = sum(grid.wavenumber(n) * d for n, d in moves)
        flow = Flow(tuple(grid.index(n) for n, _ in moves), (np.exp(-1j * expo),))
    out = flow.apply(w.values)
    if g.kind == "boost" and g.formalism == "kvh":
        out *= np.exp(1j * (m * grid.coordinate(qn) * g.v - 0.5 * m * g.t * g.v ** 2))
    return Wavefunction(grid, out)


# ---------------------------------------------------------------------------
# Weyl (projective) phases
# ---------------------------------------------------------------------------

def _exponent_operator(g: GroupElement, alg: ccr.Algebra) -> ccr.NCPoly:
    """The exponent X in U = e^X, with all parameters folded in exactly."""
    mi = Fraction(g.mass)
    if g.kind == "translation":
        return alg.op("lam_q", -I * Fraction(g.a))
    obs = alg.observable
    if g.kind == "boost":
        gfun = mi * obs("q") - Fraction(g.t) * obs("p")
        return alg.apply_rule(gfun, g.formalism) * (I * Fraction(g.v))
    hfun = obs("p") * obs("p") / (2 * mi)     # free_time
    return alg.apply_rule(hfun, g.formalism) * (-I * Fraction(g.t))


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


def _phase_fit(u: Wavefunction, v: Wavefunction):
    """(phase, residual): e^{i phi} = <v, u>/|<v, u>| (1 when they are
    orthogonal) and ||u - e^{i phi} v||."""
    ov = inner_product(v, u)
    phase = ov / abs(ov) if ov != 0 else 1.0 + 0j
    return complex(phase), float(norm(Wavefunction(u.grid, u.values - phase * v.values)))


def weyl_phase(g1: GroupElement, g2: GroupElement, w: Wavefunction):
    """The global phase between the two application orders: _phase_fit of
    g1 g2 w against g2 g1 w.  A residual above ~1e-6 signals a
    non-central discrepancy."""
    return _phase_fit(act(g1, act(g2, w)), act(g2, act(g1, w)))


def covariance_check(formalism: str, v: float, t_final: float,
                     w0: Wavefunction, mass: float = 1.0):
    """_phase_fit of free evolution then boost(t) against boost(0) then
    free evolution; the orders agree up to a global phase (residual <=
    1e-6) because each boost generator is evaluated at its own time."""
    evolve = free_time(t_final, formalism, mass)
    return _phase_fit(act(boost(v, t_final, formalism, mass), act(evolve, w0)),
                      act(evolve, act(boost(v, 0.0, formalism, mass), w0)))
