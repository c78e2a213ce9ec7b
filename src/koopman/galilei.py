"""Finite Galilei transformations on phase-space wavefunctions.

A finite transformation U = e^X of a single classical particle in one
dimension is its exponent X: an exact operator of
``ccr.single_classical()`` with the parameters folded in, the
formalism's rule applied to the generator's phase-space function
(non-projective kvn or projective kvh).  ``act`` turns X into grid flows
with ``evolve.flow_of``, the rule the propagator builds its plans with:
the terms D of X that are diagonal once X's derivative axes are
transformed, and a multiplication M with a central [D, M], give

    e^X = e^(M + [D, M]/2) e^D.

Translations, kvn boosts, the kvh boost at t = 0 and free time are D
alone; the kvh boost at t != 0 adds M = i m v q.  The kvh boost's i m v q
term makes the boost/translation pair noncommute up to a global phase.

The measured Weyl phase between two finite transformations is compared
against the prediction exp([X1, X2]) from the same exponents (for
central commutators e^A e^B = e^B e^A e^[A,B]), so the numeric grid
action and the exact algebra check each other.  Boost covariance of free
evolution applies free_time directly, with the same best-fit phase.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import ccr
from .evolve import flow_of
from .exactpoly import I
from .grid import Wavefunction, inner_product, leakage, norm

_ALG = ccr.single_classical()


def exact_parameters(formalism: str, mass: float, *params: float) -> list:
    """The mass and the parameters as exact fractions; ValueError for an
    unknown formalism, a bad mass or a parameter that is not finite."""
    if formalism not in ("kvn", "kvh"):
        raise ValueError(f"unknown formalism {formalism!r}")
    if not 0 < mass < np.inf:
        raise ValueError("mass must be positive and finite")
    if not all(np.isfinite(params)):
        raise ValueError("group parameters must be finite")
    return [Fraction(mass)] + [Fraction(x) for x in params]


def translation(a: float, formalism: str, mass: float = 1.0) -> ccr.NCPoly:
    """-i a lam_q: psi(q - a, p) in every formalism."""
    _, a = exact_parameters(formalism, mass, a)
    return _ALG.op("lam_q", -I * a)


def boost(v: float, t: float = 0.0, formalism: str = "kvn", mass: float = 1.0) -> ccr.NCPoly:
    """i v rule(m q - t p): the boost evaluated at time t."""
    m, v, t = exact_parameters(formalism, mass, v, t)
    obs = _ALG.observable
    return _ALG.apply_rule(m * obs("q") - t * obs("p"), formalism) * (I * v)


def free_time(t: float, formalism: str, mass: float = 1.0) -> ccr.NCPoly:
    """-i t rule(p^2/2m): free evolution over time t."""
    m, t = exact_parameters(formalism, mass, t)
    p = _ALG.observable("p")
    return _ALG.apply_rule(p * p / (2 * m), formalism) * (-I * t)


def act(x: ccr.NCPoly, w: Wavefunction) -> Wavefunction:
    """Apply e^X through ``evolve.flow_of``; unitary up to rounding."""
    grid, alg = w.grid, x.algebra
    if sorted(grid.names()) != sorted(alg.observable_symbols[len(alg.central_symbols):]):
        raise ValueError("finite transformations act on single-particle (q, p) grids")
    v = w.values
    for flow in flow_of(x, grid):
        v = flow.apply(v, overwrite=v is not w.values)
    return Wavefunction(grid, v)


# ---------------------------------------------------------------------------
# Weyl (projective) phases
# ---------------------------------------------------------------------------

def predicted_weyl_phase(x1: ccr.NCPoly, x2: ccr.NCPoly) -> complex:
    """exp([X1, X2]) from the exact algebra; the commutator must be central."""
    c = x1.commutator(x2)
    if not c.is_central():
        raise ValueError("exponents do not have a central commutator; "
                         "orderings differ by more than a global phase")
    # parameters are folded in exactly, so the scalar is a plain constant
    return complex(np.exp(complex(c.central_part().constant_value())))


def _phase_fit(u: Wavefunction, v: Wavefunction):
    """(phase, residual, leakage): e^{i phi} = <v, u>/|<v, u>| (1 when
    they are orthogonal), ||u - e^{i phi} v||, and the larger boundary
    leakage of u and v, which tells a boundary error from a non-central
    one."""
    ov = inner_product(v, u)
    phase = ov / abs(ov) if ov != 0 else 1.0 + 0j
    return (complex(phase), float(norm(Wavefunction(u.grid, u.values - phase * v.values))),
            float(max(leakage(u), leakage(v))))


def weyl_phase(x1: ccr.NCPoly, x2: ccr.NCPoly, w: Wavefunction):
    """The global phase between the two application orders: _phase_fit of
    e^X1 e^X2 w against e^X2 e^X1 w.  A residual above ~1e-6 signals a
    non-central discrepancy, unless the leakage shows amplitude at the
    boundary, where the kvh boost's phase is not periodic."""
    return _phase_fit(act(x1, act(x2, w)), act(x2, act(x1, w)))


def covariance_check(formalism: str, v: float, t_final: float,
                     w0: Wavefunction, mass: float = 1.0):
    """_phase_fit of free evolution then boost(t) against boost(0) then
    free evolution; the orders agree up to a global phase (residual <=
    1e-6) because each boost generator is evaluated at its own time."""
    evolve = free_time(t_final, formalism, mass)
    return _phase_fit(act(boost(v, t_final, formalism, mass), act(evolve, w0)),
                      act(evolve, act(boost(v, 0.0, formalism, mass), w0)))
