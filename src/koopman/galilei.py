"""Finite Galilei transformations on phase-space wavefunctions.

A finite transformation U = e^X is its exponent X: the ``ccr`` generator
times its exact parameter, on the algebra of the grid's layout
(``evolve.layout``: one classical particle per (q, p) pair and one
quantum particle per x axis, masses folded in), with the formalism's
rule (non-projective kvn, projective kvh and hybrid).  ``act`` turns X
into grid flows with ``evolve.flow_of``, the rule the propagator builds
its plans with: the terms D of X that are diagonal once X's derivative
axes are transformed, and a multiplication M with a central [D, M], give

    e^X = e^(M + [D, M]/2) e^D.

Translations, kvn boosts, projective boosts at t = 0 and free time are
D alone; a projective boost at t != 0 adds M = i v (sum m q + sum m x).
Those i m v q and i m v x terms make the boost/translation pair
noncommute up to the global phase exp(i a v sum m): the total mass.

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


def _exact(x: float) -> Fraction:
    """A group parameter as an exact fraction; ValueError unless finite."""
    if not np.isfinite(x):
        raise ValueError("group parameters must be finite")
    return Fraction(x)


def translation(a: float, alg: ccr.Algebra) -> ccr.NCPoly:
    """-i a (sum lam_q + sum k): every position moves by a, in every formalism."""
    return ccr.translation_generator(alg) * (-I * _exact(a))


def boost(v: float, t: float, formalism: str, alg: ccr.Algebra) -> ccr.NCPoly:
    """i v rule(sum m pos - t mom): the boost evaluated at time t."""
    return ccr.boost_generator(alg, formalism, t=_exact(t)) * (I * _exact(v))


def free_time(t: float, formalism: str, alg: ccr.Algebra) -> ccr.NCPoly:
    """-i t rule(sum mom^2/2m): free evolution over time t."""
    return ccr.time_translation(alg, formalism) * (-I * _exact(t))


def act(x: ccr.NCPoly, w: Wavefunction) -> Wavefunction:
    """Apply e^X through ``evolve.flow_of``, which refuses a grid that does
    not match X's layout; unitary up to rounding."""
    v = w.values
    for flow in flow_of(x, w.grid):
        v = flow.apply(v, overwrite=v is not w.values)
    return Wavefunction(w.grid, v)


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
                     w0: Wavefunction, alg: ccr.Algebra):
    """_phase_fit of free evolution then boost(t) against boost(0) then
    free evolution; the orders agree up to a global phase (residual <=
    1e-6) because each boost generator is evaluated at its own time."""
    evolve = free_time(t_final, formalism, alg)
    return _phase_fit(act(boost(v, t_final, formalism, alg), act(evolve, w0)),
                      act(evolve, act(boost(v, 0.0, formalism, alg), w0)))
