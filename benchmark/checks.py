"""Correctness checks that do not rely on the program's own results.

Every expected value here is computed by the benchmark itself:

* ``algebra``: the expected verdict of every relation (all hold but
  ``hybrid_total_momentum_vanishes``), the paper's central charges
  (0, i*m*delta, i*m, i*(m1 + m2)), and the residual of the one failing
  relation, re-derived with sympy by applying ``p + k`` and the hybrid
  Liouvillian to a generic f(q, p, x) as differential operators;
* ``oracle2d``: the closed-form solution of the projective harmonic
  oscillator (m = kappa = 1), whose flow is a phase-space rotation;
* ``hybrid3d``: norm preservation, total-momentum conservation, the
  momentum exchange itself, and the closed-form solution of the
  first-moment (Ehrenfest) equations, which close for harmonic coupling.

The numeric checks run in the workload's process after the timed region;
the sympy checks run in the benchmark's parent process.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EXPECTED_FAILURE = "hybrid_total_momentum_vanishes"
CENTRAL_CHARGE_FAMILIES = ("kvn_central_charge", "kvh_central_charge",
                           "quantum_central_charge", "hybrid_central_charge")

ORACLE_TOL = 1e-5          # L2, spectral state and oracle vs closed form
NORM_TOL = 1e-12           # |norm - 1| for unitary propagation
HYBRID_DRIFT_TOL = 1e-6    # |<p + k>(t) - <p + k>(0)|, acceptance criterion 8
HYBRID_EXCHANGE_MIN = 1e-2 # max |<p>(t) - <p>(0)|, criterion 8
HYBRID_MOMENT_TOL = 1e-5   # L2 of the first moments vs the closed form


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _sympy_operator(terms, f):
    """Apply a serialised normal-ordered operator to the sympy expression f.

    ``terms`` is a list of (word, coefficient); a word is a list of
    (variable, is_derivative) read left to right as an operator product,
    so its rightmost letter acts first; a derivative letter is -i d/dvar.
    A coefficient is (symbols, [(exponents, re, im), ...]) with exact
    rational parts written as strings.  Names become sympy symbols of the
    same name.
    """
    import sympy as sp

    out = sp.Integer(0)
    for word, (symbols, monomials) in terms:
        coeff = sp.Integer(0)
        for expo, re, im in monomials:
            mono = sp.Rational(Fraction(re)) + sp.I * sp.Rational(Fraction(im))
            for sym, e in zip(symbols, expo):
                mono *= sp.Symbol(sym) ** e
            coeff += mono
        g = f
        for var, is_derivative in reversed(word):
            v = sp.Symbol(var)
            g = -sp.I * sp.diff(g, v) if is_derivative else v * g
        out += coeff * g
    return out


def hybrid_momentum_residual():
    """[p + k, L_h] f for a generic f(q, p, x), derived with sympy from

    L_h = (p/m1) lam_q - V_q lam_p + V - p^2/2m1 + k^2/2m2,
    V = kappa/2 (q - x)^2, lam_q = -i d/dq, lam_p = -i d/dp, k = -i d/dx.
    Returns (residual expression, f).
    """
    import sympy as sp

    q, p, x, kappa, m1, m2 = sp.symbols("q p x kappa m1 m2")
    f = sp.Function("f")(q, p, x)
    V = kappa / 2 * (q - x) ** 2

    def lam(g, var):
        return -sp.I * sp.diff(g, var)

    def L(g):
        return (p / m1 * lam(g, q) - sp.diff(V, q) * lam(g, p) + V * g
                - p ** 2 / (2 * m1) * g + lam(lam(g, x), x) / (2 * m2))

    def P(g):
        return p * g + lam(g, x)

    return sp.expand(P(L(f)) - L(P(f))), f


def _central_charge_expected(rid: str):
    """The paper's central charge for a central-charge relation id."""
    import sympy as sp

    if rid.startswith("kvn_central_charge"):
        return sp.Integer(0)
    if rid.startswith("kvh_central_charge"):
        # kvh_central_charge_[boostI,transJ]=i.m.delta
        inner = rid[rid.index("[") + 1: rid.index("]")]
        boost, trans = inner.split(",")
        return sp.I * sp.Symbol("m") if boost[-1] == trans[-1] else sp.Integer(0)
    if rid.startswith("quantum_central_charge"):
        return sp.I * sp.Symbol("m")
    if rid.startswith("hybrid_central_charge"):
        return sp.I * (sp.Symbol("m1") + sp.Symbol("m2"))
    raise ValueError(f"not a central-charge relation: {rid}")


class AlgebraChecker:
    """Counts the relations of one pass whose outcome is wrong.

    The sympy work is cached on the serialised operators, which repeat
    exactly from pass to pass.
    """

    def __init__(self):
        self._cache: dict = {}

    def failures(self, verdicts, operators) -> tuple:
        """(wrong, missing): the relation ids whose outcome disagrees with
        the independent expectation, and the expected ids or central-charge
        families that the pass did not contain.

        ``verdicts`` is a list of (rid, passed); ``operators`` maps the
        expected-failing rid to its serialised residual and each
        central-charge rid to its serialised expected value; ``None``
        stands for a residual that did not render as reported.
        """
        bad = []
        seen = set()
        for rid, passed in verdicts:
            seen.add(rid)
            if passed != (rid != EXPECTED_FAILURE):
                bad.append(rid)
        missing = [fam for fam in CENTRAL_CHARGE_FAMILIES
                   if not any(r.startswith(fam) for r in seen)]
        if EXPECTED_FAILURE not in seen:
            missing.append(EXPECTED_FAILURE)
        for rid, terms in operators.items():
            if rid in bad:
                continue
            if terms is None:
                bad.append(rid)
                continue
            key = (rid, repr(terms))
            if key not in self._cache:
                self._cache[key] = self._operator_ok(rid, terms)
            if not self._cache[key]:
                bad.append(rid)
        return bad, missing

    @staticmethod
    def _operator_ok(rid: str, terms) -> bool:
        import sympy as sp

        if rid == EXPECTED_FAILURE:
            residual, f = hybrid_momentum_residual()
            return sp.simplify(sp.expand(_sympy_operator(terms, f)) - residual) == 0
        variables = sorted({var for word, _ in terms for var, _ in word} | {"q"})
        f = sp.Function("f")(*sp.symbols(variables))
        got = _sympy_operator(terms, f)
        return sp.simplify(got - _central_charge_expected(rid) * f) == 0


def residual_l2(operators) -> float:
    """L2 norm of the coefficients of the reported residual of the one
    failing relation, with every mass and coupling set to 1."""
    total = 0.0
    for _, (_, monomials) in operators[EXPECTED_FAILURE]:
        c = sum(complex(float(Fraction(re)), float(Fraction(im)))
                for _, re, im in monomials)
        total += abs(c) ** 2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# oracle2d: projective harmonic oscillator, m = kappa = 1
# ---------------------------------------------------------------------------

def harmonic_kvh_exact(q, p, t: float, centre, with_action: bool = True):
    """Closed-form kvh state at time t for the scenario's unit-width
    Gaussian started at ``centre``.

    The flow rotates phase space by t, so the backward point is
    q0 = q cos t - p sin t, p0 = q sin t + p cos t.  The amplitude is the
    initial Gaussian there; the phase is the forward action
    S = 1/4 (p0^2 - q0^2) sin 2t + 1/2 q0 p0 (cos 2t - 1).
    """
    c, s = math.cos(t), math.sin(t)
    q0 = q * c - p * s
    p0 = q * s + p * c
    qc, pc = centre
    amp = np.exp(-((q0 - qc) ** 2 + (p0 - pc) ** 2) / 2) / math.sqrt(math.pi)
    if not with_action:
        return amp.astype(complex)
    S = 0.25 * (p0 ** 2 - q0 ** 2) * math.sin(2 * t) \
        + 0.5 * q0 * p0 * (math.cos(2 * t) - 1)
    return amp * np.exp(1j * S)


def _l2(a, b, cell: float) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * cell))


def oracle_check(q, p, cell: float, state, reference, valid, t: float,
                 centre, exact=harmonic_kvh_exact):
    """(ok, l2_error) for one validated solution.

    ``state`` is the spectral state, ``reference`` the oracle's, ``valid``
    the oracle's mask of nodes whose backward trajectory stayed inside the
    box.  ``exact`` is the closed form; the benchmark's tests pass broken
    ones to see the check fail.
    """
    truth = exact(q, p, t, centre)
    l2_error = _l2(state, truth, cell)
    ref_error = _l2(np.where(valid, reference, 0), np.where(valid, truth, 0), cell)
    norm = math.sqrt(float(np.sum(np.abs(state) ** 2)) * cell)
    ok = l2_error <= ORACLE_TOL and ref_error <= ORACLE_TOL \
        and abs(norm - 1.0) <= NORM_TOL
    return ok, l2_error


# ---------------------------------------------------------------------------
# hybrid3d: quantum-classical pair, V = kappa/2 (q - x)^2
# ---------------------------------------------------------------------------

def hybrid_moments_exact(t: float, q0, p0, x0, k0, m1=1.0, m2=1.0, kappa=1.0):
    """(<q>, <p>, <x>, <k>) at time t from the first-moment equations
    dq/dt = p/m1, dp/dt = -kappa (q - x), dx/dt = k/m2, dk/dt = kappa (q - x),
    which are exact for harmonic coupling."""
    M = m1 + m2
    w = math.sqrt(kappa * (1 / m1 + 1 / m2))
    P = p0 + k0
    r0 = q0 - x0
    v0 = p0 / m1 - k0 / m2
    r = r0 * math.cos(w * t) + v0 / w * math.sin(w * t)
    integral_r = r0 * math.sin(w * t) / w + v0 * (1 - math.cos(w * t)) / (w * w)
    p = p0 - kappa * integral_r
    X = (m1 * q0 + m2 * x0) / M + P * t / M
    return X + m2 / M * r, p, X - m1 / M * r, P - p


def hybrid_moments(values, q, p, x, x_axis: int):
    """(<q>, <p>, <x>, <k>) of a hybrid state, k by numpy's FFT along x."""
    dens = np.abs(values) ** 2
    n2 = float(np.sum(dens))
    n = values.shape[x_axis]
    dx = float(np.ravel(x)[1] - np.ravel(x)[0])
    shape = [1] * values.ndim
    shape[x_axis] = n
    k = (2 * np.pi * np.fft.fftfreq(n, d=dx)).reshape(shape)
    kpsi = np.fft.ifft(k * np.fft.fft(values, axis=x_axis), axis=x_axis)
    k_mean = float(np.real(np.sum(np.conj(values) * kpsi))) / n2
    return (float(np.sum(dens * q)) / n2, float(np.sum(dens * p)) / n2,
            float(np.sum(dens * x)) / n2, k_mean)


def hybrid_check(norms, p_means, k_means, moments, t: float, start):
    """(ok, l2_error) for one hybrid round.

    ``norms``, ``p_means`` and ``k_means`` are the sampled series,
    ``moments`` the final (<q>, <p>, <x>, <k>), ``start`` the initial
    (q, p, x, k) centres.
    """
    norms, p_means, k_means = (np.asarray(a, dtype=float)
                               for a in (norms, p_means, k_means))
    total = p_means + k_means
    drift = float(np.max(np.abs(total - total[0])))
    exchange = float(np.max(np.abs(p_means - p_means[0])))
    exact = hybrid_moments_exact(t, *start)
    l2_error = math.sqrt(sum((a - b) ** 2 for a, b in zip(moments, exact)))
    ok = float(np.max(np.abs(norms - 1.0))) <= NORM_TOL \
        and drift <= HYBRID_DRIFT_TOL and exchange >= HYBRID_EXCHANGE_MIN \
        and l2_error <= HYBRID_MOMENT_TOL
    return ok, l2_error
