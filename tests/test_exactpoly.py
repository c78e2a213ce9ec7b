from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman.exactpoly import CPoly, GaussianRational, I, SymbolMismatch


def ring(names: str) -> dict:
    """The variables of the symbol set ``names``, e.g. ring("q p")["q"]."""
    symbols = tuple(names.split())
    return {n: CPoly.variable(symbols, n) for n in symbols}


def test_gaussian_rational_basics():
    assert I * I == GaussianRational(-1)
    assert (I * I).is_zero is False
    z = GaussianRational(1, 2) * GaussianRational(3, -1)
    assert z == GaussianRational(5, 5)
    assert z.conjugate() == GaussianRational(5, -5)
    assert GaussianRational(1) / GaussianRational(0, 1) == GaussianRational(0, -1)
    # exact: never rounds
    third = GaussianRational(1) / 3
    assert third * 3 == GaussianRational(1)
    assert complex(GaussianRational(1, 2)) == 1 + 2j


def test_gaussian_rational_rendering():
    assert str(GaussianRational(1, 0)) == "1/1"
    assert str(GaussianRational(0, 1)) == "1/1i"
    assert str(GaussianRational(1, -2)) == "1/1-2/1i"


def test_add_examples():
    R = ring("q p")
    q, p = R["q"], R["p"]
    assert (q + p) + (-p) == q
    H = q * q + p * p
    assert CPoly.constant(q.symbols, 0) + H == H
    assert q * q + q * q == 2 * (q ** 2)


def test_mul_examples():
    R = ring("m t q p")
    m, t, q, p = (R[k] for k in "mtqp")
    assert (q - p) * (q + p) == q ** 2 - p ** 2
    assert CPoly.constant(q.symbols, I) * CPoly.constant(q.symbols, I) == -1
    g = m * q - t * p
    assert g * CPoly.constant(q.symbols, 1) == g


def test_partial_examples():
    R = ring("m t q p")
    m, t, q, p = (R[k] for k in "mtqp")
    kinetic = p * p / (2 * m)
    assert kinetic.partial("p") == p / m
    assert (m * q - t * p).partial("q") == m
    R2 = ring("kappa q1 q2")
    kap, q1, q2 = R2["kappa"], R2["q1"], R2["q2"]
    V = kap * (q1 - q2) ** 2 / 2
    assert V.partial("q1") == kap * (q1 - q2)


def test_eval_examples():
    R = ring("m t q p")
    m, t, q, p = (R[k] for k in "mtqp")
    assert (q ** 2).evaluate({"q": 3, "m": 0, "t": 0, "p": 0}) == 9.0
    assert (m * q - t * p).evaluate({"m": 1, "q": 2, "t": 0, "p": 5}) == 2.0
    assert (p * p / (2 * m)).evaluate({"p": 2, "m": 1, "q": 0, "t": 0}) == 2.0


def test_eval_unbound_symbol():
    R = ring("q p")
    with pytest.raises(ValueError, match="unbound"):
        R["q"].evaluate({"q": 1.0})


def test_eval_array_broadcast():
    R = ring("q p")
    q, p = R["q"], R["p"]
    qs = np.linspace(-1, 1, 5)[:, None]
    ps = np.linspace(0, 2, 3)[None, :]
    got = (q * q + p).evaluate({"q": qs, "p": ps})
    assert np.allclose(got, qs ** 2 + ps)


def _random_poly(rng, symbols, max_deg=3, nterms=4, coeff_bound=10):
    terms = {}
    for _ in range(nterms):
        expo = tuple(int(rng.integers(0, max_deg + 1)) for _ in symbols)
        terms[expo] = GaussianRational(int(rng.integers(-coeff_bound, coeff_bound + 1)),
                                       int(rng.integers(-coeff_bound, coeff_bound + 1)))
    return CPoly(symbols, terms)


def test_ring_axioms_randomized():
    rng = np.random.default_rng(42)
    symbols = ("q", "p", "m")
    for _ in range(25):
        a = _random_poly(rng, symbols)
        b = _random_poly(rng, symbols)
        c = _random_poly(rng, symbols)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_partials_commute_randomized():
    rng = np.random.default_rng(7)
    symbols = ("q", "p", "t")
    for _ in range(20):
        a = _random_poly(rng, symbols)
        assert a.partial("q").partial("p") == a.partial("p").partial("q")


def test_eval_is_ring_homomorphism():
    rng = np.random.default_rng(3)
    symbols = ("q", "p")
    bindings = {"q": 0.7 - 0.2j, "p": -1.3 + 0.4j}
    for _ in range(20):
        a = _random_poly(rng, symbols, max_deg=3, coeff_bound=1000)
        b = _random_poly(rng, symbols, max_deg=3, coeff_bound=1000)
        lhs = (a * b).evaluate(bindings)
        rhs = a.evaluate(bindings) * b.evaluate(bindings)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        lhs = (a + b).evaluate(bindings)
        rhs = a.evaluate(bindings) + b.evaluate(bindings)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


SYMBOLS = ("q", "p", "m")
_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def laurent_polys(draw):
    """Laurent CPolys over SYMBOLS, real-only or with complex coefficients."""
    real_only = draw(st.booleans())
    coeff = st.builds(GaussianRational, _rationals,
                      st.just(0) if real_only else _rationals)
    expo = st.tuples(*[st.integers(-2, 3)] * len(SYMBOLS))
    return CPoly(SYMBOLS, draw(st.dictionaries(expo, coeff, max_size=6)))


def _exact_terms(poly, point):
    # Fraction arithmetic only: Gaussian-rational coefficient times exact powers
    out = []
    for expo, c in poly.terms.items():
        mono = Fraction(1)
        for s, e in zip(SYMBOLS, expo):
            mono *= point[s] ** e
        out.append(c * mono)
    return out


@settings(max_examples=200, deadline=None)
@given(laurent_polys(),
       st.fixed_dictionaries({s: _rationals.filter(bool) for s in SYMBOLS}),
       st.sampled_from(SYMBOLS))
def test_compile_matches_exact_evaluation(poly, point, unbound):
    terms = _exact_terms(poly, point)
    exact = complex(sum(terms, GaussianRational(0)))
    scale = sum(abs(complex(t)) for t in terms)
    bindings = {s: float(v) for s, v in point.items()}
    got = poly.compile()(bindings)
    assert abs(complex(got) - exact) <= 1e-12 * scale
    real = all(c.im == 0 for c in poly.terms.values())
    assert np.asarray(got).dtype.kind == ("f" if real else "c")
    # arrays broadcast (constants stay scalars) and keep the dtype rule
    constant = not any(any(expo) for expo in poly.terms)
    arr = np.asarray(poly.compile()({s: np.full((2, 1), v) for s, v in bindings.items()}))
    assert arr.shape == (() if constant else (2, 1))
    assert arr.dtype.kind == ("f" if real else "c")
    assert np.all(np.abs(arr - exact) <= 1e-12 * scale)
    assert poly.evaluate(bindings) == got
    del bindings[unbound]
    with pytest.raises(ValueError, match="unbound"):
        poly.evaluate(bindings)


def test_symbol_set_mismatch():
    a = ring("q p")["q"]
    b = ring("q r")["q"]
    with pytest.raises(SymbolMismatch):
        a + b
    with pytest.raises(ValueError):
        a.partial("z")


def test_monomial_division_and_laurent():
    R = ring("m p")
    m, p = R["m"], R["p"]
    kinetic = p * p / (2 * m)
    assert kinetic.render() == "(1/2)*m^-1*p^2"
    assert kinetic.evaluate({"m": 2.0, "p": 4.0}) == 4.0
    with pytest.raises(ValueError, match="monomial"):
        p / (m + p)
    # derivative of a Laurent term
    assert (p / m).partial("m") == -(p / (m * m))


def test_rendering_canonical():
    R = ring("m t q p")
    m, t, q, p = (R[k] for k in "mtqp")
    assert (m * q - t * p).render() == "(1/1)*m*q + (-1/1)*t*p"
    assert CPoly(("q",), {}).render() == "0"


def test_power_and_immutability():
    R = ring("q")
    q = R["q"]
    assert q ** 0 == 1
    assert q ** 3 == q * q * q
    with pytest.raises(ValueError):
        q ** -1
    with pytest.raises(AttributeError):
        q.terms = {}
