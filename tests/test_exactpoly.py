import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman import evolve as ev
from koopman.exactpoly import CPoly, GaussianRational, I, SymbolMismatch, _term_order_key
from koopman.grid import Axis, GridSpec


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


def test_equality_and_hash_agree_with_builtin_numbers():
    assert GaussianRational(1) == 1 and hash(GaussianRational(1)) == hash(1)
    assert {GaussianRational(1): "x"}.get(1) == "x"
    assert GaussianRational(1) == 1.0 and GaussianRational(1, -2) == 1 - 2j
    assert GaussianRational(Fraction(1, 2)) == 0.5
    for bad in (math.nan, math.inf, -math.inf, complex(math.inf, 0), complex(0, math.nan)):
        assert GaussianRational(1) != bad and not GaussianRational(1) == bad
    const = CPoly.constant(("q",), 1)
    assert const == 1 and const == 1.0 and hash(const) == hash(1)
    assert CPoly(("q",)) == 0 and hash(CPoly(("q",))) == hash(0)
    assert CPoly.constant(("q",), I) == 1j and hash(CPoly.constant(("q",), I)) == hash(1j)
    assert CPoly.variable(("q",), "q") != 1.0


# exact values whose float forms are exact, large hashes (2^-40, 2^70) that
# overflow the complex-hash combination, and -1, which hashes as -2
_hash_values = st.sampled_from([Fraction(v) for v in (
    0, 1, -1, -3, "1/2", "-5/4", "1/3", "3/1099511627776", 2 ** 70, "7/2")])


def _forms(re, im) -> list:
    """re + im*i as a GaussianRational, a complex, a constant CPoly and,
    when real, as an int (when integral), a Fraction and a float."""
    forms = [GaussianRational(re, im), complex(re, im),
             CPoly.constant(("q",), GaussianRational(re, im))]
    if im == 0:
        forms += [re, float(re)] + ([int(re)] if re.denominator == 1 else [])
    return forms


@settings(max_examples=400, deadline=None)
@given(_hash_values, _hash_values, _hash_values, st.data())
def test_equal_numbers_hash_equal(re, im, other_re, data):
    a = data.draw(st.sampled_from(_forms(re, im)))
    b = data.draw(st.sampled_from(_forms(re, im) + _forms(other_re, im)))
    if a == b:
        assert b == a
        assert hash(a) == hash(b)
        assert {a: "x"}.get(b) == "x"


class _FractionGR:
    """The ring's previous coefficient type, kept as a test oracle: both
    parts always Fractions, every operation through Fraction arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self):
        return _FractionGR(self.re, -self.im)

    def __add__(self, other):
        other = _oracle_as_gr(other)
        return _FractionGR(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _FractionGR(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_oracle_as_gr(other))

    def __rsub__(self, other):
        return _oracle_as_gr(other) + (-self)

    def __mul__(self, other):
        other = _oracle_as_gr(other)
        return _FractionGR(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _oracle_as_gr(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _FractionGR(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _oracle_as_gr(other) / self

    def __eq__(self, other):
        if not isinstance(other, (_FractionGR, int, Fraction, complex)):
            return NotImplemented
        other = _oracle_as_gr(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        # (a/b), (c/d i) or (a/b+c/d i); denominators always shown
        def frac(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        if self.im == 0:
            return frac(self.re)
        if self.re == 0:
            return f"{frac(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{frac(self.re)}{sign}{frac(abs(self.im))}i"


def _oracle_as_gr(x) -> _FractionGR:
    if isinstance(x, _FractionGR):
        return x
    if isinstance(x, (int, Fraction)):
        return _FractionGR(x)
    if isinstance(x, complex):
        return _FractionGR(Fraction(x.real), Fraction(x.imag))
    raise TypeError(f"cannot coerce {type(x).__name__} to _FractionGR")


_parts = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))


@st.composite
def part_pairs(draw):
    """Two rational parts with denominators 1-12; the second is often the
    complement that makes their sum or product an integer, e.g. 1/2 + 1/2."""
    a = draw(_parts)
    k = draw(st.integers(-3, 3))
    return a, draw(st.sampled_from([draw(_parts), k - a, k / a if a else Fraction(k)]))


def _canonical(x) -> bool:
    return type(x) is int if Fraction(x).denominator == 1 else type(x) is Fraction


@settings(max_examples=300, deadline=None)
@given(part_pairs(), part_pairs(), st.sampled_from([2, -3, Fraction(1, 2), Fraction(-5, 3), 2j]))
def test_ring_matches_fraction_oracle(re_pair, im_pair, scalar):
    (ar, br), (ai, bi) = re_pair, im_pair
    a, b = GaussianRational(ar, ai), GaussianRational(br, bi)
    oa, ob = _FractionGR(ar, ai), _FractionGR(br, bi)
    cases = [(a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa),
             (a.conjugate(), oa.conjugate()), (a + scalar, oa + scalar),
             (scalar - a, scalar - oa), (a * scalar, oa * scalar), (a / scalar, oa / scalar)]
    if not ob.is_zero:
        cases += [(a / b, oa / ob), (scalar / b, scalar / ob)]
    for got, want in cases:
        assert got.re == want.re and got.im == want.im
        assert _canonical(got.re) and _canonical(got.im)
        assert str(got) == str(want)
        assert complex(got) == complex(want)
    assert (a == b) == (oa == ob)
    assert (a == ar) == (oa == ar)
    if ob.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b


def _oracle_evaluate(poly, bindings):
    """compile()'s term order and products, with each coefficient
    converted to a float or complex through the Fraction-only oracle."""
    coeffs = {e: _FractionGR(c.re, c.im) for e, c in poly.terms.items()}
    real = all(c.im == 0 for c in coeffs.values())
    out = None
    for expo in sorted(coeffs, key=_term_order_key):
        term = float(coeffs[expo].re) if real else complex(coeffs[expo])
        for s, e in zip(poly.symbols, expo):
            if e:
                term = term * (bindings[s] if e == 1 else bindings[s] ** e)
        out = term if out is None else out + term
    return out


@pytest.mark.parametrize("kind, names", [("harmonic", "q p"), ("quartic", "q1 q2 p1 p2"),
                                         ("pair", "q1 q2 p1 p2"), ("hybrid_pair", "q p x")])
def test_compile_of_potentials_matches_fraction_oracle(kind, names):
    grid = GridSpec(tuple(Axis(n, -4.0, 8.0, 8) for n in names.split()))
    V = ev.make_potential(kind, grid, {"kappa": 1.3, "alpha": 0.7}).cpoly
    rng = np.random.default_rng(17)
    bindings = {s: rng.normal(size=(3, 4)) for s in V.symbols}
    for poly in (V, V.partial(V.symbols[-1]), V * GaussianRational(Fraction(1, 3), -2)):
        assert np.array_equal(poly.compile()(bindings), _oracle_evaluate(poly, bindings))


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
    # negation is exact, so the negated polynomial gives the negated value
    # (== rather than bytes: an exact cancellation may differ in the sign of 0)
    assert (-poly).compile()(bindings) == -got
    assert np.array_equal((-poly).compile()({s: np.full((2, 1), v) for s, v in bindings.items()}),
                          -arr)
    # the sum starts from the first term: 0.0 for no terms, the float for a constant
    zero = CPoly(SYMBOLS, {}).compile()(bindings)
    assert zero == 0.0 and type(zero) is float
    constant_only = CPoly(SYMBOLS, {(0, 0, 0): GaussianRational(point["q"])}).compile()
    assert constant_only(bindings) == float(point["q"])
    assert type(constant_only(bindings)) is float
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
