"""Exact commutative polynomial arithmetic over Gaussian rationals.

This is the coefficient ring for every symbolic operator in the package:
phase-space observables f(q, p), potentials, Lagrangians, and the central
scalars (masses, the time parameter t, coupling constants) that end up on
the right-hand side of commutators.

Coefficients are Gaussian rationals (exact complex numbers with Fraction
real and imaginary parts), so the imaginary unit that appears in every
canonical commutator is represented exactly and nothing is ever rounded.
Monomials carry integer exponents and negative exponents are allowed
(Laurent terms): the streaming coefficient p/m and kinetic terms p**2/(2m)
require 1/m with m kept symbolic.  Division is supported by a nonzero
monomial only.

Polynomials are immutable; equality is structural (canonical form stores
no zero coefficients), and rendering uses a graded-lexicographic term
order so reports are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class GaussianRational:
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        other = _as_gr(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_gr(other))

    def __rsub__(self, other):
        return _as_gr(other) + (-self)

    def __mul__(self, other):
        other = _as_gr(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gr(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _as_gr(other) / self

    def __eq__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction, complex)):
            return NotImplemented
        other = _as_gr(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

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


I = GaussianRational(0, 1)
ONE = GaussianRational(1)
ZERO = GaussianRational(0)


def _as_gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, complex):
        return GaussianRational(Fraction(x.real), Fraction(x.imag))
    if isinstance(x, float):
        return GaussianRational(Fraction(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


class SymbolMismatch(ValueError):
    """Operands live over different declared symbol sets."""


class CPoly:
    """Commutative Laurent polynomial with GaussianRational coefficients.

    ``symbols`` is the declared, ordered symbol set; every exponent tuple in
    ``terms`` has one integer entry per symbol.  Instances are immutable and
    always in canonical form (no zero coefficients stored).
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: tuple, terms: Mapping | None = None):
        object.__setattr__(self, "symbols", tuple(symbols))
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = _as_gr(coeff)
                if len(expo) != len(self.symbols):
                    raise ValueError("exponent tuple length != symbol count")
                if not coeff.is_zero:
                    clean[tuple(int(e) for e in expo)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, symbols, value) -> "CPoly":
        value = _as_gr(value)
        if value.is_zero:
            return cls(symbols)
        return cls(symbols, {(0,) * len(tuple(symbols)): value})

    @classmethod
    def variable(cls, symbols, name: str) -> "CPoly":
        symbols = tuple(symbols)
        if name not in symbols:
            raise ValueError(f"unknown symbol {name!r}")
        expo = [0] * len(symbols)
        expo[symbols.index(name)] = 1
        return cls(symbols, {tuple(expo): ONE})

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return ZERO
        if any(any(expo) for expo in self.terms):
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- ring operations --------------------------------------------------

    def _check(self, other: "CPoly"):
        if self.symbols != other.symbols:
            raise SymbolMismatch(
                f"symbol sets differ: {self.symbols} vs {other.symbols}"
            )

    def _coerce(self, other) -> "CPoly":
        if isinstance(other, CPoly):
            self._check(other)
            return other
        return CPoly.constant(self.symbols, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = terms.get(expo, ZERO) + coeff
            if s.is_zero:
                terms.pop(expo, None)
            else:
                terms[expo] = s
        return CPoly(self.symbols, terms)

    __radd__ = __add__

    def __neg__(self):
        return CPoly(self.symbols, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(expo, ZERO) + c1 * c2
                if s.is_zero:
                    terms.pop(expo, None)
                else:
                    terms[expo] = s
        return CPoly(self.symbols, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = CPoly.constant(self.symbols, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        """Division by a scalar or a nonzero monomial (Laurent shift)."""
        if isinstance(other, CPoly):
            self._check(other)
            if len(other.terms) != 1:
                raise ValueError("CPoly division requires a monomial divisor")
            (dexpo, dcoeff), = other.terms.items()
            terms = {
                tuple(a - b for a, b in zip(e, dexpo)): c / dcoeff
                for e, c in self.terms.items()
            }
            return CPoly(self.symbols, terms)
        other = _as_gr(other)
        return CPoly(self.symbols, {e: c / other for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, complex)):
            other = CPoly.constant(self.symbols, other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.symbols == other.symbols and self.terms == other.terms

    def __hash__(self):
        return hash((self.symbols, frozenset(self.terms.items())))

    # -- calculus / evaluation --------------------------------------------

    def partial(self, name: str) -> "CPoly":
        """Formal partial derivative with respect to one symbol."""
        if name not in self.symbols:
            raise ValueError(f"unknown symbol {name!r}")
        idx = self.symbols.index(name)
        terms: dict = {}
        for expo, coeff in self.terms.items():
            n = expo[idx]
            if n == 0:
                continue
            new = list(expo)
            new[idx] = n - 1
            key = tuple(new)
            s = terms.get(key, ZERO) + coeff * n
            if s.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = s
        return CPoly(self.symbols, terms)

    def conjugate(self) -> "CPoly":
        """Complex-conjugate coefficients; symbols are treated as real."""
        return CPoly(self.symbols, {e: c.conjugate() for e, c in self.terms.items()})

    def evaluate(self, bindings: Mapping[str, object]):
        """Evaluate with every symbol bound (see ``compile``).

        Values may be scalars or numpy arrays (broadcasting applies).
        Raises ValueError for unbound symbols.
        """
        missing = [s for s in self.symbols if s not in bindings]
        if missing:
            raise ValueError(f"unbound symbols: {missing}")
        return self.compile()(bindings)

    def compile(self):
        """Numeric evaluator ``f(bindings)`` for repeated use.

        Coefficients become floats, or complex numbers when some
        imaginary part is nonzero, so real polynomials give real results.
        Terms are summed in the deterministic rendering order, and each
        power of a bound value is computed once per call.
        """
        real = all(c.im == 0 for c in self.terms.values())
        terms = [
            (float(self.terms[expo].re) if real else complex(self.terms[expo]),
             tuple((s, e) for s, e in zip(self.symbols, expo) if e))
            for expo in sorted(self.terms, key=_term_order_key)
        ]
        powers = {f for _, factors in terms for f in factors}

        def evaluate(bindings: Mapping[str, object]):
            table = {(s, e): bindings[s] if e == 1 else bindings[s] ** e
                     for s, e in powers}
            out = 0.0 if real else 0j
            for coeff, factors in terms:
                term = coeff
                for f in factors:
                    term = term * table[f]
                out = out + term
            return out

        return evaluate

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical plain-text form, e.g. ``(1/1)m*q + (-1/1)t*p``."""
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=_term_order_key):
            factors = [
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(self.symbols, expo)
                if e != 0
            ]
            body = "*".join(factors)
            coeff = f"({self.terms[expo]})"
            parts.append(f"{coeff}{'*' + body if body else ''}")
        return " + ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"CPoly({self.render()})"


def _term_order_key(expo: tuple) -> tuple:
    # graded lex, highest degree first, then lexicographically largest first
    return (-sum(expo), tuple(-e for e in expo))
