"""Noncommutative operator algebra with central canonical commutators.

Generators are, per classical particle and axis, the multiplication
operators q, p and the derivative operators lam_q = -i d/dq,
lam_p = -i d/dp; quantum particles carry x (multiplication) and
k = -i d/dx.  The only nonzero commutators are

    [q, lam_q] = [p, lam_p] = [x, k] = i        (same particle and axis)

so every operator has a normal form: words are sorted in a fixed total
order, with the multiplication generators to the left of the derivative
generators, and structural equality of normal forms is operator equality.

On top of the normal-ordered arithmetic this module provides the two
assignment rules that turn phase-space functions into Hermitian operators
(the Poisson-bracket rule and its variant with the added scalar
f - p.df/dp), the Galilei generator sets built from them, the partial
canonical quantization that turns classical particles into quantum ones,
and an exact relation checker used by the verification suites.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactpoly import CPoly, GaussianRational, I, SymbolMismatch

# (sector, kind, base name) in normal order: the multiplication operators,
# then the derivative operators in the same order, so the i-th derivative
# kind is conjugate to the i-th multiplication kind.  Keeping the whole
# multiplication class to the left means that the products born from the
# assignment rules are already ordered.
_KINDS = (
    ("classical", "pos", "q"),
    ("classical", "mom", "p"),
    ("quantum", "pos", "x"),
    ("classical", "lam_pos", "lam_q"),
    ("classical", "lam_mom", "lam_p"),
    ("quantum", "mom", "k"),
)
_BASE_NAMES = {(sector, kind): base for sector, kind, base in _KINDS}


class GeneratorId(namedtuple("GeneratorId", "sector kind particle axis")):
    """A letter of a word (see _KINDS): a validated tuple, hashed in C."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace validates too

    def __new__(cls, sector, kind, particle, axis):
        if sector not in ("classical", "quantum"):
            raise ValueError(f"bad sector {sector!r}")
        if (sector, kind) not in _BASE_NAMES:
            raise ValueError(f"bad kind {kind!r} for sector {sector!r}")
        if particle < 1 or axis < 1:
            raise ValueError("particle and axis indices are 1-based")
        return super().__new__(cls, sector, kind, particle, axis)


@dataclass(frozen=True)
class ParticleSpec:
    sector: str
    dim: int
    mass: str  # central symbol name


class Algebra:
    """A fixed particle layout, its generators in normal order, and their
    conjugate pairs."""

    def __init__(self, particles: Sequence[ParticleSpec], constants: Iterable[str] = ()):
        self.particles = tuple(particles)
        if not self.particles:
            raise ValueError("empty particle layout")
        dims = {p.dim for p in self.particles}
        if len(dims) != 1:
            raise ValueError("all particles must share one spatial dimension")
        self.dim = dims.pop()
        if self.dim not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")
        masses = []
        for p in self.particles:
            if p.mass not in masses:
                masses.append(p.mass)
        self.central_symbols = tuple(masses) + ("t",) + tuple(
            c for c in constants if c not in masses and c != "t"
        )
        gens = tuple(
            GeneratorId(sector, kind, n, axis)
            for sector, kind, _ in _KINDS
            for n, p in enumerate(self.particles, start=1) if p.sector == sector
            for axis in range(1, self.dim + 1)
        )
        # every particle has as many derivative kinds as multiplication
        # kinds, so the first half of the normal order multiplies and the
        # second half lists the conjugate derivatives in the same order
        half = len(gens) // 2
        self.generators = gens
        self.rank = {g: i for i, g in enumerate(gens)}
        self.conjugate = dict(zip(gens, gens[half:] + gens[:half]))
        self._names = {g: self._make_name(g) for g in gens}
        self._by_name = {v: k for k, v in self._names.items()}
        self.mult_symbols = tuple(self._names[g] for g in gens[:half])
        # symbol set for phase-space observables f(q, p[, x]); central
        # parameters first so monomials render as e.g. m*q, kappa*q^2
        self.observable_symbols = self.central_symbols + self.mult_symbols

    # -- naming ----------------------------------------------------------

    def _make_name(self, g: GeneratorId) -> str:
        base = _BASE_NAMES[(g.sector, g.kind)]
        in_sector = sum(1 for p in self.particles if p.sector == g.sector)
        suffix = ""
        if in_sector > 1 and self.dim > 1:
            suffix = f"{g.particle}_{g.axis}"
        elif in_sector > 1:
            suffix = str(g.particle)
        elif self.dim > 1:
            suffix = str(g.axis)
        return base + suffix

    def name(self, g: GeneratorId) -> str:
        return self._names[g]

    def generator(self, name: str) -> GeneratorId:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"no generator named {name!r}") from None

    # -- commutators --------------------------------------------------------

    def commutator_scalar(self, a: GeneratorId, b: GeneratorId) -> GaussianRational:
        """Central scalar [a, b]; only conjugate pairs are nonzero, and
        [x, d] = i when the multiplication generator x ranks first."""
        if self.conjugate.get(a) != b:
            return GaussianRational(0)
        return I if self.rank[a] < self.rank[b] else -I

    # -- element constructors -----------------------------------------------

    def coeff(self, value) -> CPoly:
        if isinstance(value, CPoly):
            if value.symbols != self.central_symbols:
                raise SymbolMismatch("coefficient over wrong symbol set")
            return value
        return CPoly.constant(self.central_symbols, value)

    def coeff_symbol(self, name: str) -> CPoly:
        return CPoly.variable(self.central_symbols, name)

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(): self.coeff(1)})

    def op(self, name: str, coeff=1) -> "NCPoly":
        """Single-generator operator by name, e.g. algebra.op("lam_q")."""
        return self.from_word((self.generator(name),), coeff)

    def from_word(self, word: Sequence[GeneratorId], coeff=1) -> "NCPoly":
        return normal_order(self, tuple(word), self.coeff(coeff))

    def observable(self, name: str) -> CPoly:
        """Coordinate or central symbol as a phase-space polynomial."""
        return CPoly.variable(self.observable_symbols, name)

    # -- embedding of multiplication operators -------------------------------

    def _split_observable(self, f: CPoly):
        if f.symbols != self.observable_symbols:
            raise SymbolMismatch("observable over wrong symbol set")
        ncentral = len(self.central_symbols)
        coord_gids = [self.generator(s) for s in self.mult_symbols]
        for expo, coeff in f.terms.items():
            word = []
            for gid, e in zip(coord_gids, expo[ncentral:]):
                if e < 0:
                    raise ValueError("negative power of a coordinate symbol")
                word.extend([gid] * e)
            central = CPoly(
                self.central_symbols,
                {tuple(expo[:ncentral]): coeff},
            )
            yield tuple(word), central

    def mult_operator(self, f: CPoly) -> "NCPoly":
        """Multiplication by the phase-space function f."""
        return _sum(self, (self.from_word(word, central)
                           for word, central in self._split_observable(f)))

    # -- assignment rules ------------------------------------------------------

    def _classical_pairs(self):
        for n, p in enumerate(self.particles, start=1):
            if p.sector != "classical":
                continue
            for axis in range(1, p.dim + 1):
                yield (
                    self._names[GeneratorId("classical", "pos", n, axis)],
                    self._names[GeneratorId("classical", "mom", n, axis)],
                    GeneratorId("classical", "lam_pos", n, axis),
                    GeneratorId("classical", "lam_mom", n, axis),
                )

    def poisson_rule(self, f: CPoly) -> "NCPoly":
        """-i{., f}: the non-projective operator assignment.

        Yields sum_a (df/dp_a) lam_q_a - (df/dq_a) lam_p_a with the
        multiplication coefficients left of the derivative generators.
        """
        def parts():
            for qname, pname, lamq, lamp in self._classical_pairs():
                for word, central in self._split_observable(f.partial(pname)):
                    yield self.from_word(word + (lamq,), central)
                for word, central in self._split_observable(f.partial(qname)):
                    yield self.from_word(word + (lamp,), -central)
        return _sum(self, parts())

    def prequantum_rule(self, f: CPoly) -> "NCPoly":
        """-i{., f} + f - sum_a p_a df/dp_a: the projective assignment."""
        scalar = f
        for _, pname, _, _ in self._classical_pairs():
            scalar = scalar - CPoly.variable(f.symbols, pname) * f.partial(pname)
        return self.poisson_rule(f) + self.mult_operator(scalar)

    def apply_rule(self, f: CPoly, formalism: str) -> "NCPoly":
        if formalism == "kvn":
            return self.poisson_rule(f)
        if formalism == "kvh":
            return self.prequantum_rule(f)
        raise ValueError(f"unknown classical rule {formalism!r}")

    # -- partial quantization ----------------------------------------------------

    def quantized(self, targets: Iterable[int]) -> "Algebra":
        targets = set(targets)
        parts = []
        for n, p in enumerate(self.particles, start=1):
            if n in targets:
                if p.sector != "classical":
                    raise ValueError(f"particle {n} is not classical")
                parts.append(ParticleSpec("quantum", p.dim, p.mass))
            else:
                parts.append(p)
        extra = [
            c for c in self.central_symbols
            if c != "t" and c not in {p.mass for p in self.particles}
        ]
        return Algebra(parts, constants=extra)


def normal_order(algebra: Algebra, word: tuple, coeff: CPoly) -> "NCPoly":
    """Rewrite coeff*word into normal form.

    The longest sorted prefix is kept; the remaining letters are then
    multiplied in from the right, each into its sorted place.  Only a
    multiplication letter x can fail to commute on the way, with its
    conjugate derivative d, and d^n x = x d^n - i n d^(n-1): the one-letter
    case of d^a x^b = sum_k C(a,k) C(b,k) k! (-i)^k x^(b-k) d^(a-k).
    """
    word = tuple(word)
    rank, conjugate = algebra.rank, algebra.conjugate
    key = rank.__getitem__
    n = 1
    while n < len(word) and key(word[n - 1]) <= key(word[n]):
        n += 1
    acc = {word[:n]: coeff}
    for x in word[n:]:
        rx, d = rank[x], conjugate[x]
        rd = rank[d]
        terms, acc = acc, {}
        for w, c in terms.items():
            i = bisect_right(w, rx, key=key)
            _add_term(acc, w[:i] + (x,) + w[i:], c)
            if rx < rd:
                lo = bisect_left(w, rd, key=key)
                count = bisect_right(w, rd, lo=lo, key=key) - lo
                if count:
                    _add_term(acc, w[:lo] + w[lo + 1:], c * (-count * I))
    return NCPoly(algebra, acc)


def _add_term(acc: dict, word: tuple, coeff: CPoly) -> None:
    prev = acc.get(word)
    acc[word] = coeff if prev is None else prev + coeff


def _sum(algebra: Algebra, parts: Iterable["NCPoly"]) -> "NCPoly":
    """Sum of operators, accumulated in one dict."""
    acc: dict = {}
    for part in parts:
        for w, c in part.terms.items():
            _add_term(acc, w, c)
    return NCPoly(algebra, acc)


# what multiplies an NCPoly as a central coefficient, converted exactly
_SCALARS = (CPoly, GaussianRational, int, Fraction, float, complex)


class NCPoly:
    """Normal-ordered noncommutative polynomial over central CPoly coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: Mapping):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "NCPoly"):
        if self.algebra is not other.algebra and (
            self.algebra.particles != other.algebra.particles
            or self.algebra.central_symbols != other.algebra.central_symbols
        ):
            raise ValueError("operands belong to different algebras")

    def _coerce(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            self._check(other)
            return other
        return NCPoly(self.algebra, {(): self.algebra.coeff(other)})

    def __add__(self, other):
        return _sum(self.algebra, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            coeff = self.algebra.coeff(other)
            return NCPoly(self.algebra, {w: c * coeff for w, c in self.terms.items()})
        other = self._coerce(other)
        return _sum(self.algebra, (
            normal_order(self.algebra, w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__      # only scalars reach it, and they are central

    def commutator(self, other: "NCPoly") -> "NCPoly":
        """[self, other], summed over the word pairs that do not commute.

        Two words commute when no letter of one is the conjugate of a
        letter of the other; coefficients are central, so such a pair
        adds c*(w1 w2 - w2 w1) = 0 exactly and is skipped.  Every other
        pair is normal-ordered both ways with one product coefficient.
        """
        other = self._coerce(other)
        alg = self.algebra
        conjugate = alg.conjugate

        def parts():
            for w1, c1 in self.terms.items():
                partners = {conjugate[g] for g in w1}
                for w2, c2 in other.terms.items():
                    if partners.isdisjoint(w2):
                        continue
                    c = c1 * c2
                    yield normal_order(alg, w1 + w2, c)
                    yield normal_order(alg, w2 + w1, -c)
        return _sum(alg, parts())

    def adjoint(self) -> "NCPoly":
        """Reverse words, conjugate coefficients, re-normal-order.

        Every generator is self-adjoint, so this is the full dagger.
        """
        return _sum(self.algebra, (
            normal_order(self.algebra, w[::-1], c.conjugate())
            for w, c in self.terms.items()
        ))

    def __eq__(self, other):
        if isinstance(other, _SCALARS):     # as its coefficient, by CPoly's rules
            return self.is_central() and self.central_part() == other
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        if self.is_central():       # a central operator equals its coefficient
            return hash(self.central_part())
        return hash(frozenset(self.terms.items()))

    def central_part(self) -> CPoly:
        """Coefficient of the identity word."""
        return self.terms.get((), self.algebra.coeff(0))

    def is_central(self) -> bool:
        return all(w == () for w in self.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        alg = self.algebra

        def word_key(w):
            return (-len(w), tuple(alg.rank[g] for g in w))

        parts = []
        for w in sorted(self.terms, key=word_key):
            factors = []
            for g in w:
                name = alg.name(g)
                if factors and factors[-1][0] == name:
                    factors[-1][1] += 1
                else:
                    factors.append([name, 1])
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors)
            coeff = self.terms[w].render()
            if len(self.terms[w].terms) > 1:
                coeff = f"({coeff})"
            parts.append(f"{coeff}{'*' + body if body else ''}")
        return " + ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"NCPoly({self.render()})"


# ---------------------------------------------------------------------------
# standard layouts
# ---------------------------------------------------------------------------

def single_classical(dim: int = 1) -> Algebra:
    return Algebra([ParticleSpec("classical", dim, "m")])


def two_classical(dim: int = 1) -> Algebra:
    return Algebra([ParticleSpec("classical", dim, "m1"),
                    ParticleSpec("classical", dim, "m2")], ("kappa",))


def single_quantum(dim: int = 1) -> Algebra:
    return Algebra([ParticleSpec("quantum", dim, "m")])


def hybrid_pair(dim: int = 1) -> Algebra:
    """Classical particle 1 tensor quantum particle 2."""
    return Algebra([ParticleSpec("classical", dim, "m1"),
                    ParticleSpec("quantum", dim, "m2")], ("kappa",))


# ---------------------------------------------------------------------------
# Galilei generators
# ---------------------------------------------------------------------------

_EPS3 = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1,
}


def _axis_names(algebra: Algebra, particle: int, base_kind: str):
    p = algebra.particles[particle - 1]
    return [
        algebra.name(GeneratorId(p.sector, base_kind, particle, axis))
        for axis in range(1, p.dim + 1)
    ]


def free_hamiltonian(algebra: Algebra) -> CPoly:
    """sum_a p_a^2 / 2 m_a over classical particles, k-free (kinetic only)."""
    H = CPoly.constant(algebra.observable_symbols, 0)
    for n, p in enumerate(algebra.particles, start=1):
        if p.sector != "classical":
            continue
        m = CPoly.variable(algebra.observable_symbols, p.mass)
        for pname in _axis_names(algebra, n, "mom"):
            pv = CPoly.variable(algebra.observable_symbols, pname)
            H = H + pv * pv / (2 * m)
    return H


def quantum_kinetic(algebra: Algebra) -> NCPoly:
    """sum over quantum particles of k^2 / 2m as a normal-ordered operator."""
    def parts():
        for n, p in enumerate(algebra.particles, start=1):
            if p.sector == "quantum":
                minv = algebra.coeff(Fraction(1, 2)) / algebra.coeff_symbol(p.mass)
                for axis in range(1, p.dim + 1):
                    k = GeneratorId("quantum", "mom", n, axis)
                    yield algebra.from_word((k, k), minv)
    return _sum(algebra, parts())


def time_translation(algebra: Algebra, formalism: str, potential: CPoly | None = None) -> NCPoly:
    """The evolution generator for the requested formalism.

    kvn / kvh: the assignment rule applied to H = sum p^2/2m + V.
    hybrid: the kvh rule over the classical sector plus the quantum
    kinetic term; V may involve quantum positions (it enters both the
    derivative-coupling and the multiplication part).
    quantum: kinetic plus multiplication by V(x).
    """
    H = free_hamiltonian(algebra)
    if potential is not None:
        H = H + potential
    if formalism in ("kvn", "kvh"):
        return algebra.apply_rule(H, formalism)
    if formalism == "hybrid":
        return algebra.prequantum_rule(H) + quantum_kinetic(algebra)
    if formalism == "quantum":
        out = quantum_kinetic(algebra)
        if potential is not None:
            out = out + algebra.mult_operator(potential)
        return out
    raise ValueError(f"unknown formalism {formalism!r}")


def translation_generator(algebra: Algebra, axis: int = 1) -> NCPoly:
    """Total spatial translation: sum of lam_q (classical) and k (quantum),
    the derivatives conjugate to the positions."""
    return _sum(algebra, (
        algebra.from_word((algebra.conjugate[GeneratorId(p.sector, "pos", n, axis)],))
        for n, p in enumerate(algebra.particles, start=1)
    ))


def momentum_observable(algebra: Algebra, axis: int = 1) -> NCPoly:
    """Total momentum observable: sum of p (classical) and k (quantum)."""
    return _sum(algebra, (
        algebra.from_word((GeneratorId(p.sector, "mom", n, axis),))
        for n, p in enumerate(algebra.particles, start=1)
    ))


def boost_generator(algebra: Algebra, formalism: str, axis: int = 1) -> NCPoly:
    """Total Galilei boost at symbolic time t.

    Classical particles contribute the assignment rule applied to
    m*q - t*p; quantum ones contribute m*x - t*k directly.
    """
    rule = "kvn" if formalism == "kvn" else "kvh"
    tsym = algebra.coeff_symbol("t")

    def parts():
        for n, p in enumerate(algebra.particles, start=1):
            if p.sector == "classical":
                qname = algebra.name(GeneratorId("classical", "pos", n, axis))
                pname = algebra.name(GeneratorId("classical", "mom", n, axis))
                g = (
                    algebra.observable(p.mass) * algebra.observable(qname)
                    - algebra.observable("t") * algebra.observable(pname)
                )
                yield algebra.apply_rule(g, rule)
            else:
                x = GeneratorId("quantum", "pos", n, axis)
                k = GeneratorId("quantum", "mom", n, axis)
                yield algebra.from_word((x,), algebra.coeff_symbol(p.mass))
                yield algebra.from_word((k,), -tsym)
    return _sum(algebra, parts())


def rotation_generator(algebra: Algebra, formalism: str, axis: int = 3) -> NCPoly:
    """Total rotation generator about one axis (dim >= 2 only).

    For dim == 2 only the single in-plane generator (axis 3 pattern
    restricted to axes 1, 2) exists.
    """
    if algebra.dim == 1:
        raise ValueError("rotations require spatial dimension >= 2")
    if algebra.dim == 2 and axis != 3:
        raise ValueError("dim 2 has a single rotation generator (axis=3)")
    rule = "kvn" if formalism == "kvn" else "kvh"
    # (j, k, sign) with eps_{axis j k} = sign, inside the particles' plane
    planar = [(jj, kk, sign) for (i, jj, kk), sign in _EPS3.items()
              if i == axis and jj <= algebra.dim and kk <= algebra.dim]

    def parts():
        for n, p in enumerate(algebra.particles, start=1):
            if p.sector == "classical":
                qn = _axis_names(algebra, n, "pos")
                pn = _axis_names(algebra, n, "mom")
                j = CPoly.constant(algebra.observable_symbols, 0)
                for jj, kk, sign in planar:
                    j = j + sign * (
                        CPoly.variable(algebra.observable_symbols, qn[jj - 1])
                        * CPoly.variable(algebra.observable_symbols, pn[kk - 1])
                    )
                yield algebra.apply_rule(j, rule)
            else:
                for jj, kk, sign in planar:
                    x = GeneratorId("quantum", "pos", n, jj)
                    k = GeneratorId("quantum", "mom", n, kk)
                    yield algebra.from_word((x, k), sign)
    return _sum(algebra, parts())


def galilei_generators(algebra: Algebra, formalism: str, potential: CPoly | None = None) -> dict:
    """The named generator set for one formalism.

    Keys: translation[_i], boost[_i], rotation[_i] (dim >= 2),
    time_translation.  Errors if the formalism does not match the layout.
    """
    sectors = {p.sector for p in algebra.particles}
    if formalism in ("kvn", "kvh") and sectors != {"classical"}:
        raise ValueError(f"{formalism} needs an all-classical layout")
    if formalism == "quantum" and sectors != {"quantum"}:
        raise ValueError("quantum needs an all-quantum layout")
    if formalism == "hybrid" and sectors != {"classical", "quantum"}:
        raise ValueError("hybrid needs a mixed layout")

    def key(base, axis):
        return base if algebra.dim == 1 else f"{base}_{axis}"

    gens = {}
    for axis in range(1, algebra.dim + 1):
        gens[key("translation", axis)] = translation_generator(algebra, axis)
        gens[key("boost", axis)] = boost_generator(algebra, formalism, axis)
    if algebra.dim == 3:
        for axis in range(1, 4):
            gens[f"rotation_{axis}"] = rotation_generator(algebra, formalism, axis)
    elif algebra.dim == 2:
        gens["rotation"] = rotation_generator(algebra, formalism, 3)
    gens["time_translation"] = time_translation(algebra, formalism, potential)
    return gens


# ---------------------------------------------------------------------------
# Klein partial quantization
# ---------------------------------------------------------------------------

def klein_quantize(a: NCPoly, targets: Iterable[int]) -> NCPoly:
    """Quantize the target classical particles of a normal-ordered operator.

    Step 1 deletes every word containing a target lam_p (states no longer
    depend on that momentum coordinate); step 2 substitutes, left to right
    within each canonical word, p -> k, q -> x, lam_q -> k, and the result
    is re-normal-ordered in the enlarged algebra.
    """
    targets = set(targets)
    alg = a.algebra
    for n in targets:
        if n < 1 or n > len(alg.particles):
            raise ValueError(f"no particle {n}")
        if alg.particles[n - 1].sector != "classical":
            raise ValueError(f"particle {n} is not classical")
    new_alg = alg.quantized(targets)

    def subst(g: GeneratorId) -> GeneratorId:
        if g.particle not in targets:
            return g
        if g.kind == "pos":
            return GeneratorId("quantum", "pos", g.particle, g.axis)
        if g.kind in ("mom", "lam_pos"):
            return GeneratorId("quantum", "mom", g.particle, g.axis)
        raise AssertionError("lam_mom words are deleted before substitution")

    return _sum(new_alg, (
        normal_order(new_alg, tuple(subst(g) for g in word),
                     CPoly(new_alg.central_symbols, coeff.terms))
        for word, coeff in a.terms.items()
        if not any(g.kind == "lam_mom" and g.particle in targets for g in word)
    ))


# ---------------------------------------------------------------------------
# relation checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """One exact operator statement to verify.

    Either a commutator statement [a, b] = expected, or a direct equality
    lhs = expected (used e.g. for the partial-quantization identities).
    ``expect_match=False`` marks a negative control: the check passes
    only if the statement does NOT hold.
    """
    rid: str
    expected: NCPoly
    a: NCPoly | None = None
    b: NCPoly | None = None
    lhs: NCPoly | None = None
    expect_match: bool = True
    note: str = ""

    def left_side(self) -> NCPoly:
        if self.lhs is not None:
            return self.lhs
        if self.a is None or self.b is None:
            raise ValueError(f"relation {self.rid}: need either lhs or (a, b)")
        return self.a.commutator(self.b)


@dataclass(frozen=True)
class RelationResult:
    rid: str
    passed: bool
    expect_match: bool
    residual: str  # canonical rendering; "0" on exact match
    note: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> tuple:
        passed = sum(1 for r in self.results if r.passed)
        return passed, len(self.results)

    def lines(self) -> list:
        out = []
        for r in self.results:
            tag = "" if r.expect_match else "  [negative control]"
            note = f"   ({r.note})" if r.note else ""
            out.append(f"{r.status}  {r.rid}  residual={r.residual}{tag}{note}")
        p, n = self.counts
        out.append(f"{'PASS' if self.all_passed else 'FAIL'} {p}/{n} relations")
        return out

    def csv_rows(self) -> list:
        return [(r.rid, r.status, r.residual) for r in self.results]


def verify_algebra(relations: Sequence[Relation]) -> VerificationReport:
    """Exact pass/fail for a list of commutator statements.

    Failures are results, not errors; residuals are rendered canonically.
    """
    report = VerificationReport()
    for rel in relations:
        residual = rel.left_side() - rel.expected
        matched = residual.is_zero
        passed = matched if rel.expect_match else not matched
        report.results.append(
            RelationResult(rel.rid, passed, rel.expect_match, residual.render(), rel.note)
        )
    return report
