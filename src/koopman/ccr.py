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
assignment rules that turn phase-space functions f(q, p, x, k) into
Hermitian operators: the Poisson-bracket rule -i{., f}, and the
projective rule that adds the scalar f - p.df/dp, which on quantum
coordinates is multiplication by f(x, k).  Each Galilei generator is one
rule applied to one function (the total momentum, sum m*pos - t*mom,
sum eps*pos_j*mom_k, sum mom^2/2m + V): kvn takes the Poisson rule, and
kvh, hybrid and quantum the projective one.  The module also holds the
partial canonical quantization that turns classical particles into
quantum ones, and an exact relation checker used by the verification
suites.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .exactpoly import _NUMBERS, CPoly, GaussianRational, I, SymbolMismatch, _as_gr

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


# the sectors of the layouts each formalism's rule applies to, and how
# the error message names them
_LAYOUTS = {
    "kvn": ({"classical"}, "an all-classical"),
    "kvh": ({"classical"}, "an all-classical"),
    "hybrid": ({"classical", "quantum"}, "a mixed"),
    "quantum": ({"quantum"}, "an all-quantum"),
}


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
    mass: object  # a central symbol name, or an exact number


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
        masses = list(dict.fromkeys(p.mass for p in self.particles if isinstance(p.mass, str)))
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
        # the phase-space coordinates q, p, x, k, and the symbol set for
        # observables f(q, p, x, k): central parameters first so monomials
        # render as e.g. m*q, kappa*q^2
        self._coordinates = tuple(g for g in gens if g.kind in ("pos", "mom"))
        self.observable_symbols = self.central_symbols + tuple(
            self._names[g] for g in self._coordinates)

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
        for expo, coeff in f.terms.items():
            word = []
            for gid, e in zip(self._coordinates, expo[ncentral:]):
                if e < 0:
                    raise ValueError("negative power of a coordinate symbol")
                word.extend([gid] * e)
            yield tuple(word), CPoly(self.central_symbols, {expo[:ncentral]: coeff})

    def mult_operator(self, f: CPoly) -> "NCPoly":
        """Multiplication by the phase-space function f."""
        return _sum(self, (self.from_word(word, central)
                           for word, central in self._split_observable(f)))

    # -- assignment rules ------------------------------------------------------

    def _classical_pairs(self):
        """(q name, p name, lam_q, lam_p) of every classical particle and axis."""
        for g in self.generators:
            if g.sector == "classical" and g.kind == "pos":
                p = g._replace(kind="mom")
                yield self._names[g], self._names[p], self.conjugate[g], self.conjugate[p]

    def poisson_rule(self, f: CPoly) -> "NCPoly":
        """-i{., f}: the non-projective operator assignment.

        Yields sum_a (df/dp_a) lam_q_a - (df/dq_a) lam_p_a over the
        classical pairs, with the multiplication coefficients left of the
        derivative generators.
        """
        def parts():
            for qname, pname, lamq, lamp in self._classical_pairs():
                for word, central in self._split_observable(f.partial(pname)):
                    yield self.from_word(word + (lamq,), central)
                for word, central in self._split_observable(f.partial(qname)):
                    yield self.from_word(word + (lamp,), -central)
        return _sum(self, parts())

    def prequantum_rule(self, f: CPoly) -> "NCPoly":
        """-i{., f} + f - sum_a p_a df/dp_a: the projective assignment.

        The sum runs over the classical pairs, so on quantum coordinates
        this is multiplication by f(x, k), normal-ordered.
        """
        scalar = f
        for _, pname, _, _ in self._classical_pairs():
            scalar = scalar - CPoly.variable(f.symbols, pname) * f.partial(pname)
        return self.poisson_rule(f) + self.mult_operator(scalar)

    def apply_rule(self, f: CPoly, formalism: str) -> "NCPoly":
        """The operator of the phase-space function f(q, p, x, k): the
        Poisson rule for kvn, the projective rule for kvh, hybrid and
        quantum, on the layouts ``require_layout`` admits."""
        self.require_layout(formalism)
        return self.poisson_rule(f) if formalism == "kvn" else self.prequantum_rule(f)

    def require_layout(self, formalism: str) -> None:
        """ValueError unless the formalism's rule applies to this layout."""
        if formalism not in _LAYOUTS:
            raise ValueError(f"unknown formalism {formalism!r}")
        sectors, layout = _LAYOUTS[formalism]
        if {p.sector for p in self.particles} != sectors:
            raise ValueError(f"{formalism} needs {layout} layout")

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
                if count:       # -i n is a GaussianRational: CPoly's scalar product
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
_SCALARS = (CPoly,) + _NUMBERS


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
            # a number scales every coefficient on CPoly's scalar path
            coeff = self.algebra.coeff(other) if isinstance(other, CPoly) else _as_gr(other)
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


def _phase_space(algebra: Algebra, axis: int):
    """(mass, position, momentum) of each particle along one axis."""
    if not 1 <= axis <= algebra.dim:
        raise ValueError(f"axis {axis} outside 1..{algebra.dim}: "
                         f"the layout has dimension {algebra.dim}")
    obs = algebra.observable
    for n, p in enumerate(algebra.particles, start=1):
        yield (obs(p.mass) if isinstance(p.mass, str) else p.mass,
               obs(algebra.name(GeneratorId(p.sector, "pos", n, axis))),
               obs(algebra.name(GeneratorId(p.sector, "mom", n, axis))))


def _total(algebra: Algebra, parts: Iterable[CPoly]) -> CPoly:
    return sum(parts, CPoly.constant(algebra.observable_symbols, 0))


def _momentum(algebra: Algebra, axis: int) -> CPoly:
    return _total(algebra, (mom for _, _, mom in _phase_space(algebra, axis)))


def time_translation(algebra: Algebra, formalism: str, potential: CPoly | None = None) -> NCPoly:
    """The formalism's rule applied to H = sum mom^2/2m + V.

    V may involve every position; in the hybrid it enters both the
    derivative coupling and the multiplication part.
    """
    H = _total(algebra, (mom * mom / (2 * m)
                         for axis in range(1, algebra.dim + 1)
                         for m, _, mom in _phase_space(algebra, axis)))
    return algebra.apply_rule(H if potential is None else H + potential, formalism)


def translation_generator(algebra: Algebra, axis: int = 1) -> NCPoly:
    """Total spatial translation: the projective rule applied to the total
    momentum, lam_q (classical) plus k (quantum).  The Poisson rule gives
    the same lam_q, so one operator serves every formalism."""
    return algebra.prequantum_rule(_momentum(algebra, axis))


def momentum_observable(algebra: Algebra, axis: int = 1) -> NCPoly:
    """Total momentum observable: multiplication by sum of p and k."""
    return algebra.mult_operator(_momentum(algebra, axis))


def boost_generator(algebra: Algebra, formalism: str, axis: int = 1, t=None) -> NCPoly:
    """Total Galilei boost at time t, the central symbol unless given as an
    exact number: the formalism's rule applied to sum m*pos - t*mom."""
    t = algebra.observable("t") if t is None else t
    return algebra.apply_rule(_total(algebra, (
        m * pos - t * mom for m, pos, mom in _phase_space(algebra, axis)
    )), formalism)


def rotation_generator(algebra: Algebra, formalism: str, axis: int = 3) -> NCPoly:
    """Total rotation about one axis: the formalism's rule applied to
    sum eps pos_j mom_k.  Dim 2 has only the in-plane one, about axis 3."""
    if algebra.dim == 1:
        raise ValueError("rotations require spatial dimension >= 2")
    if axis not in (1, 2, 3):
        raise ValueError(f"rotation axis {axis} outside 1..3: "
                         f"the layout has dimension {algebra.dim}")
    if algebra.dim == 2 and axis != 3:
        raise ValueError("dim 2 has a single rotation generator (axis=3)")
    # (j, k, sign) with eps_{axis j k} = sign, inside the particles' plane
    planar = [(jj, kk, sign) for (i, jj, kk), sign in _EPS3.items()
              if i == axis and jj <= algebra.dim and kk <= algebra.dim]
    return algebra.apply_rule(_total(algebra, (
        sign * pos * mom
        for jj, kk, sign in planar
        for (_, pos, _), (_, _, mom) in zip(_phase_space(algebra, jj),
                                            _phase_space(algebra, kk))
    )), formalism)


def galilei_generators(algebra: Algebra, formalism: str, potential: CPoly | None = None) -> dict:
    """The named generator set for one formalism.

    Keys: translation[_i], boost[_i], rotation[_i] (dim >= 2),
    time_translation.  Errors if the formalism does not match the layout.
    """
    gens = {}
    for axis in range(1, algebra.dim + 1):
        suffix = "" if algebra.dim == 1 else f"_{axis}"
        gens["translation" + suffix] = translation_generator(algebra, axis)
        gens["boost" + suffix] = boost_generator(algebra, formalism, axis)
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
