"""Relation catalogs for the symbolic verification suites.

Each suite is a list of exact commutator or equality statements over the
generator sets of one formalism: the canonical commutators, the full
Galilei tables for the non-projective (kvn) and projective (kvh)
classical representations, covariance of the interacting two-particle
system, the quantum single-particle algebra, the quantum-classical hybrid
relations, and the partial-quantization identities.  Negative controls
assert that specific broken variants really do fail.

The hybrid total-momentum statement is kept in two forms: the vanishing
commutator [p + k, L_h] = 0 one would expect from the two-particle case
(which does not hold as an operator identity once one particle is
quantized; the suite reports its exact residual) and the corrected
identity [p + k, L_h] = i (d2V/dqdx) lam_p that the algebra actually
yields.  The conservation law survives in expectation on states whose
phase gradient matches the momentum; see the dynamics module.
"""

from __future__ import annotations

from fractions import Fraction

from . import ccr
from .ccr import NCPoly, Relation
from .exactpoly import I, pair_potential


def _eps(i: int, j: int, k: int) -> int:
    return ccr._EPS3.get((i, j, k), 0)


# ---------------------------------------------------------------------------
# canonical commutators
# ---------------------------------------------------------------------------

def base_ccr_suite() -> list:
    """Every unordered generator pair of the single-particle d=1 algebra
    against the commutator table."""
    alg = ccr.single_classical()
    rels = []
    gens = alg.generators
    for i, ga in enumerate(gens):
        for gb in gens[i + 1:]:
            expected = NCPoly(alg, {(): alg.coeff(alg.commutator_scalar(ga, gb))})
            rels.append(Relation(
                rid=f"ccr_[{alg.name(ga)},{alg.name(gb)}]",
                a=alg.from_word((ga,)),
                b=alg.from_word((gb,)),
                expected=expected,
            ))
    return rels


# ---------------------------------------------------------------------------
# one-particle Galilei tables, d = 3
# ---------------------------------------------------------------------------

def galilei_table_suite(formalism: str) -> list:
    """The full d=3 Galilei commutator table for kvn or kvh.

    Identical structure for both; the central charge line distinguishes
    them: [boost_j, translation_i] is 0 for kvn and i*m*delta_ij for kvh.
    """
    alg = ccr.single_classical(dim=3)
    gens = ccr.galilei_generators(alg, formalism)
    T = {a: gens[f"translation_{a}"] for a in range(1, 4)}
    G = {a: gens[f"boost_{a}"] for a in range(1, 4)}
    J = {a: gens[f"rotation_{a}"] for a in range(1, 4)}
    L = gens["time_translation"]
    m = alg.coeff_symbol(alg.particles[0].mass)
    tag = formalism
    rels = []
    for i in range(1, 4):
        for j in range(i + 1, 4):
            rels.append(Relation(f"{tag}_[trans{i},trans{j}]=0", a=T[i], b=T[j],
                                 expected=alg.zero()))
            rels.append(Relation(f"{tag}_[boost{i},boost{j}]=0", a=G[i], b=G[j],
                                 expected=alg.zero()))
            rot = alg.zero()
            for k in range(1, 4):
                e = _eps(i, j, k)
                if e:
                    rot = rot + J[k] * e
            rels.append(Relation(f"{tag}_[rot{i},rot{j}]=i.eps.rot", a=J[i], b=J[j],
                                 expected=rot * I))
    for i in range(1, 4):
        rels.append(Relation(f"{tag}_[rot{i},time]=0", a=J[i], b=L,
                             expected=alg.zero()))
        rels.append(Relation(f"{tag}_[trans{i},time]=0", a=T[i], b=L,
                             expected=alg.zero()))
        rels.append(Relation(f"{tag}_[boost{i},time]=i.trans{i}", a=G[i], b=L,
                             expected=T[i] * I))
        for j in range(1, 4):
            rt = alg.zero()
            rg = alg.zero()
            for k in range(1, 4):
                e = _eps(i, j, k)
                if e:
                    rt = rt + T[k] * e
                    rg = rg + G[k] * e
            rels.append(Relation(f"{tag}_[rot{i},trans{j}]=i.eps.trans", a=J[i], b=T[j],
                                 expected=rt * I))
            rels.append(Relation(f"{tag}_[rot{i},boost{j}]=i.eps.boost", a=J[i], b=G[j],
                                 expected=rg * I))
    # central charge line: the single structural difference
    for i in range(1, 4):
        for j in range(1, 4):
            if formalism == "kvn":
                expected = alg.zero()
                rid = f"kvn_central_charge_[boost{j},trans{i}]=0"
            else:
                expected = (alg.one() * (m * I)) if i == j else alg.zero()
                rid = f"kvh_central_charge_[boost{j},trans{i}]=i.m.delta"
            rels.append(Relation(rid, a=G[j], b=T[i], expected=expected))
    return rels


def kvh_star_pair_suite() -> list:
    """[lam*_q_i, lam*_p_j] = -i delta_ij with lam*_p = lam_p + q (stated form)."""
    alg = ccr.single_classical(dim=3)
    rels = []
    for i in range(1, 4):
        for j in range(1, 4):
            lq = alg.op(f"lam_q{i}")
            lps = alg.op(f"lam_p{j}") + alg.op(f"q{j}")
            expected = (alg.one() * (-I)) if i == j else alg.zero()
            rels.append(Relation(
                f"kvh_[lam*q{i},lam*p{j}]=-i.delta", a=lq, b=lps, expected=expected))
    return rels


# ---------------------------------------------------------------------------
# interacting two-particle system (projective formalism)
# ---------------------------------------------------------------------------

def two_particle_suite() -> list:
    """Covariance conditions of the interacting two-particle system, d=1."""
    alg = ccr.two_classical()
    V = pair_potential(alg.observable_symbols, [("q1", "q2")])
    L = ccr.time_translation(alg, "kvh", V)
    T = ccr.translation_generator(alg)
    G = ccr.boost_generator(alg, "kvh")
    P = ccr.momentum_observable(alg)
    lam_sum = alg.op("lam_q1") + alg.op("lam_q2")
    rels = [
        Relation("two_particle_translation_invariance", a=T, b=L,
                 expected=alg.zero()),
        Relation("two_particle_boost_with_time=i.(lamq1+lamq2)", a=G, b=L,
                 expected=lam_sum * I,
                 note="the residual lam_q sum carries the same factor i "
                      "as the one-particle boost/time relation"),
        Relation("two_particle_total_momentum_conserved", a=P, b=L,
                 expected=alg.zero()),
    ]
    # translation invariance requires a relative potential: V(q1 + q2) fails
    kap = alg.observable("kappa")
    s = alg.observable("q1") + alg.observable("q2")
    Lbad = ccr.time_translation(alg, "kvh", kap * s * s / 2)
    rels.append(Relation(
        "two_particle_nonrelative_potential_breaks_invariance",
        a=T, b=Lbad, expected=alg.zero(), expect_match=False,
        note="negative control: V(q1+q2) is not translation invariant"))
    return rels


def two_particle_rotation_suite() -> list:
    """Scalar pair potential commutes with the total rotations, d=3."""
    alg = ccr.two_classical(dim=3)
    V = pair_potential(alg.observable_symbols,
                       [(f"q1_{i}", f"q2_{i}") for i in range(1, 4)])
    L = ccr.time_translation(alg, "kvh", V)
    return [
        Relation(f"two_particle_scalar_potential_[rot{i},time]=0",
                 a=ccr.rotation_generator(alg, "kvh", i), b=L,
                 expected=alg.zero())
        for i in range(1, 4)
    ]


# ---------------------------------------------------------------------------
# quantum sector
# ---------------------------------------------------------------------------

def quantum_suite() -> list:
    """Single quantum particle, d=1: mass as the central charge."""
    alg = ccr.single_quantum()
    gens = ccr.galilei_generators(alg, "quantum")
    k = gens["translation"]
    g = gens["boost"]
    H = gens["time_translation"]
    m = alg.coeff_symbol("m")
    return [
        Relation("quantum_[x,k]=i", a=alg.op("x"), b=alg.op("k"),
                 expected=alg.one() * I),
        Relation("quantum_central_charge_[boost,trans]=i.m", a=g, b=k,
                 expected=alg.one() * (m * I)),
        Relation("quantum_[boost,time]=i.k", a=g, b=H, expected=k * I),
        Relation("quantum_[trans,time]=0", a=k, b=H, expected=alg.zero()),
    ]


# ---------------------------------------------------------------------------
# quantum-classical hybrid
# ---------------------------------------------------------------------------

def hybrid_suite() -> list:
    alg = ccr.hybrid_pair()
    V = pair_potential(alg.observable_symbols, [("q", "x")])
    L = ccr.time_translation(alg, "hybrid", V)
    T = ccr.translation_generator(alg)          # lam_q + k
    P = ccr.momentum_observable(alg)            # p + k
    G = ccr.boost_generator(alg, "hybrid")
    kap = alg.coeff_symbol("kappa")
    m1 = alg.coeff_symbol("m1")
    m2 = alg.coeff_symbol("m2")
    lam_p = alg.op("lam_p")

    rels = [
        Relation("hybrid_translation_invariance", a=T, b=L, expected=alg.zero()),
        Relation("hybrid_total_momentum_vanishes", a=P, b=L,
                 expected=alg.zero(),
                 note="fails as an operator identity; conserved only in "
                      "expectation on action-matched states, see the "
                      "corrected relation"),
        Relation("hybrid_momentum_commutator_corrected", a=P, b=L,
                 expected=lam_p * (kap * (-I)),
                 note="[p+k, L_h] = i d2V/dqdx lam_p = -i.kappa.lam_p"),
        Relation("hybrid_central_charge=i.(m1+m2)", a=G, b=T,
                 expected=alg.one() * ((m1 + m2) * I)),
    ]

    # neither coupling piece works alone: V multiplication only, or the
    # derivative (force) term only
    L_v_only = L - alg.poisson_rule(V)
    L_kick_only = L - alg.mult_operator(V)
    rels += [
        Relation("hybrid_negcontrol_v_only_momentum", a=P, b=L_v_only,
                 expected=alg.zero(), expect_match=False,
                 note="negative control: multiplication coupling alone"),
        Relation("hybrid_negcontrol_kick_only_momentum", a=P, b=L_kick_only,
                 expected=alg.zero(), expect_match=False,
                 note="negative control: derivative coupling alone"),
        Relation("hybrid_v_only_still_translation_invariant", a=T, b=L_v_only,
                 expected=alg.zero(),
                 note="translation invariance does not imply momentum "
                      "conservation in hybrids"),
    ]
    return rels


def klein_suite() -> list:
    """Partial canonical quantization reproduces the hybrid operators."""
    rels = []

    # free single particle: projective Liouvillian -> quantum kinetic energy
    alg1 = ccr.single_classical()
    L_star = ccr.time_translation(alg1, "kvh")
    qalg = alg1.quantized({1})
    k = qalg.generator("k")
    half_inv_m = qalg.coeff(Fraction(1, 2)) / qalg.coeff_symbol("m")
    rels.append(Relation(
        "klein_free_projective_liouvillian->k^2/2m",
        lhs=ccr.klein_quantize(L_star, {1}),
        expected=qalg.from_word((k, k), half_inv_m)))
    rels.append(Relation(
        "klein_lam_q->k",
        lhs=ccr.klein_quantize(alg1.op("lam_q"), {1}),
        expected=qalg.op("k")))

    # two-particle projective Liouvillian -> hybrid generator
    alg2 = ccr.two_classical()
    V12 = pair_potential(alg2.observable_symbols, [("q1", "q2")])
    L2 = ccr.time_translation(alg2, "kvh", V12)
    halg = ccr.hybrid_pair()
    Lh = ccr.time_translation(halg, "hybrid",
                              pair_potential(halg.observable_symbols, [("q", "x")]))
    rels.append(Relation(
        "klein_two_particle_liouvillian->hybrid",
        lhs=ccr.klein_quantize(L2, {2}), expected=Lh))

    # total boost quantizes to the hybrid boost
    G2 = ccr.boost_generator(alg2, "kvh")
    Gh = ccr.boost_generator(halg, "hybrid")
    rels.append(Relation(
        "klein_total_boost->hybrid_boost",
        lhs=ccr.klein_quantize(G2, {2}), expected=Gh))

    # full quantization of both particles gives the two-body Hamiltonian
    qalg2 = alg2.quantized({1, 2})
    H2 = ccr.time_translation(qalg2, "quantum",
                              pair_potential(qalg2.observable_symbols, [("x1", "x2")]))
    rels.append(Relation(
        "klein_full_quantization->two_body_hamiltonian",
        lhs=ccr.klein_quantize(L2, {1, 2}), expected=H2))
    return rels

# ---------------------------------------------------------------------------
# suite registry used by the CLI and the acceptance tests
# ---------------------------------------------------------------------------

_GROUPS = {
    "kvn": (
        ("canonical commutators (single particle, d=1)", base_ccr_suite),
        ("non-projective Galilei table, d=3", lambda: galilei_table_suite("kvn")),
    ),
    "kvh": (
        ("projective Galilei table, d=3", lambda: galilei_table_suite("kvh")),
        ("projective conjugate pair, d=3", kvh_star_pair_suite),
        ("two-particle covariance, d=1", two_particle_suite),
        ("two-particle rotations, d=3", two_particle_rotation_suite),
    ),
    "hybrid": (
        ("quantum sector, d=1", quantum_suite),
        ("hybrid relations, d=1", hybrid_suite),
        ("partial quantization identities", klein_suite),
    ),
}


def suite_group(name: str) -> list:
    """(title, relations) sections for kvn | kvh | hybrid | all; only the
    requested catalogs are built."""
    if name == "all":
        sections = [s for group in _GROUPS.values() for s in group]
    elif name in _GROUPS:
        sections = _GROUPS[name]
    else:
        raise ValueError(f"unknown suite group {name!r}")
    return [(title, build()) for title, build in sections]
