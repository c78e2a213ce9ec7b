import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman import ccr
from koopman import galilei as ga
from koopman.evolve import layout
from koopman.grid import Axis, GridSpec, gaussian_init, norm


def make_grid(n=128, lo=-8.0, ext=16.0):
    return GridSpec((Axis("q", lo, ext, n), Axis("p", lo, ext, n)))


GRID = make_grid()
W = gaussian_init(GRID, centers=(0.3, -0.4), widths=(1.0, 0.7))
_alg = lambda m: layout(GRID, [m], "kvh")     # kvn fits the same layout
ALG = _alg(1.0)
# a quantum-classical pair: one (q, p) pair and one x axis
HYBRID = GridSpec((Axis("q", -8.0, 16.0, 64), Axis("p", -8.0, 16.0, 64),
                   Axis("x", -8.0, 16.0, 64)))
W_HYBRID = gaussian_init(HYBRID, centers=(0.3, -0.4, -0.2), widths=(1.0, 1.0, 1.0))


def test_translation_by_one_spacing_is_cyclic_shift():
    a = GRID.axis("q").spacing
    got = ga.act(ga.translation(a, ALG), W)
    assert np.max(np.abs(got.values - np.roll(W.values, 1, axis=0))) <= 1e-12


def test_boost_shifts_momentum_marginal():
    m, v = 1.0, 0.8
    got = ga.act(ga.boost(v, 0.0, "kvn", _alg(m)), W)
    mean = np.sum(np.abs(got.values) ** 2 * GRID.coordinate("p")) * GRID.cell_weight
    assert mean == pytest.approx(-0.4 + m * v, abs=1e-8)


def test_projective_boost_same_density_extra_phase():
    v, m = 1.1, 1.0
    plain = ga.act(ga.boost(v, 0.0, "kvn", _alg(m)), W)
    proj = ga.act(ga.boost(v, 0.0, "kvh", _alg(m)), W)
    assert np.max(np.abs(np.abs(plain.values) ** 2
                         - np.abs(proj.values) ** 2)) <= 1e-12
    mask = np.abs(plain.values) > 1e-6 * np.abs(plain.values).max()
    q = GRID.coordinate("q")
    rel = proj.values * np.conj(plain.values) * np.exp(-1j * m * v * q)
    assert np.max(np.abs(np.angle(rel)[mask])) <= 1e-10


def test_acts_are_unitary_and_invertible():
    # each element with its inverse; the boost inverse negates v at the
    # same evaluation time, so the kvh boost phase must undo itself
    for g, inverse in (
            (ga.translation(0.37, ALG), ga.translation(-0.37, ALG)),
            (ga.boost(0.9, 0.7, "kvh", _alg(1.3)), ga.boost(-0.9, 0.7, "kvh", _alg(1.3))),
            (ga.free_time(0.45, "kvh", _alg(0.8)), ga.free_time(-0.45, "kvh", _alg(0.8)))):
        out = ga.act(g, W)
        assert abs(norm(out) - 1.0) <= 1e-12
        back = ga.act(inverse, out)
        assert np.max(np.abs(back.values - W.values)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(formalism=st.sampled_from(["kvn", "kvh"]), m=st.floats(0.5, 2.0),
       a=st.floats(-0.8, 0.8), v=st.floats(-0.75, 0.75), t=st.floats(-1.0, 1.0))
def test_acts_match_closed_form_at_shifted_points(formalism, m, a, v, t):
    # shifts of at most 0.8 in q and 1.5 in p keep the tail of W that
    # wraps round the periodic grid below 1e-10 (3e-11 at the corners)
    q, p = GRID.coordinate("q"), GRID.coordinate("p")
    at = lambda dq, dp: np.broadcast_to(W.closed_form({"q": q - dq, "p": p - dp}),
                                        GRID.shape)
    boosted = at(v * t, m * v)
    if formalism == "kvh":
        boosted = boosted * np.exp(1j * (m * q * v - m * t * v ** 2 / 2))
    for g, expect in ((ga.translation(a, _alg(m)), at(a, 0.0)),
                      (ga.boost(v, t, formalism, _alg(m)), boosted)):
        assert np.max(np.abs(ga.act(g, W).values - expect)) <= 1e-10


def test_group_element_validation():
    with pytest.raises(ValueError, match="finite"):
        ga.translation(np.inf, ALG)
    with pytest.raises(ValueError, match="finite"):
        ga.boost(0.5, np.nan, "kvh", ALG)
    for mass in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="masses must be positive and finite"):
            _alg(mass)
    with pytest.raises(ValueError, match="one mass per classical pair"):
        layout(GRID, [1.0, 1.0], "kvh")
    # runs take kvn, kvh or hybrid, with a rule that fits the layout
    for formalism, needle in (("quantum", "unknown formalism 'quantum'"),
                              ("hybrid", "hybrid needs a mixed layout")):
        with pytest.raises(ValueError, match=needle):
            layout(GRID, [1.0], formalism)
    with pytest.raises(ValueError, match="unknown formalism 'magic'"):
        ga.free_time(0.5, "magic", ALG)
    for formalism, needs in (("hybrid", "a mixed"), ("quantum", "an all-quantum")):
        with pytest.raises(ValueError, match=f"{formalism} needs {needs} layout"):
            ga.free_time(0.5, formalism, ALG)


def test_act_refuses_what_it_cannot_exponentiate():
    # q lam_q multiplies and differentiates along q; p lam_q + q^2 splits,
    # but [p lam_q, q^2] = -2i p q is not central: no exact grid flow
    alg = ccr.single_classical()
    q, p, lam_q = (alg.op(n) for n in ("q", "p", "lam_q"))
    for x in (q * lam_q, p * lam_q + q * q):
        with pytest.raises(ValueError, match="no exact grid flow"):
            ga.act(x, W)
    # an exponent of one classical particle does not act on a grid with an x axis
    grid = GridSpec(GRID.axes + (Axis("x", -8.0, 16.0, 8),))
    w = gaussian_init(grid, centers=(0.3, -0.4, 0.0), widths=(1.0, 0.7, 6.0))
    with pytest.raises(ValueError, match="do not match the exponent's particle layout"):
        ga.act(ga.translation(0.5, ALG), w)


def test_weyl_phase_plain_representation_commutes():
    ph, res, _ = ga.weyl_phase(ga.boost(1.3, 0.0, "kvn", ALG), ga.translation(0.7, ALG), W)
    assert abs(ph - 1.0) <= 1e-8
    assert res <= 1e-8
    assert ga.predicted_weyl_phase(ga.boost(1.3, 0.0, "kvn", ALG),
                                   ga.translation(0.7, ALG)) == 1.0


def test_weyl_phase_projective_is_mass_times_area():
    g1, g2 = ga.boost(1.3, 0.0, "kvh", ALG), ga.translation(0.7, ALG)
    ph, res, _ = ga.weyl_phase(g1, g2, W)
    assert res <= 1e-8
    assert np.angle(ph) == pytest.approx(0.91, abs=1e-10)
    pred = ga.predicted_weyl_phase(g1, g2)
    assert abs(np.angle(ph * np.conj(pred))) <= 1e-6


def test_weyl_phase_product_identity():
    g1, g2 = ga.boost(0.9, 0.0, "kvh", ALG), ga.translation(0.6, ALG)
    p12, _, _ = ga.weyl_phase(g1, g2, W)
    p21, _, _ = ga.weyl_phase(g2, g1, W)
    assert abs(p12 * p21 - 1.0) <= 1e-8


def test_weyl_sweep_matches_prediction():
    for a in (0.5, 0.7, 0.9):
        for v in (1.1, 1.3, 1.5):
            g1, g2 = ga.boost(v, 0.0, "kvh", ALG), ga.translation(a, ALG)
            ph, res, _ = ga.weyl_phase(g1, g2, W)
            assert res <= 1e-6
            pred = ga.predicted_weyl_phase(g1, g2)
            assert abs(np.angle(ph * np.conj(pred))) <= 1e-6
            assert np.angle(pred) == pytest.approx(
                np.angle(np.exp(1j * a * v)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(formalism=st.sampled_from(["kvn", "kvh"]), m=st.floats(0.5, 2.0),
       a=st.floats(-1.5, 1.5), mv=st.floats(-1.5, 1.5), t=st.floats(-0.25, 0.25))
def test_weyl_phase_matches_prediction_property(formalism, m, a, mv, t):
    # translation by a, the boost's shift v*t (at most 0.75) and momentum
    # kick m*v keep the packet 5 widths inside the grid; [X_boost(t), X_trans]
    # = i m a v at every t, while at t != 0 the kvh boost needs its
    # commutator term
    v = mv / m
    g1, g2 = ga.boost(v, t, formalism, _alg(m)), ga.translation(a, _alg(m))
    ph, res, _ = ga.weyl_phase(g1, g2, W)
    assert res <= 1e-6
    pred = ga.predicted_weyl_phase(g1, g2)
    assert abs(np.angle(ph * np.conj(pred))) <= 1e-6
    angle = m * a * v if formalism == "kvh" else 0.0
    assert abs(np.angle(pred * np.exp(-1j * angle))) <= 1e-6


def test_noncentral_pair_is_rejected_and_measured():
    g1 = ga.boost(0.8, 0.0, "kvh", ALG)
    g2 = ga.free_time(0.5, "kvh", ALG)
    with pytest.raises(ValueError, match="central"):
        ga.predicted_weyl_phase(g1, g2)
    _, res, _ = ga.weyl_phase(g1, g2, W)
    assert res > 1e-6  # orderings differ by more than a global phase


def test_leakage_tells_a_boundary_error_from_a_noncentral_one():
    # the kvh boost's phase exp(i m v q) is not periodic over q, so a pair
    # that moves amplitude onto the q boundary leaves a residual too; its
    # leakage marks it, where a non-central pair leaks nothing
    _, res, leak = ga.weyl_phase(ga.boost(3.0, 1.0, "kvh", _alg(0.5)), ga.translation(1.5, _alg(0.5)), W)
    assert res > 1e-3 and leak > 1e-5
    _, res, leak = ga.weyl_phase(ga.boost(3.0, 1.0, "kvn", _alg(0.5)), ga.translation(1.5, _alg(0.5)), W)
    assert res <= 1e-12 and leak > 1e-5
    _, res, leak = ga.weyl_phase(ga.boost(0.8, 0.0, "kvh", ALG), ga.free_time(0.5, "kvh", ALG), W)
    assert res > 0.1 and leak <= 1e-18
    for a, v in ((0.5, 1.1), (0.9, 1.5)):
        _, res, leak = ga.weyl_phase(ga.boost(v, 0.0, "kvh", ALG), ga.translation(a, ALG), W)
        assert res <= 1e-10 and leak <= 1e-18
    _, res, leak = ga.covariance_check("kvh", 1.0, 0.5, W, ALG)
    assert res <= 1e-10 and leak <= 1e-18


@pytest.mark.parametrize("formalism", ["kvn", "kvh", "hybrid"])
def test_covariance_free_dynamics(formalism):
    w, alg = (W_HYBRID, layout(HYBRID, [1.0, 2.0], "hybrid")) if formalism == "hybrid" else (W, ALG)
    phase, residual, _ = ga.covariance_check(formalism, 1.0, 0.5, w, alg)
    assert residual <= 1e-6
    assert abs(phase - 1.0) <= 1e-6


def test_covariance_trivial_at_zero_velocity():
    phase, residual, _ = ga.covariance_check("kvh", 0.0, 0.5, W, ALG)
    assert residual <= 1e-12
    assert abs(phase - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the group on hybrid and two-particle layouts: the total mass is the charge
# ---------------------------------------------------------------------------

def _angle_error(phase, angle):
    return abs(np.angle(phase * np.exp(-1j * angle)))


@settings(max_examples=20, deadline=None)
@given(m1=st.floats(0.5, 2.0), m2=st.floats(0.5, 2.0), a=st.floats(-1.0, 1.0),
       v=st.floats(-0.6, 0.6))
def test_hybrid_weyl_phase_is_total_mass_times_area_property(m1, m2, a, v):
    # kicks of at most 1.2 in p and k and a shift of 1 in q and x keep the
    # packet 6 widths inside the 64^3 box
    alg = layout(HYBRID, [m1, m2], "hybrid")
    g1, g2 = ga.boost(v, 0.0, "hybrid", alg), ga.translation(a, alg)
    ph, res, _ = ga.weyl_phase(g1, g2, W_HYBRID)
    assert res <= 1e-6
    assert _angle_error(ph, (m1 + m2) * a * v) <= 1e-9
    assert _angle_error(ga.predicted_weyl_phase(g1, g2), (m1 + m2) * a * v) <= 1e-12


def test_hybrid_boost_without_its_quantum_terms_measures_the_classical_mass():
    # negative control: with the quantum particle's terms cut from the boost,
    # the phase carries m1 alone
    m1, m2, a, v = 1.0, 2.0, 0.5, 0.6
    alg = layout(HYBRID, [m1, m2], "hybrid")
    boost = ga.boost(v, 0.0, "hybrid", alg)
    classical = ccr.NCPoly(alg, {w: c for w, c in boost.terms.items()
                                 if all(g.sector == "classical" for g in w)})
    assert classical != boost
    ph, res, _ = ga.weyl_phase(classical, ga.translation(a, alg), W_HYBRID)
    assert res <= 1e-6
    assert _angle_error(ph, m1 * a * v) <= 1e-9
    assert _angle_error(ph, (m1 + m2) * a * v) > 0.5


def test_two_particle_kvh_weyl_phase_is_total_mass_times_area():
    # 32^4 in a box of 20: the tails the boost phase meets at the q
    # boundaries leave a residual near 1e-6, which the angle does not feel
    grid = GridSpec(tuple(Axis(n, -10.0, 20.0, 32) for n in ("q1", "p1", "q2", "p2")))
    w = gaussian_init(grid, centers=(0.3, -0.4, -0.3, 0.2), widths=(1.9,) * 4)
    m1, m2, a, v = 1.0, 2.0, 0.5, 0.3
    alg = layout(grid, [m1, m2], "kvh")
    ph, res, _ = ga.weyl_phase(ga.boost(v, 0.0, "kvh", alg), ga.translation(a, alg), w)
    assert res <= 1e-5
    assert _angle_error(ph, (m1 + m2) * a * v) <= 1e-9

