import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman import galilei as ga
from koopman.grid import Axis, GridSpec, gaussian_init, norm


def make_grid(n=128, lo=-8.0, ext=16.0):
    return GridSpec((Axis("q", lo, ext, n), Axis("p", lo, ext, n)))


GRID = make_grid()
W = gaussian_init(GRID, centers=(0.3, -0.4), widths=(1.0, 0.7))


def test_translation_by_one_spacing_is_cyclic_shift():
    a = GRID.axis("q").spacing
    got = ga.act(ga.translation(a, "kvn"), W)
    assert np.max(np.abs(got.values - np.roll(W.values, 1, axis=0))) <= 1e-12


def test_boost_shifts_momentum_marginal():
    m, v = 1.0, 0.8
    got = ga.act(ga.boost(v, 0.0, "kvn", m), W)
    mean = np.sum(np.abs(got.values) ** 2 * GRID.coordinate("p")) * GRID.cell_weight
    assert mean == pytest.approx(-0.4 + m * v, abs=1e-8)


def test_projective_boost_same_density_extra_phase():
    v, m = 1.1, 1.0
    plain = ga.act(ga.boost(v, 0.0, "kvn", m), W)
    proj = ga.act(ga.boost(v, 0.0, "kvh", m), W)
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
            (ga.translation(0.37, "kvh"), ga.translation(-0.37, "kvh")),
            (ga.momentum_translation(-0.83, "kvh"), ga.momentum_translation(0.83, "kvh")),
            (ga.boost(0.9, 0.7, "kvh", 1.3), ga.boost(-0.9, 0.7, "kvh", 1.3)),
            (ga.free_time(0.45, "kvh", 0.8), ga.free_time(-0.45, "kvh", 0.8))):
        out = ga.act(g, W)
        assert abs(norm(out) - 1.0) <= 1e-12
        back = ga.act(inverse, out)
        assert np.max(np.abs(back.values - W.values)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(formalism=st.sampled_from(["kvn", "kvh"]), m=st.floats(0.5, 2.0),
       a=st.floats(-0.8, 0.8), b=st.floats(-1.5, 1.5),
       v=st.floats(-0.75, 0.75), t=st.floats(-1.0, 1.0))
def test_acts_match_closed_form_at_shifted_points(formalism, m, a, b, v, t):
    # shifts of at most 0.8 in q and 1.5 in p keep the tail of W that
    # wraps round the periodic grid below 1e-10 (3e-11 at the corners)
    q, p = GRID.coordinate("q"), GRID.coordinate("p")
    at = lambda dq, dp: np.broadcast_to(W.closed_form({"q": q - dq, "p": p - dp}),
                                        GRID.shape)
    boosted = at(v * t, m * v)
    if formalism == "kvh":
        boosted = boosted * np.exp(1j * (m * q * v - m * t * v ** 2 / 2))
    for g, expect in ((ga.translation(a, formalism, m), at(a, 0.0)),
                      (ga.momentum_translation(b, formalism, m), at(0.0, b)),
                      (ga.boost(v, t, formalism, m), boosted)):
        assert np.max(np.abs(ga.act(g, W).values - expect)) <= 1e-10


def test_rotation_rejected_on_grids():
    # rotations live in the symbolic module only (dimension >= 2)
    with pytest.raises(ValueError, match="kind"):
        ga.GroupElement("rotation", "kvn")


def test_group_element_validation():
    with pytest.raises(ValueError, match="kind"):
        ga.GroupElement("twist", "kvn")
    with pytest.raises(ValueError, match="finite"):
        ga.translation(np.inf, "kvn")
    for mass in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            ga.boost(0.5, 0.0, "kvh", mass)
    # a nonzero field its kind does not read is rejected, not carried into act
    for kind, unread in (("translation", "bvt"), ("momentum_translation", "avt"),
                         ("boost", "ab"), ("free_time", "abv")):
        for name in unread:
            with pytest.raises(ValueError, match=f"a {kind} does not read {name}"):
                ga.GroupElement(kind, "kvh", 1.0, **{name: 0.3})
    with pytest.raises(ValueError, match="does not read b, v, t"):
        ga.GroupElement("translation", "kvh", 1.0, a=0.5, b=0.2, v=0.3, t=1.0)


def test_weyl_phase_plain_representation_commutes():
    ph, res = ga.weyl_phase(ga.boost(1.3, 0.0, "kvn"), ga.translation(0.7, "kvn"), W)
    assert abs(ph - 1.0) <= 1e-8
    assert res <= 1e-8
    assert ga.predicted_weyl_phase(ga.boost(1.3, 0.0, "kvn"),
                                   ga.translation(0.7, "kvn")) == 1.0


def test_weyl_phase_projective_is_mass_times_area():
    g1, g2 = ga.boost(1.3, 0.0, "kvh"), ga.translation(0.7, "kvh")
    ph, res = ga.weyl_phase(g1, g2, W)
    assert res <= 1e-8
    assert np.angle(ph) == pytest.approx(0.91, abs=1e-10)
    pred = ga.predicted_weyl_phase(g1, g2)
    assert abs(np.angle(ph * np.conj(pred))) <= 1e-6


def test_weyl_phase_translations_commute_in_both():
    for f in ("kvn", "kvh"):
        ph, res = ga.weyl_phase(ga.translation(0.7, f),
                                ga.momentum_translation(0.5, f), W)
        assert abs(ph - 1.0) <= 1e-8 and res <= 1e-8


def test_weyl_phase_product_identity():
    g1, g2 = ga.boost(0.9, 0.0, "kvh"), ga.translation(0.6, "kvh")
    p12, _ = ga.weyl_phase(g1, g2, W)
    p21, _ = ga.weyl_phase(g2, g1, W)
    assert abs(p12 * p21 - 1.0) <= 1e-8


def test_weyl_sweep_matches_prediction():
    for a in (0.5, 0.7, 0.9):
        for v in (1.1, 1.3, 1.5):
            g1, g2 = ga.boost(v, 0.0, "kvh"), ga.translation(a, "kvh")
            ph, res = ga.weyl_phase(g1, g2, W)
            assert res <= 1e-6
            pred = ga.predicted_weyl_phase(g1, g2)
            assert abs(np.angle(ph * np.conj(pred))) <= 1e-6
            assert np.angle(pred) == pytest.approx(
                np.angle(np.exp(1j * a * v)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(formalism=st.sampled_from(["kvn", "kvh"]),
       m=st.floats(0.5, 2.0), a=st.floats(-1.5, 1.5), mv=st.floats(-1.5, 1.5))
def test_weyl_phase_matches_prediction_property(formalism, m, a, mv):
    # translation by a and momentum kick m*v keep the packet 5 widths
    # inside the grid
    v = mv / m
    g1, g2 = ga.boost(v, 0.0, formalism, m), ga.translation(a, formalism, m)
    ph, res = ga.weyl_phase(g1, g2, W)
    assert res <= 1e-6
    pred = ga.predicted_weyl_phase(g1, g2)
    assert abs(np.angle(ph * np.conj(pred))) <= 1e-6
    angle = m * a * v if formalism == "kvh" else 0.0
    assert abs(np.angle(pred * np.exp(-1j * angle))) <= 1e-6


def test_noncentral_pair_is_rejected_and_measured():
    g1 = ga.boost(0.8, 0.0, "kvh")
    g2 = ga.free_time(0.5, "kvh")
    with pytest.raises(ValueError, match="central"):
        ga.predicted_weyl_phase(g1, g2)
    _, res = ga.weyl_phase(g1, g2, W)
    assert res > 1e-6  # orderings differ by more than a global phase


@pytest.mark.parametrize("formalism", ["kvn", "kvh"])
def test_covariance_free_dynamics(formalism):
    phase, residual = ga.covariance_check(formalism, 1.0, 0.5, W)
    assert residual <= 1e-6
    assert abs(phase - 1.0) <= 1e-6


def test_covariance_trivial_at_zero_velocity():
    phase, residual = ga.covariance_check("kvh", 0.0, 0.5, W)
    assert residual <= 1e-12
    assert abs(phase - 1.0) <= 1e-12
