import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman import evolve as ev
from koopman.grid import Axis, GridSpec, Wavefunction, gaussian_init, norm


def make_grid(axes="qp", n=128, lo=-8.0, ext=16.0):
    return GridSpec(tuple(Axis(a, lo, ext, n) for a in axes))


GRID = make_grid()
W0 = gaussian_init(GRID, centers=(0.0, 2.0), widths=(1.0, 1.0))


def _flows(plan):
    return [f.axes for f in plan.substeps]


def test_plan_shapes():
    # two exact flows: A (T part) is diagonal after an fftn over the q and
    # x axes, B (V part) after an fftn over the p axes; the flow durations
    # are held by the fused-equals-stepwise property, free-streaming
    # exactness and the Strang order of acceptance criterion 10
    free = ev.make_potential("free", GRID)
    harm = ev.make_potential("harmonic", GRID, {"kappa": 1.0})
    for formalism in ("kvn", "kvh"):
        assert _flows(ev.build_plan(GRID, formalism, [1.0], free, 0.1)) == [(0,)]
        assert _flows(ev.build_plan(GRID, formalism, [1.0], harm, 0.1)) == [(0,), (1,), (0,)]
    # without the kick, B is a plain multiplication by exp(-i dt V); kvn
    # has no V phase, so it refuses the mode rather than run free
    assert _flows(ev.build_plan(GRID, "kvh", [1.0], harm, 0.1,
                                interaction="potential_only")) == [(0,), (), (0,)]
    with pytest.raises(ValueError, match="potential_only would run free"):
        ev.build_plan(GRID, "kvn", [1.0], harm, 0.1, interaction="potential_only")
    g3 = make_grid("qpx", 32)
    hyb = ev.make_potential("hybrid_pair", g3, {"kappa": 1.0})
    plan = ev.build_plan(g3, "hybrid", [1.0, 1.0], hyb, 0.01)
    assert _flows(plan) == [(0, 2), (1,), (0, 2)]
    # multipliers stay in their broadcast shapes: one (q, p) factor and
    # one x factor for A, one full factor for B
    assert [f.shape for f in plan.substeps[0].factors] == [(32, 32, 1), (1, 1, 32)]
    assert [f.shape for f in plan.substeps[1].factors] == [(32, 32, 32)]
    assert _flows(ev.build_plan(g3, "hybrid", [1.0, 1.0], ev.make_potential("free", g3),
                                0.01)) == [(0, 2)]


def test_plans_are_palindromic():
    for formalism, pot_kind, axes, masses in (
            ("kvn", "harmonic", "qp", [1.0]),
            ("kvh", "quartic", "qp", [1.0]),
            ("hybrid", "hybrid_pair", "qpx", [1.0, 1.0])):
        g = make_grid(axes, 32)
        pot = ev.make_potential(pot_kind, g)
        plan = ev.build_plan(g, formalism, masses, pot, 0.01)
        assert list(plan.substeps) == list(reversed(plan.substeps))


# formalism -> (grid axes, masses, potential kinds) for the property tests
PROPERTY_CASES = {
    "kvn": ("qp", [1.3], ("free", "harmonic", "quartic")),
    "kvh": ("qp", [0.7], ("free", "harmonic", "quartic")),
    "hybrid": ("qpx", [1.0, 0.6], ("free", "hybrid_pair")),
}


@st.composite
def random_runs(draw):
    """A plan on a small grid, a random normalized state, a whole number
    of steps and a sampling cadence."""
    formalism = draw(st.sampled_from(sorted(PROPERTY_CASES)))
    axes, masses, kinds = PROPERTY_CASES[formalism]
    g = make_grid(axes, 16 if axes == "qp" else 8)
    pot = ev.make_potential(draw(st.sampled_from(kinds)), g)
    # kvn has no V phase, so it refuses potential_only
    interaction = draw(st.sampled_from(
        ("full",) if formalism == "kvn" else ("full", "potential_only")))
    plan = ev.build_plan(g, formalism, masses, pot, draw(st.floats(1e-3, 0.1)),
                         interaction)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    w0 = Wavefunction(g, values / np.sqrt(np.sum(np.abs(values) ** 2) * g.cell_weight))
    return plan, w0, draw(st.integers(1, 12)), draw(st.integers(1, 6))


@pytest.mark.filterwarnings("ignore:dt=.*wrap:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(random_runs())
def test_fused_run_equals_stepwise_and_is_unitary(case):
    plan, w0, nsteps, sample_every = case
    start = w0.values.copy()
    rec, w_run = ev.run(w0, plan, nsteps * plan.dt, sample_every)
    # run steps in place on its own buffer and never touches w0
    assert np.array_equal(w0.values, start)
    w = w0
    for _ in range(nsteps):
        before = w.values.copy()
        w_next = ev.step(w, plan)
        assert np.array_equal(w.values, before)
        w = w_next
    assert np.max(np.abs(w_run.values - w.values)) <= 1e-12
    assert np.max(np.abs(rec.series("norm") - 1.0)) <= 1e-12
    assert abs(norm(w_run) - 1.0) <= 1e-12
    # the returned state can seed another run, which leaves it alone too,
    # and a second run from the same w0 ends bit for bit where the first did
    final = w_run.values.copy()
    ev.run(w_run, plan, nsteps * plan.dt, sample_every)
    assert np.array_equal(w_run.values, final)
    assert np.array_equal(ev.run(w0, plan, nsteps * plan.dt, sample_every)[1].values, final)


def _time_reversed(w):
    """conj(psi(q, -p)): on the grid p -> -p maps index i to -i mod n."""
    axis = w.grid.index("p")
    return Wavefunction(w.grid, np.conj(np.roll(np.flip(w.values, axis), 1, axis)))


# Widths 0.8 and centres within 1.5 keep the state below 1e-12 on the
# p = -8 row, which p -> -p maps onto itself instead of onto p = +8.
@settings(max_examples=40, deadline=None)
@given(formalism=st.sampled_from(["kvn", "kvh"]), kind=st.sampled_from(["free", "harmonic"]),
       centres=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       complex_phase=st.booleans(), dt=st.floats(1e-3, 0.1),
       nsteps=st.integers(1, 20), sample_every=st.integers(1, 6))
def test_time_reversed_run_returns_to_start(formalism, kind, centres, complex_phase, dt,
                                            nsteps, sample_every):
    g = make_grid(n=64)
    w0 = gaussian_init(g, centres, (0.8, 0.8))
    if complex_phase:   # exp(i q p) keeps the modulus, so the state stays normalized
        w0 = Wavefunction(g, w0.values * np.exp(1j * g.coordinate("q") * g.coordinate("p")))
    plan = ev.build_plan(g, formalism, [1.0], ev.make_potential(kind, g), dt)
    _, w = ev.run(w0, plan, nsteps * plan.dt, sample_every)
    _, back = ev.run(_time_reversed(w), plan, nsteps * plan.dt, sample_every)
    assert np.max(np.abs(_time_reversed(back).values - w0.values)) <= 1e-10


def test_build_plan_validation():
    free = ev.make_potential("free", GRID)
    with pytest.raises(ValueError, match="formalism"):
        ev.build_plan(GRID, "magic", [1.0], free, 0.1)
    with pytest.raises(ValueError, match="one mass"):
        ev.build_plan(GRID, "kvn", [1.0, 2.0], free, 0.1)
    for dt in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ev.build_plan(GRID, "kvn", [1.0], free, dt)
    for mass in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="masses must be positive and finite"):
            ev.build_plan(GRID, "kvh", [mass], free, 0.1)
    g3 = make_grid("qpx", 32)
    with pytest.raises(ValueError, match="x axes"):
        ev.build_plan(g3, "kvn", [1.0, 1.0], ev.make_potential("free", g3), 0.1)
    with pytest.raises(ValueError, match="unsupported potential"):
        ev.make_potential("coulomb", GRID)


def test_free_streaming_is_exact():
    pot = ev.make_potential("free", GRID)
    one = ev.build_plan(GRID, "kvn", [1.0], pot, dt=0.5)
    many = ev.build_plan(GRID, "kvn", [1.0], pot, dt=0.5 / 4096)
    _, w_one = ev.run(W0, one, 0.5)
    _, w_many = ev.run(W0, many, 0.5, sample_every=4096)
    assert np.max(np.abs(w_one.values - w_many.values)) <= 1e-10
    # center transported to q0 + p0 t / m
    rec, _ = ev.run(W0, one, 0.5)
    assert rec.series("q_mean")[-1] == pytest.approx(1.0, abs=1e-6)


def test_free_projective_phase_matches_closed_form():
    pot = ev.make_potential("free", GRID)
    plan = ev.build_plan(GRID, "kvh", [1.0], pot, dt=0.1)
    _, w = ev.run(W0, plan, 0.5, 5)
    q, p = GRID.coordinate("q"), GRID.coordinate("p")
    ref = W0.closed_form({"q": q - 0.5 * p, "p": p}) * np.exp(0.5j * p ** 2 * 0.5)
    mag = np.abs(W0.values)
    mask = mag > 1e-6 * mag.max()
    assert np.max(np.abs((w.values - ref))[mask]) <= 1e-6


def test_step_preserves_norm():
    pot = ev.make_potential("harmonic", GRID, {"kappa": 1.0})
    plan = ev.build_plan(GRID, "kvh", [1.0], pot, dt=1e-2)
    w = W0
    for _ in range(50):
        w = ev.step(w, plan)
        assert abs(norm(w) - 1.0) <= 1e-12


def test_reality_preserved_without_phases():
    # real initial data stays real in the non-projective formalism
    g = make_grid(n=128, lo=-10.0, ext=20.0)
    w0 = gaussian_init(g, centers=(1.5, 0.0), widths=(1.0, 1.0))
    pot = ev.make_potential("harmonic", g, {"kappa": 1.0})
    plan = ev.build_plan(g, "kvn", [1.0], pot, dt=1e-3)
    rec, _ = ev.run(w0, plan, 1.0, sample_every=100)
    assert rec.series("im_max").max() <= 1e-11


def test_projective_and_plain_moduli_agree():
    pot = ev.make_potential("harmonic", GRID, {"kappa": 1.0})
    plan_n = ev.build_plan(GRID, "kvn", [1.0], pot, dt=1e-2)
    plan_h = ev.build_plan(GRID, "kvh", [1.0], pot, dt=1e-2)
    _, wn = ev.run(W0, plan_n, 0.5, 50)
    _, wh = ev.run(W0, plan_h, 0.5, 50)
    assert np.max(np.abs(np.abs(wn.values) ** 2 - np.abs(wh.values) ** 2)) <= 1e-9


def test_harmonic_period_return_and_energy():
    pot = ev.make_potential("harmonic", GRID, {"kappa": 1.0})
    T = 2 * np.pi
    plan = ev.build_plan(GRID, "kvn", [1.0], pot, dt=T / 4096)
    rec, wT = ev.run(W0, plan, T, sample_every=512)
    l1 = np.sum(np.abs(np.abs(wT.values) ** 2 - np.abs(W0.values) ** 2)) \
        * GRID.cell_weight
    assert l1 <= 1e-4
    # the splitting has no secular energy drift; the bounded in-period
    # oscillation sits at the O(dt^2) level
    e = rec.series("energy")
    assert abs(e[-1] - e[0]) <= 1e-6
    assert np.max(np.abs(e - e[0])) <= 5e-6
    assert np.max(np.abs(rec.series("norm") - 1)) <= 1e-10


def test_two_particle_total_momentum_conserved():
    g = GridSpec((
        Axis("q1", -8, 16, 32), Axis("p1", -8, 16, 32),
        Axis("q2", -8, 16, 32), Axis("p2", -8, 16, 32)))
    w0 = gaussian_init(g, centers=(-1.0, 0.5, 1.0, -0.3), widths=(1.5,) * 4)
    pot = ev.make_potential("pair", g, {"kappa": 1.0})
    plan = ev.build_plan(g, "kvh", [1.0, 1.0], pot, dt=5e-3)
    rec, _ = ev.run(w0, plan, 0.2, sample_every=8)
    p = rec.series("p_mean")
    assert np.max(np.abs(p - p[0])) <= 1e-6
    assert rec.rows[0][4] is None  # no quantum sector column


def test_hybrid_momentum_exchange():
    g = GridSpec((Axis("q", -8, 16, 32), Axis("p", -8, 16, 32),
                  Axis("x", -8, 16, 32)))
    w0 = gaussian_init(g, centers=(1.2, 0.0, -1.2), widths=(1.5, 1.5, 1.5))
    pot = ev.make_potential("hybrid_pair", g, {"kappa": 1.0})
    plan = ev.build_plan(g, "hybrid", [1.0, 1.0], pot, dt=1e-3)
    rec, _ = ev.run(w0, plan, 0.2, sample_every=20)
    total = rec.series("p_mean") + rec.series("k_mean")
    assert np.max(np.abs(total - total[0])) <= 1e-6
    assert np.max(np.abs(rec.series("p_mean") - rec.series("p_mean")[0])) >= 1e-2
    # multiplication-only coupling loses the conservation law
    plan_v = ev.build_plan(g, "hybrid", [1.0, 1.0], pot, dt=1e-3,
                           interaction="potential_only")
    rec_v, _ = ev.run(w0, plan_v, 0.2, sample_every=20)
    total_v = rec_v.series("p_mean") + rec_v.series("k_mean")
    assert np.max(np.abs(total_v - total_v[0])) >= 1e-3


def test_run_validation_and_abort(monkeypatch):
    pot = ev.make_potential("free", GRID)
    plan = ev.build_plan(GRID, "kvn", [1.0], pot, dt=0.1)
    with pytest.raises(ValueError, match="integer multiple"):
        ev.run(W0, plan, 0.55)
    with pytest.raises(ValueError, match="sample_every"):
        ev.run(W0, plan, 0.5, sample_every=0)
    bad = Wavefunction(GRID, W0.values.copy())
    bad.values[0, 0] = np.nan
    with pytest.raises(ev.NumericalAbort) as err:
        ev.run(bad, plan, 0.5, sample_every=1)
    assert err.value.step == 1
    assert str(err.value) == ("non-finite amplitudes detected at step 1 "
                              "(no earlier step was checked)")

    # a NaN made by step 4 is found at the step-6 sample; the message names
    # the window after the last finite sample, at step 3
    real_step = ev.step
    calls = []

    def poisoned(w, plan, **kw):
        out = real_step(w, plan, **kw)
        calls.append(kw)
        if len(calls) == 4:
            out.values[0, 0] = np.nan
        return out

    monkeypatch.setattr(ev, "step", poisoned)
    with pytest.raises(ev.NumericalAbort) as err:
        ev.run(W0, plan, 0.9, sample_every=3)
    assert (err.value.step, err.value.since, len(calls)) == (6, 3, 6)
    assert str(err.value) == ("non-finite amplitudes detected at step 6 "
                              "(they appeared after step 3)")
    # only the first step may not overwrite its input
    assert [kw["overwrite"] for kw in calls] == [False] + [True] * 5


def test_kick_wrap_warning():
    pot = ev.make_potential("harmonic", GRID, {"kappa": 1.0})
    with pytest.warns(RuntimeWarning, match="wrap"):
        ev.build_plan(GRID, "kvn", [1.0], pot, dt=2.0)


def test_run_record_csv(tmp_path):
    pot = ev.make_potential("free", GRID)
    plan = ev.build_plan(GRID, "kvn", [1.0], pot, dt=0.1)
    rec, _ = ev.run(W0, plan, 0.2, sample_every=1)
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm,q_mean,p_mean,k_mean,energy,im_max,leakage"
    assert len(lines) == 4  # header + t=0 + 2 samples
    assert lines[1].split(",")[4] == ""  # k_mean empty on classical grids
