import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koopman import cli
from koopman import evolve as ev
from koopman.grid import (Axis, GridSpec, Wavefunction, _storage, dump_state, gaussian_init,
                          inner_product, leakage, load_state, norm, set_fft_workers)


def make_grid(axes="qp", n=128, lo=-8.0, ext=16.0):
    return GridSpec(tuple(Axis(a, lo, ext, n) for a in axes))


GRID = make_grid()
W0 = gaussian_init(GRID, centers=(0.0, 2.0), widths=(1.0, 1.0))


def _step_flows(plan, lead=0.5, trail=0.5):
    """The flows one step applies, in order: A(lead dt) B(dt) A(trail dt),
    a weight of 0 leaving its flow out, or A(dt) alone without B."""
    if plan.b is None:
        return [plan.a[1.0]]
    return [f for f in (plan.a.get(lead), plan.b, plan.a.get(trail)) if f is not None]


def _flows(plan):
    return [f.axes for f in _step_flows(plan)]


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
    assert [f.shape for f in plan.a[0.5].factors] == [(32, 32, 1), (1, 1, 32)]
    assert [f.shape for f in plan.b.factors] == [(32, 32, 32)]
    # each flow is held once, under its weight
    assert sorted(plan.a) == [0.5, 1.0]
    assert _flows(ev.build_plan(g3, "hybrid", [1.0, 1.0], ev.make_potential("free", g3),
                                0.01)) == [(0, 2)]


# formalism -> grid layouts for the plan property; the rule maps the
# algebra's letters to axes by role and order, so names need not match it
PLAN_LAYOUTS = {
    "kvn": (("q", "p"), ("q1", "p1"), ("q1", "p1", "q2", "p2")),
    "kvh": (("q", "p"), ("q1", "p1"), ("q1", "p1", "q2", "p2")),
    "hybrid": (("q", "p", "x"), ("q1", "p1", "x1")),
}


@st.composite
def random_plans(draw):
    """(plan, potential kind, interaction mode) over a small grid of a
    random layout, with random masses, constants and dt."""
    formalism = draw(st.sampled_from(sorted(PLAN_LAYOUTS)))
    axes = draw(st.sampled_from(PLAN_LAYOUTS[formalism]))
    g = GridSpec(tuple(Axis(a, -4.0, 8.0, draw(st.sampled_from((8, 16)))) for a in axes))
    kind = draw(st.sampled_from(
        ["free", "harmonic", "quartic"] + {4: ["pair"], 3: ["hybrid_pair"]}.get(len(axes), [])))
    kappa, alpha = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    constants = {"free": {}, "quartic": {"alpha": alpha}}.get(kind, {"kappa": kappa})
    masses = [draw(st.floats(0.3, 3.0)) for _ in range(len(axes) - len(g.names("p")))]
    interaction = draw(st.sampled_from(
        ("full",) if formalism == "kvn" else ("full", "potential_only")))
    plan = ev.build_plan(g, formalism, masses, ev.make_potential(kind, g, constants),
                         draw(st.floats(1e-3, 0.05)), interaction)
    return plan, kind, interaction


def _closed_form_flows(plan, interaction):
    """(axes, factor) pairs of A(dt/2), A(dt) and B(dt), written out by
    hand: A streams q by p tau/m, times exp(+i tau p^2/2m) in kvh and
    hybrid, times exp(-i tau k^2/2m) on each x axis, one factor per (q, p)
    pair and one per x axis; B is the one factor exp(-i dt (sum k_p f +
    V)) with the force f = -dV/dq, without V in kvn, and V alone without
    FFT axes for potential_only.  B is None when there is no V part."""
    g, pot = plan.grid, plan.potential
    qn, pn, xn = g.names("q"), g.names("p"), g.names("x")

    def a(tau):
        factors = []
        for (qname, pname), m in zip(zip(qn, pn), plan.masses):
            p = g.coordinate(pname)
            expo = g.wavenumber(qname) * p / m
            if plan.formalism != "kvn":
                expo = expo - p ** 2 / (2 * m)
            factors.append(np.exp(-1j * tau * expo))
        for xname, m in zip(xn, plan.masses[len(qn):]):
            factors.append(np.exp(-1j * tau * g.wavenumber(xname) ** 2 / (2 * m)))
        return tuple(g.index(n) for n in qn + xn), factors

    terms, axes = [], ()
    bindings = g.coordinate_bindings()
    if pot is not None and interaction == "full":
        for qname, pname in zip(qn, pn):
            force = -pot.partial(qname).evaluate(bindings)
            terms.append(g.wavenumber(pname) * force)
            axes += (g.index(pname),)
    if plan.formalism != "kvn" and pot is not None:
        terms.append(pot.evaluate(bindings))
    b = (axes, [np.exp(-1j * plan.dt * sum(terms))]) if terms else None
    return a(plan.dt / 2), a(plan.dt), b


@pytest.mark.filterwarnings("ignore:dt=.*wrap:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(random_plans())
def test_plan_flows_match_closed_forms(case):
    # every flow the exact rule yields has the FFT axes and factor shapes of
    # the closed form, and the same factors to 1e-14 relative
    plan, kind, interaction = case
    g = plan.grid
    half, full, b = _closed_form_flows(plan, interaction)
    if b is None:
        assert plan.b is None and list(plan.a) == [1.0]
        cases = [(plan.a[1.0], full)]
    else:
        assert sorted(plan.a) == [0.5, 1.0]
        cases = [(plan.a[0.5], half), (plan.a[1.0], full), (plan.b, b)]
    for flow, (axes, ref) in cases:
        assert flow.axes == axes
        got = list(flow.factors)
        if b and flow is plan.b and kind in ("harmonic", "quartic") and len(g.shape) == 4:
            # V separates over the two pairs, so B's terms form one group
            # per pair: one factor each, whose product is the closed form
            pairs = [{g.index(q), g.index(p)} if axes else {g.index(q)}
                     for q, p in zip(g.names("q"), g.names("p"))]
            assert [f.shape for f in got] == [
                tuple(n if i in pair else 1 for i, n in enumerate(g.shape)) for pair in pairs]
            got = [got[0] * got[1]]
        assert [f.shape for f in got] == [r.shape for r in ref]
        for f, r in zip(got, ref):
            assert np.max(np.abs(f - r)) <= 1e-14 * np.max(np.abs(r))


def test_plans_are_palindromic():
    for formalism, pot_kind, axes, masses in (
            ("kvn", "harmonic", "qp", [1.0]),
            ("kvh", "quartic", "qp", [1.0]),
            ("hybrid", "hybrid_pair", "qpx", [1.0, 1.0])):
        g = make_grid(axes, 32)
        pot = ev.make_potential(pot_kind, g)
        plan = ev.build_plan(g, formalism, masses, pot, 0.01)
        flows = _step_flows(plan)
        assert len(flows) == 3 and flows == flows[::-1]


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
    with pytest.raises(ValueError, match="kvn needs an all-classical layout"):
        ev.build_plan(g3, "kvn", [1.0, 1.0], ev.make_potential("free", g3), 0.1)
    # unequal q and p axes are named as such, whatever the mass count
    g = GridSpec(tuple(Axis(n, -8.0, 16.0, 8) for n in ("q1", "q2", "p1")))
    for masses in ([1.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="need matching q and p axes"):
            ev.build_plan(g, "kvn", masses, ev.make_potential("free", g), 0.1)
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
    # the pair and hybrid couplings kick each p axis by dt kappa |q - q'|,
    # up to 2 * 14 on these grids: more than half of a p extent of 16
    for formalism, axes, kind, masses in (("kvh", ("q1", "p1", "q2", "p2"), "pair", [1.0, 1.0]),
                                          ("hybrid", "qpx", "hybrid_pair", [1.0, 1.0])):
        g = GridSpec(tuple(Axis(a, -8.0, 16.0, 8) for a in axes))
        pot = ev.make_potential(kind, g, {"kappa": 1.0})
        with pytest.warns(RuntimeWarning) as caught:
            ev.build_plan(g, formalism, masses, pot, dt=2.0)
        assert [str(w.message) for w in caught] == [
            f"dt=2.0 kicks {p} by up to 28, more than half the axis extent; "
            f"momentum will wrap within one step" for p in g.names("p")]


def test_run_record_csv(tmp_path):
    pot = ev.make_potential("free", GRID)
    plan = ev.build_plan(GRID, "kvn", [1.0], pot, dt=0.1)
    rec, _ = ev.run(W0, plan, 0.2, sample_every=1)
    path = tmp_path / "run.csv"
    cli._write_csv(path, rec.columns, rec.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm,q_mean,p_mean,k_mean,energy,im_max,leakage"
    assert len(lines) == 4  # header + t=0 + 2 samples
    assert lines[1].split(",")[4] == ""  # k_mean empty on classical grids


def _full_grid_observables(w, plan):
    """The sampled observables by their full-grid definitions: density
    times coordinate over the whole grid, and <k> and <k^2> through the
    spectral derivative (the oracle for evolve's marginal reductions)."""
    grid = plan.grid
    qn, pn, xn = (grid.names(r) for r in ("q", "p", "x"))
    nrm2 = inner_product(w, w).real
    dens = np.abs(w.values) ** 2 * grid.cell_weight
    out = {"norm": np.sqrt(nrm2),
           "q_mean": sum(np.sum(dens * grid.coordinate(n)) for n in qn) / nrm2,
           "p_mean": sum(np.sum(dens * grid.coordinate(n)) for n in pn) / nrm2,
           "k_mean": None,
           "im_max": np.max(np.abs(w.values.imag)), "leakage": leakage(w)}
    energy = sum(np.sum(dens * grid.coordinate(n) ** 2) / (2 * m)
                 for n, m in zip(pn, plan.masses)) / nrm2
    if plan.potential is not None:
        energy += np.sum(dens * plan.potential.evaluate(grid.coordinate_bindings())) / nrm2
    if xn:
        out["k_mean"] = 0.0
        for xname, m in zip(xn, plan.masses[len(pn):]):
            i = grid.index(xname)
            kw = Wavefunction(grid, np.fft.ifft(
                grid.wavenumber(xname) * np.fft.fft(w.values, axis=i), axis=i))
            out["k_mean"] += inner_product(w, kw).real / nrm2
            energy += norm(kw) ** 2 / (2 * m) / nrm2
    out["energy"] = energy
    return out


@st.composite
def sampled_states(draw):
    """A plan and a random state on a 2-D kvh, 3-D hybrid or 8^4 grid."""
    layout = draw(st.sampled_from(["kvh2", "hybrid3", "pair4"]))
    names, formalism, kind = {
        "kvh2": (("q", "p"), "kvh", draw(st.sampled_from(["free", "harmonic", "quartic"]))),
        "hybrid3": (("q", "p", "x"), "hybrid", draw(st.sampled_from(["free", "hybrid_pair"]))),
        "pair4": (("q1", "q2", "p1", "p2"), draw(st.sampled_from(["kvn", "kvh"])), "pair"),
    }[layout]
    points = 8 if layout == "pair4" else draw(st.sampled_from([8, 16, 32]))
    g = GridSpec(tuple(Axis(n, draw(st.floats(-9.0, 1.0)), draw(st.floats(2.0, 18.0)), points)
                       for n in names))
    masses = [draw(st.floats(0.2, 5.0)) for n in names if n[0] in "qx"]
    kappa = draw(st.floats(0.1, 3.0))
    constants = {"free": {}, "quartic": {"alpha": 0.5}}.get(kind, {"kappa": kappa})
    pot = ev.make_potential(kind, g, constants)
    plan = ev.build_plan(g, formalism, masses, pot, 1e-3)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return plan, Wavefunction(g, values * draw(st.floats(0.1, 10.0)))


@pytest.mark.filterwarnings("ignore:dt=.*wrap:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(sampled_states())
def test_observables_match_full_grid_definitions(case):
    plan, w = case
    got, want = ev._observables(w, plan), _full_grid_observables(w, plan)
    assert set(got) == set(want)
    grid = plan.grid
    # means are relative to the largest coordinate, since they may cancel
    scale = {"q_mean": sum(np.max(np.abs(grid.coordinate(n))) for n in grid.names("q")),
             "p_mean": sum(np.max(np.abs(grid.coordinate(n))) for n in grid.names("p")),
             "k_mean": sum(np.max(np.abs(grid.wavenumber(n))) for n in grid.names("x"))}
    for key in ("norm", "q_mean", "p_mean", "k_mean", "energy"):
        if want[key] is None:
            assert got[key] is None
            continue
        assert isinstance(got[key], float)
        assert abs(got[key] - want[key]) <= 1e-12 * scale.get(key, abs(want[key]))
    assert got["im_max"] == want["im_max"] and got["leakage"] == want["leakage"]


def _reference_step(values, plan, lead, trail):
    """evolve.step on contiguous arrays: np.fft over the axes reversed and
    a new product with each factor's grid-shaped view."""
    for flow in _step_flows(plan, lead, trail):
        axes = flow.axes[::-1]
        if axes:
            values = np.fft.fftn(values, axes=axes)
        for f in flow.factors:
            values = values * f
        if axes:
            values = np.fft.ifftn(values, axes=axes)
    return values


def _reference_run(w0, plan, nsteps, sample_every):
    """evolve.run's fused schedule over _reference_step: (rows, final values)."""
    record = ev.RunRecord()
    record.append(t=0.0, **ev._observables(w0, plan))
    values, lead = w0.values, 0.5
    for n in range(1, nsteps + 1):
        sampled = n % sample_every == 0 or n == nsteps
        trail = 0.5 if sampled else 0.0
        values = _reference_step(values, plan, lead, trail)
        lead = 1.0 - trail
        if sampled:
            record.append(t=n * plan.dt,
                          **ev._observables(Wavefunction(plan.grid, values), plan))
    return record.rows, values


@st.composite
def layout_cases(draw):
    """A plan on a small 2-D kvh, 3-D hybrid or 4-D pair grid (8-32
    points per axis), a random state, step weights, ``overwrite``, an FFT
    worker count and a run schedule."""
    names, formalism, kinds = draw(st.sampled_from([
        (("q", "p"), "kvh", ("free", "harmonic", "quartic")),
        (("q", "p", "x"), "hybrid", ("free", "hybrid_pair")),
        (("q1", "q2", "p1", "p2"), "kvn", ("pair",)),
        (("q1", "q2", "p1", "p2"), "kvh", ("pair",)),
    ]))
    points = [draw(st.sampled_from([8, 16, 32])) for _ in names]
    assume(math.prod(points) <= 2 ** 15)
    g = GridSpec(tuple(Axis(n, -8.0, 16.0, k) for n, k in zip(names, points)))
    interaction = draw(st.sampled_from(
        ("full",) if formalism == "kvn" else ("full", "potential_only")))
    masses = [1.0] * sum(n[0] in "qx" for n in names)
    plan = ev.build_plan(g, formalism, masses, ev.make_potential(draw(st.sampled_from(kinds)), g),
                         0.01, interaction)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = Wavefunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    weights = st.sampled_from([0.0, 0.5, 1.0])
    return (plan, w, draw(weights), draw(weights), draw(st.booleans()),
            draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))


@pytest.mark.filterwarnings("ignore:dt=.*wrap:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=layout_cases())
def test_padded_layout_matches_contiguous_reference(case, tmp_path_factory):
    plan, w, lead, trail, overwrite, workers, nsteps, sample_every = case
    # every factor is the leading view of padded storage whose padding is zero
    for flow in filter(None, (*plan.a.values(), plan.b)):
        for f in flow.factors:
            assert np.count_nonzero(_storage(f)) == f.size
    set_fft_workers(workers)
    try:
        # a caller's own contiguous array with overwrite, else a new padded buffer
        start = w.values.copy()
        got = ev.step(Wavefunction(w.grid, start.copy()) if overwrite else w, plan,
                      lead, trail, overwrite)
        assert np.array_equal(got.values, _reference_step(start, plan, lead, trail))
        assert np.array_equal(w.values, start)
        record, final = ev.run(w, plan, nsteps * plan.dt, sample_every)
    finally:
        set_fft_workers(1)
    rows, values = _reference_run(w, plan, nsteps, sample_every)
    assert np.array_equal(final.values, values)
    assert record.rows == rows
    # the run's buffer kept its padding zero
    assert np.count_nonzero(_storage(final.values)) == np.count_nonzero(final.values)
    # a dump holds the grid-shaped amplitudes alone and reads back exactly
    path = tmp_path_factory.mktemp("layout")
    dump_state(final, path / "padded.kvhw")
    dump_state(Wavefunction(final.grid, np.ascontiguousarray(final.values)), path / "plain.kvhw")
    assert (path / "padded.kvhw").read_bytes() == (path / "plain.kvhw").read_bytes()
    assert np.array_equal(load_state(path / "padded.kvhw").values, final.values)
