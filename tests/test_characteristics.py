import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman import characteristics as ch
from koopman import evolve as ev
from koopman.grid import Axis, GridSpec, Wavefunction, gaussian_init


def make_grid(n=128, lo=-8.0, ext=16.0):
    return GridSpec((Axis("q", lo, ext, n), Axis("p", lo, ext, n)))


GRID = make_grid()
W0 = gaussian_init(GRID, centers=(0.0, 2.0), widths=(1.0, 1.0))
FREE = ev.make_potential("free", GRID)
HARMONIC = ev.make_potential("harmonic", GRID, {"kappa": 1.0})
PAIR_GRID = GridSpec(tuple(Axis(n, -8.0, 16.0, 8)
                           for n in ("q1", "q2", "p1", "p2")))


def test_free_flow_closed_form():
    seeds = np.array([[1.0, 2.0], [0.0, -1.0]])
    q, p, s = ch.integrate_flow([1.0], FREE, ("q",), seeds, 0.5, 16)
    assert np.allclose(q[:, 0], [2.0, -0.5], atol=1e-14)
    assert np.allclose(p[:, 0], [2.0, -1.0], atol=1e-14)
    # action = p^2 t / 2m, exact for the integrator on this flow
    assert np.allclose(s, [1.0, 0.25], atol=1e-13)


def test_harmonic_period_and_energy_drift():
    seeds = np.array([[1.0, 2.0], [-0.5, 0.3]])
    q, p, _ = ch.integrate_flow([1.0], HARMONIC, ("q",), seeds, 2 * np.pi, 4096)
    energy = lambda z: 0.5 * z[:, 1] ** 2 + 0.5 * z[:, 0] ** 2   # m = kappa = 1
    assert np.max(np.abs(energy(np.hstack([q, p])) - energy(seeds))) <= 1e-10
    assert np.max(np.abs(q - seeds[:, :1])) <= 1e-9
    assert np.max(np.abs(p - seeds[:, 1:])) <= 1e-9


def test_action_self_convergence():
    # Richardson: quadrupling the step count divides the error by ~256,
    # consistent with 4th order; use ratio between successive refinements
    seeds = np.array([[1.0, 2.0]])
    vals = []
    for steps in (128, 256, 512):
        _, _, s = ch.integrate_flow([1.0], HARMONIC, ("q",), seeds, 2 * np.pi, steps)
        vals.append(s[0])
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    assert 10 <= ratio <= 22  # 4th order gives 16


def test_trajectory_self_convergence_is_fourth_order():
    seeds = np.array([[1.0, 0.5]])
    ref, _, _ = ch.integrate_flow([1.0], HARMONIC, ("q",), seeds, 1.0, 4096)
    e = []
    for steps in (16, 32):
        q, _, _ = ch.integrate_flow([1.0], HARMONIC, ("q",), seeds, 1.0, steps)
        e.append(abs(q[0, 0] - ref[0, 0]))
    assert e[0] / e[1] == pytest.approx(16, rel=0.3)


def test_flow_symplectic_area_proxy():
    eps = 1e-5
    z0 = np.array([1.0, 0.7])
    seeds = np.array([z0, z0 + [eps, 0], z0 + [0, eps]])
    q, p, _ = ch.integrate_flow([1.0], HARMONIC, ("q",), seeds, 2 * np.pi, 4096)
    dq1, dp1 = q[1] - q[0], p[1] - p[0]
    dq2, dp2 = q[2] - q[0], p[2] - p[0]
    area = dq1[0] * dp2[0] - dq2[0] * dp1[0]
    assert area / eps ** 2 == pytest.approx(1.0, abs=1e-8)


def test_integrate_flow_validation():
    with pytest.raises(ValueError, match="steps"):
        ch.integrate_flow([1.0], FREE, ("q",), np.zeros((1, 2)), 1.0, 0)
    with pytest.raises(ValueError, match="q columns"):
        ch.integrate_flow([1.0], FREE, ("q",), np.zeros((1, 3)), 1.0, 4)
    with pytest.raises(ValueError, match="q columns"):
        ch.integrate_flow([], FREE, (), np.zeros((1, 0)), 1.0, 4)
    # one positive, finite mass per q axis, checked before any work
    pair = ev.make_potential("pair", PAIR_GRID, {"kappa": 1.0})
    for masses in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
        with pytest.raises(ValueError, match="one positive, finite mass per q axis"):
            ch.integrate_flow(masses, pair, ("q1", "q2"), np.zeros((3, 4)), 1.0, 4)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"mass per q axis \('q',\)"):
            ch.integrate_flow([bad], HARMONIC, ("q",), np.ones((2, 2)), 1.0, 4)


def test_reference_identity_at_t0():
    ref, valid = ch.reference_solution(W0, [1.0], HARMONIC, 0.0, "kvh")
    assert valid.all()
    assert np.max(np.abs(ref.values - W0.values)) <= 1e-10


def test_reference_free_forms():
    ref, valid = ch.reference_solution(W0, [1.0], FREE, 0.5, "kvn")
    q, p = GRID.coordinate("q"), GRID.coordinate("p")
    expect = W0.closed_form({"q": q - 0.5 * p, "p": p})
    assert np.max(np.abs(ref.values - expect)[valid]) <= 1e-10
    refh, _ = ch.reference_solution(W0, [1.0], FREE, 0.5, "kvh")
    expect_h = expect * np.exp(0.5j * p ** 2 * 0.5)
    assert np.max(np.abs(refh.values - expect_h)[valid]) <= 1e-10
    assert not valid.all()  # fast rows leave the box and are flagged


def test_reference_keeps_real_states_real():
    ref, _ = ch.reference_solution(W0, [1.0], HARMONIC, 0.7, "kvn")
    assert np.max(np.abs(ref.values.imag)) <= 1e-12


def test_reference_interpolation_modes():
    sampled = Wavefunction(GRID, W0.values.copy())  # no closed form
    got_c, valid = ch.reference_solution(sampled, [1.0], HARMONIC, 0.3, "kvh",
                                         interp="cubic", flow_steps=300)
    exact, _ = ch.reference_solution(W0, [1.0], HARMONIC, 0.3, "kvh",
                                     flow_steps=300)
    err_c = np.max(np.abs(got_c.values - exact.values)[valid])
    assert err_c <= 1e-4
    # the mode alone decides: a state with a closed form is interpolated too
    got_w0, _ = ch.reference_solution(W0, [1.0], HARMONIC, 0.3, "kvh",
                                      interp="cubic", flow_steps=300)
    assert np.array_equal(got_w0.values, got_c.values)


def _random_state(grid, rng):
    return Wavefunction(grid, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape))


@pytest.mark.parametrize("names, points", [(("q", "p"), 256),
                                           (("q1", "q2", "p1", "p2"), 8)])
def test_cubic_interpolation_matches_map_coordinates(names, points):
    ndimage = pytest.importorskip("scipy.ndimage")
    # dyadic spacings, so scipy's wrap of outside points is exact too
    grid = GridSpec(tuple(Axis(n, -8.0, 16.0, points) for n in names))
    rng = np.random.default_rng(points)
    w = _random_state(grid, rng)
    # inside the box and up to two periods outside it on either side
    at = {a.name: rng.uniform(a.min - 2 * a.extent, a.min + 3 * a.extent, 20000)
          for a in grid.axes}
    got = ch._interpolate_samples(w, at)
    index = np.array([(at[a.name] - a.min) / a.spacing for a in grid.axes])
    expect = sum(unit * ndimage.map_coordinates(part, index, order=3, mode="grid-wrap")
                 for unit, part in ((1, w.values.real), (1j, w.values.imag)))
    assert np.max(np.abs(got - expect)) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.sampled_from((8, 16, 32)), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1), periods=st.integers(-3, 3),
       scale=st.complex_numbers(max_magnitude=4.0))
def test_cubic_interpolation_properties(points, seed, periods, scale):
    grid = GridSpec(tuple(Axis(f"q{i}", -1.5, 3.0, n) for i, n in enumerate(points)))
    rng = np.random.default_rng(seed)
    u, v = _random_state(grid, rng), _random_state(grid, rng)
    nodes = {n: np.broadcast_to(grid.coordinate(n), grid.shape).ravel() for n in grid.names()}
    # the samples come back at the nodes
    assert np.max(np.abs(ch._interpolate_samples(u, nodes) - u.values.ravel())) <= 1e-13
    at = {a.name: rng.uniform(a.min, a.min + a.extent, 300) for a in grid.axes}
    got = ch._interpolate_samples(u, at)
    # the interpolant is periodic over the box
    moved = {a.name: at[a.name] + periods * a.extent for a in grid.axes}
    assert np.max(np.abs(ch._interpolate_samples(u, moved) - got)) <= 1e-12
    # and linear in the samples
    combined = Wavefunction(grid, scale * u.values + v.values)
    expect = scale * got + ch._interpolate_samples(v, at)
    assert np.max(np.abs(ch._interpolate_samples(combined, at) - expect)) <= 1e-12


def test_reference_validation(monkeypatch):
    with pytest.raises(ValueError, match="kvn and kvh"):
        ch.reference_solution(W0, [1.0], FREE, 0.1, "hybrid")

    # the mode is checked before any flow starts
    def no_flow(*args, **kwargs):
        raise AssertionError("integrate_flow called")
    monkeypatch.setattr(ch, "integrate_flow", no_flow)
    for mode in ("nope", "spectral"):
        with pytest.raises(ValueError, match=f"unknown interpolation mode '{mode}'"):
            ch.reference_solution(W0, [1.0], HARMONIC, 0.3, "kvh", interp=mode)
    sampled = Wavefunction(GRID, W0.values.copy())
    with pytest.raises(ValueError, match="needs a state with a closed form"):
        ch.reference_solution(sampled, [1.0], HARMONIC, 0.3, "kvh")


def test_compare_identical_and_global_phase():
    m = ch.compare(W0, W0)
    assert m.l2 == 0 and m.masked_linf == 0 and m.phase_masked_maxabs == 0
    rotated = Wavefunction(GRID, W0.values * np.exp(0.3j))
    m2 = ch.compare(rotated, W0)
    assert m2.modulus_l2 <= 1e-14
    assert m2.global_phase == pytest.approx(0.3, abs=1e-12)
    assert m2.residual_after_global <= 1e-14
    assert m2.phase_masked_maxabs <= 1e-12


def test_compare_grid_mismatch():
    other = gaussian_init(make_grid(64), (0, 0), (1, 1))
    with pytest.raises(ValueError, match="grid mismatch"):
        ch.compare(W0, other)


def _plain_rk4(masses, force, potential, seeds, t_final, steps):
    """Textbook RK4 on (q, p, S), written out with the forces by hand."""
    m = np.asarray(masses)
    n = len(m)

    def rhs(z):
        q, p = z[:, :n], z[:, n:2 * n]
        ds = np.sum(p ** 2 / (2 * m), axis=1) - potential(q)
        return np.concatenate([p / m, force(q), ds[:, None]], axis=1)

    z = np.concatenate([seeds, np.zeros((len(seeds), 1))], axis=1)
    h = t_final / steps
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + h / 2 * k1)
        k3 = rhs(z + h / 2 * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z[:, :n], z[:, n:2 * n], z[:, 2 * n]


HAND_CODED = {   # kind: (grid, constants, masses, force, V)
    "free": (GRID, {}, [1.3], lambda q: 0 * q, lambda q: 0 * q[:, 0]),
    "harmonic": (GRID, {"kappa": 0.8}, [0.7], lambda q: -0.8 * q,
                 lambda q: 0.4 * q[:, 0] ** 2),
    "quartic": (GRID, {"alpha": 0.5}, [1.0], lambda q: -0.5 * q ** 3,
                lambda q: 0.125 * q[:, 0] ** 4),
    "pair": (PAIR_GRID, {"kappa": 1.7}, [0.6, 1.9],
             lambda q: 1.7 * (q[:, ::-1] - q),
             lambda q: 0.85 * (q[:, 0] - q[:, 1]) ** 2),
}


@pytest.mark.parametrize("kind", sorted(HAND_CODED))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("t_final", [0.9, -0.6])
def test_flow_matches_plain_rk4(kind, seed, t_final):
    grid, constants, masses, force, potential = HAND_CODED[kind]
    pot = ev.make_potential(kind, grid, constants)
    qnames = grid.names("q")
    rng = np.random.default_rng(seed)
    # more seeds than one block, so the last block is a partial one
    seeds = rng.uniform(-2.0, 2.0, size=(ch._FLOW_BLOCK + 37, 2 * len(qnames)))
    start = seeds.copy()
    got = ch.integrate_flow(masses, pot, qnames, seeds, t_final, 40)
    want = _plain_rk4(masses, force, potential, seeds, t_final, 40)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
    assert np.array_equal(seeds, start)   # the seeds are left as they were


def _column_flow(masses, potential, qnames, seeds, t_final, steps):
    """The column-layout kernel that the packed one replaced, kept verbatim
    (bar the ``ch.`` prefixes) as an oracle: q, p and S in separate
    (n, npair) and (n,) arrays, with separate calls for each."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    npair = len(qnames)
    if seeds.shape[1] != 2 * npair:
        raise ValueError("seeds must have q columns then p columns")
    masses = np.asarray(masses, dtype=float)
    twice_masses = 2 * masses
    h = t_final / steps
    if potential.cpoly is None:
        V, forces = None, []
    else:
        V = potential.cpoly.compile()
        grads = enumerate(potential.cpoly.partial(name) for name in qnames)
        forces = [(d, g.compile()) for d, g in grads if not g.is_zero]
    bindings = dict(potential.constants)

    Q = seeds[:, :npair].copy()
    P = seeds[:, npair:].copy()
    S = np.zeros(len(seeds))
    # work arrays for one block of seeds: a stage's derivatives, the
    # weighted stage sums, the next stage's arguments and scratch
    nb = max(1, min(ch._FLOW_BLOCK, len(seeds)))
    pair_work = np.zeros((8, nb, npair))
    action_work = np.zeros((3, nb))

    for lo in range(0, len(seeds), nb):
        Qb, Pb, Sb = Q[lo:lo + nb], P[lo:lo + nb], S[lo:lo + nb]
        kq, kp, aq, ap, Qs, Ps, tq, tp = pair_work[:, :len(Qb)]
        ks, as_, ts = action_work[:, :len(Qb)]
        for _ in range(steps):
            Qc, Pc = Qb, Pb
            for acc in (aq, ap, as_):
                acc.fill(0.0)
            for stage, w in enumerate(ch._RK4_WEIGHTS):
                np.divide(Pc, masses, out=kq)
                for d, name in enumerate(qnames):
                    bindings[name] = Qc[:, d]
                for d, force in forces:
                    np.negative(force(bindings), out=kp[:, d])
                np.divide(np.square(Pc, out=tp), twice_masses, out=tp)
                ks.fill(0.0)      # by columns: np.sum over a short last axis is slow
                for d in range(npair):
                    ks += tp[:, d]
                if V is not None:
                    ks -= V(bindings)
                aq += np.multiply(kq, w, out=tq)
                ap += np.multiply(kp, w, out=tp)
                as_ += np.multiply(ks, w, out=ts)
                if stage < 3:
                    c = h * ch._RK4_NODES[stage + 1]
                    Qc = np.add(Qb, np.multiply(kq, c, out=Qs), out=Qs)
                    Pc = np.add(Pb, np.multiply(kp, c, out=Ps), out=Ps)
            Qb += np.multiply(aq, h, out=aq)
            Pb += np.multiply(ap, h, out=ap)
            Sb += np.multiply(as_, h, out=as_)

    return Q, P, S


_B = ch._FLOW_BLOCK
_positive = st.floats(0.3, 2.5)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(HAND_CODED)), constant=_positive,
       mass_draws=st.lists(_positive, min_size=2, max_size=2),
       t_final=st.floats(0.01, 1.0).flatmap(lambda t: st.sampled_from([t, -t])),
       steps=st.integers(1, 12), n=st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 37]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_flow_equals_the_column_kernel(kind, constant, mass_draws, t_final,
                                              steps, n, seed):
    grid = PAIR_GRID if kind == "pair" else GRID
    name = "alpha" if kind == "quartic" else "kappa"
    pot = ev.make_potential(kind, grid, {} if kind == "free" else {name: constant})
    qnames = grid.names("q")
    masses = mass_draws[:len(qnames)]
    seeds = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 2 * len(qnames)))
    start = seeds.copy()
    got = ch.integrate_flow(masses, pot, qnames, seeds, t_final, steps)
    want = _column_flow(masses, pot, qnames, seeds, t_final, steps)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
    assert np.array_equal(seeds, start)
