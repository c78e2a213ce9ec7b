import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman.grid import (
    Axis, GridSpec, Wavefunction, _fft, _ifft, apply_lambda, dump_state,
    gaussian_init, inner_product, leakage, load_state, norm, phase_mask,
    set_fft_workers,
)


def make_grid(n=64, lo=-8.0, ext=16.0, axes="qp"):
    return GridSpec(tuple(Axis(a, lo, ext, n) for a in axes))


GRID = make_grid()
W = gaussian_init(GRID, centers=(0.0, 2.0), widths=(1.0, 1.0))


def test_axis_validation():
    with pytest.raises(ValueError, match="power of two"):
        Axis("q", -1, 2, 24)
    for name in ("z", "y", "", "Q"):
        with pytest.raises(ValueError, match="must start with q, p or x"):
            Axis(name, -1, 2, 16)
    assert [Axis(n, -1, 2, 16).role for n in ("q1", "p_2", "x")] == ["q", "p", "x"]
    # the total cell count is capped at 2^26 before anything is allocated
    assert GridSpec((Axis("q", -1, 2, 2 ** 13), Axis("p", -1, 2, 2 ** 13))).shape == (8192, 8192)
    with pytest.raises(ValueError, match=f"grid of {2 ** 27} cells exceeds the cap of {2 ** 26}"):
        GridSpec((Axis("q", -1, 2, 2 ** 13), Axis("p", -1, 2, 2 ** 14)))


def test_inner_product_and_norm():
    assert abs(norm(W) - 1.0) <= 1e-12
    assert inner_product(W, Wavefunction(GRID, 1j * W.values)) \
        == pytest.approx(1j * inner_product(W, W), abs=1e-12)
    # discrete plane waves on the p axis are orthogonal
    p = GRID.coordinate("p")
    k = GRID.wavenumber("p")
    k1, k2 = np.sort(np.unique(np.abs(k)))[1:3]
    a = Wavefunction(GRID, np.broadcast_to(np.exp(1j * k1 * p), GRID.shape).copy())
    b = Wavefunction(GRID, np.broadcast_to(np.exp(1j * k2 * p), GRID.shape).copy())
    assert abs(inner_product(a, b)) <= 1e-12 * norm(a) * norm(b)


def test_grid_mismatch():
    other = gaussian_init(make_grid(32), (0, 0), (2, 2))
    with pytest.raises(ValueError, match="grid mismatch"):
        inner_product(W, other)


def test_apply_lambda_eigenfunction():
    k = GRID.wavenumber("q")
    k0 = np.unique(k[k > 0])[2]
    q = GRID.coordinate("q")
    p = GRID.coordinate("p")
    vals = np.exp(1j * k0 * q) * np.exp(-(p ** 2))
    w = Wavefunction(GRID, np.broadcast_to(vals, GRID.shape).copy())
    got = apply_lambda(w, "q")
    assert np.max(np.abs(got.values - k0 * w.values)) <= 1e-10
    const = Wavefunction(GRID, np.ones(GRID.shape, dtype=complex))
    assert np.max(np.abs(apply_lambda(const, "q").values)) <= 1e-12


def test_lambda_on_real_even_gaussian_has_zero_expectation():
    w = gaussian_init(GRID, (0.0, 0.0), (1.0, 1.0))
    val = inner_product(w, apply_lambda(w, "q"))
    assert abs(val) <= 1e-10


def _band_limited(rng, grid, frac=6):
    spec = np.zeros(grid.shape, dtype=complex)
    cut = [n // frac for n in grid.shape]
    sl = tuple(slice(0, c) for c in cut)
    block = rng.standard_normal([c for c in cut]) + 1j * rng.standard_normal([c for c in cut])
    spec[sl] = block
    for ax in range(len(grid.shape)):
        spec = np.roll(spec, -cut[ax] // 2, axis=ax)
    vals = np.fft.ifftn(spec)
    return Wavefunction(grid, vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.cell_weight))


def test_apply_lambda_self_adjoint_randomized():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = _band_limited(rng, GRID)
        b = _band_limited(rng, GRID)
        lhs = inner_product(a, apply_lambda(b, "q"))
        rhs = inner_product(apply_lambda(a, "q"), b)
        assert abs(lhs - rhs) <= 1e-10


def test_discrete_canonical_commutator():
    # [q-multiplication, -i d/dq] acts as i on states away from the seam
    w = gaussian_init(GRID, (0.0, 0.0), (1.0, 1.0))
    q = GRID.coordinate("q")
    qw = Wavefunction(GRID, q * w.values)
    c = q * apply_lambda(w, "q").values - apply_lambda(qw, "q").values
    assert np.max(np.abs(c - 1j * w.values)) <= 1e-8


def test_parseval():
    spec = np.fft.fftn(W.values)
    phys = np.sum(np.abs(W.values) ** 2) * GRID.cell_weight
    spectral = np.sum(np.abs(spec) ** 2) / W.values.size * GRID.cell_weight
    assert abs(phys - spectral) <= 1e-12


def test_expectation_examples():
    w = gaussian_init(GRID, (0.7, 1.3), (1.0, 0.8))
    q, p = GRID.coordinate("q"), GRID.coordinate("p")
    mean_p = inner_product(w, Wavefunction(GRID, p * w.values))
    assert mean_p.real == pytest.approx(1.3, abs=1e-8)
    # exact Gaussian moments: for amplitude width s, the density
    # variance is s^2/2
    val = inner_product(w, Wavefunction(GRID, (p ** 2 + q ** 2) / 2 * w.values))
    expect = (0.8 ** 2 / 2 + 1.3 ** 2 + 1.0 ** 2 / 2 + 0.7 ** 2) / 2
    assert val.real == pytest.approx(expect, rel=1e-10)
    assert abs(val.imag) <= 1e-10


def test_expectation_of_quantum_momentum_plane_wave():
    g = GridSpec((Axis("x", -8, 16, 128),))
    x = g.coordinate("x")
    k = g.wavenumber("x")
    k0 = np.unique(k[k > 0])[4]
    env = np.exp(-x ** 2 / 4)
    w = Wavefunction(g, env * np.exp(1j * k0 * x))
    w = Wavefunction(g, w.values / norm(w))
    got = inner_product(w, apply_lambda(w, "x"))
    assert got.real == pytest.approx(k0, abs=1e-8)


def test_gaussian_init_contract():
    assert abs(norm(W) - 1) <= 1e-12
    assert np.max(np.abs(W.values.imag)) == 0.0
    with pytest.raises(ValueError, match="3 grid spacings"):
        gaussian_init(GRID, (0, 0), (0.1, 1.0))
    with pytest.raises(ValueError, match="one center"):
        gaussian_init(GRID, (0,), (1, 1))
    with pytest.raises(ValueError, match="unknown phase option 'action'"):
        gaussian_init(GRID, (0, 0), (1, 1), phase="action")


def test_gaussian_marginals():
    w = gaussian_init(GRID, (0.5, -0.3), (1.0, 1.4))
    dens = np.sum(np.abs(w.values) ** 2, axis=1) * GRID.axis("p").spacing
    q = GRID.axis("q").coordinates()
    expect = np.exp(-(q - 0.5) ** 2 / 1.0)
    expect /= expect.sum() * GRID.axis("q").spacing
    assert np.max(np.abs(dens - expect)) <= 1e-10


def test_phase_mask_and_leakage():
    assert phase_mask(W).sum() < W.values.size
    assert leakage(W) <= 1e-8
    wide = gaussian_init(GRID, (6.0, 0.0), (1.5, 1.0))
    assert leakage(wide) > 1e-8


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.sampled_from((8, 16, 32)), min_size=1, max_size=4),
       data=st.data(), overwrite=st.booleans(), workers=st.integers(1, 3))
def test_fft_is_worker_independent_in_place_and_exact(shape, data, overwrite, workers):
    scipy_fft = pytest.importorskip("scipy.fft")
    axes = data.draw(st.lists(st.integers(0, len(shape) - 1), min_size=1, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    one_worker = {fn: fn(values, axes) for fn in (_fft, _ifft)}
    try:
        set_fft_workers(workers)
        for fn, reference in ((_fft, scipy_fft.fftn), (_ifft, scipy_fft.ifftn)):
            v = values.copy()
            out = fn(v, axes, overwrite)
            assert out.tobytes() == one_worker[fn].tobytes()
            # with overwrite the input buffer is the result; else it is untouched
            assert out is v if overwrite else v.tobytes() == values.tobytes()
            expected = reference(values, axes=axes)
            assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
        back = _ifft(_fft(values, axes), axes)
        assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))
    finally:
        set_fft_workers(1)


def test_dump_roundtrip(tmp_path):
    path = tmp_path / "state.kvhw"
    dump_state(W, path)
    back = load_state(path)
    assert back.grid == W.grid
    assert np.array_equal(back.values, W.values)
    bad = tmp_path / "bad.kvhw"
    bad.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError, match="not a KVHW"):
        load_state(bad)


# names of 1-12 ASCII bytes (no NUL, which pads the name field); over 8 is refused
_AXES = st.lists(
    st.tuples(st.sampled_from("qpx"),
              st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=11),
              st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.sampled_from((8, 16, 32))),
    min_size=1, max_size=4, unique_by=lambda ax: ax[0] + ax[1])


@settings(max_examples=60, deadline=None)
@given(axes=_AXES, head=st.lists(st.complex_numbers(allow_nan=False), max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dump_roundtrip_is_byte_exact(tmp_path_factory, axes, head, seed):
    grid = GridSpec(tuple(Axis(role + rest, lo, ext, n) for role, rest, lo, ext, n in axes))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for part in (values.real, values.imag):     # signed zeros on a quarter of each
        zero = rng.random(grid.shape) < 0.25
        part[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
    flat = values.reshape(-1)
    flat[:len(head)] = head[:flat.size]
    path = tmp_path_factory.mktemp("kvhw") / "state.kvhw"
    if any(len(a.name) > 8 for a in grid.axes):
        with pytest.raises(ValueError, match="longer than 8 bytes"):
            dump_state(Wavefunction(grid, values), path)
        assert not path.exists()
        return
    dump_state(Wavefunction(grid, values), path)
    back = load_state(path)
    assert back.grid == grid
    assert back.values.tobytes() == values.tobytes()


def test_dump_rejects_long_axis_name_before_writing(tmp_path):
    grid = GridSpec((Axis("q_position", -8, 16, 64), Axis("p", -8, 16, 64)))
    w = gaussian_init(grid, (0.0, 0.0), (1.0, 1.0))
    path = tmp_path / "long.kvhw"
    with pytest.raises(ValueError, match="longer than 8 bytes"):
        dump_state(w, path)
    assert not path.exists()


def _name_record(good: bytes, name: bytes) -> bytes:
    return good[:64] + name.ljust(8, b"\x00") + good[72:]


@pytest.mark.parametrize("mangle", [
    lambda good: b"",
    lambda good: good[:20],
    lambda good: b"NOPE" + good[4:],
    lambda good: good[:64 + 32],             # rank 2, one axis record
    lambda good: good[:64 + 32 + 10],
    lambda good: _name_record(good, b""),
    lambda good: _name_record(good, b"q\xff"),
    lambda good: good[:-16],
    lambda good: good + bytes(16),
], ids=["empty", "short-header", "magic", "missing-axis", "short-axis",
        "empty-name", "non-ascii-name", "short-data", "long-data"])
def test_load_state_rejects_malformed_dumps(tmp_path, mangle):
    good = tmp_path / "good.kvhw"
    dump_state(W, good)
    bad = tmp_path / "bad.kvhw"
    bad.write_bytes(mangle(good.read_bytes()))
    with pytest.raises(ValueError) as info:
        load_state(bad)
    assert "\n" not in str(info.value)


def test_load_state_refuses_a_huge_grid_before_reading_data(tmp_path):
    good = tmp_path / "good.kvhw"
    dump_state(W, good)
    bad = tmp_path / "huge.kvhw"
    raw = good.read_bytes()
    bad.write_bytes(raw[:72] + struct.pack("<Q", 2 ** 40) + raw[80:])
    with pytest.raises(ValueError, match=f"grid of {2 ** 46} cells exceeds the cap"):
        load_state(bad)
