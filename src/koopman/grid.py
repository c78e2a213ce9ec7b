"""Periodic phase-space grids, wavefunctions, and spectral operators.

A grid is an ordered tensor product of periodic axes.  Each axis has a
role: q and p are classical phase-space coordinates, x is a quantum
position.  Amplitudes are dense complex arrays in row-major layout with
the axes in declaration order (the last declared axis is innermost), and
the integration measure is the product of the spacings.

Multiplication operators act pointwise; the derivative operators
(-i d/dq, -i d/dp, -i d/dx) act spectrally: transform along one axis,
multiply by the conjugate wavenumber, transform back.  Shifts by
arbitrary (non-grid) amounts are exact for band-limited data via
spectral phase factors.  All reductions use numpy's fixed pairwise
summation, so results are deterministic and independent of the FFT
worker count.

Binary state dumps use a 64-byte preamble (magic ``KVHW``, version,
rank) followed by one 32-byte record per axis (name, points, min,
extent) and the amplitudes as interleaved little-endian doubles.
Axis names must start with their role letter so dumps are
self-describing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.fft as sfft

from .ccr import NCPoly
from .exactpoly import CPoly

_fft_workers = 1


def set_fft_workers(n: int) -> None:
    """FFT thread count; output is byte-identical for any value."""
    global _fft_workers
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _fft_workers = int(n)


def _fft(values, axes, overwrite=False):
    """fftn over ``axes``; ``overwrite`` lets it reuse the input's memory,
    which on 64^3 data also halves the time of a two-axis transform."""
    return sfft.fftn(values, axes=tuple(axes), workers=_fft_workers,
                     overwrite_x=overwrite)


def _ifft(values, axes, overwrite=False):
    return sfft.ifftn(values, axes=tuple(axes), workers=_fft_workers,
                      overwrite_x=overwrite)


@dataclass(frozen=True)
class Axis:
    name: str
    role: str  # "q" | "p" | "x"
    min: float
    extent: float
    points: int

    def __post_init__(self):
        if self.role not in ("q", "p", "x"):
            raise ValueError(f"bad axis role {self.role!r}")
        if not self.name.startswith(self.role):
            raise ValueError(
                f"axis name {self.name!r} must start with its role letter")
        if self.points < 8 or self.points & (self.points - 1):
            raise ValueError("points must be a power of two >= 8")
        if not (self.extent > 0 and np.isfinite(self.extent) and np.isfinite(self.min)):
            raise ValueError("axis domain must be finite with positive extent")

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    def coordinates(self) -> np.ndarray:
        return self.min + self.spacing * np.arange(self.points)

    def wavenumbers(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate axis names")

    @property
    def shape(self) -> tuple:
        return tuple(a.points for a in self.axes)

    @property
    def cell_weight(self) -> float:
        return float(np.prod([a.spacing for a in self.axes]))

    def index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise ValueError(f"no axis named {name!r}")

    def axis(self, name: str) -> Axis:
        return self.axes[self.index(name)]

    def names(self, role: str | None = None) -> tuple:
        return tuple(a.name for a in self.axes if role is None or a.role == role)

    def _broadcast(self, values: np.ndarray, i: int) -> np.ndarray:
        shape = [1] * len(self.axes)
        shape[i] = self.axes[i].points
        return values.reshape(shape)

    def coordinate(self, name: str) -> np.ndarray:
        """Coordinate array of one axis, broadcastable over the grid."""
        i = self.index(name)
        return self._broadcast(self.axes[i].coordinates(), i)

    def wavenumber(self, name: str) -> np.ndarray:
        i = self.index(name)
        return self._broadcast(self.axes[i].wavenumbers(), i)

    def coordinate_bindings(self) -> dict:
        return {a.name: self.coordinate(a.name) for a in self.axes}


@dataclass(eq=False)
class Wavefunction:
    """Dense complex amplitudes over a grid; treated as an immutable value.

    ``closed_form``, when present, evaluates the same function at
    arbitrary points (dict of coordinate arrays -> complex array); the
    characteristics oracle uses it for exact off-grid evaluation.
    """
    grid: GridSpec
    values: np.ndarray
    closed_form: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError("amplitude shape does not match grid")


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def inner_product(a: Wavefunction, b: Wavefunction) -> complex:
    """<a|b> = sum conj(a)*b * cell_weight, deterministic order."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell_weight)


def norm(w: Wavefunction) -> float:
    return float(np.sqrt(np.sum(np.abs(w.values) ** 2) * w.grid.cell_weight))


def normalize(w: Wavefunction) -> Wavefunction:
    n = norm(w)
    if n == 0:
        raise ValueError("cannot normalize the zero wavefunction")
    return replace(w, values=w.values / n)


# ---------------------------------------------------------------------------
# primitive operators
# ---------------------------------------------------------------------------

def apply_mult(w: Wavefunction, f, params: Mapping | None = None) -> Wavefunction:
    """Multiplication operator: f may be a CPoly, a callable on the
    coordinate bindings, an array, or a scalar."""
    if isinstance(f, CPoly):
        bindings = dict(w.grid.coordinate_bindings())
        if params:
            bindings.update(params)
        factor = f.evaluate(bindings)
    elif callable(f):
        factor = f(w.grid.coordinate_bindings())
    else:
        factor = f
    return Wavefunction(w.grid, w.values * factor)


def apply_lambda(w: Wavefunction, name: str) -> Wavefunction:
    """-i d/d(axis): spectral derivative along one axis."""
    i = w.grid.index(name)
    k = w.grid.wavenumber(name)
    return Wavefunction(w.grid, _ifft(k * _fft(w.values, (i,)), (i,)))


def shift(w: Wavefunction, name: str, amount) -> Wavefunction:
    """Exact spectral shift psi -> psi(... coord - amount ...).

    ``amount`` may depend on the other axes (broadcastable array) but not
    on the shifted axis itself.
    """
    i = w.grid.index(name)
    amount = np.asarray(amount)
    if amount.ndim == len(w.grid.shape) and amount.shape[i] != 1:
        raise ValueError("shift amount may not vary along the shifted axis")
    k = w.grid.wavenumber(name)
    return Wavefunction(
        w.grid, _ifft(np.exp(-1j * k * amount) * _fft(w.values, (i,)), (i,)))


_LAMBDA_AXIS_KIND = {
    ("classical", "lam_pos"): "pos",
    ("classical", "lam_mom"): "mom",
    ("quantum", "mom"): "pos",
}


def apply_ncpoly(w: Wavefunction, op: NCPoly, params: Mapping | None = None) -> Wavefunction:
    """Apply a normal-ordered operator; grid axes must be named after the
    algebra's multiplication symbols (q, p, x conventions)."""
    from .ccr import GeneratorId  # local to avoid import cycle at module load

    alg = op.algebra
    params = dict(params or {})
    out = np.zeros_like(w.values)
    bindings = dict(w.grid.coordinate_bindings())
    bindings.update(params)
    for word, coeff in op.terms.items():
        cval = coeff.evaluate({s: params[s] for s in coeff.symbols})
        cur = w
        for g in reversed(word):
            if g.is_multiplication:
                cur = apply_mult(cur, w.grid.coordinate(alg.name(g)))
            else:
                base = _LAMBDA_AXIS_KIND[(g.sector, g.kind)]
                axis_name = alg.name(GeneratorId(g.sector, base, g.particle, g.axis))
                cur = apply_lambda(cur, axis_name)
        out = out + cval * cur.values
    return Wavefunction(w.grid, out)


def expectation(w: Wavefunction, op, params: Mapping | None = None) -> complex:
    """<w|O|w>/<w|w> for a multiplication CPoly, an NCPoly, or a callable
    Wavefunction -> Wavefunction.  For self-adjoint operators the caller
    should treat the imaginary part (<= 1e-10 on healthy data) as a
    diagnostic."""
    if isinstance(op, NCPoly):
        ow = apply_ncpoly(w, op, params)
    elif isinstance(op, CPoly) or not callable(op):
        ow = apply_mult(w, op, params)
    else:
        ow = op(w)
    return inner_product(w, ow) / inner_product(w, w)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def gaussian_init(
    grid: GridSpec,
    centers: Sequence[float],
    widths: Sequence[float],
    phase: str = "none",
    phase_coeffs: Sequence[float] | None = None,
) -> Wavefunction:
    """Normalized Gaussian product state.

    The amplitude along each axis falls as exp(-(z-c)^2 / (2 w^2)).
    phase: "none" keeps the state real (the natural choice for
    non-projective runs); "linear" multiplies exp(i sum c_i z_i);
    "action" seeds the phase with sum q_a p_a over the (q, p) axis pairs,
    which matches first-moment phase gradients to the momenta.
    """
    centers = tuple(float(c) for c in centers)
    widths = tuple(float(s) for s in widths)
    if len(centers) != len(grid.axes) or len(widths) != len(grid.axes):
        raise ValueError("need one center and one width per axis")
    for ax, s in zip(grid.axes, widths):
        if s < 3 * ax.spacing:
            raise ValueError(
                f"width {s} on axis {ax.name!r} is below 3 grid spacings "
                f"({3 * ax.spacing:.3g}); the state would be unresolvable")

    def envelope(points: Mapping[str, np.ndarray]):
        out = 1.0
        for ax, c, s in zip(grid.axes, centers, widths):
            z = points[ax.name]
            out = out * np.exp(-((z - c) ** 2) / (2 * s * s))
        return out

    def phase_field(points: Mapping[str, np.ndarray]):
        if phase == "none":
            return 0.0
        if phase == "linear":
            coeffs = phase_coeffs or ()
            if len(coeffs) != len(grid.axes):
                raise ValueError("linear phase needs one coefficient per axis")
            s = 0.0
            for ax, c in zip(grid.axes, coeffs):
                s = s + c * points[ax.name]
            return s
        if phase == "action":
            qnames = grid.names("q")
            pnames = grid.names("p")
            if len(qnames) != len(pnames):
                raise ValueError("action phase needs paired q and p axes")
            s = 0.0
            for qn, pn in zip(qnames, pnames):
                s = s + points[qn] * points[pn]
            return s
        raise ValueError(f"unknown phase option {phase!r}")

    bindings = grid.coordinate_bindings()
    values = envelope(bindings) * np.exp(1j * np.asarray(phase_field(bindings)))
    values = np.broadcast_to(values, grid.shape).astype(np.complex128)
    scale = 1.0 / (np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_weight))

    def closed_form(points: Mapping[str, np.ndarray]):
        return scale * envelope(points) * np.exp(1j * np.asarray(phase_field(points)))

    return Wavefunction(grid, values * scale, closed_form=closed_form)


# ---------------------------------------------------------------------------
# densities and diagnostics
# ---------------------------------------------------------------------------

def marginal_density(w: Wavefunction, keep: Iterable[str]):
    """|psi|^2 integrated over all axes not in ``keep``.

    Returns (density array over the kept axes in grid order, kept names).
    """
    keep = set(keep)
    unknown = keep - set(w.grid.names())
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}")
    drop = tuple(i for i, a in enumerate(w.grid.axes) if a.name not in keep)
    weight = float(np.prod([w.grid.axes[i].spacing for i in drop])) if drop else 1.0
    dens = np.sum(np.abs(w.values) ** 2, axis=drop) * weight
    kept = tuple(a.name for a in w.grid.axes if a.name in keep)
    return dens, kept


def phase_mask(w: Wavefunction, threshold: float = 1e-6) -> np.ndarray:
    """Where the phase is meaningful: |psi| > threshold * max|psi|."""
    mag = np.abs(w.values)
    return mag > threshold * mag.max()


def leakage(w: Wavefunction) -> float:
    """Peak boundary density relative to the global peak density."""
    dens = np.abs(w.values) ** 2
    peak = dens.max()
    if peak == 0:
        return 0.0
    worst = 0.0
    for i in range(dens.ndim):
        sl = [slice(None)] * dens.ndim
        for edge in (0, -1):
            sl[i] = edge
            worst = max(worst, float(dens[tuple(sl)].max()))
    return worst / peak


# ---------------------------------------------------------------------------
# binary dumps and CSV export
# ---------------------------------------------------------------------------

_MAGIC = b"KVHW"
_VERSION = 1


def dump_state(w: Wavefunction, path) -> None:
    with open(path, "wb") as fh:
        head = struct.pack("<4sIII", _MAGIC, _VERSION, len(w.grid.axes), 0)
        fh.write(head + b"\x00" * (64 - len(head)))
        for a in w.grid.axes:
            name = a.name.encode("ascii")
            if len(name) > 8:
                raise ValueError(f"axis name {a.name!r} longer than 8 bytes")
            fh.write(struct.pack("<8sQdd", name, a.points, a.min, a.extent))
        data = np.ascontiguousarray(w.values, dtype="<c16")
        fh.write(data.tobytes())


def load_state(path) -> Wavefunction:
    with open(path, "rb") as fh:
        head = fh.read(64)
        magic, version, rank, _ = struct.unpack("<4sIII", head[:16])
        if magic != _MAGIC:
            raise ValueError("not a KVHW state dump")
        if version != _VERSION:
            raise ValueError(f"unsupported dump version {version}")
        axes = []
        for _ in range(rank):
            name, points, lo, extent = struct.unpack("<8sQdd", fh.read(32))
            name = name.rstrip(b"\x00").decode("ascii")
            axes.append(Axis(name, name[0], lo, extent, points))
        grid = GridSpec(tuple(axes))
        data = np.frombuffer(fh.read(), dtype="<c16").reshape(grid.shape)
    return Wavefunction(grid, data.copy())


def marginal_to_csv(w: Wavefunction, keep: Iterable[str], path) -> None:
    """Marginal density as CSV: one row per kept-grid cell."""
    dens, kept = marginal_density(w, keep)
    axes = [w.grid.axis(n) for n in kept]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(list(kept) + ["density"]) + "\n")
        coords = [a.coordinates() for a in axes]
        for idx in np.ndindex(dens.shape):
            row = [f"{coords[d][i]:.17g}" for d, i in enumerate(idx)]
            row.append(f"{dens[idx]:.17g}")
            fh.write(",".join(row) + "\n")
