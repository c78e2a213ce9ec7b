"""Periodic phase-space grids, wavefunctions, and spectral operators.

A grid is an ordered tensor product of periodic axes.  The first letter
of an axis name is its role: q and p are classical phase-space
coordinates, x is a quantum position.  Amplitudes are dense complex
arrays with the axes in declaration order (the last declared axis is
innermost), and the integration measure is the product of the spacings.

Arrays the spectral layer owns (the output of a transform that does not
overwrite its input, and so the buffer ``evolve.run`` steps in place,
and the flow factors) are padded: each is the leading grid-shaped view
of a zero array one element longer on every axis except the first and
broadcast axes of length 1, e.g. 64 x 65 x 65 for a 64^3 grid.  With
power-of-two points every plain stride would be a power of two, so the
elements of one strided FFT line would share a few cache sets; padded,
every stride is an odd multiple of 16 bytes.  numpy copies each FFT line
into its own buffer, so results are bit-identical to a contiguous
layout.  Products of two padded arrays run over the whole padded
storage in one contiguous pass; the zero padding only meets padding.

Multiplication operators act pointwise; the derivative operators
(-i d/dq, -i d/dp, -i d/dx) act spectrally: transform along one axis,
multiply by the conjugate wavenumber, transform back.  Transforms are
numpy's FFT, given the axes reversed (which reproduces scipy.fft's axis
order bit for bit) and one output buffer; with several workers, threads
transform slabs of the array.  All reductions use numpy's fixed
pairwise summation, so results are deterministic and independent of the
FFT worker count.

Binary state dumps use a 64-byte preamble (magic ``KVHW``, version,
rank) followed by one 32-byte record per axis (name, points, min,
extent) and the amplitudes as interleaved little-endian doubles.
Since names carry the roles, dumps are self-describing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import numpy.fft as sfft

_fft_workers = 1
_pool = None        # the threads of set_fft_workers(n > 1)
# Largest grid accepted: 2^26 cells, 1 GiB of complex128 amplitudes
# (64 times the largest shipped grid, 32^4).
MAX_CELLS = 2 ** 26


def set_fft_workers(n: int) -> None:
    """FFT thread count; output is byte-identical for any value."""
    global _fft_workers, _pool
    if n < 1:
        raise ValueError("worker count must be >= 1")
    if _pool:
        _pool.shutdown()
    _fft_workers, _pool = int(n), None
    if n > 1:
        from concurrent.futures import ThreadPoolExecutor   # here: only threads need it
        _pool = ThreadPoolExecutor(n)


def _padded_shape(shape):
    return tuple(shape[:1]) + tuple(n + (n > 1) for n in shape[1:])


def _zeros(shape):
    """A complex zero array of ``shape`` in the padded layout (see the
    module docstring)."""
    return np.zeros(_padded_shape(shape), np.complex128)[tuple(map(slice, shape)) + (...,)]


def _copy(values):
    """``values`` copied into the padded layout."""
    out = _zeros(values.shape)
    out[...] = values
    return out


def _exp(z):
    """exp(z) written straight into the padded layout."""
    return np.exp(z, out=_zeros(np.shape(z)))


def _storage(a):
    """The padded array behind ``a`` if ``a`` is its leading view, else None."""
    base = a.base
    if (isinstance(base, np.ndarray) and base.dtype == a.dtype
            and base.shape == _padded_shape(a.shape) and base.strides == a.strides
            and base.flags.c_contiguous and base.ctypes.data == a.ctypes.data):
        return base
    return None


def _multiply(values, factor):
    """``values *= factor``: one contiguous pass over the padded storage
    when both are in the padded layout, else through the views."""
    a, b = _storage(values), _storage(factor)
    if a is None or b is None:
        a, b = values, factor
    a *= b


def _transform(fn, values, axes, overwrite):
    """numpy's ``fn`` (fftn or ifftn) over ``axes`` reversed, which matches
    scipy.fft bit for bit, into one buffer: ``values`` with ``overwrite``,
    else one new padded array.  With workers, each thread transforms one
    slab of the first untransformed axis, so every line's arithmetic is
    the same."""
    axes = tuple(axes)[::-1]
    out = values if overwrite else _zeros(values.shape)
    rest = [i for i in range(values.ndim) if i not in axes]
    if _pool is None or not rest:
        return fn(values, axes=axes, out=out)
    parts = min(_fft_workers, values.shape[rest[0]])
    slabs = zip(np.array_split(values, parts, rest[0]), np.array_split(out, parts, rest[0]))
    list(_pool.map(lambda slab: fn(slab[0], axes=axes, out=slab[1]), slabs))
    return out


def _fft(values, axes, overwrite=False):
    """fftn over ``axes``; ``overwrite`` transforms ``values`` in place."""
    return _transform(sfft.fftn, values, axes, overwrite)


def _ifft(values, axes, overwrite=False):
    return _transform(sfft.ifftn, values, axes, overwrite)


@dataclass(frozen=True)
class Axis:
    name: str
    min: float
    extent: float
    points: int

    def __post_init__(self):
        if self.name[:1] not in ("q", "p", "x"):
            raise ValueError(f"axis name {self.name!r} must start with q, p or x")
        if self.points < 8 or self.points & (self.points - 1):
            raise ValueError("points must be a power of two >= 8")
        if not (self.extent > 0 and np.isfinite(self.extent) and np.isfinite(self.min)):
            raise ValueError("axis domain must be finite with positive extent")

    @property
    def role(self) -> str:
        return self.name[0]

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
        cells = math.prod(self.shape)
        if cells > MAX_CELLS:
            raise ValueError(f"grid of {cells} cells exceeds the cap of {MAX_CELLS}")

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
    """Dense complex amplitudes over a grid; treated as an immutable value
    (``evolve.run`` alone steps its own buffer in place).

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


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def gaussian_init(
    grid: GridSpec,
    centers: Sequence[float],
    widths: Sequence[float],
) -> Wavefunction:
    """Normalized real Gaussian product state.

    The amplitude along each axis falls as exp(-(z-c)^2 / (2 w^2)).
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

    # filled and scaled in place: a full-grid complex temporary freed here
    # moves later large arrays of a run onto the heap and raises its peak RSS
    values = np.empty(grid.shape, np.complex128)
    values[...] = envelope(grid.coordinate_bindings())
    norm2 = np.sum(np.abs(values) ** 2) * grid.cell_weight
    if not 0 < norm2 < np.inf:
        raise ValueError(f"the packet's norm on the grid is {np.sqrt(norm2):.3g}: "
                         f"its centers lie too far outside the axes")
    scale = 1.0 / np.sqrt(norm2)
    values *= scale
    return Wavefunction(grid, values, closed_form=lambda points: scale * envelope(points))


# ---------------------------------------------------------------------------
# densities and diagnostics
# ---------------------------------------------------------------------------

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
# binary dumps
# ---------------------------------------------------------------------------

_MAGIC = b"KVHW"
_VERSION = 1


def axis_records(grid: GridSpec) -> bytes:
    """A dump's 32-byte axis records; ValueError for a name that does not fit."""
    records = []
    for a in grid.axes:
        if not a.name.isascii() or len(a.name) > 8:
            raise ValueError(f"axis name {a.name!r} is not ASCII or longer than 8 bytes")
        records.append(struct.pack("<8sQdd", a.name.encode("ascii"), a.points, a.min, a.extent))
    return b"".join(records)


def dump_state(w: Wavefunction, path) -> None:
    """Write a dump; every axis name is checked before the file is opened,
    so a bad name leaves no file behind."""
    records = axis_records(w.grid)
    with open(path, "wb") as fh:
        head = struct.pack("<4sIII", _MAGIC, _VERSION, len(w.grid.axes), 0)
        fh.write(head + b"\x00" * (64 - len(head)))
        fh.write(records)
        data = np.ascontiguousarray(w.values, dtype="<c16")
        fh.write(data.tobytes())


def load_state(path) -> Wavefunction:
    """Read a dump; a malformed one raises a one-line ValueError."""
    with open(path, "rb") as fh:
        head = fh.read(64)
        if len(head) < 64:
            raise ValueError(f"truncated KVHW header ({len(head)} of 64 bytes)")
        magic, version, rank, _ = struct.unpack("<4sIII", head[:16])
        if magic != _MAGIC:
            raise ValueError("not a KVHW state dump")
        if version != _VERSION:
            raise ValueError(f"unsupported dump version {version}")
        axes = []
        for n in range(1, rank + 1):
            record = fh.read(32)
            if len(record) < 32:
                raise ValueError(f"truncated KVHW axis record {n} of {rank}")
            name, points, lo, extent = struct.unpack("<8sQdd", record)
            name = name.rstrip(b"\x00")
            if not name or not name.isascii():
                raise ValueError(f"axis record {n} has an empty or non-ASCII name")
            name = name.decode("ascii")
            axes.append(Axis(name, lo, extent, points))
        grid = GridSpec(tuple(axes))
        data = fh.read()
    size = 16 * math.prod(grid.shape)
    if len(data) != size:
        raise ValueError(f"KVHW data has {len(data)} bytes; the grid needs {size}")
    values = np.frombuffer(data, dtype="<c16").reshape(grid.shape)
    return Wavefunction(grid, values.copy())
