"""Uniform periodic (t, x) grids and complex fields sampled on them.

Everything downstream — star products, symbol calculus, dynamics — works with
fields on a rectangular box with periodic identification.  Derivatives are
spectral (exact on band-limited fields), which is what makes the infinite-order
bidifferential star product computable at all; the price is that fields must
decay below ``EDGE_DECAY_TOL`` relative magnitude at the box edges unless the
caller explicitly opts into periodic semantics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

# Relative amplitude at the box edge above which a field no longer counts as
# decayed (spectral differentiation of such a field silently assumes
# periodicity, so we flag it).
EDGE_DECAY_TOL = 1e-10

# Fourier-mode magnitudes below this fraction of the peak count as rounding
# noise and are dropped: the Voros multiplier grows like e^{theta |k||k'|/2}
# for anti-aligned mode pairs, so such noise must not participate.  Star
# products, phasecalc.phase_star, the frame of an unframed slice
# (phasecalc._frames, at theta > 0, which every slice pairing, tagged slice
# density and split-step start on frames reads), the on-shell slice density,
# the values walk of the evolver and the quasi-projection drop modes at this
# level: about 45 double-precision epsilons, just above the rounding floor a
# transform leaves relative to its peak mode.
DEFAULT_MODE_CUTOFF = 1e-14

# Fixed-line pairings of full fields, and plane pairings of fields without a
# frame, drop modes at this coarser level; its one reader is
# symbols._pairing, which computes both.  Their partner mode pairs carry
# Voros growth up to e^{theta |k||k'|/2}.
# Derivative factors in a composed operator lift the rounding floor of the
# input spectrum above 1e-14, and the growth then amplifies exactly those
# modes: for a coherent symbol centred at (0.3, -0.5) sqrt(theta) on the
# 128^2 box of reach 8 sqrt(theta) at theta = 0.1, the plane norm reads
# 1.1e19 at cutoff 1e-14 (star engine and partner sum alike, both being the
# same discrete sum) and 1.0 at 1e-12 and 1e-10; its fixed-line norm at
# t = 0 is off the closed form by a factor 1.9e18 at 1e-14 and by 1.2e-9 at
# 1e-10.  This level still keeps every mode a Gaussian symbol populates
# above 1e-10.
_PAIRING_MODE_CUTOFF = 1e-10


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_positive(value: float, what: str) -> None:
    """Reject a value that is not a finite number > 0 (NaN included)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be > 0, got {value}")


def _require_nonnegative(value: float, what: str) -> None:
    """Reject a value that is not a finite number >= 0 (NaN included)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be >= 0, got {value}")


def _require_count(value: float, what: str, minimum: int) -> int:
    """A whole number >= minimum (0 or 1) as an int; nan and inf fail here, not in int()."""
    if not (value >= minimum and value % 1 == 0):
        kind = "positive" if minimum >= 1 else "nonnegative"
        raise ValueError(f"{what} must be a {kind} integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic (t, x) sampling box.

    Sample points are ``t_min + i*dt`` for ``i < n_t`` (the right endpoint is
    the periodic image of the left one), and likewise in x.  When theta > 0
    the spacings must resolve the noncommutative length scale:
    dt, dx <= sqrt(theta)/4.
    """

    n_t: int
    n_x: int
    t_min: float
    t_max: float
    x_min: float
    x_max: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name, n in (("n_t", self.n_t), ("n_x", self.n_x)):
            if not isinstance(n, numbers.Integral) or n < 8 or not _is_power_of_two(n):
                raise ValueError(f"{name} must be a power of two >= 8, got {n}")
        for name in ("t_min", "t_max", "x_min", "x_max"):
            edge = getattr(self, name)
            if not math.isfinite(edge):
                raise ValueError(f"box edge {name} must be finite, got {edge}")
        if not self.t_max > self.t_min:
            raise ValueError(f"need t_max > t_min, got [{self.t_min}, {self.t_max}]")
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        # Finite edges can still span more than the largest double.
        for axis, lo, hi in (("t", self.t_min, self.t_max), ("x", self.x_min, self.x_max)):
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"box extent {axis}_max - {axis}_min must be finite, got {hi - lo}"
                )
        _require_nonnegative(self.theta, "theta")
        if self.theta > 0:
            limit = np.sqrt(self.theta) / 4.0
            if self.dt > limit * (1 + 1e-12) or self.dx > limit * (1 + 1e-12):
                raise ValueError(
                    f"grid too coarse for theta={self.theta}: spacings "
                    f"(dt={self.dt:.4g}, dx={self.dx:.4g}) must not exceed "
                    f"sqrt(theta)/4 = {limit:.4g}"
                )

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / self.n_t

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def t(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.n_t)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_x)

    # The wavenumbers are computed once per spec and shared by every caller,
    # so they are read-only.
    @cached_property
    def k_t(self) -> np.ndarray:
        """Angular frequencies of the temporal Fourier modes (read-only)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_t, d=self.dt)
        k.setflags(write=False)
        return k

    @cached_property
    def k_x(self) -> np.ndarray:
        """Angular wavenumbers of the spatial Fourier modes (read-only)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_x, d=self.dx)
        k.setflags(write=False)
        return k


def _as_field_values(values: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Field2D:
    """Complex field on the full (t, x) box, values indexed [i_t, i_x].

    values is the Voros symbol.  frame, when present, is the same state's
    Weyl amplitude: its Fourier modes are those of values times
    e^{theta |k|^2/4} at the grid's theta, known in closed form.  Only
    `symbols.coherent_symbol` sets it, and every field built from new values
    carries None, so a frame always belongs to the values beside it.  The
    whole-plane pairing of `moments.expectation` reads the frame when there
    is one; fixed-line pairings and unframed fields use values only.
    """

    spec: GridSpec
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    frame: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = (self.spec.n_t, self.spec.n_x)
        object.__setattr__(self, "values", _as_field_values(self.values, shape, "Field2D"))
        if self.frame is not None:
            object.__setattr__(self, "frame", _as_field_values(self.frame, shape, "Field2D frame"))


@dataclass(frozen=True)
class Field1D:
    """Complex field on a fixed-t slice of the box, values indexed [i_x].

    values is the Voros symbol on the slice.  frame, when present, is the
    same state's Weyl amplitude on the slice, in x-space and with the same
    e^{-iEt} phase: its Fourier modes are those of values times
    e^{theta (E^2 + k^2)/4}, E = metadata['energy'], so a frame at
    theta > 0 needs that tag.  The induced norm of a framed slice is
    sum |frame|^2 dx.  The library's energy-tagged constructors set it where
    they build the amplitude (`dynamics.oscillator_eigenstate`,
    `stationary_solve`, `evolve` from a framed start, and the first slice of
    `oscillator_ground`), and `spectral_derivative` and `operators.apply`
    carry it; every slice built from new values carries None.  Slice
    pairings, energy-tagged slice densities and split-step starts on frames
    always read a frame: a slice without one gets it from the values in
    `phasecalc._frames`, for that one caller, and it is never stored here.
    Only the untagged on-shell density of `dynamics.slice_density` reads
    the values, since its modes sit at different energies.
    """

    spec: GridSpec
    t_slice: float
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    frame: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = (self.spec.n_x,)
        object.__setattr__(self, "values", _as_field_values(self.values, shape, "Field1D"))
        if self.frame is not None:
            object.__setattr__(self, "frame", _as_field_values(self.frame, shape, "Field1D frame"))
            if self.spec.theta > 0 and self.metadata.get("energy") is None:
                raise ValueError(
                    "a Field1D frame at theta > 0 needs metadata['energy']: its modes "
                    "carry the damping e^{-theta (E^2 + k^2)/4}"
                )
        if not (self.spec.t_min <= self.t_slice <= self.spec.t_max):
            raise ValueError(
                f"t_slice={self.t_slice} outside box [{self.spec.t_min}, {self.spec.t_max}]"
            )


def _sample(fn: Callable, shape: tuple[int, ...], *args: np.ndarray) -> np.ndarray:
    """fn(*args) as a new complex array of the given shape.

    fn is called once on the arrays and its result broadcast to shape; a
    callable that fails on arrays with TypeError or ValueError is evaluated
    point by point through np.vectorize instead.
    """
    try:
        return np.broadcast_to(np.asarray(fn(*args), dtype=np.complex128), shape).copy()
    except (TypeError, ValueError):
        return np.vectorize(fn, otypes=[np.complex128])(*args)


def sample_field(f: Callable[[np.ndarray, np.ndarray], np.ndarray], spec: GridSpec) -> Field2D:
    """Sample f(t, x) on the grid nodes.

    f is called with broadcastable (t, x) meshes; scalar-only callables are
    handled via np.vectorize.  A non-finite sample is rejected with the
    offending node named.
    """
    tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
    vals = _sample(f, (spec.n_t, spec.n_x), tt, xx)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i_t, i_x = np.argwhere(bad)[0]
        raise ValueError(
            f"non-finite sample {vals[i_t, i_x]} at node "
            f"(t={spec.t[i_t]:.6g}, x={spec.x[i_x]:.6g})"
        )
    return Field2D(spec, vals)


def _drop_noise_modes(
    fhat: np.ndarray, cutoff: float = DEFAULT_MODE_CUTOFF, axis: tuple[int, ...] | None = None
) -> tuple[np.ndarray, int]:
    """Zero the modes with |fhat| < cutoff * max|fhat| in place; return fhat and their count.

    The peak is taken over the whole array, or over `axis` only: one peak per
    index of the other axes, so each state of a stack is cut by its own.  A
    mode is kept where |fhat| >= cutoff * peak, so a NaN mode, or every mode
    under a NaN peak, is zeroed.  fhat is overwritten, so every caller passes
    a transform it has just made and owns.
    """
    mag = np.abs(fhat)
    keep = mag >= cutoff * np.max(mag, axis=axis, keepdims=True)
    dropped = int(fhat.size - np.count_nonzero(keep))
    if dropped:
        np.copyto(fhat, 0.0, where=np.logical_not(keep, out=keep))
    return fhat, dropped


def _fft2(values: np.ndarray) -> np.ndarray:
    """np.fft.fft2(values), written into one fresh complex array.

    Both axis passes write into the out= array, so a transform allocates
    one array instead of one per pass; the bits are those of plain fft2.
    """
    return np.fft.fft2(values, out=np.empty(np.shape(values), dtype=np.complex128))


def _scatter_sum(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Complex sum of the weights that land in each bin 0 <= index < size.

    One `np.bincount` per real and imaginary part; each bin adds its weights
    in input order, as `np.add.at` does.
    """
    index = index.ravel()
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, weights.real.ravel(), size)
    out.imag = np.bincount(index, weights.imag.ravel(), size)
    return out


def _require_grid_theta(theta: float, spec: GridSpec, what: str) -> None:
    if theta != spec.theta:
        raise ValueError(f"{what} {theta} does not match grid theta {spec.theta}")


def _edge_magnitude(values: np.ndarray, axis: int) -> float:
    """Largest |value| on the two boundary lines of the given axis, relative to the global max."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    first = np.take(values, 0, axis=axis)
    last = np.take(values, -1, axis=axis)
    return float(max(np.max(np.abs(first)), np.max(np.abs(last))) / peak)


def spectral_derivative(
    fld: Field2D | Field1D,
    axis: str,
    order: int = 1,
    periodic: bool = False,
) -> Field2D | Field1D:
    """Differentiate by Fourier multiplier (ik)^order along axis 't' or 'x'.

    Exact for band-limited periodic fields.  Unless periodic=True, the result
    metadata carries an 'edge_decay_warning' entry when the field has not
    decayed below EDGE_DECAY_TOL (relative) at the box edges of that axis.
    A framed Field1D has its frame differentiated too: the multiplier
    commutes with the damping that relates the two.
    """
    order = _require_count(order, "derivative order", 1)
    if axis not in ("t", "x"):
        raise ValueError(f"axis must be 't' or 'x', got {axis!r}")

    if isinstance(fld, Field1D):
        if axis != "x":
            raise ValueError("Field1D only supports axis='x'")
        axnum, k = 0, fld.spec.k_x
    elif isinstance(fld, Field2D):
        axnum, k = (0, fld.spec.k_t) if axis == "t" else (1, fld.spec.k_x)
    else:
        raise TypeError(f"expected Field2D or Field1D, got {type(fld).__name__}")

    metadata = dict(fld.metadata)
    if not periodic:
        edge = _edge_magnitude(fld.values, axnum)
        if edge > EDGE_DECAY_TOL:
            metadata["edge_decay_warning"] = {"axis": axis, "relative_edge_magnitude": edge}

    mult = ((1j * k) ** order).reshape([-1 if i == axnum else 1 for i in range(fld.values.ndim)])

    def derive(values: np.ndarray) -> np.ndarray:
        return np.fft.ifft(np.fft.fft(values, axis=axnum) * mult, axis=axnum)

    if isinstance(fld, Field1D):
        frame = None if fld.frame is None else derive(fld.frame)
        return Field1D(fld.spec, fld.t_slice, derive(fld.values), metadata, frame)
    return Field2D(fld.spec, derive(fld.values), metadata)


def integrate(fld: Field2D | Field1D, axes: str | Iterable[str] | None = None) -> complex | np.ndarray:
    """Riemann sum with spacing weights (the trapezoid rule on a periodic box).

    axes=None integrates over every axis of the field and returns a complex
    scalar; naming a single axis of a Field2D returns the 1-D array of partial
    sums along the other axis.
    """
    if isinstance(fld, Field1D):
        if axes not in (None, "x", ("x",)):
            raise ValueError(f"Field1D integrates over 'x' only, got axes={axes!r}")
        return complex(np.sum(fld.values) * fld.spec.dx)
    if not isinstance(fld, Field2D):
        raise TypeError(f"expected Field2D or Field1D, got {type(fld).__name__}")

    if axes is None:
        axes = ("t", "x")
    if isinstance(axes, str):
        axes = tuple(axes) if set(axes) <= {"t", "x"} else (axes,)
    axes = tuple(axes)
    if not axes or any(a not in ("t", "x") for a in axes) or len(set(axes)) != len(axes):
        raise ValueError(f"axes must name 't', 'x' or both, got {axes!r}")

    weights = {"t": fld.spec.dt, "x": fld.spec.dx}
    axnums = tuple(0 if a == "t" else 1 for a in axes)
    out = np.sum(fld.values, axis=axnums)
    for a in axes:
        out = out * weights[a]
    if np.ndim(out) == 0:
        return complex(out)
    return out


def _csv(header: str, *columns) -> str:
    """CSV text: the header, then one row per index of the equal-length columns, every value as .17g."""
    rows = (",".join(f"{v:.17g}" for v in row) for row in zip(*columns))
    return "\n".join((header, *rows)) + "\n"


def _node_columns(fld: Field2D | Field1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, value) of every sample, row-major over (i_t, i_x)."""
    if isinstance(fld, Field1D):
        return np.full(fld.spec.n_x, fld.t_slice), fld.spec.x, fld.values
    if isinstance(fld, Field2D):
        tt, xx = np.meshgrid(fld.spec.t, fld.spec.x, indexing="ij")
        return tt.ravel(), xx.ravel(), fld.values.ravel()
    raise TypeError(f"expected Field2D or Field1D, got {type(fld).__name__}")


def to_csv(fld: Field2D | Field1D) -> str:
    """Serialize to CSV: header ``t,x,re,im``, row-major over (i_t, i_x), 17 significant digits."""
    t, x, v = _node_columns(fld)
    return _csv("t,x,re,im", t, x, v.real, v.imag)
