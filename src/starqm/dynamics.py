"""Packet, oscillator, and evolution solvers on the deformed line.

Free Gaussian packets are built by direct momentum quadrature of their
on-shell mode sum.  Harmonic-oscillator energies are the closed-form ladder,
checked against a diagonalization of the stationary solver's Fourier-band
block at theta = 0, and eigenstate slices are the closed Gaussian-Hermite
transforms of the damped, gauge-phased momentum profiles.
A polynomial potential, the oscillator among them, has the deformed generator
H_theta = P_x^2/2m + V(X_theta^L) composed symbolically by
`operators.hamiltonian`; the stationary solver gates every polynomial level
on its residual, and the Ehrenfest law in `moments` reads its commutators
from it.
The stationary eigensolver and the split-step evolver both treat an
x-dependent potential as the deformed coordinate operator acting from the
left: on a component q(x) e^{-iEt} that action is

    x + (theta/2)(d_x - i d_t)  ->  (x - theta E/2) + (theta/2) d_x,

and conjugation by the Gaussian mode weight e^{-theta k^2/4} turns it into
plain multiplication by V(x - theta E/2).  Solvers therefore work in that
conjugated frame, where the potential step is an ordinary phase and the
flow is manifestly unitary for the induced norm.  A direct consequence is
that static-potential spectra do not depend on theta at all: the deformed
problem is a similarity transform of the commutative one shifted by
theta E/2, and a shift never moves eigenvalues.  The stationary solver
writes each frame operator in the Fourier basis of the slice, on the
narrowest band of low modes whose levels pass a full-grid residual check.
One scan solves the frame at the window's midpoint; each level then starts
from its scan vector translated into the frame at its own energy, and is
settled there when that translate passes the same residual check.  A level
clear of the box edge, where the sampled potential is a pure translate,
needs no eigensolve of its own; one that fails is re-solved in the frame at
its own energy until that energy settles.  Each level is checked before the
next is settled.

Time-dependent pulses V(t) are handled perturbatively by
transition_amplitude; the split-step evolver accepts a time-dependent
V(x, t) only at theta = 0, where it samples V at each step's midpoint.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from . import operators, phasecalc, symbols
from .fieldgrid import Field1D, Field2D, GridSpec, spectral_derivative
from .fieldgrid import _csv, _drop_noise_modes, _require_grid_theta, _require_nonnegative
from .fieldgrid import _edge_magnitude, _require_count, _require_positive, _sample, _scatter_sum
from .star import StarKernel, _require_voros

# Quadratures are cut off where the integrand magnitude drops below this.
_QUAD_FLOOR = 1e-14
# dt * (max|V| + k_max^2/2m) must stay below this for the split-step walk.
_STABILITY_LIMIT = 0.5
_REAL_TOL = 1e-12
# Re-solves allowed per level before the stationary energy counts as unsettled.
_MAX_RESOLVES = 12
# Fourier modes of the first stationary band, and the full-grid residual above
# which a band doubles.
_BAND_START = 64
_BAND_TOL = 1e-10
# ||(H_theta - E) psi|| / ||psi|| above which a polynomial stationary level raises:
# resolved oscillator levels read 2e-13 to 7e-13 at theta up to 0.4.
_ALGEBRA_TOL = 1e-9
# Simpson nodes (an odd count) for a transition amplitude's pulse integral.
_PULSE_SAMPLES = 4097
# Modes of the ladder check's band block, which holds at most this many levels.
_LADDER_MODES = 256
# Closed-form ladder vs the band block's levels, relative to 1 + E_max: off by
# at most 6e-14 of it up to n_max = 100, and by more than this from 108.
_LADDER_TOL = 1e-9
# Verified (m, omega, n_max) ladders kept per process.
_LADDER_CACHE_SIZE = 64


def _as_real(arr: np.ndarray, what: str, nodes: np.ndarray | float) -> np.ndarray:
    """Real values of a potential sampled on `nodes`; a non-finite sample is
    rejected with the first offending node named."""
    arr = np.asarray(arr, dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        i = int(bad[0])
        value = arr.flat[i] if arr.flat[i].imag else arr.flat[i].real
        raise ValueError(f"{what} is not finite at node {i} ({np.ravel(nodes)[i]:.6g}): {value}")
    scale = 1.0 + np.max(np.abs(arr.real)) if arr.size else 1.0
    if arr.size and np.max(np.abs(arr.imag)) > _REAL_TOL * scale:
        raise ValueError(f"{what} must be real-valued (hermiticity), got imaginary part")
    return arr.real.copy()


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PacketParams:
    """Free Gaussian packet: momentum width parameter sigma, mass m, theta.

    The complex width lam(t) = sigma^2/2 + theta/4 + it/2m must keep a
    strictly positive real part, so sigma = 0 is admissible only at
    theta > 0 (the packet then sits on the deformation floor).
    """

    sigma: float
    m: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        _require_nonnegative(self.sigma, "sigma")
        _require_positive(self.m, "mass")
        _require_nonnegative(self.theta, "theta")
        if self.sigma**2 / 2.0 + self.theta / 4.0 <= 0.0:
            raise ValueError("need sigma > 0 or theta > 0 so Re lam stays positive")

    def lam(self, t: float) -> complex:
        """Complex width lam(t) = sigma^2/2 + theta/4 + it/2m."""
        return complex(self.sigma**2 / 2.0 + self.theta / 4.0, t / (2.0 * self.m))


@dataclass(frozen=True)
class OscillatorParams:
    """Harmonic oscillator of mass m and frequency omega at deformation theta."""

    m: float
    omega: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(self.m, "mass")
        _require_positive(self.omega, "omega")
        _require_nonnegative(self.theta, "theta")

    @property
    def sigma_theta_sq(self) -> float:
        """Ground-state symbol width^2: theta/2 + 1/(m omega)."""
        return self.theta / 2.0 + 1.0 / (self.m * self.omega)

    def level_energy(self, n: int) -> float:
        return (n + 0.5) * self.omega


@dataclass(frozen=True)
class Potential:
    """A potential of one of four kinds: none, polynomial, time_pulse, custom.

    polynomial carries real coefficients c_j and samples sum_j c_j x^j; the
    oscillator `Potential.harmonic(m, omega)` is its quadratic case
    (0, 0, m omega^2/2).  none carries no coefficients, so wherever they are
    read it is the empty polynomial.  time_pulse samples a user shape V(t);
    custom samples V(x, t), or V(x) when its sampler takes one positional
    argument.  `static` records, once, whether V is free of t: none,
    polynomial and a one-argument custom are, a time_pulse and a
    two-argument custom are not.  Every sampling path enforces real values
    -- a complex potential would break hermiticity of the effective
    generator.
    """

    kind: str
    fn: Callable | None = None
    coeffs: tuple[float, ...] = ()
    static: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("none", "polynomial", "time_pulse", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind in ("time_pulse", "custom") and not callable(self.fn):
            raise ValueError(f"{self.kind} potential needs a callable sampler")
        coeffs = operators._real_coefficients(self.coeffs)
        if coeffs and self.kind != "polynomial":
            raise ValueError(f"a {self.kind} potential carries no coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        static = self.kind in ("none", "polynomial")
        if self.kind == "custom":
            try:
                params = inspect.signature(self.fn).parameters.values()
            except (TypeError, ValueError):
                params = []
            kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            static = sum(p.kind in kinds and p.default is p.empty for p in params) == 1
        object.__setattr__(self, "static", static)

    @classmethod
    def none(cls) -> "Potential":
        return cls("none")

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "Potential":
        """V(x) = sum_j coeffs[j] x^j."""
        return cls("polynomial", coeffs=coeffs)

    @classmethod
    def harmonic(cls, m: float, omega: float) -> "Potential":
        """The oscillator (m omega^2/2) x^2, as a polynomial."""
        _require_positive(m, "mass")
        _require_positive(omega, "omega")
        return cls.polynomial((0.0, 0.0, 0.5 * float(m) * float(omega) ** 2))

    @classmethod
    def time_pulse(cls, fn: Callable) -> "Potential":
        return cls("time_pulse", fn=fn)

    @classmethod
    def custom(cls, fn: Callable) -> "Potential":
        """Wrap a sampler V(x, t), or a static V(x)."""
        return cls("custom", fn=fn)

    def sample_space(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Real samples V(x, t) on the given positions at one time."""
        x = np.asarray(x, dtype=float)
        if self.kind in ("none", "polynomial"):
            return sum((c * x**j for j, c in enumerate(self.coeffs) if c), np.zeros_like(x))
        if self.kind == "time_pulse":
            val = float(_as_real(np.asarray(self.fn(t)), "time_pulse sample", t))
            return np.full_like(x, val)
        args = (x,) if self.static else (x, t)
        return _as_real(_sample(self.fn, x.shape, *args), "custom potential sample", x)

    def sample_time(self, ts: np.ndarray) -> np.ndarray:
        """Real samples V(t) of a time_pulse on the given times."""
        if self.kind != "time_pulse":
            raise ValueError(f"sample_time needs a time_pulse potential, got {self.kind!r}")
        ts = np.asarray(ts, dtype=float)
        return _as_real(_sample(self.fn, ts.shape, ts), "time_pulse sample", ts)


# ---------------------------------------------------------------------------
# free Gaussian packet
# ---------------------------------------------------------------------------


def packet_width(params: PacketParams, t: float) -> float:
    """Closed-form deformed width [(sigma^2 + theta/2)^2 + (t/m)^2]^(1/4)."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return ((params.sigma**2 + params.theta / 2.0) ** 2 + (t / params.m) ** 2) ** 0.25


def free_packet(params: PacketParams, t: float, spec: GridSpec) -> Field1D:
    """Quadrature of the free packet's on-shell mode sum at time t.

    Evaluates (sqrt(sigma)/2 pi^{5/4}) integral dp
    e^{-theta p^4/16m^2 - lam(t) p^2 + ipx} on the slice.  The p-cutoff is
    placed where the integrand magnitude falls below 1e-14, and the p-step
    is chosen fine enough that the quadrature's periodic images land far
    outside the box.  metadata records both choices.
    """
    _require_grid_theta(params.theta, spec, "packet theta")
    lam = params.lam(t)
    target = -math.log(_QUAD_FLOOR)
    # The quartic term only sharpens the decay, so the Gaussian bound is safe.
    p_cut = math.sqrt(target / lam.real)
    p_nyquist = math.pi / spec.dx
    if p_cut > p_nyquist * (1.0 + 1e-12):
        raise ValueError(
            f"momentum cutoff {p_cut:.4g} is unreachable on this grid "
            f"(Nyquist {p_nyquist:.4g}); refine dx"
        )
    # Alias control: images repeat every 2 pi/dp, and in the deformation-
    # dominated regime the slice decays like exp(-c x^{4/3}) rather than a
    # Gaussian, so the margin uses both width scales.
    margin = 12.0 * packet_width(params, t) + 10.0 * (params.theta / params.m**2) ** 0.25
    reach = max(abs(spec.x_min), abs(spec.x_max)) + margin
    dp = min(math.pi / reach, p_cut / 64.0)
    n_nodes = 2 * math.ceil(p_cut / dp) + 1
    p = np.linspace(-p_cut, p_cut, n_nodes)
    dp = float(p[1] - p[0])
    amp = np.exp(-params.theta * p**4 / (16.0 * params.m**2) - lam * p**2)
    prefactor = math.sqrt(params.sigma) / (2.0 * math.pi**1.25)
    vals = prefactor * (np.exp(1j * np.outer(spec.x, p)) @ amp) * dp
    return Field1D(spec, t, vals, {"cutoff": p_cut, "step": dp})


def first_order_packet(
    params: PacketParams, t: float, x: float | np.ndarray
) -> complex | np.ndarray:
    """First-order closed form of the free packet.

    (1/2 pi^{3/4}) sqrt(sigma/lam) [1 + theta f(x; lam)] e^{-x^2/4 lam} with
    f = (1/16m^2)(-3/4lam^2 + 3x^2/4lam^3 - x^4/16lam^4).  Warns when theta
    is not small against sigma^2 (the expansion parameter).
    """
    if params.theta > 0.1 * params.sigma**2:
        warnings.warn(
            f"first-order packet outside its regime: theta={params.theta} "
            f"is not small against sigma^2={params.sigma**2}",
            UserWarning,
            stacklevel=2,
        )
    lam = params.lam(t)
    xs = np.asarray(x, dtype=float)
    f = (
        -3.0 / (4.0 * lam**2)
        + 3.0 * xs**2 / (4.0 * lam**3)
        - xs**4 / (16.0 * lam**4)
    ) / (16.0 * params.m**2)
    vals = (
        (1.0 / (2.0 * math.pi**0.75))
        * np.sqrt(params.sigma / lam)
        * (1.0 + params.theta * f)
        * np.exp(-(xs**2) / (4.0 * lam))
    )
    if np.ndim(x) == 0:
        return complex(vals)
    return vals


# ---------------------------------------------------------------------------
# harmonic oscillator
# ---------------------------------------------------------------------------


def _band_block(v_hat: np.ndarray, kinetic: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Frame operator on the Fourier modes `band`: kinetic[band] on the diagonal
    plus the Toeplitz block v_hat[(i - j) mod n] of the potential's modes."""
    block = v_hat[(band[:, None] - band) % len(v_hat)]
    block[np.diag_indices(len(band))] += kinetic[band]
    return block


@lru_cache(maxsize=_LADDER_CACHE_SIZE)
def _verified_ladder(m: float, omega: float, n_max: int) -> tuple[float, ...]:
    """Closed-form ladder for n <= n_max, checked against the band block at theta = 0."""
    params = OscillatorParams(m, omega)
    closed = [params.level_energy(n) for n in range(n_max + 1)]
    # An x-box whose Fourier modes reach |k| = sqrt(m omega)(sqrt(2 n_max + 1) + 10),
    # centred on x = 0, with every mode in the band.
    dx = math.pi / (math.sqrt(m * omega) * (math.sqrt(2.0 * n_max + 1.0) + 10.0))
    x = dx * (np.arange(_LADDER_MODES) - _LADDER_MODES // 2)
    v_hat = np.fft.fft(Potential.harmonic(m, omega).sample_space(x)) / _LADDER_MODES
    k = 2.0 * np.pi * np.fft.fftfreq(_LADDER_MODES, d=dx)
    block = _band_block(v_hat, k**2 / (2.0 * m), np.arange(_LADDER_MODES))
    # V is even on a grid symmetric about 0, so v_hat is (-1)^k times a real
    # sequence: the block is real symmetric, and its imaginary part is rounding.
    levels = scipy.linalg.eigvalsh(block.real, subset_by_index=[0, n_max])
    worst = float(np.max(np.abs(levels - np.asarray(closed))))
    if worst > _LADDER_TOL * (1.0 + closed[-1]):
        raise RuntimeError(
            f"spectrum verification failed: closed form vs diagonalization "
            f"differ by {worst:.3e} (levels {levels.tolist()})"
        )
    return tuple(closed)


def oscillator_spectrum(params: OscillatorParams, n_max: int) -> list[float]:
    """Energies (n + 1/2) omega for n <= n_max, cross-checked numerically.

    The closed form is the independent side.  It is checked against the
    lowest levels of the stationary solver's band block (`_band_block`) for
    k^2/2m + m omega^2 x^2/2 on all 256 modes of an x-box sized for level
    n_max; a mismatch beyond 1e-9 (1 + E_max) raises rather than returning
    silently wrong levels.  A static potential's spectrum is free of theta
    (see the module docstring), so the check runs at theta = 0, once per
    (m, omega, n_max) in a process, and a theta-scan reuses it.  A failed
    check is not remembered: it raises again on every call.
    """
    n_max = _require_count(n_max, "n_max", 0)
    if n_max >= _LADDER_MODES:
        raise ValueError(
            f"n_max={n_max} asks for more levels than the ladder check's "
            f"{_LADDER_MODES} modes hold"
        )
    return list(_verified_ladder(params.m, params.omega, n_max))


def oscillator_eigenstate(
    params: OscillatorParams, n: int, spec: GridSpec, t: float = 0.0
) -> Field1D:
    """Level-n eigenstate slice in closed form.

    The momentum profile H_n(p/s) e^{-p^2/2s^2}, s^2 = m omega, carries the
    gauge phase e^{-i theta E_n p/2} and the damping e^{-theta(E_n^2+p^2)/4}.
    Its transform is e^{-y^2/4beta} h_n up to a constant, with beta =
    1/(2 s^2) + theta/4, y = x - theta E_n/2 and h_n = g^n H_n(w/g) for
    w = iy/(2 s beta), g^2 = 1 - 1/(s^2 beta), built by the recurrence
    h_{k+1} = 2w h_k - 2k g^2 h_{k-1}.  Only g^2 enters, so its sign change
    at theta m omega = 2 needs no branch.  The frame (the undamped profile)
    is the same transform at beta_0 = 1/(2 s^2), times
    sqrt(beta/beta_0) e^{theta E_n^2/4}.  The slice is normalized to unit
    induced norm, sum |frame|^2 dx, and tagged with metadata['energy'] and
    metadata['level'].
    """
    n = _require_count(n, "level", 0)
    _require_grid_theta(params.theta, spec, "oscillator theta")
    energy = params.level_energy(n)
    s_sq = params.m * params.omega
    beta_0 = 1.0 / (2.0 * s_sq)
    beta = beta_0 + params.theta / 4.0
    y = spec.x - params.theta * energy / 2.0

    def transform(beta: float) -> np.ndarray:
        """e^{-iEt} e^{-y^2/4beta} h_n at width parameter beta."""
        two_w = 1j * y / (math.sqrt(s_sq) * beta)
        g_sq = 1.0 - 1.0 / (s_sq * beta)
        h_prev, h = np.zeros_like(two_w), np.ones_like(two_w)
        for k in range(n):
            h_prev, h = h, two_w * h - 2.0 * k * g_sq * h_prev
        return np.exp(-1j * energy * t) * np.exp(-(y**2) / (4.0 * beta)) * h

    vals = transform(beta)
    edge = max(abs(vals[0]), abs(vals[-1])) / float(np.max(np.abs(vals)))
    if edge > 1e-12:
        raise ValueError(
            f"x-box too small for level {n}: the state still carries {edge:.2e} "
            "of its peak at the box edge, and the induced-product mode weights "
            "would amplify the truncation junk; widen the box"
        )
    gain = math.sqrt(beta / beta_0) * math.exp(params.theta * energy**2 / 4.0)
    frame = transform(beta_0) * gain
    fld = Field1D(spec, t, vals, {"energy": energy, "level": n}, frame)
    kernel = StarKernel(params.theta)
    norm_sq = symbols.induced_inner_product(kernel, fld, fld).real
    if not (math.isfinite(norm_sq) and norm_sq > 0):
        raise RuntimeError(f"eigenstate normalization failed (norm^2 = {norm_sq})")
    norm = math.sqrt(norm_sq)
    return Field1D(spec, t, vals / norm, {"energy": energy, "level": n}, frame / norm)


def oscillator_ground(
    params: OscillatorParams, spec: GridSpec
) -> tuple[Field2D, Field1D]:
    """Normalized ground-state symbol and its star-density on the first slice.

    The symbol is the shifted Gaussian e^{-(x - theta E0/2)^2 / 2 sigma_theta^2}
    e^{-i E0 t} at unit induced norm.  The density is the star square,
    normalized to integrate to one; its mean sits at theta E0 (the
    star square doubles the symbol shift) and its variance at
    sigma_theta^2/2 + theta/4, and both are checked before returning.  The
    first slice carries its frame in closed form, the Gaussian of variance
    sigma_theta^2 - theta/2 about theta E0/2 with amplitude
    sqrt(sigma_theta^2/(sigma_theta^2 - theta/2)) e^{theta E0^2/4}, so its
    density is the bounded frame route of `slice_density`.
    """
    energy = params.level_energy(0)
    s_sq = params.sigma_theta_sq
    var_target = s_sq / 2.0 + params.theta / 4.0
    mean_target = params.theta * energy
    center = params.theta * energy / 2.0
    width = math.sqrt(var_target)
    _require_grid_theta(params.theta, spec, "oscillator theta")
    if spec.dx > width / 4.0:
        raise ValueError(
            f"grid cannot resolve the density width {width:.4g} (dx = {spec.dx:.4g})"
        )
    if not (spec.x_min <= mean_target - 8.0 * width and mean_target + 8.0 * width <= spec.x_max):
        raise ValueError(
            f"box [{spec.x_min}, {spec.x_max}] does not contain the density "
            f"support {mean_target} +- {8.0 * width:.4g}"
        )
    if params.theta > 0:
        cycles = energy * (spec.t_max - spec.t_min) / (2.0 * math.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValueError(
                f"e^(-i E0 t) must be periodic on the t-box: E0 (t_max - t_min)/2 pi "
                f"= {cycles:.6g} is not an integer"
            )
    norm_sq = s_sq * math.exp(params.theta * energy**2 / 2.0) * math.sqrt(
        math.pi * params.m * params.omega
    )
    scale = 1.0 / math.sqrt(norm_sq)
    # x-Gaussian times one t-mode: the outer product of one column and one row.
    profile = scale * np.exp(-((spec.x - center) ** 2) / (2.0 * s_sq))
    symbol = Field2D(spec, np.exp(-1j * energy * spec.t)[:, None] * profile, {"energy": energy})
    # The periodic t-box makes the symbol a single t-mode, so the energy-tagged
    # slice density (d_t -> -i E0) gives the full density's row exactly.
    w_sq = s_sq - params.theta / 2.0
    gain = scale * math.sqrt(s_sq / w_sq) * math.exp(params.theta * energy**2 / 4.0)
    frame = gain * np.exp(-1j * energy * spec.t[0] - (spec.x - center) ** 2 / (2.0 * w_sq))
    first = Field1D(spec, spec.t[0], symbol.values[0], {"energy": energy}, frame)
    row = slice_density(StarKernel(params.theta), first).values.real
    total = float(np.sum(row)) * spec.dx
    row = row / total
    mean = float(np.sum(spec.x * row)) * spec.dx
    var = float(np.sum((spec.x - mean) ** 2 * row)) * spec.dx
    if abs(mean - mean_target) > 1e-6 * (1.0 + abs(mean_target)) or abs(
        var - var_target
    ) > 1e-6 * (1.0 + var_target):
        raise RuntimeError(
            f"resolution failure: density moments ({mean:.8g}, {var:.8g}) miss "
            f"targets ({mean_target:.8g}, {var_target:.8g})"
        )
    density = Field1D(
        spec,
        spec.t[0],
        row,
        {
            "mean": mean,
            "variance": var,
            "symbol_shift": center,
            "density_shift": mean_target,
        },
    )
    return symbol, density


# ---------------------------------------------------------------------------
# stationary eigensolver
# ---------------------------------------------------------------------------


def stationary_solve(
    potential: Potential,
    kernel: StarKernel,
    m: float,
    e_window: tuple[float, float],
    spec: GridSpec,
) -> list[tuple[float, Field1D]]:
    """Eigenpairs of E psi = -(1/2m) psi'' + V psi inside the closed window [lo, hi].

    Every eigensolve follows one rule: the frame operator at energy E (see
    the module docstring) in the Fourier basis of the slice, the diagonal
    k^2/2m plus the Hermitian Toeplitz block v_hat[(i - j) mod n] of
    v_hat = fft(V(x - theta E/2))/n, on a band of the lowest |k| modes.  The
    band starts at _BAND_START modes and doubles, up to the whole grid,
    while a solved level's full-grid residual exceeds _BAND_TOL.  A scan in
    the frame at the window's midpoint E_s counts the levels up to hi, then
    solves for those levels and the first above hi, with their indices in
    the full spectrum; its band must also pass on that first level above
    hi, since a narrow band lifts energies.  A scan level at energy E starts
    from its scan vector translated by theta (E - E_s)/2, the phase
    e^{-ik theta (E - E_s)/2} on its modes, and is settled at E when that
    vector's full-grid residual in the frame at E is at most _BAND_TOL.
    Any other level is re-solved in the frame at its latest energy until
    the energy moves by at most 1e-10 (1 + |E|), and one still moving after
    _MAX_RESOLVES re-solves raises.  Levels settle outward from the first
    whose scan energy is at least lo until one has settled past each edge of
    the window, and a level belongs to the window by its settled energy.
    Each level is checked as soon as it settles, so a failing level stops
    the solve.  Slices carry the global phase that makes the frame vector's x-space peak real and
    positive, and unit induced norm: each carries its frame (the frame vector
    at that phase, times e^{theta E^2/4}) and is normalized by the induced
    norm of that framed slice, the frame's L2 norm.  metadata holds
    'energy', 'level' (the full-spectrum index), 'iterations' (eigensolves
    with the scan counted as one: 1 for a level taken from the scan),
    'band_modes', 'residual' (the frame residual; above 1e-6 the solver
    raises) and 'cross_residual', a check of the level outside the frame,
    taken on the values of the slice before it is normalized:

    - polynomial: ||(H_theta - E) psi|| / ||psi||, with H_theta = P_x^2/2m +
      V(X_theta^L) composed by `operators.hamiltonian` and applied through
      `operators.apply`.  Only polynomial factors in k enter, so it reads
      2e-13 to 7e-13 on resolved levels of the oscillator (theta up to 0.4)
      and of x^2/2 + x^4/10 (up to 0.3); above _ALGEBRA_TOL the solver
      raises.  A level that reaches the box edge fails it: on the 512-point
      x in [-12, 12] grid, the oscillator from level 22 on at theta = 0.1,
      and the ground level of the tilt V = x.
    - custom: V has no operator form, so it acts through the slice star
      `phasecalc.phase_star` by its Gaussian-smoothed symbol, windowed to
      the box interior.  This check is recorded but never gated: the Voros
      mode weights cost it digits as theta grows.
    """
    _require_voros(kernel, spec, "the stationary solver")
    _require_positive(m, "mass")
    if potential.kind not in ("polynomial", "custom"):
        raise ValueError(
            f"the stationary solver needs an x-dependent potential, got {potential.kind!r}"
        )
    if not potential.static:
        raise ValueError(
            "the stationary solver needs a time-independent potential: pass a one-argument V(x)"
        )
    try:
        e_lo, e_hi = map(float, e_window)
    except (TypeError, ValueError):
        raise ValueError(f"energy window must be two numbers (lo, hi), got {e_window!r}") from None
    if not (math.isfinite(e_lo) and math.isfinite(e_hi)):
        raise ValueError(f"energy window must be finite, got ({e_lo}, {e_hi})")
    if not e_lo < e_hi:
        raise ValueError(f"energy window must satisfy lo < hi, got ({e_lo}, {e_hi})")
    theta, n = spec.theta, spec.n_x
    kinetic = spec.k_x**2 / (2.0 * m)

    def frame_residuals(v: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Full-grid residuals of the mode vectors c (columns) with energies w
        in the frame whose potential samples are v."""
        h_c = kinetic[:, None] * c + np.fft.fft(v[:, None] * np.fft.ifft(c, axis=0), axis=0)
        return np.linalg.norm(h_c - w * c, axis=0)

    def band_solve(energy: float, modes: int, lvl: int | None = None):
        """Frame eigenpairs at `energy` on the first band that passes, as full-grid
        mode vectors: level `lvl`, or every level up to e_hi and the first above."""
        v = potential.sample_space(spec.x - theta * energy / 2.0, 0.0)
        v_hat = np.fft.fft(v) / n
        while True:
            band = np.arange(-(modes // 2), (modes + 1) // 2) % n
            block = _band_block(v_hat, kinetic, band)
            if lvl is None:
                # Count the levels up to e_hi, then take their vectors and the next one's.
                below = scipy.linalg.eigh(block, eigvals_only=True, subset_by_value=(-np.inf, e_hi))
                subset = [0, min(len(below), modes - 1)]
            else:
                subset = [lvl, lvl]
            w, vecs = scipy.linalg.eigh(block, overwrite_a=True, subset_by_index=subset)
            c = np.zeros((n, len(w)), dtype=np.complex128)
            c[band] = vecs
            residuals = frame_residuals(v, c, w)
            if modes == n or not np.any(residuals > _BAND_TOL):
                return w, c, residuals, modes
            modes = min(2 * modes, n)

    e_scan = 0.5 * (e_lo + e_hi)
    w, c_scan, _, scan_modes = band_solve(e_scan, min(_BAND_START, n))

    def settle(lvl: int):
        """Settle level lvl in the frame at its own energy.  A scan level starts
        from its scan vector translated there; one whose frame residual passes is
        settled, and any other is re-solved in the frame at its latest energy
        until that energy settles (a level past the scan starts from the scan's
        top energy)."""
        trace = [float(w[min(lvl, len(w) - 1)])]
        modes = scan_modes if lvl < scan_modes else n
        if lvl < len(w):
            shift = np.exp(-0.5j * theta * (trace[0] - e_scan) * spec.k_x)
            c = c_scan[:, [lvl]] * shift[:, None]
            v = potential.sample_space(spec.x - theta * trace[0] / 2.0, 0.0)
            res = frame_residuals(v, c, w[[lvl]])
            if res[0] <= _BAND_TOL:
                return trace, c, float(res[0]), modes
        for _ in range(_MAX_RESOLVES):
            e_new, c, res, modes = band_solve(trace[-1], modes, lvl)
            trace.append(float(e_new[0]))
            if abs(trace[-1] - trace[-2]) <= 1e-10 * (1.0 + abs(trace[-1])):
                return trace, c, float(res[0]), modes
        raise RuntimeError(
            f"energy fixed point for level {lvl} did not settle within "
            f"{_MAX_RESOLVES} re-solves; trace {trace}"
        )

    if potential.kind == "polynomial":
        h_theta = operators.hamiltonian(m, potential.coeffs, theta)

        def h_apply(fld: Field1D) -> np.ndarray:
            # Lifted from the values alone: the residual never reads the frame.
            return operators.apply(h_theta, phasecalc._slice_part(fld)).values_at(fld.t_slice)

    else:
        # The potential acts through the slice star by its operator symbol,
        # V smoothed by a variance-theta/2 Gaussian.  The symbol is windowed
        # to the box interior by a flat-top bump (equal to 1 wherever a
        # resolvable state lives) because a non-periodic potential has a kink
        # at the box edge whose Fourier tail the star weights would amplify
        # into pure noise.
        v_hat = np.fft.fft(potential.sample_space(spec.x, 0.0)) * np.exp(-theta * spec.k_x**2 / 4.0)
        xc = 0.5 * (spec.x_min + spec.x_max)
        half = 0.75 * (spec.x_max - spec.x_min) / 2.0
        window = np.exp(-(((spec.x - xc) / half) ** 32))
        v_part = phasecalc.stationary_part(spec, 0.0, np.fft.ifft(v_hat).real * window)

        def h_apply(fld: Field1D) -> np.ndarray:
            vpsi = phasecalc.phase_star(v_part, phasecalc._slice_part(fld)).values_at(fld.t_slice)
            return np.fft.ifft(kinetic * np.fft.fft(fld.values)) + vpsi

    damp = np.exp(-theta * spec.k_x**2 / 4.0)

    def level_slice(lvl: int, trace: list, c: np.ndarray, residual: float, modes: int) -> Field1D:
        """Check a settled level in the window and return its normalized slice."""
        energy = trace[-1]
        if residual > 1e-6:
            raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds 1e-6 for level {lvl}")
        frame_vec = np.fft.ifft(c[:, 0])
        peak = frame_vec[int(np.argmax(np.abs(frame_vec)))]
        phase = np.conj(peak) / abs(peak) * np.exp(-1j * energy * spec.t[0])
        vals = np.fft.ifft(c[:, 0] * damp) * phase
        frame = frame_vec * phase * math.exp(theta * energy**2 / 4.0)
        fld = Field1D(spec, spec.t[0], vals, {"energy": energy}, frame)
        cross = float(np.linalg.norm(h_apply(fld) - energy * vals) / np.linalg.norm(vals))
        if potential.kind == "polynomial" and cross > _ALGEBRA_TOL:
            raise RuntimeError(
                f"operator-algebra residual {cross:.3e} exceeds {_ALGEBRA_TOL:g} for level "
                f"{lvl} (E = {energy:.6g}, edge magnitude {_edge_magnitude(vals, 0):.2e}); "
                "a level that reaches the box edge is not resolved: widen the box"
            )
        norm = math.sqrt(symbols.induced_inner_product(kernel, fld, fld).real)
        meta = {
            "energy": energy,
            "level": int(lvl),
            "residual": residual,
            "cross_residual": cross,
            "iterations": len(trace),
            "band_modes": modes,
        }
        return Field1D(spec, spec.t[0], vals / norm, meta, frame / norm)

    # The frame can carry a level across a window edge, so membership is decided
    # on settled energies: levels settle outward from the first scan level at or
    # above lo until one settles past each edge; each is checked as it settles.
    first = int(np.searchsorted(w, e_lo))
    results: list[tuple[float, Field1D]] = []
    for start, stop, step, edge in ((first, n, 1, e_hi), (first - 1, -1, -1, e_lo)):
        for lvl in range(start, stop, step):
            trace, c, residual, modes = settle(lvl)
            if step * (trace[-1] - edge) > 0:
                break
            if e_lo <= trace[-1] <= e_hi:
                results.append((trace[-1], level_slice(lvl, trace, c, residual, modes)))
    results.sort(key=lambda pair: pair[0])
    return results


# ---------------------------------------------------------------------------
# split-step evolution
# ---------------------------------------------------------------------------


def evolve(
    psi0: Field1D,
    potential: Potential,
    kernel: StarKernel,
    m: float,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> list[Field1D]:
    """Split-step walk of i d_t psi = -(1/2m) d_x^2 psi + V psi.

    Steps are kinetic half, potential, kinetic half.  A static potential
    (`Potential.static`) has its phase built once; any other is sampled at
    each step's midpoint, and is rejected at theta > 0.  There an
    x-dependent potential needs metadata['energy'] on psi0 and acts as
    multiplication by V(x - theta E/2) in the frame conjugated by
    e^{+theta k^2/4}, which conserves the induced norm exactly (the two
    frames differ by a diagonal mode weight).  Snapshots keep the launch
    slice label; physical time offsets live in metadata['elapsed'].

    A framed psi0, or a tagged one under an x-dependent potential at
    theta > 0, walks on frames from fft(frame) e^{-theta E^2/4}, the frame
    from `phasecalc._frames` (never stored for an unframed psi0).  Only a
    framed psi0's snapshots carry ifft(phi_hat) e^{theta E^2/4} as their
    frame, for the pairings along the trajectory to read.  Any other walk
    (theta = 0, or an unframed psi0 under `Potential.none`) runs on the cut
    values.
    """
    spec = psi0.spec
    theta = spec.theta
    _require_voros(kernel, spec, "evolve")
    _require_positive(m, "mass")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    steps = _require_count(steps, "steps", 1)
    record_every = _require_count(record_every, "record_every", 1)
    if theta > 0 and not potential.static:
        raise ValueError(
            "time-dependent potentials at theta > 0 are outside the single-"
            "frequency reduction; pass a one-argument V(x) for a static custom "
            "potential, or treat pulses with transition_amplitude"
        )
    energy = psi0.metadata.get("energy")
    use_frame = theta > 0 and potential.kind in ("polynomial", "custom")
    if use_frame and energy is None:
        raise ValueError(
            "theta > 0 evolution under an x-dependent potential needs "
            "metadata['energy'] on psi0 (the stationary reduction scale)"
        )
    x_frame = spec.x - theta * float(energy) / 2.0 if use_frame else spec.x
    per_step = not potential.static
    t0 = psi0.t_slice

    probe_t = t0 + np.linspace(0.0, steps * dt, 1025) if per_step else [0.0]
    v_max = max(float(np.max(np.abs(potential.sample_space(x_frame, t)))) for t in probe_t)
    k_max = float(np.max(np.abs(spec.k_x)))
    budget = dt * (v_max + k_max**2 / (2.0 * m))
    if budget >= _STABILITY_LIMIT:
        raise ValueError(
            f"unstable step: dt (max|V| + k_max^2/2m) = {budget:.4g} >= {_STABILITY_LIMIT}"
        )

    def phase(t: float) -> np.ndarray:
        return np.exp(-1j * dt * potential.sample_space(x_frame, t))

    tag = {} if energy is None else {"energy": float(energy)}
    framed = psi0.frame is not None
    # A framed walk runs on the frame's modes whatever the potential.
    on_frames = use_frame or framed
    damp = np.exp(-theta * spec.k_x**2 / 4.0) if on_frames else 1.0
    gain = math.exp(theta * float(energy) ** 2 / 4.0) if on_frames and theta > 0 else 1.0

    def snapshot(step: int, hat: np.ndarray) -> Field1D:
        meta = {"step": step, "elapsed": step * dt, **tag}
        frame = np.fft.ifft(hat) * gain if framed else None
        return Field1D(spec, t0, np.fft.ifft(hat * damp), meta, frame)

    meta0 = {**psi0.metadata, "step": 0, "elapsed": 0.0, **tag}
    trajectory = [Field1D(spec, t0, psi0.values, meta0, psi0.frame)]
    record = [*range(record_every, steps, record_every), steps]
    if on_frames:
        row = phasecalc._frames([psi0], np.array([phasecalc._slice_energy(psi0)]))[0]
        phi_hat = np.fft.fft(row) / gain
    else:
        phi_hat, _ = _drop_noise_modes(np.fft.fft(psi0.values))
    if potential.kind == "none":
        # All factors commute, so each snapshot's phase is composed in one
        # exponential from its exact elapsed time; repeated multiplication
        # would pile up rounding that the induced mode weights then amplify.
        return trajectory + [
            snapshot(n, phi_hat * np.exp(-1j * spec.k_x**2 * (n * dt) / (2.0 * m)))
            for n in record
        ]
    kin_half = np.exp(-1j * spec.k_x**2 * dt / (4.0 * m))
    fixed = None if per_step else phase(0.0)
    done = 0
    for n in record:
        for j in range(done, n):
            step_phase = phase(t0 + (j + 0.5) * dt) if per_step else fixed
            phi_hat = np.fft.fft(np.fft.ifft(phi_hat * kin_half) * step_phase) * kin_half
        done = n
        trajectory.append(snapshot(n, phi_hat))
    return trajectory


def slice_density(kernel: StarKernel, fld: Field1D, m: float | None = None) -> Field1D:
    """Star-density sqrt(2 pi theta) psi* (star) psi of one slice.

    theta = 0 returns |psi|^2.  For theta > 0 the temporal derivative needs a
    frequency scale, and each kind of slice has one route.  An energy-tagged
    slice (d_t -> -iE, E = metadata['energy']) reads its Weyl frame phi, its
    own or one from `phasecalc._frames`:

        rho = sqrt(2 pi theta) ifft(fft(|phi|^2) e^{-theta q^2/4 - i theta E q/2}),

    |phi|^2 smoothed by a variance-theta/2 Gaussian and shifted by theta E/2.
    An untagged slice with a mass m takes the free on-shell reduction
    E_k = k^2/2m, which has no single frame.  With m_k = -i E_k - k, the
    multiplier of d_t + i d_x on x-mode k, it is the mode-pair sum

        rho(x) = sqrt(2 pi theta)/N^2 sum_{k,k'} conj(psi_k) psi_k'
                 e^{(theta/2) conj(m_k) m_k'} e^{i(k' - k)(x - x_min)}

    over the modes that survive the noise cutoff: each pair lands in mode
    (k' - k) mod N, and one inverse FFT follows.  The weight matrix is
    positive semidefinite (a Schur product), so a negative value is rounding
    and the sum is returned unclipped.

    A density beyond floating-point range raises a ValueError that names it.
    """
    _require_voros(kernel, fld.spec, "the slice density")
    spec = fld.spec
    if kernel.theta == 0.0:
        return Field1D(spec, fld.t_slice, np.abs(fld.values) ** 2)
    energy = fld.metadata.get("energy")
    if energy is None:
        if m is None:
            raise ValueError(
                "slice density at theta > 0 needs metadata['energy'] or a mass m "
                "for the on-shell reduction"
            )
        _require_positive(m, "mass")
    # An overflow is rejected below, by name, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if energy is not None:
            frame = phasecalc._frames([fld], np.array([float(energy)]))[0]
            q = spec.k_x
            smooth = np.exp(-kernel.theta * q**2 / 4.0 - 0.5j * kernel.theta * float(energy) * q)
            spectrum, scale = np.fft.fft(np.abs(frame) ** 2) * smooth, 1.0
        else:
            vhat, _ = _drop_noise_modes(np.fft.fft(fld.values))
            live = np.flatnonzero(vhat)
            k, amps = spec.k_x[live], vhat[live]
            mult = -1j * (k**2 / (2.0 * m)) - k
            weight = np.outer(np.conj(amps), amps) * np.exp(
                (kernel.theta / 2.0) * np.outer(np.conj(mult), mult)
            )
            spectrum = _scatter_sum((live - live[:, None]) % spec.n_x, weight, spec.n_x)
            scale = 1.0 / spec.n_x
        rho = (math.sqrt(2.0 * math.pi * kernel.theta) * scale) * np.fft.ifft(spectrum).real
    if not np.all(np.isfinite(rho)):
        raise ValueError(
            "slice density is not finite: |frame|^2, or a Voros weight "
            "e^{(theta/2) conj(m_k) m_k'} of the on-shell mode-pair sum, overflowed"
        )
    return Field1D(spec, fld.t_slice, rho)


# ---------------------------------------------------------------------------
# transition amplitudes
# ---------------------------------------------------------------------------


def _simpson(y: np.ndarray, h: float) -> complex:
    """Composite Simpson rule on an odd number of samples spaced h apart."""
    return complex(np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (h / 3.0))


def transition_amplitude(
    pulse: Potential | Callable,
    i_state: Field1D,
    f_state: Field1D,
    T: float,
    theta: float,
    kernel: StarKernel,
) -> complex:
    """First-order amplitude for a time-only pulse V(t) acting over [0, T].

    Evaluates -i integral_0^T dt e^{i w_fi t} [V(t) (f, i) +
    (theta/2) V'(t) (-i E_i (f, i) + i (f, d_x i))] with induced-product
    matrix elements on the grid.  The V' integral is reduced by parts to
    boundary terms plus the V integral, so only one quadrature is needed.
    Warns when theta times the peak drive is not small (the derivation
    assumes |theta dC/dt| << 1).
    """
    if isinstance(pulse, Potential):
        if pulse.kind != "time_pulse":
            raise ValueError(f"the pulse must be a time_pulse potential, got {pulse.kind!r}")
        shape = pulse.sample_time
    elif callable(pulse):
        shape = Potential.time_pulse(pulse).sample_time
    else:
        raise TypeError(f"pulse must be a Potential or callable, got {type(pulse).__name__}")
    _require_voros(kernel, i_state.spec, "the transition amplitude")
    if theta != kernel.theta:
        raise ValueError(f"theta {theta} does not match kernel theta {kernel.theta}")
    if i_state.spec != f_state.spec:
        raise ValueError("initial and final states must share a GridSpec")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"pulse duration must be finite and > 0, got {T}")
    energies = []
    for name, state in (("i_state", i_state), ("f_state", f_state)):
        energy = state.metadata.get("energy")
        if energy is None:
            raise ValueError(f"{name} needs metadata['energy'] (an eigenstate tag)")
        energies.append(float(energy))
    e_i, e_f = energies
    omega_fi = e_f - e_i
    overlap = symbols.induced_inner_product(kernel, f_state, i_state)
    d_i = spectral_derivative(i_state, "x")
    d_overlap = symbols.induced_inner_product(kernel, f_state, d_i)
    bracket = -1j * e_i * overlap + 1j * d_overlap

    ts = np.linspace(0.0, T, _PULSE_SAMPLES)
    v = shape(ts)
    phase = np.exp(1j * omega_fi * ts)
    i0 = _simpson(v * phase, ts[1] - ts[0])
    i1 = v[-1] * np.exp(1j * omega_fi * T) - v[0] - 1j * omega_fi * i0
    amplitude = -1j * (overlap * i0 + (theta / 2.0) * bracket * i1)

    v_dot = np.gradient(v, ts)
    drive = np.max(np.abs(v * overlap + (theta / 2.0) * v_dot * bracket))
    if theta * float(drive) > 0.1:
        warnings.warn(
            f"perturbative regime strained: theta * peak drive = "
            f"{theta * float(drive):.3g} > 0.1",
            UserWarning,
            stacklevel=2,
        )
    return complex(amplitude)


def transition_rate(amplitude: complex, T: float) -> float:
    """Rate |amplitude|^2 / T of the first-order transition."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"duration must be finite and > 0, got {T}")
    return abs(amplitude) ** 2 / T


# ---------------------------------------------------------------------------
# tabular export
# ---------------------------------------------------------------------------


def trajectory_csv(
    trajectory: Sequence[Field1D], kernel: StarKernel, m: float | None = None
) -> str:
    """CSV rows `step,t,x,re,im,rho` for every slice of a trajectory."""
    blocks = []
    for fld in trajectory:
        n_x = fld.spec.n_x
        step = int(fld.metadata.get("step", 0))
        t = phasecalc._slice_time(fld)
        rho = slice_density(kernel, fld, m=m).values.real
        blocks.append(
            (np.full(n_x, step), np.full(n_x, t), fld.spec.x, fld.values.real, fld.values.imag, rho)
        )
    return _csv("step,t,x,re,im,rho", *(np.concatenate(col) for col in zip(*blocks)))


def spectrum_csv(energies: Sequence[float]) -> str:
    """CSV rows `n,E` of an energy ladder."""
    return _csv("n,E", range(len(energies)), energies)


def rate_scan_csv(rows: Sequence[tuple[float, float]]) -> str:
    """CSV rows `theta,rate` of a transition-rate scan."""
    return _csv("theta,rate", *zip(*rows))
