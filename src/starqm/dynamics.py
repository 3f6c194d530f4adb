"""Packet, oscillator, and evolution solvers on the deformed line.

Free Gaussian packets are built by direct momentum quadrature of their
on-shell mode sum.  Harmonic-oscillator energies come with an independent
momentum-space diagonalization check, and eigenstate slices are the closed
Gaussian-Hermite transforms of the damped, gauge-phased momentum profiles.
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
theta E/2, and a shift never moves eigenvalues.

Time-dependent pulses V(t) are handled perturbatively by
transition_amplitude; the split-step evolver only accepts them at theta=0,
where they reduce to a global phase per step.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from . import phasecalc, symbols
from .fieldgrid import Field1D, Field2D, GridSpec, sample_field, spectral_derivative
from .fieldgrid import _csv, _drop_noise_modes, _require_grid_theta
from .star import StarKernel, _require_theta_match, _require_voros, _star_square_series

# Quadratures are cut off where the integrand magnitude drops below this.
_QUAD_FLOOR = 1e-14
# dt * (max|V| + k_max^2/2m) must stay below this for the split-step walk.
_STABILITY_LIMIT = 0.5
_REAL_TOL = 1e-12
# Re-solves allowed per level before the stationary energy counts as unsettled.
_MAX_RESOLVES = 12


def _as_real(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.complex128)
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
        for name, val in (("sigma", self.sigma), ("m", self.m), ("theta", self.theta)):
            if not math.isfinite(val):
                raise ValueError(f"PacketParams.{name} must be finite, got {val}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.m <= 0:
            raise ValueError(f"mass must be > 0, got {self.m}")
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
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
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"mass must be finite and > 0, got {self.m}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")

    @property
    def sigma_theta_sq(self) -> float:
        """Ground-state symbol width^2: theta/2 + 1/(m omega)."""
        return self.theta / 2.0 + 1.0 / (self.m * self.omega)

    def level_energy(self, n: int) -> float:
        return (n + 0.5) * self.omega


@dataclass(frozen=True)
class Potential:
    """A potential of one of four kinds: none, harmonic, time_pulse, custom.

    harmonic carries (m, omega) and samples (m omega^2/2) x^2; time_pulse
    samples a user shape V(t); custom samples V(x, t).  Every sampling path
    enforces real values -- a complex potential would break hermiticity of
    the effective generator.
    """

    kind: str
    fn: Callable | None = None
    m: float | None = None
    omega: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "harmonic", "time_pulse", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic":
            if self.m is None or self.omega is None or self.m <= 0 or self.omega <= 0:
                raise ValueError("harmonic potential needs m > 0 and omega > 0")
        if self.kind in ("time_pulse", "custom") and not callable(self.fn):
            raise ValueError(f"{self.kind} potential needs a callable sampler")

    @classmethod
    def none(cls) -> "Potential":
        return cls("none")

    @classmethod
    def harmonic(cls, m: float, omega: float) -> "Potential":
        return cls("harmonic", m=float(m), omega=float(omega))

    @classmethod
    def time_pulse(cls, fn: Callable) -> "Potential":
        return cls("time_pulse", fn=fn)

    @classmethod
    def custom(cls, fn: Callable) -> "Potential":
        """Wrap a sampler V(x, t); a plain V(x) callable is adapted as static."""
        try:
            params = [
                p
                for p in inspect.signature(fn).parameters.values()
                if p.kind
                in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
                and p.default is inspect.Parameter.empty
            ]
            arity = len(params)
        except (TypeError, ValueError):
            arity = 2
        if arity == 1:
            return cls("custom", fn=lambda x, t, _f=fn: _f(x))
        return cls("custom", fn=fn)

    def sample_space(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Real samples V(x, t) on the given positions at one time."""
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return 0.5 * self.m * self.omega**2 * x**2
        if self.kind == "time_pulse":
            val = float(_as_real(np.asarray(self.fn(t)), "time_pulse sample"))
            return np.full_like(x, val)
        try:
            raw = np.broadcast_to(np.asarray(self.fn(x, t)), x.shape)
        except (TypeError, ValueError):
            raw = np.vectorize(self.fn, otypes=[np.complex128])(x, t)
        return _as_real(raw, "custom potential sample")

    def sample_time(self, ts: np.ndarray) -> np.ndarray:
        """Real samples V(t) of a time_pulse on the given times."""
        if self.kind != "time_pulse":
            raise ValueError(f"sample_time needs a time_pulse potential, got {self.kind!r}")
        ts = np.asarray(ts, dtype=float)
        try:
            raw = np.broadcast_to(np.asarray(self.fn(ts)), ts.shape)
        except (TypeError, ValueError):
            raw = np.vectorize(self.fn, otypes=[np.complex128])(ts)
        return _as_real(raw, "time_pulse sample")

    def is_static(self, x_probe: np.ndarray) -> bool:
        """True when V carries no time dependence (probed for custom kinds)."""
        if self.kind in ("none", "harmonic"):
            return True
        if self.kind == "time_pulse":
            return False
        a = self.sample_space(x_probe, 0.31830988618)
        b = self.sample_space(x_probe, 1.77245385090)
        scale = 1.0 + float(np.max(np.abs(a)))
        return bool(np.max(np.abs(a - b)) <= 1e-12 * scale)


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


def _oscillator_momentum_box(params: OscillatorParams, n_top: int, n_modes: int) -> np.ndarray:
    """Periodic p-grid wide enough for levels up to n_top."""
    scale = math.sqrt(params.m * params.omega)
    extent = scale * (math.sqrt(2.0 * n_top + 1.0) + 10.0)
    dp = 2.0 * extent / n_modes
    return -extent + dp * np.arange(n_modes)


def oscillator_momentum_operator(
    params: OscillatorParams, energy: float, n_top: int, n_modes: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Dense momentum-space generator (1/2m)[p^2 - m^2 w^2 (d_p + i theta E/2)^2].

    Returns (p, H) on a periodic p-box sized for levels up to n_top.  At
    energy = 0 this is the gauge-stripped, theta-free operator; at the
    level energies it is the deformed one whose eigenfunctions carry the
    e^{-i theta E p/2} phase.
    """
    p = _oscillator_momentum_box(params, n_top, n_modes)
    dp = float(p[1] - p[0])
    if params.theta * abs(energy) * dp / 2.0 > math.pi:
        raise ValueError(
            "gauge phase wraps across one momentum step "
            f"(theta*E*dp/2 = {params.theta * abs(energy) * dp / 2.0:.4g} > pi); "
            "refine the momentum box"
        )
    k = 2.0 * np.pi * np.fft.fftfreq(n_modes, d=dp)
    # (d_p + i theta E/2)^2 is the Fourier multiplier (ik + i theta E/2)^2,
    # whose dense matrix is the circulant c[(i - j) mod n] of c = ifft(symbol).
    shift_sq = scipy.linalg.circulant(np.fft.ifft((1j * k + 0.5j * params.theta * energy) ** 2))
    H = np.diag(p**2 / (2.0 * params.m)) - (params.m * params.omega**2 / 2.0) * shift_sq
    return p, 0.5 * (H + H.conj().T)


def oscillator_spectrum(params: OscillatorParams, n_max: int) -> list[float]:
    """Energies (n + 1/2) omega for n <= n_max, cross-checked numerically.

    The closed form is verified against a diagonalization of the
    gauge-stripped momentum-space operator; a mismatch beyond 1e-6 raises
    rather than returning silently wrong levels.
    """
    if n_max < 0 or int(n_max) != n_max:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    closed = [params.level_energy(n) for n in range(n_max + 1)]
    _, H = oscillator_momentum_operator(params, 0.0, n_max)
    levels = scipy.linalg.eigvalsh(H)[: n_max + 1]
    worst = float(np.max(np.abs(levels - np.asarray(closed))))
    if worst > 1e-6 * (1.0 + closed[-1]):
        raise RuntimeError(
            f"spectrum verification failed: closed form vs diagonalization "
            f"differ by {worst:.3e} (levels {levels.tolist()})"
        )
    return closed


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
    at theta m omega = 2 needs no branch.  The slice is normalized to unit
    induced norm and tagged with metadata['energy'] and metadata['level'].
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"level must be a nonnegative integer, got {n}")
    _require_grid_theta(params.theta, spec, "oscillator theta")
    energy = params.level_energy(n)
    s_sq = params.m * params.omega
    beta = 1.0 / (2.0 * s_sq) + params.theta / 4.0
    y = spec.x - params.theta * energy / 2.0
    two_w = 1j * y / (math.sqrt(s_sq) * beta)
    g_sq = 1.0 - 1.0 / (s_sq * beta)
    h_prev, h = np.zeros_like(two_w), np.ones_like(two_w)
    for k in range(int(n)):
        h_prev, h = h, two_w * h - 2.0 * k * g_sq * h_prev
    vals = np.exp(-1j * energy * t) * np.exp(-(y**2) / (4.0 * beta)) * h
    edge = max(abs(vals[0]), abs(vals[-1])) / float(np.max(np.abs(vals)))
    if edge > 1e-12:
        raise ValueError(
            f"x-box too small for level {n}: the state still carries {edge:.2e} "
            "of its peak at the box edge, and the induced-product mode weights "
            "would amplify the truncation junk; widen the box"
        )
    fld = Field1D(spec, t, vals, {"energy": energy, "level": int(n)})
    kernel = StarKernel(params.theta)
    norm_sq = symbols.induced_inner_product(kernel, fld, fld).real
    if not (math.isfinite(norm_sq) and norm_sq > 0):
        raise RuntimeError(f"eigenstate normalization failed (norm^2 = {norm_sq})")
    return Field1D(
        spec, t, vals / math.sqrt(norm_sq), {"energy": energy, "level": int(n)}
    )


def oscillator_ground(
    params: OscillatorParams, spec: GridSpec
) -> tuple[Field2D, Field1D]:
    """Normalized ground-state symbol and its star-density on the first slice.

    The symbol is the shifted Gaussian e^{-(x - theta E0/2)^2 / 2 sigma_theta^2}
    e^{-i E0 t} at unit induced norm.  The density is the positive star
    square, normalized to integrate to one; its mean sits at theta E0 (the
    star square doubles the symbol shift) and its variance at
    sigma_theta^2/2 + theta/4, and both are checked before returning.
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
    raw = sample_field(
        lambda t, x: scale
        * np.exp(-((x - center) ** 2) / (2.0 * s_sq))
        * np.exp(-1j * energy * t),
        spec,
    )
    symbol = Field2D(spec, raw.values, {"energy": energy})
    # The periodic t-box makes the symbol a single t-mode, so the energy-tagged
    # slice series (d_t -> -i E0) gives the full density's row exactly.
    first = Field1D(spec, spec.t[0], symbol.values[0], {"energy": energy})
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


def _kinetic_matrix(spec: GridSpec, m: float) -> np.ndarray:
    """Dense spectral kinetic operator k^2/2m acting on slice values."""
    # The multiplier's dense matrix is the circulant c[(i - j) mod n], c = ifft(symbol).
    K = scipy.linalg.circulant(np.fft.ifft(spec.k_x**2 / (2.0 * m)).real)
    return 0.5 * (K + K.T)


def _operator_potential_profile(potential: Potential, spec: GridSpec, m: float) -> np.ndarray:
    """Symbol of the potential operator: V smoothed by a variance-theta/2 Gaussian."""
    if potential.kind == "harmonic":
        return 0.5 * potential.m * potential.omega**2 * (spec.x**2 + spec.theta / 2.0)
    v = potential.sample_space(spec.x, 0.0)
    vhat = np.fft.fft(v) * np.exp(-spec.theta * spec.k_x**2 / 4.0)
    return np.fft.ifft(vhat).real


def stationary_solve(
    potential: Potential,
    kernel: StarKernel,
    m: float,
    e_window: tuple[float, float],
    spec: GridSpec,
) -> list[tuple[float, Field1D]]:
    """Eigenpairs of E psi = -(1/2m) psi'' + V psi inside an energy window.

    The stationary reduction d_t -> -iE makes the potential E-dependent; in
    the conjugated frame the dependence is a pure translation of its
    argument.  The window is scanned once for eigenvalues, then each level is
    re-solved in the frame at its latest energy until it moves by at most
    1e-10 (1 + |E|).  A level clear of the box edge is settled by its first
    re-solve, since translation leaves its energy alone; one that feels the
    edge (a linear tilt, say) needs a few, and a level still moving after
    _MAX_RESOLVES re-solves raises.  metadata['iterations'] counts the solves
    that fixed the level, the scan included.  Each returned slice is
    normalized to unit induced norm, tagged with metadata['energy'], and
    carries a frame residual plus an independent star-product cross residual.
    """
    _require_voros(kernel, "the stationary solver")
    _require_theta_match(kernel, spec)
    if m <= 0:
        raise ValueError(f"mass must be > 0, got {m}")
    if potential.kind not in ("harmonic", "custom"):
        raise ValueError(
            f"the stationary solver needs an x-dependent potential, got {potential.kind!r}"
        )
    if not potential.is_static(spec.x[:: max(spec.n_x // 16, 1)]):
        raise ValueError("the stationary solver needs a time-independent potential")
    e_lo, e_hi = float(e_window[0]), float(e_window[1])
    if not e_lo < e_hi:
        raise ValueError(f"energy window must satisfy lo < hi, got ({e_lo}, {e_hi})")
    theta = spec.theta
    K = _kinetic_matrix(spec, m)
    damp = np.exp(-theta * spec.k_x**2 / 4.0)

    def frame_matrix(energy: float) -> np.ndarray:
        v = potential.sample_space(spec.x - theta * energy / 2.0, 0.0)
        return K + np.diag(v)

    w = scipy.linalg.eigvalsh(frame_matrix(0.5 * (e_lo + e_hi)))
    level_ids = [i for i, val in enumerate(w) if e_lo <= val <= e_hi]
    v_profile = _operator_potential_profile(potential, spec, m)
    results: list[tuple[float, Field1D]] = []
    for lvl in level_ids:
        trace = [float(w[lvl])]
        for _ in range(_MAX_RESOLVES):
            A = frame_matrix(trace[-1])
            e_new, vecs = scipy.linalg.eigh(A, subset_by_index=[lvl, lvl])
            trace.append(float(e_new[0]))
            if abs(trace[-1] - trace[-2]) <= 1e-10 * (1.0 + abs(trace[-1])):
                break
        else:
            raise RuntimeError(
                f"energy fixed point for level {lvl} did not settle within "
                f"{_MAX_RESOLVES} re-solves; trace {trace}"
            )
        energy = trace[-1]
        vec = vecs[:, 0]
        vec = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
        residual = float(
            np.linalg.norm(A @ vec - energy * vec) / np.linalg.norm(vec)
        )
        if residual > 1e-6:
            raise RuntimeError(
                f"eigenpair residual {residual:.3e} exceeds 1e-6 for level {lvl}"
            )
        vals = np.fft.ifft(np.fft.fft(vec) * damp) * np.exp(-1j * energy * spec.t[0])
        fld = Field1D(spec, spec.t[0], vals, {"energy": energy})
        # Independent check through the resummed star engine: the potential
        # acts by its operator symbol (the Gaussian-smoothed profile).  The
        # profile is windowed to the box interior by a flat-top bump (equal
        # to 1 wherever a resolvable state lives) because a non-periodic
        # potential has a kink at the box edge whose Fourier tail the star
        # weights would amplify into pure noise.  The residual is relative,
        # so it is taken before normalizing.
        xc = 0.5 * (spec.x_min + spec.x_max)
        half = 0.75 * (spec.x_max - spec.x_min) / 2.0
        window = np.exp(-(((spec.x - xc) / half) ** 32))
        vpsi = phasecalc.phase_star(
            phasecalc.stationary_part(spec, 0.0, v_profile * window),
            phasecalc._slice_part(fld),
        ).values_at(fld.t_slice)
        kin = np.fft.ifft(spec.k_x**2 * np.fft.fft(vals)) / (2.0 * m)
        cross = float(
            np.linalg.norm(kin + vpsi - energy * vals) / np.linalg.norm(vals)
        )
        norm_sq = symbols.induced_inner_product(kernel, fld, fld).real
        fld = Field1D(
            spec,
            spec.t[0],
            vals / math.sqrt(norm_sq),
            {
                "energy": energy,
                "level": int(lvl),
                "residual": residual,
                "cross_residual": cross,
                "iterations": len(trace),
            },
        )
        results.append((energy, fld))
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

    Steps are kinetic half, potential, kinetic half.  For theta > 0 under an
    x-dependent potential the state must carry metadata['energy']; the
    potential then acts as multiplication by V(x - theta E/2) in the frame
    conjugated by e^{+theta k^2/4}, which conserves the induced norm exactly
    (the deformation costs nothing extra: both frames are related by a
    diagonal mode weight).  Snapshots keep the launch slice label; physical
    time offsets live in metadata['elapsed'].  Time-dependent potentials are
    admitted only at theta = 0, where they are plain phases.
    """
    spec = psi0.spec
    theta = spec.theta
    _require_voros(kernel, "evolve")
    _require_theta_match(kernel, spec)
    if m <= 0:
        raise ValueError(f"mass must be > 0, got {m}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if steps < 1 or int(steps) != steps:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    if record_every < 1 or int(record_every) != record_every:
        raise ValueError(f"record_every must be a positive integer, got {record_every}")

    x_dependent = potential.kind in ("harmonic", "custom")
    static = potential.kind != "time_pulse" and (
        potential.kind != "custom" or potential.is_static(spec.x[:: max(spec.n_x // 16, 1)])
    )
    if theta > 0 and not static:
        raise ValueError(
            "time-dependent potentials at theta > 0 are outside the single-"
            "frequency reduction; treat pulses with transition_amplitude"
        )
    energy = psi0.metadata.get("energy")
    shift = 0.0
    if theta > 0 and x_dependent:
        if energy is None:
            raise ValueError(
                "theta > 0 evolution under an x-dependent potential needs "
                "metadata['energy'] on psi0 (the stationary reduction scale)"
            )
        shift = theta * float(energy) / 2.0

    if potential.kind == "none":
        v_max = 0.0
    elif potential.kind == "time_pulse":
        probe_t = psi0.t_slice + np.linspace(0.0, steps * dt, 1025)
        v_max = float(np.max(np.abs(potential.sample_time(probe_t))))
    elif static:
        v_max = float(np.max(np.abs(potential.sample_space(spec.x - shift, 0.0))))
    else:
        probes = [psi0.t_slice + f * steps * dt for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        v_max = max(
            float(np.max(np.abs(potential.sample_space(spec.x, tp)))) for tp in probes
        )
    k_max = float(np.max(np.abs(spec.k_x)))
    budget = dt * (v_max + k_max**2 / (2.0 * m))
    if budget >= _STABILITY_LIMIT:
        raise ValueError(
            f"unstable step: dt (max|V| + k_max^2/2m) = {budget:.4g} >= {_STABILITY_LIMIT}"
        )

    psi_hat, _ = _drop_noise_modes(np.fft.fft(psi0.values))
    use_frame = theta > 0 and x_dependent
    grow = np.exp(theta * spec.k_x**2 / 4.0)
    damp = np.exp(-theta * spec.k_x**2 / 4.0)
    phi_hat = psi_hat * grow if use_frame else psi_hat.copy()
    kin_half = np.exp(-1j * spec.k_x**2 * dt / (4.0 * m))
    phase_x = None
    if x_dependent and static:
        phase_x = np.exp(-1j * dt * potential.sample_space(spec.x - shift, 0.0))

    base_meta = {"step": 0, "elapsed": 0.0}
    if energy is not None:
        base_meta["energy"] = float(energy)
    trajectory = [Field1D(spec, psi0.t_slice, psi0.values, {**psi0.metadata, **base_meta})]
    if potential.kind == "none":
        # All factors commute, so each snapshot's phase is composed in one
        # exponential from its exact elapsed time; repeated multiplication
        # would pile up rounding that the induced mode weights then amplify.
        for j in range(steps):
            if (j + 1) % record_every == 0 or j + 1 == steps:
                elapsed = (j + 1) * dt
                out_hat = phi_hat * np.exp(-1j * spec.k_x**2 * elapsed / (2.0 * m))
                meta = {"step": j + 1, "elapsed": elapsed}
                if energy is not None:
                    meta["energy"] = float(energy)
                trajectory.append(Field1D(spec, psi0.t_slice, np.fft.ifft(out_hat), meta))
        return trajectory
    for j in range(steps):
        phi_hat = phi_hat * kin_half
        phi = np.fft.ifft(phi_hat)
        if phase_x is not None:
            phi = phi * phase_x
        else:
            t_mid = psi0.t_slice + (j + 0.5) * dt
            if potential.kind == "time_pulse":
                val = float(potential.sample_time(np.asarray(t_mid)))
                phi = phi * complex(math.cos(dt * val), -math.sin(dt * val))
            else:
                phi = phi * np.exp(-1j * dt * potential.sample_space(spec.x, t_mid))
        phi_hat = np.fft.fft(phi)
        phi_hat = phi_hat * kin_half
        if (j + 1) % record_every == 0 or j + 1 == steps:
            out_hat = phi_hat * damp if use_frame else phi_hat
            meta = {"step": j + 1, "elapsed": (j + 1) * dt}
            if energy is not None:
                meta["energy"] = float(energy)
            trajectory.append(Field1D(spec, psi0.t_slice, np.fft.ifft(out_hat), meta))
    return trajectory


def slice_density(kernel: StarKernel, fld: Field1D, m: float | None = None) -> Field1D:
    """Star-density of one slice through the positive sum-of-squares series.

    theta = 0 returns |psi|^2.  For theta > 0 the temporal derivatives in
    the series need a frequency scale: metadata['energy'] supplies the
    stationary reduction, or a mass m supplies the free on-shell one
    (E = k^2/2m mode by mode).
    """
    _require_voros(kernel, "the slice density")
    _require_theta_match(kernel, fld.spec)
    spec = fld.spec
    if kernel.theta == 0.0:
        return Field1D(spec, fld.t_slice, np.abs(fld.values) ** 2, {"series_terms": 1})
    energy = fld.metadata.get("energy")
    k = spec.k_x
    if energy is not None:
        mult = -1j * float(energy) - k
    elif m is not None:
        if m <= 0:
            raise ValueError(f"mass must be > 0, got {m}")
        mult = -1j * k**2 / (2.0 * m) - k
    else:
        raise ValueError(
            "slice density at theta > 0 needs metadata['energy'] or a mass m "
            "for the on-shell reduction"
        )
    acc, terms = _star_square_series(np.fft.fft(fld.values), mult, kernel.theta)
    rho = math.sqrt(2.0 * math.pi * kernel.theta) * acc
    return Field1D(spec, fld.t_slice, rho, {"series_terms": terms})


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
    time_samples: int = 4097,
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
    _require_voros(kernel, "the transition amplitude")
    if theta != kernel.theta:
        raise ValueError(f"theta {theta} does not match kernel theta {kernel.theta}")
    if i_state.spec != f_state.spec:
        raise ValueError("initial and final states must share a GridSpec")
    _require_theta_match(kernel, i_state.spec)
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

    n_t = int(time_samples)
    if n_t < 33:
        raise ValueError(f"need at least 33 time samples, got {time_samples}")
    if n_t % 2 == 0:
        n_t += 1
    ts = np.linspace(0.0, T, n_t)
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
        t = trajectory[0].t_slice + float(fld.metadata.get("elapsed", 0.0))
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
