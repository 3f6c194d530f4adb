"""Coherent-state symbol calculus on the (t, x) grid.

States are represented by their symbols psi(t, x) = (t,x|psi).  The basis
overlap is a Gaussian of width sqrt(theta) in each coordinate, momentum
symbols carry the Gaussian damping e^{-(theta/4)(E^2+p^2)}, and the physical
pairing of two states on a fixed-t surface is the induced product
(psi, phi)_t = integral dx  psi* (star) phi.  The probability density is the
Voros star-square psi* (star) psi of the symbol, which the star engine
evaluates exactly.

Normalization note: the density carries the sqrt(2 pi theta) prefactor of its
defining display while the induced product does not, so for a state of unit
induced norm the density integrates to sqrt(2 pi theta) rather than 1.  The
continuity defect pairs density and current at one common normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import phasecalc
from .fieldgrid import Field1D, Field2D, GridSpec, spectral_derivative
from .fieldgrid import _PAIRING_MODE_CUTOFF, _csv, _drop_noise_modes, _node_columns
from .fieldgrid import _require_grid_theta, _require_nonnegative, _require_positive
from .star import StarKernel, _require_voros, star

# Relative floor under which a sampled kernel mode is treated as numerically
# empty: below it the compensating growth factor would only amplify rounding
# noise, so those modes are dropped instead of inverted.
_KERNEL_MODE_FLOOR = 1e-13

# real_field_csv rejects an imaginary part above this fraction of the peak.
_REAL_CSV_RTOL = 1e-9


@dataclass(frozen=True)
class MomentumLabel:
    """Joint label (E, p) of a common energy-momentum eigenstate."""

    E: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.E) and math.isfinite(self.p)):
            raise ValueError(f"MomentumLabel needs finite entries, got E={self.E}, p={self.p}")


@dataclass(frozen=True)
class CoherentPoint:
    """A point (t, x) of the coherent-state base manifold at scale theta."""

    t: float
    x: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"CoherentPoint needs finite coordinates, got ({self.t}, {self.x})")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"CoherentPoint needs theta > 0, got {self.theta}")

    @property
    def z(self) -> complex:
        return (self.t + 1j * self.x) / math.sqrt(2.0 * self.theta)


def gauss_delta(u: float | np.ndarray, sigma: float) -> float | np.ndarray:
    """Normalized Gaussian of width sigma (a regularized delta)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"gauss_delta needs sigma > 0, got {sigma}")
    return np.exp(-np.asarray(u) ** 2 / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


def momentum_symbol(label: MomentumLabel, theta: float) -> Callable[..., np.ndarray]:
    """Symbol of the (E, p) eigenstate: a damped plane wave.

    Returns the pointwise function
        (t, x) -> (1/2pi) e^{-(theta/4)(E^2+p^2)} e^{-i(Et - px)},
    vectorized over array arguments.  Its modulus is coordinate independent.
    """
    _require_nonnegative(theta, "theta")
    amp = math.exp(-(theta / 4.0) * (label.E**2 + label.p**2)) / (2.0 * math.pi)
    E, p = label.E, label.p

    def sym(t, x):
        return amp * np.exp(-1j * (E * np.asarray(t) - p * np.asarray(x)))

    return sym


def basis_overlap(a: CoherentPoint, b: CoherentPoint) -> float:
    """Overlap of two coherent basis points: a Gaussian in each separation."""
    if a.theta != b.theta:
        raise ValueError(f"basis points live at different scales: {a.theta} vs {b.theta}")
    s = math.sqrt(a.theta)
    return float(gauss_delta(b.t - a.t, s) * gauss_delta(b.x - a.x, s))


def coherent_symbol(point: CoherentPoint, spec: GridSpec) -> Field2D:
    """Symbol of the coherent basis element attached to one point.

    The element's symbol is the width-sqrt(theta) Gaussian
        (1/sqrt(2 pi theta)) e^{-((t-t0)^2 + (x-x0)^2) / 2 theta},
    which carries unit norm under the full-plane pairing
    integral dt dx  psi* (star) psi (the basis elements are idempotent up to
    the 1/sqrt(2 pi theta) scale).  The grid box must reach at least
    6 sqrt(theta) beyond the center on every side so the periodified tails
    stay at rounding level.

    The field also carries the element's Weyl amplitude as its frame, in
    closed form: the width-sqrt(theta/2) Gaussian
        (2/sqrt(2 pi theta)) e^{-((t-t0)^2 + (x-x0)^2) / theta},
    whose modes are the symbol's times e^{theta |k|^2/4}.  The whole-plane
    pairing of `moments.expectation` reads it, as the bounded sum
    integral dt dx  conj(phi) (O_W phi) with no Voros growth weight; the
    fixed-line pairings and `_pairing` read the symbol only.
    """
    _require_grid_theta(point.theta, spec, "basis point theta")
    s = math.sqrt(point.theta)
    margin = min(
        point.t - spec.t_min, spec.t_max - point.t,
        point.x - spec.x_min, spec.x_max - point.x,
    )
    if margin < 6.0 * s:
        raise ValueError(
            f"grid box reaches only {margin:.4g} beyond the center; the symbol "
            f"needs at least 6 sqrt(theta) = {6.0 * s:.4g} of clearance on every side"
        )
    tt = spec.t[:, None] - point.t
    xx = spec.x[None, :] - point.x
    r2 = tt**2 + xx**2
    norm = math.sqrt(2.0 * math.pi * point.theta)
    vals = np.exp(-r2 / (2.0 * point.theta)) / norm
    frame = np.exp(-r2 / point.theta) * (2.0 / norm)
    return Field2D(spec, vals, {"center_t": point.t, "center_x": point.x}, frame)


# ---------------------------------------------------------------------------
# induced inner product
# ---------------------------------------------------------------------------


def _pairing(theta: float, bra: Field2D, t: float | None = None) -> Callable[[Field2D], complex]:
    """ket -> integral dx conj(bra) (star) ket on the grid line t, or dt dx over the plane.

    The x-sum keeps only pairs of partner x-modes, index -c mod N_x (a Nyquist
    mode is its own).  A pair of t-frequencies a (bra) and b (ket) carries
    exp[-(theta/2) conj(w_k) w_k'], w = k_t + i k_x: the coupling
    e^{-theta a b/2}, the bra-side e^{-i theta a k_x'/2 - theta k_x k_x'/2}
    and the ket-side e^{i theta k_x b/2}.  The line sums every (a, b) with
    e^{i(a + b)(t - t_min)} at scale dx/(N_t^2 N_x); the plane keeps b at
    index -a mod N_t, at scale dt dx/(N_t N_x).  This is the star engine's
    sum after dropping input modes below fieldgrid._PAIRING_MODE_CUTOFF (none
    at theta = 0), without the product.  The bra's weights (exponentiated on
    surviving modes only), the coupling and the ket-side phases fold into one
    weight per ket mode, once per bra; a ket costs one FFT, its cutoff, a
    gather of the partner columns and one weighted sum.
    """
    spec = bra.spec
    n_t, n_x = spec.n_t, spec.n_x
    if t is not None:
        idx = int(np.argmin(np.abs(spec.t - t)))
        if abs(spec.t[idx] - t) > 1e-9 * (1.0 + abs(t)):
            raise ValueError(f"t={t} is not a grid point (nearest is {spec.t[idx]})")

    def modes(values: np.ndarray) -> np.ndarray:
        fh = np.fft.fft2(values)
        return _drop_noise_modes(fh, _PAIRING_MODE_CUTOFF)[0] if theta > 0.0 else fh

    fh = modes(np.conj(bra.values))
    live = fh != 0
    rows = np.flatnonzero(np.any(live, axis=1))
    cols = np.flatnonzero(np.any(live, axis=0))
    partner_cols = -cols % n_x
    a, k_x, k_x_partner = spec.k_t[rows], spec.k_x[cols], spec.k_x[partner_cols]
    block = np.ix_(rows, cols)
    expo = -(theta / 2.0) * (1j * np.outer(a, k_x_partner) + k_x * k_x_partner)
    bra_side = fh[block] * np.exp(expo, out=np.zeros(expo.shape, complex), where=live[block])
    ket_side = np.exp((0.5j * theta) * np.outer(spec.k_t, k_x))
    coupling = -(theta / 2.0) * np.outer(a, spec.k_t)
    if t is None:
        partner_rows = np.arange(n_t) == (-rows % n_t)[:, None]
        coupling = np.exp(coupling, out=np.zeros(coupling.shape), where=partner_rows)
        scale = spec.dt * spec.dx / (n_t * n_x)
    else:
        coupling = np.exp(coupling + 1j * (idx * spec.dt) * np.add.outer(a, spec.k_t))
        scale = spec.dx / (n_t * n_t * n_x)

    weight = ket_side * (coupling.T @ bra_side)  # [b, c]: sum over the bra rows a

    def pair(ket: Field2D) -> complex:
        total = complex(np.sum(weight * modes(ket.values)[:, partner_cols]))
        if not np.isfinite(total):
            raise ValueError(
                f"pairing overflowed ({total}): the Voros weight on the "
                "surviving mode pairs exceeds floating-point range"
            )
        return total * scale

    return pair


def induced_inner_product(
    kernel: StarKernel,
    psi: Field1D | Field2D,
    phi: Field1D | Field2D,
    t: float | None = None,
) -> complex:
    """Fixed-t pairing (psi, phi)_t = integral dx  psi* (star) phi.

    Field1D inputs must share a GridSpec and physical time t_slice +
    metadata['elapsed'] (`phasecalc._slice_time`, equal to 1e-12 relative
    or absolute); each is lifted at psi's time by its Weyl frame
    (`phasecalc._slice_part`, metadata['energy'] is needed for theta > 0),
    and the frames are paired by `phasecalc._frame_pairing`, a bounded sum
    with no mode cutoff.  Field2D inputs carry their own
    temporal neighborhoods; pass the slice time t (a grid point) explicitly.
    Their pairing is the closed-form sum over x-partner modes of `_pairing`,
    which drops input modes at the pairing cutoff
    fieldgrid._PAIRING_MODE_CUTOFF; no star product is built.
    """
    if isinstance(psi, Field1D) and isinstance(phi, Field1D):
        if psi.spec != phi.spec:
            raise ValueError("induced product requires both slices on the same GridSpec")
        t_psi, t_phi = phasecalc._slice_time(psi), phasecalc._slice_time(phi)
        # Only the rounding of t_slice + step * dt may tell two equal times apart.
        if not math.isclose(t_psi, t_phi, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(f"slices live at different times: {t_psi} vs {t_phi}")
        _require_voros(kernel, psi.spec, "the induced product")
        bra, ket = (phasecalc._slice_part(s, t_psi, frame=True) for s in (psi, phi))
        return phasecalc._frame_pairing(bra, t_psi)(ket)
    if isinstance(psi, Field2D) and isinstance(phi, Field2D):
        if psi.spec != phi.spec:
            raise ValueError("induced product requires both fields on the same GridSpec")
        _require_voros(kernel, psi.spec, "the induced product")
        if t is None:
            raise ValueError(
                "Field2D inputs need an explicit slice time: pass t=<grid point> "
                "(the 2-D box has no distinguished surface)"
            )
        return _pairing(kernel.theta, psi, t)(phi)
    raise TypeError("induced_inner_product takes two Field1D slices or two Field2D fields")


# ---------------------------------------------------------------------------
# density and current
# ---------------------------------------------------------------------------


def probability_density(kernel: StarKernel, psi: Field2D) -> Field2D:
    """Probability density sqrt(2 pi theta) Re(psi* (star) psi) through `star`.

    The Voros star-square is the exact mode-pair sum of the star engine, and
    the metadata is the star product's ('mode_grid', 'mode_cutoff').  Its
    mode weight exp[(theta/2) conj(w_k) w_k'], w = i k_t - k_x, is a positive
    semidefinite matrix, so the density is nonnegative up to rounding; it is
    returned unclipped.
    """
    if not isinstance(psi, Field2D):
        raise TypeError(f"probability_density expects a Field2D, got {type(psi).__name__}")
    _require_voros(kernel, psi.spec, "the probability density")
    if kernel.theta <= 0.0:
        raise ValueError("the coherent-state density needs theta > 0")
    prod = star(kernel, Field2D(psi.spec, np.conj(psi.values)), psi)
    scale = math.sqrt(2.0 * math.pi * kernel.theta)
    return Field2D(psi.spec, scale * prod.values.real, dict(prod.metadata))


def probability_current(kernel: StarKernel, psi: Field2D, m: float) -> Field2D:
    """Current density j = (1/m) Im( psi* (star) d_x psi ).

    The antisymmetrized two-term bracket collapses to this single imaginary
    part because conjugating a star product swaps its factors.  For theta = 0
    it is the textbook current; a plane wave of momentum p carries j = p/m
    times its star-squared modulus.
    """
    if not isinstance(psi, Field2D):
        raise TypeError(f"probability_current expects a Field2D, got {type(psi).__name__}")
    _require_voros(kernel, psi.spec, "the probability current")
    _require_positive(m, "mass")
    dpsi = spectral_derivative(psi, "x", periodic=True)
    prod = star(kernel, Field2D(psi.spec, np.conj(psi.values)), dpsi)
    return Field2D(psi.spec, np.imag(prod.values) / m, dict(prod.metadata))


def continuity_defect(kernel: StarKernel, psi: Field2D, m: float) -> Field2D:
    """Residual d_t rho + d_x j with both terms at the density normalization.

    The density display carries sqrt(2 pi theta) while the bare current does
    not, so the pair is rescaled onto one normalization before differencing;
    the residual vanishes identically for exact free-evolution fields.
    """
    rho = probability_density(kernel, psi)
    cur = probability_current(kernel, psi, m)
    scale = math.sqrt(2.0 * math.pi * kernel.theta)
    d_rho = spectral_derivative(rho, "t", periodic=True)
    d_cur = spectral_derivative(cur, "x", periodic=True)
    return Field2D(psi.spec, d_rho.values + scale * d_cur.values)


# ---------------------------------------------------------------------------
# on-shell projection
# ---------------------------------------------------------------------------


def onshell_project(
    p_grid: np.ndarray,
    amplitudes: np.ndarray,
    m: float,
    spec: GridSpec,
) -> Field2D:
    """Assemble the symbol of the on-shell state from momentum amplitudes.

    Psi(x, t) = (1/sqrt(2 pi)) sum_p dp  psi(p) e^{-(theta/4)(E_p^2+p^2)}
                e^{-i(E_p t - p x)},   E_p = p^2 / 2m,

    at the grid's theta, by quadrature over a uniform momentum grid
    symmetric about zero.  The grid must resolve the integrand's oscillation
    across the whole (t, x) window; otherwise the call is rejected with the
    required spacing.
    """
    p = np.asarray(p_grid, dtype=float)
    a = np.asarray(amplitudes, dtype=np.complex128)
    if p.ndim != 1 or p.size < 2 or a.shape != p.shape:
        raise ValueError("need 1-D p_grid with matching amplitudes and at least two nodes")
    dp = np.diff(p)
    if not np.allclose(dp, dp[0], rtol=1e-9, atol=0.0):
        raise ValueError("p_grid must be uniformly spaced")
    if not np.allclose(p, -p[::-1], rtol=0.0, atol=1e-9 * (1.0 + np.max(np.abs(p)))):
        raise ValueError("p_grid must be symmetric about 0")
    _require_positive(m, "mass")
    theta = spec.theta

    step = float(dp[0])
    # Stationary-phase scale: d(phase)/dp = x - p t / m, extremal at the
    # window corners and the largest momentum node.
    x_edge = max(abs(spec.x_min), abs(spec.x_max))
    t_edge = max(abs(spec.t_min), abs(spec.t_max))
    swing = x_edge + np.max(np.abs(p)) * t_edge / m
    if swing * step > math.pi:
        raise ValueError(
            f"momentum grid too coarse: the integrand phase advances {swing * step:.3g} "
            f"rad per step at the window edge; this window requires dp <= {math.pi / swing:.6g}"
        )

    energy = p**2 / (2.0 * m)
    weights = a * np.exp(-(theta / 4.0) * (energy**2 + p**2)) * step / math.sqrt(2.0 * math.pi)
    # The mode sum is separable: e^{-i E t} outer e^{i p x} per node.
    t_waves = np.exp(-1j * np.outer(energy, spec.t))
    x_waves = np.exp(1j * np.outer(p, spec.x))
    values = (weights[:, None] * t_waves).T @ x_waves
    return Field2D(spec, values, {"mass": m, "dp": step, "max_phase_step": float(swing * step)})


# ---------------------------------------------------------------------------
# fixed-time quasi-projection
# ---------------------------------------------------------------------------


def _projection_amplitudes(psi: Field2D) -> np.ndarray:
    """Corner-referenced mode amplitudes fft2(psi), cut at DEFAULT_MODE_CUTOFF."""
    if not isinstance(psi, Field2D):
        raise TypeError(f"quasi_projection_apply expects a Field2D, got {type(psi).__name__}")
    return _drop_noise_modes(np.fft.fft2(psi.values))[0]


def _quasi_projectors(spec: GridSpec, *times: float) -> list[Callable[[np.ndarray], np.ndarray]]:
    """One linear map amplitudes -> values of pi_{t0} per time t0, sharing the grid's tables.

    See `quasi_projection_apply` for the mode sum.  The mode weight is built
    once for the grid; each time multiplies in its per-row phase and builds
    its real envelope.  A map takes amplitudes that were already cut and does
    not cut again, so it is linear in its argument.
    """
    theta = spec.theta
    if not theta > 0:
        raise ValueError(f"quasi-projection needs grid theta > 0, got {theta}")
    for t0 in times:
        if not (spec.t_min <= t0 <= spec.t_max):
            raise ValueError(f"t0={t0} outside box [{spec.t_min}, {spec.t_max}]")
    n_t, n_x = spec.n_t, spec.n_x
    half = n_t // 2
    E = -spec.k_t  # modes e^{i kt t} carry energy E = -kt in e^{-iEt} form
    p = spec.k_x
    # An oversampled grid can overflow the weight on rows no input populates;
    # a map reads the weight on surviving modes only.
    with np.errstate(over="ignore"):
        mode_weight = np.exp(
            (theta / 8.0) * np.subtract.outer(E**2, p**2) + 0.25j * theta * np.outer(E, p)
        )
    # The envelope carries the weight's (2 pi theta)^{-1/2} and the factor
    # 2 N_t N_x / (N_t N_x) = 2 that the unscaled fft2 and the two inverse
    # FFTs leave.
    scale = 2.0 / math.sqrt(2.0 * math.pi * theta)

    def projector(t0: float) -> Callable[[np.ndarray], np.ndarray]:
        tau = spec.t - t0
        # e^{-iE t0}, the t_min origin phase e^{iE t_min} of the amplitudes and
        # the j = 0 phase e^{-iE (t_min - t0)/2} of the energy collapse.
        with np.errstate(invalid="ignore"):
            weight = mode_weight * np.exp(-0.5j * E * (t0 - spec.t_min))[:, None]
        envelope = scale * np.exp(-0.5 * np.outer(tau, p) - (tau**2 / (2.0 * theta))[:, None])

        def project(amps: np.ndarray) -> np.ndarray:
            # Row s of the energy axis goes to slot s mod 2 N_t: the rows
            # s < N_t/2 stay, the rest (the Nyquist row first) end the array.
            padded = np.zeros((2 * n_t, n_x), dtype=np.complex128)
            live = amps != 0
            np.multiply(amps[:half], weight[:half], out=padded[:half], where=live[:half])
            np.multiply(amps[half:], weight[half:], out=padded[n_t + half:], where=live[half:])
            by_p = np.fft.ifft(padded, axis=0)[:n_t]  # [t'', p]
            return np.fft.ifft(by_p * envelope, axis=1)

        return project

    return [projector(t0) for t0 in times]


def quasi_projection_apply(t0: float, psi: Field2D) -> Field2D:
    """Apply the fixed-time quasi-projector pi_{t0} to a symbol field at its grid's theta.

    pi_t sandwiches the state between coherent basis elements along one
    constant-t line: (pi_t psi)(t'', x'') = integral dx of the basis Gaussian
    centered at (t'', x'') starred with psi, taken on the t = t0 surface.  In
    mode space the map is diagonal in p and, per (E, p) mode, produces a
    Gaussian-in-time envelope around t0:

        e^{ipx''} (2 pi theta)^{-1/2} e^{theta(E^2-p^2)/8} e^{i theta p E/4}
        e^{-iE t0} e^{-i(E-ip)(t''-t0)/2} e^{-(t''-t0)^2/(2 theta)}.

    The growth factor e^{theta E^2/8} is paired with the mode cutoff of the
    amplitude extraction, mirroring the hygiene of the star engine itself.

    The amplitudes come from one FFT, which references phases to the box
    corner (t_min, x_min), and one cut.  The rest is a linear map of the cut
    amplitudes, built once per (grid, t0) by `_quasi_projectors`:

    - The energy collapse is a zero-padded inverse FFT of length 2 N_t.  On
      the grid E = -2 pi s / L_t and tau_j = (t_min - t0) + j dt, so
      e^{-iE tau_j/2} = e^{-iE(t_min - t0)/2} e^{2 pi i s j / (2 N_t)}: row s
      goes to slot s mod 2 N_t (the Nyquist row, s = -N_t/2, to 3 N_t/2),
      the per-row phase takes the first factor, and outputs j < N_t are kept.
    - The x synthesis is an inverse DFT: on the grid x_j = x_min + j dx,
      p x_j = p x_min + 2 pi m j / n_x, and the e^{ip x_min} factor cancels
      the x_min phase of the amplitudes, so the sum over p is
      n_x * ifft along x.
    """
    amps = _projection_amplitudes(psi)
    (project,) = _quasi_projectors(psi.spec, t0)
    return Field2D(psi.spec, project(amps), {"t0": t0})


def quasi_projection_report(
    theta: float, t: float, t_prime: float, states: Sequence[Field2D]
) -> str:
    """Strict JSON diagnostics of the composition law pi_{t'} pi_t vs delta-weighted
    pi_{t'} on the test states: per state, the max-norm defect, its reference
    scale and their ratio (no ratio: null).

    The defect pi_{t'}(pi_t psi) - w pi_{t'} psi is one projection of the
    amplitude difference, since each projector is linear in its cut
    amplitudes; the projectors are built once per distinct grid.
    """
    if not states:
        raise ValueError("need at least one test state")
    weight = float(gauss_delta(t_prime - t, math.sqrt(theta)))
    projectors: dict[GridSpec, list] = {}
    rows = []
    for psi in states:
        amps = _projection_amplitudes(psi)
        spec = psi.spec
        if spec not in projectors:
            projectors[spec] = _quasi_projectors(spec, t, t_prime)
            _require_grid_theta(theta, spec, "theta")
        at_t, at_t_prime = projectors[spec]
        once = Field2D(spec, at_t(amps))
        defect = at_t_prime(_projection_amplitudes(once) - weight * amps)
        discrepancy = float(np.max(np.abs(defect)))
        ref = float(np.max(np.abs(once.values)) * gauss_delta(0.0, math.sqrt(theta)))
        rows.append(
            {
                "discrepancy": discrepancy,
                "reference": ref,
                "ratio": discrepancy / ref if ref > 0 else None,
            }
        )
    return json.dumps(
        {
            "theta": theta,
            "t": t,
            "t_prime": t_prime,
            "delta_weight": weight,
            "states": rows,
        },
        indent=2,
        allow_nan=False,
    )


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------


def reproducing_map(kernel: StarKernel, psi: Field2D) -> Field2D:
    """Push psi through the full 2-D reproducing identity of the basis overlap.

    R(t, x) = integral dt' dx'  delta_sqrt(theta)(t - t') delta_sqrt(theta)(x - x')
              (star') psi(t', x'),

    with the star acting on the primed pair.  Mode by mode the Gaussian
    transform e^{-theta k^2/2} cancels against the star growth e^{+theta k^2/2}
    exactly, so the map is the identity on every mode the sampled kernel
    resolves.  Kernel modes below the numeric floor are dropped (recorded in
    the metadata) rather than amplified.
    """
    if not isinstance(psi, Field2D):
        raise TypeError(f"reproducing_map expects a Field2D, got {type(psi).__name__}")
    _require_voros(kernel, psi.spec, "the reproducing map")
    if kernel.theta <= 0.0:
        raise ValueError("the reproducing kernel needs theta > 0")
    spec = psi.spec
    s = math.sqrt(kernel.theta)

    # Sample the kernel on the circular displacement grid so its DFT is the
    # (real, positive) transform of the Gaussian pair.
    dt_idx = np.fft.fftfreq(spec.n_t, d=1.0 / spec.n_t) * spec.dt
    dx_idx = np.fft.fftfreq(spec.n_x, d=1.0 / spec.n_x) * spec.dx
    k_samples = np.outer(gauss_delta(dt_idx, s), gauss_delta(dx_idx, s))
    k_hat = np.fft.fft2(k_samples).real * spec.dt * spec.dx

    grow = np.exp(
        (kernel.theta / 2.0) * (spec.k_t[:, None] ** 2 + spec.k_x[None, :] ** 2)
    )
    live = k_hat >= _KERNEL_MODE_FLOOR * np.max(k_hat)
    mult = np.where(live, k_hat * grow, 0.0)

    vhat, _ = _drop_noise_modes(np.fft.fft2(psi.values))
    dropped = int(np.sum((~live) & (vhat != 0.0)))
    out = np.fft.ifft2(vhat * mult)
    metadata: dict = {"kernel_modes_dropped": dropped}
    if dropped:
        metadata["note"] = "field occupies modes beyond the sampled kernel's support"
    return Field2D(spec, out, metadata)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def real_field_csv(fld: Field2D | Field1D) -> str:
    """Serialize a real-valued field as CSV with header ``t,x,value``."""
    t, x, v = _node_columns(fld)
    scale = float(np.max(np.abs(v))) or 1.0
    if np.max(np.abs(v.imag)) > _REAL_CSV_RTOL * scale:
        raise ValueError("field has a non-negligible imaginary part; not a real observable")
    return _csv("t,x,value", t, x, v.real)
