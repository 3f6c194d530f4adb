"""Exact fixed-slice star calculus for phase-polynomial states.

A PhasePoly is a state q(t, x) e^{iat} whose t-dependence is a polynomial with
x-dependent coefficients (sampled on the grid's x axis).  Stationary states are
degree 0 with a = -E; acting with the deformed time operator raises the degree.
The Voros exponent factorizes as (theta/2)(<-d_t - i<-d_x)(->d_t + i->d_x), so
on x-mode k of F = f e^{iat} and x-mode k' of G = g e^{ibt} it is
exp[(theta/2)(alpha + D_F)(beta + D_G)] with alpha = ia + k, beta = ib - k' and
D = d/dt on each factor's t-polynomial.  D is nilpotent, so the exponential is
the finite sum, over p <= deg F, q <= deg G and j <= min(p, q),

    e^{(theta/2) alpha beta} (theta/2)^{p+q-j} beta^{p-j} alpha^{q-j}
        / ((p-j)! (q-j)! j!) . D_F^p D_G^q.

The product sums this over the x-mode pairs that survive the noise cutoff
into the output mode (k + k') mod N_x: no series and no periodic t-grid, and
multiplication by t -- which a periodic grid cannot represent -- is an exact
degree shift.  A slice pairing integrates over x, so it needs only the partner
pairs k' = -k.  A weight beyond floating-point range gives a non-finite
result, which PhasePoly rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from starqm.fieldgrid import Field1D, GridSpec, _drop_noise_modes


def _dt_poly(coef: np.ndarray) -> np.ndarray:
    """d/dt on polynomial coefficient stacks: coef[d] <- (d+1) coef[d+1]."""
    out = np.zeros_like(coef)
    D = coef.shape[0] - 1
    for d in range(D):
        out[d] = (d + 1) * coef[d + 1]
    return out


def _trimmed(coef: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero degrees (keep at least degree 0)."""
    D = coef.shape[0]
    while D > 1 and not np.any(coef[D - 1]):
        D -= 1
    return coef[:D]


@dataclass(frozen=True)
class PhasePoly:
    """q(t, x) e^{iat} with q = sum_d coef[d](x) t^d on the grid's x axis."""

    spec: GridSpec
    a: float
    coef: np.ndarray  # shape (degree+1, n_x), complex

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.coef, dtype=np.complex128))
        if arr.shape[-1] != self.spec.n_x:
            raise ValueError(
                f"coefficient rows must have length n_x={self.spec.n_x}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite polynomial coefficients")
        object.__setattr__(self, "coef", arr)

    @property
    def degree(self) -> int:
        return self.coef.shape[0] - 1

    def values_at(self, t: float) -> np.ndarray:
        """Evaluate the state on its x axis at time t."""
        powers = t ** np.arange(self.coef.shape[0])
        return np.exp(1j * self.a * t) * np.tensordot(powers, self.coef, axes=(0, 0))


def stationary_part(spec: GridSpec, energy: float, values: np.ndarray) -> PhasePoly:
    """The slice values of a stationary state psi(x) e^{-iEt}."""
    return PhasePoly(spec, -float(energy), np.atleast_2d(values))


def _slice_part(fld: Field1D, t: float | None = None) -> PhasePoly:
    """Lift an energy-tagged slice psi(x) e^{-iEt} to its degree-0 phase polynomial.

    The slice values are unwound by e^{iEt} at time t (default: the slice
    label), so the part evaluates back to them there.
    """
    energy = fld.metadata.get("energy")
    if energy is None:
        raise ValueError(
            "slice is missing temporal information: the stationary reduction "
            "d_t -> -i*energy needs metadata['energy'] on the Field1D"
        )
    energy = float(energy)
    t = fld.t_slice if t is None else t
    return stationary_part(fld.spec, energy, fld.values * np.exp(1j * energy * t))


def conjugate(poly: PhasePoly) -> PhasePoly:
    """Complex conjugate: q e^{iat} -> conj(q) e^{-iat}."""
    return PhasePoly(poly.spec, -poly.a, np.conj(poly.coef))


def _poly_mult(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Product of two t-polynomials whose coefficients broadcast against each other."""
    Df, Dg = fc.shape[0], gc.shape[0]
    out = np.zeros((Df + Dg - 1,) + np.broadcast_shapes(fc.shape[1:], gc.shape[1:]),
                   dtype=np.complex128)
    for i in range(Df):
        out[i : i + Dg] += fc[i] * gc
    return out


def _pair_sum(F: PhasePoly, G: PhasePoly, partners: bool) -> PhasePoly:
    """Voros product F * G as the finite sum over x-mode pairs (module docstring).

    With partners=False every pair of surviving modes is summed; with
    partners=True only the pairs k' = -k mod N_x, which are all that reach
    the zero x-mode, so the result is exact only for its x-integral.
    """
    spec = F.spec
    if G.spec != spec:
        raise ValueError("the slice star requires states on the same GridSpec")
    a, b = F.a, G.a
    if spec.theta == 0.0:
        return PhasePoly(spec, a + b, _trimmed(_poly_mult(F.coef, G.coef)))

    n = spec.n_x
    Fh, _ = _drop_noise_modes(np.fft.fft(F.coef, axis=-1))
    Gh, _ = _drop_noise_modes(np.fft.fft(G.coef, axis=-1))
    kf = np.flatnonzero(np.any(Fh, axis=0))
    if partners:
        kf = kf[np.any(Gh[:, -kf % n], axis=0)]
        kg = -kf % n
    else:
        kf, kg = kf[:, None], np.flatnonzero(np.any(Gh, axis=0))[None, :]
    c = spec.theta / 2.0
    alpha = 1j * a + spec.k_x[kf]
    beta = 1j * b - spec.k_x[kg]
    fd, gd = [Fh[:, kf]], [Gh[:, kg]]
    for _ in range(F.degree):
        fd.append(_dt_poly(fd[-1]))
    for _ in range(G.degree):
        gd.append(_dt_poly(gd[-1]))
    acc = 0.0
    for p, fp in enumerate(fd):
        for q, gq in enumerate(gd):
            w = sum(
                c ** (p + q - j) * beta ** (p - j) * alpha ** (q - j)
                / (math.factorial(p - j) * math.factorial(q - j) * math.factorial(j))
                for j in range(min(p, q) + 1)
            )
            acc = acc + w * _poly_mult(fp, gq)
    acc = np.exp(c * alpha * beta) * acc
    out = np.zeros((acc.shape[0], n), dtype=np.complex128)
    np.add.at(out, (slice(None), np.broadcast_to((kf + kg) % n, acc.shape[1:])), acc)
    return PhasePoly(spec, a + b, _trimmed(np.fft.ifft(out, axis=-1) / n))


def phase_star(F: PhasePoly, G: PhasePoly) -> PhasePoly:
    """Voros star product F * G."""
    return _pair_sum(F, G, partners=False)


def induced_product(bra: PhasePoly, ket: PhasePoly, t: float) -> complex:
    """(bra, ket)_t = integral dx  bra* * ket  at the slice t (Voros star)."""
    pair = _pair_sum(conjugate(bra), ket, partners=True)
    return complex(np.sum(pair.values_at(t)) * bra.spec.dx)
