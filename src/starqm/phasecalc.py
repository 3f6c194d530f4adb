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
degree shift.  A slice pairing integral dx bra* * ket is the zero x-mode of
that product, so `_pairing` sums only the partner pairs k' = -k, with the bra
prepared once.  A weight beyond floating-point range gives a non-finite
result, which both reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from starqm.fieldgrid import DEFAULT_MODE_CUTOFF, Field1D, GridSpec, _drop_noise_modes


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


def _slice_time(fld: Field1D) -> float:
    """Physical time of a slice: its label plus any evolver offset."""
    return fld.t_slice + float(fld.metadata.get("elapsed", 0.0))


def _slice_part(fld: Field1D, t: float | None = None, ops: Iterable = ()) -> PhasePoly:
    """Lift a slice psi(x) e^{-iEt}, E = metadata['energy'], to its degree-0 phase polynomial.

    The values are unwound by e^{iEt} at time t (default: the slice label),
    so the part evaluates back to them there.  An untagged slice lifts at
    E = 0 only at theta = 0, and only if no operator of ops has a d_t factor.
    """
    energy = fld.metadata.get("energy")
    if energy is None:
        if fld.spec.theta != 0.0 or any(key[2] for op in ops for key in op.terms):
            raise ValueError(
                "slice is missing temporal information: the stationary reduction "
                "d_t -> -i*energy needs metadata['energy'] on the Field1D"
            )
        energy = 0.0
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


def _dt_stack(coef: np.ndarray) -> list[np.ndarray]:
    """[q, D q, ..., D^deg q] for a coefficient stack q."""
    stack = [coef]
    for _ in range(coef.shape[0] - 1):
        stack.append(_dt_poly(stack[-1]))
    return stack


def _term_sum(c: float, alpha, beta, fd: list, gd: list) -> np.ndarray:
    """The module docstring's (p, q, j) sum on mode pairs, from the d/dt stacks fd and gd."""
    acc = 0.0
    for p, fp in enumerate(fd):
        for q, gq in enumerate(gd):
            w = sum(
                c ** (p + q - j) * beta ** (p - j) * alpha ** (q - j)
                / (math.factorial(p - j) * math.factorial(q - j) * math.factorial(j))
                for j in range(min(p, q) + 1)
            )
            acc = acc + w * _poly_mult(fp, gq)
    return np.exp(c * alpha * beta) * acc


def phase_star(F: PhasePoly, G: PhasePoly) -> PhasePoly:
    """Voros star product F * G: the term sum over every pair of surviving x-modes."""
    spec = F.spec
    if G.spec != spec:
        raise ValueError("the slice star requires states on the same GridSpec")
    if spec.theta == 0.0:
        return PhasePoly(spec, F.a + G.a, _trimmed(_poly_mult(F.coef, G.coef)))

    n = spec.n_x
    Fh, _ = _drop_noise_modes(np.fft.fft(F.coef, axis=-1))
    Gh, _ = _drop_noise_modes(np.fft.fft(G.coef, axis=-1))
    kf = np.flatnonzero(np.any(Fh, axis=0))[:, None]
    kg = np.flatnonzero(np.any(Gh, axis=0))[None, :]
    alpha, beta = 1j * F.a + spec.k_x[kf], 1j * G.a - spec.k_x[kg]
    acc = _term_sum(spec.theta / 2.0, alpha, beta, _dt_stack(Fh[:, kf]), _dt_stack(Gh[:, kg]))
    out = np.zeros((acc.shape[0], n), dtype=np.complex128)
    np.add.at(out, (slice(None), np.broadcast_to((kf + kg) % n, acc.shape[1:])), acc)
    return PhasePoly(spec, F.a + G.a, _trimmed(np.fft.ifft(out, axis=-1) / n))


def _pairing(bra: PhasePoly, t: float) -> Callable[[PhasePoly], complex]:
    """ket -> (bra, ket)_t = integral dx bra* * ket: the zero x-mode at t, times dx/N_x.

    The bra is conjugated, transformed, cut (not at theta = 0) and differentiated once.
    """
    spec, c = bra.spec, bra.spec.theta / 2.0
    cutoff = DEFAULT_MODE_CUTOFF if c > 0.0 else 0.0  # cutoff 0 keeps every mode
    bh, _ = _drop_noise_modes(np.fft.fft(np.conj(bra.coef), axis=-1), cutoff)
    kb = np.flatnonzero(np.any(bh, axis=0))
    partner, fd, alpha = -kb % spec.n_x, _dt_stack(bh[:, kb]), -1j * bra.a + spec.k_x[kb]

    def pair(ket: PhasePoly) -> complex:
        if ket.spec != spec:
            raise ValueError("the slice star requires states on the same GridSpec")
        gh = _drop_noise_modes(np.fft.fft(ket.coef, axis=-1), cutoff)[0][:, partner]
        live = np.any(gh, axis=0)
        beta = 1j * ket.a - spec.k_x[partner[live]]
        acc = _term_sum(c, alpha[live], beta, [f[:, live] for f in fd], _dt_stack(gh[:, live]))
        poly = np.sum(acc, axis=-1)
        total = np.exp(1j * (ket.a - bra.a) * t) * np.dot(t ** np.arange(poly.shape[0]), poly)
        if not np.isfinite(total):
            raise ValueError(f"slice pairing is not finite ({total}): a Voros weight overflowed")
        return complex(total * spec.dx / spec.n_x)

    return pair


def induced_product(bra: PhasePoly, ket: PhasePoly, t: float) -> complex:
    """(bra, ket)_t = integral dx  bra* * ket  at the slice t (Voros star)."""
    return _pairing(bra, t)(ket)
