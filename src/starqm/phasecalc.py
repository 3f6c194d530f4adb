"""Exact fixed-slice star calculus for phase-polynomial states.

A PhasePoly is a state q(t, x) e^{iat} whose t-dependence is a polynomial with
x-dependent coefficients (sampled on the grid's x axis).  Stationary states are
degree 0 with a = -E; acting with the deformed time operator raises the degree.
For such states the Voros product has a closed, rapidly convergent form

    F * G = e^{i(a+b)t} sum_n (theta/2)^n / n! . [(ia + d_t - i d_x)^n f][(ib + d_t + i d_x)^n g]

because the Voros exponent factorizes as (theta/2)(<-d_t - i<-d_x)(->d_t + i->d_x).
Here d_t lowers the polynomial degree and d_x is spectral, so every term is
exact: no periodic t-grid is involved, and multiplication by t itself — which a
periodic grid cannot represent — is an exact degree shift.  On plane-wave data
the series resums to the closed-form mode multiplier.

States with several phase frequencies (superpositions of energy eigenstates)
are PhaseState: a sum of PhasePoly components; products distribute over the
components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from starqm.fieldgrid import Field1D, GridSpec, _drop_noise_modes

_RESUM_RTOL = 1e-16
_MAX_TERMS = 4000

# Phase frequencies within this tolerance are merged into one component.
_FREQ_TOL = 1e-12


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


@dataclass(frozen=True)
class PhaseState:
    """A finite sum of PhasePoly components (distinct phase frequencies)."""

    parts: tuple[PhasePoly, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("PhaseState needs at least one component")
        spec = self.parts[0].spec
        if any(p.spec != spec for p in self.parts):
            raise ValueError("all components must share one GridSpec")

    @property
    def spec(self) -> GridSpec:
        return self.parts[0].spec

    def values_at(self, t: float) -> np.ndarray:
        out = np.zeros(self.spec.n_x, dtype=np.complex128)
        for p in self.parts:
            out += p.values_at(t)
        return out

    def slice_at(self, t: float) -> Field1D:
        return Field1D(self.spec, t, self.values_at(t))


def as_state(obj: PhasePoly | PhaseState) -> PhaseState:
    if isinstance(obj, PhaseState):
        return obj
    if isinstance(obj, PhasePoly):
        return PhaseState((obj,))
    raise TypeError(f"expected PhasePoly or PhaseState, got {type(obj).__name__}")


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


def merge(state: PhaseState) -> PhaseState:
    """Combine components with equal phase frequency (and pad degrees)."""
    groups: list[tuple[float, np.ndarray]] = []
    for p in state.parts:
        for i, (a, coef) in enumerate(groups):
            if abs(p.a - a) <= _FREQ_TOL:
                D = max(coef.shape[0], p.coef.shape[0])
                new = np.zeros((D, coef.shape[1]), dtype=np.complex128)
                new[: coef.shape[0]] += coef
                new[: p.coef.shape[0]] += p.coef
                groups[i] = (a, new)
                break
        else:
            groups.append((p.a, p.coef.copy()))
    spec = state.spec
    return PhaseState(tuple(PhasePoly(spec, a, _trimmed(c)) for a, c in groups))


def conjugate(state: PhasePoly | PhaseState) -> PhaseState:
    """Complex conjugate: q e^{iat} -> conj(q) e^{-iat}."""
    st = as_state(state)
    return PhaseState(tuple(PhasePoly(p.spec, -p.a, np.conj(p.coef)) for p in st.parts))


def scale(state: PhasePoly | PhaseState, c: complex) -> PhaseState:
    st = as_state(state)
    return PhaseState(tuple(PhasePoly(p.spec, p.a, c * p.coef) for p in st.parts))


def add(*states: PhasePoly | PhaseState) -> PhaseState:
    parts: list[PhasePoly] = []
    for s in states:
        parts.extend(as_state(s).parts)
    return merge(PhaseState(tuple(parts)))


def _poly_mult(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Product of two t-polynomials with x-dependent coefficients."""
    Df, Dg = fc.shape[0], gc.shape[0]
    out = np.zeros((Df + Dg - 1, fc.shape[1]), dtype=np.complex128)
    for i in range(Df):
        out[i : i + Dg] += fc[i] * gc
    return out


def _phase_star_pair(F: PhasePoly, G: PhasePoly) -> PhasePoly:
    """Voros product of two phase-polynomial states (exact resummation)."""
    spec = F.spec
    theta = spec.theta
    a, b = F.a, G.a
    if theta == 0.0:
        return PhasePoly(spec, a + b, _trimmed(_poly_mult(F.coef, G.coef)))

    ik = 1j * spec.k_x
    s = math.sqrt(theta / 2.0)
    # The iteration runs on x-Fourier modes of the coefficient stacks, where
    # every operation is diagonal in the mode index: noise modes zeroed now
    # stay exactly zero and cannot be amplified by the iterated i k factors.
    Fh, _ = _drop_noise_modes(np.fft.fft(F.coef, axis=-1))
    Gh, _ = _drop_noise_modes(np.fft.fft(G.coef, axis=-1))
    acc = _poly_mult(np.fft.ifft(Fh, axis=-1), np.fft.ifft(Gh, axis=-1))
    acc_norm = float(np.max(np.abs(acc)))
    quiet = 0
    for n in range(1, _MAX_TERMS + 1):
        rs = s / math.sqrt(n)
        Fh = rs * (1j * a * Fh + _dt_poly(Fh) - 1j * (ik * Fh))
        Gh = rs * (1j * b * Gh + _dt_poly(Gh) + 1j * (ik * Gh))
        term = _poly_mult(np.fft.ifft(Fh, axis=-1), np.fft.ifft(Gh, axis=-1))
        acc += term
        tn = float(np.max(np.abs(term)))
        acc_norm = max(acc_norm, float(np.max(np.abs(acc))))
        quiet = quiet + 1 if tn <= _RESUM_RTOL * max(acc_norm, 1e-300) else 0
        if quiet >= 2:
            return PhasePoly(spec, a + b, _trimmed(acc))
    raise RuntimeError(
        f"phase-polynomial star did not converge within {_MAX_TERMS} terms "
        f"(a={a}, b={b}, theta={theta})"
    )


def phase_star(F: PhasePoly | PhaseState, G: PhasePoly | PhaseState) -> PhaseState:
    """Voros star product, distributed over phase components."""
    Fs, Gs = as_state(F), as_state(G)
    if Fs.spec != Gs.spec:
        raise ValueError("phase_star requires states on the same GridSpec")
    parts = [_phase_star_pair(p, q) for p in Fs.parts for q in Gs.parts]
    return merge(PhaseState(tuple(parts)))


def integrate_x(state: PhasePoly | PhaseState, t: float) -> complex:
    """integral dx of the state evaluated at time t."""
    st = as_state(state)
    return complex(np.sum(st.values_at(t)) * st.spec.dx)


def induced_product(bra: PhasePoly | PhaseState, ket: PhasePoly | PhaseState, t: float) -> complex:
    """(bra, ket)_t = integral dx  bra* * ket  at the slice t (Voros star)."""
    prod = phase_star(conjugate(bra), ket)
    return integrate_x(prod, t)
