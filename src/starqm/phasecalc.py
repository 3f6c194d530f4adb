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
degree shift.  A weight beyond floating-point range gives a non-finite
product, which `phase_star` rejects with a ValueError.

A slice pairing integral dx bra* * ket is the zero x-mode of that product.
On Voros amplitudes its partner pairs k, -k carry a growth e^{theta k^2/2};
on Weyl amplitudes (frames, see `fieldgrid.Field1D`) the growth cancels:
the Voros mode of q e^{iat} is its frame mode times
e^{(theta/4)((ia + D)^2 - k^2)}, and with F the conjugated bra frame
(frequency a_F) and G the ket frame (a_G) the partner pair k, -k becomes

    (bra, ket)_t = (dx/N_x) sum_k [e^{(theta/4)(A + D)(B + D)} (F_k G_{-k})](t),

A = i(a_F + a_G), B = A + 2k, D = d/dt on the product's t-polynomial.
`_frame_pairing` evaluates it: for real frequencies |e^{(theta/4)AB}| =
e^{-theta (a_F + a_G)^2/4} <= 1, D only brings powers of A + B, and no mode
is cut.  A degree-0 pair of equal energies is the plain sum
conj(phi_bra) phi_ket dx.  It is the one slice pairing:
`moments.expectation` and `symbols.induced_inner_product` lift every slice
by its frame.  A slice built without one gets it from `_frames`, the
library's one values-to-frame conversion, which also serves the tagged
densities and the split-step starts of `dynamics`; the frame serves that
one caller and is never stored on the Field1D.

A PhasePoly may also be a stack of S slices on one grid: coefficients of
shape (degree+1, S, n_x) and one frequency a per slice.  `_slice_stack`
lifts a trajectory into one, operators apply to the whole stack, and
`_frame_pairing` pairs slice s of the bra with slice s of each ket at its
own time, so the work in numpy calls does not grow with S.  A single state
is the stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from starqm.fieldgrid import Field1D, GridSpec, _drop_noise_modes, _scatter_sum


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
    """q(t, x) e^{iat} with q = sum_d coef[d](x) t^d on the grid's x axis.

    A stack of S slices has coef of shape (degree+1, S, n_x) and a of shape (S,).
    """

    spec: GridSpec
    a: float | np.ndarray
    coef: np.ndarray  # shape (degree+1, n_x) or (degree+1, S, n_x), complex

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.coef, dtype=np.complex128))
        if arr.shape[-1] != self.spec.n_x:
            raise ValueError(
                f"coefficient rows must have length n_x={self.spec.n_x}, got {arr.shape}"
            )
        if np.shape(self.a) != arr.shape[1:-1]:
            raise ValueError(
                f"need one frequency a per slice: coefficients {arr.shape}, a {np.shape(self.a)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite polynomial coefficients")
        object.__setattr__(self, "coef", arr)

    @property
    def degree(self) -> int:
        return self.coef.shape[0] - 1

    def values_at(self, t: float) -> np.ndarray:
        """Evaluate the state (every slice of a stack) on its x axis at time t."""
        powers = t ** np.arange(self.coef.shape[0])
        phase = np.exp(1j * np.asarray(self.a) * t)[..., None]
        return phase * np.tensordot(powers, self.coef, axes=(0, 0))


def stationary_part(spec: GridSpec, energy: float, values: np.ndarray) -> PhasePoly:
    """The slice values of a stationary state psi(x) e^{-iEt}."""
    return PhasePoly(spec, -float(energy), np.atleast_2d(values))


def _slice_time(fld: Field1D) -> float:
    """Physical time of a slice: its label plus any evolver offset."""
    return fld.t_slice + float(fld.metadata.get("elapsed", 0.0))


def _slice_energy(fld: Field1D, ops: Iterable = ()) -> float:
    """metadata['energy'] of a slice; an untagged one reads 0 only at theta = 0,
    and only if no operator of ops has a d_t factor."""
    energy = fld.metadata.get("energy")
    if energy is None:
        if fld.spec.theta != 0.0 or any(key[2] for op in ops for key in op.terms):
            raise ValueError(
                "slice is missing temporal information: the stationary reduction "
                "d_t -> -i*energy needs metadata['energy'] on the Field1D"
            )
        return 0.0
    return float(energy)


def _frames(flds: Sequence[Field1D], energies: np.ndarray) -> np.ndarray:
    """The Weyl frame of each slice, one row per slice, at energies E.

    A framed slice gives its own, unchanged.  This is the one place an
    unframed slice gets one, for slice pairings, `dynamics.slice_density`
    and the split-step start of `dynamics.evolve` alike: its value modes,
    cut at DEFAULT_MODE_CUTOFF relative to its own peak, grow by
    e^{theta (E^2 + k^2)/4} (at theta = 0 the frame is the values, uncut).
    That is the growth a partner sum of values applies inside every pair,
    taken once; the frame serves the caller and is never stored on the
    slice.  Only the kept modes grow, so a cut mode whose weight is beyond
    floating-point range stays zero; a kept one raises a ValueError that
    names the conversion and the slice.
    """
    rows = np.array([fld.values if fld.frame is None else fld.frame for fld in flds])
    bare = [s for s, fld in enumerate(flds) if fld.frame is None]
    spec = flds[0].spec
    if bare and spec.theta > 0.0:
        modes, _ = _drop_noise_modes(np.fft.fft(rows[bare], axis=-1), axis=-1)
        exponent = spec.theta * (energies[bare, None] ** 2 + spec.k_x**2) / 4.0
        with np.errstate(over="ignore", invalid="ignore"):
            growth = np.exp(np.where(modes != 0.0, exponent, -np.inf))
            rows[bare] = np.fft.ifft(modes * growth, axis=-1)
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=-1))
        if bad.size:
            raise ValueError(
                f"the Weyl frame grown from slice {bad[0]}'s values is not finite: "
                "the Voros weight e^{theta (E^2 + k^2)/4} overflowed"
            )
    return rows


def _slice_part(
    fld: Field1D, t: float | None = None, ops: Iterable = (), frame: bool = False
) -> PhasePoly:
    """Lift a slice psi(x) e^{-iEt}, E = metadata['energy'], to its degree-0 phase polynomial.

    The values (its frame, with frame=True, from `_frames`) are unwound by
    e^{iEt} at time t (default: the slice label), so the part evaluates back
    to them there.  An untagged slice lifts at E = 0 as `_slice_energy`
    allows.
    """
    energy = _slice_energy(fld, ops)
    t = fld.t_slice if t is None else t
    if not frame:
        row = fld.values
    else:
        row = fld.frame if fld.frame is not None else _frames([fld], np.array([energy]))[0]
    return stationary_part(fld.spec, energy, row * np.exp(1j * energy * t))


def _slice_stack(flds: Sequence[Field1D], ts: Sequence[float], ops: Iterable = ()) -> PhasePoly:
    """Lift the frames of slices on one GridSpec into one stack, slice s at ts[s].

    Slice s is lifted as `_slice_part(flds[s], ts[s], ops, frame=True)` lifts it.
    """
    spec = flds[0].spec
    if any(fld.spec != spec for fld in flds):
        raise ValueError("a slice stack requires states on the same GridSpec")
    ops = list(ops)
    energies = np.array([_slice_energy(fld, ops) for fld in flds])
    rows = _frames(flds, energies)
    unwind = np.exp(1j * energies * np.asarray(ts, dtype=float))[:, None]
    return PhasePoly(spec, -energies, (rows * unwind)[None])


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
    """The module docstring's (p, q, j) sum on mode pairs, from the d/dt stacks fd and gd.

    A weight beyond floating-point range comes out non-finite without a
    numpy warning, for the caller to reject by name.
    """
    acc = 0.0
    for p, fp in enumerate(fd):
        for q, gq in enumerate(gd):
            w = sum(
                c ** (p + q - j) * beta ** (p - j) * alpha ** (q - j)
                / (math.factorial(p - j) * math.factorial(q - j) * math.factorial(j))
                for j in range(min(p, q) + 1)
            )
            acc = acc + w * _poly_mult(fp, gq)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(c * alpha * beta) * acc


def phase_star(F: PhasePoly, G: PhasePoly) -> PhasePoly:
    """Voros star product F * G: the term sum over every pair of surviving x-modes."""
    spec = F.spec
    if G.spec != spec:
        raise ValueError("the slice star requires states on the same GridSpec")
    if F.coef.ndim != 2 or G.coef.ndim != 2:
        raise ValueError("the slice star takes single states, not stacks")
    if spec.theta == 0.0:
        return PhasePoly(spec, F.a + G.a, _trimmed(_poly_mult(F.coef, G.coef)))

    n = spec.n_x
    Fh, _ = _drop_noise_modes(np.fft.fft(F.coef, axis=-1))
    Gh, _ = _drop_noise_modes(np.fft.fft(G.coef, axis=-1))
    kf = np.flatnonzero(np.any(Fh, axis=0))[:, None]
    kg = np.flatnonzero(np.any(Gh, axis=0))[None, :]
    alpha, beta = 1j * F.a + spec.k_x[kf], 1j * G.a - spec.k_x[kg]
    acc = _term_sum(spec.theta / 2.0, alpha, beta, _dt_stack(Fh[:, kf]), _dt_stack(Gh[:, kg]))
    rows = np.arange(acc.shape[0])[:, None, None]
    out = _scatter_sum(rows * n + (kf + kg) % n, acc, acc.shape[0] * n).reshape(-1, n)
    return PhasePoly(spec, F.a + G.a, _trimmed(np.fft.ifft(out, axis=-1) / n))


def _frame_pairing(bra: PhasePoly, t) -> Callable[[PhasePoly], complex | np.ndarray]:
    """ket -> (bra, ket)_t for Weyl frames: the module docstring's bounded line sum.

    bra and ket are the frames' phase polynomials, single states or stacks.
    On a stack, slice s of the bra pairs with slice s of the ket at time
    t[s] (t may be one time for every slice), and the result holds one
    pairing per slice.  No mode is cut.  The exponential of the nilpotent D
    is the finite sum

        e^{(theta/4)(A + D)(B + D)} = e^{(theta/4)AB}
            sum_m D^m sum_{j <= m/2} (theta/4)^{m-j} (A + B)^{m-2j} / (j! (m-2j)!),

    and a degree-0 pair of equal frequencies, where it is 1, is summed in
    x-space without a transform.  A result beyond floating-point range
    raises a ValueError that names the slice, with no numpy warning first.
    """
    spec, c, n = bra.spec, bra.spec.theta / 4.0, bra.spec.n_x
    shape = np.shape(bra.a)  # () for a single state, (S,) for a stack
    ts = np.broadcast_to(np.asarray(t, dtype=float), shape).reshape(-1)
    a_bra = np.reshape(bra.a, -1)
    fc = np.conj(bra.coef).reshape(bra.coef.shape[0], -1, n)
    bra_modes = functools.cache(lambda: np.fft.fft(fc, axis=-1))  # taken once, if a ket needs it
    partner = -np.arange(n) % n

    def pair(ket: PhasePoly) -> complex | np.ndarray:
        if ket.spec != spec:
            raise ValueError("the slice star requires states on the same GridSpec")
        if np.shape(ket.a) != shape:
            raise ValueError(f"ket stack {np.shape(ket.a)} does not match bra stack {shape}")
        gc = ket.coef.reshape(ket.coef.shape[0], -1, n)
        big_a = 1j * (np.reshape(ket.a, -1) - a_bra)  # A = i(a_F + a_G), a_F = -a_bra
        # An overflow is rejected below, by name, not by a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if fc.shape[0] == gc.shape[0] == 1 and not np.any(big_a):
                total = np.einsum("sx,sx->s", fc[0], gc[0])
            else:
                prod = _poly_mult(bra_modes(), np.fft.fft(gc, axis=-1)[..., partner])
                big_a = big_a[:, None]
                big_b = big_a + 2.0 * spec.k_x
                acc = dm = prod
                for m in range(1, prod.shape[0]):
                    dm = _dt_poly(dm)
                    acc = acc + dm * sum(
                        c ** (m - j) * (big_a + big_b) ** (m - 2 * j)
                        / (math.factorial(j) * math.factorial(m - 2 * j))
                        for j in range(m // 2 + 1)
                    )
                poly = np.sum(np.exp(c * big_a * big_b) * acc, axis=-1)
                powers = ts ** np.arange(poly.shape[0])[:, None]
                total = np.exp(big_a[:, 0] * ts) * np.sum(powers * poly, axis=0) / n
            total = total * spec.dx
        if not np.all(np.isfinite(total)):
            s = int(np.flatnonzero(~np.isfinite(total))[0])
            raise ValueError(
                f"slice pairing is not finite on slice {s} at t = {ts[s]:.6g} ({total[s]}): "
                "the sum over its frames overflowed"
            )
        return total if shape else complex(total[0])

    return pair
