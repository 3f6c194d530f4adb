"""Voros and Moyal star products on (t, x) fields.

On Fourier modes the products are exact: a mode k = (k0, k1) of f paired with a
mode k' of g lands in mode k + k' carrying the multiplier

    Voros:  exp[-(theta/2) k.k' - (i theta/2)(k0 k1' - k1 k0')]
    Moyal:  exp[          - (i theta/2)(k0 k1' - k1 k0')]

The Moyal multiplier is a pure phase, and in the mixed representation
(Fourier in t, real in x) it becomes a pair of x-translations (the Bopp shift):

    (f *_M g)(t, x) = sum_{k0, k0'} e^{i(k0+k0')t} f~(k0, x + theta k0'/2) g~(k0', x - theta k0/2)

with f~(k0, x) the t-Fourier rows of f.  The 'fourier' method evaluates this
sum directly — shifts as spectral phases, one inverse FFT over t at the end —
with no series, at cost O(N_t^2 N_x log N_x).

The Voros product runs through the same engine.  Per mode pair

    exp[-(theta/2) k.k'] = e^{theta|k|^2/4} . e^{theta|k'|^2/4} . e^{-theta|k + k'|^2/4},

so Voros is Moyal between Gaussian-grown inputs, damped on the output mode.
The damping must see the true sum k + k', not its image mod N: a product of
two high modes can wrap onto a low one, where the wrapped damping is far too
weak.  The inputs are therefore placed at their signed frequencies on a grid
of twice the size and the same mode spacing, where no sum wraps; the damped
output spectrum is then folded mod N onto the original grid, which is the
periodic product.  The growth is evaluated only on modes that survive the
mode cutoff; a weight beyond floating-point range gives non-finite values,
which Field2D rejects.

The 'series' method is the literal bidifferential exponential truncated at
total order K.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from starqm.fieldgrid import DEFAULT_MODE_CUTOFF, Field2D, GridSpec, _drop_noise_modes
from starqm.fieldgrid import _require_grid_theta

# Series(K) acceptance gate: the order-K term must have fallen below this
# fraction of the order-0 term.
_SERIES_GATE = 1e-3

# The star-square series stops at the first term below this fraction of the
# running sum.
_SQUARE_RTOL = 1e-12
_SQUARE_MAX_TERMS = 512


class StarConvergenceError(RuntimeError):
    """Star expansion failed its convergence gate; carries a JSON diagnostic."""

    def __init__(self, method: str, order: int | None, term_norms: list[float]):
        self.record = {
            "method": method,
            "K": order,
            "term_norms": [float(v) for v in term_norms],
        }
        super().__init__(f"star product did not converge: {json.dumps(self.record)}")


@dataclass(frozen=True)
class StarKernel:
    """Configuration of a star product: deformation scale, flavor, and method.

    method='fourier' is the exact mode-pair multiplier (ground truth);
    method='series' truncates the bidifferential exponential at total order
    `order` (default 8).  mode_cutoff drops input Fourier modes below that
    fraction of each field's peak, so rounding-level modes take no part in
    the Voros growth.
    """

    theta: float
    flavor: str = "voros"
    method: str = "fourier"
    order: int | None = None
    mode_cutoff: float | None = DEFAULT_MODE_CUTOFF

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.flavor not in ("voros", "moyal"):
            raise ValueError(f"flavor must be 'voros' or 'moyal', got {self.flavor!r}")
        if self.method not in ("fourier", "series"):
            raise ValueError(f"method must be 'fourier' or 'series', got {self.method!r}")
        if self.method == "series":
            if self.order is None:
                object.__setattr__(self, "order", 8)
            if self.order < 1:
                raise ValueError(f"series order must be >= 1, got {self.order}")
        elif self.order is not None:
            raise ValueError("the fourier method takes no order parameter")


def plane_wave_star_factor(E: float, p: float, E2: float, p2: float, theta: float) -> complex:
    """Exact Voros multiplier for plane waves: e^{-i(Et-px)} * e^{-i(E2 t - p2 x)}.

    The product is factor . e^{-i((E+E2)t - (p+p2)x)} with
    factor = exp[-(theta/2)(E + ip)(E2 - i p2)].
    """
    return complex(np.exp(-(theta / 2.0) * (E + 1j * p) * (E2 - 1j * p2)))


def _require_voros(kernel: StarKernel, what: str) -> None:
    if kernel.flavor != "voros":
        raise ValueError(
            f"{what} is defined through the Voros pairing and needs flavor 'voros'; "
            f"got flavor {kernel.flavor!r}"
        )


def _require_theta_match(kernel: StarKernel, spec: GridSpec) -> None:
    _require_grid_theta(kernel.theta, spec, "kernel theta")


def _star_square_series(vhat: np.ndarray, mult: np.ndarray, theta: float) -> tuple[np.ndarray, int]:
    """Voros star-square psi* * psi as the positive sum of squares.

    vhat holds the Fourier modes of psi (1-D slice or 2-D field) and mult the
    mode multiplier of d_t + i d_x.  Returns the sum
    sum_n (theta/2)^n / n! |(d_t + i d_x)^n psi|^2 and its number of terms.
    """
    vhat, _ = _drop_noise_modes(vhat)
    acc = np.abs(np.fft.ifftn(vhat)) ** 2
    term_hat = vhat
    for n in range(1, _SQUARE_MAX_TERMS + 1):
        # Keep the coefficient inside the mode array: term_hat carries
        # sqrt((theta/2)^n / n!) mult^n psi-hat, so each term is a plain
        # square and intermediate magnitudes stay in floating-point range.
        term_hat = term_hat * (mult * math.sqrt(theta / (2.0 * n)))
        term = np.abs(np.fft.ifftn(term_hat)) ** 2
        acc += term
        if np.max(term) <= _SQUARE_RTOL * np.max(acc):
            return acc, n + 1
    raise RuntimeError(
        f"density series did not converge within {_SQUARE_MAX_TERMS} terms; "
        "the field occupies modes too close to the resolution floor"
    )


def _moyal_rows(fh: np.ndarray, gh: np.ndarray, k_t: np.ndarray, k_x: np.ndarray,
                theta: float) -> np.ndarray:
    """Moyal mode-pair sum in the mixed (Fourier-in-t, real-in-x) representation.

    The multiplier exp[-(i theta/2) k0 k1'] . exp[+(i theta/2) k1 k0'] shifts
    every row a of f by +theta k0_{a'}/2 in x and row a' of g by
    -theta k0_a/2, both as spectral phases.  The x-space product of rows a and
    a' lands in row (a + a') mod n_t of the returned array, which is still
    Fourier in t and carries a factor 1/n_x from the x transforms.  Entirely
    zero rows (e.g. after the mode cutoff) are skipped, so the cost is
    O(rows_f rows_g N_x log N_x).
    """
    n_t, n_x = fh.shape
    rows_f = np.flatnonzero(np.any(fh != 0, axis=1))
    rows_g = np.flatnonzero(np.any(gh != 0, axis=1))
    shifts_f = np.exp((0.5j * theta) * np.multiply.outer(k_t[rows_g], k_x))
    shifts_g = np.exp((-0.5j * theta) * np.multiply.outer(k_t[rows_f], k_x))
    f_rows = fh[rows_f]
    acc = np.zeros((n_t, n_x), dtype=np.complex128)
    for row_g, shift_f in zip(rows_g, shifts_f):
        f_shifted = np.fft.ifft(f_rows * shift_f, axis=1)
        g_shifted = np.fft.ifft(gh[row_g] * shifts_g, axis=1)
        acc[(rows_f + row_g) % n_t] += f_shifted * g_shifted
    return acc


def _voros_padded(fh: np.ndarray, gh: np.ndarray, spec: GridSpec, theta: float) -> np.ndarray:
    """Exact Voros product as Gaussian-conjugated Moyal on a doubled mode grid.

    Each surviving mode moves to its signed frequency on a 2N_t x 2N_x grid
    of the same spacing, grown by e^{theta|k|^2/4}; the Moyal rows there,
    transformed over x, are the unwrapped output spectrum, damped by
    e^{-theta|K|^2/4} and folded K mod N onto the original grid.
    """
    n_t, n_x = fh.shape
    k_t, k_x = spec.k_t, spec.k_x
    big_t = 2.0 * np.pi * np.fft.fftfreq(2 * n_t, d=spec.dt / 2.0)
    big_x = 2.0 * np.pi * np.fft.fftfreq(2 * n_x, d=spec.dx / 2.0)

    def grown(h: np.ndarray) -> np.ndarray:
        # Only surviving modes: the growth overflows on a full 256^2 grid.
        a, b = np.nonzero(h)
        out = np.zeros((2 * n_t, 2 * n_x), dtype=np.complex128)
        out[np.where(a < n_t // 2, a, a + n_t), np.where(b < n_x // 2, b, b + n_x)] = (
            h[a, b] * np.exp((theta / 4.0) * (k_t[a] ** 2 + k_x[b] ** 2))
        )
        return out

    acc = _moyal_rows(grown(fh), grown(gh), big_t, big_x, theta)
    np.fft.fft(acc, axis=1, out=acc)
    # The x transforms left 1/(2 n_x); the mode-pair sum needs 1/(n_t n_x).
    acc *= np.exp(-(theta / 4.0) * big_t**2)[:, None] * (2.0 / n_t)
    acc *= np.exp(-(theta / 4.0) * big_x**2)
    return np.fft.ifft2(acc.reshape(2, n_t, 2, n_x).sum(axis=(0, 2)))


def _cutoff_pair(kernel: StarKernel, fh: np.ndarray, gh: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    metadata: dict = {}
    if kernel.mode_cutoff is not None:
        fh, dropped_f = _drop_noise_modes(fh, kernel.mode_cutoff)
        gh, dropped_g = _drop_noise_modes(gh, kernel.mode_cutoff)
        if dropped_f or dropped_g:
            metadata["mode_cutoff"] = {
                "threshold": kernel.mode_cutoff,
                "dropped_f": dropped_f,
                "dropped_g": dropped_g,
            }
    return fh, gh, metadata


def _star_fourier(kernel: StarKernel, f: Field2D, g: Field2D) -> Field2D:
    spec = f.spec
    fh = np.fft.fft2(f.values)
    gh = np.fft.fft2(g.values)
    fh, gh, metadata = _cutoff_pair(kernel, fh, gh)
    if kernel.flavor == "voros":
        out = _voros_padded(fh, gh, spec, kernel.theta)
    else:
        # ifft over t supplies one 1/n_t; the pair sum over rows needs another.
        out = np.fft.ifft(_moyal_rows(fh, gh, spec.k_t, spec.k_x, kernel.theta), axis=0) / spec.n_t
    return Field2D(spec, out, metadata)


def _star_series(kernel: StarKernel, f: Field2D, g: Field2D) -> Field2D:
    spec = f.spec
    fh = np.fft.fft2(f.values)
    gh = np.fft.fft2(g.values)
    # The noise guard matters here too: w**n amplifies rounding-level high
    # modes by |w_max|^n, which would pollute high-order terms.
    fh, gh, metadata = _cutoff_pair(kernel, fh, gh)
    w = spec.k_t[:, None] + 1j * spec.k_x[None, :]
    wb = np.conj(w)
    K = kernel.order
    theta = kernel.theta

    acc = np.zeros((spec.n_t, spec.n_x), dtype=np.complex128)
    term_norms: list[float] = []
    for n in range(K + 1):
        if kernel.flavor == "voros":
            c = (-theta / 2.0) ** n / math.factorial(n)
            term = c * np.fft.ifft2(wb**n * fh) * np.fft.ifft2(w**n * gh)
        else:
            term = np.zeros_like(acc)
            for j in range(n + 1):
                l = n - j
                c = ((-theta / 4.0) ** j / math.factorial(j)) * (
                    (theta / 4.0) ** l / math.factorial(l)
                )
                term += c * np.fft.ifft2(wb**j * w**l * fh) * np.fft.ifft2(w**j * wb**l * gh)
        acc += term
        term_norms.append(float(np.max(np.abs(term))))
    if term_norms[0] > 0 and term_norms[-1] > _SERIES_GATE * term_norms[0]:
        raise StarConvergenceError("series", K, term_norms)
    metadata.update({"method": "series", "K": K, "term_norms": term_norms})
    return Field2D(spec, acc, metadata)


def star(kernel: StarKernel, f: Field2D, g: Field2D) -> Field2D:
    """Star product f * g under the given kernel.  Bilinear in (f, g).

    Both fields must share one GridSpec whose theta matches the kernel's.
    theta = 0 reduces both flavors to the pointwise product exactly.
    """
    if not isinstance(f, Field2D) or not isinstance(g, Field2D):
        raise TypeError("star operates on Field2D inputs")
    if f.spec != g.spec:
        raise ValueError("star requires both fields on the same GridSpec")
    _require_theta_match(kernel, f.spec)
    if kernel.theta == 0.0:
        return Field2D(f.spec, f.values * g.values)
    if kernel.method == "fourier":
        return _star_fourier(kernel, f, g)
    return _star_series(kernel, f, g)


def cross_validate(kernel_a: StarKernel, kernel_b: StarKernel, f: Field2D, g: Field2D) -> float:
    """Max-norm relative discrepancy between two methods for the same product."""
    if kernel_a.flavor != kernel_b.flavor:
        raise ValueError("cross_validate requires kernels of the same flavor")
    if kernel_a.theta != kernel_b.theta:
        raise ValueError("cross_validate requires kernels with the same theta")
    if kernel_a.method == kernel_b.method:
        raise ValueError("cross_validate requires two different methods")
    a = star(kernel_a, f, g).values
    b = star(kernel_b, f, g).values
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b)) / scale)
