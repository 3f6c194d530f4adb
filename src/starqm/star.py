"""Voros and Moyal star products on (t, x) fields.

On Fourier modes the products are exact: a mode k = (k0, k1) of f paired with a
mode k' of g lands in mode k + k' carrying the multiplier

    Voros:  exp[-(theta/2) k.k' - (i theta/2)(k0 k1' - k1 k0')]
    Moyal:  exp[          - (i theta/2)(k0 k1' - k1 k0')]

With w = k0 + i k1 the Voros exponent is -(theta/2) conj(w) w', which separates
over the two fields.  The 'fourier' method resums the resulting rank-one series

    f *_V g = sum_n (-theta/2)^n / n! . IFFT[conj(w)^n fhat] . IFFT[w^n ghat]

to numerical convergence — each term costs two FFTs, and the sum is the exact
mode-pair multiplier, not a truncation.

The Moyal multiplier is a pure phase, and in the mixed representation
(Fourier in t, real in x) it becomes a pair of x-translations (the Bopp shift):

    (f *_M g)(t, x) = sum_{k0, k0'} e^{i(k0+k0')t} f~(k0, x + theta k0'/2) g~(k0', x - theta k0/2)

with f~(k0, x) the t-Fourier rows of f.  The 'fourier' method evaluates this
sum directly — shifts as spectral phases, one inverse FFT over t at the end —
with no series, at cost O(N_t^2 N_x log N_x).  The 'series' method is the
literal bidifferential exponential truncated at total order K.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from starqm.fieldgrid import DEFAULT_MODE_CUTOFF, Field2D, GridSpec, _drop_noise_modes
from starqm.fieldgrid import _require_grid_theta

# A term whose max-norm stays below this fraction of the running sum (twice in
# a row) ends the resummation.
_RESUM_RTOL = 1e-15

_MAX_TERMS = 20000

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
    fraction of each field's peak; the Voros resummation needs it for
    stability, while for Moyal (a unimodular multiplier) it only cleans
    rounding-level input modes.
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


def _active_wmax(fh: np.ndarray, w: np.ndarray) -> float:
    """Largest |w| over modes actually populated in fh."""
    active = np.abs(fh) > 0
    if not np.any(active):
        return 0.0
    return float(np.max(np.abs(w)[active]))


def _term_budget(x: float) -> int:
    """Safe series length for resumming sum x^n/n! style tails."""
    return min(_MAX_TERMS, int(x + 20.0 * math.sqrt(x + 1.0) + 50.0))


def _renormed(arr: np.ndarray, log_scale: float) -> tuple[np.ndarray, float]:
    m = float(np.max(np.abs(arr)))
    if m > 1e120 or (0.0 < m < 1e-120):
        arr = arr / m
        log_scale += math.log(m)
    return arr, log_scale


def _apply_log_scale(term: np.ndarray, log_scale: float) -> np.ndarray:
    # exp(log_scale) can overflow even when the scaled term is moderate;
    # multiply in bounded chunks.
    while log_scale != 0.0:
        step = max(min(log_scale, 600.0), -600.0)
        term = term * math.exp(step)
        log_scale -= step
    return term


def _resum_voros(fh: np.ndarray, gh: np.ndarray, w: np.ndarray, theta: float) -> np.ndarray:
    """Resummed rank-one series for the Voros multiplier exp[-(theta/2) conj(w) w']."""
    s = math.sqrt(theta / 2.0)
    budget = _term_budget((theta / 2.0) * _active_wmax(fh, w) * _active_wmax(gh, w))
    mul_f = s * np.conj(w)
    mul_g = s * w

    Fh, Gh = fh.copy(), gh.copy()
    log_f = log_g = 0.0
    acc = np.fft.ifft2(Fh) * np.fft.ifft2(Gh)
    acc_norm = float(np.max(np.abs(acc)))
    term_norms = [acc_norm]
    quiet = 0
    for n in range(1, budget + 1):
        rn = math.sqrt(n)
        Fh = Fh * (mul_f / rn)
        Gh = Gh * (mul_g / rn)
        Fh, log_f = _renormed(Fh, log_f)
        Gh, log_g = _renormed(Gh, log_g)
        term = np.fft.ifft2(Fh) * np.fft.ifft2(Gh)
        term = _apply_log_scale(term, log_f + log_g)
        if n % 2:
            term = -term
        acc += term
        tn = float(np.max(np.abs(term)))
        term_norms.append(tn)
        acc_norm = max(acc_norm, float(np.max(np.abs(acc))))
        quiet = quiet + 1 if tn <= _RESUM_RTOL * max(acc_norm, 1e-300) else 0
        if quiet >= 2:
            return acc
    if acc_norm == 0.0:
        return acc
    raise StarConvergenceError("fourier", None, term_norms[-12:])


def _moyal_mixed(fh: np.ndarray, gh: np.ndarray, k_t: np.ndarray, k_x: np.ndarray,
                 theta: float) -> np.ndarray:
    """Exact Moyal product in the mixed (Fourier-in-t, real-in-x) representation.

    The multiplier exp[-(i theta/2) k0 k1'] . exp[+(i theta/2) k1 k0'] shifts
    every row a of f by +theta k0_{a'}/2 in x and row a' of g by
    -theta k0_a/2, both as spectral phases.  The x-space product of rows a and
    a' lands in output row (a + a') mod n_t, and one inverse FFT over t
    finishes the sum.  Entirely zero rows (e.g. after the mode cutoff) are
    skipped, so the cost is O(rows_f rows_g N_x log N_x).
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
    # ifft over t supplies one 1/n_t; the pair sum over (a, a') needs another.
    return np.fft.ifft(acc, axis=0) / n_t


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
        w = spec.k_t[:, None] + 1j * spec.k_x[None, :]
        out = _resum_voros(fh, gh, w, kernel.theta)
    else:
        out = _moyal_mixed(fh, gh, spec.k_t, spec.k_x, kernel.theta)
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
