"""Voros and Moyal star products on (t, x) fields.

On Fourier modes the products are exact: a mode k = (k0, k1) of f paired with a
mode k' of g lands in mode k + k' carrying the multiplier

    Voros:  exp[-(theta/2) k.k' - (i theta/2)(k0 k1' - k1 k0')]
    Moyal:  exp[          - (i theta/2)(k0 k1' - k1 k0')]

The Moyal multiplier is a pure phase, and in the mixed representation
(Fourier in t, real in x) it becomes a pair of x-translations (the Bopp shift):

    (f *_M g)(t, x) = sum_{k0, k0'} e^{i(k0+k0')t} f~(k0, x + theta k0'/2) g~(k0', x - theta k0/2)

with f~(k0, x) the t-Fourier rows of f.  The engine evaluates this sum
directly — shifts as spectral phases, products of x-rows, one inverse FFT at
the end — with no series.

The Voros product runs through the same engine.  Per mode pair

    exp[-(theta/2) k.k'] = e^{theta|k|^2/4} . e^{theta|k'|^2/4} . e^{-theta|k + k'|^2/4},

so Voros is Moyal between Gaussian-grown inputs, damped on the output mode.

Both flavors run on a compact mode grid sized to the occupied band.  On each
axis let B_f and B_g be the largest |signed mode index| that survives the
mode cutoff in f and in g; every output mode k + k' then has a signed index
in [-(B_f + B_g), B_f + B_g].  The engine takes M = the smallest 2^a 3^b
>= 2(B_f + B_g) + 1 slots of the original spacing 2 pi/L, puts each surviving
mode in slot (signed index) mod M, and gives every slot the true frequency of
the signed index it holds, so each shift, growth and damping is the exact one
and no sum wraps.  The Voros M is capped at 2N: the damping must see the true
sum k + k', not its image mod N (two high modes can wrap onto a low one,
where the wrapped damping is far too weak), and 2N slots already hold every
sum of two indices in [-N/2, N/2) without a wrap.  The Moyal M is capped at N:
its multiplier has no damping, so a sum wrapped mod N is exactly the periodic
product, and white noise runs on the original grid.  The output spectrum is
folded K mod N onto the N_t x N_x grid and transformed back once.  A
Gaussian of width sqrt(theta) on a +-8 sqrt(theta) box keeps 41 modes per
axis, so it runs on 81 x 81 slots at N = 128 and N = 256 alike.  The growth
is evaluated only on modes that survive the mode cutoff; a weight beyond
floating-point range gives non-finite values, which Field2D rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from starqm.fieldgrid import DEFAULT_MODE_CUTOFF, Field2D, GridSpec, _drop_noise_modes
from starqm.fieldgrid import _require_grid_theta, _require_nonnegative

# The star-square series stops at the first term below this fraction of the
# running sum.
_SQUARE_RTOL = 1e-12
_SQUARE_MAX_TERMS = 512


@dataclass(frozen=True)
class StarKernel:
    """Configuration of a star product: deformation scale and flavor."""

    theta: float
    flavor: str = "voros"

    def __post_init__(self) -> None:
        _require_nonnegative(self.theta, "theta")
        if self.flavor not in ("voros", "moyal"):
            raise ValueError(f"flavor must be 'voros' or 'moyal', got {self.flavor!r}")


def plane_wave_star_factor(E: float, p: float, E2: float, p2: float, theta: float) -> complex:
    """Exact Voros multiplier for plane waves: e^{-i(Et-px)} * e^{-i(E2 t - p2 x)}.

    The product is factor . e^{-i((E+E2)t - (p+p2)x)} with
    factor = exp[-(theta/2)(E + ip)(E2 - i p2)].
    """
    return complex(np.exp(-(theta / 2.0) * (E + 1j * p) * (E2 - 1j * p2)))


def _require_voros(kernel: StarKernel, spec: GridSpec, what: str) -> None:
    """Reject a kernel of another flavor, then one whose theta is not the grid's."""
    if kernel.flavor != "voros":
        raise ValueError(
            f"{what} is defined through the Voros pairing and needs flavor 'voros'; "
            f"got flavor {kernel.flavor!r}"
        )
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

    fh and gh are mode arrays on a compact grid of M_t x M_x slots, and k_t,
    k_x hold the true signed frequency of each slot: slot s carries
    2 pi s~/L, with s~ = s or s - M the signed index of the mode placed
    there, not the frequency 2 pi s~/(M d) of an M-point grid of the original
    spacing d.  The multiplier exp[-(i theta/2) k0 k1'] . exp[+(i theta/2) k1 k0']
    shifts every row a of f by +theta k0_{a'}/2 in x and row a' of g by
    -theta k0_a/2, both as spectral phases.  The x-space product of rows a
    and a' lands in row (a + a') mod M_t of the returned array, which is
    still Fourier in t, real on M_x x-points, and carries a factor 1/M_x
    from the x transforms.  With M at least twice the occupied band plus one
    no sum wraps (see the module docstring); at the Moyal cap M = N the wrap
    mod N is the periodic product itself.  Entirely zero rows are skipped, so
    the cost is O(rows_f rows_g M_x log M_x).
    """
    m_t, m_x = fh.shape
    rows_f = np.flatnonzero(np.any(fh != 0, axis=1))
    rows_g = np.flatnonzero(np.any(gh != 0, axis=1))
    shifts_f = np.exp((0.5j * theta) * np.multiply.outer(k_t[rows_g], k_x))
    shifts_g = np.exp((-0.5j * theta) * np.multiply.outer(k_t[rows_f], k_x))
    f_rows = fh[rows_f]
    acc = np.zeros((m_t, m_x), dtype=np.complex128)
    for row_g, shift_f in zip(rows_g, shifts_f):
        f_shifted = np.fft.ifft(f_rows * shift_f, axis=1)
        g_shifted = np.fft.ifft(gh[row_g] * shifts_g, axis=1)
        acc[(rows_f + row_g) % m_t] += f_shifted * g_shifted
    return acc


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b >= n."""
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best


def _signed_index(n: int) -> np.ndarray:
    """Signed mode index of each slot of an n-point FFT axis (Nyquist negative)."""
    return (np.arange(n) + n // 2) % n - n // 2


def _compact_axis(live: list[np.ndarray], n: int, spacing: float, cap: int):
    """Slot map of one axis: live indices of f and g -> compact slots.

    The compact length M is the smallest 2^a 3^b that holds every sum of a
    live signed index of f and one of g without wrapping, capped at `cap`.
    Each live mode goes to the slot (signed index) mod M, and every slot
    carries the true frequency 2 pi s / (n spacing) of the signed index s it
    holds.  Returns the slots of f and of g, M, and the slot frequencies.
    """
    signed = _signed_index(n)
    band = sum(int(np.max(np.abs(signed[idx]), initial=0)) for idx in live)
    m = min(_smooth_length(2 * band + 1), cap)
    freqs = (2.0 * np.pi / (n * spacing)) * _signed_index(m)
    return [signed[idx] % m for idx in live], m, freqs


def _fold_rows(acc: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of an M-slot spectrum onto their signed indices mod n."""
    signed = _signed_index(acc.shape[0])
    out = np.zeros((n, acc.shape[1]), dtype=acc.dtype)
    neg = signed < 0
    out[signed[~neg]] = acc[~neg]
    out[signed[neg] + n] += acc[neg]
    return out


def _star_compact(fh: np.ndarray, gh: np.ndarray, spec: GridSpec, theta: float,
                  voros: bool) -> tuple[np.ndarray, list[int]]:
    """Exact product of two cutoff mode arrays through the compact Moyal rows.

    Returns the product's values on the spec grid and the compact lengths
    [M_t, M_x] it was evaluated on.
    """
    n_t, n_x = fh.shape
    cap = 2 if voros else 1
    nonzero = [fh != 0, gh != 0]
    live_t = [np.flatnonzero(np.any(nz, axis=1)) for nz in nonzero]
    live_x = [np.flatnonzero(np.any(nz, axis=0)) for nz in nonzero]
    slots_t, m_t, k_t = _compact_axis(live_t, n_t, spec.dt, cap * n_t)
    slots_x, m_x, k_x = _compact_axis(live_x, n_x, spec.dx, cap * n_x)

    def placed(i: int, h: np.ndarray) -> np.ndarray:
        live = np.ix_(live_t[i], live_x[i])
        block = h[live]
        if voros:
            # Growth only on surviving modes: on a full 256^2 grid it overflows.
            expo = (theta / 4.0) * np.add.outer(k_t[slots_t[i]] ** 2, k_x[slots_x[i]] ** 2)
            block = block * np.exp(expo, out=np.zeros(expo.shape), where=nonzero[i][live])
        out = np.zeros((m_t, m_x), dtype=np.complex128)
        out[np.ix_(slots_t[i], slots_x[i])] = block
        return out

    acc = _moyal_rows(placed(0, fh), placed(1, gh), k_t, k_x, theta)
    np.fft.fft(acc, axis=1, out=acc)
    # The x transforms left 1/M_x; the mode-pair sum needs 1/(n_t n_x).
    scale = m_x / (n_t * n_x)
    if voros:
        acc *= np.exp(-(theta / 4.0) * k_t**2)[:, None] * scale
        acc *= np.exp(-(theta / 4.0) * k_x**2)
    else:
        acc *= scale
    out = _fold_rows(_fold_rows(acc, n_t).T, n_x).T
    return np.fft.ifft2(out), [m_t, m_x]


def star(kernel: StarKernel, f: Field2D, g: Field2D) -> Field2D:
    """Star product f * g under the given kernel.  Bilinear in (f, g).

    Both fields must share one GridSpec whose theta matches the kernel's.
    theta = 0 reduces both flavors to the pointwise product exactly.  Any
    other result records the compact mode grid it ran on as
    metadata['mode_grid'] = [M_t, M_x], and the input modes it dropped below
    DEFAULT_MODE_CUTOFF as metadata['mode_cutoff'].
    """
    if not isinstance(f, Field2D) or not isinstance(g, Field2D):
        raise TypeError("star operates on Field2D inputs")
    if f.spec != g.spec:
        raise ValueError("star requires both fields on the same GridSpec")
    _require_grid_theta(kernel.theta, f.spec, "kernel theta")
    if kernel.theta == 0.0:
        return Field2D(f.spec, f.values * g.values)
    fh, dropped_f = _drop_noise_modes(np.fft.fft2(f.values))
    gh, dropped_g = _drop_noise_modes(np.fft.fft2(g.values))
    metadata: dict = {}
    if dropped_f or dropped_g:
        metadata["mode_cutoff"] = {
            "threshold": DEFAULT_MODE_CUTOFF,
            "dropped_f": dropped_f,
            "dropped_g": dropped_g,
        }
    voros = kernel.flavor == "voros"
    out, metadata["mode_grid"] = _star_compact(fh, gh, f.spec, kernel.theta, voros)
    return Field2D(f.spec, out, metadata)
