"""Closed forms the benchmark checks every op against.

They are written out independently of starqm so that a faster or rewritten
engine is checked against the same numbers.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

# The relative error of a result that matches its oracle exactly is reported
# at this floor, so that accuracy_digits stays finite.
ERROR_FLOOR = 2.0**-53


def rel_error(got, want) -> float:
    """max |got - want| / max |want| over the arrays (or scalars)."""
    got, want = np.asarray(got), np.asarray(want)
    return max(float(np.max(np.abs(got - want)) / np.max(np.abs(want))), ERROR_FLOOR)


def voros_gaussian_product(alpha: float, beta: float, r2: np.ndarray, theta: float) -> np.ndarray:
    """e^{-alpha|z|^2} *_V e^{-beta|z|^2} = e^{-(alpha+beta-alpha beta)|z|^2}, |z|^2 = r^2/2theta."""
    return np.exp(-(alpha + beta - alpha * beta) * r2 / (2.0 * theta))


def moyal_gaussian_product(a: float, b: float, r2: np.ndarray, theta: float) -> np.ndarray:
    """e^{-a r^2} *_M e^{-b r^2} = e^{-(a+b) r^2/(1+ab theta^2)} / (1+ab theta^2)."""
    q = 1.0 + a * b * theta**2
    return np.exp(-(a + b) * r2 / q) / q


def pulse(v0: float, tau: float, center: float):
    """Gaussian time pulse V(t) = v0 e^{-((t-center)/tau)^2}."""
    return lambda t: v0 * np.exp(-(((t - center) / tau) ** 2))


def transition_amplitude_01(theta: float, v0: float, tau: float, center: float, T: float) -> complex:
    """First-order 0 -> 1 amplitude of the m = omega = 1 oscillator under `pulse`.

    The induced-product matrix elements are (1, 0)_theta = 0 and
    (1, d_x 0)_theta = i e^{-theta/4}/sqrt(2), so the amplitude reduces to
    (theta/2)(1, d_x 0)_theta I1 with I1 = V(T)e^{iT} - V(0) - i I0 and I0 the
    pulse's Fourier integral over [0, T], here in closed form through erf.
    At theta = 0.1, center = T/2 = 6 this reproduces the frozen reference
    2.2851632276e-03 - 6.6499664756e-04j.
    """
    shift = 0.5j * tau
    i0 = (
        v0 * tau * 0.5 * math.sqrt(math.pi) * np.exp(1j * center - tau**2 / 4.0)
        * (scipy.special.erf((T - center) / tau - shift) - scipy.special.erf(-center / tau - shift))
    )
    v = pulse(v0, tau, center)
    i1 = v(T) * np.exp(1j * T) - v(0.0) - 1j * i0
    d_x_element = 1j * math.exp(-theta / 4.0) / math.sqrt(2.0)
    return complex((theta / 2.0) * d_x_element * i1)
