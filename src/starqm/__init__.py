"""Quantum mechanics on a (1+1)-dimensional noncommutative plane, [t, x] = iθ.

Star-product engines (Voros / Moyal), coherent-state symbol calculus, deformed
coordinate operators, wave-packet and oscillator dynamics, and the uncertainty /
symplectic analysis built on top of them.
"""

from starqm.fieldgrid import Field1D, Field2D, GridSpec, integrate, sample_field, spectral_derivative
from starqm.star import StarKernel, plane_wave_star_factor, star

__version__ = "0.1.0"

__all__ = [
    "Field1D",
    "Field2D",
    "GridSpec",
    "StarKernel",
    "integrate",
    "plane_wave_star_factor",
    "sample_field",
    "spectral_derivative",
    "star",
    "__version__",
]
