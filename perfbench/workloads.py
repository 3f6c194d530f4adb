"""The three workloads: seeded inputs, one timed op each, and its oracle check.

Every workload is a closed loop of one client: the next op starts when the
previous one has finished.  `inputs(seed)` yields op inputs forever, the same
ones for the same seed; building them is not timed.  `run(inp)` is the timed
op.  `check(inp, result)` compares the result with its closed form and returns
(passed, relative error, detail).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import oracles
import starqm
from starqm import Field2D, GridSpec, StarKernel, dynamics, moments, operators, symbols

# Deformation scales the seed draws from.  The lower end is the smallest theta
# the 256^2 ground-state box (x in [-8, 8]) admits, since grid spacings must
# not exceed sqrt(theta)/4; every other grid here is admissible over the range.
THETA_RANGE = (0.0625, 0.2)
THETA_STRATA = 8

STAR_RTOL = 1e-9
COVARIANCE_RTOL = 1e-7
WILLIAMSON_TOL = 1e-9
ENERGY_RTOL = 1e-9
EHRENFEST_TOL = 1e-10
AMPLITUDE_RTOL = 1e-8

# Pulse of the transition amplitude, centred on a seeded time inside [0, T].
PULSE_V0, PULSE_TAU, PULSE_T = 0.05, 1.0, 12.0
PULSE_CENTERS = (5.0, 7.0)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], Iterator[Any]]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[bool, float, str]]


def _thetas(rng: np.random.Generator) -> Iterator[float]:
    """Seeded theta draws in blocks that visit each eighth of THETA_RANGE once.

    The slice_oscillator op costs up to 1.5x more at the top of the range
    than at the bottom, so stratifying keeps a run's mean cost from
    depending on how the seed happened to fall.
    """
    lo, hi = THETA_RANGE
    width = (hi - lo) / THETA_STRATA
    while True:
        for k in rng.permutation(THETA_STRATA):
            yield float(lo + width * (k + rng.uniform()))


# ---------------------------------------------------------------------------
# plane_covariance: whole-plane pairings through the Voros engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneInput:
    theta: float
    t: float
    t_prime: float
    states: tuple[Field2D, Field2D]


def plane_inputs(seed: int) -> Iterator[PlaneInput]:
    rng = np.random.default_rng(seed)
    for theta in _thetas(rng):
        s = math.sqrt(theta)
        reach = 8.0 * s
        spec = GridSpec(128, 128, -reach, reach, -reach, reach, theta)
        # Coherent symbols need 6 sqrt(theta) of clearance, so centres stay
        # within 2 sqrt(theta) of the origin.
        t0, x0, t1, x1, t, t_prime = rng.uniform(-2.0 * s, 2.0 * s, size=6)
        states = tuple(
            symbols.coherent_symbol(symbols.CoherentPoint(a, b, theta), spec)
            for a, b in ((t0, x0), (t1, x1))
        )
        yield PlaneInput(theta, float(t), float(t_prime), states)


def plane_run(inp: PlaneInput):
    cov = moments.coherent_variance_matrix(inp.theta)
    nu = moments.symplectic_eigenvalues(cov, moments.symplectic_form(inp.theta))
    report = symbols.quasi_projection_report(inp.theta, inp.t, inp.t_prime, inp.states)
    return cov, nu, report


def plane_check(inp: PlaneInput, result) -> tuple[bool, float, str]:
    cov, nu, report = result
    cov_err = max(cov.metadata["cross_check_max_abs"] / float(np.max(np.abs(cov.values))),
                  oracles.ERROR_FLOOR)
    nu_err = max(max(abs(v - 1.0) for v in nu), oracles.ERROR_FLOOR)
    json.loads(report)
    ok = cov_err <= COVARIANCE_RTOL and nu_err <= WILLIAMSON_TOL
    return ok, max(cov_err, nu_err), f"covariance {cov_err:.2e}, williamson {nu_err:.2e}"


# ---------------------------------------------------------------------------
# slice_oscillator: the fixed-slice oscillator pipeline (no 2-D star products)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceInput:
    theta: float
    pulse_center: float


def slice_inputs(seed: int) -> Iterator[SliceInput]:
    rng = np.random.default_rng(seed)
    for theta in _thetas(rng):
        yield SliceInput(theta, float(rng.uniform(*PULSE_CENTERS)))


def slice_run(inp: SliceInput):
    theta = inp.theta
    osc = dynamics.OscillatorParams(1.0, 1.0, theta)
    kernel = StarKernel(theta)
    harmonic = dynamics.Potential.harmonic(1.0, 1.0)
    spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
    dynamics.oscillator_spectrum(osc, 10)
    states = [dynamics.oscillator_eigenstate(osc, n, spec) for n in range(4)]
    dynamics.oscillator_ground(osc, GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta))
    pairs = dynamics.stationary_solve(harmonic, kernel, 1.0, (0.2, 2.8), spec)
    trajectory = dynamics.evolve(pairs[0][1], harmonic, kernel, 1.0, 2e-4, 50, record_every=5)
    residual = max(
        float(np.max(moments.ehrenfest_residual(trajectory, op, kernel, 1.0, harmonic)["residual"]))
        for op in (operators.x_theta_l(theta), operators.p_x())
    )
    for state in states:
        dynamics.slice_density(kernel, state)
    pulse = oracles.pulse(PULSE_V0, PULSE_TAU, inp.pulse_center)
    amplitude = dynamics.transition_amplitude(pulse, states[0], states[1], PULSE_T, theta, kernel)
    return [e for e, _ in pairs], residual, amplitude


def slice_check(inp: SliceInput, result) -> tuple[bool, float, str]:
    energies, residual, amplitude = result
    if len(energies) != 3:
        return False, 1.0, f"expected 3 levels in (0.2, 2.8), got {energies}"
    energy_err = max(oracles.rel_error(e, n + 0.5) for n, e in enumerate(energies))
    want = oracles.transition_amplitude_01(
        inp.theta, PULSE_V0, PULSE_TAU, inp.pulse_center, PULSE_T
    )
    amp_err = oracles.rel_error(amplitude, want)
    residual = max(residual, oracles.ERROR_FLOOR)
    ok = energy_err <= ENERGY_RTOL and residual <= EHRENFEST_TOL and amp_err <= AMPLITUDE_RTOL
    detail = f"energies {energy_err:.2e}, ehrenfest {residual:.2e}, amplitude {amp_err:.2e}"
    return ok, max(energy_err, residual, amp_err), detail


# ---------------------------------------------------------------------------
# star_products: full-field products of centred Gaussians, both flavors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarCase:
    flavor: str
    field: Field2D
    r2: np.ndarray
    # exponent of the input Gaussian e^{-c r^2}
    c: float

    def want(self) -> np.ndarray:
        theta = self.field.spec.theta
        if self.flavor == "voros":
            alpha = 2.0 * theta * self.c
            return oracles.voros_gaussian_product(alpha, alpha, self.r2, theta)
        return oracles.moyal_gaussian_product(self.c, self.c, self.r2, theta)


def gaussian_case(flavor: str, theta: float, n: int, reach: float, width: float) -> StarCase:
    """Centred Gaussian of the given width (in units of sqrt(theta)) on a box of +-reach sqrt(theta)."""
    half = reach * math.sqrt(theta)
    spec = GridSpec(n, n, -half, half, -half, half, theta)
    r2 = spec.t[:, None] ** 2 + spec.x[None, :] ** 2
    c = 1.0 / (2.0 * width**2 * theta)
    return StarCase(flavor, Field2D(spec, np.exp(-c * r2).astype(complex)), r2, c)


def star_inputs(seed: int) -> Iterator[tuple[StarCase, ...]]:
    """One pass: width-sqrt(theta) Gaussians at 128^2 and 256^2, both flavors, in seeded order."""
    rng = np.random.default_rng(seed)
    for theta in _thetas(rng):
        cases = [gaussian_case(flavor, theta, n, 8.0, 1.0)
                 for n in (128, 256) for flavor in ("voros", "moyal")]
        yield tuple(cases[i] for i in rng.permutation(len(cases)))


def star_run(cases: tuple[StarCase, ...]):
    return [starqm.star(StarKernel(case.field.spec.theta, case.flavor), case.field, case.field).values
            for case in cases]


def star_check(cases: tuple[StarCase, ...], result) -> tuple[bool, float, str]:
    errors = [oracles.rel_error(got, case.want()) for case, got in zip(cases, result)]
    detail = ", ".join(f"{c.flavor} {c.field.spec.n_t}^2 {e:.2e}" for c, e in zip(cases, errors))
    return max(errors) <= STAR_RTOL, max(errors), detail


def narrow_pair_misses(seed: int) -> tuple[int, str]:
    """Probe the narrower-than-sqrt(theta) pair, which the engine mishandles today.

    Width sqrt(theta)/2 on a 64^2 box of +-6 sqrt(theta), where the exact
    periodic product matches the closed form to 1e-12.  Moyal must match
    its closed form.  The Voros input lies outside its symbol class (the
    closed form grows), so the engine must raise or warn instead of
    returning a value.  Returns the number of the two that miss.
    """
    theta = next(_thetas(np.random.default_rng(seed)))
    misses, notes = 0, []
    for flavor in ("voros", "moyal"):
        case = gaussian_case(flavor, theta, 64, 6.0, 0.5)
        kernel = StarKernel(theta, flavor)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = starqm.star(kernel, case.field, case.field).values
            except Exception as exc:  # a report, which is what the Voros input needs
                out, reported = None, f"raised {type(exc).__name__}"
            else:
                reported = f"warned {caught[0].category.__name__}" if caught else ""
        if flavor == "voros":
            missed = not reported
            notes.append(f"voros {reported or 'returned a value silently'}")
        else:
            err = oracles.rel_error(out, case.want()) if out is not None else math.inf
            missed = not err <= STAR_RTOL
            notes.append(f"moyal rel error {err:.2e}" if out is not None else f"moyal {reported}")
        misses += missed
    return misses, "; ".join(notes)


WORKLOADS = {
    "plane_covariance": Workload(plane_inputs, plane_run, plane_check),
    "slice_oscillator": Workload(slice_inputs, slice_run, slice_check),
    "star_products": Workload(star_inputs, star_run, star_check),
}
