"""Expectation values and fluctuation analysis under the induced pairing.

One `expectation` front end covers the three state representations: a
stationary-tagged slice is lifted to a phase polynomial so coordinate-t and
d_t monomials act exactly, a full field paired on a fixed-t line reads the
induced product integral dx psi* (star) O psi there, and a full field with
no line selected is paired over the whole plane, integral dt dx psi* (star)
O psi -- the right reading for coherent basis elements, which are not on
shell.  Every pairing needs only sums of the star product.  A full field
that carries a frame (its Weyl amplitude phi, which
`symbols.coherent_symbol` sets) is paired over the whole plane as sum
conj(phi) (O_W phi) dt dx, the plain integral of the Weyl amplitudes, with
O_W the operator conjugated into the frame (`operators._weyl_frame`): no
growth weight and no mode cutoff.  Fixed-line pairings of full fields, and
plane pairings of unframed fields, are the closed-form sum over partner
Fourier modes of `symbols._pairing`.  Every slice pairs through its frame:
O_W acts on the frames and `phasecalc._frame_pairing` pairs them by a
bounded line sum, which for a degree-0 ket at the slice's own energy is the
plain sum conj(phi) (O_W phi) dx (a slice built without a frame gets one in
`phasecalc._frames`).  A batch of operators is paired on one full field, or
on a stack of slices at once: the slices of a trajectory are lifted into one
phase polynomial with a slice axis, so the bra side is transformed at most
once per batch and each ket O psi at most once per operator, whatever the
number of slices.  The kets of a full field share one derivative cache, so
each derivative order is taken once per batch.  A framed field paired over
the whole plane builds no kets: the pairing is linear in O_W, so each
distinct monomial of the batch's frames is paired once (`_plane_moments`,
through `_framed_plane`).  That pass builds no Field2D: its spectra,
derivatives and coordinate weights are written in place into a few arrays
that live for the one call, and nothing outlives it.

On top of that sit the uncertainty products, the 4x4 covariance matrix of
the coherent element (its frame alone is built, and the ten anticommutator
frames are composed from the four coordinate frames, since a product's Weyl
frame is the product of the frames) together with its commutator
(symplectic) form, the Williamson spectrum, both uncertainty bounds, and the
residual of the evolution law d<O>/dt = i<[H, O]> + <d_t O> along stored
trajectories.  H is `operators.hamiltonian`, the deformed generator
H_theta = P_x^2/2m + V(X_theta^L) of a polynomial potential, and for
O = P_x the first-order force form -V' - (theta/2) V'' (d_x - i d_t) is one
more operator of the same batch.

The phase-space coordinates are (X, T, P_x, P_t) in that fixed order,
CANONICAL_ORDERING.  The Williamson spectrum is taken against the deformed
commutator form Omega_theta directly.  The frame map M to commuting
coordinates (transform_matrix) sends the pair (V, Omega_theta) to
(M V M^T, Omega_0), which has the same spectrum and determinant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from . import phasecalc, symbols
from .dynamics import Potential
from .fieldgrid import Field1D, Field2D, GridSpec, _csv
from .fieldgrid import _require_grid_theta, _require_nonnegative, _require_positive
from .operators import (
    SymbolOperator,
    _apply_field2d,
    _apply_phasepoly,
    _weyl_frame,
    commutator,
    hamiltonian,
    p_t,
    p_x,
    t_theta_l,
    x_theta_l,
)
from .star import StarKernel, _require_voros
from .symbols import CoherentPoint

_IMAG_TOL = 1e-8
_NORM_TOL = 1e-6
_VAR_FLOOR = -1e-10
# coherent_variance_matrix's numeric matrix must match the closed form to
# this fraction of the closed form's largest entry.
_CROSS_TOL = 1e-12
_BOUND_TOL = 1e-8

# Members of a Williamson eigenvalue pair must agree to this relative gap.
_PAIR_RTOL = 1e-6


# ---------------------------------------------------------------------------
# covariance and commutator-form containers
# ---------------------------------------------------------------------------

CANONICAL_ORDERING = ("X", "T", "P_x", "P_t")


@dataclass(frozen=True)
class _PhaseSpaceMatrix:
    """A 4x4 matrix over (X, T, P_x, P_t), frozen.

    Subclasses name themselves in _what and set _sign to +1 (symmetric) or
    -1 (antisymmetric); the input is checked for that symmetry to 1e-10 of
    its scale and then projected onto it exactly.
    """

    values: np.ndarray
    theta: float = 0.0

    _what = "matrix"
    _sign = 1

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (4, 4):
            raise ValueError(f"{self._what} must be 4x4, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{self._what} entries must be finite")
        scale = max(float(np.max(np.abs(vals))), 1.0)
        defect = float(np.max(np.abs(vals - self._sign * vals.T)))
        if defect > 1e-10 * scale:
            kind = "symmetric" if self._sign > 0 else "antisymmetric"
            raise ValueError(f"{self._what} must be {kind}; defect {defect:.3e}")
        vals = 0.5 * (vals + self._sign * vals.T)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        _require_nonnegative(self.theta, "theta")

    def to_json(self) -> str:
        return json.dumps(
            {
                "ordering": list(CANONICAL_ORDERING),
                "theta": self.theta,
                "values": [[float(v) for v in row] for row in self.values],
            }
        )


@dataclass(frozen=True)
class VarianceMatrix(_PhaseSpaceMatrix):
    """Symmetrized second moments V_ij = <{Z_i - <Z_i>, Z_j - <Z_j>}>/2."""

    metadata: dict = field(default_factory=dict)

    _what = "variance matrix"

    def __post_init__(self) -> None:
        super().__post_init__()
        if float(np.min(np.diag(self.values))) < _VAR_FLOOR:
            raise ValueError(f"negative diagonal variance: {np.diag(self.values)}")

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.values))

    def spread(self, label: str) -> float:
        """Standard deviation of one coordinate, read off the diagonal."""
        if label not in CANONICAL_ORDERING:
            raise ValueError(f"unknown label {label!r}; ordering is {CANONICAL_ORDERING}")
        i = CANONICAL_ORDERING.index(label)
        return math.sqrt(max(float(self.values[i, i]), 0.0))

    def uncertainty(self, a: str, b: str) -> float:
        """Delta_a Delta_b from the diagonal spreads."""
        return self.spread(a) * self.spread(b)


@dataclass(frozen=True)
class SymplecticForm(_PhaseSpaceMatrix):
    """Commutator form Omega_ij = [Z_i, Z_j] / 2i over (X, T, P_x, P_t)."""

    _what = "symplectic form"
    _sign = -1


def symplectic_form(theta: float = 0.0) -> SymplecticForm:
    """Commutator form of (X, T, P_x, P_t) at deformation scale theta.

    [X, P_x] = i and [T, P_t] = i give the two 1/2 entries; [X, T] = -i theta
    adds the deformation corner.  theta = 0 is the standard block form.
    """
    _require_nonnegative(theta, "theta")
    base = np.zeros((4, 4))
    base[0, 2] = 0.5
    base[1, 3] = 0.5
    base[0, 1] = -theta / 2.0
    return SymplecticForm(base - base.T, theta)


def transform_matrix(theta: float) -> np.ndarray:
    """Frame map M sending the deformed (X, T, P_x, P_t) to commuting ones.

    X_c = X - (theta/2) P_t and T_c = T + (theta/2) P_x, momenta unchanged;
    det M = 1 and M Omega_theta M^T = Omega_0.
    """
    M = np.eye(4)
    M[0, 3] = -theta / 2
    M[1, 2] = +theta / 2
    return M


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------


def _checked_norm(norm: complex) -> float:
    if abs(norm.imag) > _IMAG_TOL * max(abs(norm.real), 1.0):
        raise ValueError(f"pairing norm carries an imaginary residue: {norm:.6g}")
    if abs(norm.real - 1.0) > _NORM_TOL:
        raise ValueError(
            f"state is not normalized under the induced pairing: norm "
            f"{norm.real:.9g} is off unity by more than {_NORM_TOL}"
        )
    return norm.real


def expectation(
    op: SymbolOperator,
    psi: Field1D | Field2D,
    kernel: StarKernel,
    t: float | None = None,
) -> complex:
    """<O>_t = (psi, O psi)_t / (psi, psi)_t under the induced pairing.

    A Field1D is read as a stationary slice: metadata['energy'] fixes the
    temporal reduction and the state is lifted to a phase polynomial, so
    t-multiplication and d_t factors act exactly (a global phase from the
    unwind time cancels in the ratio).  The slice is evaluated at time t,
    defaulting to its physical time t_slice + metadata['elapsed'].  An
    untagged slice is accepted only at theta = 0 for operators free of d_t
    factors (`phasecalc._slice_part`).  The slice is paired as a stack of
    one, the pass that pairs a whole trajectory at once in
    `ehrenfest_residual`; a norm check that fails there names the slice and
    its time.  O is conjugated into the Weyl frame and the slice's frame
    (computed from its values if it has none, see `phasecalc._frames`)
    pairs by `phasecalc._frame_pairing`, with no growth weight and no mode
    cutoff.

    A Field2D with explicit t pairs on that fixed-t grid line, integral
    dx psi* (star) O psi; with t=None it pairs over the whole plane,
    integral dt dx psi* (star) O psi.  Over the whole plane, a field with a
    frame (the Weyl amplitude phi of `symbols.coherent_symbol`) pairs as the
    grid sum of conj(phi) (O_W phi) dt dx, with O conjugated into the frame at
    the grid's theta.  The fixed-line pairing, and the plane pairing of an
    unframed field, are the closed-form sum over partner modes of
    `symbols._pairing`, whose mode-pair multiplier is exact; only
    kernel.theta enters it, and input modes below the pairing cutoff
    fieldgrid._PAIRING_MODE_CUTOFF are dropped.  On a full field, the
    functions that pair several operators on one state (uncertainty
    products, covariance, bound checks) pair them as one batch.  A framed
    field over the whole plane pairs by monomial moments: each distinct
    monomial t^a x^b d_t^c d_x^d of the batch's frames is paired with phi
    once, as one grid sum against its spectral derivative (each derivative
    order taken once in the call), and each operator combines its
    coefficients' moments; no ket O_W phi is built, and the norm is the
    (0, 0, 0, 0) moment.  Otherwise every O psi is built from one derivative
    cache of psi, and the bra side is transformed once per batch.

    An operator built at a theta other than 0 or the grid's is rejected.
    The state must arrive normalized: a pairing norm off unity beyond 1e-6
    is rejected; the residual deviation below that is divided out.
    """
    return _expectations([op], psi, kernel, t)[0]


def _expectations(
    ops: Sequence[SymbolOperator],
    psi: Field1D | Field2D | Sequence[Field1D],
    kernel: StarKernel,
    t: float | None = None,
) -> list[complex] | np.ndarray:
    """`expectation` of each operator on one state, pairing the norm once.

    psi may also be a list or tuple of S slices on one GridSpec, each read
    at its physical time (or all at t).  They are paired as one stack, so the
    number of numpy calls does not grow with S, and the result is an
    (S, len(ops)) array.  A single slice is the stack of one.
    """
    stack = isinstance(psi, (list, tuple))
    states = list(psi) if stack else [psi]
    kinds = (Field1D,) if stack else (Field1D, Field2D)
    for state in states:
        if not isinstance(state, kinds):
            raise TypeError(f"expected a Field1D or Field2D state, got {type(state).__name__}")
    spec = states[0].spec
    for op in ops:
        if not isinstance(op, SymbolOperator):
            raise TypeError(f"expected a SymbolOperator, got {type(op).__name__}")
        if op.theta != 0.0:
            _require_grid_theta(op.theta, spec, "operator theta")
    _require_voros(kernel, spec, "the expectation value")

    if isinstance(psi, Field2D):
        if t is None and psi.frame is not None:
            return _framed_plane([_weyl_frame(op, spec.theta) for op in ops], psi.frame, spec)
        pair = symbols._pairing(kernel.theta, psi, t)
        # One derivative cache serves every operator of the batch.
        act = partial(_apply_field2d, fld=psi, derivs={})
        norm = _checked_norm(complex(pair(psi)))
        return [complex(pair(act(op))) / norm for op in ops]

    ts = np.array([phasecalc._slice_time(fld) if t is None else float(t) for fld in states])
    state = phasecalc._slice_stack(states, ts, ops)
    # Weyl amplitudes pair by the bounded line sum, with O_W acting on them.
    ops = [_weyl_frame(op, spec.theta) for op in ops]
    pair = phasecalc._frame_pairing(state, ts)
    norms = np.empty(len(states))
    for s, norm in enumerate(pair(state)):
        try:
            norms[s] = _checked_norm(complex(norm))
        except ValueError as err:
            raise ValueError(f"slice {s} at t = {ts[s]:.6g}: {err}") from None
    values = np.array([pair(_apply_phasepoly(op, state)) for op in ops]).T / norms[:, None]
    return values if stack else [complex(v) for v in values[0]]


def _framed_plane(
    frames: Sequence[SymbolOperator], phi: np.ndarray, spec: GridSpec
) -> list[complex]:
    """<O> over the whole plane for each operator O_W already in the Weyl frame, on amplitude phi.

    The pairing is the plain grid sum of conj(phi) (O_W phi) dt dx, which is
    linear in O_W: each distinct monomial is paired once (`_plane_moments`)
    and each frame combines its coefficients' moments.  The norm is the
    (0, 0, 0, 0) moment and must be unity (`_checked_norm`).
    """
    moment = _plane_moments(phi, spec, frames)
    area = spec.dt * spec.dx
    norm = _checked_norm(moment[(0, 0, 0, 0)] * area)
    return [
        complex(sum(coef * moment[key] for key, coef in frame.terms.items())) * area / norm
        for frame in frames
    ]


def _plane_moments(phi: np.ndarray, spec: GridSpec, frames: Sequence[SymbolOperator]) -> dict:
    """<phi, t^a x^b d_t^c d_x^d phi> as a grid sum, once per monomial of the frames.

    The norm's monomial (0, 0, 0, 0) is always included.  The monomials run
    grouped by derivative order, d_t order first, and every derivative is
    spectral, from three kinds of forward one-axis transform taken once
    each: phi along t (every d_t^c), phi along x (every d_x^d) and, per
    d_t order c, d_t^c phi along x (every d_t^c d_x^d).  No Field2D is
    built: the spectra, the current d_t^c phi, the current derivative and
    the t^a x^b weighting each live in one slab of a block allocated once
    for this call (only the slabs the monomials use), which every
    transform, multiplier and inverse transform writes into.  The
    multipliers (i k)^order, the t^a-then-x^b weighting and one `np.vdot`
    per monomial are those of `spectral_derivative` and `_apply_field2d`, so
    the moments are the ones the kets would give, bit for bit.
    """
    keys = {(0, 0, 0, 0)}.union(*(frame.terms for frame in frames))
    roles = []
    if any(key[2] for key in keys):
        roles += ["along t", "d_t phi"]
    if any(key[3] for key in keys):
        roles += ["along x", "derivative"]
    if any(key[0] or key[1] for key in keys):
        roles.append("weighted")
    # One allocation for every buffer: a freed block this large also lets
    # glibc keep its pages for the next call (see `symbols._quasi_projectors`).
    buffer = dict(zip(roles, np.empty((len(roles), spec.n_t, spec.n_x), dtype=np.complex128)))

    def derive(spectrum: np.ndarray, axis: int, order: int, out: np.ndarray) -> np.ndarray:
        k = spec.k_t[:, None] if axis == 0 else spec.k_x[None, :]
        np.multiply(spectrum, (1j * k) ** order, out=out)
        return np.fft.ifft(out, axis=axis, out=out)

    moment = {}
    order = along_t = along_x = None
    for a, b, c, d in sorted(keys, key=lambda key: key[2:] + key[:2]):
        if order is None or order[0] != c:
            # d_t^c phi, and a fresh x spectrum of it on first need
            if c:
                if along_t is None:
                    along_t = np.fft.fft(phi, axis=0, out=buffer["along t"])
                base = derive(along_t, 0, c, buffer["d_t phi"])
            else:
                base = phi
            along_x = None
        if order != (c, d):
            order = (c, d)
            if d:
                if along_x is None:
                    along_x = np.fft.fft(base, axis=1, out=buffer["along x"])
                vals = derive(along_x, 1, d, buffer["derivative"])
            else:
                vals = base
        weighted = vals
        if a:
            weighted = np.multiply(weighted, spec.t[:, None] ** a, out=buffer["weighted"])
        if b:
            weighted = np.multiply(weighted, spec.x[None, :] ** b, out=buffer["weighted"])
        moment[a, b, c, d] = complex(np.vdot(phi, weighted))
    return moment


def _mean_variance(mean: complex, second: complex, label: str) -> tuple[float, float]:
    """(mean, variance) of a hermitian operator from <O> and <O^2>, with reality guards."""
    scale = 1.0 + abs(mean) + abs(second)
    if abs(mean.imag) > _IMAG_TOL * scale or abs(second.imag) > _IMAG_TOL * scale:
        raise ValueError(
            f"moments of {label} carry imaginary residues beyond {_IMAG_TOL}: "
            f"<O> = {mean:.6g}, <O^2> = {second:.6g}"
        )
    var = second.real - mean.real**2
    if var < _VAR_FLOOR:
        raise ValueError(
            f"variance of {label} came out {var:.3e} < {_VAR_FLOOR}: the pairing "
            "lost positivity (refine the grid)"
        )
    return mean.real, max(var, 0.0)


def uncertainty_product(
    opA: SymbolOperator,
    opB: SymbolOperator,
    psi: Field1D | Field2D,
    kernel: StarKernel,
    t: float | None = None,
) -> float:
    """Delta A . Delta B with Delta O = sqrt(<O^2> - <O>^2)."""
    mean_a, second_a, mean_b, second_b = _expectations(
        [opA, opA.compose(opA), opB, opB.compose(opB)], psi, kernel, t
    )
    _, var_a = _mean_variance(mean_a, second_a, "the first operator")
    _, var_b = _mean_variance(mean_b, second_b, "the second operator")
    return math.sqrt(var_a) * math.sqrt(var_b)


# ---------------------------------------------------------------------------
# coherent-element covariance
# ---------------------------------------------------------------------------


def coherent_variance_matrix(
    theta: float,
    spec: GridSpec | None = None,
) -> VarianceMatrix:
    """Covariance of (X, T, P_x, P_t) on a coherent basis element.

    In closed form the matrix is diag(theta/2, theta/2, 1/theta, 1/theta)
    with cross entries V[X, P_t] = +1/2 and V[T, P_x] = -1/2: the coordinate
    spreads are the element's Gaussian widths, the momentum spreads their
    duals, and the cross terms come from the one-sided coordinate action
    (x from the left carries (theta/2) d_x - (i theta/2) d_t along with the
    multiplication, and the d_t half couples to P_t).  Each conjugate 2x2
    block {X, P_t} and {T, P_x} has determinant (theta/2)(1/theta) - 1/4 =
    1/4, so det V = 1/16 at every theta.

    The same matrix is recomputed numerically over the whole plane, the
    pairing `expectation` makes of a framed field: the element's Weyl
    amplitude (its frame, `symbols._coherent_frame`, with the symbol's
    clearance check) is paired with the operators conjugated into that
    frame.  Only the four coordinates are conjugated (`_weyl_frame`); the
    ten anticommutator frames are composed from theirs.  The two matrices
    must agree entrywise within 1e-12 of the closed form's largest entry;
    the achieved deviation lands in metadata['cross_check_max_abs'].
    Omitting spec uses a box of reach 8 sqrt(theta) at 128x128.
    """
    if not theta > 0:
        raise ValueError(f"the coherent element needs theta > 0, got {theta}")
    if spec is None:
        reach = 8.0 * math.sqrt(theta)
        spec = GridSpec(128, 128, -reach, reach, -reach, reach, theta)
    if spec.theta != theta:
        raise ValueError(f"grid theta {spec.theta} does not match theta {theta}")

    _, phi = symbols._coherent_frame(CoherentPoint(0.0, 0.0, theta), spec)
    # A product's Weyl frame is the product of the frames, so the ten
    # anticommutators are composed from the four coordinate frames.
    zs = [_weyl_frame(op, theta) for op in (x_theta_l(theta), t_theta_l(theta), p_x(), p_t())]
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    antis = [zs[i].compose(zs[j]) + zs[j].compose(zs[i]) for i, j in upper]
    values = [v.real for v in _framed_plane(zs + antis, phi, spec)]
    means = values[:4]
    numeric = np.zeros((4, 4))
    for (i, j), anti in zip(upper, values[4:]):
        numeric[i, j] = numeric[j, i] = 0.5 * anti - means[i] * means[j]

    analytic = np.zeros((4, 4))
    analytic[0, 0] = analytic[1, 1] = theta / 2.0
    analytic[2, 2] = analytic[3, 3] = 1.0 / theta
    analytic[0, 3] = analytic[3, 0] = 0.5
    analytic[1, 2] = analytic[2, 1] = -0.5
    deviation = float(np.max(np.abs(numeric - analytic)))
    bound = _CROSS_TOL * float(np.max(np.abs(analytic)))
    if deviation > bound:
        raise ValueError(
            f"numerical covariance disagrees with the closed form by "
            f"{deviation:.3e} (> {bound:.3e}):\nnumeric =\n{numeric}\n"
            f"closed form =\n{analytic}"
        )
    return VarianceMatrix(analytic, theta, {"cross_check_max_abs": deviation})


# ---------------------------------------------------------------------------
# Williamson spectrum and uncertainty bounds
# ---------------------------------------------------------------------------


def symplectic_eigenvalues(V: VarianceMatrix, Omega: SymplecticForm) -> list[float]:
    """Williamson spectrum of V with respect to Omega: each value twice, descending.

    The eigenvalue moduli of Omega^{-1} V come in equal pairs
    (nu_1, nu_1, nu_2, nu_2).  This normalization makes the vacuum matrix
    V = I/2 on the standard theta = 0 form give nu = 1, and a covariance
    matrix is physical exactly when every nu >= 1.
    """
    spectrum = np.linalg.eigvalsh(V.values)
    if float(np.min(spectrum)) <= 0.0:
        raise ValueError(
            f"variance matrix must be positive definite; spectrum {spectrum}"
        )
    scale = float(np.max(np.abs(Omega.values)))
    det = float(np.linalg.det(Omega.values))
    if scale == 0.0 or abs(det) < 1e-12 * scale**4:
        raise ValueError(f"symplectic form is singular: det = {det:.3e}")
    mods = np.abs(np.linalg.eigvals(np.linalg.solve(Omega.values, V.values)))
    mods = np.sort(mods)[::-1]
    for a, b in ((0, 1), (2, 3)):
        if abs(mods[a] - mods[b]) > _PAIR_RTOL * mods[a]:
            raise ValueError(f"eigenvalue moduli failed to pair up: {mods}")
    return [float(v) for v in mods]


def robertson_schrodinger_check(
    opA: SymbolOperator,
    opB: SymbolOperator,
    psi: Field1D | Field2D,
    kernel: StarKernel,
    t: float | None = None,
) -> dict:
    """Both uncertainty bounds for the pair (A, B) on one state.

    Returns {"lhs": Delta A Delta B, "robertson_rhs": |<[A,B]>|/2,
    "schrodinger_rhs": sqrt(cov^2 + (|<[A,B]>|/2)^2)} with cov the
    symmetrized covariance.  lhs can undercut neither bound for an exact
    pairing, so a shortfall beyond 1e-8 raises, carrying all three numbers.
    """
    ops = [opA, opA.compose(opA), opB, opB.compose(opB)]
    ops += [opA.compose(opB) + opB.compose(opA), commutator(opA, opB)]
    mean_a, second_a, mean_b, second_b, anti, comm = _expectations(ops, psi, kernel, t)
    mean_a, var_a = _mean_variance(mean_a, second_a, "the first operator")
    mean_b, var_b = _mean_variance(mean_b, second_b, "the second operator")
    lhs = math.sqrt(var_a) * math.sqrt(var_b)
    cov = 0.5 * anti.real - mean_a * mean_b
    half_comm = 0.5 * abs(comm)
    record = {
        "lhs": lhs,
        "robertson_rhs": half_comm,
        "schrodinger_rhs": math.hypot(cov, half_comm),
    }
    if lhs < record["robertson_rhs"] - _BOUND_TOL or lhs < record["schrodinger_rhs"] - _BOUND_TOL:
        raise ValueError(
            "uncertainty bound violated beyond tolerance -- a numerical "
            f"failure, not physics: lhs = {lhs:.12g}, robertson_rhs = "
            f"{record['robertson_rhs']:.12g}, schrodinger_rhs = "
            f"{record['schrodinger_rhs']:.12g}"
        )
    return record


# ---------------------------------------------------------------------------
# evolution-law residuals
# ---------------------------------------------------------------------------


def _explicit_time_derivative(op: SymbolOperator) -> SymbolOperator:
    """d_t of the operator's explicit coordinate-t dependence."""
    terms = {
        (a - 1, b, c, d): a * coef
        for (a, b, c, d), coef in op.terms.items()
        if a > 0
    }
    return SymbolOperator(op.theta, terms)


def ehrenfest_residual(
    trajectory: Sequence[Field1D],
    op: SymbolOperator,
    kernel: StarKernel,
    m: float,
    potential: Potential,
) -> dict:
    """Residual of d<O>/dt = i<[H, O]> + <d_t O> along a stored trajectory.

    <O> is evaluated on every slice at its physical time and differentiated
    with 4th-order central differences, so at least five uniformly spaced
    slices are needed.  Every operator is paired on the whole trajectory in
    one stacked pass (see _expectations).  H is H_theta =
    `operators.hamiltonian(m, potential.coeffs, theta)`, so the potential
    must be polynomial (none is the empty one).  For O = P_x the first-order
    force form <-V' - (theta/2) V'' (d_x - i d_t)> is paired as one more
    operator and returned under 'force_residual'; it matches the commutator
    side up to O(theta^2), exactly for V of degree at most 2.

    Returns {"t": interior times, "residual": |lhs - rhs|, ...} as arrays.
    """
    n = len(trajectory)
    if n < 5:
        raise ValueError(
            f"trajectory too short for central differences: need at least 5 "
            f"slices, got {n}"
        )
    spec = trajectory[0].spec
    for fld in trajectory[1:]:
        if fld.spec != spec:
            raise ValueError("trajectory slices must share one GridSpec")
    _require_grid_theta(kernel.theta, spec, "kernel theta")
    _require_positive(m, "mass")
    theta = spec.theta

    ts = np.array([phasecalc._slice_time(fld) for fld in trajectory])
    h = float(ts[1] - ts[0])
    if h <= 0 or float(np.max(np.abs(np.diff(ts) - h))) > 1e-9 * max(abs(h), 1e-12):
        raise ValueError("trajectory slices must be uniformly spaced in time")

    if potential.kind not in ("none", "polynomial"):
        raise ValueError(f"the commutator side needs a polynomial potential, got {potential.kind!r}")
    H = hamiltonian(m, potential.coeffs, theta)
    rhs_op = commutator(H, op) * 1j + _explicit_time_derivative(op)
    ops = [op, rhs_op]
    with_force = op.terms == p_x().terms
    if with_force:
        # -V' - (theta/2) V'' (d_x - i d_t) for V = sum_j c_j x^j joins the batch.
        force = {}
        for j, c in enumerate(potential.coeffs):
            if j >= 1:
                force[(0, j - 1, 0, 0)] = -j * c
            if j >= 2:
                curvature = (theta / 2.0) * j * (j - 1) * c
                force[(0, j - 2, 0, 1)] = -curvature
                force[(0, j - 2, 1, 0)] = 1j * curvature
        ops.append(SymbolOperator(theta, force))
    # One stacked pass pairs every operator on every slice; the commutator
    # and force columns are read on the interior slices only.
    values = _expectations(ops, list(trajectory), kernel)
    series, inner = values[:, 0], values[2 : n - 2]
    fd = (-series[4:] + 8.0 * series[3:-1] - 8.0 * series[1:-3] + series[:-4]) / (12.0 * h)
    out = {"t": ts[2 : n - 2], "residual": np.abs(fd - inner[:, 1])}
    if with_force:
        out["force_residual"] = np.abs(fd - inner[:, 2])
    return out


# ---------------------------------------------------------------------------
# tabular export
# ---------------------------------------------------------------------------


def residual_csv(ts: Sequence[float], values: Sequence[float]) -> str:
    """CSV rows `t,value` for a residual or bound-check series."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise ValueError(f"shape mismatch: t {ts.shape} vs value {values.shape}")
    return _csv("t,value", ts, values)
