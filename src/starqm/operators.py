"""Deformed coordinate/momentum operators acting on symbols.

Every operator here is a finite combination of normal-ordered monomials
t^a x^b d_t^c d_x^d (coordinates to the left of derivatives), stored as a
``{(a, b, c, d): coefficient}`` table.  Products are computed symbolically by
commuting derivative factors past coordinate factors, so commutators like
[G, P_x] collapse to their closed form *before* any grid is touched.  That
matters numerically: applying a composed operator evaluates all derivatives
directly on the input state (exact for band-limited data) instead of
differentiating an intermediate that coordinate multiplication has already
made non-periodic.

Application is supported for three state representations: full space-time
fields, phase-polynomial states, and single-time slices carrying an energy
tag.  A slice is applied through its phase polynomial: it is lifted to the
degree-0 part psi(x) e^{-iEt} (so d_t acts as -iE and t-multiplication as a
degree shift) and read back at its slice time.

`boost_transform` is the one finite Galilean boost e^{-ivG} of a full field,
in closed form through the Weyl frame and exact at every velocity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from starqm.fieldgrid import EDGE_DECAY_TOL, Field1D, Field2D, spectral_derivative
from starqm.fieldgrid import _drop_noise_modes, _edge_magnitude
from starqm.fieldgrid import _require_nonnegative, _require_positive
from starqm.phasecalc import PhasePoly, _dt_poly, _slice_part

Monomial = tuple[int, int, int, int]  # exponents of t, x, d_t, d_x


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _compose_terms(A: dict[Monomial, complex], B: dict[Monomial, complex]) -> dict[Monomial, complex]:
    """Normal-ordered product: move A's derivatives past B's coordinates.

    d_t^c t^e = sum_j C(c,j) e!/(e-j)! t^{e-j} d_t^{c-j}, and likewise in x.
    """
    out: dict[Monomial, complex] = {}
    for (a, b, c, d), ca in A.items():
        for (e, f, g, h), cb in B.items():
            for j in range(min(c, e) + 1):
                wj = math.comb(c, j) * _falling(e, j)
                for k in range(min(d, f) + 1):
                    w = ca * cb * wj * math.comb(d, k) * _falling(f, k)
                    key = (a + e - j, b + f - k, c - j + g, d - k + h)
                    out[key] = out.get(key, 0.0) + w
    return {key: v for key, v in out.items() if v != 0.0}


def _merge_theta(ta: float, tb: float) -> float:
    if ta == tb or tb == 0.0:
        return ta
    if ta == 0.0:
        return tb
    raise ValueError(f"cannot combine operators with theta={ta} and theta={tb}")


@dataclass(frozen=True)
class SymbolOperator:
    """A finite Weyl-monomial combination acting on symbol fields."""

    kind: str
    theta: float
    terms: dict[Monomial, complex]
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_nonnegative(self.theta, "theta")
        cleaned = {}
        for key, v in self.terms.items():
            if not (isinstance(key, tuple) and len(key) == 4
                    and all(isinstance(e, int) and e >= 0 for e in key)):
                raise ValueError(f"operator term key {key!r} is not four non-negative ints")
            if v != 0.0:
                cleaned[key] = complex(v)
        object.__setattr__(self, "terms", cleaned)

    def compose(self, other: "SymbolOperator") -> "SymbolOperator":
        theta = _merge_theta(self.theta, other.theta)
        return SymbolOperator("composite", theta, _compose_terms(self.terms, other.terms))

    def __add__(self, other: "SymbolOperator") -> "SymbolOperator":
        theta = _merge_theta(self.theta, other.theta)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return SymbolOperator("composite", theta, terms)

    def __sub__(self, other: "SymbolOperator") -> "SymbolOperator":
        return self + (-1.0) * other

    def __mul__(self, c: complex) -> "SymbolOperator":
        return SymbolOperator("composite", self.theta, {k: c * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def to_json(self) -> str:
        terms = {",".join(map(str, k)): [v.real, v.imag] for k, v in self.terms.items()}
        blob = {"kind": self.kind, "theta": self.theta, "params": self.params, "terms": terms}
        return json.dumps(blob, sort_keys=True)


def from_json(text: str) -> SymbolOperator:
    """Rebuild an operator from `SymbolOperator.to_json` output."""
    blob = json.loads(text)
    missing = {"kind", "theta", "params", "terms"} - set(blob)
    if missing:
        raise ValueError(f"operator JSON lacks {sorted(missing)}")
    terms = {
        tuple(int(s) for s in key.split(",")): complex(re, im)
        for key, (re, im) in blob["terms"].items()
    }
    return SymbolOperator(blob["kind"], blob["theta"], terms, blob["params"])


def x_theta_l(theta: float) -> SymbolOperator:
    """x + (theta/2)(d_x - i d_t): left action of the space coordinate."""
    return SymbolOperator(
        "X_theta_L", theta,
        {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): theta / 2, (0, 0, 1, 0): -1j * theta / 2},
    )


def x_theta_r(theta: float) -> SymbolOperator:
    return SymbolOperator(
        "X_theta_R", theta,
        {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): theta / 2, (0, 0, 1, 0): +1j * theta / 2},
    )


def t_theta_l(theta: float) -> SymbolOperator:
    """t + (theta/2)(d_t + i d_x): left action of the time coordinate."""
    return SymbolOperator(
        "T_theta_L", theta,
        {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): theta / 2, (0, 0, 0, 1): +1j * theta / 2},
    )


def t_theta_r(theta: float) -> SymbolOperator:
    return SymbolOperator(
        "T_theta_R", theta,
        {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): theta / 2, (0, 0, 0, 1): -1j * theta / 2},
    )


def p_x(theta: float = 0.0) -> SymbolOperator:
    return SymbolOperator("P_x", theta, {(0, 0, 0, 1): -1j})


def p_t(theta: float = 0.0) -> SymbolOperator:
    return SymbolOperator("P_t", theta, {(0, 0, 1, 0): -1j})


def x_c(theta: float) -> SymbolOperator:
    """(X_L + X_R)/2 = x + (theta/2) d_x: the commuting space coordinate."""
    return SymbolOperator("X_c", theta, {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): theta / 2})


def t_c(theta: float) -> SymbolOperator:
    """(T_L + T_R)/2 = t + (theta/2) d_t: the commuting time coordinate."""
    return SymbolOperator("T_c", theta, {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): theta / 2})


def galilean_boost(m: float, theta: float) -> SymbolOperator:
    """Boost generator G = m X_theta^L - P_x T_c, written with the commuting time.

    It equals m X_theta^L - P_x T_theta^L - (theta/2) P_x^2 with the deformed
    time term by term.
    """
    _require_positive(m, "mass")
    g = x_theta_l(theta) * m - p_x().compose(t_c(theta))
    return SymbolOperator("GalileanBoost", theta, g.terms, {"m": float(m)})


def hamiltonian(m: float, potential=None, theta: float = 0.0) -> SymbolOperator:
    """P_x^2 / 2m plus an optional polynomial potential sum_j c_j x^j, each c_j real and finite."""
    _require_positive(m, "mass")
    terms: dict[Monomial, complex] = {(0, 0, 0, 2): -1.0 / (2 * m)}
    coeffs = [complex(c) for c in ([] if potential is None else potential)]
    if any(c.imag != 0.0 or not math.isfinite(c.real) for c in coeffs):
        raise ValueError(f"potential coefficients must be real and finite, got {potential}")
    coeffs = [c.real for c in coeffs]
    terms.update({(0, j, 0, 0): c for j, c in enumerate(coeffs) if c != 0.0})
    return SymbolOperator("Hamiltonian", theta, terms, {"m": float(m), "potential": coeffs})


def commutator(A: SymbolOperator, B: SymbolOperator) -> SymbolOperator:
    return A.compose(B) - B.compose(A)


# --------------------------------------------------------------------------
# application to states


def _derivative(fld: Field2D, order: tuple[int, int], derivs: dict) -> Field2D:
    """d_t^c d_x^d fld for order (c, d), memoized in derivs (t first, then x).

    derivs belongs to fld: a caller that applies several operators to one
    field passes the same dict to each, so every derivative order is taken
    once.
    """
    if order not in derivs:
        c, d = order
        if d:
            g = _derivative(fld, (c, 0), derivs)
            g = spectral_derivative(g, axis="x", order=d, periodic=True)
        elif c:
            g = spectral_derivative(fld, axis="t", order=c, periodic=True)
        else:
            g = fld
        derivs[order] = g
    return derivs[order]


def _apply_field2d(op: SymbolOperator, fld: Field2D, derivs: dict) -> Field2D:
    """op fld, reading derivatives of fld from (and adding them to) derivs."""
    spec = fld.spec
    out = np.zeros((spec.n_t, spec.n_x), dtype=np.complex128)
    for (a, b, c, d), coef in op.terms.items():
        vals = _derivative(fld, (c, d), derivs).values
        if a:
            vals = vals * spec.t[:, None] ** a
        if b:
            vals = vals * spec.x[None, :] ** b
        out += coef * vals
    return Field2D(spec, out, metadata=dict(fld.metadata))


def _dx_stack(coef: np.ndarray, k_x: np.ndarray, order: int) -> np.ndarray:
    return np.fft.ifft(np.fft.fft(coef, axis=-1) * (1j * k_x) ** order, axis=-1)


def _apply_phasepoly(op: SymbolOperator, poly: PhasePoly) -> PhasePoly:
    spec = poly.spec
    deg = poly.degree
    max_t = max((a for (a, _, _, _) in op.terms), default=0)
    out = np.zeros((deg + max_t + 1, spec.n_x), dtype=np.complex128)
    for (a, b, c, d), coef in op.terms.items():
        work = poly.coef
        for _ in range(c):  # d_t on q e^{iat}: (ia + degree-lowering) on q
            work = 1j * poly.a * work + _dt_poly(work)
        if d:
            work = _dx_stack(work, spec.k_x, d)
        if b:
            work = work * spec.x ** b
        out[a : a + work.shape[0]] += coef * work
    return PhasePoly(spec, poly.a, out)


def apply(op: SymbolOperator, psi):
    """Apply a symbol operator to a state; the return type mirrors the input."""
    if isinstance(psi, Field2D):
        return _apply_field2d(op, psi, {})
    if isinstance(psi, Field1D):
        vals = _apply_phasepoly(op, _slice_part(psi)).values_at(psi.t_slice)
        return Field1D(psi.spec, psi.t_slice, vals, metadata=dict(psi.metadata))
    if isinstance(psi, PhasePoly):
        return _apply_phasepoly(op, psi)
    raise TypeError(f"cannot apply an operator to {type(psi).__name__}")


def commutator_apply(A: SymbolOperator, B: SymbolOperator, psi):
    """(AB - BA) psi, composed symbolically before touching the grid."""
    return apply(commutator(A, B), psi)


# --------------------------------------------------------------------------
# Galilean boost of states


def boost_transform(psi: Field2D, v: float, m: float) -> Field2D:
    """The state seen from a frame moving with velocity v: e^{-ivG} psi.

    G = m X_theta^L - P_x T_c, `galilean_boost(m, psi.spec.theta)`.  In the Weyl
    frame, whose mode k is the Voros mode times e^{(theta/4)|k|^2} (the
    Moyal amplitude), it reads m x - (i m theta/2) d_t + i t d_x, whose flow
    is a t-translation by theta m v/2, the shear x -> x + vt - theta m v^2/4
    and a phase.  Back on Voros symbols each mode k = (k_t, k_x) of psi goes
    to k' = (k_t + v k_x - m v^2/2, k_x - m v) with the weight

        exp[(theta/4)(|k|^2 - |k'|^2) - i(theta m v/2) k_t
            - i(theta m v^2/4) k_x + i theta m^2 v^3/12],

    so (B_v psi)(t, x) = e^{-imv(x + vt/2)} sum_k psi_k w_k e^{ik.(t, x + vt)}
    on the trigonometric polynomial psi's modes span.  At theta = 0 this is
    the textbook Galilean transformation e^{-imvx - imv^2 t/2} psi(t, x + vt),
    which keeps plane waves on shell: E' = p'^2/2m when E = p^2/2m.

    The map is exact and linear for every v.  The output records
    'boost_growth', the largest (theta/4)(|k|^2 - |k'|^2) over the modes
    kept, and 'edge_decay_warning' (as `spectral_derivative` writes it) when
    the shear carries the state to an x edge of the box.
    """
    _require_positive(m, "mass")
    if not math.isfinite(v):
        raise ValueError(f"velocity v must be finite, got {v}")
    spec = psi.spec
    theta = spec.theta
    if v == 0.0:
        return Field2D(spec, psi.values, metadata=dict(psi.metadata))

    modes, _ = _drop_noise_modes(np.fft.fft2(psi.values))
    live = modes != 0
    k_t, k_x = spec.k_t[:, None], spec.k_x[None, :]
    out_t, out_x = k_t + v * k_x - m * v**2 / 2, k_x - m * v
    growth = (theta / 4.0) * (k_t**2 + k_x**2 - out_t**2 - out_x**2)
    phase = -(theta * m * v / 2) * k_t - (theta * m * v**2 / 4) * k_x + theta * m**2 * v**3 / 12
    weight = np.exp(growth + 1j * phase, out=np.zeros(live.shape, dtype=np.complex128), where=live)
    rows = np.fft.ifft(modes * weight, axis=0)
    rows *= np.exp(1j * v * np.outer(spec.t, spec.k_x))  # the shear x -> x + vt, row by row
    values = np.fft.ifft(rows, axis=1)
    values *= np.exp(-1j * m * v * (spec.x[None, :] + v * spec.t[:, None] / 2))

    meta = dict(psi.metadata)
    meta["boost_growth"] = float(np.max(growth, where=live, initial=-np.inf))
    edge = _edge_magnitude(values, 1)
    if edge > EDGE_DECAY_TOL:
        meta["edge_decay_warning"] = {"axis": "x", "relative_edge_magnitude": edge}
    return Field2D(spec, values, metadata=meta)
