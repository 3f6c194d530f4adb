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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from starqm.fieldgrid import Field1D, Field2D, _require_nonnegative, _require_positive
from starqm.fieldgrid import spectral_derivative
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
        cleaned = {k: complex(v) for k, v in self.terms.items() if v != 0.0}
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


def galilean_boost(m: float, theta: float, form: str = "reduced") -> SymbolOperator:
    """Boost generator G.

    form="reduced": m X - P T_c, the version written with the commuting time.
    form="full":    m X - P T - (theta/2) P^2 with the deformed T.
    The two are identical as operators; keeping both makes that an assertable
    regression rather than an assumption.
    """
    _require_positive(m, "mass")
    if form == "reduced":
        g = x_theta_l(theta) * m - p_x().compose(t_c(theta))
    elif form == "full":
        g = (
            x_theta_l(theta) * m
            - p_x().compose(t_theta_l(theta))
            - (theta / 2) * p_x().compose(p_x())
        )
    else:
        raise ValueError(f"form must be 'reduced' or 'full', got {form!r}")
    return SymbolOperator("GalileanBoost", theta, g.terms, {"m": m, "form": form})


def hamiltonian(m: float, potential=None, theta: float = 0.0) -> SymbolOperator:
    """P_x^2 / 2m plus an optional polynomial potential sum_j c_j x^j."""
    _require_positive(m, "mass")
    terms: dict[Monomial, complex] = {(0, 0, 0, 2): -1.0 / (2 * m)}
    coeffs = [] if potential is None else list(potential)
    for j, cj in enumerate(coeffs):
        if cj != 0:
            terms[(0, j, 0, 0)] = terms.get((0, j, 0, 0), 0.0) + cj
    return SymbolOperator("Hamiltonian", theta, terms, {"m": m, "potential": coeffs})


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

_BOOST_LIMIT = 0.1
_PLANE_WAVE_PURITY = 1e-12


def _dominant_mode(fld: Field2D):
    Y = np.fft.fft2(fld.values)
    power = np.abs(Y) ** 2
    idx = np.unravel_index(np.argmax(power), power.shape)
    purity = power[idx] / np.sum(power)
    # the DFT references phases to the first sample; shift to absolute coordinates
    spec = fld.spec
    origin = np.exp(-1j * (spec.k_t[idx[0]] * spec.t_min + spec.k_x[idx[1]] * spec.x_min))
    return idx, Y[idx] / fld.values.size * origin, purity


def boost_transform(psi: Field2D, v: float, m: float, theta: float) -> Field2D:
    """Boost a state to a frame moving with velocity v.

    Grid-aligned plane waves are boosted in closed form; anything else gets
    the first-order expansion 1 - ivG with its truncation size recorded in
    the output metadata.
    """
    _require_positive(m, "mass")
    spec = psi.spec
    if v == 0.0:
        return Field2D(spec, psi.values, metadata=dict(psi.metadata))

    idx, amplitude, purity = _dominant_mode(psi)
    if 1.0 - purity <= _PLANE_WAVE_PURITY:
        energy = -spec.k_t[idx[0]]
        p = spec.k_x[idx[1]]
        tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
        shifted = xx + v * tt
        values = (
            amplitude
            * np.exp(-1j * m * v * shifted)
            * np.exp(-1j * (energy * tt - p * shifted))
            * np.exp(1j * v * theta * p**2 / 2)
        )
        meta = dict(psi.metadata)
        meta["boost_mode"] = "exact_plane_wave"
        return Field2D(spec, values, metadata=meta)

    G = galilean_boost(m, theta)
    g_psi = apply(G, psi)
    norm = np.linalg.norm(psi.values)
    bound = abs(v) * np.linalg.norm(g_psi.values) / norm
    if bound > _BOOST_LIMIT:
        raise ValueError(
            f"velocity too large for the first-order boost: |v|.|G psi|/|psi| = "
            f"{bound:.3e} exceeds {_BOOST_LIMIT}"
        )
    gg_psi = apply(G, g_psi)
    estimate = v**2 / 2 * np.linalg.norm(gg_psi.values) / norm
    meta = dict(psi.metadata)
    meta["boost_mode"] = "first_order"
    meta["boost_truncation_estimate"] = float(estimate)
    return Field2D(spec, psi.values - 1j * v * g_psi.values, metadata=meta)
