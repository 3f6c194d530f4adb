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
fields, phase-polynomial states (a single one or a stack of slices), and
single-time slices carrying an energy tag.  A slice is applied through its
phase polynomial: it is lifted to the degree-0 part psi(x) e^{-iEt} (so d_t
acts as -iE and t-multiplication as a degree shift) by
`phasecalc._slice_part`, and read back at the same physical time,
`phasecalc._slice_time`.

`hamiltonian` builds the one generator, H_theta = P_x^2/2m + V(X_theta^L)
for a polynomial V, each power of x composed through the one-sided
coordinate action.  The stationary solver's gate and the Ehrenfest law both
read it.

`boost_transform` is the one finite Galilean boost e^{-ivG} of a full field,
in closed form through the Weyl frame and exact at every velocity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from starqm.fieldgrid import EDGE_DECAY_TOL, Field1D, Field2D, spectral_derivative
from starqm.fieldgrid import _drop_noise_modes, _edge_magnitude, _fft2
from starqm.fieldgrid import _require_nonnegative, _require_positive
from starqm.phasecalc import PhasePoly, _dt_poly, _slice_part, _slice_time

Monomial = tuple[int, int, int, int]  # exponents of t, x, d_t, d_x


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _compose_terms(A: dict[Monomial, complex], B: dict[Monomial, complex],
                   leading: bool = True) -> dict[Monomial, complex]:
    """Normal-ordered product: move A's derivatives past B's coordinates.

    d_t^c t^e = sum_j C(c,j) e!/(e-j)! t^{e-j} d_t^{c-j}, and likewise in x.
    leading=False omits each pair's leading term (j = k = 0), which AB and
    BA share with the same coefficient.
    """
    out: dict[Monomial, complex] = {}
    for (a, b, c, d), ca in A.items():
        for (e, f, g, h), cb in B.items():
            for j in range(min(c, e) + 1):
                wj = math.comb(c, j) * _falling(e, j)
                for k in range(min(d, f) + 1):
                    if not (leading or j or k):
                        continue
                    w = ca * cb * wj * math.comb(d, k) * _falling(f, k)
                    key = (a + e - j, b + f - k, c - j + g, d - k + h)
                    out[key] = out.get(key, 0.0) + w
    return {key: v for key, v in out.items() if v != 0.0}


def _is_monomial(key) -> bool:
    """Whether key is four non-negative ints, tested without a generator.

    Every operator built checks every key, compositions included, so the
    exponents are unpacked rather than iterated.
    """
    if not (isinstance(key, tuple) and len(key) == 4):
        return False
    a, b, c, d = key
    return (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)
            and isinstance(d, int) and min(key) >= 0)


def _merge_theta(ta: float, tb: float) -> float:
    if ta == tb or tb == 0.0:
        return ta
    if ta == 0.0:
        return tb
    raise ValueError(f"cannot combine operators with theta={ta} and theta={tb}")


@dataclass(frozen=True)
class SymbolOperator:
    """A finite Weyl-monomial combination acting on symbol fields.

    An operator is its theta and its terms, and equality is value equality.
    """

    theta: float
    terms: dict[Monomial, complex]

    def __post_init__(self) -> None:
        _require_nonnegative(self.theta, "theta")
        for key in self.terms:
            if not _is_monomial(key):
                raise ValueError(f"operator term key {key!r} is not four non-negative ints")
        cleaned = {key: complex(v) for key, v in self.terms.items() if v != 0.0}
        object.__setattr__(self, "terms", cleaned)

    def compose(self, other: "SymbolOperator") -> "SymbolOperator":
        theta = _merge_theta(self.theta, other.theta)
        return SymbolOperator(theta, _compose_terms(self.terms, other.terms))

    def __add__(self, other: "SymbolOperator") -> "SymbolOperator":
        theta = _merge_theta(self.theta, other.theta)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return SymbolOperator(theta, terms)

    def __sub__(self, other: "SymbolOperator") -> "SymbolOperator":
        return self + (-1.0) * other

    def __mul__(self, c: complex) -> "SymbolOperator":
        return SymbolOperator(self.theta, {k: c * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def to_json(self) -> str:
        terms = {",".join(map(str, k)): [v.real, v.imag] for k, v in self.terms.items()}
        return json.dumps({"theta": self.theta, "terms": terms}, sort_keys=True)


def from_json(text: str) -> SymbolOperator:
    """Rebuild an operator from `SymbolOperator.to_json` output."""
    blob = json.loads(text)
    missing = {"theta", "terms"} - set(blob)
    if missing:
        raise ValueError(f"operator JSON lacks {sorted(missing)}")
    terms = {
        tuple(int(s) for s in key.split(",")): complex(re, im)
        for key, (re, im) in blob["terms"].items()
    }
    return SymbolOperator(blob["theta"], terms)


def x_theta_l(theta: float) -> SymbolOperator:
    """x + (theta/2)(d_x - i d_t): left action of the space coordinate."""
    return SymbolOperator(
        theta, {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): theta / 2, (0, 0, 1, 0): -1j * theta / 2}
    )


def x_theta_r(theta: float) -> SymbolOperator:
    return SymbolOperator(
        theta, {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): theta / 2, (0, 0, 1, 0): +1j * theta / 2}
    )


def t_theta_l(theta: float) -> SymbolOperator:
    """t + (theta/2)(d_t + i d_x): left action of the time coordinate."""
    return SymbolOperator(
        theta, {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): theta / 2, (0, 0, 0, 1): +1j * theta / 2}
    )


def t_theta_r(theta: float) -> SymbolOperator:
    return SymbolOperator(
        theta, {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): theta / 2, (0, 0, 0, 1): -1j * theta / 2}
    )


def p_x(theta: float = 0.0) -> SymbolOperator:
    return SymbolOperator(theta, {(0, 0, 0, 1): -1j})


def p_t(theta: float = 0.0) -> SymbolOperator:
    return SymbolOperator(theta, {(0, 0, 1, 0): -1j})


def x_c(theta: float) -> SymbolOperator:
    """(X_L + X_R)/2 = x + (theta/2) d_x: the commuting space coordinate."""
    return SymbolOperator(theta, {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): theta / 2})


def t_c(theta: float) -> SymbolOperator:
    """(T_L + T_R)/2 = t + (theta/2) d_t: the commuting time coordinate."""
    return SymbolOperator(theta, {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): theta / 2})


def galilean_boost(m: float, theta: float) -> SymbolOperator:
    """Boost generator G = m X_theta^L - P_x T_c, written with the commuting time.

    It equals m X_theta^L - P_x T_theta^L - (theta/2) P_x^2 with the deformed
    time term by term.
    """
    _require_positive(m, "mass")
    return x_theta_l(theta) * m - p_x().compose(t_c(theta))


def _real_coefficients(coeffs) -> tuple[float, ...]:
    """Polynomial coefficients c_j as floats, each checked real and finite."""
    vals = [complex(c) for c in coeffs]
    if any(c.imag != 0.0 or not math.isfinite(c.real) for c in vals):
        raise ValueError(f"potential coefficients must be real and finite, got {coeffs}")
    return tuple(c.real for c in vals)


def hamiltonian(m: float, potential=None, theta: float = 0.0) -> SymbolOperator:
    """The generator H_theta = P_x^2/2m + sum_j c_j (X_theta^L)^j, each c_j real and finite.

    Each power of x is composed through the one-sided coordinate action
    `x_theta_l` -- the operator the evolver realizes in its conjugated frame
    -- not plain multiplication by V(x); at theta = 0 the terms are the plain
    c_j x^j.  potential=None is no potential: the kinetic term alone.
    """
    _require_positive(m, "mass")
    coeffs = _real_coefficients([] if potential is None else potential)
    h = SymbolOperator(theta, {(0, 0, 0, 2): -1.0 / (2 * m)})
    x_op = x_theta_l(theta)
    power = SymbolOperator(theta, {(0, 0, 0, 0): 1.0})
    for j, c in enumerate(coeffs):
        if j:
            power = power.compose(x_op)
        if c:
            h = h + power * c
    return h


def commutator(A: SymbolOperator, B: SymbolOperator) -> SymbolOperator:
    """[A, B] = AB - BA, without the terms the two orders share.

    Each pair of monomials gives AB and BA the same leading term, so the
    commutator omits it instead of summing it into other pairs' terms and
    cancelling it afterwards.  That cancellation rounded: at theta = 0.15,
    [H, P_x] for V = x^2/2 read 0.07499999999999998 i d_x instead of
    i theta/2, and its Weyl frame kept a spurious 1.4e-17 d_x term.
    """
    theta = _merge_theta(A.theta, B.theta)
    ab = SymbolOperator(theta, _compose_terms(A.terms, B.terms, leading=False))
    return ab - SymbolOperator(theta, _compose_terms(B.terms, A.terms, leading=False))


def _weyl_frame(op: SymbolOperator, theta: float) -> SymbolOperator:
    """op conjugated into the Weyl frame of a grid at theta, by the Weierstrass map.

    A Voros symbol is its Weyl amplitude damped by D = e^{(theta/4) Laplacian},
    so O acts on the amplitude as D^{-1} O D, which sends t^a x^b d_t^c d_x^d
    to (t - (theta/2) d_t)^a (x - (theta/2) d_x)^b d_t^c d_x^d; derivatives
    commute with D.  theta is the grid's: an operator built at theta = 0
    acts on the same damped symbols.  X_theta^L becomes x - (i theta/2) d_t,
    T_theta^L becomes t + (i theta/2) d_x, and X_c, T_c become x, t.
    """
    t_w = {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): -theta / 2}
    x_w = {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): -theta / 2}
    out: dict[Monomial, complex] = {}
    for (a, b, c, d), coef in op.terms.items():
        term = {(0, 0, c, d): coef}
        for factor in (x_w,) * b + (t_w,) * a:
            term = _compose_terms(factor, term)
        for key, v in term.items():
            out[key] = out.get(key, 0.0) + v
    return SymbolOperator(op.theta, out)


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
    """op poly, on a single state or on every slice of a stack at once."""
    spec = poly.spec
    deg = poly.degree
    max_t = max((a for (a, _, _, _) in op.terms), default=0)
    out = np.zeros((deg + max_t + 1,) + poly.coef.shape[1:], dtype=np.complex128)
    freq = np.asarray(poly.a)[..., None]  # one a per slice, broadcast along x
    for (a, b, c, d), coef in op.terms.items():
        work = poly.coef
        for _ in range(c):  # d_t on q e^{iat}: (ia + degree-lowering) on q
            work = 1j * freq * work + _dt_poly(work)
        if d:
            work = _dx_stack(work, spec.k_x, d)
        if b:
            work = work * spec.x ** b
        out[a : a + work.shape[0]] += coef * work
    return PhasePoly(spec, poly.a, out)


def apply(op: SymbolOperator, psi):
    """Apply a symbol operator to a state; the return type mirrors the input.

    A Field1D result is read back as a stationary slice, so an operator that
    leaves a t-polynomial of degree > 0 on it is rejected: its d_t would be
    lost in any later pairing.  A framed Field1D returns the frame of the
    result too, O_W acting on its frame with O conjugated into the Weyl
    frame at the grid's theta (`_weyl_frame`).
    """
    if isinstance(psi, Field2D):
        return _apply_field2d(op, psi, {})
    if isinstance(psi, Field1D):
        t = _slice_time(psi)
        poly = _apply_phasepoly(op, _slice_part(psi, t, [op]))
        if poly.degree > 0:
            raise ValueError(
                f"the operator leaves a t-polynomial of degree {poly.degree}, which a "
                "Field1D cannot carry; use moments.expectation, or apply it to the "
                "PhasePoly of phasecalc._slice_part"
            )
        frame = None
        if psi.frame is not None:
            op_w = _weyl_frame(op, psi.spec.theta)
            frame = _apply_phasepoly(op_w, _slice_part(psi, t, [op_w], frame=True)).values_at(t)
        return Field1D(psi.spec, psi.t_slice, poly.values_at(t), dict(psi.metadata), frame)
    if isinstance(psi, PhasePoly):
        return _apply_phasepoly(op, psi)
    raise TypeError(f"cannot apply an operator to {type(psi).__name__}")


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

    modes, _ = _drop_noise_modes(_fft2(psi.values))
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
