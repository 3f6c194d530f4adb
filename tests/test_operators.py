import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starqm.fieldgrid import EDGE_DECAY_TOL, Field1D, Field2D, GridSpec
from starqm.moments import transform_matrix
from starqm.operators import (
    SymbolOperator,
    _weyl_frame,
    apply,
    boost_transform,
    commutator,
    from_json,
    galilean_boost,
    hamiltonian,
    p_t,
    p_x,
    t_c,
    t_theta_l,
    t_theta_r,
    x_c,
    x_theta_l,
    x_theta_r,
)
from starqm.phasecalc import _slice_part, stationary_part
from starqm.star import StarKernel
from starqm.symbols import induced_inner_product
from oracles import dense_boost, partner_pairing


def square_box(n, theta, half):
    return GridSpec(n_t=n, n_x=n, t_min=-half, t_max=half, x_min=-half, x_max=half, theta=theta)


def plane_wave(spec, E, p):
    tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
    return Field2D(spec, np.exp(-1j * (E * tt - p * xx)))


def gaussian(spec, st=1.0, sx=1.0):
    tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
    return Field2D(spec, np.exp(-(tt**2) / (2 * st**2) - xx**2 / (2 * sx**2)))


def rel_err(got, want):
    scale = max(np.max(np.abs(got)), np.max(np.abs(want)), 1e-300)
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / scale


# Monomials t^a x^b d_t^c d_x^d of degree at most 2, and their coefficients.
MONOMIALS = st.tuples(*[st.integers(0, 2)] * 4).filter(lambda key: sum(key) <= 2)
# Steps of 1/64 keep every product clear of the subnormal range.
COEFFICIENTS = st.builds(complex, st.integers(-64, 64), st.integers(-64, 64)).map(lambda c: c / 64)


class TestSymbolAlgebra:
    def test_theta_zero_collapses_to_coordinates(self):
        assert x_theta_l(0.0).terms == {(0, 1, 0, 0): 1.0}
        assert t_theta_l(0.0).terms == {(1, 0, 0, 0): 1.0}

    def test_commuting_coordinates_are_averages(self):
        theta = 0.3
        left_right_avg = 0.5 * (x_theta_l(theta) + x_theta_r(theta))
        assert left_right_avg.terms == x_c(theta).terms
        left_right_avg = 0.5 * (t_theta_l(theta) + t_theta_r(theta))
        assert left_right_avg.terms == t_c(theta).terms

    def test_momentum_from_time_actions(self):
        # -i d_x expressed through the two time actions: -(1/theta)(T_L - T_R).
        theta = 0.4
        diff = (-1.0 / theta) * (t_theta_l(theta) - t_theta_r(theta))
        assert diff.terms == p_x().terms

    def test_boost_forms_agree(self):
        # m X_L - P_x T_c is m X_L - P_x T_L - (theta/2) P_x^2 term by term.
        m, theta = 1.7, 0.25
        full = (
            x_theta_l(theta) * m
            - p_x().compose(t_theta_l(theta))
            - (theta / 2) * p_x().compose(p_x())
        )
        assert full.terms == galilean_boost(m, theta).terms

    def test_non_finite_scalars_rejected(self):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            SymbolOperator(np.nan, {(0, 1, 0, 0): 1.0})
        with pytest.raises(ValueError, match="mass must be > 0"):
            hamiltonian(np.nan)
        with pytest.raises(ValueError, match="mass must be > 0"):
            galilean_boost(np.nan, 0.1)

    def test_theta_mixing_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            x_theta_l(0.1).compose(t_theta_l(0.2))

    def test_commutator_deformed_coordinates(self):
        # [X_L, T_L] = -i theta as symbols: the coordinate algebra, left-represented.
        theta = 0.35
        comm = commutator(x_theta_l(theta), t_theta_l(theta))
        assert comm.terms == {(0, 0, 0, 0): pytest.approx(-1j * theta)}

    def test_weyl_frame_conjugation_of_the_coordinates(self):
        theta = 0.3
        half = theta / 2
        assert _weyl_frame(x_theta_l(theta), theta).terms == {
            (0, 1, 0, 0): 1.0, (0, 0, 1, 0): -1j * half}
        assert _weyl_frame(t_theta_l(theta), theta).terms == {
            (1, 0, 0, 0): 1.0, (0, 0, 0, 1): 1j * half}
        assert _weyl_frame(x_c(theta), theta).terms == {(0, 1, 0, 0): 1.0}
        assert _weyl_frame(t_c(theta), theta).terms == {(1, 0, 0, 0): 1.0}

    def test_weyl_frame_reads_the_theta_it_is_given(self):
        # x^2 built at theta = 0 still acts on symbols damped at the grid's
        # theta: (x - (theta/2) d_x)^2 = x^2 - theta x d_x - theta/2 + (theta^2/4) d_x^2
        theta = 0.2
        x_sq = SymbolOperator(0.0, {(0, 2, 0, 0): 1.0})
        got = _weyl_frame(x_sq, theta)
        assert got.theta == 0.0
        assert got.terms == pytest.approx({
            (0, 2, 0, 0): 1.0, (0, 1, 0, 1): -theta, (0, 0, 0, 0): -theta / 2,
            (0, 0, 0, 2): theta**2 / 4})
        assert _weyl_frame(p_x(), theta).terms == p_x().terms

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.dictionaries(MONOMIALS, COEFFICIENTS, min_size=1, max_size=6),
        b=st.dictionaries(MONOMIALS, COEFFICIENTS, min_size=1, max_size=6),
        theta=st.floats(0.01, 1.0),
    )
    def test_weyl_frame_of_a_product_is_the_product_of_frames(self, a, b, theta):
        # The Weyl frame is a conjugation, W(AB) = W(A) W(B): the covariance
        # composes its anticommutator frames from the coordinate frames.
        A, B = SymbolOperator(theta, a), SymbolOperator(theta, b)
        product = _weyl_frame(A.compose(B), theta).terms
        composed = _weyl_frame(A, theta).compose(_weyl_frame(B, theta)).terms
        scale = max(map(abs, [*product.values(), *composed.values()]), default=0.0)
        for key in product.keys() | composed.keys():
            assert abs(product.get(key, 0.0) - composed.get(key, 0.0)) <= 1e-15 * scale

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.15, 0.2])
    def test_force_commutator_has_no_rounding_dx_term(self, theta):
        # [H, P_x] = i X_theta^L for V = x^2/2, whose Weyl frame is i x + (theta/2) d_t.
        # Cancelling the leading terms after summing each order left
        # 0.07499999999999998 i d_x at theta = 0.15, and the frame a 1.4e-17 d_x term.
        comm = commutator(hamiltonian(1.0, [0, 0, 0.5], theta), p_x())
        assert comm.terms[(0, 0, 0, 1)] == 1j * theta / 2
        assert _weyl_frame(comm, theta).terms == {(0, 1, 0, 0): 1j, (0, 0, 1, 0): theta / 2}

    def test_commutator_commuting_coordinates_vanishes(self):
        comm = commutator(t_c(0.5), x_c(0.5))
        assert comm.terms == {}

    def test_galilean_algebra_closes(self):
        m, theta = 1.3, 0.2
        G = galilean_boost(m, theta)
        H = hamiltonian(m, theta=theta)
        assert commutator(G, H).terms == {(0, 0, 0, 1): pytest.approx(1.0)}  # iP_x
        assert commutator(G, p_x()).terms == {(0, 0, 0, 0): pytest.approx(1j * m)}
        assert commutator(G, p_t()).terms == {(0, 0, 0, 1): pytest.approx(-1.0)}  # -iP_x

    @pytest.mark.parametrize(
        "op",
        [
            x_theta_l(0.3),
            x_theta_r(0.3),
            t_theta_l(0.3),
            t_theta_r(0.3),
            p_x(),
            p_t(),
            x_c(0.3),
            t_c(0.3),
            galilean_boost(1.3, 0.3),
            hamiltonian(2.0, [0, 1, 0.5], 0.1),
            commutator(galilean_boost(1.0, 0.3), p_t()),
        ],
        ids=[
            "x_theta_l", "x_theta_r", "t_theta_l", "t_theta_r", "p_x", "p_t",
            "x_c", "t_c", "boost_reduced", "hamiltonian", "composite",
        ],
    )
    def test_json_round_trip(self, op):
        assert from_json(op.to_json()) == op

    def test_params_are_json_floats(self):
        # numpy integer coefficients and masses end up in Python complex terms,
        # so the operators serialize and survive the round trip
        op = hamiltonian(np.int64(2), np.array([0, 0, 1]), 0.1)
        assert from_json(op.to_json()) == op
        plain = hamiltonian(np.int64(2), np.array([0, 0, 1]))
        assert plain.terms == {(0, 0, 0, 2): -0.25, (0, 2, 0, 0): 1.0}
        boost = galilean_boost(np.int64(2), 0.1)
        assert from_json(boost.to_json()) == boost

    @pytest.mark.parametrize("coef", [1j, 1.0 + 1e-3j, np.complex128(0.5j), np.nan, np.inf])
    def test_hamiltonian_rejects_non_real_coefficients(self, coef):
        # a complex potential breaks hermiticity, as Potential enforces too
        with pytest.raises(ValueError, match="must be real and finite"):
            hamiltonian(1.0, [0.0, coef], 0.1)

    def test_json_without_terms(self):
        with pytest.raises(ValueError, match="terms"):
            from_json('{"kind": "P_x", "theta": 0, "params": {}}')

    @pytest.mark.parametrize(
        "key, named",
        [("1,0", "(1, 0)"), ("-1,0,0,0", "(-1, 0, 0, 0)")],
        ids=["arity", "negative"],
    )
    def test_json_bad_term_key(self, key, named):
        text = f'{{"kind": "composite", "theta": 0.0, "params": {{}}, "terms": {{"{key}": [1.0, 0.0]}}}}'
        with pytest.raises(ValueError, match=re.escape(f"key {named} is not four non-negative ints")):
            from_json(text)

    @pytest.mark.parametrize(
        "key",
        [(1, 0), (-1, 0, 0, 0), (0, 1.0, 0, 0), "0,1,0,0"],
        ids=["arity", "negative", "float", "string"],
    )
    def test_bad_term_key(self, key):
        with pytest.raises(ValueError, match="not four non-negative ints"):
            SymbolOperator(0.0, {key: 1.0})

    def test_float_key_raises_after_its_int_twin(self):
        # (1.0, 0, 0, 0) hashes and compares equal to (1, 0, 0, 0), so a check
        # remembered per key value would pass the float once the int was built.
        SymbolOperator(0.0, {(1, 0, 0, 0): 1.0})
        with pytest.raises(ValueError, match=re.escape("key (1.0, 0, 0, 0) is not four")):
            SymbolOperator(0.0, {(1.0, 0, 0, 0): 1.0})


class TestApplyField2D:
    def test_momenta_on_plane_wave(self):
        spec = square_box(64, 0.2, np.pi)
        E, p = 1.0, 2.0  # grid modes of the 2 pi box
        wave = plane_wave(spec, E, p)
        assert rel_err(apply(p_x(), wave).values, p * wave.values) < 1e-12
        assert rel_err(apply(p_t(), wave).values, -E * wave.values) < 1e-12

    def test_deformed_position_worked_value(self):
        # theta=0.2, E=1, p=0: X_L = x + 0.1(d_x - i d_t) shifts the profile by -0.1.
        spec = square_box(64, 0.2, np.pi)
        wave = plane_wave(spec, 1.0, 0.0)
        got = apply(x_theta_l(0.2), wave)
        want = (spec.x[None, :] - 0.1) * wave.values
        assert rel_err(got.values, want) < 1e-12

    def test_theta_zero_is_plain_multiplication(self):
        spec = square_box(32, 0.0, 4.0)
        fld = gaussian(spec)
        got = apply(x_theta_l(0.0), fld)
        assert np.array_equal(got.values, spec.x[None, :] * fld.values)

    def test_commutator_comm_coordinates_on_gaussian(self):
        spec = square_box(64, 0.2, np.pi)
        fld = gaussian(spec, st=0.3, sx=0.3)
        resid = apply(commutator(t_c(0.2), x_c(0.2)), fld)
        assert np.max(np.abs(resid.values)) < 1e-9

    def test_commutator_deformed_on_gaussian(self):
        theta = 0.2
        spec = square_box(64, theta, np.pi)
        fld = gaussian(spec, st=0.3, sx=0.3)
        got = apply(commutator(x_theta_l(theta), t_theta_l(theta)), fld)
        assert rel_err(got.values, -1j * theta * fld.values) < 1e-12

    def test_galilean_algebra_on_band_limited_state(self):
        m, theta = 1.1, 0.2
        spec = square_box(64, theta, np.pi)
        rng = np.random.default_rng(7)
        fh = np.zeros((64, 64), dtype=complex)
        for a in range(-3, 4):
            for b in range(-3, 4):
                fh[a % 64, b % 64] = rng.standard_normal() + 1j * rng.standard_normal()
        psi = Field2D(spec, np.fft.ifft2(fh))
        scale = np.max(np.abs(psi.values))
        G, H = galilean_boost(m, theta), hamiltonian(m, theta=theta)
        pairs = [
            (apply(commutator(G, H), psi), apply(1j * p_x(), psi)),
            (apply(commutator(G, p_x()), psi), 1j * m * psi.values),
            (apply(commutator(G, p_t()), psi), apply(-1j * p_x(), psi)),
        ]
        for got, want in pairs:
            want_vals = want.values if isinstance(want, Field2D) else want
            assert np.max(np.abs(got.values - want_vals)) / scale < 1e-9

    def test_theta_halving_is_first_order(self):
        # X_theta - x is exactly linear in theta, so halving theta halves it.
        spec = square_box(256, 0.025, 5.0)
        fld = gaussian(spec, st=0.6, sx=0.6)
        x_part = spec.x[None, :] * fld.values
        errs = []
        for theta in (0.1, 0.05, 0.025):
            errs.append(np.max(np.abs(apply(x_theta_l(theta), fld).values - x_part)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=1e-6)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=1e-6)

    def test_reject_unknown_state(self):
        with pytest.raises(TypeError, match="apply"):
            apply(p_x(), np.ones((4, 4)))


class TestApplySlices:
    def test_energy_tag_required(self):
        spec = square_box(32, 0.1, 1.2)
        sl = Field1D(spec, 0.0, np.ones(32))
        with pytest.raises(ValueError, match="energy"):
            apply(t_theta_l(0.1), sl)

    @pytest.mark.parametrize(
        "make_op",
        [
            pytest.param(x_theta_l, id="X_theta_L"),
            pytest.param(t_theta_l, id="T_theta_L"),
            pytest.param(p_t, id="P_t"),
            pytest.param(lambda th: t_theta_l(th).compose(p_t(th)), id="T_theta_L.P_t"),
            pytest.param(lambda th: t_theta_l(th).compose(t_theta_l(th)), id="T_theta_L.T_theta_L"),
            pytest.param(lambda th: x_theta_l(th).compose(x_theta_l(th)), id="X_theta_L.X_theta_L"),
        ],
    )
    def test_stationary_reduction_matches_full_field(self, make_op):
        theta = 0.2
        spec = square_box(64, theta, np.pi)
        E, p = 1.0, 2.0
        wave = plane_wave(spec, E, p)
        op = make_op(theta)
        full = apply(op, wave)
        it = 5
        sl = Field1D(spec, spec.t[it], wave.values[it], metadata={"energy": E})
        lifted = apply(op, _slice_part(sl))
        assert rel_err(lifted.values_at(sl.t_slice), full.values[it]) < 1e-12
        if lifted.degree == 0:
            assert rel_err(apply(op, sl).values, full.values[it]) < 1e-12
        else:
            # A Field1D cannot carry the t-degree, so apply on the slice refuses.
            with pytest.raises(ValueError, match="t-polynomial of degree"):
                apply(op, sl)


class TestApplyPhasePoly:
    def test_time_operator_raises_degree(self):
        theta = 0.3
        spec = GridSpec(8, 64, 0.0, 0.5, -np.pi, np.pi, theta=theta)
        part = stationary_part(spec, 1.2, np.exp(1j * 2 * spec.x))
        out = apply(t_theta_l(theta), part)
        assert out.degree == 1
        # against the full-field action at a chosen slice
        t0 = 0.3
        d_t = -1j * 1.2
        want = (t0 + theta / 2 * (d_t + 1j * (1j * 2))) * part.values_at(t0)
        assert rel_err(out.values_at(t0), want) < 1e-12

    def test_self_adjoint_deformed_position(self):
        # (phi, X_L psi)_t == (X_L phi, psi)_t under the induced product,
        # including across distinct energies: by the partner sum on values,
        # and by the library on unframed slices of the same values.
        theta = 0.2
        spec = GridSpec(8, 128, 0.0, 0.5, -7.0, 7.0, theta=theta)
        p = spec.k_x
        dp = 2 * np.pi / 14.0

        def packet(E, center, width, shift):
            amps = np.exp(-((p - center) ** 2) / (2 * width**2) + 1j * shift * p)
            damp = np.exp(-theta / 4 * (E**2 + p**2))
            vals = (amps * damp) @ np.exp(1j * np.outer(p, spec.x)) * dp / np.sqrt(2 * np.pi)
            return stationary_part(spec, E, vals)

        X = x_theta_l(theta)
        for Eb, Ek in [(0.8, 0.8), (0.4, 1.3)]:
            bra = packet(Eb, 0.6, 1.4, 0.2)
            ket = packet(Ek, -0.3, 1.1, -0.4)
            lhs = partner_pairing(bra, 0.25)(apply(X, ket))
            rhs = partner_pairing(apply(X, bra), 0.25)(ket)
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8
            phi, psi = (Field1D(spec, 0.25, part.values_at(0.25), {"energy": -part.a})
                        for part in (bra, ket))
            lhs = induced_inner_product(StarKernel(theta), phi, apply(X, psi))
            rhs = induced_inner_product(StarKernel(theta), apply(X, phi), psi)
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8


class TestPhaseSpaceMap:
    def test_theta_zero_identity(self):
        assert np.array_equal(transform_matrix(0.0), np.eye(4))

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_unit_determinant(self, theta):
        assert np.linalg.det(transform_matrix(theta)) == pytest.approx(1.0, abs=1e-14)

    def test_vector_map(self):
        out = transform_matrix(0.4) @ np.array([1.0, 2.0, 3.0, 4.0])
        # X_c = X - (theta/2) P_t, T_c = T + (theta/2) P_x, momenta unchanged
        assert out == pytest.approx([1 - 0.2 * 4, 2 + 0.2 * 3, 3.0, 4.0])

    def test_matrix_congruence_preserves_determinant(self):
        theta = 0.4
        V = np.array([
            [theta / 2, 0.0, 0.0, 0.5],
            [0.0, theta / 2, -0.5, 0.0],
            [0.0, -0.5, 1 / theta, 0.0],
            [0.5, 0.0, 0.0, 1 / theta],
        ])
        M = transform_matrix(theta)
        out = M @ V @ M.T
        assert np.linalg.det(out) == pytest.approx(np.linalg.det(V), rel=1e-12)


class TestBoost:
    def mixed_waves(self, spec):
        waves = [plane_wave(spec, 1.0, 1.0), plane_wave(spec, 2.0, -1.0)]
        return waves, Field2D(spec, waves[0].values + 0.7 * waves[1].values)

    def generator_powers(self, psi, m, theta):
        """[G psi, G^2 psi, G^3 psi], each power composed before it is applied."""
        G = galilean_boost(m, theta)
        powers = [G, G.compose(G), G.compose(G).compose(G)]
        return [apply(op, psi).values for op in powers]

    def test_zero_velocity_identity(self):
        spec = square_box(32, 0.1, 1.2)
        fld = gaussian(spec, st=0.2, sx=0.2)
        out = boost_transform(fld, 0.0, 1.0)
        assert np.array_equal(out.values, fld.values)

    def test_plane_wave_commutative_limit(self):
        # theta = 0: the textbook e^{-imvx - imv^2 t/2} psi(t, x + vt), which
        # takes the on-shell wave (E, p) = (2, 2) to (p'^2/2m, p - mv).
        spec = square_box(64, 0.0, np.pi)
        E, p, v, m = 2.0, 2.0, 0.5, 1.0
        out = boost_transform(plane_wave(spec, E, p), v, m)
        tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
        want = np.exp(-1j * m * v * (xx + v * tt / 2)) * np.exp(-1j * (E * tt - p * (xx + v * tt)))
        assert rel_err(out.values, want) < 1e-12
        p_out = p - m * v
        on_shell = np.exp(-1j * (p_out**2 / (2 * m) * tt - p_out * xx))
        ratio = out.values / on_shell
        assert rel_err(ratio, ratio[0, 0]) < 1e-12
        assert abs(ratio[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert out.metadata["boost_growth"] == 0.0

    def test_deformation_phase_worked_value(self):
        # theta = 0.2, E = p = 1, v = 0.25, m = 1: the wave moves to
        # (E', p') = (0.78125, 0.75) and the Voros amplitude gains the factor
        # exp(0.041357421875 + 0.0221354166...i) over the theta = 0 boost.
        E, p, v, m, theta = 1.0, 1.0, 0.25, 1.0, 0.2
        flat = square_box(64, 0.0, np.pi)
        deformed = square_box(64, theta, np.pi)
        base = boost_transform(plane_wave(flat, E, p), v, m)
        bent = boost_transform(plane_wave(deformed, E, p), v, m)
        ratio = bent.values / base.values
        assert rel_err(ratio, np.exp(0.041357421875 + 0.022135416666666667j)) < 1e-12
        # the modulus is the ratio of the damping factors e^{-theta(E^2 + p^2)/4}
        E_out, p_out = E - v * p + m * v**2 / 2, p - m * v
        damping = np.exp(theta * (E**2 + p**2 - E_out**2 - p_out**2) / 4)
        assert np.max(np.abs(np.abs(ratio) - damping)) < 1e-12
        assert bent.metadata["boost_growth"] == pytest.approx(np.log(damping), rel=1e-12)

    def test_second_order_matches_generator(self):
        # theta = 0, v = 1e-3: 1 - ivG - v^2 G^2/2 misses e^{-ivG} by its
        # cubic term i v^3 G^3/6, to relative O(v).
        m, v = 1.0, 1e-3
        spec = square_box(64, 0.0, np.pi)
        _, mixed = self.mixed_waves(spec)
        g1, g2, g3 = self.generator_powers(mixed, m, 0.0)
        out = boost_transform(mixed, v, m).values
        second = mixed.values - 1j * v * g1 - v**2 / 2 * g2
        err = np.max(np.abs(out - second))
        assert err == pytest.approx(v**3 / 6 * np.max(np.abs(g3)), rel=0.01)

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.2])
    def test_third_order_matches_generator(self, theta):
        # The gap to 1 - ivG - v^2 G^2/2 + iv^3 G^3/6 is O(v^4): halving v
        # divides it by 16.
        m = 1.0
        spec = square_box(128, theta, np.pi)
        _, mixed = self.mixed_waves(spec)
        g1, g2, g3 = self.generator_powers(mixed, m, theta)

        def gap(v):
            third = mixed.values - 1j * v * g1 - v**2 / 2 * g2 + 1j * v**3 / 6 * g3
            return rel_err(boost_transform(mixed, v, m).values, third)

        g_big, g_small = gap(0.02), gap(0.01)
        assert g_small < 1e-6
        assert g_big / g_small == pytest.approx(16.0, rel=0.02)

    @pytest.mark.parametrize("v", [1e-3, 0.5, 5.0])
    def test_linear_superposition(self, v):
        # One map for every state: a superposition of plane waves boosts as
        # the superposition of the boosted waves, at any velocity.
        m, theta = 1.0, 0.2
        spec = square_box(64, theta, np.pi)
        waves, mixed = self.mixed_waves(spec)
        parts = [boost_transform(w, v, m).values for w in waves]
        out = boost_transform(mixed, v, m)
        assert rel_err(out.values, parts[0] + 0.7 * parts[1]) < 1e-12

    def test_group_law_and_inverse(self):
        m, theta = 1.3, 0.2
        spec = square_box(256, theta, 8.0)
        fld = gaussian(spec)
        twice = boost_transform(boost_transform(fld, 0.3, m), 0.2, m)
        assert rel_err(twice.values, boost_transform(fld, 0.5, m).values) < 1e-12
        back = boost_transform(boost_transform(fld, 0.3, m), -0.3, m)
        assert rel_err(back.values, fld.values) < 1e-12

    @pytest.mark.parametrize("n, half", [(16, 0.8), (32, 1.6)])
    @pytest.mark.parametrize("v, m", [(0.37, 1.3), (-1.1, 0.7), (2.5, 1.0)])
    def test_matches_dense_oracle(self, n, half, v, m):
        # Random modes |index| <= 3; k' = (k_t + v k_x - mv^2/2, k_x - mv)
        # is off the grid for each velocity.
        theta = 0.2
        spec = square_box(n, theta, half)
        rng = np.random.default_rng(n)
        fh = np.zeros((n, n), dtype=complex)
        for a in range(-3, 4):
            for b in range(-3, 4):
                fh[a % n, b % n] = rng.standard_normal() + 1j * rng.standard_normal()
        psi = Field2D(spec, np.fft.ifft2(fh))
        got = boost_transform(psi, v, m)
        want = dense_boost(psi.values, spec.t, spec.x, spec.k_t, spec.k_x, theta, v, m)
        assert rel_err(got.values, want) < 1e-13

    def test_shear_to_the_edge_is_flagged(self):
        # The shear x -> x + vt carries the Gaussian's tails at t = +-8 to
        # x = +-8v: decayed at v = 0.5, on the edge at v = 1.
        m, theta = 1.3, 0.2
        spec = square_box(256, theta, 8.0)
        fld = gaussian(spec)
        assert "edge_decay_warning" not in boost_transform(fld, 0.5, m).metadata
        warning = boost_transform(fld, 1.0, m).metadata["edge_decay_warning"]
        assert warning["axis"] == "x"
        assert warning["relative_edge_magnitude"] > EDGE_DECAY_TOL

    @pytest.mark.parametrize("v", [np.nan, np.inf])
    def test_rejects_non_finite_velocity(self, v):
        spec = square_box(64, 0.2, np.pi)
        with pytest.raises(ValueError, match="velocity v must be finite"):
            boost_transform(plane_wave(spec, 1.0, 1.0), v, 1.0)
