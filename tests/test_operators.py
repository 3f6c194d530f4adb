import numpy as np
import pytest

from starqm.fieldgrid import Field1D, Field2D, GridSpec
from starqm.moments import transform_matrix
from starqm.operators import (
    SymbolOperator,
    apply,
    boost_transform,
    commutator,
    commutator_apply,
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
from starqm.phasecalc import induced_product, stationary_part


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
        full = galilean_boost(1.7, 0.25, form="full")
        reduced = galilean_boost(1.7, 0.25, form="reduced")
        assert full.terms == reduced.terms

    def test_boost_rejects_bad_form(self):
        with pytest.raises(ValueError, match="form"):
            galilean_boost(1.0, 0.1, form="exact")

    def test_non_finite_scalars_rejected(self):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            SymbolOperator("composite", np.nan, {(0, 1, 0, 0): 1.0})
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
            galilean_boost(1.3, 0.3, "reduced"),
            galilean_boost(1.3, 0.3, "full"),
            hamiltonian(2.0, [0, 1, 0.5], 0.1),
            commutator(galilean_boost(1.0, 0.3), p_t()),
        ],
        ids=[
            "x_theta_l", "x_theta_r", "t_theta_l", "t_theta_r", "p_x", "p_t",
            "x_c", "t_c", "boost_reduced", "boost_full", "hamiltonian", "composite",
        ],
    )
    def test_json_round_trip(self, op):
        assert from_json(op.to_json()) == op

    def test_json_without_terms(self):
        with pytest.raises(ValueError, match="terms"):
            from_json('{"kind": "P_x", "theta": 0, "params": {}}')


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
        resid = commutator_apply(t_c(0.2), x_c(0.2), fld)
        assert np.max(np.abs(resid.values)) < 1e-9

    def test_commutator_deformed_on_gaussian(self):
        theta = 0.2
        spec = square_box(64, theta, np.pi)
        fld = gaussian(spec, st=0.3, sx=0.3)
        got = commutator_apply(x_theta_l(theta), t_theta_l(theta), fld)
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
            (commutator_apply(G, H, psi), apply(1j * p_x(), psi)),
            (commutator_apply(G, p_x(), psi), 1j * m * psi.values),
            (commutator_apply(G, p_t(), psi), apply(-1j * p_x(), psi)),
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
        reduced = apply(op, sl)
        assert rel_err(reduced.values, full.values[it]) < 1e-12


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
        # including across distinct energies.
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
            lhs = induced_product(bra, apply(X, ket), 0.25)
            rhs = induced_product(apply(X, bra), ket, 0.25)
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
    def test_zero_velocity_identity(self):
        spec = square_box(32, 0.1, 1.2)
        fld = gaussian(spec, st=0.2, sx=0.2)
        out = boost_transform(fld, 0.0, 1.0, 0.1)
        assert np.array_equal(out.values, fld.values)

    def test_plane_wave_commutative_limit(self):
        spec = square_box(64, 0.0, np.pi)
        E, p, v, m = 1.0, 2.0, 0.3, 1.5
        out = boost_transform(plane_wave(spec, E, p), v, m, 0.0)
        assert out.metadata["boost_mode"] == "exact_plane_wave"
        tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
        want = np.exp(-1j * m * v * (xx + v * tt)) * np.exp(-1j * (E * tt - p * (xx + v * tt)))
        assert rel_err(out.values, want) < 1e-12

    def test_deformation_phase_worked_value(self):
        # theta=0.2, p=1: the boosted wave gains e^{i v theta p^2 / 2} = e^{0.1 i v}.
        E, p, v, m = 1.0, 1.0, 0.25, 1.0
        flat = square_box(64, 0.0, np.pi)
        deformed = square_box(64, 0.2, np.pi)
        base = boost_transform(plane_wave(flat, E, p), v, m, 0.0)
        bent = boost_transform(plane_wave(deformed, E, p), v, m, 0.2)
        ratio = bent.values / base.values
        assert rel_err(ratio, np.exp(1j * v * 0.1)) < 1e-12

    def test_first_order_matches_exact_commutative(self):
        m, v = 1.0, 1e-3
        spec = square_box(64, 0.0, np.pi)
        waves = [plane_wave(spec, 1.0, 1.0), plane_wave(spec, 2.0, -1.0)]
        mixed = Field2D(spec, waves[0].values + 0.7 * waves[1].values)
        out = boost_transform(mixed, v, m, 0.0)
        assert out.metadata["boost_mode"] == "first_order"
        exact = (
            boost_transform(waves[0], v, m, 0.0).values
            + 0.7 * boost_transform(waves[1], v, m, 0.0).values
        )
        err = np.max(np.abs(out.values - exact)) / np.max(np.abs(exact))
        assert err < 10 * max(out.metadata["boost_truncation_estimate"], 1e-15)

    def test_first_order_deformed_gap_scales_with_v(self):
        # At theta > 0 the two sanctioned boost routes (closed-form product for
        # plane waves, 1 - ivG otherwise) differ at O(v.theta): the finite form
        # multiplies phases as commuting numbers.  Pin the gap's linear scaling
        # so any change to either route surfaces here.
        theta, m = 0.2, 1.0
        spec = square_box(64, theta, np.pi)
        waves = [plane_wave(spec, 1.0, 1.0), plane_wave(spec, 2.0, -1.0)]
        mixed = Field2D(spec, waves[0].values + 0.7 * waves[1].values)

        def gap(v):
            out = boost_transform(mixed, v, m, theta)
            exact = (
                boost_transform(waves[0], v, m, theta).values
                + 0.7 * boost_transform(waves[1], v, m, theta).values
            )
            return np.max(np.abs(out.values - exact)) / np.max(np.abs(exact))

        g1, g2 = gap(1e-3), gap(5e-4)
        assert 0.5e-4 < g1 < 5e-4  # O(v theta), far above the O(v^2) truncation
        assert g1 / g2 == pytest.approx(2.0, rel=0.05)

    def test_velocity_bound_enforced(self):
        spec = square_box(64, 0.2, np.pi)
        waves = plane_wave(spec, 1.0, 1.0).values + plane_wave(spec, 2.0, -1.0).values
        mixed = Field2D(spec, waves)
        with pytest.raises(ValueError, match="velocity too large"):
            boost_transform(mixed, 5.0, 1.0, 0.2)
