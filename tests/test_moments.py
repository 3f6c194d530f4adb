"""Moment checks: expectations, covariance, Williamson spectrum, evolution law."""

import importlib
import json
import math

import numpy as np
import pytest

from oracles import brute_force_star, partner_pairing
from starqm import dynamics, moments, operators, phasecalc, star, symbols
from starqm.dynamics import OscillatorParams, Potential
from starqm.fieldgrid import _PAIRING_MODE_CUTOFF, Field1D, Field2D, GridSpec, _drop_noise_modes
from starqm.moments import SymplecticForm, VarianceMatrix
from starqm.operators import SymbolOperator
from starqm.star import StarKernel, _star_compact
from starqm.symbols import CoherentPoint

THETA = 0.1


def eigenstate_grid(theta: float) -> GridSpec:
    return GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)


def ground_state(theta: float = THETA):
    spec = eigenstate_grid(theta)
    psi = dynamics.oscillator_eigenstate(OscillatorParams(1.0, 1.0, theta), 0, spec)
    return StarKernel(theta), psi


def displaced_packet(p0: float = 0.0):
    """Normalized t-independent Gaussian at x = 1 on a theta = 0 grid."""
    spec = GridSpec(8, 64, 0.0, 0.2, -12.0, 12.0, 0.0)
    vals = (1.0 / math.pi) ** 0.25 * np.exp(-((spec.x - 1.0) ** 2) / 2.0)
    vals = vals.astype(complex) * np.exp(1j * p0 * spec.x)
    return StarKernel(0.0), Field1D(spec, 0.0, vals, {})


def monomial(terms: dict, theta: float = THETA) -> SymbolOperator:
    return SymbolOperator(theta, terms)


def random_spd(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4))
    return a @ a.T + 4.0 * np.eye(4)


class TestVarianceMatrix:
    def test_symmetrizes_and_freezes(self):
        v = VarianceMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            v.values[0, 0] = 9.0

    def test_det_and_spreads(self):
        v = VarianceMatrix(np.diag([4.0, 1.0, 1.0, 1.0]))
        assert v.det == pytest.approx(4.0)
        assert v.spread("X") == pytest.approx(2.0)
        assert v.uncertainty("X", "T") == pytest.approx(2.0)
        with pytest.raises(ValueError, match="unknown label"):
            v.spread("Q")

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            VarianceMatrix(np.eye(3))
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="must be symmetric"):
            VarianceMatrix(bad)
        with pytest.raises(ValueError, match="negative diagonal"):
            VarianceMatrix(np.diag([1.0, 1.0, 1.0, -1e-6]))
        with pytest.raises(ValueError, match="finite"):
            VarianceMatrix(np.full((4, 4), np.nan))

    def test_json_round_trip(self):
        v = VarianceMatrix(np.eye(4) * 0.5, theta=0.3)
        blob = json.loads(v.to_json())
        assert blob["ordering"] == ["X", "T", "P_x", "P_t"]
        assert blob["theta"] == 0.3
        assert np.allclose(blob["values"], np.eye(4) * 0.5)


class TestSymplecticForm:
    def test_block_form_at_zero_theta(self):
        om = moments.symplectic_form(0.0)
        want = np.zeros((4, 4))
        want[0, 2] = want[1, 3] = 0.5
        want -= want.T
        assert np.allclose(om.values, want, atol=1e-15)

    def test_deformed_corner(self):
        om = moments.symplectic_form(0.7)
        assert om.values[0, 1] == pytest.approx(-0.35)
        assert om.values[1, 0] == pytest.approx(0.35)
        assert om.values[0, 2] == pytest.approx(0.5)

    def test_frame_map_takes_deformed_form_to_canonical(self):
        theta = 0.1
        m = moments.transform_matrix(theta)
        mapped = m @ moments.symplectic_form(theta).values @ m.T
        assert np.allclose(mapped, moments.symplectic_form(0.0).values, atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            moments.symplectic_form(-0.1)
        with pytest.raises(ValueError, match="antisymmetric"):
            SymplecticForm(np.eye(4))


# The ground-state moments checked below do not depend on theta; the larger
# values put large Voros weights on the slice's high x-modes.
GROUND_THETAS = [0.1, 0.4, 0.5]


class TestExpectation:
    @pytest.mark.parametrize("theta", GROUND_THETAS)
    def test_ground_state_space_moments(self, theta):
        kernel, psi = ground_state(theta)
        x_op = operators.x_theta_l(theta)
        assert abs(moments.expectation(x_op, psi, kernel)) < 1e-12
        second = moments.expectation(x_op.compose(x_op), psi, kernel)
        # <X^2> = (n + 1/2)/(m omega) on the ground level
        assert second.real == pytest.approx(0.5, rel=1e-10)
        assert abs(second.imag) < 1e-12

    def test_ground_state_time_moments_follow_the_slice(self):
        kernel, psi = ground_state()
        t_op = operators.t_theta_l(THETA)
        t_sq = t_op.compose(t_op)
        assert abs(moments.expectation(t_op, psi, kernel, t=0.0)) < 1e-12
        assert moments.expectation(t_op, psi, kernel, t=0.1).real == pytest.approx(0.1)
        # Var T = theta/2 + theta^2 E^2 / 2 + theta^2/(4 m omega) holds at
        # every slice time: 0.05 + 0.00125 + 0.0025 + 0.00125 = 0.055
        assert moments.expectation(t_sq, psi, kernel, t=0.0).real == pytest.approx(0.055)
        shifted = moments.expectation(t_sq, psi, kernel, t=0.1).real
        assert shifted - 0.1**2 == pytest.approx(0.055)

    @pytest.mark.parametrize("theta", GROUND_THETAS)
    def test_ground_state_momentum_and_energy(self, theta):
        kernel, psi = ground_state(theta)
        p = operators.p_x()
        pt = operators.p_t()
        assert moments.expectation(p.compose(p), psi, kernel).real == pytest.approx(0.5)
        assert moments.expectation(pt, psi, kernel).real == pytest.approx(-0.5)
        assert moments.expectation(pt.compose(pt), psi, kernel).real == pytest.approx(0.25)
        x_op = operators.x_theta_l(theta)
        h = operators.hamiltonian(1.0, None, theta) + x_op.compose(x_op) * 0.5
        assert moments.expectation(h, psi, kernel).real == pytest.approx(0.5, rel=1e-10)
        # The oscillator's polynomial loop composes the same terms.
        harmonic = operators.hamiltonian(1.0, Potential.harmonic(1.0, 1.0).coeffs, theta)
        assert harmonic.terms == h.terms

    @pytest.mark.parametrize("theta", [0.1, 0.2])
    def test_hamiltonian_generates_the_oscillator_levels(self, theta):
        """<H_theta> on closed-form level n is n + 1/2 because the potential
        acts through X_theta^L; plain x^2 read 2.51875 on level 2 at theta = 0.2."""
        kernel = StarKernel(theta)
        osc = OscillatorParams(1.0, 1.0, theta)
        h = operators.hamiltonian(1.0, [0, 0, 0.5], theta)
        for n in range(3):
            psi = dynamics.oscillator_eigenstate(osc, n, eigenstate_grid(theta))
            assert abs(moments.expectation(h, psi, kernel) - (n + 0.5)) < 1e-12
        # At theta = 0 the powers of X_theta^L are the plain x^j.
        assert operators.hamiltonian(1.0, [0, 0, 0.5]).terms == {(0, 0, 0, 2): -0.5, (0, 2, 0, 0): 0.5}

    def test_plain_multiplication_sees_the_displaced_density(self):
        # left-multiplication by x alone picks up the center theta E / 2
        kernel, psi = ground_state()
        got = moments.expectation(monomial({(0, 1, 0, 0): 1.0}), psi, kernel)
        assert got.real == pytest.approx(THETA * 0.5 / 2.0, rel=1e-8)

    def test_commutator_is_a_c_number(self):
        kernel, psi = ground_state()
        comm = operators.commutator(
            operators.x_theta_l(THETA), operators.t_theta_l(THETA)
        )
        assert comm.terms == {(0, 0, 0, 0): pytest.approx(-1j * THETA)}
        got = moments.expectation(comm, psi, kernel)
        assert got == pytest.approx(-1j * THETA, abs=1e-12)

    def test_identity_on_every_branch(self):
        one = monomial({(0, 0, 0, 0): 1.0})
        kernel, psi = ground_state()
        assert moments.expectation(one, psi, kernel) == pytest.approx(1.0, abs=1e-12)
        s = math.sqrt(THETA)
        spec = GridSpec(128, 128, -8 * s, 8 * s, -8 * s, 8 * s, THETA)
        coh = symbols.coherent_symbol(CoherentPoint(0.0, 0.0, THETA), spec)
        assert moments.expectation(one, coh, kernel) == pytest.approx(1.0, abs=1e-10)

    def test_fixed_line_pairing_matches_slice_values(self):
        kernel, psi = displaced_packet(p0=0.5)
        f2d = Field2D(psi.spec, np.broadcast_to(psi.values, (8, 64)).copy())
        x_op = operators.x_theta_l(0.0)
        assert moments.expectation(x_op, f2d, kernel, t=0.0).real == pytest.approx(1.0)
        got = moments.expectation(operators.p_x(), f2d, kernel, t=0.0)
        assert got.real == pytest.approx(0.5)
        assert abs(got.imag) < 1e-12

    def test_untagged_slice_works_only_without_time_structure(self):
        kernel, psi = displaced_packet(p0=0.5)
        assert moments.expectation(operators.x_theta_l(0.0), psi, kernel).real == pytest.approx(1.0)
        assert moments.expectation(operators.p_x(), psi, kernel).real == pytest.approx(0.5)
        with pytest.raises(ValueError, match="missing temporal information"):
            moments.expectation(operators.p_t(), psi, kernel)

    def test_deformed_untagged_slice_is_rejected(self):
        kernel, psi = ground_state()
        bare = Field1D(psi.spec, psi.t_slice, psi.values, {})
        with pytest.raises(ValueError, match="missing temporal information"):
            moments.expectation(operators.x_theta_l(THETA), bare, kernel)

    def test_apply_and_expectation_share_the_untagged_slice_rule(self):
        # theta = 0 and no d_t factor: apply lifts the untagged slice as
        # expectation does; p_t, or any untagged slice at theta > 0, still
        # lacks the temporal information.
        kernel, psi = displaced_packet(p0=0.5)
        moved = operators.apply(operators.p_x(), psi)
        got = symbols.induced_inner_product(kernel, psi, moved)
        assert got == pytest.approx(moments.expectation(operators.p_x(), psi, kernel), abs=1e-12)
        assert got.real == pytest.approx(0.5)
        with pytest.raises(ValueError, match="missing temporal information"):
            operators.apply(operators.p_t(), psi)
        _, ground = ground_state()
        bare = Field1D(ground.spec, ground.t_slice, ground.values, {})
        with pytest.raises(ValueError, match="missing temporal information"):
            operators.apply(operators.p_x(), bare)

    def test_apply_multiplies_by_the_physical_slice_time(self):
        # An evolved snapshot keeps its launch label t_slice = 0; apply and
        # expectation both read t at t_slice + metadata['elapsed'] = 0.01.
        kernel, psi = ground_state()
        snap = dynamics.evolve(psi, Potential.harmonic(1.0, 1.0), kernel, 1.0, 2e-4, 50,
                               record_every=50)[-1]
        t_op = operators.t_c(THETA)
        want = moments.expectation(t_op, snap, kernel)
        assert want.real == pytest.approx(0.01, rel=1e-10)
        # A slice read back as stationary would drop the d_t of the t-factor,
        # so apply refuses the Field1D and points to the exact routes.
        with pytest.raises(ValueError, match="degree 1.*moments.expectation.*PhasePoly"):
            operators.apply(t_op, snap)
        t = phasecalc._slice_time(snap)
        part = phasecalc._slice_part(snap, t)
        got = partner_pairing(part, t)(operators.apply(t_op, part))
        assert got.real == pytest.approx(want.real, rel=1e-10)
        assert abs(got.imag) < 1e-12

    def test_slice_batch_prepares_the_bra_once(self, monkeypatch):
        # The slice is an unframed copy, so its frame is grown once from its
        # values: 1 transform.  In the Weyl frame x becomes x - (theta/2) d_x
        # (1 transform for its d_x) and t becomes t - (theta/2) d_t, so the
        # last operator has 4 terms with a d_x factor (4 transforms).  The
        # norm, x and P_t are degree 0 at the slice's own energy and pair in
        # x-space; t and the last operator are degree 1, so the bra is
        # transformed once (1) and each of them once (2).  9 in all.
        kernel, framed = ground_state()
        psi = Field1D(framed.spec, framed.t_slice, framed.values, dict(framed.metadata))
        ops = [
            monomial({(0, 1, 0, 0): 1.0}),
            monomial({(1, 0, 0, 0): 1.0}),
            operators.p_t(),
            monomial({(1, 2, 1, 0): 0.5, (0, 0, 0, 0): 2.0}),
        ]
        want = [moments.expectation(op, psi, kernel) for op in ops]
        calls = {"conj": 0, "fft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "conj", counted("conj", np.conj))
        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        got = moments._expectations(ops, psi, kernel)
        assert calls == {"conj": 1, "fft": 1 + 1 + 4 + 1 + 2}
        assert got == want

    def test_framed_slice_batch_transforms_the_bra_at_most_once(self, monkeypatch):
        # In the Weyl frame no operator here has a d_x factor (t becomes
        # t - (theta/2) d_t), so every transform is the frame pairing's: the
        # bra once, and one per ket of degree > 0.  The norm and P_t are
        # degree 0 at the slice's own energy and pair in x-space.
        kernel, psi = ground_state()
        t_op = monomial({(1, 0, 0, 0): 1.0})
        ops = [t_op, operators.p_t(), t_op.compose(t_op), t_op.compose(operators.p_t())]
        want = [moments.expectation(op, psi, kernel) for op in ops]
        calls = {"conj": 0, "fft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "conj", counted("conj", np.conj))
        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        got = moments._expectations(ops, psi, kernel)
        assert calls == {"conj": 1, "fft": 1 + 3}
        assert got == want
        assert got[1] == pytest.approx(-0.5, abs=1e-14)  # P_t = -i d_t reads -E

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.4, 0.5])
    def test_squared_generator_reads_the_squared_level_energy(self, theta):
        # H_theta psi_n = E_n psi_n, so <H_theta^2> = E_n^2.  The framed
        # slice pairs the conjugated operator without growth weights.
        kernel, spec = StarKernel(theta), eigenstate_grid(theta)
        h = operators.hamiltonian(1.0, [0.0, 0.0, 0.5], theta)
        for n in range(4):
            psi = dynamics.oscillator_eigenstate(OscillatorParams(1.0, 1.0, theta), n, spec)
            energy = n + 0.5
            assert abs(moments.expectation(h.compose(h), psi, kernel) - energy**2) <= 1e-13 * energy**2

    def test_rejects_unnormalized_state(self):
        kernel, psi = ground_state()
        scaled = Field1D(psi.spec, psi.t_slice, 1.1 * psi.values, dict(psi.metadata))
        with pytest.raises(ValueError, match="not normalized"):
            moments.expectation(operators.x_theta_l(THETA), scaled, kernel)

    def test_rejects_operators_built_at_another_theta(self):
        """An operator carries its own theta; only 0 and the grid's are admitted."""
        kernel, psi = ground_state(0.2)
        assert abs(moments.expectation(operators.x_theta_l(0.2), psi, kernel)) < 1e-12
        for theta in (0.05, 7.0):
            op = operators.x_theta_l(theta)
            with pytest.raises(ValueError, match="operator theta"):
                moments.expectation(op, psi, kernel)
            with pytest.raises(ValueError, match="operator theta"):
                moments.uncertainty_product(op, operators.p_x(), psi, kernel)
            with pytest.raises(ValueError, match="operator theta"):
                moments.robertson_schrodinger_check(op, operators.p_t(), psi, kernel)

    def test_rejects_wrong_kernel_or_types(self):
        kernel, psi = ground_state()
        with pytest.raises(ValueError, match="Voros"):
            moments.expectation(
                operators.p_x(), psi, StarKernel(THETA, flavor="moyal")
            )
        with pytest.raises(ValueError, match="does not match grid theta"):
            moments.expectation(operators.p_x(), psi, StarKernel(0.2))
        with pytest.raises(TypeError, match="SymbolOperator"):
            moments.expectation("P_x", psi, kernel)
        with pytest.raises(TypeError, match="Field1D or Field2D"):
            moments.expectation(operators.p_x(), psi.values, kernel)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.0625, 0.1, 0.2, 0.4])
def test_unframed_slices_pair_as_the_partner_sum(theta, level):
    """Bare-value copies of the eigenstates carry no frame, so the library
    grows one from their values.  Their norm, a cross pair with the next
    level, and seven expectations match the partner sum on the values to
    1e-13 of the unit norm (measured: 1.5e-15)."""
    spec = eigenstate_grid(theta)
    osc = OscillatorParams(1.0, 1.0, theta)
    kernel = StarKernel(theta)
    bra, ket = (
        Field1D(spec, s.t_slice, s.values, dict(s.metadata))
        for s in (dynamics.oscillator_eigenstate(osc, n, spec) for n in (level, (level + 1) % 4))
    )
    x_op, t_op = operators.x_theta_l(theta), operators.t_theta_l(theta)
    ops = [x_op, t_op, operators.p_x(), operators.p_t(),
           operators.hamiltonian(1.0, Potential.harmonic(1.0, 1.0).coeffs, theta),
           t_op.compose(operators.p_t()), x_op.compose(x_op)]
    got = [symbols.induced_inner_product(kernel, bra, bra),
           symbols.induced_inner_product(kernel, bra, ket),
           *moments._expectations(ops, bra, kernel)]
    part = phasecalc._slice_part(bra)
    pair = partner_pairing(part, bra.t_slice)
    norm = pair(part)
    want = [norm, pair(phasecalc._slice_part(ket)),
            *(pair(operators.apply(op, part)) / norm for op in ops)]
    assert bra.frame is None and ket.frame is None
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


class TestUncertaintyProduct:
    @pytest.mark.parametrize("theta", GROUND_THETAS)
    def test_saturates_position_momentum_on_the_ground_state(self, theta):
        kernel, psi = ground_state(theta)
        got = moments.uncertainty_product(
            operators.x_theta_l(theta), operators.p_x(), psi, kernel
        )
        assert got == pytest.approx(0.5, rel=1e-10)

    def test_space_time_product_exceeds_the_deformed_bound(self):
        kernel, psi = ground_state()
        got = moments.uncertainty_product(
            operators.x_theta_l(THETA), operators.t_theta_l(THETA), psi, kernel, t=0.0
        )
        # sqrt(0.5 * 0.055) = 0.05 sqrt(11), comfortably above theta/2
        assert got == pytest.approx(0.05 * math.sqrt(11.0), rel=1e-10)
        assert got > THETA / 2.0

    def test_coherent_element_saturates_the_deformed_bound(self):
        kernel = StarKernel(THETA)
        s = math.sqrt(THETA)
        spec = GridSpec(128, 128, -8 * s, 8 * s, -8 * s, 8 * s, THETA)
        coh = symbols.coherent_symbol(CoherentPoint(0.0, 0.0, THETA), spec)
        got = moments.uncertainty_product(
            operators.x_theta_l(THETA), operators.t_theta_l(THETA), coh, kernel
        )
        assert got == pytest.approx(THETA / 2.0, rel=1e-5)

    @pytest.mark.parametrize(
        "shift, message",
        [(1e-3j, "carry imaginary residues"), (1.0, "lost positivity")],
        ids=["imaginary-residue", "negative-variance"],
    )
    def test_broken_moments_raise(self, shift, message, monkeypatch):
        """A residue on <X>, or <X> pushed up by 1 so that <X^2> - <X>^2 < 0,
        is reported rather than folded into a spread."""
        kernel, psi = ground_state()
        pair = moments._expectations

        def shifted(ops, *args, **kwargs):
            values = pair(ops, *args, **kwargs)
            return [values[0] + shift, *values[1:]]

        monkeypatch.setattr(moments, "_expectations", shifted)
        with pytest.raises(ValueError, match=message):
            moments.uncertainty_product(operators.x_theta_l(THETA), operators.p_x(), psi, kernel)


class TestCoherentVarianceMatrix:
    def test_closed_form_and_cross_check(self):
        v = moments.coherent_variance_matrix(THETA)
        want = np.diag([0.05, 0.05, 10.0, 10.0])
        want[0, 3] = want[3, 0] = 0.5
        want[1, 2] = want[2, 1] = -0.5
        assert np.allclose(v.values, want, atol=1e-14)
        assert v.theta == THETA
        assert v.metadata["cross_check_max_abs"] <= 1e-12 * np.max(np.abs(want))

    def test_determinant_is_theta_independent(self):
        for theta in (0.1, 0.4):
            v = moments.coherent_variance_matrix(theta)
            assert v.det == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_cross_check_on_a_coarse_grid_and_at_small_theta(self):
        s = math.sqrt(THETA)
        coarse = moments.coherent_variance_matrix(
            THETA, spec=GridSpec(64, 64, -8 * s, 8 * s, -8 * s, 8 * s, THETA)
        )
        assert coarse.metadata["cross_check_max_abs"] <= 1e-12 * np.max(np.abs(coarse.values))
        small = moments.coherent_variance_matrix(0.05)
        assert small.values[0, 0] == pytest.approx(0.025)
        assert small.metadata["cross_check_max_abs"] <= 1e-12 * np.max(np.abs(small.values))

    def test_a_numeric_matrix_off_the_closed_form_raises(self, monkeypatch):
        """<{P_t, P_t}> moved by 1e-3 moves V[P_t, P_t] by 5e-4, past the 1e-11 cross-check."""
        pair = moments._expectations

        def perturbed(ops, *args, **kwargs):
            values = pair(ops, *args, **kwargs)
            return [*values[:-1], values[-1] + 1e-3]

        monkeypatch.setattr(moments, "_expectations", perturbed)
        with pytest.raises(ValueError, match="numerical covariance disagrees"):
            moments.coherent_variance_matrix(THETA)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="theta > 0"):
            moments.coherent_variance_matrix(0.0)
        spec = GridSpec(128, 128, -2.0, 2.0, -2.0, 2.0, 0.2)
        with pytest.raises(ValueError, match="does not match theta"):
            moments.coherent_variance_matrix(0.1, spec=spec)


def coherent_box(theta: float) -> GridSpec:
    """The 128^2 box of reach 8 sqrt(theta) that coherent_variance_matrix uses."""
    s = math.sqrt(theta)
    return GridSpec(128, 128, -8 * s, 8 * s, -8 * s, 8 * s, theta)


def covariance_ops(theta: float) -> list[SymbolOperator]:
    """(X, T, P_x, P_t) and their ten anticommutators, as coherent_variance_matrix pairs them."""
    zs = [operators.x_theta_l(theta), operators.t_theta_l(theta), operators.p_x(), operators.p_t()]
    return zs + [zs[i].compose(zs[j]) + zs[j].compose(zs[i]) for i in range(4) for j in range(i, 4)]


def covariance_kets(theta: float, centre: tuple[float, float]) -> tuple[Field2D, list[Field2D]]:
    """A coherent symbol centred at centre * sqrt(theta) on coherent_box, and its 15 kets.

    The kets are the state itself and each covariance operator applied to it:
    every pairing coherent_variance_matrix makes.
    """
    s = math.sqrt(theta)
    psi = symbols.coherent_symbol(
        CoherentPoint(centre[0] * s, centre[1] * s, theta), coherent_box(theta)
    )
    return psi, [psi] + [operators.apply(op, psi) for op in covariance_ops(theta)]


def line_normalized(psi: Field2D, t: float) -> Field2D:
    """psi scaled to unit induced norm on the grid line t."""
    norm = symbols.induced_inner_product(StarKernel(psi.spec.theta), psi, psi, t=t).real
    return Field2D(psi.spec, psi.values / math.sqrt(norm))


def engine_product(theta: float, bra: Field2D, ket: Field2D) -> np.ndarray:
    """conj(bra) * ket from the compact star engine, both inputs cut at the pairing cutoff."""
    fh, _ = _drop_noise_modes(np.fft.fft2(np.conj(bra.values)), _PAIRING_MODE_CUTOFF)
    gh, _ = _drop_noise_modes(np.fft.fft2(ket.values), _PAIRING_MODE_CUTOFF)
    return _star_compact(fh, gh, bra.spec, theta, True)[0]


def random_modes(spec: GridSpec, rng: np.random.Generator, band: int | None) -> Field2D:
    """Complex white noise, or noise on the signed mode indices |k| <= band of each axis."""
    fh = rng.standard_normal((spec.n_t, spec.n_x)) + 1j * rng.standard_normal((spec.n_t, spec.n_x))
    if band is not None:
        fh[np.abs(np.fft.fftfreq(spec.n_t, 1.0 / spec.n_t)) > band, :] = 0.0
        fh[:, np.abs(np.fft.fftfreq(spec.n_x, 1.0 / spec.n_x)) > band] = 0.0
    return Field2D(spec, np.fft.ifft2(fh))


@pytest.mark.filterwarnings("error")
class TestPlanePairing:
    """The whole-plane partner sum against the integral of an explicit star product.

    Warnings are errors here, so an overflow in the Voros weight fails.
    """

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.3, -0.5)])
    def test_matches_the_engine_on_covariance_operators(self, theta, centre):
        psi, kets = covariance_kets(theta, centre)
        spec = psi.spec
        pair = symbols._pairing(theta, psi)
        got = np.array([pair(ket) for ket in kets])
        want = np.array(
            [np.sum(engine_product(theta, psi, ket)) * spec.dt * spec.dx for ket in kets]
        )
        # entries that vanish in closed form sit at rounding level, so the
        # gap is measured against the state's largest pairing
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("band", [4, None])
    def test_matches_the_brute_force_oracle(self, theta, band):
        # band=None populates every mode, the Nyquist lines included, whose
        # partner is the mode itself
        n = 32
        half = 4 * math.sqrt(theta)
        spec = GridSpec(n, n, -half, half, -half, half, theta)
        rng = np.random.default_rng(7)
        f, g = random_modes(spec, rng, band), random_modes(spec, rng, band)
        got = symbols._pairing(theta, f)(g)
        prod = brute_force_star(np.conj(f.values), g.values, spec.k_t, spec.k_x, theta)
        want = np.sum(prod) * spec.dt * spec.dx
        scale = np.sum(np.abs(prod)) * spec.dt * spec.dx
        assert abs(got - want) <= 1e-13 * scale

    def test_overflowing_weight_raises(self):
        # spacing sqrt(theta)/32 puts the corner modes at weight ~e^{1e4}
        theta = 0.1
        half = math.sqrt(theta) / 4
        spec = GridSpec(16, 16, -half, half, -half, half, theta)
        rng = np.random.default_rng(3)
        f = Field2D(spec, rng.standard_normal((16, 16)) + 0j)
        # over the plane and on a grid line alike
        for t in (None, float(spec.t[5])):
            with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="overflowed"):
                symbols._pairing(theta, f, t)(f)
            # and through a batch, whose norm pairing overflows first
            with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="overflowed"):
                moments.expectation(operators.p_x(), f, StarKernel(theta), t=t)

    def test_far_off_centre_state_is_still_rejected(self):
        # centred at (2, -2) sqrt(theta) the pairing norm reads ~7.5e113 with
        # an imaginary residue; the partner sum must report it, not return it.
        # The copy drops the frame, so the plane pairing takes the partner sum.
        s = math.sqrt(THETA)
        psi = symbols.coherent_symbol(
            CoherentPoint(2 * s, -2 * s, THETA), coherent_box(THETA)
        )
        with pytest.raises(ValueError, match="imaginary residue"):
            moments.expectation(operators.p_x(), Field2D(psi.spec, psi.values), StarKernel(THETA))

    def test_far_off_centre_framed_state_returns_the_closed_form(self):
        # the same state with its frame pairs as a bounded sum: <P_x> = 0, <X> = x0
        s = math.sqrt(THETA)
        psi = symbols.coherent_symbol(
            CoherentPoint(2 * s, -2 * s, THETA), coherent_box(THETA)
        )
        kernel = StarKernel(THETA)
        assert abs(moments.expectation(operators.p_x(), psi, kernel)) <= 1e-12 / s
        assert moments.expectation(operators.x_theta_l(THETA), psi, kernel) == pytest.approx(
            -2 * s, rel=1e-12
        )

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.3, -0.5)])
    def test_batch_is_the_unbatched_sum(self, theta, centre):
        # The batch prepares the bra once and shares derivatives between
        # operators; each entry must still be its own one-shot pairing, over
        # the plane and on a grid line alike.
        framed, _ = covariance_kets(theta, centre)
        # without its frame the plane pairing is the partner sum, as here
        plane_psi = Field2D(framed.spec, framed.values)
        ops = covariance_ops(theta)
        for t in (None, 0.0):
            # the symbol has unit norm over the plane, not on a line
            psi = line_normalized(plane_psi, t) if t is not None else plane_psi
            got = np.array(moments._expectations(ops, psi, StarKernel(theta), t))
            norm = symbols._pairing(theta, psi, t)(psi).real
            want = np.array(
                [symbols._pairing(theta, psi, t)(operators.apply(op, psi)) / norm for op in ops]
            )
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.3, -0.5), (1.0, 0.0)])
    def test_framed_batch_is_the_frame_pairing_and_the_partner_sum(self, theta, centre):
        # The framed batch must be each operator's one-shot frame pairing, and
        # agree with the partner sum of the same symbol.  x, x^2 and tx are
        # built at theta = 0: the frame reads them at the grid's theta.
        psi, _ = covariance_kets(theta, centre)
        spec = psi.spec
        plain = [SymbolOperator(0.0, {key: 1.0}) for key in ((0, 1, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0))]
        ops = covariance_ops(theta) + plain
        got = np.array(moments._expectations(ops, psi, StarKernel(theta)))

        phi = Field2D(spec, psi.frame)
        area = spec.dt * spec.dx
        norm = np.vdot(phi.values, phi.values).real * area
        one_shot = np.array([
            np.vdot(phi.values, operators.apply(operators._weyl_frame(op, theta), phi).values)
            * area / norm
            for op in ops
        ])
        assert np.max(np.abs(got - one_shot)) <= 1e-15 * np.max(np.abs(one_shot))

        pair = symbols._pairing(theta, psi)
        partner = np.array([pair(operators.apply(op, psi)) for op in ops]) / pair(psi).real
        assert np.max(np.abs(got - partner)) <= 1e-8 * np.max(np.abs(partner))

    def test_off_centre_batch_is_quiet(self):
        # Centred at (1, 0) sqrt(theta) the quasi-projection reads garbage
        # (ROADMAP item 7); the plane pairings must neither warn nor drift.
        s = math.sqrt(THETA)
        psi = symbols.coherent_symbol(CoherentPoint(s, 0.0, THETA), coherent_box(THETA))
        means = moments._expectations(covariance_ops(THETA)[:4], psi, StarKernel(THETA))
        assert np.allclose(means, [0.0, s, 0.0, 0.0], rtol=0.0, atol=1e-12)


class TestTranslationInvariance:
    """A displaced coherent element: the same covariance, moved means.

    Its frame pairs over the whole plane without Voros growth, so an
    off-centre state the partner sum cannot pair (see
    test_far_off_centre_state_is_still_rejected) reads its closed form as
    the centred one does.
    """

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("centre", [(0.0, 0.0), (1.5, 0.7), (2.0, -2.0)])
    def test_moments_follow_the_centre(self, theta, centre):
        psi, _ = covariance_kets(theta, centre)
        values = np.array(moments._expectations(covariance_ops(theta), psi, StarKernel(theta)))
        closed = moments.coherent_variance_matrix(theta).values
        spreads = np.sqrt(np.diag(closed))
        s = math.sqrt(theta)
        # (X, T, P_x, P_t) at a centre (t0, x0) sqrt(theta)
        want = np.array([centre[1] * s, centre[0] * s, 0.0, 0.0])
        means = values[:4]
        assert np.all(np.abs(means - want) <= 1e-12 * spreads)
        central = np.zeros((4, 4))
        upper = [(i, j) for i in range(4) for j in range(i, 4)]
        for (i, j), anti in zip(upper, values[4:]):
            central[i, j] = central[j, i] = 0.5 * anti.real - means[i].real * means[j].real
        assert np.max(np.abs(values.imag)) <= 1e-12 * np.max(np.abs(closed))
        assert np.max(np.abs(central - closed)) <= 1e-12 * np.max(np.abs(closed))


@pytest.mark.filterwarnings("error")
class TestLinePairing:
    """The fixed-t partner sum against the row sums of an explicit star product."""

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("band", [4, None])
    def test_matches_the_brute_force_oracle(self, theta, band):
        # band=None reaches the Nyquist lines, where the x-partner of a mode
        # is the mode itself and the t-rows couple to every other row
        n = 32
        half = 4 * math.sqrt(theta)
        spec = GridSpec(n, n, -half, half, -half, half, theta)
        rng = np.random.default_rng(11)
        f, g = random_modes(spec, rng, band), random_modes(spec, rng, band)
        prod = brute_force_star(
            np.conj(f.values), g.values, spec.k_t, spec.k_x, theta, cutoff=_PAIRING_MODE_CUTOFF
        )
        for i in (0, 5, 16, 31):
            got = symbols._pairing(theta, f, float(spec.t[i]))(g)
            want = np.sum(prod[i]) * spec.dx
            assert abs(got - want) <= 1e-13 * np.sum(np.abs(prod[i])) * spec.dx

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.3, -0.5), (1.0, 0.0)])
    def test_matches_the_engine_on_covariance_operators(self, theta, centre):
        psi, kets = covariance_kets(theta, centre)
        spec = psi.spec
        rows = (40, 64, 90)
        got = np.array(
            [[symbols._pairing(theta, psi, float(spec.t[i]))(ket) for i in rows] for ket in kets]
        )
        want = np.array(
            [engine_product(theta, psi, ket)[rows, :].sum(axis=1) * spec.dx for ket in kets]
        )
        # At (1, 0) sqrt(theta) the engine's own rounding under the Voros
        # growth reaches 4e-13 of the largest pairing (measured against
        # brute_force_star at theta = 0.2), so the reference is not sharper.
        bound = 1e-12 if centre == (1.0, 0.0) else 1e-13
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_no_pairing_builds_a_star_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pairing built a star product")

        monkeypatch.setattr(importlib.import_module("starqm.star"), "_star_compact", refuse)
        psi = line_normalized(covariance_kets(THETA, (0.3, -0.5))[0], 0.0)
        kernel = StarKernel(THETA)
        with pytest.raises(AssertionError, match="built a star product"):
            star(kernel, psi, psi)
        moments.coherent_variance_matrix(THETA)
        symbols.induced_inner_product(kernel, psi, psi, t=0.0)
        moments.expectation(operators.p_x(), psi, kernel, t=0.0)


class TestSymplecticEigenvalues:
    def test_vacuum_is_exactly_one(self):
        vac = VarianceMatrix(np.eye(4) * 0.5)
        nus = moments.symplectic_eigenvalues(vac, moments.symplectic_form(0.0))
        assert nus == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-12)

    def test_coherent_element_is_a_deformed_vacuum(self):
        v = moments.coherent_variance_matrix(THETA)
        nus = moments.symplectic_eigenvalues(v, moments.symplectic_form(THETA))
        assert nus == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-10)

    def test_frame_map_preserves_spectrum_and_determinant(self):
        v = moments.coherent_variance_matrix(THETA)
        m = moments.transform_matrix(THETA)
        v0 = VarianceMatrix(m @ v.values @ m.T, theta=THETA)
        assert v0.det == pytest.approx(v.det, rel=1e-12)
        nus = moments.symplectic_eigenvalues(v0, moments.symplectic_form(0.0))
        assert nus == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-10)

    def test_random_matrices_satisfy_the_determinant_identity(self):
        rng = np.random.default_rng(7)
        om = moments.symplectic_form(0.0)
        m = moments.transform_matrix(0.35)
        for _ in range(5):
            v = VarianceMatrix(random_spd(rng))
            nus = moments.symplectic_eigenvalues(v, om)
            assert nus[0] >= nus[2]
            # pairs (nu1, nu1, nu2, nu2) with nu1 nu2 = 4 sqrt(det V)
            assert nus[0] == pytest.approx(nus[1], rel=1e-9)
            assert nus[2] == pytest.approx(nus[3], rel=1e-9)
            assert nus[0] * nus[2] == pytest.approx(4.0 * math.sqrt(v.det), rel=1e-9)
            mapped = float(np.linalg.det(m @ v.values @ m.T))
            assert mapped == pytest.approx(v.det, rel=1e-9)

    def test_rejects_bad_input(self):
        om = moments.symplectic_form(0.0)
        flat = np.eye(4)
        flat[0, 1] = flat[1, 0] = 1.2  # symmetric but indefinite
        with pytest.raises(ValueError, match="positive definite"):
            moments.symplectic_eigenvalues(VarianceMatrix(flat), om)
        with pytest.raises(ValueError, match="singular"):
            moments.symplectic_eigenvalues(
                VarianceMatrix(np.eye(4)), SymplecticForm(np.zeros((4, 4)))
            )


class TestRobertsonSchrodinger:
    @pytest.mark.parametrize("theta", GROUND_THETAS)
    def test_ground_state_saturates_x_p(self, theta):
        kernel, psi = ground_state(theta)
        rec = moments.robertson_schrodinger_check(
            operators.x_theta_l(theta), operators.p_x(), psi, kernel
        )
        assert rec["lhs"] == pytest.approx(0.5, rel=1e-10)
        assert rec["robertson_rhs"] == pytest.approx(0.5, rel=1e-10)
        assert rec["schrodinger_rhs"] == pytest.approx(0.5, rel=1e-10)

    def test_space_time_pair_stays_above_both_bounds(self):
        kernel, psi = ground_state()
        rec = moments.robertson_schrodinger_check(
            operators.x_theta_l(THETA), operators.t_theta_l(THETA), psi, kernel, t=0.0
        )
        assert rec["robertson_rhs"] == pytest.approx(THETA / 2.0, rel=1e-10)
        assert rec["lhs"] == pytest.approx(0.05 * math.sqrt(11.0), rel=1e-10)
        assert rec["lhs"] >= rec["schrodinger_rhs"] - 1e-8
        assert rec["schrodinger_rhs"] >= rec["robertson_rhs"]

    def test_norm_paired_once_per_call(self, monkeypatch):
        # Both bounds need six expectations on one state; its norm <psi, psi>
        # is paired once for all of them, as in uncertainty_product.
        kernel, psi = ground_state()
        norms = []
        checked = moments._checked_norm
        monkeypatch.setattr(moments, "_checked_norm", lambda n: norms.append(n) or checked(n))
        moments.robertson_schrodinger_check(operators.x_theta_l(THETA), operators.p_x(), psi, kernel)
        moments.uncertainty_product(operators.x_theta_l(THETA), operators.p_x(), psi, kernel)
        assert len(norms) == 2

    def test_commuting_pair_has_zero_bound(self):
        kernel, psi = ground_state()
        rec = moments.robertson_schrodinger_check(
            operators.p_x(), operators.p_t(), psi, kernel
        )
        # P_t is sharp on an eigenstate, so both sides collapse to zero
        assert rec["robertson_rhs"] == pytest.approx(0.0, abs=1e-12)
        assert rec["lhs"] == pytest.approx(0.0, abs=1e-7)


class TestEhrenfestResidual:
    def test_eigenstate_trajectory_is_stationary(self):
        kernel, psi = ground_state()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        for op in (
            operators.x_theta_l(THETA),
            operators.p_x(),
            operators.t_theta_l(THETA),
        ):
            out = moments.ehrenfest_residual(traj, op, kernel, 1.0, pot)
            assert out["t"].shape == out["residual"].shape
            assert float(np.max(out["residual"])) < 1e-10

    def test_first_order_force_form_matches_on_eigenstate(self):
        kernel, psi = ground_state()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        out = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)
        assert float(np.max(out["force_residual"])) < 1e-10

    def test_harmonic_force_form_is_the_two_term_sum(self):
        """The one force operator -V' - (theta/2) V'' (d_x - i d_t) reads what
        the separate pairings -<m w^2 x> - (theta/2) <m w^2 (d_x - i d_t)> read,
        up to rounding."""
        kernel, psi = ground_state()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        out = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)
        ops = [
            operators.p_x(),
            monomial({(0, 1, 0, 0): 1.0}),
            monomial({(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1j}),
        ]
        values = moments._expectations(ops, traj, kernel)
        series, inner = values[:, 0], values[2:-2]
        h = 2e-4 * 5
        fd = (-series[4:] + 8.0 * series[3:-1] - 8.0 * series[1:-3] + series[:-4]) / (12.0 * h)
        two_term = np.abs(fd + inner[:, 1] + (THETA / 2.0) * inner[:, 2])
        assert float(np.max(np.abs(out["force_residual"] - two_term))) < 1e-14

    @pytest.mark.parametrize("theta", [0.1, 0.2])
    def test_quartic_eigenstate_obeys_the_law(self, theta):
        """V = x^2/2 + x^4/10 on its solved ground level: the commutator side
        holds to rounding, as for the oscillator."""
        spec = eigenstate_grid(theta)
        kernel = StarKernel(theta)
        pot = Potential.polynomial([0, 0, 0.5, 0, 0.1])
        ((_, psi),) = dynamics.stationary_solve(pot, kernel, 1.0, (0.2, 1.0), spec)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 1e-4, 100, record_every=10)
        for op in (operators.x_theta_l(theta), operators.p_x(), operators.t_theta_l(theta)):
            out = moments.ehrenfest_residual(traj, op, kernel, 1.0, pot)
            assert float(np.max(out["residual"])) <= 1e-10

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.15, 0.2])
    def test_residual_as_with_commutator_orders_summed_first(self, theta, monkeypatch):
        # The commutator omits the leading terms its two orders share, which
        # drops a rounding d_x term from [H, P_x]; the residual moves by
        # rounding only.
        kernel, psi = ground_state(theta)
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        got = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)
        monkeypatch.setattr(moments, "commutator", lambda a, b: a.compose(b) - b.compose(a))
        want = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)
        for key in ("residual", "force_residual"):
            assert np.max(np.abs(got[key] - want[key])) <= 1e-15 * np.max(want[key])

    def test_quartic_force_form_misses_order_theta_squared(self):
        """-V' - (theta/2) V'' (d_x - i d_t) is V'(X_theta^L) to first order
        only: for the x^4/10 term the rest starts at (theta^2/8) V''' (d_x - i d_t)^2,
        so the force residual on the quartic ground level grows about
        fourfold when theta doubles (1.6e-3 at theta = 0.1, 6.0e-3 at 0.2)."""
        pot = Potential.polynomial([0, 0, 0.5, 0, 0.1])
        peaks = []
        for theta in (0.1, 0.2):
            kernel = StarKernel(theta)
            ((_, psi),) = dynamics.stationary_solve(pot, kernel, 1.0, (0.2, 1.0), eigenstate_grid(theta))
            traj = dynamics.evolve(psi, pot, kernel, 1.0, 1e-4, 100, record_every=10)
            out = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)
            peaks.append(float(np.max(out["force_residual"])))
        assert 1e-4 < peaks[0] < 1e-2
        assert 3.0 < peaks[1] / peaks[0] < 5.0

    def test_oscillating_packet_obeys_the_law_to_step_error(self):
        kernel, psi = displaced_packet()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 4e-3, 250, record_every=5)
        for op in (operators.x_theta_l(0.0), operators.p_x()):
            out = moments.ehrenfest_residual(traj, op, kernel, 1.0, pot)
            assert float(np.max(out["residual"])) < 1e-5
        out = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)
        assert float(np.max(out["force_residual"])) < 1e-5

    def test_packet_residual_is_second_order_in_the_step(self):
        # Strang splitting: halving dt at fixed snapshot spacing cuts the
        # residual about fourfold.
        kernel, psi = displaced_packet()
        pot = Potential.harmonic(1.0, 1.0)
        peaks = {}
        for dt, every in ((4e-3, 10), (2e-3, 20)):
            traj = dynamics.evolve(psi, pot, kernel, 1.0, dt, int(round(2.0 / dt)),
                                   record_every=every)
            for name, op in (("x", operators.x_theta_l(0.0)), ("p", operators.p_x())):
                out = moments.ehrenfest_residual(traj, op, kernel, 1.0, pot)
                peaks[dt, name] = float(np.max(out["residual"]))
        for name in ("x", "p"):
            assert 3.0 < peaks[4e-3, name] / peaks[2e-3, name] < 5.0

    def test_free_drift_is_exact(self):
        kernel, psi = displaced_packet(p0=0.5)
        free = Potential.none()
        traj = dynamics.evolve(psi, free, kernel, 1.0, 4e-3, 125, record_every=5)
        got = moments.expectation(operators.x_theta_l(0.0), traj[-1], kernel)
        assert got.real == pytest.approx(1.0 + 0.5 * 0.5, rel=1e-9)
        for op in (operators.x_theta_l(0.0), operators.p_x()):
            out = moments.ehrenfest_residual(traj, op, kernel, 1.0, free)
            assert float(np.max(out["residual"])) < 1e-10
        out = moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, free)
        assert float(np.max(out["force_residual"])) < 1e-10

    def test_rejects_bad_trajectories(self):
        kernel, psi = displaced_packet()
        pot = Potential.none()
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 4e-3, 20, record_every=5)
        with pytest.raises(ValueError, match="too short"):
            moments.ehrenfest_residual(traj[:4], operators.p_x(), kernel, 1.0, pot)
        skewed = list(traj)
        skewed[3] = Field1D(psi.spec, 0.19, traj[3].values, dict(traj[3].metadata))
        with pytest.raises(ValueError, match="uniformly spaced"):
            moments.ehrenfest_residual(skewed, operators.p_x(), kernel, 1.0, pot)
        with pytest.raises(ValueError, match="mass must be > 0"):
            moments.ehrenfest_residual(traj, operators.p_x(), kernel, 0.0, pot)

    def test_pairs_the_trajectory_as_one_stack(self):
        kernel, psi = ground_state()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        ops = [operators.x_theta_l(THETA), operators.p_x(), operators.t_theta_l(THETA)]
        got = moments._expectations(ops, traj, kernel)
        assert got.shape == (len(traj), len(ops))
        for row, fld in zip(got, traj):
            want = moments._expectations(ops, fld, kernel)
            assert np.all(np.abs(row - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))

    def test_transform_count_does_not_grow_with_slices(self, monkeypatch):
        kernel, psi = ground_state()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        assert len(traj) == 11
        calls = {"fft": 0, "ifft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
        counts = []
        for slices in (traj[:5], traj):
            calls.update(fft=0, ifft=0)
            moments.ehrenfest_residual(slices, operators.p_x(), kernel, 1.0, pot)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["fft"] > 0

    def test_unnormalized_slice_is_named(self):
        kernel, psi = ground_state()
        pot = Potential.harmonic(1.0, 1.0)
        traj = dynamics.evolve(psi, pot, kernel, 1.0, 2e-4, 50, record_every=5)
        bad = traj[3]
        traj[3] = Field1D(bad.spec, bad.t_slice, 1.1 * bad.values, dict(bad.metadata))
        t = phasecalc._slice_time(bad)
        assert t > 0.0
        with pytest.raises(ValueError, match=f"slice 3 at t = {t:.6g}: state is not normalized"):
            moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, pot)

    def test_rejects_non_polynomial_potentials(self):
        kernel, psi = displaced_packet()
        traj = dynamics.evolve(psi, Potential.none(), kernel, 1.0, 4e-3, 20, record_every=5)
        bumpy = Potential.custom(lambda x: np.cos(x))
        with pytest.raises(ValueError, match="polynomial potential"):
            moments.ehrenfest_residual(traj, operators.p_x(), kernel, 1.0, bumpy)


class TestResidualCsv:
    def test_formats_rows(self):
        text = moments.residual_csv([0.0, 0.5], [1e-7, 2.5e-7])
        lines = text.splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "0,9.9999999999999995e-08"
        assert text.endswith("\n")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            moments.residual_csv([0.0, 1.0], [1.0])
