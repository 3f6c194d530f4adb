"""Dynamics checks: packets, oscillator states, solver, evolution, transitions."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special

from oracles import brute_force_phase_star, dense_frame_levels, dense_multiplier
from oracles import oscillator_momentum_operator, tagged_pair_density
from starqm import dynamics as dyn
from starqm import operators, phasecalc, symbols
from starqm.dynamics import OscillatorParams, PacketParams, Potential
from starqm.fieldgrid import Field1D, Field2D, GridSpec, _edge_magnitude, sample_field
from starqm.fieldgrid import spectral_derivative
from starqm.star import StarKernel


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def density_moments(x, rho, dx):
    """Mean and variance of a sampled density after normalization."""
    w = rho.real / (np.sum(rho.real) * dx)
    mean = float(np.sum(x * w) * dx)
    var = float(np.sum((x - mean) ** 2 * w) * dx)
    return mean, var


def eigenstate_grid(theta: float) -> GridSpec:
    return GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)


class TestPacketParams:
    def test_lam_combines_width_and_drift(self):
        pp = PacketParams(sigma=1.0, m=1.0, theta=0.1)
        # sigma^2/2 + theta/4 = 0.525, t/2m = 1.0
        assert pp.lam(2.0) == pytest.approx(0.525 + 1.0j, abs=1e-15)
        assert pp.lam(0.0).imag == 0.0

    def test_fully_squeezed_packet_is_legal_when_deformed(self):
        pp = PacketParams(sigma=0.0, m=1.0, theta=0.1)
        assert pp.lam(0.0).real == pytest.approx(0.025)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            PacketParams(sigma=-0.1, m=1.0, theta=0.0)
        with pytest.raises(ValueError, match="mass must be > 0"):
            PacketParams(sigma=1.0, m=0.0, theta=0.0)
        with pytest.raises(ValueError, match="theta must be >= 0"):
            PacketParams(sigma=1.0, m=1.0, theta=-0.2)
        with pytest.raises(ValueError, match="sigma > 0 or theta > 0"):
            PacketParams(sigma=0.0, m=1.0, theta=0.0)

    def test_width_closed_form(self):
        pp = PacketParams(sigma=1.0, m=1.0, theta=0.05)
        # ((1 + 0.025)^2 + 4)^(1/4) at t = 2
        want = ((1.025) ** 2 + 4.0) ** 0.25
        assert dyn.packet_width(pp, 2.0) == pytest.approx(want, rel=1e-14)

    def test_width_floor_at_zero_sigma(self):
        pp = PacketParams(sigma=0.0, m=1.0, theta=0.1)
        assert dyn.packet_width(pp, 0.0) == pytest.approx(math.sqrt(0.05), rel=1e-14)


class TestFreePacket:
    def test_commutative_normalization_is_one_over_two_pi(self):
        spec = GridSpec(8, 512, 0.0, 4.0, -20.0, 20.0, 0.0)
        psi = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        total = float(np.sum(np.abs(psi.values) ** 2) * spec.dx)
        assert total == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_commutative_peak_value(self):
        # Gaussian profile collapses to 1/(sqrt(2) pi^(3/4)) at x=0
        spec = GridSpec(8, 512, 0.0, 4.0, -20.0, 20.0, 0.0)
        psi = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        peak = abs(psi.values[np.argmin(np.abs(spec.x))])
        assert peak == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi**0.75), rel=1e-12)

    def test_quartic_damping_shaves_the_norm(self):
        # the deformation suppresses large momenta, so the integral drops
        # below the leading-order value 1/(2 pi); frozen at theta = 0.1
        spec = GridSpec(32, 512, 0.0, 2.0, -20.0, 20.0, 0.1)
        psi = dyn.free_packet(PacketParams(1.0, 1.0, 0.1), 0.0, spec)
        total = float(np.sum(np.abs(psi.values) ** 2) * spec.dx)
        assert total * 2.0 * math.pi == pytest.approx(0.967979252535, rel=1e-9)

    def test_even_symmetry(self):
        spec = GridSpec(8, 512, 0.0, 4.0, -20.0, 20.0, 0.0)
        psi = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.5, spec)
        assert rel_err(psi.values[1:], psi.values[1:][::-1]) < 1e-12

    def test_metadata_records_quadrature(self):
        spec = GridSpec(8, 512, 0.0, 4.0, -20.0, 20.0, 0.0)
        psi = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        assert psi.metadata["cutoff"] > 0
        assert psi.metadata["step"] > 0

    def test_rejects_unreachable_cutoff(self):
        spec = GridSpec(8, 64, 0.0, 1.0, -8.0, 8.0, 0.0)
        with pytest.raises(ValueError, match="unreachable"):
            dyn.free_packet(PacketParams(0.05, 1.0, 0.0), 0.0, spec)

    def test_rejects_theta_mismatch(self):
        spec = GridSpec(8, 512, 0.0, 4.0, -20.0, 20.0, 0.0)
        with pytest.raises(ValueError, match="does not match grid theta"):
            dyn.free_packet(PacketParams(1.0, 1.0, 0.1), 0.0, spec)


class TestFirstOrderPacket:
    def test_agrees_with_quadrature_and_error_scales_quadratically(self):
        errs = {}
        for theta, n_t in ((0.01, 64), (0.02, 32)):
            spec = GridSpec(n_t, 2048, 0.0, 0.8, -16.0, 16.0, theta)
            pp = PacketParams(1.0, 1.0, theta)
            quad = dyn.free_packet(pp, 0.7, spec)
            first = dyn.first_order_packet(pp, 0.7, spec.x)
            errs[theta] = rel_err(first, quad.values)
        assert errs[0.01] == pytest.approx(1.064248e-05, rel=1e-3)
        assert errs[0.02] == pytest.approx(4.118807e-05, rel=1e-3)
        # doubling theta roughly quadruples the truncation error
        assert 3.4 < errs[0.02] / errs[0.01] < 4.4

    def test_center_value_matches_closed_form(self):
        pp = PacketParams(1.0, 1.0, 0.02)
        lam = pp.lam(0.7)
        f0 = -3.0 / (64.0 * lam * lam)
        want = (1.0 / (2.0 * math.pi**0.75)) * np.sqrt(1.0 / lam) * (1.0 + 0.02 * f0)
        got = dyn.first_order_packet(pp, 0.7, np.array([0.0]))[0]
        assert abs(got - want) < 1e-15

    def test_center_correction_at_launch(self):
        # f(0) = -3/(64 m^2 lam0^2) when the drift term is off
        pp = PacketParams(1.0, 1.0, 0.02)
        lam0 = pp.lam(0.0).real
        f0 = -3.0 / (64.0 * lam0**2)
        want = (1.0 / (2.0 * math.pi**0.75)) / math.sqrt(lam0) * (1.0 + 0.02 * f0)
        got = dyn.first_order_packet(pp, 0.0, np.array([0.0]))[0]
        assert got.imag == pytest.approx(0.0, abs=1e-15)
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_warns_outside_expansion_regime(self):
        pp = PacketParams(1.0, 1.0, 0.2)
        with pytest.warns(UserWarning, match="outside its regime"):
            dyn.first_order_packet(pp, 0.0, np.array([0.0]))


class TestWidthLaw:
    def test_commutative_spreading_is_exact(self):
        """Free variance grows as lam0 + t^2/(4 m^2 lam0) with lam0 = sigma^2/2."""
        spec = GridSpec(8, 512, 0.0, 4.0, -20.0, 20.0, 0.0)
        kern = StarKernel(0.0)
        pp = PacketParams(1.0, 1.0, 0.0)
        psi0 = dyn.free_packet(pp, 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), kern, 1.0, 5e-4, 4000, record_every=2000)
        for snap in traj:
            t = snap.metadata["elapsed"]
            rho = dyn.slice_density(kern, snap)
            _, var = density_moments(spec.x, rho.values, spec.dx)
            assert var == pytest.approx(0.5 + 0.5 * t * t, rel=1e-10)

    def test_width_parameter_recovered_from_measured_variance(self):
        """lam is exposed by Var = |lam|^2/lam0, so (4 lam0 Var)^(1/4) tracks the law.

        The residual is the quartic momentum damping, largest at t = 0 and
        about 1.2% at theta = 0.05; it decays as dispersion takes over.
        """
        spec = GridSpec(128, 1024, 0.0, 4.0, -24.0, 24.0, 0.05)
        kern = StarKernel(0.05)
        pp = PacketParams(1.0, 1.0, 0.05)
        lam0 = pp.lam(0.0).real
        psi0 = dyn.free_packet(pp, 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), kern, 1.0, 2e-4, 10000, record_every=2500)
        rels = []
        for snap in traj:
            t = snap.metadata["elapsed"]
            rho = dyn.slice_density(kern, snap, m=1.0)
            _, var = density_moments(spec.x, rho.values, spec.dx)
            d_data = (4.0 * lam0 * var) ** 0.25
            rels.append(abs(d_data / dyn.packet_width(pp, t) - 1.0))
        assert max(rels) < 0.02
        assert rels[0] == pytest.approx(1.20e-2, rel=0.05)
        assert rels[-1] == pytest.approx(7.42e-3, rel=0.05)

    def test_squeezing_floor(self):
        """Near-zero input width pins the packet near sqrt(theta/2)."""
        floor = math.sqrt(0.05)
        spec = GridSpec(8, 512, 0.0, 0.2, -14.0, 14.0, 0.1)
        for frac, want_ratio in ((0.1, 1.095445), (0.03, 1.029563), (0.01, 1.009950)):
            pp = PacketParams(math.sqrt(frac * 0.1), 1.0, 0.1)
            assert dyn.packet_width(pp, 0.0) / floor == pytest.approx(want_ratio, rel=1e-5)
            psi = dyn.free_packet(pp, 0.0, spec)
            _, var = density_moments(spec.x, np.abs(psi.values) ** 2, spec.dx)
            # the sampled profile (quartic tails included) never squeezes past it
            assert math.sqrt(2.0 * var) >= floor


class TestOscillatorParams:
    def test_level_energy_ladder(self):
        osc = OscillatorParams(m=1.0, omega=2.0, theta=0.3)
        assert osc.level_energy(0) == pytest.approx(1.0)
        assert osc.sigma_theta_sq == pytest.approx(0.3 / 2.0 + 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="omega"):
            OscillatorParams(m=1.0, omega=0.0, theta=0.1)
        with pytest.raises(ValueError, match="mass"):
            OscillatorParams(m=-1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="theta"):
            OscillatorParams(m=1.0, omega=1.0, theta=-0.1)


class TestOscillatorSpectrum:
    @pytest.fixture(autouse=True)
    def fresh_ladders(self):
        """No verified ladder carries over into or out of a test, so no warm
        entry can hide a check."""
        dyn._verified_ladder.cache_clear()
        yield
        dyn._verified_ladder.cache_clear()

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = scipy.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvalsh", counted)
        return calls

    def test_spectrum_is_theta_independent(self, eigvalsh_calls):
        ladders = {}
        for theta in (0.0, 0.1, 0.3):
            osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
            ladders[theta] = dyn.oscillator_spectrum(osc, 5)
        for theta in (0.1, 0.3):
            assert np.allclose(ladders[theta], ladders[0.0], atol=1e-12)
        assert np.allclose(ladders[0.0], [0.5, 1.5, 2.5, 3.5, 4.5, 5.5], atol=1e-12)
        # The check is theta-free, so the scan diagonalizes once.
        assert eigvalsh_calls == [(256, 256)]

    def test_a_new_mass_omega_or_level_count_is_checked_again(self, eigvalsh_calls):
        for m, omega, n_max in [(1.0, 1.0, 5), (1.0, 0.7, 5), (1.0, 0.7, 6), (2.0, 0.7, 6)]:
            dyn.oscillator_spectrum(OscillatorParams(m, omega, theta=0.2), n_max)
        dyn.oscillator_spectrum(OscillatorParams(2.0, 0.7), 6.0)
        assert len(eigvalsh_calls) == 4

    def test_a_returned_ladder_belongs_to_the_caller(self):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        ladder = dyn.oscillator_spectrum(osc, 3)
        ladder[0] = -1.0
        ladder.append(9.9)
        assert dyn.oscillator_spectrum(osc, 3) == [0.5, 1.5, 2.5, 3.5]

    def test_spacing_is_omega(self):
        osc = OscillatorParams(m=2.0, omega=0.7, theta=0.1)
        es = dyn.oscillator_spectrum(osc, 4)
        assert np.allclose(np.diff(es), 0.7, atol=1e-12)

    @pytest.mark.parametrize("m, omega", [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0)])
    def test_a_hundred_levels_pass_the_check(self, m, omega):
        # The 256-mode box reproduces them to 1e-13 (1 + E), well inside 1e-9.
        ladder = dyn.oscillator_spectrum(OscillatorParams(m, omega), 100)
        assert ladder[-1] == 100.5 * omega

    @pytest.mark.parametrize("m, omega", [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0)])
    def test_the_check_verifies_up_to_107_levels(self, m, omega):
        # The band block holds the ladder to 5.7e-10 (1 + E) at n_max = 107 and
        # misses by 2.7e-9 from 108: the range the dense momentum check had.
        osc = OscillatorParams(m, omega)
        assert dyn.oscillator_spectrum(osc, 107)[-1] == 107.5 * omega
        with pytest.raises(RuntimeError, match="spectrum verification failed"):
            dyn.oscillator_spectrum(osc, 108)

    @pytest.mark.parametrize("n_max", [10, 100])
    @pytest.mark.parametrize("m, omega", [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0), (1.3, 0.8)])
    def test_the_band_block_has_the_dense_momentum_operators_levels(
        self, monkeypatch, m, omega, n_max
    ):
        """The oscillator is self-dual: at energy 0 the dense p-space operator
        is the ladder check's x-space band block written in the other basis."""
        blocks = []
        band_block = dyn._band_block

        def kept(*args):
            blocks.append(band_block(*args))
            return blocks[-1]

        monkeypatch.setattr(dyn, "_band_block", kept)
        dyn.oscillator_spectrum(OscillatorParams(m, omega), n_max)
        (block,) = blocks
        # The check diagonalizes the real part; the imaginary part is rounding.
        assert float(np.max(np.abs(block.imag))) < 1e-15 * float(np.max(np.abs(block.real)))
        _, ham = oscillator_momentum_operator(OscillatorParams(m, omega), 0.0, n_top=n_max)
        want = scipy.linalg.eigvalsh(ham.real, subset_by_index=[0, n_max])
        got = scipy.linalg.eigvalsh(block.real, subset_by_index=[0, n_max])
        assert float(np.max(np.abs(got - want))) < 1e-11

    def test_accepts_an_integral_float_level_count(self):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        assert dyn.oscillator_spectrum(osc, 2.0) == [0.5, 1.5, 2.5]

    def test_rejects_negative_level_count(self):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="n_max"):
            dyn.oscillator_spectrum(osc, -1)

    @pytest.mark.parametrize("n_max", [2.5, math.nan, math.inf])
    def test_rejects_a_level_count_that_is_no_integer(self, n_max):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="n_max must be a nonnegative integer"):
            dyn.oscillator_spectrum(osc, n_max)

    @pytest.mark.parametrize("n_max", [256, 300])
    def test_rejects_more_levels_than_the_box_has_modes(self, n_max):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match=f"n_max={n_max} .* 256 modes"):
            dyn.oscillator_spectrum(osc, n_max)

    def test_a_diagonalization_off_the_closed_form_raises(self, monkeypatch):
        """A band block shifted by s I moves every level by s.  Both shifts
        lie past the 1e-9 (1 + E) agreement the closed form must reach, and a
        failed check is not remembered, so every call raises."""
        operator = dyn._band_block
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        for shift in (1e-3, 1e-7):

            def shifted(*args, shift=shift, **kwargs):
                block = operator(*args, **kwargs)
                return block + shift * np.eye(len(block))

            monkeypatch.setattr(dyn, "_band_block", shifted)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="spectrum verification failed"):
                    dyn.oscillator_spectrum(osc, 4)


class TestMomentumOperator:
    def test_gauge_stripped_eigenvectors_are_hermite(self):
        """Removing e^{-i theta E p/2} must land on the undeformed functions."""
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.3)
        for n in range(4):
            energy = osc.level_energy(n)
            p, ham = oscillator_momentum_operator(osc, energy, n_top=6)
            vals, vecs = np.linalg.eigh(ham)
            vec = vecs[:, n] * np.exp(0.5j * 0.3 * energy * p)
            ref = scipy.special.eval_hermite(n, p) * np.exp(-0.5 * p**2)
            ref = ref / np.linalg.norm(ref)
            # align the free phase/sign before comparing
            k = int(np.argmax(np.abs(ref)))
            vec = vec * (ref[k] / vec[k])
            vec = vec / np.linalg.norm(vec)
            assert vals[n] == pytest.approx(energy, abs=1e-6)
            assert float(np.max(np.abs(vec - ref))) < 1e-8

    def test_operator_is_hermitian(self):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        _, ham = oscillator_momentum_operator(osc, 0.5, n_top=3)
        assert float(np.max(np.abs(ham - ham.conj().T))) < 1e-12

    @pytest.mark.parametrize("energy", [0.0, 1.5])
    def test_matches_dense_transform_construction(self, energy):
        # Reference: d_p + i theta E/2 as F^-1 diag(ik) F + i theta E/2, squared
        # by a matrix product; the operator forms the squared multiplier directly.
        osc = OscillatorParams(m=1.3, omega=0.8, theta=0.3)
        p, ham = oscillator_momentum_operator(osc, energy, n_top=4, n_modes=128)
        k = 2.0 * np.pi * np.fft.fftfreq(128, d=p[1] - p[0])
        shift = dense_multiplier(1j * k) + 0.5j * 0.3 * energy * np.eye(128)
        ref = np.diag(p**2 / 2.6) - (1.3 * 0.8**2 / 2.0) * (shift @ shift)
        ref = 0.5 * (ref + ref.conj().T)
        assert float(np.max(np.abs(ham - ref))) < 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("theta, energy", [(0.1, 0.0), (0.3, 1.5), (0.2, 2.5)])
    def test_in_place_build_equals_the_out_of_place_formula(self, theta, energy):
        osc = OscillatorParams(m=1.3, omega=0.8, theta=theta)
        p, ham = oscillator_momentum_operator(osc, energy, n_top=10)
        k = 2.0 * np.pi * np.fft.fftfreq(256, d=p[1] - p[0])
        shift_sq = scipy.linalg.circulant(np.fft.ifft((1j * k + 0.5j * theta * energy) ** 2))
        ref = np.diag(p**2 / (2.0 * 1.3)) - (1.3 * 0.8**2 / 2.0) * shift_sq
        assert np.array_equal(ham, 0.5 * (ref + ref.conj().T))

    def test_rejects_wrapping_gauge_phase(self):
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.3)
        with pytest.raises(ValueError, match="gauge phase wraps"):
            oscillator_momentum_operator(osc, 2.5e2, n_top=2)


class TestOscillatorEigenstates:
    def test_induced_orthonormality(self):
        # theta m omega = 2.5 > 2 puts the closed form's g^2 above zero.
        for theta, spec in (
            (0.1, eigenstate_grid(0.1)),
            (2.5, GridSpec(8, 512, 0.0, 0.2, -24.0, 24.0, 2.5)),
        ):
            kern = StarKernel(theta)
            osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
            states = [dyn.oscillator_eigenstate(osc, n, spec) for n in range(5)]
            gram = np.array(
                [[symbols.induced_inner_product(kern, a, b) for b in states] for a in states]
            )
            assert float(np.max(np.abs(gram - np.eye(5)))) < 1e-13

    def test_derivative_matrix_element_closed_form(self):
        # |(1, d_x 0)| = sqrt(m w/2) e^{-theta w^2/4}
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        s0 = dyn.oscillator_eigenstate(osc, 0, spec)
        s1 = dyn.oscillator_eigenstate(osc, 1, spec)
        d10 = symbols.induced_inner_product(kern, s1, spectral_derivative(s0, "x"))
        assert abs(d10) == pytest.approx(math.sqrt(0.5) * math.exp(-0.025), rel=1e-12)

    def test_metadata_energy_tag(self):
        spec = eigenstate_grid(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        st = dyn.oscillator_eigenstate(osc, 2, spec)
        assert st.metadata["energy"] == pytest.approx(2.5)
        assert st.metadata["level"] == 2

    def test_rejects_box_that_clips_the_state(self):
        spec = GridSpec(8, 512, 0.0, 0.2, -8.0, 8.0, 0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="x-box too small for level 2"):
            dyn.oscillator_eigenstate(osc, 2, spec)

    def test_rejects_negative_level(self):
        spec = eigenstate_grid(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="level"):
            dyn.oscillator_eigenstate(osc, -1, spec)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -1, 2.5])
    def test_rejects_a_level_that_is_no_nonnegative_integer(self, n):
        spec = eigenstate_grid(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="level must be a nonnegative integer"):
            dyn.oscillator_eigenstate(osc, n, spec)


class TestOscillatorGround:
    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    def test_density_moments_at_reference_point(self, theta):
        # m = w = 1, E0 = 1/2, sigma_theta^2 = theta/2 + 1: mean theta E0 =
        # theta/2, variance sigma_theta^2/2 + theta/4 = (1 + theta)/2
        spec = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        _, den = dyn.oscillator_ground(osc, spec)
        assert den.metadata["mean"] == pytest.approx(theta / 2.0, abs=1e-9)
        assert den.metadata["variance"] == pytest.approx((1.0 + theta) / 2.0, abs=1e-9)
        # both shift conventions are recorded: wavefunction theta E0/2,
        # density theta E0
        assert den.metadata["symbol_shift"] == pytest.approx(theta / 4.0)
        assert den.metadata["density_shift"] == pytest.approx(theta / 2.0)
        total = float(np.sum(den.values.real) * spec.dx)
        assert total == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.25, 0.4, 0.5])
    def test_density_moments_on_the_workload_box_at_larger_theta(self, theta):
        # On the unframed row the partner-sum density amplifies rounding here
        # (variance 21-29 against 0.63-0.75); the first slice's closed-form
        # frame gives the bounded density route.
        spec = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        _, den = dyn.oscillator_ground(osc, spec)
        assert den.metadata["mean"] == pytest.approx(theta / 2.0, abs=1e-12)
        assert den.metadata["variance"] == pytest.approx((1.0 + theta) / 2.0, abs=1e-12)

    def test_symbol_matches_the_sampled_closed_form(self):
        theta = 0.1
        spec = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        symbol, _ = dyn.oscillator_ground(osc, spec)
        energy, s_sq = 0.5, osc.sigma_theta_sq
        scale = 1.0 / math.sqrt(s_sq * math.exp(theta * energy**2 / 2.0) * math.sqrt(math.pi))
        want = sample_field(
            lambda t, x: scale
            * np.exp(-((x - theta * energy / 2.0) ** 2) / (2.0 * s_sq))
            * np.exp(-1j * energy * t),
            spec,
        )
        assert np.array_equal(symbol.values, want.values)
        assert symbol.metadata["energy"] == energy

    def test_commutative_reduction(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -8.0, 8.0, 0.0)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.0)
        _, den = dyn.oscillator_ground(osc, spec)
        assert den.metadata["mean"] == pytest.approx(0.0, abs=1e-12)
        assert den.metadata["variance"] == pytest.approx(0.5, abs=1e-9)

    def test_stiff_oscillator_width_floor(self):
        # 1/(m w) -> 0 leaves sigma-tilde^2 -> theta/4 + theta/4 = theta/2
        osc = OscillatorParams(m=1.0, omega=1e6, theta=0.1)
        s_tilde_sq = osc.sigma_theta_sq / 2.0 + 0.1 / 4.0
        assert s_tilde_sq == pytest.approx(0.05, abs=2e-6)

    def test_rejects_aperiodic_time_box(self):
        # E0 (t_max - t_min) / 2 pi = 1/pi is not an integer
        spec = GridSpec(64, 512, 0.0, 4.0, -8.0, 8.0, 0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="periodic"):
            dyn.oscillator_ground(osc, spec)

    def test_rejects_coarse_or_clipped_grids(self):
        # a stiff oscillator squeezes the density below what dx resolves
        stiff = OscillatorParams(m=1.0, omega=25.0, theta=0.1)
        with pytest.raises(ValueError, match="cannot resolve"):
            dyn.oscillator_ground(stiff, GridSpec(8, 256, 0.0, 0.5, -10.0, 10.0, 0.1))
        soft = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        with pytest.raises(ValueError, match="does not contain"):
            dyn.oscillator_ground(soft, GridSpec(256, 64, 0.0, 4.0 * math.pi, -2.0, 2.0, 0.1))


class TestStationarySolve:
    def test_harmonic_ladder_with_deformation(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        pairs = dyn.stationary_solve(Potential.harmonic(1.0, 1.0), kern, 1.0, (0.2, 2.8), spec)
        energies = [e for e, _ in pairs]
        assert np.allclose(energies, [0.5, 1.5, 2.5], atol=1e-9)
        for _, st in pairs:
            assert st.metadata["residual"] < 1e-10
            assert st.metadata["cross_residual"] < 5e-9
            assert st.metadata["iterations"] <= 4

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    def test_harmonic_levels_settle_from_the_scan(self, theta):
        """A level clear of the box edge is its scan vector translated into its
        own frame, which passes the frame residual there: the scan is its only
        eigensolve."""
        spec = eigenstate_grid(theta)
        pairs = dyn.stationary_solve(
            Potential.harmonic(1.0, 1.0), StarKernel(theta), 1.0, (0.2, 2.8), spec
        )
        assert [st.metadata["level"] for _, st in pairs] == [0, 1, 2]
        for _, st in pairs:
            assert st.metadata["iterations"] == 1
            assert st.metadata["residual"] < 1e-10
            # The star-product check loses digits to the mode weights as theta
            # grows (about 1e-4 at theta = 0.2 on this grid, with frame
            # residuals near 1e-12), so it is bounded only where it is well
            # conditioned.
            if theta <= 0.1:
                assert st.metadata["cross_residual"] < 5e-9

    @pytest.mark.parametrize("theta", [0.0625, 0.15, 0.2])
    def test_the_workload_solve_takes_two_eigensolves(self, theta, monkeypatch):
        """Work count: the scan counts the levels up to hi, then takes their
        vectors and the next one's, and every level settles from its scan
        vector translated into its own frame, with no eigensolve of its own."""
        calls = []
        eigh = scipy.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        pairs = dyn.stationary_solve(
            Potential.harmonic(1.0, 1.0), StarKernel(theta), 1.0, (0.2, 2.8), eigenstate_grid(theta)
        )
        assert len(calls) == 2
        assert [st.metadata["iterations"] for _, st in pairs] == [1, 1, 1]

    def test_window_levels_keep_their_global_index(self):
        spec = eigenstate_grid(0.1)
        pairs = dyn.stationary_solve(
            Potential.harmonic(1.0, 1.0), StarKernel(0.1), 1.0, (1.2, 2.8), spec
        )
        assert [st.metadata["level"] for _, st in pairs] == [1, 2]

    def test_workload_energies_sit_on_the_ladder(self):
        """The harmonic ladder at theta = 0.15 within the settle tolerance."""
        spec = eigenstate_grid(0.15)
        pairs = dyn.stationary_solve(
            Potential.harmonic(1.0, 1.0), StarKernel(0.15), 1.0, (0.2, 2.8), spec
        )
        assert len(pairs) == 3
        for n, (energy, _) in enumerate(pairs):
            assert abs(energy - (n + 0.5)) <= 1e-10 * (1.0 + abs(energy))

    @pytest.mark.parametrize("theta, m, omega", [(0.1, 1.0, 1.0), (0.1, 2.0, 0.7), (0.3, 0.5, 3.0)])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_level_matches_closed_form_eigenstate(self, level, theta, m, omega):
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        osc = OscillatorParams(m=m, omega=omega, theta=theta)
        energy = osc.level_energy(level)
        window = (energy - 0.4 * omega, energy + 0.4 * omega)
        ((_, solved),) = dyn.stationary_solve(Potential.harmonic(m, omega), kern, m, window, spec)
        direct = dyn.oscillator_eigenstate(osc, level, spec)
        peak = int(np.argmax(np.abs(direct.values)))
        phase = direct.values[peak] / solved.values[peak]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert float(np.max(np.abs(solved.values * phase - direct.values))) < 1e-11

    def test_commutative_hermite_ladder(self):
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, 0.0)
        kern = StarKernel(0.0)
        pairs = dyn.stationary_solve(Potential.harmonic(1.0, 1.0), kern, 1.0, (0.2, 5.8), spec)
        assert np.allclose([e for e, _ in pairs], [0.5, 1.5, 2.5, 3.5, 4.5, 5.5], atol=1e-10)

    def test_quartic_levels_do_not_shift_with_theta(self):
        """The operator potential acts through the same similarity frame at
        every theta, so static spectra stay put; frozen solver values."""
        frozen = [0.2460882419, 0.8818259953, 1.7303142148, 2.7025060368]
        custom = Potential.custom(lambda x: 0.05 * x**4)
        poly = Potential.polynomial([0, 0, 0, 0, 0.05])
        for theta in (0.0, 0.05, 0.1):
            spec = eigenstate_grid(theta)
            kern = StarKernel(theta)
            pairs = dyn.stationary_solve(custom, kern, 1.0, (0.1, 3.0), spec)
            assert np.allclose([e for e, _ in pairs], frozen, atol=1e-8)
            # Both sample the same V bit for bit, so the frame solves agree
            # exactly; the polynomial alone is gated through H_theta.
            gated = dyn.stationary_solve(poly, kern, 1.0, (0.1, 3.0), spec)
            assert [e for e, _ in gated] == [e for e, _ in pairs]
            assert all(st.metadata["cross_residual"] < dyn._ALGEBRA_TOL for _, st in gated)

    def test_tilted_potential_settles_by_iteration(self):
        """V = F x sampled in the frame at energy E is F x - F theta E / 2, so a
        level moves with E and settles at E_0 / (1 + F theta / 2), where E_0 is
        the commutative level on the same box."""
        force = 1.0
        pot = Potential.custom(lambda x: force * x)
        window = (-13.0, -9.0)
        ((e_0, _),) = dyn.stationary_solve(
            pot, StarKernel(0.0), 1.0, window, GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, 0.0)
        )
        for theta in (0.1, 0.2):
            spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
            ((energy, st),) = dyn.stationary_solve(pot, StarKernel(theta), 1.0, window, spec)
            assert abs(energy * (1.0 + force * theta / 2.0) - e_0) < 1e-9 * abs(e_0)
            assert st.metadata["iterations"] > 2
            assert st.metadata["residual"] < 1e-10

    def test_an_unsettled_level_raises(self, monkeypatch):
        """The tilt's level moves with the frame energy, so one re-solve
        cannot settle it: the solve raises instead of returning the level."""
        monkeypatch.setattr(dyn, "_MAX_RESOLVES", 1)
        with pytest.raises(RuntimeError, match="level 0 did not settle within 1 re-solves"):
            dyn.stationary_solve(
                Potential.custom(lambda x: x), StarKernel(0.1), 1.0, (-13.0, -9.0), eigenstate_grid(0.1)
            )

    @pytest.mark.parametrize(
        "potential, theta, window, levels, modes",
        [
            (Potential.harmonic(1.0, 1.0), 0.0, (0.2, 2.8), [0, 1, 2], 64),
            (Potential.harmonic(1.0, 1.0), 0.0625, (0.2, 2.8), [0, 1, 2], 64),
            (Potential.harmonic(1.0, 1.0), 0.2, (0.2, 2.8), [0, 1, 2], 64),
            (Potential.custom(lambda x: 0.05 * x**4), 0.1, (0.1, 3.0), [0, 1, 2, 3], 128),
            (Potential.custom(lambda x: x), 0.1, (-13.0, -9.0), [0], 512),
            (Potential.polynomial([0, 0, 0, 0, 0.05]), 0.1, (0.1, 3.0), [0, 1, 2, 3], 128),
            (Potential.polynomial([0, 0, 0.5, 0, 0.1]), 0.3, (0.2, 5.0), [0, 1, 2, 3], 128),
        ],
        ids=[
            "harmonic-0", "harmonic-0.0625", "harmonic-0.2", "quartic-0.1", "tilt-0.1",
            "polynomial-quartic-0.1", "polynomial-x2-x4-0.3",
        ],
    )
    def test_levels_match_the_dense_frame_oracle(self, potential, theta, window, levels, modes):
        """Band levels against a real dense eigensolve of the x-space frame
        operator in each level's own frame, on the narrowest band that passes."""
        spec = eigenstate_grid(theta)
        pairs = dyn.stationary_solve(potential, StarKernel(theta), 1.0, window, spec)
        assert [st.metadata["level"] for _, st in pairs] == levels
        energies, slices = dense_frame_levels(
            potential.sample_space, spec.x, spec.k_x, 1.0, theta, levels, e_scan=sum(window) / 2.0
        )
        for (energy, st), want_energy, want in zip(pairs, energies, slices):
            assert st.metadata["band_modes"] == modes
            if potential.kind == "polynomial":
                assert st.metadata["cross_residual"] < dyn._ALGEBRA_TOL
            assert abs(energy - want_energy) <= 1e-12 * (1.0 + abs(want_energy))
            # Unit norm, then the global phase (at theta = 0 an odd level's two
            # equal peaks leave the sign free).
            got = st.values / np.linalg.norm(st.values)
            want = want / np.linalg.norm(want)
            overlap = np.vdot(got, want)
            got = got * (overlap / abs(overlap))
            assert float(np.max(np.abs(got - want))) <= 1e-10 * float(np.max(np.abs(want)))

    def test_level_a_narrow_band_lifts_past_the_window_is_kept(self):
        """The V = x box-edge level sits near -10.3151, and 64 modes lift it to
        -10.3071, above this window: only the residual of the first band level
        above the window sends the scan to a wider band."""
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, 0.0)
        pot = Potential.custom(lambda x: x)
        ((e_ref, _),) = dyn.stationary_solve(pot, StarKernel(0.0), 1.0, (-13.0, -9.0), spec)
        ((energy, st),) = dyn.stationary_solve(pot, StarKernel(0.0), 1.0, (-13.0, -10.312), spec)
        assert -10.32 < e_ref < -10.312
        assert abs(energy - e_ref) <= 1e-12 * (1.0 + abs(e_ref))
        assert st.metadata["band_modes"] == 512

    def test_window_membership_is_decided_by_the_settled_energy(self):
        """At theta = 0.2 the V = x box-edge level has energy about -9.85 in
        the frame at the window's midpoint and settles at -9.37739, inside
        (-9.4, -8.5); the next level settles at -8.116, above it."""
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, 0.2)
        pot = Potential.custom(lambda x: x)
        ((energy, st),) = dyn.stationary_solve(pot, StarKernel(0.2), 1.0, (-9.4, -8.5), spec)
        assert st.metadata["level"] == 0
        assert abs(energy + 9.37739) < 1e-5
        assert st.metadata["residual"] < 1e-10

    @pytest.mark.parametrize("window", [(0.2, math.inf), (-math.inf, 0.7), (math.nan, 0.7)])
    def test_rejects_a_non_finite_window(self, window):
        with pytest.raises(ValueError, match="energy window must be finite"):
            dyn.stationary_solve(
                Potential.harmonic(1.0, 1.0), StarKernel(0.1), 1.0, window, eigenstate_grid(0.1)
            )

    @pytest.mark.parametrize("window", [(0.2, 2.8, 99), (0.2,), 2.8, (0.2, 2.8j), (0.2, "hi")])
    def test_rejects_a_window_that_is_not_two_numbers(self, window):
        with pytest.raises(ValueError, match=r"energy window must be two numbers \(lo, hi\)"):
            dyn.stationary_solve(
                Potential.harmonic(1.0, 1.0), StarKernel(0.1), 1.0, window, eigenstate_grid(0.1)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "edge, node",
        [
            (lambda x: x > 11.9, r"node 510 \(11\.9062\)"),
            (lambda x: x < -12.1, r"node 0 \(-12\.125\)"),
        ],
        ids=["right-edge", "left-of-the-box"],
    )
    def test_rejects_a_non_finite_potential_sample(self, bad, edge, node):
        """A callable V that is not finite near x = 12 fails where the check
        samples the box; one not finite below x = -12.1 is first read by level
        2's translated start, in the frame at E = 2.5, whose nodes run from
        -12 - theta E / 2 = -12.125."""
        pot = Potential.custom(lambda x: np.where(edge(x), bad, 0.5 * x**2))
        with pytest.raises(ValueError, match=f"potential sample is not finite at {node}: {bad}"):
            dyn.stationary_solve(pot, StarKernel(0.1), 1.0, (0.2, 2.8), eigenstate_grid(0.1))

    def test_empty_window_returns_nothing(self):
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, 0.0)
        kern = StarKernel(0.0)
        out = dyn.stationary_solve(Potential.harmonic(1.0, 1.0), kern, 1.0, (0.6, 1.4), spec)
        assert out == []

    def test_rejects_bad_inputs(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        tdep = Potential.custom(lambda x, t: x**2 * math.cos(t))
        with pytest.raises(ValueError, match="time-independent"):
            dyn.stationary_solve(tdep, kern, 1.0, (0.2, 2.8), spec)
        with pytest.raises(ValueError, match="x-dependent"):
            dyn.stationary_solve(Potential.none(), kern, 1.0, (0.2, 2.8), spec)
        with pytest.raises(ValueError, match="energy window"):
            dyn.stationary_solve(Potential.harmonic(1.0, 1.0), kern, 1.0, (2.8, 0.2), spec)
        with pytest.raises(ValueError, match="voros"):
            dyn.stationary_solve(
                Potential.harmonic(1.0, 1.0), StarKernel(0.1, flavor="moyal"), 1.0, (0.2, 2.8), spec
            )

    @pytest.mark.parametrize(
        "theta, m, omega, window",
        [
            (0.0625, 1.0, 1.0, (0.2, 2.8)),
            (0.1, 1.0, 1.0, (0.2, 2.8)),
            (0.2, 1.0, 1.0, (0.2, 2.8)),
            (0.3, 1.0, 1.0, (0.2, 2.8)),
            (0.4, 1.0, 1.0, (0.2, 2.8)),
            (0.1, 2.0, 0.7, (0.1, 2.0)),
            (0.3, 2.0, 0.7, (0.1, 2.0)),
            (0.1, 0.5, 3.0, (1.0, 8.0)),
            (0.3, 0.5, 3.0, (1.0, 8.0)),
        ],
    )
    def test_harmonic_levels_pass_the_operator_algebra_gate(self, theta, m, omega, window):
        """||(H_theta - E) psi|| / ||psi|| carries only polynomial factors in k,
        so it stays near rounding where the star check read up to 6e4 (theta = 0.3)."""
        spec = eigenstate_grid(theta)
        pairs = dyn.stationary_solve(Potential.harmonic(m, omega), StarKernel(theta), m, window, spec)
        assert [st.metadata["level"] for _, st in pairs] == [0, 1, 2]
        for energy, st in pairs:
            assert abs(energy - (st.metadata["level"] + 0.5) * omega) <= 1e-10 * (1.0 + energy)
            assert st.metadata["cross_residual"] < dyn._ALGEBRA_TOL

    @pytest.mark.parametrize("theta", [0.1, 0.3])
    def test_closed_form_eigenstates_pass_the_same_check(self, theta):
        """The gated operator is the paper's H_theta: the closed-form level
        slices, built without the solver, satisfy it to the same bound."""
        spec = eigenstate_grid(theta)
        pot = Potential.harmonic(1.0, 1.0)
        h_theta = operators.hamiltonian(1.0, pot.coeffs, theta)
        for n in range(3):
            st = dyn.oscillator_eigenstate(OscillatorParams(1.0, 1.0, theta), n, spec)
            res = operators.apply(h_theta, st).values - st.metadata["energy"] * st.values
            assert np.linalg.norm(res) / np.linalg.norm(st.values) < dyn._ALGEBRA_TOL

    @pytest.mark.parametrize("theta", [0.1, 0.2])
    def test_custom_potential_keeps_the_windowed_star_check(self, theta, monkeypatch):
        """A callable has no operator form: its cross_residual is the windowed
        slice-star formula on the unnormalized slice, bit for bit, and ungated
        (at theta = 0.2 it reads about 1e-4 on these levels)."""
        spec = eigenstate_grid(theta)
        seen = []
        lift = phasecalc._slice_part

        def recording_lift(fld, *args, **kwargs):
            # The norm pairing lifts the same slice again.
            if not any(fld is other for other in seen):
                seen.append(fld)
            return lift(fld, *args, **kwargs)

        monkeypatch.setattr(phasecalc, "_slice_part", recording_lift)
        pot = Potential.custom(lambda x: 0.5 * x**2)
        pairs = dyn.stationary_solve(pot, StarKernel(theta), 1.0, (0.2, 2.8), spec)
        assert len(seen) == len(pairs) == 3
        v = pot.sample_space(spec.x, 0.0)
        profile = np.fft.ifft(np.fft.fft(v) * np.exp(-theta * spec.k_x**2 / 4.0)).real
        xc = 0.5 * (spec.x_min + spec.x_max)
        half = 0.75 * (spec.x_max - spec.x_min) / 2.0
        window = np.exp(-(((spec.x - xc) / half) ** 32))
        for fld, (energy, st) in zip(seen, pairs):
            vals = fld.values
            vpsi = phasecalc.phase_star(
                phasecalc.stationary_part(spec, 0.0, profile * window), lift(fld)
            ).values_at(fld.t_slice)
            kin = np.fft.ifft(spec.k_x**2 / 2.0 * np.fft.fft(vals))
            want = float(np.linalg.norm(kin + vpsi - energy * vals) / np.linalg.norm(vals))
            assert st.metadata["cross_residual"] == want
        if theta == 0.2:
            assert max(st.metadata["cross_residual"] for _, st in pairs) > dyn._ALGEBRA_TOL

    @pytest.mark.parametrize(
        "theta, window, level, potential",
        [
            (0.2, (30.0, 31.0), 30, Potential.harmonic(1.0, 1.0)),
            (0.1, (21.8, 22.8), 22, Potential.harmonic(1.0, 1.0)),
            (0.1, (-13.0, -9.0), 0, Potential.polynomial([0, 1])),
            (0.2, (-13.0, -9.0), 0, Potential.polynomial([0, 1])),
        ],
    )
    def test_a_harmonic_level_that_reaches_the_box_edge_raises(self, theta, window, level, potential):
        """Level 30 at theta = 0.2 settles 1.3e-4 off (n + 1/2), and level 22
        at theta = 0.1, the first above the gate there, carries 3.8e-10 of its
        peak at the box edge; both used to be returned without a word.  The
        ground level of the tilt V = x leans on the box edge (its residual
        reads 1.6 at theta = 0.1 and 2.2 at theta = 0.2), and as a polynomial
        it raises where the callable tilt is returned ungated."""
        spec = eigenstate_grid(theta)
        with pytest.raises(RuntimeError, match=f"operator-algebra residual .* level {level} "):
            dyn.stationary_solve(potential, StarKernel(theta), 1.0, window, spec)

    def test_a_failing_level_stops_the_solve(self, monkeypatch):
        """Each level is gated as it settles: the window (8, 40) at theta = 0.2
        raises on level 16 after 12 eigensolves.  The scan takes two on each of
        its four bands (64 to 512 modes): a count of the levels up to 40, then
        their vectors.  Levels 8 to 12 settle from their translated scan
        vectors; levels 13 to 16 reach far enough toward the box edge that the
        translate's frame residual (3e-10 to 1e-8) fails, and each re-solves
        once.  Settling every level of the window before checking any took 101."""
        calls = []
        eigh = scipy.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        with pytest.raises(RuntimeError, match="operator-algebra residual .* level 16 "):
            dyn.stationary_solve(
                Potential.harmonic(1.0, 1.0), StarKernel(0.2), 1.0, (8.0, 40.0), eigenstate_grid(0.2)
            )
        assert len(calls) == 12

    def test_the_level_below_the_edge_gate_is_returned(self):
        spec = eigenstate_grid(0.1)
        pairs = dyn.stationary_solve(
            Potential.harmonic(1.0, 1.0), StarKernel(0.1), 1.0, (20.0, 21.8), spec
        )
        assert [st.metadata["level"] for _, st in pairs] == [20, 21]
        assert all(st.metadata["cross_residual"] < dyn._ALGEBRA_TOL for _, st in pairs)

    @pytest.mark.parametrize(
        "potential, window, calls",
        [
            (Potential.harmonic(1.0, 1.0), (0.2, 2.8), 0),
            (Potential.custom(lambda x: 0.5 * x**2), (0.2, 2.8), 3),
            (Potential.custom(lambda x: 0.05 * x**4), (0.1, 3.0), 4),
            (Potential.polynomial([0, 0, 0.5, 0, 0.1]), (0.2, 5.0), 0),
        ],
        ids=["harmonic", "custom-quadratic", "custom-quartic", "polynomial-quartic"],
    )
    def test_slice_star_calls(self, potential, window, calls, monkeypatch):
        """Work count: a polynomial solve never reaches the slice star, and a
        callable potential takes one star product per returned level."""
        count = []
        star = phasecalc.phase_star

        def counting_star(*args, **kwargs):
            count.append(1)
            return star(*args, **kwargs)

        monkeypatch.setattr(phasecalc, "phase_star", counting_star)
        pairs = dyn.stationary_solve(potential, StarKernel(0.15), 1.0, window, eigenstate_grid(0.15))
        assert len(count) == calls == (0 if potential.kind == "polynomial" else len(pairs))


class TestPotential:
    def test_kinds_and_samplers(self):
        x = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(Potential.none().sample_space(x), 0.0)
        assert np.allclose(Potential.harmonic(2.0, 3.0).sample_space(x), 9.0 * x**2)
        assert Potential.harmonic(2.0, 3.0) == Potential.polynomial((0, 0, 9.0))
        quartic = Potential.polynomial([1, -2, 0, 0, 0.5])
        assert quartic.kind == "polynomial" and quartic.coeffs == (1.0, -2.0, 0.0, 0.0, 0.5)
        assert np.allclose(quartic.sample_space(x, 5.0), 1 - 2 * x + 0.5 * x**4)
        assert Potential.none().coeffs == ()
        pulse = Potential.time_pulse(lambda t: 0.25 * t)
        assert np.allclose(pulse.sample_time(np.array([2.0])), 0.5)
        assert np.allclose(pulse.sample_space(x, 2.0), 0.5)

    def test_custom_adapts_static_samplers(self):
        x = np.linspace(-1.0, 1.0, 5)
        one_arg = Potential.custom(lambda x: x**4)
        assert np.allclose(one_arg.sample_space(x, 3.7), x**4)
        assert one_arg.static
        assert Potential.none().static and Potential.harmonic(1.0, 1.0).static
        # The flag comes from the sampler's arity, never from probing V: a
        # two-argument sampler is time-dependent whatever its body does.
        assert not Potential.custom(lambda x, t: x**4).static
        assert not Potential.custom(lambda x, t: x**2 * math.cos(t)).static
        assert not Potential.time_pulse(lambda t: 0.25 * t).static

    def test_rejects_complex_potentials(self):
        bad = Potential.custom(lambda x, t: 1j * x)
        with pytest.raises(ValueError, match="real-valued"):
            bad.sample_space(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples_naming_the_node(self, bad):
        x = np.linspace(-1.0, 1.0, 5)
        custom = Potential.custom(lambda x: np.where(x > 0.2, bad, x))
        node = r"is not finite at node 3 \(0\.5\)"
        with pytest.raises(ValueError, match=f"custom potential sample {node}: {bad}"):
            custom.sample_space(x)
        pulse = Potential.time_pulse(lambda t: np.where(t > 0.2, bad, t))
        with pytest.raises(ValueError, match=f"time_pulse sample {node}: {bad}"):
            pulse.sample_time(x)
        with pytest.raises(ValueError, match=r"time_pulse sample is not finite at node 0 \(0\.7\)"):
            pulse.sample_space(x, 0.7)

    def test_rejects_unknown_kind_and_missing_callable(self):
        with pytest.raises(ValueError, match="unknown potential kind"):
            Potential("smooth")
        with pytest.raises(ValueError, match="callable"):
            Potential("custom")
        with pytest.raises(ValueError, match="mass must be > 0"):
            Potential.harmonic(math.nan, 1.0)
        with pytest.raises(ValueError, match="omega must be > 0"):
            Potential.harmonic(1.0, 0.0)
        for bad in ([0, 1j], [0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="real and finite"):
                Potential.polynomial(bad)
        with pytest.raises(ValueError, match="carries no coefficients"):
            Potential("custom", lambda x: x, (0, 1))

    def test_sample_time_needs_a_pulse(self):
        with pytest.raises(ValueError, match="time_pulse"):
            Potential.harmonic(1.0, 1.0).sample_time(np.array([0.0]))


class TestEvolve:
    def test_ground_state_density_is_stationary_over_a_period(self):
        """One full oscillator period leaves the deformed ground density fixed."""
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        pot = Potential.harmonic(1.0, 1.0)
        ((e0, g0),) = dyn.stationary_solve(pot, kern, 1.0, (0.3, 0.7), spec)
        steps = 32768
        dt = 2.0 * math.pi / steps
        traj = dyn.evolve(g0, pot, kern, 1.0, dt, steps, record_every=steps // 2)
        rho0 = dyn.slice_density(kern, traj[0]).values
        for snap in traj[1:]:
            rho = dyn.slice_density(kern, snap).values
            assert float(np.max(np.abs(rho - rho0))) < 1e-6
        # return phase is e^{-i E0 T}: the last snapshot's values, read at
        # the launch time (the pairing compares physical times), are the
        # launch values times that phase
        last = traj[-1]
        ov = symbols.induced_inner_product(
            kern, g0, Field1D(spec, last.t_slice, last.values, {**last.metadata, "elapsed": 0.0},
                              last.frame))
        assert abs(abs(ov) - 1.0) < 1e-9
        assert abs(ov / abs(ov) - np.exp(-1j * e0 * 2.0 * math.pi)) < 1e-7

    def test_free_transport_matches_quadrature(self):
        spec = GridSpec(32, 512, 0.0, 2.0, -20.0, 20.0, 0.1)
        kern = StarKernel(0.1)
        pp = PacketParams(1.0, 1.0, 0.1)
        psi0 = dyn.free_packet(pp, 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), kern, 1.0, 5e-4, 2000, record_every=1000)
        ref = dyn.free_packet(pp, 1.0, spec)
        assert float(np.max(np.abs(traj[2].values - ref.values))) < 1e-10

    def test_norm_conservation_per_thousand_steps(self):
        spec = GridSpec(32, 512, 0.0, 2.0, -20.0, 20.0, 0.1)
        kern = StarKernel(0.1)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.1), 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), kern, 1.0, 5e-4, 2000, record_every=1000)
        norms = [
            float(np.sum(dyn.slice_density(kern, s, m=1.0).values.real) * spec.dx)
            for s in traj
        ]
        assert abs(norms[1] - norms[0]) < 1e-9
        assert abs(norms[2] - norms[1]) < 1e-9

    def test_continuity_on_an_evolved_trajectory(self):
        """Snapshots assembled on the time grid satisfy d_t rho + d_x j = 0."""
        theta = 0.1
        spec = GridSpec(128, 128, 0.0, 2.0 * math.pi, -math.pi, math.pi, theta)
        kern = StarKernel(theta)
        m = 0.5
        rng = np.random.default_rng(7)
        vals0 = np.zeros(spec.n_x, dtype=complex)
        for j in range(-3, 4):
            c = complex(*rng.normal(size=2)) * math.exp(-0.5 * j * j)
            vals0 += c * np.exp(1j * j * spec.x)
        psi0 = Field1D(spec, 0.0, vals0, {})
        sub = 512
        traj = dyn.evolve(
            psi0, Potential.none(), kern, m, spec.dt / sub, sub * (spec.n_t - 1), record_every=sub
        )
        assert len(traj) == spec.n_t
        psi2d = Field2D(spec, np.stack([s.values for s in traj]), {})
        defect = symbols.continuity_defect(kern, psi2d, m)
        assert float(np.max(np.abs(defect.values))) < 1e-6

    def test_time_pulse_is_a_global_phase(self):
        # spatially uniform V(t) commutes with the kinetic term
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        shape = lambda t: 0.3 * np.exp(-(((t - 0.4) / 0.2) ** 2))
        pulsed = dyn.evolve(psi0, Potential.time_pulse(shape), kern, 1.0, 5e-4, 1600)
        free = dyn.evolve(psi0, Potential.none(), kern, 1.0, 5e-4, 1600)
        area = scipy.integrate.quad(shape, 0.0, 0.8)[0]
        got = pulsed[-1].values
        want = np.exp(-1j * area) * free[-1].values
        assert float(np.max(np.abs(got - want))) < 1e-8

    def test_custom_pulse_is_sampled_at_every_step(self):
        """A custom V(x, t) pulse lands on the time_pulse walk and e^{-i int V} free."""
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        shape = lambda t: 0.3 * np.exp(-(((t - 0.13) / 0.03) ** 2))
        custom_pot = Potential.custom(lambda x, t: shape(t) + 0.0 * x)
        custom = dyn.evolve(psi0, custom_pot, kern, 1.0, 5e-4, 1600)
        pulsed = dyn.evolve(psi0, Potential.time_pulse(shape), kern, 1.0, 5e-4, 1600)
        free = dyn.evolve(psi0, Potential.none(), kern, 1.0, 5e-4, 1600)
        area = 0.3 * 0.03 * math.sqrt(math.pi) / 2.0 * (
            scipy.special.erf((0.8 - 0.13) / 0.03) + scipy.special.erf(0.13 / 0.03)
        )
        got = custom[-1].values
        assert float(np.max(np.abs(got - pulsed[-1].values))) < 1e-12
        assert float(np.max(np.abs(got - np.exp(-1j * area) * free[-1].values))) < 1e-12

    def test_custom_spike_fails_the_step_budget(self):
        """The budget probes a per-step potential over the whole walk."""
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        shape = lambda t: 2000.0 * np.exp(-(((t - 0.13) / 0.003) ** 2))
        for pot in (Potential.time_pulse(shape), Potential.custom(lambda x, t: shape(t) + 0.0 * x)):
            with pytest.raises(ValueError, match="unstable step"):
                dyn.evolve(psi0, pot, kern, 1.0, 5e-4, 400)

    def test_time_dependent_custom_walk_is_second_order(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        pot = Potential.custom(lambda x, t: 0.05 * x**2 * np.cos(3.0 * t))
        final = {n: dyn.evolve(psi0, pot, kern, 1.0, 0.8 / n, n, record_every=n)[-1].values
                 for n in (1600, 3200, 12800)}
        errors = [float(np.max(np.abs(final[n] - final[12800]))) for n in (1600, 3200)]
        # Strang splitting: halving dt cuts the error fourfold; the reference's own
        # error (1/64 of the coarse one) lifts the ratio to (1 - 1/64)/(1/4 - 1/64).
        assert errors[0] / errors[1] == pytest.approx(4.2, abs=0.2)

    def test_snapshot_cadence_and_metadata(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), kern, 1.0, 5e-4, 10, record_every=4)
        assert [s.metadata["step"] for s in traj] == [0, 4, 8, 10]
        assert traj[0].t_slice == psi0.t_slice
        assert np.array_equal(traj[0].values, psi0.values)
        assert traj[-1].metadata["elapsed"] == pytest.approx(0.005)

    def test_rejects_unstable_step(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        g0 = dyn.oscillator_eigenstate(osc, 0, spec)
        with pytest.raises(ValueError, match="unstable step"):
            dyn.evolve(g0, Potential.harmonic(1.0, 1.0), kern, 1.0, 1e-2, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_potential_sample(self, bad):
        """Such a V used to fail later as an unstable step (inf) or as
        non-finite slice entries (nan)."""
        g0 = dyn.oscillator_eigenstate(OscillatorParams(1.0, 1.0, 0.1), 0, eigenstate_grid(0.1))
        pot = Potential.custom(lambda x: np.where(x > 11.9, bad, 0.5 * x**2))
        with pytest.raises(ValueError, match=f"potential sample is not finite at node 511 .*: {bad}"):
            dyn.evolve(g0, pot, StarKernel(0.1), 1.0, 2e-4, 10)

    def test_rejects_time_dependence_under_deformation(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        g0 = dyn.oscillator_eigenstate(osc, 0, spec)
        pulse = Potential.time_pulse(lambda t: 0.1 * t)
        with pytest.raises(ValueError, match="single-"):
            dyn.evolve(g0, pulse, kern, 1.0, 1e-4, 10)

    def test_rejects_a_two_argument_pulse_under_deformation(self):
        # The pulse is negligible away from t = 0.13, where no fixed sample
        # time sees it; the sampler's two arguments make it time-dependent.
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        g0 = dyn.oscillator_eigenstate(OscillatorParams(m=1.0, omega=1.0, theta=0.1), 0, spec)
        pulse = Potential.custom(lambda x, t: 0.3 * np.exp(-(((t - 0.13) / 0.03) ** 2)) + 0.0 * x)
        with pytest.raises(ValueError, match="single-.*one-argument V\\(x\\)"):
            dyn.evolve(g0, pulse, kern, 1.0, 2e-4, 1000)

    def test_one_argument_custom_is_sampled_once(self):
        # A static V(x): one sample for the step budget and one for the phase.
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        calls = []

        def quadratic(x):
            calls.append(1)
            return 0.05 * x**2

        walk = dyn.evolve(psi0, Potential.custom(quadratic), kern, 1.0, 5e-4, 1600)
        assert len(calls) <= 2
        same = dyn.evolve(psi0, Potential.harmonic(1.0, math.sqrt(0.1)), kern, 1.0, 5e-4, 1600)
        assert float(np.max(np.abs(walk[-1].values - same[-1].values))) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_unframed_start_grows_only_kept_modes(self):
        # At theta = 0.2 on this slice theta k_max^2/4 is about 900, past the
        # exponent range of a double; the cut modes must stay zero, not overflow.
        spec = GridSpec(8, 1024, 0.0, 0.2, -12.0, 12.0, 0.2)
        kern = StarKernel(0.2)
        psi0 = Field1D(spec, 0.0, np.exp(-spec.x**2 / 2.0) / math.pi**0.25, {"energy": 0.5})
        traj = dyn.evolve(psi0, Potential.harmonic(1.0, 1.0), kern, 1.0, 1e-5, 2)
        first, last = (symbols.induced_inner_product(kern, s, s) for s in (traj[0], traj[-1]))
        assert abs(last - first) <= 1e-12 * abs(first)

    def test_requires_energy_tag_for_deformed_potentials(self):
        spec = GridSpec(32, 512, 0.0, 2.0, -20.0, 20.0, 0.1)
        kern = StarKernel(0.1)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.1), 0.0, spec)
        with pytest.raises(ValueError, match="metadata\\['energy'\\]"):
            dyn.evolve(psi0, Potential.harmonic(1.0, 1.0), kern, 1.0, 1e-4, 10)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("count", ["steps", "record_every"])
    def test_rejects_a_non_finite_step_count(self, count, value):
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        counts = {"steps": 10, "record_every": 1, count: value}
        with pytest.raises(ValueError, match=f"{count} must be a positive integer"):
            dyn.evolve(psi0, Potential.none(), StarKernel(0.0), 1.0, 1e-3, **counts)

    def test_accepts_integral_float_step_counts(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), StarKernel(0.0), 1.0, 1e-4, 4.0, record_every=2.0)
        assert [snap.metadata["step"] for snap in traj] == [0, 2, 4]

    def test_rejects_malformed_stepping(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        with pytest.raises(ValueError, match="dt"):
            dyn.evolve(psi0, Potential.none(), kern, 1.0, 0.0, 10)
        with pytest.raises(ValueError, match="steps"):
            dyn.evolve(psi0, Potential.none(), kern, 1.0, 1e-3, 0)
        with pytest.raises(ValueError, match="record_every"):
            dyn.evolve(psi0, Potential.none(), kern, 1.0, 1e-3, 10, record_every=0)
        for m in (-1.0, math.nan):
            with pytest.raises(ValueError, match="mass must be > 0"):
                dyn.evolve(psi0, Potential.none(), kern, m, 1e-3, 10)


class TestSliceDensity:
    def test_commutative_limit_is_modulus_squared(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -10.0, 10.0, 0.0)
        kern = StarKernel(0.0)
        psi = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        rho = dyn.slice_density(kern, psi)
        assert rel_err(rho.values, np.abs(psi.values) ** 2) < 1e-14

    @pytest.mark.parametrize("theta", [0.0625, 0.2, 0.4])
    def test_frame_route_matches_the_partner_sum(self, theta):
        # A framed eigenstate reads its own frame, its unframed copy one grown
        # by phasecalc._frames; both match the mode-pair sum on the values.
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        for n in range(4):
            framed = dyn.oscillator_eigenstate(osc, n, spec)
            bare = Field1D(spec, framed.t_slice, framed.values, dict(framed.metadata))
            want = tagged_pair_density(framed.values, framed.metadata["energy"], spec.k_x, theta)
            for fld in (framed, bare):
                assert rel_err(dyn.slice_density(kern, fld).values, want) < 1e-13

    def test_tagged_eigenstate_reproduces_ground_density_moments(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        g0 = dyn.oscillator_eigenstate(osc, 0, spec)
        rho = dyn.slice_density(kern, g0)
        total = float(np.sum(rho.values.real) * spec.dx)
        # integral carries the sqrt(2 pi theta) prefactor of the density display
        assert total == pytest.approx(math.sqrt(2.0 * math.pi * 0.1), rel=1e-9)
        mean, var = density_moments(spec.x, rho.values, spec.dx)
        assert mean == pytest.approx(0.05, abs=1e-8)
        assert var == pytest.approx(0.55, abs=1e-7)

    @pytest.mark.parametrize("theta", [0.0625, 0.15, 0.2])
    @pytest.mark.parametrize("m, omega", [(1.0, 1.0), (1.3, 0.8)])
    def test_eigenstate_density_moments_have_closed_forms(self, m, omega, theta):
        """Mass sqrt(2 pi theta), mean theta E_n and variance (n + 1/2)/(m omega)
        + theta/2: the commutative level's spread, smoothed by a variance-theta/2
        Gaussian and shifted by theta E_n/2 twice."""
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        osc = OscillatorParams(m, omega, theta)
        for n in range(4):
            rho = dyn.slice_density(kern, dyn.oscillator_eigenstate(osc, n, spec)).values
            mean, var = density_moments(spec.x, rho, spec.dx)
            total = float(np.sum(rho.real) * spec.dx)
            assert total == pytest.approx(math.sqrt(2.0 * math.pi * theta), rel=1e-12)
            assert mean == pytest.approx(theta * osc.level_energy(n), rel=1e-12)
            assert var == pytest.approx((n + 0.5) / (m * omega) + theta / 2.0, rel=1e-12)

    def test_energy_and_mass_routes_agree_on_shell(self):
        spec = GridSpec(8, 128, 0.0, 0.2, -math.pi, math.pi, 0.05)
        kern = StarKernel(0.05)
        rng = np.random.default_rng(11)
        for _ in range(8):
            p = float(rng.integers(-5, 6))
            vals = np.exp(1j * p * spec.x)
            tagged = Field1D(spec, 0.0, vals, {"energy": p * p / 2.0})
            plain = Field1D(spec, 0.0, vals, {})
            rho_e = dyn.slice_density(kern, tagged)
            rho_m = dyn.slice_density(kern, plain, m=1.0)
            assert rel_err(rho_e.values, rho_m.values) < 1e-12
        # Two waves of one energy, p and -p, in closed form: the cross term
        # carries the weight e^{(theta/2) conj(m_p) m_q}, m_k = -iE - k.
        p, a, b = 3.0, 0.8 - 0.3j, -0.5 + 1.1j
        energy = p * p / 2.0
        vals = a * np.exp(1j * p * spec.x) + b * np.exp(-1j * p * spec.x)
        m_p, m_q = -1j * energy - p, -1j * energy + p
        half = kern.theta / 2.0
        cross = np.conj(a) * b * np.exp(half * np.conj(m_p) * m_q - 2j * p * spec.x)
        want = math.sqrt(2.0 * math.pi * kern.theta) * (
            abs(a) ** 2 * math.exp(half * abs(m_p) ** 2)
            + abs(b) ** 2 * math.exp(half * abs(m_q) ** 2)
            + 2.0 * cross.real
        )
        rho_e = dyn.slice_density(kern, Field1D(spec, 0.0, vals, {"energy": energy}))
        rho_m = dyn.slice_density(kern, Field1D(spec, 0.0, vals, {}), m=1.0)
        assert rel_err(rho_e.values, want) < 1e-12
        assert rel_err(rho_m.values, want) < 1e-12

    def test_positive_on_random_band_limited_states(self):
        spec = GridSpec(8, 128, 0.0, 0.2, -math.pi, math.pi, 0.05)
        kern = StarKernel(0.05)
        rng = np.random.default_rng(23)
        for _ in range(20):
            amps = np.zeros(spec.n_x, dtype=complex)
            for j in list(range(5)) + list(range(spec.n_x - 4, spec.n_x)):
                amps[j] = rng.standard_normal() + 1j * rng.standard_normal()
            vals = np.fft.ifft(amps) * spec.n_x
            fld = Field1D(spec, 0.0, vals, {"energy": 0.7})
            rho = dyn.slice_density(kern, fld)
            assert float(np.min(rho.values.real)) > -1e-12

    def test_an_overflowing_weight_is_named(self):
        # A Gaussian plus 1e-3 of one mode on the 1024-point +-12 slice at
        # theta = 0.2.  At mode 500 the frame's growth e^{theta k^2/4} = e^{857}
        # is beyond range, and _frames names it for the density and the walk
        # alike; at mode 400 (e^{548}) the frame is finite but |frame|^2 is
        # not, and at mode 200 the on-shell weight of E_k = k^2/2 overflows.
        spec = GridSpec(8, 1024, 0.0, 0.2, -12.0, 12.0, 0.2)
        kern = StarKernel(0.2)

        def plus_mode(j, meta):
            vals = np.exp(-(spec.x**2) / 2.0) + 1e-3 * np.exp(1j * spec.k_x[j] * spec.x)
            return Field1D(spec, 0.0, vals, meta)

        grown = "Weyl frame grown from slice 0's values is not finite"
        with pytest.raises(ValueError, match=grown):
            dyn.slice_density(kern, plus_mode(500, {"energy": 0.5}))
        harmonic = Potential.harmonic(1.0, 1.0)
        with pytest.raises(ValueError, match=grown):
            dyn.evolve(plus_mode(500, {"energy": 0.5}), harmonic, kern, 1.0, 1e-5, 2)
        with pytest.raises(ValueError, match="slice density is not finite"):
            dyn.slice_density(kern, plus_mode(400, {"energy": 0.5}))
        with pytest.raises(ValueError, match="slice density is not finite"):
            dyn.slice_density(kern, plus_mode(200, {}), m=1.0)

    def test_an_unframed_tagged_slice_converts_once(self, monkeypatch):
        theta = 0.15
        spec = eigenstate_grid(theta)
        psi = dyn.oscillator_eigenstate(OscillatorParams(1.0, 1.0, theta), 1, spec)
        bare = Field1D(spec, psi.t_slice, psi.values, dict(psi.metadata))
        calls = []
        frames = phasecalc._frames

        def counted(*args):
            calls.append(1)
            return frames(*args)

        monkeypatch.setattr(phasecalc, "_frames", counted)
        dyn.slice_density(StarKernel(theta), bare)
        assert len(calls) == 1
        harmonic = Potential.harmonic(1.0, 1.0)
        dyn.evolve(bare, harmonic, StarKernel(theta), 1.0, 2e-4, 20, record_every=10)
        assert len(calls) == 2

    def test_needs_a_frequency_scale_when_deformed(self):
        spec = GridSpec(8, 128, 0.0, 0.2, -math.pi, math.pi, 0.05)
        kern = StarKernel(0.05)
        fld = Field1D(spec, 0.0, np.exp(1j * spec.x), {})
        with pytest.raises(ValueError, match="energy.*or a mass"):
            dyn.slice_density(kern, fld)
        with pytest.raises(ValueError, match="mass must be > 0"):
            dyn.slice_density(kern, fld, m=-1.0)

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    def test_energy_tagged_row_matches_plane_density(self, theta):
        """The slice density with d_t -> -iE and the plane star-square must
        give the same density for a stationary field q(x) e^{-iEt}."""
        energy = 0.5
        spec = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        kern = StarKernel(theta)
        field = Field2D(
            spec,
            np.exp(-((spec.x[None, :] - 0.4) ** 2) / 1.5 + 0.7j * spec.x[None, :])
            * np.exp(-1j * energy * spec.t[:, None]),
        )
        row = Field1D(spec, spec.t[0], field.values[0], {"energy": energy})
        rho_slice = dyn.slice_density(kern, row)
        rho_plane = symbols.probability_density(kern, field)
        assert rel_err(rho_slice.values, rho_plane.values[0]) < 1e-14

    @pytest.mark.parametrize("theta", [0.05, 0.2])
    def test_tagged_slice_matches_the_literal_phase_star(self, theta):
        # sqrt(2 pi theta) conj(psi) * psi of the lifted slice, from the
        # literal x-mode-pair oracle rather than the library's sum.
        half = 4.0 * math.sqrt(theta)
        spec = GridSpec(8, 32, 0.0, 0.2, -half, half, theta)
        rng = np.random.default_rng(17)
        amps = np.zeros(spec.n_x, dtype=complex)
        for j in range(-4, 5):
            amps[j] = complex(*rng.standard_normal(2)) * math.exp(-0.25 * j * j)
        fld = Field1D(spec, 0.0, np.fft.ifft(amps) * spec.n_x, {"energy": 0.7})
        part = phasecalc._slice_part(fld)
        bra = phasecalc.conjugate(part)
        coef = brute_force_phase_star(bra.coef, bra.a, part.coef, part.a, spec.k_x, theta)
        want = math.sqrt(2.0 * math.pi * theta) * coef[0]
        assert rel_err(dyn.slice_density(StarKernel(theta), fld).values, want) < 1e-12


@pytest.mark.parametrize(
    "entry", ["slice_density", "evolve", "stationary_solve", "transition_amplitude"]
)
def test_moyal_kernel_rejected(entry):
    # Each entry point rejects a Moyal kernel, and a Voros kernel at another theta.
    spec = GridSpec(8, 128, 0.0, 0.2, -math.pi, math.pi, 0.05)
    harmonic = Potential.harmonic(1.0, 1.0)
    psi = Field1D(spec, 0.0, np.exp(-(spec.x**2)), {"energy": 0.5})
    calls = {
        "slice_density": lambda kern: dyn.slice_density(kern, psi),
        "evolve": lambda kern: dyn.evolve(psi, harmonic, kern, 1.0, 1e-4, 10),
        "stationary_solve": lambda kern: dyn.stationary_solve(harmonic, kern, 1.0, (0.2, 2.8), spec),
        "transition_amplitude": lambda kern: dyn.transition_amplitude(
            lambda t: 0.05 + 0.0 * t, psi, psi, 12.0, kern.theta, kern
        ),
    }
    with pytest.raises(ValueError, match="defined through the Voros pairing.*got flavor 'moyal'"):
        calls[entry](StarKernel(0.05, flavor="moyal"))
    with pytest.raises(ValueError, match="kernel theta 0.1 does not match grid theta 0.05"):
        calls[entry](StarKernel(0.1))


class TestTransitionAmplitude:
    @staticmethod
    def _pulse(V0=0.05, tau=1.0, T=12.0):
        return lambda t: V0 * np.exp(-(((t - T / 2) / tau) ** 2))

    @pytest.mark.parametrize("n", [33, 101, 2001])
    def test_simpson_rule_matches_scipy(self, n):
        ts = np.linspace(0.0, 12.0, n)
        y = self._pulse()(ts) * np.exp(1.3j * ts)
        want = scipy.integrate.simpson(y, x=ts)
        assert abs(dyn._simpson(y, ts[1] - ts[0]) - want) <= 1e-15 * abs(want)

    def test_a_time_pulse_potential_gives_the_callable_amplitude(self):
        theta = 0.1
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        s0, s1 = (dyn.oscillator_eigenstate(osc, n, spec) for n in (0, 1))
        pulse = self._pulse()
        bare = dyn.transition_amplitude(pulse, s0, s1, 12.0, theta, kern)
        wrapped = dyn.transition_amplitude(Potential.time_pulse(pulse), s0, s1, 12.0, theta, kern)
        assert wrapped == bare
        with pytest.raises(ValueError, match="must be a time_pulse"):
            dyn.transition_amplitude(Potential.harmonic(1.0, 1.0), s0, s1, 12.0, theta, kern)
        with pytest.raises(TypeError, match="pulse must be a Potential or callable"):
            dyn.transition_amplitude(0.05, s0, s1, 12.0, theta, kern)

    def test_frozen_reference_amplitude(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        s0 = dyn.oscillator_eigenstate(osc, 0, spec)
        s1 = dyn.oscillator_eigenstate(osc, 1, spec)
        amp = dyn.transition_amplitude(self._pulse(), s0, s1, 12.0, 0.1, kern)
        assert amp.real == pytest.approx(2.2851632276e-03, rel=1e-6)
        assert amp.imag == pytest.approx(-6.6499664756e-04, rel=1e-6)

    def test_against_coupled_coefficient_integration(self):
        """First-order amplitude vs direct integration of the coefficient
        system in a truncated eigenbasis; they differ at second order."""
        theta = 0.1
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        n_basis = 4
        states = [dyn.oscillator_eigenstate(osc, n, spec) for n in range(n_basis)]
        energies = [osc.level_energy(n) for n in range(n_basis)]
        overlap = np.array(
            [[symbols.induced_inner_product(kern, a, b) for b in states] for a in states]
        )
        deriv = np.array(
            [
                [
                    symbols.induced_inner_product(kern, a, spectral_derivative(b, "x"))
                    for b in states
                ]
                for a in states
            ]
        )
        T, tau, V0 = 12.0, 1.0, 0.05
        pulse = self._pulse(V0, tau, T)
        dpulse = lambda t: pulse(t) * (-2.0 * (t - T / 2) / tau**2)

        def rhs(t, y):
            c = y[:n_basis] + 1j * y[n_basis:]
            v, vd = pulse(t), dpulse(t)
            dc = np.zeros(n_basis, dtype=complex)
            for f in range(n_basis):
                for i in range(n_basis):
                    h = v * overlap[f, i] + (theta / 2.0) * vd * (
                        -1j * energies[i] * overlap[f, i] + 1j * deriv[f, i]
                    )
                    dc[f] += -1j * np.exp(1j * (energies[f] - energies[i]) * t) * h * c[i]
            return np.concatenate([dc.real, dc.imag])

        y0 = np.zeros(2 * n_basis)
        y0[0] = 1.0
        sol = scipy.integrate.solve_ivp(rhs, (0.0, T), y0, rtol=1e-11, atol=1e-13, max_step=0.05)
        c_final = sol.y[:n_basis, -1] + 1j * sol.y[n_basis:, -1]
        amp = dyn.transition_amplitude(pulse, states[0], states[1], T, theta, kern)
        assert abs(abs(amp) - abs(c_final[1])) / abs(c_final[1]) < 1.5e-3
        # the 0 -> 2 channel is parity blocked at first order
        assert abs(c_final[2]) < 1e-5

    def test_constant_drive_cannot_transition(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        s0 = dyn.oscillator_eigenstate(osc, 0, spec)
        s1 = dyn.oscillator_eigenstate(osc, 1, spec)
        amp = dyn.transition_amplitude(lambda t: 0.07 + 0.0 * t, s0, s1, 12.0, 0.1, kern)
        assert abs(amp) < 1e-12

    def test_parity_blocked_channel(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        s0 = dyn.oscillator_eigenstate(osc, 0, spec)
        s2 = dyn.oscillator_eigenstate(osc, 2, spec)
        amp = dyn.transition_amplitude(self._pulse(), s0, s2, 12.0, 0.1, kern)
        assert abs(amp) < 1e-12

    def test_doubling_theta_quadruples_the_rate(self):
        rates = {}
        for theta in (0.02, 0.04):
            spec = GridSpec(8, 1024, 0.0, 0.03, -12.0, 12.0, theta)
            kern = StarKernel(theta)
            osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
            s0 = dyn.oscillator_eigenstate(osc, 0, spec)
            s1 = dyn.oscillator_eigenstate(osc, 1, spec)
            amp = dyn.transition_amplitude(self._pulse(), s0, s1, 12.0, theta, kern)
            rates[theta] = dyn.transition_rate(amp, 12.0)
        # 4 e^{-0.01} from the matrix-element damping
        assert rates[0.04] / rates[0.02] == pytest.approx(4.0 * math.exp(-0.01), rel=1e-3)
        assert rates[0.02] == pytest.approx(1.965117186364e-08, rel=1e-6)

    def test_warns_when_drive_leaves_perturbative_regime(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        s0 = dyn.oscillator_eigenstate(osc, 0, spec)
        s1 = dyn.oscillator_eigenstate(osc, 1, spec)
        with pytest.warns(UserWarning, match="perturbative regime"):
            dyn.transition_amplitude(self._pulse(V0=80.0), s0, s1, 12.0, 0.1, kern)

    def test_rejects_malformed_inputs(self):
        spec = eigenstate_grid(0.1)
        kern = StarKernel(0.1)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=0.1)
        s0 = dyn.oscillator_eigenstate(osc, 0, spec)
        s1 = dyn.oscillator_eigenstate(osc, 1, spec)
        untagged = Field1D(spec, 0.0, s0.values, {})
        with pytest.raises(ValueError, match="metadata\\['energy'\\]"):
            dyn.transition_amplitude(self._pulse(), untagged, s1, 12.0, 0.1, kern)
        with pytest.raises(ValueError, match="theta"):
            dyn.transition_amplitude(self._pulse(), s0, s1, 12.0, 0.2, kern)
        with pytest.raises(ValueError, match="duration"):
            dyn.transition_amplitude(self._pulse(), s0, s1, 0.0, 0.1, kern)
        with pytest.raises(ValueError, match="time_pulse"):
            dyn.transition_amplitude(Potential.harmonic(1.0, 1.0), s0, s1, 12.0, 0.1, kern)
        nan_pulse = lambda t: np.full_like(t, math.nan)
        with pytest.raises(ValueError, match=r"time_pulse sample is not finite at node 0 \(0\): nan"):
            dyn.transition_amplitude(nan_pulse, s0, s1, 12.0, 0.1, kern)

    def test_rate_arithmetic(self):
        assert dyn.transition_rate(3.0 + 4.0j, 5.0) == pytest.approx(5.0)
        assert dyn.transition_rate(0.0, 2.0) == 0.0
        with pytest.raises(ValueError, match="duration"):
            dyn.transition_rate(1.0, 0.0)


class TestTabularExport:
    def test_trajectory_csv_shape_and_determinism(self):
        spec = GridSpec(8, 64, 0.0, 1.0, -8.0, 8.0, 0.0)
        kern = StarKernel(0.0)
        psi0 = dyn.free_packet(PacketParams(1.0, 1.0, 0.0), 0.0, spec)
        traj = dyn.evolve(psi0, Potential.none(), kern, 1.0, 1e-3, 4, record_every=2)
        text = dyn.trajectory_csv(traj, kern)
        lines = text.strip().split("\n")
        assert lines[0] == "step,t,x,re,im,rho"
        assert len(lines) == 1 + 3 * 64
        assert text == dyn.trajectory_csv(traj, kern)

    def test_empty_trajectory_gives_header(self):
        kern = StarKernel(0.0)
        assert dyn.trajectory_csv([], kern) == "step,t,x,re,im,rho\n"

    def test_spectrum_csv(self):
        text = dyn.spectrum_csv([0.5, 1.5])
        assert text == "n,E\n0,0.5\n1,1.5\n"

    def test_rate_scan_csv(self):
        text = dyn.rate_scan_csv([(0.02, 1.5e-8), (0.04, 6.0e-8)])
        lines = text.strip().split("\n")
        assert lines[0] == "theta,rate"
        assert lines[1].startswith("0.02,")


def seam_error(fld: Field1D) -> tuple[float, float]:
    """(|damped frame - values| / peak, the slice's seam): the seam is the larger
    edge magnitude of values and frame relative to their peaks."""
    spec, energy = fld.spec, fld.metadata.get("energy", 0.0)
    weight = np.exp(-spec.theta * (energy**2 + spec.k_x**2) / 4.0)
    damped = np.fft.ifft(np.fft.fft(fld.frame) * weight)
    err = float(np.max(np.abs(damped - fld.values))) / float(np.max(np.abs(fld.values)))
    return err, max(_edge_magnitude(fld.values, 0), _edge_magnitude(fld.frame, 0))


class TestFrames:
    """Every library-built frame damps back onto its values to within the
    slice's own seam (100 (seam + eps) of the peak), and slices built from
    new values carry none."""

    @staticmethod
    def assert_frame_holds(fld: Field1D) -> None:
        assert fld.frame is not None
        err, seam = seam_error(fld)
        assert err <= 100.0 * (seam + np.finfo(float).eps), (err, seam)

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.4, 2.5])
    def test_eigenstates(self, theta):
        # theta m omega = 2.5 > 2 puts the closed form's g^2 above zero.
        half = 24.0 if theta > 1 else 12.0
        spec = GridSpec(8, 512, 0.0, 0.2, -half, half, theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        for n in (0, 1, 3, 6):
            fld = dyn.oscillator_eigenstate(osc, n, spec, t=0.1)
            self.assert_frame_holds(fld)
            # The induced norm of a framed slice is its frame's L2 norm.
            assert float(np.sum(np.abs(fld.frame) ** 2)) * spec.dx == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.3])
    def test_stationary_levels_and_their_evolution(self, theta):
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        for potential in (Potential.harmonic(1.0, 1.0), Potential.polynomial([0, 0, 0.5, 0, 0.1])):
            pairs = dyn.stationary_solve(potential, kern, 1.0, (0.2, 2.8), spec)
            assert pairs
            for _, fld in pairs:
                self.assert_frame_holds(fld)
                norm_sq = float(np.sum(np.abs(fld.frame) ** 2)) * spec.dx
                assert norm_sq == pytest.approx(1.0, abs=1e-14)
            for snap in dyn.evolve(pairs[-1][1], potential, kern, 1.0, 1e-4, 40, record_every=20):
                self.assert_frame_holds(snap)

    @pytest.mark.parametrize("theta", [0.1, 0.4])
    def test_derivatives_and_operators_carry_the_frame(self, theta):
        spec = eigenstate_grid(theta)
        osc = OscillatorParams(m=1.0, omega=1.0, theta=theta)
        psi = dyn.oscillator_eigenstate(osc, 2, spec)
        for order in (1, 2):
            self.assert_frame_holds(spectral_derivative(psi, "x", order))
        for op in (operators.p_x(), operators.x_theta_l(theta), operators.x_c(theta),
                   operators.hamiltonian(1.0, [0.0, 0.3, 0.5], theta)):
            self.assert_frame_holds(operators.apply(op, psi))

    def test_free_evolution_keeps_the_frame(self):
        spec = eigenstate_grid(0.2)
        psi = dyn.oscillator_eigenstate(OscillatorParams(1.0, 1.0, 0.2), 1, spec)
        kern = StarKernel(0.2)
        for snap in dyn.evolve(psi, Potential.none(), kern, 1.0, 2e-4, 20, record_every=10):
            self.assert_frame_holds(snap)

    def test_slices_built_from_new_values_carry_none(self):
        theta = 0.2
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        psi = dyn.oscillator_eigenstate(OscillatorParams(1.0, 1.0, theta), 0, spec)
        bare = Field1D(spec, psi.t_slice, psi.values, dict(psi.metadata))
        assert bare.frame is None
        assert dyn.slice_density(kern, psi).frame is None
        assert operators.apply(operators.p_x(), bare).frame is None
        assert spectral_derivative(bare, "x").frame is None
        packet = dyn.free_packet(PacketParams(1.0, 1.0, theta), 0.0, spec)
        assert packet.frame is None
        harmonic = Potential.harmonic(1.0, 1.0)
        assert all(s.frame is None for s in dyn.evolve(bare, harmonic, kern, 1.0, 2e-4, 10, 5))
        box = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        _, density = dyn.oscillator_ground(OscillatorParams(1.0, 1.0, theta), box)
        assert density.frame is None

    def test_unframed_start_keeps_the_cut_values_route(self):
        # A framed start and its unframed copy walk the same state: their
        # snapshots agree to rounding, and only the framed walk keeps frames.
        theta = 0.15
        spec = eigenstate_grid(theta)
        kern = StarKernel(theta)
        psi = dyn.oscillator_eigenstate(OscillatorParams(1.0, 1.0, theta), 1, spec)
        bare = Field1D(spec, psi.t_slice, psi.values, dict(psi.metadata))
        harmonic = Potential.harmonic(1.0, 1.0)
        framed = dyn.evolve(psi, harmonic, kern, 1.0, 2e-4, 20, record_every=10)
        plain = dyn.evolve(bare, harmonic, kern, 1.0, 2e-4, 20, record_every=10)
        for a, b in zip(framed, plain):
            assert rel_err(a.values, b.values) < 1e-13
            assert b.frame is None
