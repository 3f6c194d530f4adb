"""Symbol-calculus checks: overlaps, induced products, density, projections."""

import json
import math

import numpy as np
import pytest

from oracles import brute_force_star, dense_quasi_projection
from starqm import dynamics, operators, symbols
from starqm.fieldgrid import Field1D, Field2D, GridSpec, _edge_magnitude, sample_field
from starqm.fieldgrid import spectral_derivative
from starqm.star import StarKernel, star
from starqm.symbols import CoherentPoint, MomentumLabel


def band_limited(spec: GridSpec, rng: np.random.Generator, band: int = 4) -> Field2D:
    """Random field supported on low Fourier modes only."""
    amps = np.zeros((spec.n_t, spec.n_x), dtype=np.complex128)
    rows = list(range(band + 1)) + list(range(spec.n_t - band, spec.n_t))
    cols = list(range(band + 1)) + list(range(spec.n_x - band, spec.n_x))
    for i in rows:
        for j in cols:
            amps[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return Field2D(spec, np.fft.ifft2(amps) * spec.n_t * spec.n_x)


def ground_state_sampler(theta: float, m: float, omega: float):
    """Oscillator ground-state symbol (unnormalized): shifted Gaussian times phase."""
    e0 = 0.5 * omega
    width_sq = theta / 2.0 + 1.0 / (m * omega)
    center = theta * e0 / 2.0

    def f(t, x):
        return np.exp(-((x - center) ** 2) / (2.0 * width_sq)) * np.exp(-1j * e0 * t)

    return f, e0, width_sq


class TestMomentumSymbol:
    def test_zero_label_is_constant(self):
        sym = symbols.momentum_symbol(MomentumLabel(E=0.0, p=0.0), theta=0.7)
        assert sym(0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi))
        assert sym(3.0, -2.0) == pytest.approx(0.15915494309189535, abs=1e-12)

    def test_commutative_limit_has_unit_phase_at_origin(self):
        sym = symbols.momentum_symbol(MomentumLabel(E=1.0, p=1.0), theta=0.0)
        assert sym(0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_damping_prefactor(self):
        # (theta/4)(E^2+p^2) = 0.1 * 5 = 0.5
        sym = symbols.momentum_symbol(MomentumLabel(E=1.0, p=2.0), theta=0.4)
        assert abs(sym(0.0, 0.0)) == pytest.approx(0.0965323526300539, abs=1e-12)
        # modulus is coordinate independent; phase follows the wave argument
        t, x = 0.3, -0.2
        assert abs(sym(t, x)) == pytest.approx(abs(sym(0.0, 0.0)), rel=1e-14)
        want = abs(sym(0.0, 0.0)) * np.exp(-1j * (1.0 * t - 2.0 * x))
        assert sym(t, x) == pytest.approx(want, rel=1e-14)

    def test_vectorized_over_grids(self):
        spec = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        fld = sample_field(symbols.momentum_symbol(MomentumLabel(E=2.0, p=1.0), 0.0), spec)
        tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
        assert np.allclose(fld.values, np.exp(-1j * (2 * tt - xx)) / (2 * math.pi))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="finite"):
            MomentumLabel(E=math.nan, p=0.0)
        with pytest.raises(ValueError, match="theta"):
            symbols.momentum_symbol(MomentumLabel(E=0.0, p=0.0), theta=-0.1)


class TestBasisOverlap:
    def test_coincident_points(self):
        a = CoherentPoint(t=0.3, x=-1.2, theta=1.0)
        assert symbols.basis_overlap(a, a) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)

    def test_worked_separation(self):
        # theta = 0.5: (1/(2 pi * 0.5)) e^{-0.25}
        a = CoherentPoint(t=0.0, x=0.0, theta=0.5)
        b = CoherentPoint(t=0.5, x=0.0, theta=0.5)
        assert symbols.basis_overlap(a, b) == pytest.approx(
            math.exp(-0.25) / math.pi, abs=1e-12
        )
        assert symbols.basis_overlap(a, b) == pytest.approx(0.2479000, abs=1e-7)

    def test_symmetric_positive_and_decaying(self):
        a = CoherentPoint(t=0.1, x=0.4, theta=0.3)
        b = CoherentPoint(t=-0.7, x=1.1, theta=0.3)
        assert symbols.basis_overlap(a, b) == symbols.basis_overlap(b, a)
        assert symbols.basis_overlap(a, b) > 0
        far = CoherentPoint(t=0.1 + 50 * math.sqrt(0.3), x=0.4, theta=0.3)
        assert symbols.basis_overlap(a, far) < 1e-12

    def test_scale_mismatch_rejected(self):
        a = CoherentPoint(t=0.0, x=0.0, theta=0.2)
        b = CoherentPoint(t=0.0, x=0.0, theta=0.3)
        with pytest.raises(ValueError, match="different scales"):
            symbols.basis_overlap(a, b)

    def test_coherent_point_validation(self):
        with pytest.raises(ValueError, match="theta > 0"):
            CoherentPoint(t=0.0, x=0.0, theta=0.0)
        with pytest.raises(ValueError, match="theta > 0"):
            CoherentPoint(t=0.0, x=0.0, theta=math.inf)
        with pytest.raises(ValueError, match="sigma > 0"):
            symbols.gauss_delta(0.0, math.inf)
        z = CoherentPoint(t=1.0, x=2.0, theta=0.5).z
        assert z == pytest.approx((1.0 + 2.0j) / 1.0)


class TestCoherentFrame:
    """The closed-form Weyl amplitude that coherent_symbol stores as its frame."""

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    @pytest.mark.parametrize("centre", [(0.0, 0.0), (1.5, 0.7), (2.0, -2.0)])
    def test_damped_frame_is_the_symbol(self, theta, centre):
        # Damping each mode by e^{-theta |k|^2/4} is the well-conditioned
        # direction.  It returns the periodic sum of the symbol's Gaussian,
        # which differs from the sampled symbol by the tail of its nearest
        # periodic image: no more than the symbol's own edge magnitude.
        s = math.sqrt(theta)
        spec = GridSpec(128, 128, -8 * s, 8 * s, -8 * s, 8 * s, theta)
        psi = symbols.coherent_symbol(CoherentPoint(centre[0] * s, centre[1] * s, theta), spec)
        k_sq = spec.k_t[:, None] ** 2 + spec.k_x[None, :] ** 2
        damped = np.fft.ifft2(np.fft.fft2(psi.frame) * np.exp(-theta * k_sq / 4))
        peak = np.max(np.abs(psi.values))
        seam = max(_edge_magnitude(psi.values, 0), _edge_magnitude(psi.values, 1))
        assert np.max(np.abs(damped - psi.values)) <= seam * peak

    def test_fields_built_from_new_values_carry_no_frame(self):
        theta = 0.1
        s = math.sqrt(theta)
        spec = GridSpec(64, 64, -8 * s, 8 * s, -8 * s, 8 * s, theta)
        psi = symbols.coherent_symbol(CoherentPoint(0.0, 0.0, theta), spec)
        assert psi.frame is not None
        derived = [
            operators.apply(operators.x_theta_l(theta), psi),
            operators.apply(operators.p_x(), psi),
            operators.boost_transform(psi, 0.0, 1.0),
            spectral_derivative(psi, "x"),
            symbols.quasi_projection_apply(0.0, psi),
        ]
        assert all(fld.frame is None for fld in derived)


class TestInducedInnerProduct:
    def test_commutative_limit_is_l2(self):
        spec = GridSpec(8, 64, 0.0, 1.0, -3.0, 3.0, 0.0)
        x = spec.x
        psi = Field1D(spec, 0.5, np.exp(-(x**2)) * np.exp(0.7j * x))
        phi = Field1D(spec, 0.5, np.exp(-((x - 0.3) ** 2) / 1.4))
        got = symbols.induced_inner_product(StarKernel(0.0), psi, phi)
        want = np.sum(np.conj(psi.values) * phi.values) * spec.dx
        assert got == pytest.approx(complex(want), abs=1e-14)

    def test_ground_state_norm_is_one(self):
        # Analytic induced norm^2 of the unnormalized ground symbol:
        # width_sq * exp(theta E0^2 / 2) * sqrt(pi m omega).
        theta, m, omega = 0.1, 1.0, 1.0
        f, e0, width_sq = ground_state_sampler(theta, m, omega)
        norm_sq = width_sq * math.exp(theta * e0**2 / 2.0) * math.sqrt(math.pi * m * omega)
        spec = GridSpec(8, 256, 0.0, 0.5, -8.0, 8.0, theta)
        prof = f(0.0, spec.x) / math.sqrt(norm_sq)
        fld = Field1D(spec, 0.0, prof, {"energy": e0})
        got = symbols.induced_inner_product(StarKernel(theta), fld, fld)
        assert got.imag == pytest.approx(0.0, abs=1e-10)
        assert got.real == pytest.approx(1.0, abs=1e-6)

    def test_conjugate_symmetry_across_energies(self):
        theta = 0.2
        spec = GridSpec(8, 512, 0.0, 0.5, -10.0, 10.0, theta)
        x = spec.x
        k = StarKernel(theta)
        a = Field1D(spec, 0.25, np.exp(-(x**2) / 2.2) * np.exp(0.9j * x), {"energy": 0.8})
        b = Field1D(spec, 0.25, np.exp(-((x - 0.4) ** 2) / 1.8), {"energy": 1.7})
        ab = symbols.induced_inner_product(k, a, b)
        ba = symbols.induced_inner_product(k, b, a)
        assert ab == pytest.approx(np.conj(ba), rel=1e-12, abs=1e-14)

    def test_onshell_momentum_symbols_are_orthogonal(self):
        # distinct grid modes on the same shell separate exactly; the diagonal
        # carries the surface value 1/(2 pi) per unit mode spacing
        theta, m = 0.2, 1.0
        spec = GridSpec(8, 128, 0.0, 0.5, -math.pi, math.pi, theta)
        k = StarKernel(theta)

        def symbol_slice(p):
            e = p * p / (2.0 * m)
            sym = symbols.momentum_symbol(MomentumLabel(E=e, p=p), theta)
            return Field1D(spec, 0.0, sym(0.0, spec.x), {"energy": e})

        s1, s2 = symbol_slice(1.0), symbol_slice(2.0)
        off = symbols.induced_inner_product(k, s1, s2)
        assert abs(off) < 1e-8
        length = spec.x_max - spec.x_min
        diag = symbols.induced_inner_product(k, s1, s1)
        assert diag.real == pytest.approx(length / (4.0 * math.pi**2), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.4, 0.5])
    def test_momentum_norm_of_the_ground_state_through_frames(self, theta):
        # <P_x psi0, P_x psi0> = m omega / 2 = 0.5.  The partner sum on the
        # values is unbounded here (2e164 at theta = 0.2, overflow from 0.4);
        # apply carries the frame, and framed slices pair as an L2 sum.
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
        kern = StarKernel(theta)
        psi = dynamics.oscillator_eigenstate(dynamics.OscillatorParams(1.0, 1.0, theta), 0, spec)
        p_psi = operators.apply(operators.p_x(), psi)
        ratio = symbols.induced_inner_product(kern, p_psi, p_psi) / symbols.induced_inner_product(
            kern, psi, psi
        )
        assert abs(ratio - 0.5) <= 1e-13

    def test_an_overflowing_partner_sum_raises_its_own_error(self):
        # The unframed copy's frame is grown from its values by the Voros
        # weight a partner sum would apply, and its pairing leaves
        # floating-point range at theta = 0.4: the caller sees the named
        # ValueError, not a numpy RuntimeWarning (warnings are errors here).
        theta = 0.4
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
        psi = dynamics.oscillator_eigenstate(dynamics.OscillatorParams(1.0, 1.0, theta), 0, spec)
        p_psi = operators.apply(operators.p_x(), psi)
        bare = Field1D(spec, p_psi.t_slice, p_psi.values, dict(p_psi.metadata))
        with pytest.raises(ValueError, match="not finite"):
            symbols.induced_inner_product(StarKernel(theta), bare, bare)

    def test_field2d_path_matches_slice_path(self):
        # two-mode on-shell state with grid-aligned frequencies
        theta, m = 0.3, 0.5
        spec = GridSpec(64, 64, -math.pi, math.pi, -math.pi, math.pi, theta)
        k = StarKernel(theta)

        def wave(j):
            return lambda t, x: np.exp(-1j * ((j**2 / (2 * m)) * t - j * x))

        psi2 = sample_field(lambda t, x: wave(1)(t, x) + 0.5 * wave(2)(t, x), spec)
        phi2 = sample_field(wave(1), spec)
        t0 = float(spec.t[8])
        got2d = symbols.induced_inner_product(k, psi2, phi2, t=t0)

        e1, e2 = 1.0 / (2 * m), 4.0 / (2 * m)
        p1 = Field1D(spec, t0, np.exp(-1j * (e1 * t0 - spec.x)), {"energy": e1})
        p2 = Field1D(spec, t0, 0.5 * np.exp(-1j * (e2 * t0 - 2 * spec.x)), {"energy": e2})
        phi1 = Field1D(spec, t0, np.exp(-1j * (e1 * t0 - spec.x)), {"energy": e1})
        k1 = symbols.induced_inner_product(k, p1, phi1)
        k2 = symbols.induced_inner_product(k, p2, phi1)
        assert got2d == pytest.approx(k1 + k2, rel=1e-8)

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.2])
    def test_field2d_norm_of_displaced_coherent_symbol(self, theta):
        # At the default 1e-14 mode cutoff the Voros weight amplifies the
        # rounding floor of this symbol's spectrum into a norm near 1e18; the
        # pairing cutoff keeps the closed form (2 pi theta)^{-1/2} e^{-t0^2/2 theta}.
        s = math.sqrt(theta)
        spec = GridSpec(128, 128, -8 * s, 8 * s, -8 * s, 8 * s, theta)
        t0 = 0.3 * s
        psi = symbols.coherent_symbol(CoherentPoint(t0, -0.5 * s, theta), spec)
        got = symbols.induced_inner_product(StarKernel(theta), psi, psi, t=0.0)
        want = math.exp(-(t0**2) / (2 * theta)) / math.sqrt(2 * math.pi * theta)
        assert abs(got - want) < 1e-8 * want

    def test_missing_energy_tag_rejected_with_guidance(self):
        theta = 0.2
        spec = GridSpec(8, 64, 0.0, 0.5, -3.0, 3.0, theta)
        bare = Field1D(spec, 0.0, np.exp(-spec.x**2))
        with pytest.raises(ValueError, match="energy"):
            symbols.induced_inner_product(StarKernel(theta), bare, bare)

    def test_field2d_needs_slice_time(self):
        spec = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.04)
        f = sample_field(lambda t, x: np.ones_like(t + x), spec)
        with pytest.raises(ValueError, match="slice time"):
            symbols.induced_inner_product(StarKernel(0.04), f, f)
        with pytest.raises(ValueError, match="not a grid point"):
            symbols.induced_inner_product(StarKernel(0.04), f, f, t=0.013)

    def test_mismatches_rejected(self):
        spec = GridSpec(8, 64, 0.0, 0.5, -3.0, 3.0, 0.2)
        a = Field1D(spec, 0.0, np.exp(-spec.x**2), {"energy": 1.0})
        b = Field1D(spec, 0.25, np.exp(-spec.x**2), {"energy": 1.0})
        with pytest.raises(ValueError, match="different times"):
            symbols.induced_inner_product(StarKernel(0.2), a, b)
        with pytest.raises(ValueError, match="Voros"):
            symbols.induced_inner_product(StarKernel(0.2, flavor="moyal"), a, a)
        with pytest.raises(ValueError, match="theta"):
            symbols.induced_inner_product(StarKernel(0.1), a, a)
        with pytest.raises(TypeError):
            symbols.induced_inner_product(StarKernel(0.2), a.values, a.values)

    def test_slices_pair_at_their_physical_times(self):
        # An evolved snapshot keeps its launch label t_slice = 0 and lives at
        # t_slice + metadata['elapsed'] = 0.1, as moments.expectation reads it.
        theta = 0.1
        spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
        kern = StarKernel(theta)
        osc = dynamics.OscillatorParams(1.0, 1.0, theta)
        launch = dynamics.oscillator_eigenstate(osc, 1, spec)
        snap = dynamics.evolve(launch, dynamics.Potential.harmonic(1.0, 1.0), kern, 1.0, 2e-4,
                               500, record_every=500)[-1]
        with pytest.raises(ValueError, match="different times: 0.0 vs 0.1"):
            symbols.induced_inner_product(kern, launch, snap)
        later = dynamics.oscillator_eigenstate(osc, 1, spec, t=0.1)
        assert abs(symbols.induced_inner_product(kern, later, snap) - 1.0) <= 1e-8
        # step * dt can land one rounding off the time it names (2128 steps of
        # 0.3/2128 end at 0.29999999999999993): that is the same time, and a
        # time 1e-9 away is not.
        def at(elapsed):
            return Field1D(spec, 0.0, snap.values, {**snap.metadata, "elapsed": elapsed}, snap.frame)

        rounded = at(math.nextafter(0.1, 0.0))
        assert abs(symbols.induced_inner_product(kern, later, rounded) - 1.0) <= 1e-8
        with pytest.raises(ValueError, match="different times"):
            symbols.induced_inner_product(kern, later, at(0.1 + 1e-9))


class TestProbabilityDensity:
    def test_zero_field(self):
        spec = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.04)
        z = Field2D(spec, np.zeros((16, 16)))
        rho = symbols.probability_density(StarKernel(0.04), z)
        assert np.all(rho.values == 0)

    def test_ground_state_moments(self):
        # m = omega = 1, theta = 0.1: density is a Gaussian with mean
        # theta*E0 = 0.05 and variance width_sq/2 + theta/4 = 0.55.
        theta = 0.1
        f, e0, width_sq = ground_state_sampler(theta, 1.0, 1.0)
        # E0 = 0.5 must be a temporal grid frequency: box length 4 pi
        spec = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        rho = symbols.probability_density(StarKernel(theta), sample_field(f, spec))
        assert np.max(np.abs(rho.values - rho.values[0])) < 1e-12 * np.max(np.abs(rho.values))
        row = rho.values[0].real
        x = spec.x
        total = row.sum()
        mean = float((x * row).sum() / total)
        var = float(((x - mean) ** 2 * row).sum() / total)
        assert mean == pytest.approx(theta * e0, abs=1e-6)
        assert var == pytest.approx(width_sq / 2.0 + theta / 4.0, abs=1e-6)

    def test_series_matches_star_product(self):
        # Against the literal O(N^4) mode-pair sum of tests/oracles.py, not the
        # star engine the density runs through.
        theta = 0.1
        spec = GridSpec(32, 32, -1.25, 1.25, -1.25, 1.25, theta)
        rng = np.random.default_rng(3)
        for _ in range(2):
            psi = band_limited(spec, rng, band=3)
            rho = symbols.probability_density(StarKernel(theta), psi)
            direct = brute_force_star(np.conj(psi.values), psi.values, spec.k_t, spec.k_x, theta)
            square = rho.values / math.sqrt(2.0 * math.pi * theta)
            assert np.max(np.abs(square - direct)) < 1e-8

    def test_density_integrates_to_prefactor_times_norm(self):
        # For a state of unit induced norm the density integrates to
        # sqrt(2 pi theta), pinning the display's prefactor.
        theta = 0.1
        f, e0, width_sq = ground_state_sampler(theta, 1.0, 1.0)
        norm_sq = width_sq * math.exp(theta * e0**2 / 2.0) * math.sqrt(math.pi)
        spec = GridSpec(256, 256, 0.0, 4.0 * math.pi, -8.0, 8.0, theta)
        fld = sample_field(lambda t, x: f(t, x) / math.sqrt(norm_sq), spec)
        rho = symbols.probability_density(StarKernel(theta), fld)
        got = float(np.real(np.sum(rho.values[0]) * spec.dx))
        assert got == pytest.approx(math.sqrt(2.0 * math.pi * theta), abs=1e-6)

    def test_positivity_on_random_band_limited_states(self):
        theta = 0.15
        spec = GridSpec(64, 64, -2.0, 2.0, -2.0, 2.0, theta)
        k = StarKernel(theta)
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = symbols.probability_density(k, band_limited(spec, rng, band=3))
            assert rho.values.real.min() >= -1e-10

    def test_rejections(self):
        spec = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.04)
        f = sample_field(lambda t, x: np.ones_like(t + x), spec)
        with pytest.raises(ValueError, match="Voros"):
            symbols.probability_density(StarKernel(0.04, flavor="moyal"), f)
        with pytest.raises(ValueError, match="theta"):
            symbols.probability_density(StarKernel(0.05), f)
        spec0 = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.0)
        f0 = sample_field(lambda t, x: np.ones_like(t + x), spec0)
        with pytest.raises(ValueError, match="theta > 0"):
            symbols.probability_density(StarKernel(0.0), f0)
        with pytest.raises(TypeError):
            symbols.probability_density(StarKernel(0.04), f.values)


class TestProbabilityCurrent:
    def test_static_real_gaussian_carries_no_current(self):
        theta = 0.2
        spec = GridSpec(64, 128, -math.pi, math.pi, -6.0, 6.0, theta)
        g = sample_field(lambda t, x: np.exp(-(x**2) / (2 * 0.5)) + 0 * t, spec)
        j = symbols.probability_current(StarKernel(theta), g, m=1.0)
        assert np.max(np.abs(j.values)) < 1e-10

    def test_plane_wave_current(self):
        # j = (p/m) e^{(theta/2)(E^2+p^2)} for the unit plane wave
        theta, m, E, p = 0.2, 1.5, 1.0, 2.0
        spec = GridSpec(64, 64, -math.pi, math.pi, -math.pi, math.pi, theta)
        pw = sample_field(lambda t, x: np.exp(-1j * (E * t - p * x)), spec)
        j = symbols.probability_current(StarKernel(theta), pw, m)
        want = (p / m) * math.exp((theta / 2.0) * (E**2 + p**2))
        assert np.max(np.abs(j.values.real - want)) < 1e-9 * want
        assert np.max(np.abs(j.values.imag)) < 1e-12

    def test_commutative_limit_is_textbook(self):
        spec = GridSpec(8, 256, 0.0, 1.0, -8.0, 8.0, 0.0)
        m, p0 = 2.0, 1.3
        pk = sample_field(
            lambda t, x: np.exp(-((x - 0.5) ** 2) / 2.0) * np.exp(1j * p0 * x) + 0 * t, spec
        )
        j = symbols.probability_current(StarKernel(0.0), pk, m)
        textbook = (p0 / m) * np.abs(pk.values) ** 2
        assert np.max(np.abs(j.values.real - textbook)) < 1e-8

    def test_rejections(self):
        spec = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.04)
        f = sample_field(lambda t, x: np.ones_like(t + x), spec)
        with pytest.raises(ValueError, match="mass"):
            symbols.probability_current(StarKernel(0.04), f, m=0.0)
        with pytest.raises(ValueError, match="Voros"):
            symbols.probability_current(StarKernel(0.04, flavor="moyal"), f, m=1.0)

    def test_continuity_for_free_superposition(self):
        # exact on-shell superposition (E_j = j^2 with m = 1/2 on a 2pi box)
        theta, m = 0.3, 0.5
        spec = GridSpec(64, 64, -math.pi, math.pi, -math.pi, math.pi, theta)
        amps = {0: 1.0, 1: 0.7, -1: 0.5, 2: 0.3j, -2: 0.2}

        def onshell(t, x):
            out = np.zeros(np.broadcast(t, x).shape, dtype=np.complex128)
            for j, a in amps.items():
                out = out + a * np.exp(-1j * ((j**2 / (2 * m)) * t - j * x))
            return out

        psi = sample_field(onshell, spec)
        k = StarKernel(theta)
        defect = symbols.continuity_defect(k, psi, m)
        rho = symbols.probability_density(k, psi)
        scale = np.max(np.abs(spectral_derivative(rho, "t", periodic=True).values))
        assert np.max(np.abs(defect.values)) < 1e-6 * scale


class TestOnshellProject:
    def test_commutative_gaussian_packet(self):
        sigma, m = 1.2, 1.0
        spec = GridSpec(8, 256, 0.0, 0.1, -6.0, 6.0, 0.0)
        p = np.linspace(-8.0, 8.0, 65)
        amps = math.sqrt(sigma) / math.pi**0.25 * np.exp(-(sigma**2) * p**2 / 2)
        fld = symbols.onshell_project(p, amps, m, spec)
        prob = np.abs(fld.values[0]) ** 2
        x = spec.x
        total = prob.sum() * spec.dx
        mean = float((x * prob).sum() * spec.dx / total)
        var = float(((x - mean) ** 2 * prob).sum() * spec.dx / total)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(sigma**2 / 2.0, abs=1e-6)

    def test_single_mode_gives_damped_plane_wave(self):
        theta, m = 0.2, 1.0
        spec = GridSpec(32, 64, -1.0, 1.0, -math.pi, math.pi, theta)
        p = np.linspace(-4.0, 4.0, 65)
        amps = np.zeros(p.size)
        amps[48] = 1.0  # p0 = 2.0
        p0 = p[48]
        fld = symbols.onshell_project(p, amps, m, spec)
        e0 = p0**2 / (2 * m)
        dp = p[1] - p[0]
        tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
        want = (
            dp
            / math.sqrt(2 * math.pi)
            * math.exp(-(theta / 4) * (e0**2 + p0**2))
            * np.exp(-1j * (e0 * tt - p0 * xx))
        )
        assert np.max(np.abs(fld.values - want)) < 1e-12

    def test_matches_packet_integrand_up_to_fixed_constant(self):
        # The deformed Gaussian packet integrand e^{-theta p^4/(16 m^2) - lambda p^2 + ipx}
        # with lambda = sigma^2/2 + theta/4 + it/2m is reproduced up to one
        # measured constant, sqrt(2 pi), fixed by the projection convention.
        theta, sigma, m = 0.25, 1.0, 1.0
        spec = GridSpec(64, 64, -0.5, 0.5, -4.0, 4.0, theta)
        p = np.linspace(-6.0, 6.0, 97)
        amps = math.sqrt(sigma) / math.pi**0.25 * np.exp(-(sigma**2) * p**2 / 2)
        fld = symbols.onshell_project(p, amps, m, spec)
        dp = p[1] - p[0]
        tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
        lam = sigma**2 / 2 + theta / 4 + 1j * tt / (2 * m)
        integrand_sum = np.zeros_like(tt, dtype=np.complex128)
        for pj in p:
            integrand_sum += np.exp(-theta * pj**4 / (16 * m**2) - lam * pj**2 + 1j * pj * xx) * dp
        packet_form = math.sqrt(sigma) / (2 * math.pi**1.25) * integrand_sum
        ratio = fld.values / packet_form
        assert ratio.flat[0] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)
        assert np.max(np.abs(ratio - ratio.flat[0])) < 1e-10

    def test_coarse_momentum_grid_rejected_with_required_spacing(self):
        spec = GridSpec(64, 64, -10.0, 10.0, -20.0, 20.0, 0.0)
        p = np.linspace(-4.0, 4.0, 17)
        with pytest.raises(ValueError, match="requires dp <=") as err:
            symbols.onshell_project(p, np.exp(-(p**2)), 0.3, spec)
        required = float(str(err.value).rsplit("dp <=", 1)[1])
        swing = 20.0 + 4.0 * 10.0 / 0.3
        assert required == pytest.approx(math.pi / swing, rel=1e-4)

    def test_input_validation(self):
        spec = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.0)
        good = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(ValueError, match="symmetric"):
            symbols.onshell_project(good + 0.1, np.ones(9), 1.0, spec)
        with pytest.raises(ValueError, match="uniformly"):
            symbols.onshell_project(np.array([-1.0, 0.0, 0.5, 1.0]), np.ones(4), 1.0, spec)
        with pytest.raises(ValueError, match="mass"):
            symbols.onshell_project(good, np.ones(9), -1.0, spec)


def two_mode_state(spec: GridSpec) -> Field2D:
    """Band-limited two-mode probe shared by the projection tests."""
    kt1, kx1 = spec.k_t[spec.n_t - 1], spec.k_x[2]
    kt2, kx2 = spec.k_t[1], spec.k_x[spec.n_x - 2]
    return sample_field(
        lambda t, x: np.exp(1j * (kt1 * t + kx1 * x)) + 0.6 * np.exp(1j * (kt2 * t + kx2 * x)),
        spec,
    )


def report_discrepancy(theta: float, t: float, t_prime: float, psi: Field2D) -> float:
    """The composition-law defect of one state, read from the JSON report."""
    (row,) = json.loads(symbols.quasi_projection_report(theta, t, t_prime, [psi]))["states"]
    return row["discrepancy"]


def off_centre_coherent_state() -> tuple[Field2D, float]:
    """Coherent symbol at (0.3, -0.5) sqrt(theta) on the 128^2 box of reach 8 sqrt(theta)."""
    theta = 0.1
    s = math.sqrt(theta)
    spec = GridSpec(128, 128, -8 * s, 8 * s, -8 * s, 8 * s, theta)
    return symbols.coherent_symbol(CoherentPoint(0.3 * s, -0.5 * s, theta), spec), theta


class TestQuasiProjection:
    def test_matches_direct_star_integral(self):
        # pin the mode-space realization against the defining surface integral
        theta = 0.25
        spec = GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta)
        psi = two_mode_state(spec)
        t0 = 0.0
        out = symbols.quasi_projection_apply(t0, psi)
        k = StarKernel(theta)
        i_t0 = int(np.argmin(np.abs(spec.t - t0)))
        s = math.sqrt(theta)
        for it, ix in [(32, 32), (34, 36), (30, 28)]:
            tpp, xpp = spec.t[it], spec.x[ix]
            kernel_field = sample_field(
                lambda t, x: symbols.gauss_delta(tpp - t, s) * symbols.gauss_delta(xpp - x, s),
                spec,
            )
            brute = np.sum(star(k, kernel_field, psi).values[i_t0, :]) * spec.dx
            assert out.values[it, ix] == pytest.approx(brute, abs=1e-6)

    @pytest.mark.parametrize("case", ["two_mode", "coherent"])
    @pytest.mark.parametrize("t0_scale", [0.0, 0.1, -1.5])
    def test_matches_the_dense_oracle(self, case, t0_scale):
        # the FFT synthesis against explicit plane-wave sums on both axes
        if case == "two_mode":
            theta = 0.25
            psi = two_mode_state(GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta))
        else:
            psi, theta = off_centre_coherent_state()
        spec = psi.spec
        t0 = t0_scale * math.sqrt(theta)
        got = symbols.quasi_projection_apply(t0, psi).values
        want = dense_quasi_projection(psi.values, spec.t, spec.x, spec.k_t, spec.k_x, theta, t0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("where", ["t_min", "t_max", "off_grid"])
    def test_full_spectrum_field_matches_the_dense_oracle(self, where):
        # Every mode live, the Nyquist row and column included: the Nyquist
        # row is the one row whose slot in the 2 N_t-point collapse (3 N_t/2)
        # is not its own index.
        theta = 0.25
        spec = GridSpec(16, 32, -1.0, 1.0, -2.0, 2.0, theta)
        rng = np.random.default_rng(24)
        psi = Field2D(spec, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
        amps = np.abs(np.fft.fft2(psi.values))
        assert min(amps[8].max(), amps[:, 16].max()) > 1e-3 * amps.max()
        t0 = {"t_min": spec.t_min, "t_max": spec.t_max, "off_grid": spec.t[5] + 0.37 * spec.dt}[where]
        got = symbols.quasi_projection_apply(t0, psi).values
        want = dense_quasi_projection(psi.values, spec.t, spec.x, spec.k_t, spec.k_x, theta, t0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_oversampled_time_axis(self):
        # At 512 t-nodes on a box of 2 at theta = 1 the weight e^{theta E^2/8}
        # overflows on high rows; a state that leaves them empty projects as
        # on the coarse grid, with no overflow warning.
        theta = 1.0
        fine = GridSpec(512, 16, -1.0, 1.0, -2.0, 2.0, theta)
        coarse = GridSpec(16, 16, -1.0, 1.0, -2.0, 2.0, theta)
        got = symbols.quasi_projection_apply(0.1, two_mode_state(fine)).values[::32]
        want = symbols.quasi_projection_apply(0.1, two_mode_state(coarse)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["two_mode", "coherent"])
    def test_defect_is_its_literal_definition(self, case):
        # The report projects the amplitude difference once; on sound states
        # that is max|pi_t'(pi_t psi) - w pi_t' psi| up to rounding.
        if case == "two_mode":
            theta = 0.25
            psi = two_mode_state(GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta))
            t, t_prime = 0.0, 0.125
        else:
            theta = 0.1
            s = math.sqrt(theta)
            spec = GridSpec(128, 128, -12 * s, 12 * s, -12 * s, 12 * s, theta)
            psi = symbols.coherent_symbol(CoherentPoint(0.3 * s, -0.5 * s, theta), spec)
            t, t_prime = 0.1 * s, 0.4 * s
        (row,) = json.loads(symbols.quasi_projection_report(theta, t, t_prime, [psi]))["states"]
        w = symbols.gauss_delta(t_prime - t, math.sqrt(theta))
        twice = symbols.quasi_projection_apply(t_prime, symbols.quasi_projection_apply(t, psi))
        literal = np.max(np.abs(twice.values - w * symbols.quasi_projection_apply(t_prime, psi).values))
        assert row["ratio"] < 1.0
        assert abs(row["discrepancy"] - literal) <= 1e-12 * row["reference"]

    def test_states_on_two_grids_report_as_they_do_alone(self):
        theta = 0.25
        square = two_mode_state(GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta))
        tall = two_mode_state(GridSpec(128, 64, -8.0, 8.0, -4.0, 4.0, theta))
        both = json.loads(symbols.quasi_projection_report(theta, 0.0, 0.125, [square, tall]))
        alone = [
            json.loads(symbols.quasi_projection_report(theta, 0.0, 0.125, [psi]))["states"][0]
            for psi in (square, tall)
        ]
        assert both["states"] == alone

    def test_returned_projections_share_no_buffer(self):
        # A result kept across a later projection must not change: no
        # returned array aliases a buffer the projector refills.
        theta = 0.25
        spec = GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta)
        psi = two_mode_state(spec)
        first = symbols.quasi_projection_apply(0.0, psi)
        second = symbols.quasi_projection_apply(0.125, psi)
        assert np.array_equal(first.values, symbols.quasi_projection_apply(0.0, psi).values)
        assert not np.array_equal(first.values, second.values)
        # one projector called twice, on two amplitude sets
        amps = symbols._projection_amplitudes(psi)
        (project,) = symbols._quasi_projectors(spec, 0.0)
        kept = project(amps)
        project(2j * amps)
        (fresh,) = symbols._quasi_projectors(spec, 0.0)
        assert np.array_equal(kept, fresh(amps))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_report_transforms_each_state_twice(self, monkeypatch, k):
        # psi and pi_t psi are each transformed once; the defect reuses both.
        theta = 0.25
        spec = GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta)
        states = [Field2D(spec, (1.0 + 0.5j * j) * two_mode_state(spec).values) for j in range(k)]
        calls = []
        fft2 = np.fft.fft2

        def counted(*args, **kwargs):
            calls.append(1)
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counted)
        symbols.quasi_projection_report(theta, 0.0, 0.125, states)
        assert len(calls) == 2 * k

    def test_report_ratio_on_a_coherent_state(self):
        # ROADMAP item 7's table: 0.1652 at t = 0.1 sqrt(theta), t' = 0.4 sqrt(theta)
        psi, theta = off_centre_coherent_state()
        s = math.sqrt(theta)
        report = symbols.quasi_projection_report(theta, 0.1 * s, 0.4 * s, [psi])
        (row,) = json.loads(report)["states"]
        assert round(row["ratio"], 4) == 0.1652

    def test_same_time_composition_is_approximate_identity(self):
        theta = 0.1
        spec = GridSpec(256, 256, -4.0, 4.0, -4.0, 4.0, theta)
        psi = two_mode_state(spec)
        d = report_discrepancy(theta, 0.0, 0.0, psi)
        ref = np.max(np.abs(symbols.quasi_projection_apply(0.0, psi).values))
        ratio = d / (ref * symbols.gauss_delta(0.0, math.sqrt(theta)))
        assert 0.0 < ratio < 0.25

    def test_composition_ratio_stays_bounded_across_theta(self):
        # The composition defect, relative to the delta-peak scale, does not
        # vanish with theta: the projector's own output has temporal bandwidth
        # 1/sqrt(theta), so the defect ratio saturates near a constant.
        ratios = []
        for theta in (0.2, 0.1, 0.05):
            spec = GridSpec(256, 256, -4.0, 4.0, -4.0, 4.0, theta)
            psi = two_mode_state(spec)
            d = report_discrepancy(theta, 0.0, 0.0, psi)
            ref = np.max(np.abs(symbols.quasi_projection_apply(0.0, psi).values))
            ratios.append(d / (ref * symbols.gauss_delta(0.0, math.sqrt(theta))))
        assert all(0.05 < r < 0.25 for r in ratios)
        assert max(ratios) / min(ratios) < 1.3

    def test_far_separated_times_annihilate(self):
        theta = 0.1
        spec = GridSpec(256, 256, -4.0, 4.0, -4.0, 4.0, theta)
        psi = two_mode_state(spec)
        d = report_discrepancy(theta, -1.0, 1.0, psi)
        assert d < 1e-8
        twice = symbols.quasi_projection_apply(1.0, symbols.quasi_projection_apply(-1.0, psi))
        assert np.max(np.abs(twice.values)) < 1e-8

    def test_report_is_valid_json(self):
        theta = 0.25
        spec = GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta)
        psi = two_mode_state(spec)
        report = json.loads(symbols.quasi_projection_report(theta, 0.0, 0.125, [psi]))
        assert report["theta"] == theta
        assert report["delta_weight"] == pytest.approx(
            float(symbols.gauss_delta(0.125, math.sqrt(theta)))
        )
        (row,) = report["states"]
        assert row["ratio"] == pytest.approx(row["discrepancy"] / row["reference"])

    def test_validation(self):
        theta = 0.25
        spec = GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta)
        psi = two_mode_state(spec)
        with pytest.raises(ValueError, match="outside box"):
            symbols.quasi_projection_apply(9.0, psi)
        with pytest.raises(ValueError, match="theta 0.2 does not match grid theta 0.25"):
            symbols.quasi_projection_report(0.2, 0.0, 0.0, [psi])
        flat = two_mode_state(GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0))
        with pytest.raises(ValueError, match="grid theta > 0"):
            symbols.quasi_projection_apply(0.0, flat)

    def test_report_names_bad_input(self):
        # Every state and theta are checked by the report, before a projector
        # or the delta weight reads them.
        theta = 0.25
        psi = two_mode_state(GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta))
        with pytest.raises(TypeError, match="quasi_projection_report: state 1 is a str"):
            symbols.quasi_projection_report(theta, 0.0, 0.125, [psi, "psi"])
        with pytest.raises(TypeError, match="quasi_projection_report takes a sequence"):
            symbols.quasi_projection_report(theta, 0.0, 0.125, psi)
        with pytest.raises(ValueError, match="theta nan does not match grid theta 0.25"):
            symbols.quasi_projection_report(float("nan"), 0.0, 0.125, [psi])

    def test_report_is_strict_json_on_a_zero_state(self):
        # The zero state has reference 0 and so no ratio: null, not Infinity,
        # which RFC 8259 JSON does not have.
        theta = 0.25
        spec = GridSpec(64, 64, -4.0, 4.0, -4.0, 4.0, theta)
        zero = Field2D(spec, np.zeros((64, 64), dtype=complex))

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        text = symbols.quasi_projection_report(theta, 0.0, 0.125, [two_mode_state(spec), zero])
        rows = json.loads(text, parse_constant=reject)["states"]
        assert rows[0]["ratio"] > 0.0
        assert rows[1] == {"discrepancy": 0.0, "reference": 0.0, "ratio": None}
        with pytest.raises(ValueError, match="test state"):
            symbols.quasi_projection_report(theta, 0.0, 0.0, [])


class TestReproducingMap:
    def test_band_limited_states_reproduce(self):
        theta = 0.2
        spec = GridSpec(128, 128, -4.0, 4.0, -4.0, 4.0, theta)
        k = StarKernel(theta)
        rng = np.random.default_rng(11)
        for _ in range(5):
            psi = band_limited(spec, rng, band=5)
            out = symbols.reproducing_map(k, psi)
            rel = np.max(np.abs(out.values - psi.values)) / np.max(np.abs(psi.values))
            assert rel < 1e-6
            assert out.metadata["kernel_modes_dropped"] == 0

    def test_plane_wave_reproduces(self):
        theta = 0.2
        spec = GridSpec(128, 128, -4.0, 4.0, -4.0, 4.0, theta)
        pw = sample_field(lambda t, x: np.exp(1j * (spec.k_t[126] * t + spec.k_x[3] * x)), spec)
        out = symbols.reproducing_map(StarKernel(theta), pw)
        assert np.max(np.abs(out.values - pw.values)) < 1e-8

    def test_modes_beyond_kernel_support_are_dropped_not_amplified(self):
        theta = 0.2
        spec = GridSpec(128, 128, -4.0, 4.0, -4.0, 4.0, theta)
        hot = sample_field(
            lambda t, x: np.exp(1j * (spec.k_t[64] * t + spec.k_x[64] * x)), spec
        )
        out = symbols.reproducing_map(StarKernel(theta), hot)
        assert out.metadata["kernel_modes_dropped"] > 0
        assert np.max(np.abs(out.values)) <= 1.0 + 1e-9

    def test_flavor_and_theta_guards(self):
        spec = GridSpec(16, 16, 0.0, 0.5, 0.0, 0.5, 0.04)
        f = sample_field(lambda t, x: np.ones_like(t + x), spec)
        with pytest.raises(ValueError, match="Voros"):
            symbols.reproducing_map(StarKernel(0.04, flavor="moyal"), f)
        with pytest.raises(ValueError, match="theta"):
            symbols.reproducing_map(StarKernel(0.05), f)


class TestRealFieldCsv:
    def test_header_and_shape(self):
        spec = GridSpec(8, 16, 0.0, 1.0, -2.0, 2.0, 0.0)
        fld = sample_field(lambda t, x: np.exp(-(x**2)) + 0 * t, spec)
        text = symbols.real_field_csv(fld)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + 8 * 16
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape == (128, 3)
        assert data[:, 2].reshape(8, 16) == pytest.approx(fld.values.real)

    def test_slice_serialization(self):
        spec = GridSpec(8, 16, 0.0, 1.0, -2.0, 2.0, 0.0)
        fld = Field1D(spec, 0.5, np.linspace(0.0, 1.0, 16))
        lines = symbols.real_field_csv(fld).strip().split("\n")
        assert len(lines) == 17
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == -2.0

    def test_complex_field_refused(self):
        spec = GridSpec(8, 16, 0.0, 1.0, -2.0, 2.0, 0.0)
        fld = sample_field(lambda t, x: np.exp(1j * x) + 0 * t, spec)
        with pytest.raises(ValueError, match="imaginary"):
            symbols.real_field_csv(fld)
