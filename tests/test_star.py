import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_star
from starqm.fieldgrid import Field2D, GridSpec, sample_field
from starqm.star import _SQUARE_TABLE_BYTES, StarKernel, plane_wave_star_factor, star

# The package rebinds the name `starqm.star` to the function.
star_module = importlib.import_module("starqm.star")


def star_box(n, theta, half=None):
    """Square periodic box at the coarsest spacing the theta-resolution rule allows."""
    if half is None:
        half = n * np.sqrt(theta) / 8.0 if theta > 0 else 4.0
    return GridSpec(n_t=n, n_x=n, t_min=-half, t_max=half, x_min=-half, x_max=half, theta=theta)


def plane_wave(spec, E, p):
    tt, xx = np.meshgrid(spec.t, spec.x, indexing="ij")
    return Field2D(spec, np.exp(-1j * (E * tt - p * xx)))


def mode_freqs(spec, m_t, m_x):
    """(E, p) such that e^{-i(Et-px)} is an exact grid mode."""
    E = -2 * np.pi * m_t / (spec.t_max - spec.t_min)
    p = 2 * np.pi * m_x / (spec.x_max - spec.x_min)
    return E, p


def random_band_limited(spec, band=2, seed=0):
    rng = np.random.default_rng(seed)
    fh = np.zeros((spec.n_t, spec.n_x), dtype=complex)
    for a in range(-band, band + 1):
        for b in range(-band, band + 1):
            fh[a % spec.n_t, b % spec.n_x] = rng.standard_normal() + 1j * rng.standard_normal()
    return Field2D(spec, np.fft.ifft2(fh))


def white_noise(spec, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.n_t, spec.n_x)
    return Field2D(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_modes(spec, t_modes, x_modes, seed):
    """Random complex amplitudes on the given signed mode indices of each axis, zero elsewhere."""
    rng = np.random.default_rng(seed)
    shape = (len(t_modes), len(x_modes))
    fh = np.zeros((spec.n_t, spec.n_x), dtype=complex)
    fh[np.ix_(np.asarray(t_modes) % spec.n_t, np.asarray(x_modes) % spec.n_x)] = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    return Field2D(spec, np.fft.ifft2(fh))


def spectral_packet(spec, centre, band):
    """Exactly band-limited packet: mode profile e^{-|j - centre|^2/8}, |j - centre| <= band per axis.

    A nonzero centre is a momentum offset, which puts the occupied band off
    the zero mode.
    """
    j_t = np.arange(-band, band + 1) + centre[0]
    j_x = np.arange(-band, band + 1) + centre[1]
    fh = np.zeros((spec.n_t, spec.n_x), dtype=complex)
    fh[np.ix_(j_t % spec.n_t, j_x % spec.n_x)] = np.exp(
        -np.add.outer((j_t - centre[0]) ** 2, (j_x - centre[1]) ** 2) / 8.0
    )
    return Field2D(spec, np.fft.ifft2(fh))


def mode_grid_cap(spec, flavor):
    """Largest compact mode grid the engine may use: 2N for Voros, N for Moyal."""
    factor = 2 if flavor == "voros" else 1
    return [factor * spec.n_t, factor * spec.n_x]


def rel_max_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


class TestPlaneWaveFactor:
    def test_zero_momenta(self):
        assert plane_wave_star_factor(0, 0, 0, 0, 0.3) == 1.0

    def test_commutative_limit(self):
        assert plane_wave_star_factor(1.3, -0.7, 2.0, 0.4, 0.0) == 1.0

    def test_worked_example(self):
        f = plane_wave_star_factor(1, 0, 0, 1, 0.2)
        assert f == pytest.approx(0.9950042 + 0.0998334j, abs=1e-7)
        assert f == pytest.approx(np.exp(0.1j))

    def test_conjugate_pair_growth(self):
        # (-E,-p) paired with (E,p): the factor exp[+(theta/2)(E^2+p^2)] undoes
        # the Gaussian damping of two momentum-symbol overlaps.
        f = plane_wave_star_factor(-1, -2, 1, 2, 0.1)
        assert f == pytest.approx(np.exp(0.25))
        assert f == pytest.approx(1.2840254, abs=1e-7)


class TestKernelValidation:
    def test_bad_flavor(self):
        with pytest.raises(ValueError, match="flavor"):
            StarKernel(0.1, flavor="weyl")

    def test_bad_theta(self):
        for theta in (-0.1, np.nan):
            with pytest.raises(ValueError, match="theta must be >= 0"):
                StarKernel(theta)

    def test_grid_theta_mismatch(self):
        spec = star_box(16, 0.5)
        f = random_band_limited(spec)
        with pytest.raises(ValueError, match="theta"):
            star(StarKernel(0.3), f, f)

    def test_gridspec_mismatch(self):
        f = random_band_limited(star_box(16, 0.5))
        g = random_band_limited(star_box(32, 0.5))
        with pytest.raises(ValueError, match="GridSpec"):
            star(StarKernel(0.5), f, g)


class TestThetaZero:
    def test_pointwise_product_exact(self):
        spec = star_box(16, 0.0)
        f = random_band_limited(spec, seed=1)
        g = random_band_limited(spec, seed=2)
        for kern in (StarKernel(0.0), StarKernel(0.0, flavor="moyal")):
            assert np.array_equal(star(kern, f, g).values, f.values * g.values)


class TestFourierEngine:
    def test_algebra_identity(self):
        spec = star_box(16, 0.5)
        one = sample_field(lambda t, x: 1.0 + 0j, spec)
        out = star(StarKernel(0.5), one, one)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12

    @pytest.mark.parametrize("flavor", ["voros", "moyal"])
    def test_matches_brute_force(self, flavor):
        spec = star_box(16, 0.5)
        f = random_band_limited(spec, seed=11)
        g = random_band_limited(spec, seed=12)
        got = star(StarKernel(0.5, flavor=flavor), f, g).values
        want = brute_force_star(f.values, g.values, spec.k_t, spec.k_x, 0.5, flavor)
        assert rel_max_err(got, want) < 1e-12

    @pytest.mark.parametrize("flavor", ["voros", "moyal"])
    def test_matches_brute_force_wider_band(self, flavor):
        spec = star_box(32, 0.2)
        f = random_band_limited(spec, band=4, seed=21)
        g = random_band_limited(spec, band=4, seed=22)
        got = star(StarKernel(0.2, flavor=flavor), f, g).values
        want = brute_force_star(f.values, g.values, spec.k_t, spec.k_x, 0.2, flavor)
        assert rel_max_err(got, want) < 1e-11

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.5])
    def test_voros_displaced_modulated_pair_matches_brute_force(self, theta):
        # Grown high modes whose sum wraps around the grid: a Voros product
        # written as Gaussian-conjugated Moyal, damped on the wrapped output
        # mode, is off by 9e5 here while passing every other test.
        half = 4.0 * np.sqrt(theta)
        spec = GridSpec(32, 32, -half, half, -half, half, theta)
        f = sample_field(
            lambda t, x: np.exp(-((t - 0.1) ** 2 + (x + 0.1) ** 2) / (3 * theta) + 0.5j * x), spec
        )
        g = sample_field(lambda t, x: np.exp(-(t**2 + (x - 0.05) ** 2) / (2.4 * theta)) + 0j, spec)
        got = star(StarKernel(theta), f, g).values
        want = brute_force_star(f.values, g.values, spec.k_t, spec.k_x, theta)
        assert rel_max_err(got, want) < 1e-9

    def test_plane_wave_multiplier_exact(self):
        spec = star_box(16, 0.2)
        for (mt, mx, mt2, mx2) in [(1, 0, 0, 1), (2, -1, 1, 1), (-2, 2, 3, -1)]:
            E, p = mode_freqs(spec, mt, mx)
            E2, p2 = mode_freqs(spec, mt2, mx2)
            out = star(StarKernel(0.2), plane_wave(spec, E, p), plane_wave(spec, E2, p2))
            want = plane_wave_star_factor(E, p, E2, p2, 0.2) * plane_wave(
                spec, E + E2, p + p2
            ).values
            assert rel_max_err(out.values, want) < 1e-10

    def test_worked_multiplier_value(self):
        # E=1, p'=1 at theta=0.2 -> factor e^{0.1 i}; realized on a grid whose
        # modes include exactly those frequencies.
        n = 64
        half = np.pi  # mode spacing 1.0
        spec = GridSpec(n_t=n, n_x=n, t_min=-half, t_max=half,
                        x_min=-half, x_max=half, theta=0.2)
        out = star(StarKernel(0.2), plane_wave(spec, 1, 0), plane_wave(spec, 0, 1))
        want = (0.9950042 + 0.0998334j) * plane_wave(spec, 1, 1).values
        assert rel_max_err(out.values, want) < 1e-7

    def test_mode_cutoff_logged(self):
        # Box wide enough (8 sigma) that the Gaussian's spectrum decays to the
        # rounding floor well inside the mode box.
        spec = star_box(256, 0.1, half=10.0)
        f = sample_field(lambda t, x: np.exp(-(t**2) - x**2), spec)
        out = star(StarKernel(0.1), f, f)
        assert out.metadata["mode_cutoff"]["dropped_f"] > 0


class TestBruteForceProperty:
    """The engine against the literal mode-pair sum on random inputs."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["voros", "moyal"]),
        st.sampled_from([16, 32]),
        st.floats(0.05, 0.5),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def test_matches_brute_force(self, flavor, n, theta, white, seed):
        # White noise fills every mode up to the anti-aligned Nyquist pairs,
        # where the Voros weight e^{theta|k||k'|/2} is largest.
        spec = star_box(n, theta)
        if white:
            f, g = white_noise(spec, seed), white_noise(spec, seed + 1)
        else:
            f = random_band_limited(spec, band=3, seed=seed)
            g = random_band_limited(spec, band=3, seed=seed + 1)
        out = star(StarKernel(theta, flavor), f, g)
        want = brute_force_star(f.values, g.values, spec.k_t, spec.k_x, theta, flavor)
        assert rel_max_err(out.values, want) < 1e-10
        cap = mode_grid_cap(spec, flavor)
        assert all(m <= c for m, c in zip(out.metadata["mode_grid"], cap))
        if white:
            assert out.metadata["mode_grid"] == cap

    def test_overflowing_weight_raises(self):
        # White noise on the 256^2 box of +-8 sqrt(theta): the corner mode's
        # growth e^{theta|k|^2/4} = e^{128 pi^2} is beyond floating-point range.
        spec = star_box(256, 0.1, half=8.0 * np.sqrt(0.1))
        f = white_noise(spec, 5)
        with pytest.raises(ValueError, match="non-finite"), pytest.warns(RuntimeWarning):
            star(StarKernel(0.1), f, f)


class TestCompactModeGrid:
    """Products on the smallest wrap-free mode grid, against the literal mode-pair sum.

    Each occupied slot must carry the true frequency of its mode; a slot map
    that used the frequencies of an M-point grid of the original spacing
    fails every case here.
    """

    @pytest.mark.parametrize("flavor", ["voros", "moyal"])
    @pytest.mark.parametrize("theta", [0.1, 0.5])
    @pytest.mark.parametrize(
        "centre, grid",
        # A +-4 packet about the centre mode against a centred +-3 Gaussian:
        # the x band of (0, 6) reaches 10 + 3, so 2 * 13 + 1 = 27 slots.
        [((0, 6), [16, 27]), ((-5, 6), [27, 27]), ((4, -5), [24, 27])],
    )
    def test_lopsided_band(self, flavor, theta, centre, grid):
        spec = star_box(32, theta)
        f = spectral_packet(spec, centre, 4)
        g = spectral_packet(spec, (0, 0), 3)
        out = star(StarKernel(theta, flavor), f, g)
        want = brute_force_star(f.values, g.values, spec.k_t, spec.k_x, theta, flavor)
        assert rel_max_err(out.values, want) < 1e-10
        assert out.metadata["mode_grid"] == grid

    @pytest.mark.parametrize("flavor", ["voros", "moyal"])
    @pytest.mark.parametrize("white_axis", [0, 1])
    @pytest.mark.parametrize("reach, voros_slots", [(12, 64), (8, 54)])
    def test_band_limited_against_white_noise(self, flavor, white_axis, reach, voros_slots):
        # g fills every mode of one axis and +-2 modes of the other; f reaches
        # +-reach on the white axis and +-3 on the other.  The other axis
        # needs 2(3 + 2) + 1 = 11 -> 12 slots.  On the white axis Moyal sits
        # at its cap N; Voros needs 2(16 + reach) + 1 -> 64 slots (its cap
        # 2N) or 54, where the fold onto N = 32 modes overlaps.
        theta = 0.2
        spec = star_box(32, theta)
        every, narrow, wide, small = range(-16, 16), range(-2, 3), range(-reach, reach + 1), range(-3, 4)
        if white_axis == 0:
            f, g = random_modes(spec, wide, small, 41), random_modes(spec, every, narrow, 42)
        else:
            f, g = random_modes(spec, small, wide, 41), random_modes(spec, narrow, every, 42)
        out = star(StarKernel(theta, flavor), f, g)
        want = brute_force_star(f.values, g.values, spec.k_t, spec.k_x, theta, flavor)
        assert rel_max_err(out.values, want) < 1e-10
        grid = [12, 12]
        grid[white_axis] = voros_slots if flavor == "voros" else spec.n_t
        assert out.metadata["mode_grid"] == grid


class TestAlgebraicProperties:
    def test_associativity_gaussians(self):
        # Box ~ 8 sigma so the sampled Gaussians are spectrally clean.
        spec = star_box(256, 0.1, half=10.0)
        f = sample_field(lambda t, x: np.exp(-(t**2) - x**2), spec)
        g = sample_field(lambda t, x: np.exp(-((t + 0.4) ** 2) - x**2 + 0.2j * x), spec)
        h = sample_field(lambda t, x: np.exp(-(t**2) - (x - 0.5) ** 2), spec)
        kern = StarKernel(0.1)
        lhs = star(kern, f, star(kern, g, h)).values
        rhs = star(kern, star(kern, f, g), h).values
        assert rel_max_err(lhs, rhs) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_associativity_random_band_limited(self, seed):
        spec = star_box(16, 0.5)
        f = random_band_limited(spec, seed=seed)
        g = random_band_limited(spec, seed=seed + 1)
        h = random_band_limited(spec, seed=seed + 2)
        kern = StarKernel(0.5)
        lhs = star(kern, f, star(kern, g, h)).values
        rhs = star(kern, star(kern, f, g), h).values
        assert rel_max_err(lhs, rhs) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_conjugation_reverses_factors(self, seed):
        spec = star_box(16, 0.5)
        f = random_band_limited(spec, seed=seed)
        g = random_band_limited(spec, seed=seed + 7)
        kern = StarKernel(0.5)
        lhs = np.conj(star(kern, f, g).values)
        fbar = Field2D(spec, np.conj(f.values))
        gbar = Field2D(spec, np.conj(g.values))
        rhs = star(kern, gbar, fbar).values
        assert rel_max_err(lhs, rhs) < 1e-10

    def test_voros_is_smoothed_moyal_on_multipliers(self):
        # mult_V(k,k') = exp[-(theta/2) k.k'] mult_M(k,k') checked mode by mode.
        theta = 0.4
        spec = star_box(16, theta)
        for (mt, mx, mt2, mx2) in [(1, 0, 0, 1), (1, 1, -1, 1), (2, -1, 1, 2)]:
            E, p = mode_freqs(spec, mt, mx)
            E2, p2 = mode_freqs(spec, mt2, mx2)
            f, g = plane_wave(spec, E, p), plane_wave(spec, E2, p2)
            base = plane_wave(spec, E + E2, p + p2).values
            mult_v = star(StarKernel(theta), f, g).values / base
            mult_m = star(StarKernel(theta, flavor="moyal"), f, g).values / base
            # k.k' in (k0,k1) components; k0 = -E, k1 = p conventions cancel in the dot product
            kdot = E * E2 + p * p2
            ratio = np.mean(mult_v) / np.mean(mult_m)
            assert ratio == pytest.approx(np.exp(-(theta / 2) * kdot), rel=1e-10)

    def test_bilinearity(self):
        spec = star_box(16, 0.5)
        f1 = random_band_limited(spec, seed=31)
        f2 = random_band_limited(spec, seed=32)
        g = random_band_limited(spec, seed=33)
        kern = StarKernel(0.5)
        a, b = 0.7 - 1.1j, 2.0 + 0.3j
        comb = Field2D(spec, a * f1.values + b * f2.values)
        lhs = star(kern, comb, g).values
        rhs = a * star(kern, f1, g).values + b * star(kern, f2, g).values
        assert rel_max_err(lhs, rhs) < 1e-11


def centred_gaussian(n, theta, reach, width):
    """e^{-c r^2} of width `width` sqrt(theta) on a box of +-reach sqrt(theta); returns (field, c, r^2)."""
    half = reach * np.sqrt(theta)
    spec = GridSpec(n_t=n, n_x=n, t_min=-half, t_max=half, x_min=-half, x_max=half, theta=theta)
    r2 = spec.t[:, None] ** 2 + spec.x[None, :] ** 2
    c = 1.0 / (2.0 * width**2 * theta)
    return Field2D(spec, np.exp(-c * r2)), c, r2


class TestMoyalEngine:
    """The exact mixed-representation Moyal product (no series, no cancellation)."""

    @pytest.mark.parametrize("n, reach", [(64, 6.0), (32, 4.0)])
    def test_narrow_gaussian_matches_brute_force(self, n, reach):
        # Width sqrt(theta)/2 populates modes whose phase, split into two real
        # growing factors, cancels catastrophically; the exact product must not.
        f, _, _ = centred_gaussian(n, 0.1, reach, 0.5)
        spec = f.spec
        got = star(StarKernel(0.1, flavor="moyal"), f, f).values
        want = brute_force_star(f.values, f.values, spec.k_t, spec.k_x, 0.1, "moyal")
        assert rel_max_err(got, want) < 1e-13

    @pytest.mark.parametrize("width", [1.0, 0.5])
    def test_gaussian_closed_form_128(self, width):
        # e^{-a r^2} *_M e^{-b r^2} = e^{-(a+b) r^2/(1+ab theta^2)} / (1+ab theta^2)
        # on the 128^2 box of the coherent covariance, too large for brute force.
        theta = 0.1
        f, c, r2 = centred_gaussian(128, theta, 8.0, width)
        q = 1.0 + c * c * theta**2
        want = np.exp(-2.0 * c * r2 / q) / q
        got = star(StarKernel(theta, flavor="moyal"), f, f).values
        assert rel_max_err(got, want) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 1.0))
    def test_trace_identity(self, seed, theta):
        # The k' = -k multiplier is 1, so the zero mode of f * g is that of f g.
        spec = star_box(16, theta)
        f = random_band_limited(spec, seed=seed)
        g = random_band_limited(spec, seed=seed + 1)
        got = np.sum(star(StarKernel(theta, flavor="moyal"), f, g).values)
        want = np.sum(f.values * g.values)
        assert abs(got - want) < 1e-13 * np.sum(np.abs(f.values * g.values))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 1.0))
    def test_conjugation_reverses_factors(self, seed, theta):
        spec = star_box(16, theta)
        f = random_band_limited(spec, seed=seed)
        g = random_band_limited(spec, seed=seed + 7)
        kern = StarKernel(theta, flavor="moyal")
        lhs = np.conj(star(kern, f, g).values)
        rhs = star(kern, Field2D(spec, np.conj(g.values)), Field2D(spec, np.conj(f.values))).values
        assert rel_max_err(lhs, rhs) < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 1.0))
    def test_associativity_against_brute_force(self, seed, theta):
        # Bands 2 + 2 + 2 stay inside the 16-point mode box, so nothing aliases.
        spec = star_box(16, theta)
        f, g, h = (random_band_limited(spec, seed=seed + i) for i in range(3))
        kern = StarKernel(theta, flavor="moyal")
        lhs = star(kern, f, star(kern, g, h)).values
        rhs = star(kern, star(kern, f, g), h).values

        def brute(a, b):
            return brute_force_star(a, b, spec.k_t, spec.k_x, theta, "moyal")

        want = brute(brute(f.values, g.values), h.values)
        assert rel_max_err(lhs, want) < 1e-12
        assert rel_max_err(rhs, want) < 1e-12


def boosted_gaussian(n, theta, boost):
    """Centred width-sqrt(theta) Gaussian on +-8 sqrt(theta), times the t-mode e^{2 pi i boost t/L}."""
    f, _, _ = centred_gaussian(n, theta, 8.0, 1.0)
    spec = f.spec
    wave = np.exp(2j * np.pi * boost * (spec.t - spec.t_min) / (spec.t_max - spec.t_min))
    return Field2D(spec, f.values * wave[:, None])


def live_t_modes(f):
    """Signed t-indices of the rows that survive the product mode cutoff."""
    fh = np.fft.fft2(f.values)
    rows = np.flatnonzero(np.any(np.abs(fh) > 1e-14 * np.max(np.abs(fh)), axis=1))
    return (rows + f.spec.n_t // 2) % f.spec.n_t - f.spec.n_t // 2


SQUARE_CASES = {
    "gaussian_128": lambda: centred_gaussian(128, 0.1, 8.0, 1.0)[0],
    "gaussian_256": lambda: centred_gaussian(256, 0.1, 8.0, 1.0)[0],
    "boosted_128": lambda: boosted_gaussian(128, 0.1, 24),
    "narrow_32": lambda: centred_gaussian(32, 0.1, 4.0, 0.5)[0],
    "band_limited_32": lambda: random_band_limited(star_box(32, 0.2), band=5, seed=11),
}


class TestStarSquare:
    """star(k, f, f) reads one table of Bopp-shifted rows; a copy of f takes the general loop."""

    @staticmethod
    def general_rows_counted(monkeypatch):
        calls = []
        rows = star_module._moyal_rows
        monkeypatch.setattr(star_module, "_moyal_rows", lambda *a: calls.append(1) or rows(*a))
        return calls

    @pytest.mark.parametrize("flavor", ["voros", "moyal"])
    @pytest.mark.parametrize("case", sorted(SQUARE_CASES))
    def test_square_matches_general_loop(self, flavor, case, monkeypatch):
        f = SQUARE_CASES[case]()
        kernel = StarKernel(f.spec.theta, flavor)
        calls = self.general_rows_counted(monkeypatch)
        got = star(kernel, f, f)
        assert calls == []
        want = star(kernel, f, Field2D(f.spec, f.values.copy()))
        assert calls == [1]
        assert np.max(np.abs(got.values - want.values)) <= 1e-15 * np.max(np.abs(want.values))
        assert got.metadata == want.metadata

    def test_cases_reach_one_sided_rows_and_the_nyquist_row(self):
        # The boosted field's live t-rows are all positive, so {k_a} and {-k_a}
        # are disjoint; the narrow field's Nyquist row is live at the Moyal cap
        # M = N, where its -k is the frequency of no slot.
        assert np.min(live_t_modes(SQUARE_CASES["boosted_128"]())) > 0
        narrow = SQUARE_CASES["narrow_32"]()
        assert -16 in live_t_modes(narrow)
        assert star(StarKernel(0.1, "moyal"), narrow, narrow).metadata["mode_grid"] == [32, 32]

    def test_square_over_table_budget_takes_general_loop(self, monkeypatch):
        # White noise fills all 128 rows at the Moyal cap: a table would hold
        # 16 * 129 shifts * 128 rows * 128 points = 34 MB, over the budget.
        spec = star_box(128, 0.1)
        f = white_noise(spec, 3)
        kernel = StarKernel(0.1, "moyal")
        want = star(kernel, f, Field2D(spec, f.values.copy()))
        calls = self.general_rows_counted(monkeypatch)
        tracemalloc.start()
        try:
            got = star(kernel, f, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [1]
        assert peak < _SQUARE_TABLE_BYTES
        assert np.max(np.abs(got.values - want.values)) <= 1e-15 * np.max(np.abs(want.values))
        assert got.metadata == want.metadata


class TestThetaScaling:
    def test_deformation_vanishes_linearly(self):
        # |f * g - f g| scales like theta as theta -> 0.  Same physical box and
        # the same band-limited mode content at both theta values, so the
        # leading deviation is exactly linear.
        diffs = []
        for theta, n in ((0.04, 64), (0.01, 128)):
            spec = star_box(n, theta, half=1.6)
            fh = np.zeros((n, n), dtype=complex)
            gh = np.zeros((n, n), dtype=complex)
            rng = np.random.default_rng(99)
            coefs = rng.standard_normal((5, 5, 2))
            for a in range(-2, 3):
                for b in range(-2, 3):
                    fh[a % n, b % n] = coefs[a + 2, b + 2, 0] + 1j * coefs[a + 2, b + 2, 1]
                    gh[a % n, b % n] = coefs[b + 2, a + 2, 1] - 1j * coefs[a + 2, b + 2, 0]
            f = Field2D(spec, np.fft.ifft2(fh) * n * n)
            g = Field2D(spec, np.fft.ifft2(gh) * n * n)
            out = star(StarKernel(theta), f, g).values
            diffs.append(np.max(np.abs(out - f.values * g.values)))
        ratio = diffs[0] / diffs[1]
        assert 3.0 < ratio < 5.0

