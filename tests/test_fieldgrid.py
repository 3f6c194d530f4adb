import math

import numpy as np
import pytest

from starqm.fieldgrid import (
    Field1D,
    Field2D,
    GridSpec,
    integrate,
    sample_field,
    spectral_derivative,
    to_csv,
)
from starqm.fieldgrid import _drop_noise_modes


def square_box(n=256, half=8.0, theta=0.0):
    return GridSpec(n_t=n, n_x=n, t_min=-half, t_max=half, x_min=-half, x_max=half, theta=theta)


def slice_gaussian(fn, n=256, half=8.0):
    spec = square_box(n=n, half=half)
    return Field1D(spec, 0.0, fn(spec.x))


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            square_box(n=12)

    def test_rejects_small_counts(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n_t=4, n_x=16, t_min=0, t_max=1, x_min=0, x_max=1)

    @pytest.mark.parametrize("count", ["n_t", "n_x"])
    @pytest.mark.parametrize("value", [8.0, 64.0, math.inf, math.nan])
    def test_rejects_a_count_that_is_no_integer(self, count, value):
        # Even a whole float is rejected by name, not by a TypeError from `n & (n - 1)`.
        counts = {"n_t": 64, "n_x": 64, count: value}
        with pytest.raises(ValueError, match=f"{count} must be a power of two >= 8"):
            GridSpec(**counts, t_min=0, t_max=1, x_min=0, x_max=1)

    def test_accepts_numpy_integer_counts(self):
        spec = GridSpec(np.int64(16), np.int32(32), 0.0, 1.0, 0.0, 1.0)
        assert (spec.n_t, spec.n_x) == (16, 32)

    def test_rejects_negative_theta(self):
        # NaN and inf both pass a bare `theta < 0` test.
        for theta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="theta must be >= 0"):
                square_box(theta=theta)

    def test_rejects_grid_too_coarse_for_theta(self):
        # dx = 2.0 but sqrt(0.1)/4 ~ 0.079
        with pytest.raises(ValueError, match="too coarse"):
            square_box(n=8, half=8.0, theta=0.1)

    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError, match="t_max"):
            GridSpec(n_t=8, n_x=8, t_min=1.0, t_max=1.0, x_min=0, x_max=1)
        # An infinite edge passes the ordering check and, at theta = 0, the
        # spacing limit too: it would give dt or dx = inf.
        box = dict(t_min=0.0, t_max=1.0, x_min=0.0, x_max=1.0)
        for name, edge in (("t_min", -np.inf), ("t_max", np.inf),
                           ("x_min", -np.inf), ("x_max", np.inf)):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GridSpec(n_t=8, n_x=8, **{**box, name: edge})
        # Finite edges whose difference overflows would give dt or dx = inf too.
        for axis in ("t", "x"):
            huge = {**box, f"{axis}_min": -1e308, f"{axis}_max": 1e308}
            with pytest.raises(ValueError, match=f"{axis}_max - {axis}_min must be finite"):
                GridSpec(n_t=8, n_x=8, **huge)

    def test_wavenumbers_cached_read_only(self):
        spec = GridSpec(n_t=16, n_x=32, t_min=-1.0, t_max=3.0, x_min=-4.0, x_max=4.0)
        for k, n, d in ((spec.k_t, 16, spec.dt), (spec.k_x, 32, spec.dx)):
            np.testing.assert_array_equal(k, 2.0 * np.pi * np.fft.fftfreq(n, d=d))
            with pytest.raises(ValueError, match="read-only"):
                k[0] = 1.0
        assert spec.k_t is spec.k_t
        assert spec.k_x is spec.k_x
        # The cache is not a field: equality and hashing read the geometry only.
        fresh = GridSpec(n_t=16, n_x=32, t_min=-1.0, t_max=3.0, x_min=-4.0, x_max=4.0)
        assert spec == fresh and hash(spec) == hash(fresh)

    def test_axes_exclude_right_endpoint(self):
        spec = square_box(n=16, half=4.0)
        assert spec.dx == pytest.approx(0.5)
        assert spec.x[0] == pytest.approx(-4.0)
        assert spec.x[-1] == pytest.approx(4.0 - 0.5)
        assert spec.t.shape == (16,)


class TestSampling:
    def test_zero_function(self):
        f = sample_field(lambda t, x: 0.0, square_box(n=16))
        assert np.all(f.values == 0)

    def test_zero_mode_plane_wave_is_ones(self):
        f = sample_field(lambda t, x: np.exp(-1j * (0 * t - 0 * x)), square_box(n=16))
        assert np.allclose(f.values, 1.0, rtol=0, atol=0)

    def test_gaussian_point_values(self):
        spec = square_box()
        f = sample_field(lambda t, x: np.exp(-(x**2)), spec)
        i0 = int(np.argmin(np.abs(spec.x - 0.0)))
        i1 = int(np.argmin(np.abs(spec.x - 1.0)))
        assert f.values[3, i0] == pytest.approx(1.0)
        assert f.values[3, i1] == pytest.approx(0.367879, abs=1e-6)

    def test_nonfinite_sample_rejected_with_node(self):
        spec = square_box(n=16, half=4.0)

        def bad(t, x):
            return np.where(np.abs(x - 1.0) < 1e-9, np.inf, 1.0)

        with pytest.raises(ValueError, match=r"non-finite.*x=1"):
            sample_field(bad, spec)

    def test_scalar_only_callable_is_handled(self):
        import math

        f = sample_field(lambda t, x: math.exp(-(x * x)), square_box(n=16))
        assert f.values.shape == (16, 16)


class TestSpectralDerivative:
    def test_plane_wave_eigenfunction(self):
        spec = square_box(n=64, half=4.0)
        k = spec.k_x[5]
        f = sample_field(lambda t, x: np.exp(1j * k * x), spec)
        d = spectral_derivative(f, "x", periodic=True)
        assert np.max(np.abs(d.values - 1j * k * f.values)) < 1e-12 * max(1.0, abs(k))

    def test_gaussian_derivative_matches_analytic(self):
        spec = square_box()
        f = sample_field(lambda t, x: np.exp(-(x**2)), spec)
        d = spectral_derivative(f, "x")
        exact = -2 * spec.x[None, :] * f.values
        interior = np.abs(spec.x) < 4.0
        err = np.max(np.abs(d.values[:, interior] - exact[:, interior]))
        assert err < 1e-8 * np.max(np.abs(exact))

    def test_constant_derivative_is_zero(self):
        f = sample_field(lambda t, x: 2.5 + 0j, square_box(n=16))
        d = spectral_derivative(f, "t", periodic=True)
        assert np.max(np.abs(d.values)) < 1e-13

    def test_order_zero_rejected(self):
        f = sample_field(lambda t, x: np.exp(-(x**2)), square_box(n=16))
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(f, "x", order=0)

    @pytest.mark.parametrize("order", [1.5, -1, math.inf, math.nan])
    def test_an_order_that_is_no_positive_integer_is_named(self, order):
        # inf and nan fail by name, not in int() with an OverflowError or ValueError.
        f = sample_field(lambda t, x: np.exp(-(x**2)), square_box(n=16))
        with pytest.raises(ValueError, match="derivative order must be a positive integer"):
            spectral_derivative(f, "x", order=order)

    def test_an_integral_float_order_is_the_integer_order(self):
        f = slice_gaussian(lambda x: np.exp(-(x**2)))
        twice = spectral_derivative(f, "x", order=2.0)
        assert np.array_equal(twice.values, spectral_derivative(f, "x", order=2).values)

    def test_edge_decay_violation_flagged(self):
        # Gaussian on a box only +-2 wide: e^{-4} ~ 0.018 at the edge.
        spec = square_box(n=16, half=2.0)
        f = sample_field(lambda t, x: np.exp(-(x**2)), spec)
        d = spectral_derivative(f, "x")
        assert "edge_decay_warning" in d.metadata
        assert d.metadata["edge_decay_warning"]["axis"] == "x"
        d2 = spectral_derivative(f, "x", periodic=True)
        assert "edge_decay_warning" not in d2.metadata

    def test_mixed_partials_commute(self):
        spec = square_box(n=128)
        f = sample_field(lambda t, x: np.exp(-(t**2) - x**2 + 0.3 * x), spec)
        a = spectral_derivative(spectral_derivative(f, "t"), "x")
        b = spectral_derivative(spectral_derivative(f, "x"), "t")
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_a_slice_frame_is_differentiated_beside_its_values(self):
        spec = square_box(n=128)
        values, frame = np.exp(-(spec.x**2)), np.exp(-(spec.x**2) / 2 + 0.4j * spec.x)
        d = spectral_derivative(Field1D(spec, 0.0, values, {}, frame), "x", order=2)
        alone = spectral_derivative(Field1D(spec, 0.0, frame), "x", order=2)
        assert np.array_equal(d.frame, alone.values)
        assert np.array_equal(d.values, spectral_derivative(Field1D(spec, 0.0, values), "x", 2).values)
        assert spectral_derivative(Field1D(spec, 0.0, values), "x").frame is None

    def test_field1d_axis_restriction(self):
        g = slice_gaussian(lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError, match="axis"):
            spectral_derivative(g, "t")


class TestDropNoiseModes:
    """The cut zeroes its input in place, where np.where(keep, fhat, 0) would."""

    @pytest.mark.parametrize("axis", [None, (2,), (0, 2)])
    @pytest.mark.parametrize("case", ["random", "nan_entry", "nan_peak", "zeros"])
    def test_zeroes_its_input_where_the_copying_rule_does(self, axis, case):
        rng = np.random.default_rng(17)
        shape = (3, 4, 16)
        fhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fhat *= 10.0 ** rng.uniform(-20.0, 0.0, shape)  # magnitudes on both sides of the cut
        if case == "nan_entry":
            fhat[1, 2, 3] = np.nan
        elif case == "nan_peak":
            fhat[np.unravel_index(np.argmax(np.abs(fhat)), shape)] = complex(np.nan, np.nan)
        elif case == "zeros":
            fhat[...] = 0.0
        mag = np.abs(fhat)
        keep = mag >= 1e-10 * np.max(mag, axis=axis, keepdims=True)
        want = np.where(keep, fhat, 0.0)
        out, dropped = _drop_noise_modes(fhat, 1e-10, axis=axis)
        assert out is fhat
        assert np.array_equal(out, want)
        assert dropped == fhat.size - np.count_nonzero(keep)
        assert (dropped == 0) == (case == "zeros")


class TestIntegrate:
    def test_regularized_delta_has_unit_weight(self):
        sigma = 0.5
        g = slice_gaussian(
            lambda x: np.exp(-(x**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi)),
            half=8 * sigma,
        )
        assert integrate(g) == pytest.approx(1.0, abs=1e-8)

    def test_zero_field(self):
        g = slice_gaussian(lambda x: 0.0 * x)
        assert integrate(g) == 0.0

    def test_gaussian_integral(self):
        g = slice_gaussian(lambda x: np.exp(-(x**2)))
        assert integrate(g) == pytest.approx(np.sqrt(np.pi), abs=1e-8)
        assert integrate(g) == pytest.approx(1.7724539, abs=1e-7)

    def test_full_2d_reduction(self):
        f = sample_field(lambda t, x: np.exp(-(t**2) - x**2), square_box())
        assert integrate(f) == pytest.approx(np.pi, abs=1e-8)

    def test_partial_reduction_returns_profile(self):
        spec = square_box(n=32, half=4.0)
        f = sample_field(lambda t, x: np.exp(-(t**2) - x**2), spec)
        prof = integrate(f, axes="x")
        assert isinstance(prof, np.ndarray) and prof.shape == (32,)
        assert prof[np.argmin(np.abs(spec.t))] == pytest.approx(np.sqrt(np.pi), abs=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        spec = square_box(n=32, half=4.0)
        u = Field2D(spec, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        v = Field2D(spec, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        lhs = integrate(Field2D(spec, a * u.values + b * v.values))
        rhs = a * integrate(u) + b * integrate(v)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_refinement_stability(self):
        vals = [
            integrate(slice_gaussian(lambda x: np.exp(-(x**2)), n=n)) for n in (256, 512)
        ]
        assert abs(vals[0] - vals[1]) < 1e-10


class TestFieldValidation:
    def test_shape_mismatch_rejected(self):
        spec = square_box(n=16)
        with pytest.raises(ValueError, match="shape"):
            Field2D(spec, np.zeros((16, 8)))

    def test_t_slice_outside_box_rejected(self):
        spec = square_box(n=16)
        with pytest.raises(ValueError, match="t_slice"):
            Field1D(spec, 99.0, np.zeros(16))

    def test_nonfinite_values_rejected(self):
        spec = square_box(n=16)
        vals = np.zeros((16, 16), complex)
        vals[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field2D(spec, vals)

    def test_frame_is_validated_like_values(self):
        spec = square_box(n=16)
        vals = np.zeros((16, 16))
        assert Field2D(spec, vals).frame is None
        fld = Field2D(spec, vals, {}, np.ones((16, 16)))
        assert fld.frame.dtype == np.complex128
        assert not fld.frame.flags.writeable
        with pytest.raises(ValueError, match="frame: expected shape"):
            Field2D(spec, vals, {}, np.ones((16, 8)))
        bad = np.ones((16, 16), complex)
        bad[2, 5] = np.inf
        with pytest.raises(ValueError, match="frame: non-finite"):
            Field2D(spec, vals, {}, bad)

    def test_slice_frame_is_validated_like_values(self):
        spec = square_box(n=16)
        assert Field1D(spec, 0.0, np.zeros(16)).frame is None
        fld = Field1D(spec, 0.0, np.zeros(16), {}, np.ones(16))
        assert fld.frame.dtype == np.complex128
        assert not fld.frame.flags.writeable
        with pytest.raises(ValueError, match="frame: expected shape"):
            Field1D(spec, 0.0, np.zeros(16), {}, np.ones(8))
        bad = np.ones(16, complex)
        bad[4] = np.nan
        with pytest.raises(ValueError, match="frame: non-finite"):
            Field1D(spec, 0.0, np.zeros(16), {}, bad)

    def test_deformed_slice_frame_needs_an_energy_tag(self):
        # The frame's modes carry e^{theta (E^2 + k^2)/4}; without E they are
        # not defined.  At theta = 0 the frame is the values and needs no tag.
        spec = square_box(n=16, half=0.1, theta=0.2)
        with pytest.raises(ValueError, match="frame at theta > 0 needs metadata"):
            Field1D(spec, 0.0, np.zeros(16), {}, np.ones(16))
        assert Field1D(spec, 0.0, np.zeros(16), {"energy": 0.5}, np.ones(16)).frame is not None
        assert Field1D(square_box(n=16), 0.0, np.zeros(16), {}, np.ones(16)).frame is not None


class TestCsv:
    def test_header_and_shape(self):
        spec = square_box(n=16, half=2.0)
        f = sample_field(lambda t, x: np.exp(-(x**2) - t**2), spec)
        text = to_csv(f)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x,re,im"
        assert len(lines) == 1 + 16 * 16

    def test_roundtrip_precision_and_determinism(self):
        spec = square_box(n=16, half=2.0)
        f = sample_field(lambda t, x: np.exp(-(x**2) - t**2) * (1 + 0.5j), spec)
        text = to_csv(f)
        assert text == to_csv(f)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        re = np.array([float(r[2]) for r in rows]).reshape(16, 16)
        im = np.array([float(r[3]) for r in rows]).reshape(16, 16)
        assert np.array_equal(re + 1j * im, f.values)
