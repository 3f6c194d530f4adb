import math

import numpy as np
import pytest
from oracles import brute_force_phase_star, partner_pairing, value_stack

from starqm import dynamics, operators
from starqm.fieldgrid import Field1D, GridSpec
from starqm.operators import SymbolOperator
from starqm.phasecalc import (
    PhasePoly,
    _frame_pairing,
    _frames,
    _slice_part,
    _slice_stack,
    conjugate,
    phase_star,
    stationary_part,
)
from starqm.star import plane_wave_star_factor


def phase_box(n_x, theta, half=None, n_t=8):
    """Grid whose x axis is the working axis; the t axis just satisfies the
    resolution rule (phase-polynomial states never sample it)."""
    if half is None:
        half = n_x * math.sqrt(theta) / 8.0 if theta > 0 else 4.0
    dt = 0.9 * math.sqrt(theta) / 4.0 if theta > 0 else 0.5
    return GridSpec(n_t=n_t, n_x=n_x, t_min=0.0, t_max=n_t * dt,
                    x_min=-half, x_max=half, theta=theta)


def grid_momentum(spec, m):
    return 2 * np.pi * m / (spec.x_max - spec.x_min)


def plane_part(spec, E, p):
    """Stationary plane wave e^{-i(Et - px)} as a phase polynomial."""
    return stationary_part(spec, E, np.exp(1j * p * spec.x))


def t_monomial(spec, power):
    coef = np.zeros((power + 1, spec.n_x), dtype=complex)
    coef[power] = 1.0
    return PhasePoly(spec, 0.0, coef)


def rel_err(got, want):
    scale = max(np.max(np.abs(got)), np.max(np.abs(want)), 1e-300)
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / scale


class TestConstruction:
    def test_row_length_checked(self):
        spec = phase_box(32, 0.1)
        with pytest.raises(ValueError, match="n_x"):
            PhasePoly(spec, 0.0, np.ones(31))

    def test_non_finite_rejected(self):
        spec = phase_box(32, 0.1)
        bad = np.ones(32, dtype=complex)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PhasePoly(spec, 0.0, bad)

    def test_stationary_frequency_sign(self):
        # psi(x) e^{-iEt}: the stored frequency is -E.
        spec = phase_box(32, 0.1)
        part = stationary_part(spec, 2.5, np.ones(32))
        assert part.a == -2.5
        vals = part.values_at(0.3)
        assert vals[0] == pytest.approx(np.exp(-1j * 2.5 * 0.3))

    def test_values_at_polynomial(self):
        spec = phase_box(16, 0.0)
        poly = PhasePoly(spec, 0.0, np.vstack([np.ones(16), 2 * np.ones(16)]))
        assert poly.values_at(1.5)[3] == pytest.approx(1 + 2 * 1.5)

    def test_mixed_spec_rejected(self):
        a = t_monomial(phase_box(16, 0.1), 0)
        b = t_monomial(phase_box(32, 0.1), 0)
        for product in (phase_star, lambda bra, ket: _frame_pairing(bra, 0.0)(ket)):
            with pytest.raises(ValueError, match="GridSpec"):
                product(a, b)


class TestPlaneWaveMultiplier:
    @pytest.mark.parametrize("theta", [0.05, 0.2])
    def test_matches_closed_form(self, theta):
        spec = phase_box(64, theta)
        E1, E2 = 0.8, -0.3
        p1 = grid_momentum(spec, 2)
        p2 = grid_momentum(spec, -1)
        prod = phase_star(plane_part(spec, E1, p1), plane_part(spec, E2, p2))
        factor = plane_wave_star_factor(E1, p1, E2, p2, theta)
        want = factor * plane_part(spec, E1 + E2, p1 + p2).values_at(0.7)
        assert rel_err(prod.values_at(0.7), want) < 1e-12

    def test_conjugate_pair_growth(self):
        # e^{+i(Et-px)} * e^{-i(Et-px)} picks up exp[+(theta/2)(E^2+p^2)].
        theta = 0.1
        spec = phase_box(64, theta)
        p = grid_momentum(spec, 3)
        E = 1.2
        ket = plane_part(spec, E, p)
        prod = phase_star(conjugate(ket), ket)
        want = np.exp(theta / 2 * (E**2 + p**2)) * np.ones(spec.n_x)
        assert rel_err(prod.values_at(0.0), want) < 1e-12


class TestPolynomialStar:
    def test_t_star_t(self):
        # t * t = t^2 + theta/2: one derivative pairing survives.
        theta = 0.3
        spec = phase_box(32, theta)
        prod = phase_star(t_monomial(spec, 1), t_monomial(spec, 1))
        for t in (0.0, 1.7):
            assert rel_err(prod.values_at(t), t**2 + theta / 2) < 1e-14

    def test_time_coordinate_commutator(self):
        # [t, f(x)]_* = i theta f'(x), the coordinate algebra seen by symbols.
        theta = 0.25
        spec = phase_box(64, theta)
        k = grid_momentum(spec, 2)
        f = PhasePoly(spec, 0.0, np.sin(k * spec.x))
        t = t_monomial(spec, 1)
        comm = phase_star(t, f).values_at(0.9) - phase_star(f, t).values_at(0.9)
        want = 1j * theta * k * np.cos(k * spec.x)
        assert rel_err(comm, want) < 1e-12

    def test_degree_zero_times_constant(self):
        spec = phase_box(32, 0.4)
        one = t_monomial(spec, 0)
        f = plane_part(spec, 0.7, grid_momentum(spec, 1))
        left = phase_star(one, f)
        assert rel_err(left.values_at(0.2), f.values_at(0.2)) < 1e-13


class TestCommutativeLimit:
    def test_pointwise_product(self):
        spec = phase_box(64, 0.0)
        f = plane_part(spec, 1.0, grid_momentum(spec, 2))
        g = PhasePoly(spec, 0.0, np.vstack([spec.x, np.ones(64)]))
        prod = phase_star(f, g)
        t = 0.45
        assert rel_err(prod.values_at(t), f.values_at(t) * g.values_at(t)) < 1e-13


def onshell_packet(spec, energy, amps):
    """Symbol of a superposition of momentum modes with the Gaussian
    damping exp[-(theta/4)(E^2+p^2)] that on-shell symbols carry."""
    p = spec.k_x
    damp = np.exp(-spec.theta / 4 * (energy**2 + p**2))
    dp = 2 * np.pi / (spec.x_max - spec.x_min)
    values = (amps * damp) @ np.exp(1j * np.outer(p, spec.x)) * dp / math.sqrt(2 * np.pi)
    return stationary_part(spec, energy, values)


def gaussian_amps(spec, center, width, shift=0.0):
    p = spec.k_x
    return np.exp(-((p - center) ** 2) / (2 * width**2) + 1j * shift * p)


def both_pairings(bra, ket, t):
    """(bra, ket)_t of two stationary parts: by the partner sum on their values,
    and by the library's frame pairing of the unframed, energy-tagged slices
    of the same values (each slice gets its frame from `_frames`)."""
    slices = [Field1D(p.spec, 0.0, p.values_at(t), {"energy": -p.a}) for p in (bra, ket)]
    frames = [_slice_part(fld, t, frame=True) for fld in slices]
    return partner_pairing(bra, t)(ket), _frame_pairing(frames[0], t)(frames[1])


class TestInducedProduct:
    """Closed forms for the partner sum and for the frame route alike."""

    def test_same_energy_reduces_to_momentum_overlap(self):
        # (psi, phi)_t = integral dp conj(psi(p)) phi(p): the damping in the
        # symbols exactly cancels the Voros growth, for every slice t.
        theta = 0.2
        spec = phase_box(128, theta)
        E = 0.9
        a1 = gaussian_amps(spec, 1.0, 2.0)
        a2 = gaussian_amps(spec, -0.5, 1.5, shift=0.3)
        bra = onshell_packet(spec, E, a1)
        ket = onshell_packet(spec, E, a2)
        dp = 2 * np.pi / (spec.x_max - spec.x_min)
        want = np.sum(np.conj(a1) * a2) * dp
        for t in (0.0, 0.8):
            for got in both_pairings(bra, ket, t):
                assert rel_err(got, want) < 1e-10

    def test_cross_energy_closed_form(self):
        # Distinct energies: an extra phase e^{-i dE t}, a Gaussian suppression
        # e^{-(theta/4) dE^2}, and a momentum-space tilt e^{i (theta/2) p dE}.
        theta = 0.2
        spec = phase_box(128, theta)
        Eb, Ek = 0.4, 1.3
        a1 = gaussian_amps(spec, 0.8, 1.8)
        a2 = gaussian_amps(spec, -0.2, 1.2, shift=-0.5)
        bra = onshell_packet(spec, Eb, a1)
        ket = onshell_packet(spec, Ek, a2)
        dE = Ek - Eb
        p = spec.k_x
        dp = 2 * np.pi / (spec.x_max - spec.x_min)
        overlap = np.sum(np.conj(a1) * a2 * np.exp(1j * theta / 2 * p * dE)) * dp
        for t in (0.0, 1.1):
            want = np.exp(-1j * dE * t) * np.exp(-theta / 4 * dE**2) * overlap
            for got in both_pairings(bra, ket, t):
                assert rel_err(got, want) < 1e-10

    def test_norm_is_positive(self):
        spec = phase_box(128, 0.15)
        ket = onshell_packet(spec, 0.7, gaussian_amps(spec, 0.5, 1.0))
        for norm in both_pairings(ket, ket, 0.3):
            assert abs(norm.imag) < 1e-14 * abs(norm)
            assert norm.real > 0


class TestStateAlgebra:
    def test_conjugate_is_pointwise(self):
        spec = phase_box(32, 0.1)
        f = plane_part(spec, 1.3, grid_momentum(spec, 2))
        conj_vals = conjugate(f).values_at(0.6)
        assert rel_err(conj_vals, np.conj(f.values_at(0.6))) < 1e-15

    def test_integrate_constant(self):
        # The slice pairing is the plain sum times dx: (1, 1)_t is the box length.
        spec = phase_box(32, 0.1)
        one = t_monomial(spec, 0)
        assert _frame_pairing(one, 0.0)(one) == pytest.approx(spec.x_max - spec.x_min)


def oracle_rows(spec, degree, kind, rng):
    """Coefficient rows: random low x-modes ("band") or white noise on every node."""
    shape = (degree + 1, spec.n_x)
    if kind == "white":
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hat = np.zeros(shape, dtype=complex)
    low = np.r_[0:4, -3:0]
    size = (degree + 1, low.size)
    hat[:, low] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return np.fft.ifft(hat, axis=-1) * spec.n_x


@pytest.mark.parametrize("kind", ["band", "white"])
@pytest.mark.parametrize("deg_g", [0, 1, 2])
@pytest.mark.parametrize("deg_f", [0, 1, 2])
@pytest.mark.parametrize("theta", [0.1, 0.5])
class TestBruteForceOracle:
    """The pair sums against the literal expm-per-mode-pair product F * G.

    `partner_pairing` pairs bra = conj(F) with ket = G, so the one oracle
    product serves both checks; one prepared bra then serves kets of every
    degree and several frequencies against the oracle's zero output mode.
    """

    def test_phase_star_and_induced_product(self, theta, deg_f, deg_g, kind):
        spec = phase_box(32, theta)
        rng = np.random.default_rng([deg_f, deg_g, int(kind == "white"), int(100 * theta)])
        F = PhasePoly(spec, 0.7, oracle_rows(spec, deg_f, kind, rng))
        G = PhasePoly(spec, -0.4, oracle_rows(spec, deg_g, kind, rng))
        t = 0.7
        coef = brute_force_phase_star(F.coef, F.a, G.coef, G.a, spec.k_x, theta)
        want = PhasePoly(spec, F.a + G.a, coef).values_at(t)

        got = phase_star(F, G).values_at(t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        bra = PhasePoly(spec, -F.a, np.conj(F.coef))
        got = partner_pairing(bra, t)(G)
        assert abs(got - np.sum(want) * spec.dx) <= 1e-12 * np.sum(np.abs(want)) * spec.dx

        pair = partner_pairing(bra, t)
        for deg, b in ((0, 1.1), (1, -0.9), (2, 0.0)):
            ket = PhasePoly(spec, b, oracle_rows(spec, deg, kind, rng))
            coef = brute_force_phase_star(F.coef, F.a, ket.coef, b, spec.k_x, theta,
                                          zero_mode_only=True)
            want = np.sum(PhasePoly(spec, F.a + b, coef).values_at(t)) * spec.dx
            assert abs(pair(ket) - want) <= 1e-12 * abs(want)


def test_overflowing_weight_raises():
    # White noise at spacing sqrt(theta)/32: the top Voros weights reach
    # e^{512 pi^2}, beyond floating-point range.  The named ValueError is all
    # the caller sees: no numpy RuntimeWarning comes first, which under
    # filterwarnings = error would replace it.
    theta = 0.1
    spec = phase_box(32, theta, half=math.sqrt(theta) / 2.0)
    f = PhasePoly(spec, 0.0, oracle_rows(spec, 0, "white", np.random.default_rng(5)))
    with pytest.raises(ValueError, match="finite"):
        phase_star(f, f)
    with pytest.raises(ValueError, match="finite"):
        partner_pairing(f, 0.0)(f)
    # The library grows the frame of the same values by e^{theta k^2/4},
    # which is beyond range here too, and names that conversion.
    bare = Field1D(spec, 0.0, f.coef[0], {"energy": 0.0})
    with pytest.raises(ValueError, match="Weyl frame grown from slice 0's values is not finite"):
        _slice_part(bare, frame=True)


PACKETS = ((-0.5, 0.3, 1.0, 0.5, 0.0), (0.8, -0.6, 0.8, 1.7, 0.05), (0.2, 1.1, 1.3, -0.4, 0.13))


def packet_slices(theta, shapes=PACKETS, scales=(1.0, 1.0, 1.0)):
    """Gaussian slices on the 512-point x in [-12, 12] grid, each with its own
    centre, momentum, width, energy tag and slice time."""
    spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
    return [
        Field1D(spec, t, scale * np.exp(-((spec.x - x0) / width) ** 2 / 2 + 1j * p * spec.x),
                {"energy": energy})
        for (x0, p, width, energy, t), scale in zip(shapes, scales)
    ]


class TestStackedPairing:
    """The library's stacked pass on unframed slices against one pairing per
    slice, to 1e-14 relative: its own single-slice route, and the partner sum."""

    def stacked_and_single(self, slices, op):
        """The stacked pairings, the library's per slice, and the partner sum's per slice."""
        ts = [f.t_slice for f in slices]
        op_w = operators._weyl_frame(op, slices[0].spec.theta)

        def frame_pairs(part, t):
            return _frame_pairing(part, t)(operators.apply(op_w, part))

        got = frame_pairs(_slice_stack(slices, ts, [op]), ts)
        single, partner = [], []
        for fld, t in zip(slices, ts):
            single.append(frame_pairs(_slice_part(fld, t, [op], frame=True), t))
            part = _slice_part(fld, t, [op])
            partner.append(partner_pairing(part, t)(operators.apply(op, part)))
        return got, np.array(single), np.array(partner)

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.2])
    @pytest.mark.parametrize(
        "op",
        [
            operators.p_x(),
            operators.x_theta_l,
            operators.t_theta_l,
            SymbolOperator(0.0, {(1, 1, 0, 0): 1.0}),
        ],
        ids=["p_x", "x_theta_l", "t_theta_l", "t_x"],
    )
    def test_matches_one_pairing_per_slice(self, theta, op):
        """Slices with their own energy tags and times; operators of t-degree
        0 and 1; theta = 0 keeps every mode."""
        op = op(theta) if callable(op) else op
        got, single, partner = self.stacked_and_single(packet_slices(theta), op)
        assert got.shape == (3,)
        for want in (single, partner):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_each_slice_is_cut_by_its_own_peak(self):
        """The small slice is narrow: at theta = 0.2 its Voros weights lift its
        modes between 1e-14 and 1e-8 of its peak to about 1e-3 of its
        pairing, so a cut relative to the 1e6 times larger slice shows.
        The partner sum is no reference here: it cuts the operator's image
        of the values, the frame route the values, and on this slice the
        cut moves the pairing by about 1e-5 either way."""
        theta = 0.2
        narrow = ((0.3, 0.4, 0.35, 0.9, 0.02),) + PACKETS[:1]
        slices = packet_slices(theta, narrow, scales=(1.0, 1e6))
        for op in (operators.x_theta_l(theta), operators.p_x()):
            got, single, _ = self.stacked_and_single(slices, op)
            assert np.all(np.abs(got - single) <= 1e-14 * np.abs(single))

    def test_a_single_state_pairs_to_a_complex_number(self):
        fld = packet_slices(0.1)[0]
        part = _slice_part(fld)
        stack = value_stack([fld], [fld.t_slice])
        single = partner_pairing(part, fld.t_slice)(part)
        assert isinstance(single, complex)
        assert partner_pairing(stack, [fld.t_slice])(stack) == np.array([single])

    def test_stack_shapes_are_checked(self):
        slices = packet_slices(0.1)
        stack = value_stack(slices, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="one frequency a per slice"):
            PhasePoly(stack.spec, 0.0, stack.coef)
        with pytest.raises(ValueError, match="does not match bra stack"):
            partner_pairing(stack, 0.0)(_slice_part(slices[0]))
        with pytest.raises(ValueError, match="single states, not stacks"):
            phase_star(stack, stack)
        other = Field1D(phase_box(64, 0.1), 0.0, np.ones(64), {"energy": 0.0})
        with pytest.raises(ValueError, match="same GridSpec"):
            _slice_stack([slices[0], other], [0.0, 0.0])

    def test_overflow_names_the_slice(self):
        theta = 0.1
        spec = phase_box(32, theta, half=math.sqrt(theta) / 2.0)
        rng = np.random.default_rng(5)
        smooth, white = oracle_rows(spec, 0, "band", rng), oracle_rows(spec, 0, "white", rng)
        stack = PhasePoly(spec, np.zeros(2), np.stack([smooth, white], axis=1))
        with pytest.raises(ValueError, match="not finite on slice 1 at t = 0.5"):
            partner_pairing(stack, [0.0, 0.5])(stack)


def eigenstates(theta, levels=3):
    """Closed-form oscillator levels with their frames, on the 512-point x in [-12, 12] slice."""
    spec = GridSpec(8, 512, 0.0, 0.2, -12.0, 12.0, theta)
    osc = dynamics.OscillatorParams(1.0, 1.0, theta)
    return [dynamics.oscillator_eigenstate(osc, n, spec) for n in range(levels)]


class TestFramePairing:
    """The bounded line sum on Weyl frames against the partner sum on values."""

    @pytest.mark.parametrize("theta", [0.0625, 0.1, 0.15])
    def test_matches_the_partner_sum_on_kets_of_any_t_degree(self, theta):
        # Off-diagonal pairs carry A = i(E_bra - E_ket) != 0; T, T^2, t x and
        # T^3 give the ket t-polynomials of degree 1 to 3, so every D term of
        # the finite exponential is exercised.
        states = eigenstates(theta)
        t_op, x_op = operators.t_theta_l(theta), operators.x_theta_l(theta)
        ops = [t_op, t_op.compose(t_op), SymbolOperator(theta, {(1, 1, 0, 0): 1.0}),
               x_op.compose(t_op), t_op.compose(t_op).compose(t_op)]
        t = 0.1
        for op in ops:
            op_w = operators._weyl_frame(op, theta)
            for bra in states:
                for ket in states:
                    got = _frame_pairing(_slice_part(bra, t, frame=True), t)(
                        operators.apply(op_w, _slice_part(ket, t, frame=True)))
                    want = partner_pairing(_slice_part(bra, t), t)(
                        operators.apply(op, _slice_part(ket, t)))
                    assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_equal_energies_of_degree_zero_pair_as_the_l2_sum(self):
        states = eigenstates(0.2)
        spec = states[0].spec
        stack = _slice_stack(states, [0.0, 0.05, 0.1])
        got = _frame_pairing(stack, [0.0, 0.05, 0.1])(stack)
        want = [np.vdot(s.frame, s.frame) * spec.dx for s in states]
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.allclose(got, 1.0, rtol=0.0, atol=1e-14)

    def test_a_stack_pairs_like_one_pairing_per_slice(self):
        # Each slice of the ket carries another level than the bra's slice,
        # so every slice takes the transformed route with its own A.
        states = eigenstates(0.15, levels=4)
        ts = [0.02, 0.07, 0.11]
        op_w = operators._weyl_frame(operators.x_theta_l(0.15), 0.15)
        bra = _slice_stack(states[:3], ts)
        ket = _slice_stack(states[1:], ts)
        got = _frame_pairing(bra, ts)(operators.apply(op_w, ket))
        for s, (b, k, t) in enumerate(zip(states[:3], states[1:], ts)):
            single = _frame_pairing(_slice_part(b, t, frame=True), t)(
                operators.apply(op_w, _slice_part(k, t, frame=True)))
            assert isinstance(single, complex)
            assert got[s] == pytest.approx(single, rel=1e-14)

    def test_stack_shapes_are_checked(self):
        states = eigenstates(0.1)
        stack = _slice_stack(states, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="does not match bra stack"):
            _frame_pairing(stack, 0.0)(_slice_part(states[0], frame=True))
        other = PhasePoly(phase_box(64, 0.1), 0.0, np.ones(64))
        with pytest.raises(ValueError, match="same GridSpec"):
            _frame_pairing(_slice_part(states[0], frame=True), 0.0)(other)

    def test_an_overflowing_pair_is_named(self):
        # Frames of 1e200 are finite, but their L2 sum is not: the pairing
        # names the slice instead of returning inf, with no numpy warning
        # first (warnings are errors here), in x-space (the norm) and
        # through the transform (a ket of t-degree 1).
        states = eigenstates(0.1, levels=2)
        huge = Field1D(states[1].spec, 0.0, states[1].values, dict(states[1].metadata),
                       states[1].frame * 1e200)
        ts = [0.0, 0.5]
        stack = _slice_stack([states[0], huge], ts)
        t_w = operators._weyl_frame(operators.t_theta_l(0.1), 0.1)
        for ket in (stack, operators.apply(t_w, stack)):
            with pytest.raises(ValueError, match="not finite on slice 1 at t = 0.5"):
                _frame_pairing(stack, ts)(ket)


class TestUnframedSlices:
    """A slice without a frame is paired through the frame `_frames` grows from its values."""

    @pytest.mark.parametrize("theta", [0.0, 0.0625, 0.1, 0.2])
    def test_the_grown_frame_is_the_one_the_constructor_sets(self, theta):
        # Bare copies of the eigenstates: their values grown by
        # e^{theta (E^2 + k^2)/4} give back the closed-form frames, which at
        # theta = 0 are the values themselves.
        states = eigenstates(theta, levels=4)
        bare = [Field1D(s.spec, s.t_slice, s.values, dict(s.metadata)) for s in states]
        energies = np.array([s.metadata["energy"] for s in states])
        got = _frames(bare, energies)
        for row, state in zip(got, states):
            if theta == 0.0:
                assert np.array_equal(row, state.values)
            assert rel_err(row, state.frame) <= 1e-13
        assert all(fld.frame is None for fld in bare)  # grown for the caller, never stored

    @pytest.mark.parametrize("n_x, theta", [(1024, 0.2), (512, 0.64)])
    def test_cut_modes_beyond_the_growth_range_stay_zero(self, n_x, theta):
        # theta k_max^2 / 4 is about 898 and 719: the top modes' growth is
        # beyond floating-point range, but they are cut, and a smooth
        # Gaussian pairs as the partner sum pairs it.
        spec = GridSpec(8, n_x, 0.0, 0.2, -12.0, 12.0, theta)
        assert theta * np.max(spec.k_x**2) / 4.0 > 709.8
        fld = Field1D(spec, 0.0, np.exp(-spec.x**2 / 2), {"energy": 0.7})
        part = _slice_part(fld, frame=True)
        got = _frame_pairing(part, 0.0)(part)
        values = _slice_part(fld)
        want = partner_pairing(values, 0.0)(values)
        assert abs(got - want) <= 1e-13 * abs(want)
