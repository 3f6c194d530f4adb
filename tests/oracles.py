"""Independent brute-force references shared across test modules.

These deliberately avoid the library's own fast paths: the star oracle is the
literal O(N^4) mode-pair sum, written once and kept dumb.  The slice partner
sum is the route the library's frame pairing replaced, kept as its reference,
as is the tagged mode-pair density its frame-route density replaced, and the
dense momentum-space oscillator is the one the ladder check's band block
replaced.
"""

import math

import numpy as np
import scipy.linalg

from starqm.fieldgrid import DEFAULT_MODE_CUTOFF, _drop_noise_modes
from starqm.phasecalc import PhasePoly, _dt_stack, _term_sum


def dense_multiplier(symbol):
    """Fourier multiplier as a dense matrix, F^-1 diag(symbol) F, from transforms of the identity."""
    modes = np.fft.fft(np.eye(len(symbol)), axis=0)
    return np.fft.ifft(modes * symbol[:, None], axis=0)


def oscillator_momentum_box(params, n_top, n_modes):
    """Periodic p-grid wide enough for levels up to n_top."""
    scale = math.sqrt(params.m * params.omega)
    extent = scale * (math.sqrt(2.0 * n_top + 1.0) + 10.0)
    dp = 2.0 * extent / n_modes
    return -extent + dp * np.arange(n_modes)


def oscillator_momentum_operator(params, energy, n_top, n_modes=256):
    """Dense momentum-space generator (1/2m)[p^2 - m^2 w^2 (d_p + i theta E/2)^2].

    Returns (p, H) on a periodic p-box sized for levels up to n_top.  At
    energy = 0 this is the gauge-stripped, theta-free operator; at the
    level energies it is the deformed one whose eigenfunctions carry the
    e^{-i theta E p/2} phase.
    """
    p = oscillator_momentum_box(params, n_top, n_modes)
    dp = float(p[1] - p[0])
    if params.theta * abs(energy) * dp / 2.0 > math.pi:
        raise ValueError(
            "gauge phase wraps across one momentum step "
            f"(theta*E*dp/2 = {params.theta * abs(energy) * dp / 2.0:.4g} > pi); "
            "refine the momentum box"
        )
    k = 2.0 * np.pi * np.fft.fftfreq(n_modes, d=dp)
    # (d_p + i theta E/2)^2 is the Fourier multiplier (ik + i theta E/2)^2,
    # whose dense matrix is the circulant c[(i - j) mod n] of c = ifft(symbol).
    # It is scaled, given its diagonal and Hermitized in place.
    H = scipy.linalg.circulant(np.fft.ifft((1j * k + 0.5j * params.theta * energy) ** 2))
    H *= -(params.m * params.omega**2 / 2.0)
    H[np.diag_indices(n_modes)] += p**2 / (2.0 * params.m)
    H += H.conj().T
    H *= 0.5
    return p, H


def dense_frame_levels(v_fn, x, k_x, m, theta, levels, e_scan, max_resolves=60):
    """Stationary levels by a real dense eigensolve in each level's own frame.

    The frame operator at energy E is the x-space matrix
    Re F^-1 diag(k^2/2m) F + diag(V(x - theta E/2)).  Level j takes its
    energy from the frame at e_scan and is re-solved at its latest energy
    until the energy moves by at most 1e-10 (1 + |E|), the library's settle
    rule, so both stop on the same step of the fixed-point walk.  Returns
    the energies and the slices F^-1 diag(e^{-theta k^2/4}) F q of the real
    frame vectors q, at arbitrary normalization and sign.
    """
    kinetic = dense_multiplier(k_x**2 / (2.0 * m)).real
    damp = dense_multiplier(np.exp(-theta * k_x**2 / 4.0)).real

    def solve(energy, j):
        frame = kinetic + np.diag(v_fn(x - theta * energy / 2.0))
        w, q = scipy.linalg.eigh(frame, subset_by_index=[j, j])
        return float(w[0]), q[:, 0]

    energies, slices = [], []
    for j in levels:
        energy, _ = solve(e_scan, j)
        for _ in range(max_resolves):
            previous = energy
            energy, q = solve(previous, j)
            if abs(energy - previous) <= 1e-10 * (1.0 + abs(energy)):
                break
        else:
            raise RuntimeError(f"oracle level {j} did not settle")
        energies.append(energy)
        slices.append(damp @ q)
    return energies, slices


def brute_force_star(values_f, values_g, k_t, k_x, theta, flavor="voros", cutoff=1e-14):
    """Literal mode-pair star product on a periodic grid.

    Every Fourier mode pair (k, k') is multiplied by the exact kernel and
    scattered into the wrapped output mode k + k'.  Modes below `cutoff`
    relative magnitude are dropped, mirroring the engine's noise guard
    (the Voros kernel amplifies anti-aligned high modes exponentially).
    """
    n_t, n_x = values_f.shape
    fh = np.fft.fft2(values_f)
    gh = np.fft.fft2(values_g)
    for arr in (fh, gh):
        peak = np.max(np.abs(arr))
        if peak > 0:
            arr[np.abs(arr) < cutoff * peak] = 0.0

    K0 = k_t[:, None]
    K1 = k_x[None, :]
    out = np.zeros_like(fh)
    for a in range(n_t):
        for b in range(n_x):
            if fh[a, b] == 0.0:
                continue
            k0, k1 = k_t[a], k_x[b]
            expo = -(0.5j * theta) * (k0 * K1 - k1 * K0)
            if flavor == "voros":
                expo = expo - (theta / 2.0) * (k0 * K0 + k1 * K1)
            contrib = fh[a, b] * gh * np.exp(expo)
            out += np.roll(np.roll(contrib, a, axis=0), b, axis=1)
    return np.fft.ifft2(out) / (n_t * n_x)


def brute_force_phase_star(coef_f, a, coef_g, b, k_x, theta, cutoff=1e-14, zero_mode_only=False):
    """Literal x-mode-pair Voros product of two phase polynomials.

    coef_f[d] is the x-profile multiplying t^d e^{iat} in F, likewise coef_g
    and b for G; the result is the coefficient stack of F * G (frequency
    a + b).  Each pair of x-modes (k, k') acts on the t-coefficients of
    f^(k) (x) g^(k') through expm of (theta/2)(alpha I + N) (x) (beta I + N),
    with alpha = ia + k, beta = ib - k' and N the t-derivative matrix, and
    lands in the wrapped output mode k + k' after setting t1 = t2 = t.
    Modes below `cutoff` relative magnitude are dropped as in the engine.
    With zero_mode_only only the pairs landing in output mode 0 are summed:
    the result is then exact for the product's x-integral alone.
    """
    from scipy.linalg import expm

    fh = np.fft.fft(np.atleast_2d(coef_f).astype(complex), axis=-1)
    gh = np.fft.fft(np.atleast_2d(coef_g).astype(complex), axis=-1)
    for arr in (fh, gh):
        peak = np.max(np.abs(arr))
        if peak > 0:
            arr[np.abs(arr) < cutoff * peak] = 0.0

    (df, n), dg = fh.shape, gh.shape[0]
    n_f = np.diag(np.arange(1.0, df), 1)
    n_g = np.diag(np.arange(1.0, dg), 1)
    out = np.zeros((df + dg - 1, n), dtype=complex)
    for i in range(n):
        if not np.any(fh[:, i]):
            continue
        for j in [-i % n] if zero_mode_only else range(n):
            if not np.any(gh[:, j]):
                continue
            alpha = 1j * a + k_x[i]
            beta = 1j * b - k_x[j]
            gen = (theta / 2.0) * np.kron(alpha * np.eye(df) + n_f, beta * np.eye(dg) + n_g)
            pair = (expm(gen) @ np.kron(fh[:, i], gh[:, j])).reshape(df, dg)
            for u in range(df):
                out[u : u + dg, (i + j) % n] += pair[u]
    return np.fft.ifft(out, axis=-1) / n


def dense_quasi_projection(values, t, x, k_t, k_x, theta, t0, cutoff=1e-14):
    """Fixed-time quasi-projection pi_{t0} by dense mode sums on every axis.

    Each grid mode is referenced to absolute coordinates with a 2-D origin
    phase and weighted per (E, p) = (-k_t, k_x) by the projector's mode
    weight (see symbols.quasi_projection_apply); the energy sum and the x
    synthesis are both dense products with explicit plane waves.  Modes
    below `cutoff` relative magnitude are dropped as in the library.
    """
    n_t, n_x = values.shape
    amps = np.fft.fft2(values) / (n_t * n_x)
    peak = np.max(np.abs(amps))
    if peak > 0:
        amps[np.abs(amps) < cutoff * peak] = 0.0
    amps = amps * np.exp(-1j * (k_t[:, None] * t[0] + k_x[None, :] * x[0]))
    E, p, tau = -k_t, k_x, t - t0
    mode_weight = (
        np.exp((theta / 8.0) * (E[:, None] ** 2 - p[None, :] ** 2))
        * np.exp(0.25j * theta * np.outer(E, p))
        * np.exp(-1j * E * t0)[:, None]
    ) / np.sqrt(2.0 * np.pi * theta)
    by_p = (amps * mode_weight).T @ np.exp(-0.5j * np.outer(E, tau))  # [p, t'']
    envelope = np.exp(-0.5 * np.outer(p, tau))
    gauss = np.exp(-(tau**2) / (2.0 * theta))
    return ((by_p * envelope).T * gauss[:, None]) @ np.exp(1j * np.outer(p, x))


def dense_boost(values, t, x, k_t, k_x, theta, v, m, cutoff=1e-14):
    """Galilean boost e^{-ivG} as the direct mode sum, with no FFT and no shear.

    The corner-referenced amplitudes psi_k come from dense DFT matrices; each
    surviving mode k = (k_t, k_x) is referenced to absolute coordinates, moved
    to k' = (k_t + v k_x - m v^2/2, k_x - m v), weighted by

        w_k = exp[(theta/4)(|k|^2 - |k'|^2) - i(theta m v/2) k_t
                  - i(theta m v^2/4) k_x + i theta m^2 v^3/12]

    and synthesized at every node as the outer product of e^{i k'_t t} and
    e^{i k'_x x}.  Modes below `cutoff` relative magnitude are dropped as in
    the library.
    """
    n_t, n_x = values.shape
    amps = np.exp(-1j * np.outer(k_t, t - t[0])) @ values @ np.exp(-1j * np.outer(x - x[0], k_x))
    amps = amps / (n_t * n_x)
    peak = np.max(np.abs(amps))
    out = np.zeros((n_t, n_x), dtype=complex)
    for a, b in zip(*np.nonzero(np.abs(amps) >= cutoff * peak)):
        kt, kx = k_t[a], k_x[b]
        kt2, kx2 = kt + v * kx - m * v**2 / 2, kx - m * v
        weight = np.exp(
            (theta / 4.0) * (kt**2 + kx**2 - kt2**2 - kx2**2)
            - 1j * (theta * m * v / 2) * kt
            - 1j * (theta * m * v**2 / 4) * kx
            + 1j * theta * m**2 * v**3 / 12
        )
        origin = np.exp(-1j * (kt * t[0] + kx * x[0]))
        out += amps[a, b] * origin * weight * np.outer(np.exp(1j * kt2 * t), np.exp(1j * kx2 * x))
    return out


def partner_pairing(bra, t):
    """ket -> (bra, ket)_t = integral dx bra* * ket by the Voros partner sum on values.

    bra and ket are phase polynomials of Voros amplitudes (values, not
    frames).  The pairing is the zero x-mode of bra * ket at t, times dx/N_x:
    the term sum of `phasecalc.phase_star` on the partner pairs k, -k alone,
    each weighted by its growth e^{(theta/2) alpha beta}.  On a stack, slice
    s of the bra pairs with slice s of the ket at time t[s] (t may be one
    time for every slice), and the result holds one pairing per slice.
    Each slice of either side is cut at DEFAULT_MODE_CUTOFF relative to its
    own peak (not at theta = 0), and the weight is exponentiated only on
    the partner pairs live in both.  A weight beyond floating-point range
    raises a ValueError that names the slice.  The library pairs slices
    through their Weyl frames instead; this is the reference it must match.
    """
    spec, c, n = bra.spec, bra.spec.theta / 2.0, bra.spec.n_x
    cutoff = DEFAULT_MODE_CUTOFF if c > 0.0 else 0.0  # cutoff 0 keeps every mode
    shape = np.shape(bra.a)  # () for a single state, (S,) for a stack

    def modes(coef):
        """Transform to (degree+1, S, n_x) and cut each slice at its own peak."""
        fh = np.fft.fft(coef, axis=-1).reshape(coef.shape[0], -1, n)
        return _drop_noise_modes(fh, cutoff, axis=(0, 2))[0]

    ts = np.broadcast_to(np.asarray(t, dtype=float), shape).reshape(-1)
    a_bra = np.reshape(bra.a, -1)
    bh = modes(np.conj(bra.coef))
    bra_live = np.any(bh, axis=0)
    kb = np.flatnonzero(np.any(bra_live, axis=0))
    bra_live, partner, fd = bra_live[:, kb], -kb % n, _dt_stack(bh[..., kb])
    alpha = -1j * a_bra[:, None] + spec.k_x[kb]

    def pair(ket):
        if ket.spec != spec:
            raise ValueError("the slice star requires states on the same GridSpec")
        if np.shape(ket.a) != shape:
            raise ValueError(f"ket stack {np.shape(ket.a)} does not match bra stack {shape}")
        a_ket = np.reshape(ket.a, -1)
        gh = modes(ket.coef)[..., partner]
        live = bra_live & np.any(gh, axis=0)
        cols = np.flatnonzero(np.any(live, axis=0))
        live = live[:, cols]
        # A pair dead in one slice but live in another keeps a zero exponent:
        # its amplitudes are zero there, and its Voros weight is never formed.
        beta = np.where(live, 1j * a_ket[:, None] - spec.k_x[partner[cols]], 0.0)
        fd_cols, gd_cols = [f[..., cols] for f in fd], _dt_stack(gh[..., cols])
        acc = _term_sum(c, alpha[:, cols], beta, fd_cols, gd_cols)
        powers = ts ** np.arange(acc.shape[0])[:, None]
        # An overflowed weight is rejected below, by name, not by a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            poly = np.sum(acc, axis=-1)
            total = np.exp(1j * (a_ket - a_bra) * ts) * np.sum(powers * poly, axis=0)
        bad = np.flatnonzero(~np.isfinite(total))
        if bad.size:
            s = int(bad[0])
            raise ValueError(
                f"slice pairing is not finite on slice {s} at t = {ts[s]:.6g} ({total[s]}): "
                "a Voros weight overflowed"
            )
        total = total * spec.dx / spec.n_x
        return total if shape else complex(total[0])

    return pair


def value_stack(flds, ts):
    """The values of energy-tagged slices on one GridSpec as one phase-polynomial
    stack, slice s unwound by e^{iEt} at ts[s]: the input `partner_pairing` takes."""
    energies = np.array([fld.metadata["energy"] for fld in flds])
    unwind = np.exp(1j * energies * np.asarray(ts, dtype=float))[:, None]
    return PhasePoly(flds[0].spec, -energies, np.array([fld.values for fld in flds])[None] * unwind)


def tagged_pair_density(values, energy, k_x, theta):
    """Star-density sqrt(2 pi theta) psi* (star) psi of a slice tagged with energy E,
    by the mode-pair sum on its values.

    With m_k = -iE - k the multiplier of d_t + i d_x on x-mode k,

        rho(x) = sqrt(2 pi theta)/N^2 sum_{k,k'} conj(psi_k) psi_k'
                 e^{(theta/2) conj(m_k) m_k'} e^{i(k' - k)(x - x_min)},

    over the modes that survive DEFAULT_MODE_CUTOFF: each pair lands in mode
    (k' - k) mod N, then one inverse FFT.  The library reads the slice's
    Weyl frame instead; this is the reference that route must match.
    """
    n = len(values)
    vhat, _ = _drop_noise_modes(np.fft.fft(values))
    live = np.flatnonzero(vhat)
    k, amps = k_x[live], vhat[live]
    mult = -1j * energy - k
    weight = np.outer(np.conj(amps), amps) * np.exp((theta / 2.0) * np.outer(np.conj(mult), mult))
    spectrum = np.zeros(n, dtype=complex)
    np.add.at(spectrum, (live - live[:, None]) % n, weight)
    return (math.sqrt(2.0 * math.pi * theta) / n) * np.fft.ifft(spectrum).real
