"""Independent brute-force references shared across test modules.

These deliberately avoid the library's own fast paths: the star oracle is the
literal O(N^4) mode-pair sum, written once and kept dumb.
"""

import numpy as np


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


def brute_force_phase_star(coef_f, a, coef_g, b, k_x, theta, cutoff=1e-14):
    """Literal x-mode-pair Voros product of two phase polynomials.

    coef_f[d] is the x-profile multiplying t^d e^{iat} in F, likewise coef_g
    and b for G; the result is the coefficient stack of F * G (frequency
    a + b).  Each pair of x-modes (k, k') acts on the t-coefficients of
    f^(k) (x) g^(k') through expm of (theta/2)(alpha I + N) (x) (beta I + N),
    with alpha = ia + k, beta = ib - k' and N the t-derivative matrix, and
    lands in the wrapped output mode k + k' after setting t1 = t2 = t.
    Modes below `cutoff` relative magnitude are dropped as in the engine.
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
        for j in range(n):
            if not np.any(gh[:, j]):
                continue
            alpha = 1j * a + k_x[i]
            beta = 1j * b - k_x[j]
            gen = (theta / 2.0) * np.kron(alpha * np.eye(df) + n_f, beta * np.eye(dg) + n_g)
            pair = (expm(gen) @ np.kron(fh[:, i], gh[:, j])).reshape(df, dg)
            for u in range(df):
                out[u : u + dg, (i + j) % n] += pair[u]
    return np.fft.ifft(out, axis=-1) / n
