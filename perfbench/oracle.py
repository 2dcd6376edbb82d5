"""Independent numpy-only oracle for the benchmark's output checks.

Nothing here calls an lfsynth kernel.  The oracle takes raw matrices (plant
realizations and the controller block as stored on disk) and recomputes every
quantity the benchmark checks along routes of its own:

* plant response by a dense complex solve per frequency;
* controller response from the raw block by the double LFT: first the
  integrator channel, then ``rho * I`` on the frequency response (lfsynth
  closes ``rho`` on the static block first);
* closed-loop gain by the frequency-wise lower LFT;
* peak gain by a global log scan, samples at every closed-loop resonance
  plus seeded random frequencies, then golden-section refinement at each
  candidate peak;
* stability from a closed-loop state matrix assembled here;
* H2 from the observability Gramian by a Kronecker-product solve.
"""

import numpy as np

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def response(a, b, c, d, omegas):
    """``c (i w I - a)^-1 b + d`` stacked over ``omegas``: shape (F, n_y, n_u)."""
    omegas = np.asarray(omegas, dtype=float)
    f = omegas.size
    if a.shape[0] == 0:
        return np.broadcast_to(d.astype(complex), (f,) + d.shape).copy()
    eye = np.eye(a.shape[0])
    m = 1j * omegas[:, None, None] * eye - a
    return c @ np.linalg.solve(m, np.broadcast_to(b, (f,) + b.shape)) + d


def controller_response(k, n_k, n_delta, rho, omegas):
    """K(i w, rho): close the integrators, then ``rho * I`` frequency-wise."""
    g = response(k[:n_k, :n_k], k[:n_k, n_k:], k[n_k:, :n_k], k[n_k:, n_k:], omegas)
    nd = n_delta
    g11, g12 = g[:, :nd, :nd], g[:, :nd, nd:]
    g21, g22 = g[:, nd:, :nd], g[:, nd:, nd:]
    if nd == 0:
        return g22
    loop = np.eye(nd) - rho * g11
    return g22 + rho * (g21 @ np.linalg.solve(loop, g12))


def instantiate(k, n_k, n_delta, rho):
    """Controller realization (a, b, c, d) at ``rho``: the static upper LFT of
    the block's parameter channel, written out entry block by entry block."""
    r1, r2 = n_k, n_k + n_delta
    a_k, b_w, b_u = k[:r1, :r1], k[:r1, r1:r2], k[:r1, r2:]
    c_z, d_zw, d_zu = k[r1:r2, :r1], k[r1:r2, r1:r2], k[r1:r2, r2:]
    c_y, d_yw, d_yu = k[r2:, :r1], k[r2:, r1:r2], k[r2:, r2:]
    if n_delta == 0:
        return a_k, b_u, c_y, d_yu
    # w_delta = rho z_delta, z_delta = c_z x + d_zw w_delta + d_zu y
    gain = rho * np.linalg.inv(np.eye(n_delta) - rho * d_zw)
    return (a_k + b_w @ gain @ c_z, b_u + b_w @ gain @ d_zu,
            c_y + d_yw @ gain @ c_z, d_yu + d_yw @ gain @ d_zu)


def lower_lft(p, kresp, n_u, n_y):
    """Frequency-wise ``P11 + P12 K (I - P22 K)^-1 P21`` for stacked responses."""
    n_z = p.shape[1] - n_y
    n_w = p.shape[2] - n_u
    p11, p12 = p[:, :n_z, :n_w], p[:, :n_z, n_w:]
    p21, p22 = p[:, n_z:, :n_w], p[:, n_z:, n_w:]
    loop = np.eye(n_y) - p22 @ kresp
    return p11 + p12 @ (kresp @ np.linalg.solve(loop, p21))


def closed_loop(plant, n_w, n_z, ctrl):
    """State-space (a, b, c, d) of the plant closed with the controller
    realization ``ctrl`` on its trailing inputs/outputs."""
    a, b, c, d = plant
    ak, bk, ck, dk = ctrl
    b1, b2 = b[:, :n_w], b[:, n_w:]
    c1, c2 = c[:n_z], c[n_z:]
    d11, d12, d21, d22 = d[:n_z, :n_w], d[:n_z, n_w:], d[n_z:, :n_w], d[n_z:, n_w:]
    # u = s (ck xk + dk c2 x + dk d21 w), with s = (I - dk d22)^-1
    s = np.linalg.inv(np.eye(dk.shape[0]) - dk @ d22)
    u_x, u_xk, u_w = s @ dk @ c2, s @ ck, s @ dk @ d21
    acl = np.block([[a + b2 @ u_x, b2 @ u_xk],
                    [bk @ (c2 + d22 @ u_x), ak + bk @ d22 @ u_xk]])
    bcl = np.vstack([b1 + b2 @ u_w, bk @ (d21 + d22 @ u_w)])
    ccl = np.hstack([c1 + d12 @ u_x, d12 @ u_xk])
    return acl, bcl, ccl, d11 + d12 @ u_w


def weight_response(spec, rho, omegas):
    """Stability/roll-off weight from its closed-form transfer function.

    ``spec`` carries the config's ``wk.*`` values: kind, gain, corner, w_m,
    alpha, m and rho_scaled.
    """
    s = 1j * np.asarray(omegas, dtype=float)
    if spec["kind"] == "static":
        h = np.full(s.shape, spec["gain"], dtype=complex)
    elif spec["kind"] == "first-order-lag":
        h = spec["gain"] / (s / spec["corner"] + 1.0)
    else:
        w, al, m = spec["w_m"], spec["alpha"], spec["m"]
        pref = 1.0 / rho if spec["rho_scaled"] else 1.0
        h = pref * (s**2 / (al * w) ** 2 + 2.0 * m * s / w + al**-2) / (
            s**2 / w**2 + 2.0 * m * s / w + 1.0)
    return h[:, None, None]


def weight_poles(spec):
    if spec["kind"] == "static":
        return np.zeros(0, dtype=complex)
    if spec["kind"] == "first-order-lag":
        return np.array([-spec["corner"] + 0j])
    w, m = spec["w_m"], spec["m"]
    return np.roots([1.0 / w**2, 2.0 * m / w, 1.0]).astype(complex)


def sigma_max(g):
    """Largest singular value per frequency of stacked responses."""
    if g.shape[1] == 1 and g.shape[2] == 1:
        return np.abs(g[:, 0, 0])
    return np.linalg.svd(g, compute_uv=False)[:, 0]


def peak_gain(gain, poles, rng, n_scan=240, n_random=32):
    """Peak of the real function ``gain(omegas)`` over omega >= 0.

    ``poles`` are the system's eigenvalues: the scan spans two decades beyond
    their magnitudes and samples a cluster at every resonance, so needle peaks
    of lightly damped modes are seen.  Every local maximum of the scan within
    half of the largest sample is refined by golden-section search on its
    bracketing interval.  Returns (peak value, peak frequency).
    """
    poles = np.asarray(poles, dtype=complex)
    mags = np.abs(poles[np.abs(poles) > 0.0])
    lo, hi = (mags.min() / 100.0, mags.max() * 100.0) if mags.size else (1e-2, 1e2)
    res = poles[poles.imag > 0.0]
    width = np.maximum(np.abs(res.real) / np.abs(res), 1e-9)
    offsets = np.array([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
    cluster = (res.imag * (1.0 + np.outer(offsets, width))).ravel()
    rand = np.exp(rng.uniform(np.log(lo), np.log(hi), n_random))
    scan = np.concatenate([[0.0], np.geomspace(lo, hi, n_scan), cluster, rand])
    scan = np.unique(scan[scan >= 0.0])
    vals = gain(scan)

    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    is_max = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:])
    cand = np.flatnonzero(is_max & (vals >= 0.5 * vals.max()))
    left = scan[np.maximum(cand - 1, 0)]
    right = scan[np.minimum(cand + 1, scan.size - 1)]
    best_i = int(np.argmax(vals))
    best_v, best_w = float(vals[best_i]), float(scan[best_i])
    # Vectorized golden-section search for the maximum on each bracket.
    x1 = right - _GOLDEN * (right - left)
    x2 = left + _GOLDEN * (right - left)
    f1, f2 = gain(x1), gain(x2)
    for _ in range(200):
        if np.all(right - left <= 1e-14 * np.maximum(right, 1e-300)):
            break
        up = f1 < f2  # maximum lies in [x1, right]
        left = np.where(up, x1, left)
        right = np.where(up, right, x2)
        new_x1 = np.where(up, x2, right - _GOLDEN * (right - left))
        new_x2 = np.where(up, left + _GOLDEN * (right - left), x1)
        f_new = gain(np.where(up, new_x2, new_x1))
        f1, f2 = np.where(up, f2, f_new), np.where(up, f_new, f1)
        x1, x2 = new_x1, new_x2
    for x, f in ((x1, f1), (x2, f2)):
        if f.size and f.max() > best_v:
            i = int(np.argmax(f))
            best_v, best_w = float(f[i]), float(x[i])
    return best_v, best_w


def h2_norm(a, b, c):
    """H2 norm of a stable strictly proper system from the observability
    Gramian ``q``: a' q + q a + c' c = 0, solved as a Kronecker system."""
    n = a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, a.T) + np.kron(a.T, eye)
    q = np.linalg.solve(lhs, -(c.T @ c).ravel(order="F")).reshape((n, n), order="F")
    return float(np.sqrt(max(np.trace(b.T @ q @ b), 0.0)))
