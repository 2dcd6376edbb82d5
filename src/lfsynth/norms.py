"""System norms: certified H-infinity and the H2 norm.

The H-infinity norm is bracketed by bisection on the gain level gamma.  At
each trial level the associated Hamiltonian matrix is formed: it has
eigenvalues on the imaginary axis exactly when gamma is attained as a
singular value of the frequency response somewhere on the axis.  Whenever
imaginary eigenvalues appear, the response is probed at the midpoints of the
crossing frequencies, which lifts the lower bound far faster than plain
interval halving.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SingularMatrixError, UnstableError
from .matops import max_singular_value, solve_lyapunov
from .statespace import frequency_gain, spectral_abscissa

# Threshold for calling a Hamiltonian eigenvalue purely imaginary.
IMAG_EIG_TOL = 1e-8


@dataclass(frozen=True)
class NormResult:
    """A norm value plus the frequency at (or near) which it is achieved."""

    value: float
    peak_omega: float


def default_frequency_grid(sys, n_points=200, decades_span=1e3):
    """Log-spaced grid scaled to the system dynamics, plus all resonance frequencies."""
    if sys.is_static or sys.n == 0:
        return np.array([1.0])
    eig = np.linalg.eigvals(sys.a)
    radius = float(np.max(np.abs(eig))) if eig.size else 1.0
    scale = max(radius, 1e-8)
    base = np.geomspace(scale / decades_span, scale * decades_span, n_points)
    resonances = np.abs(eig.imag)
    resonances = resonances[resonances > 0.0]
    return np.unique(np.concatenate([base, resonances]))


def _sigma_at(sys, omega):
    gain = frequency_gain(sys, omega)
    if gain.size == 0:
        return 0.0
    return float(np.linalg.svd(gain, compute_uv=False)[0])


def _hamiltonian(sys, gamma):
    """Hamiltonian matrix whose imaginary eigenvalues mark frequencies where
    ``gamma`` is a singular value of the response."""
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    nu, ny = b.shape[1], c.shape[0]
    r = d.T @ d - gamma**2 * np.eye(nu)
    s = d @ d.T - gamma**2 * np.eye(ny)
    r_inv_dtc = np.linalg.solve(r, d.T @ c)
    r_inv_bt = np.linalg.solve(r, b.T)
    s_inv_c = np.linalg.solve(s, c)
    a_hat = a - b @ r_inv_dtc
    n = a.shape[0]
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = a_hat
    h[:n, n:] = -gamma * b @ r_inv_bt
    h[n:, :n] = gamma * c.T @ s_inv_c
    h[n:, n:] = -a_hat.T
    return h


def _imag_crossings(sys, gamma):
    """Positive frequencies where the Hamiltonian at ``gamma`` crosses the axis."""
    eig = np.linalg.eigvals(_hamiltonian(sys, gamma))
    on_axis = np.abs(eig.real) <= IMAG_EIG_TOL * (1.0 + np.abs(eig))
    freqs = np.abs(eig[on_axis].imag)
    freqs = np.unique(freqs[freqs > 0.0])
    return freqs


def hinf_norm(sys, rel_tol=1e-6):
    """Certified H-infinity norm of a stable system.

    The returned value is within ``rel_tol`` (relative) of the true norm.
    Raises UnstableError for systems with spectral abscissa >= 0 (the norm is
    unbounded or undefined there).
    """
    if not (0.0 < rel_tol <= 0.1):
        raise DomainError(f"rel_tol must lie in (0, 0.1], got {rel_tol}")
    d_gain = max_singular_value(sys.d)
    if sys.is_static:
        return NormResult(d_gain, 0.0)
    if spectral_abscissa(sys) >= 0.0:
        raise UnstableError("H-infinity norm requires a stable system")
    if max_singular_value(sys.b) == 0.0 or max_singular_value(sys.c) == 0.0:
        return NormResult(d_gain, 0.0)

    grid = np.concatenate([[0.0], default_frequency_grid(sys)])
    lb, peak = d_gain, grid[-1]

    def probe(freqs):
        """Raise the lower bound using response samples at the given frequencies.

        Near-marginal systems can trip the pole guard at resonance samples;
        those frequencies are simply skipped (the bisection finds the peak).
        """
        nonlocal lb, peak
        for w in freqs:
            try:
                s = _sigma_at(sys, w)
            except SingularMatrixError:
                continue
            if s > lb:
                lb, peak = s, w

    probe(grid)

    def has_crossings(gamma):
        # Guard the (gamma^2 I - D^T D) solves: perturb gamma off sigma_max(D).
        if abs(gamma - d_gain) <= 1e-12 * max(gamma, 1.0):
            gamma = gamma * (1.0 + 1e-10) + 1e-300
        freqs = _imag_crossings(sys, gamma)
        return freqs

    # Upper-bound seed: direct-gain plus a crude gain-bandwidth heuristic,
    # doubled until the Hamiltonian has no imaginary eigenvalues.
    alpha = abs(spectral_abscissa(sys))
    ub = d_gain + 2.0 * max_singular_value(sys.c) * max_singular_value(sys.b) / max(
        alpha, 1e-8
    )
    ub = max(ub, lb * (1.0 + 10.0 * rel_tol), 1e-12)
    for _ in range(200):
        freqs = has_crossings(ub)
        if freqs.size == 0:
            break
        mids = np.sqrt(freqs[:-1] * freqs[1:]) if freqs.size > 1 else freqs
        probe(np.concatenate([freqs, mids]))
        lb = max(lb, ub)
        ub *= 2.0
    else:
        raise NumericalError("failed to bracket the H-infinity norm from above")

    for _ in range(400):
        if ub - lb <= rel_tol * max(lb, 1e-300) or ub <= 1e-12:
            break
        gamma = 0.5 * (lb + ub)
        freqs = has_crossings(gamma)
        if freqs.size == 0:
            ub = gamma
        else:
            lb = max(lb, gamma)
            mids = np.sqrt(freqs[:-1] * freqs[1:]) if freqs.size > 1 else freqs
            probe(np.concatenate([freqs, mids]))
    else:
        raise NumericalError("H-infinity bisection failed to converge")

    return NormResult(0.5 * (lb + ub), float(peak))


def h2_norm(sys):
    """H2 norm of a stable, strictly proper system via the controllability Gramian."""
    if sys.is_static:
        if max_singular_value(sys.d) > 1e-12:
            raise DomainError("H2 norm undefined for systems with feedthrough")
        return 0.0
    if np.abs(sys.d).max() > 1e-12:
        raise DomainError("H2 norm undefined for systems with feedthrough")
    if spectral_abscissa(sys) >= 0.0:
        raise UnstableError("H2 norm requires a stable system")
    p = solve_lyapunov(sys.a, sys.b @ sys.b.T)
    value = float(np.trace(sys.c @ p @ sys.c.T))
    return float(np.sqrt(max(value, 0.0)))
