"""System norms: certified H-infinity and the H2 norm.

The H-infinity norm comes from the level-set iteration of Bruinsma and
Steinbuch (1990).  A batched scan of the frequency response gives a lower
bound: a gain attained at some frequency.  The Hamiltonian matrix at a level
just above that bound has eigenvalues on the imaginary axis exactly where a
singular value of the response crosses the level.  The largest singular
value stays above the level between consecutive crossings wherever it
exceeds it, so sampling the midpoints of the crossings either lifts the
bound to a larger attained gain or shows the level is out of reach.  The
returned value is therefore a gain the system attains, and the true norm lies
within a relative ``rel_tol`` above it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UnstableError
from .matops import max_singular_value, solve_lyapunov
from .statespace import FrequencyKernel, spectral_abscissa

# Threshold for calling a Hamiltonian eigenvalue purely imaginary.
IMAG_EIG_TOL = 1e-8
# Level sets tried before the norm is declared numerically out of reach; each
# one lifts the lower bound by at least a factor 1 + rel_tol.
MAX_LEVEL_SETS = 100


@dataclass(frozen=True)
class NormResult:
    """A norm value plus the frequency at (or near) which it is achieved."""

    value: float
    peak_omega: float


def default_frequency_grid(sys, n_points=200):
    """Log-spaced grid over three decades either side of the fastest pole,
    plus all resonance frequencies."""
    if sys.is_static:
        return np.array([1.0])
    return _pole_grid(np.linalg.eigvals(sys.a), n_points)


def _pole_grid(eig, n_points=200):
    """default_frequency_grid from the eigenvalues of the state matrix."""
    scale = max(float(np.max(np.abs(eig))), 1e-8)
    base = np.geomspace(scale / 1e3, scale * 1e3, n_points)
    resonances = np.abs(eig.imag)
    resonances = resonances[resonances > 0.0]
    return np.unique(np.concatenate([base, resonances]))


def _best_sample(kernel, omegas):
    """Largest gain over ``omegas`` and its frequency."""
    sigma = kernel.sigma(omegas)
    if np.isnan(sigma).any():
        # The system is stable, so no sample truly sits on a pole; a singular
        # sample is a numerical failure, never evidence of a small gain.
        raise NumericalError("frequency response singular on a stable system")
    i = int(np.argmax(sigma))
    return float(sigma[i]), float(omegas[i])


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

    The returned value is a gain the system attains at ``peak_omega`` (or
    ``sigma_max(d)``, approached at infinite frequency), and the true norm
    lies in ``[value, value * (1 + rel_tol)]``.  Raises
    UnstableError for systems with spectral abscissa >= 0 (the norm is
    unbounded or undefined there), and NumericalError when the level-set
    iteration does not settle or a response sample is singular.
    """
    if not (0.0 < rel_tol <= 0.1):
        raise DomainError(f"rel_tol must lie in (0, 0.1], got {rel_tol}")
    d_gain = max_singular_value(sys.d)
    if sys.is_static:
        return NormResult(d_gain, 0.0)
    kernel = FrequencyKernel(sys)
    if kernel.poles.real.max() >= 0.0:
        raise UnstableError("H-infinity norm requires a stable system")
    if max_singular_value(sys.b) == 0.0 or max_singular_value(sys.c) == 0.0:
        return NormResult(d_gain, 0.0)

    grid = np.concatenate([[0.0], _pole_grid(kernel.poles)])
    lb, peak = _best_sample(kernel, grid)
    if d_gain > lb:  # the response tends to d at infinite frequency
        lb, peak = d_gain, float(grid[-1])
    for _ in range(MAX_LEVEL_SETS):
        # An all-zero scan leaves no scale: test a tiny level instead.
        level = lb * (1.0 + rel_tol) if lb > 0.0 else 1e-12
        # Guard the (gamma^2 I - D^T D) solves: perturb off sigma_max(D).
        if abs(level - d_gain) <= 1e-12 * max(level, 1.0):
            level = level * (1.0 + 1e-10) + 1e-300
        freqs = _imag_crossings(sys, level)
        if freqs.size == 0:
            break
        mids = np.sqrt(freqs[:-1] * freqs[1:])
        value, omega = _best_sample(kernel, np.concatenate([freqs, mids]))
        if value < level:
            break
        lb, peak = value, omega
    else:
        raise NumericalError("H-infinity level-set iteration failed to converge")
    return NormResult(lb, peak)


def h2_norm(sys):
    """H2 norm of a stable, strictly proper system via the controllability
    Gramian; 0.0 for a system with no inputs or no outputs."""
    if max_singular_value(sys.d) > 1e-12:
        raise DomainError("H2 norm undefined for systems with feedthrough")
    if sys.is_static:
        return 0.0
    if spectral_abscissa(sys) >= 0.0:
        raise UnstableError("H2 norm requires a stable system")
    p = solve_lyapunov(sys.a, sys.b @ sys.b.T)
    value = float(np.trace(sys.c @ p @ sys.c.T))
    return float(np.sqrt(max(value, 0.0)))
