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

One implementation serves a single system and a stack of them: systems that
share their dimensions, stacked over a leading axis, run their iterations
side by side, with one frequency kernel for the scans and one Hamiltonian
eigensolve per level over the points still iterating.  Each point's result
is bit for bit the one it gets on its own.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UnstableError
from .matops import max_singular_value, solve_lyapunov
from .statespace import FrequencyKernel

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
    return _pole_grids(np.linalg.eigvals(sys.a)[None], n_points)[0]


def _pole_grids(poles, n_points=200):
    """default_frequency_grid of each row of poles (M, n), as a list of rows."""
    scale = np.maximum(np.abs(poles).max(axis=1), 1e-8)
    base = np.geomspace(scale / 1e3, scale * 1e3, n_points, axis=1)
    resonances = np.abs(poles.imag)
    return [np.unique(np.concatenate([g, r[r > 0.0]])) for g, r in zip(base, resonances)]


def _padded(rows):
    """Rows of unequal length as one array (M, F), each padded with repeats
    of its own last sample: a repeat adds no new sample, and argmax keeps
    returning the first occurrence."""
    out = np.empty((len(rows), max(row.size for row in rows)))
    for i, row in enumerate(rows):
        out[i, : row.size] = row
        out[i, row.size :] = row[-1]
    return out


def _best_samples(kernel, omegas):
    """Largest gain of each point of ``kernel`` over its row of ``omegas``
    (M, F), and its frequency."""
    sigma = kernel.sigma(omegas)
    if np.isnan(sigma).any():
        # The systems are stable, so no sample truly sits on a pole; a
        # singular sample is a numerical failure, never evidence of a small gain.
        raise NumericalError("frequency response singular on a stable system")
    i = np.argmax(sigma, axis=1)
    rows = np.arange(i.size)
    return sigma[rows, i], omegas[rows, i]


def _hamiltonian(kernel, gamma):
    """Hamiltonian matrices (M, 2n, 2n) whose imaginary eigenvalues mark the
    frequencies where ``gamma`` (M,) is a singular value of each response."""
    a, b, c, d = kernel.a, kernel.b, kernel.c, kernel.d
    nu, ny = b.shape[-1], c.shape[-2]
    # C's pow, as Python squares a float: x * x rounds differently in about
    # one case in a thousand, which would move the certified values.
    gamma2 = np.array([g**2 for g in gamma.tolist()])[:, None, None]
    gamma = gamma[:, None, None]
    dt, bt, ct = (np.swapaxes(m, -1, -2) for m in (d, b, c))
    r = dt @ d - gamma2 * np.eye(nu)
    s = d @ dt - gamma2 * np.eye(ny)
    r_inv_dtc = np.linalg.solve(r, dt @ c)
    r_inv_bt = np.linalg.solve(r, bt)
    s_inv_c = np.linalg.solve(s, c)
    a_hat = a - b @ r_inv_dtc
    n = a.shape[-1]
    h = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    h[:, :n, :n] = a_hat
    h[:, :n, n:] = -gamma * b @ r_inv_bt
    h[:, n:, :n] = gamma * ct @ s_inv_c
    h[:, n:, n:] = -np.swapaxes(a_hat, -1, -2)
    return h


def _imag_crossings(kernel, gamma):
    """Positive frequencies where each point's Hamiltonian at ``gamma`` (M,)
    crosses the axis, as a list of rows."""
    eig = np.linalg.eigvals(_hamiltonian(kernel, gamma))
    on_axis = np.abs(eig.real) <= IMAG_EIG_TOL * (1.0 + np.abs(eig))
    rows = []
    for e, on in zip(eig, on_axis):
        freqs = np.abs(e[on].imag)
        rows.append(np.unique(freqs[freqs > 0.0]))
    return rows


def _hinf_norms(systems, rel_tol):
    """Certified H-infinity norms of stable systems stacked over a leading
    axis (a Realization; a StateSpace is a stack of one): the values and
    peak frequencies (M,) that hinf_norm describes.

    Every point runs its own level-set iteration; each level builds and
    solves one Hamiltonian stack over the points whose bound it may still
    lift.  Raises UnstableError when any point is unstable.
    """
    if not (0.0 < rel_tol <= 0.1):
        raise DomainError(f"rel_tol must lie in (0, 0.1], got {rel_tol}")
    kernel = FrequencyKernel(systems)
    d = kernel.d
    if d.size:
        d_gain = np.linalg.svd(d, compute_uv=False)[..., 0]
    else:
        d_gain = np.zeros(d.shape[0])
    values, peaks = d_gain.copy(), np.zeros(d_gain.size)
    if kernel.a.shape[-1] == 0:
        return values, peaks
    if (kernel.poles.real >= 0.0).any():
        raise UnstableError("H-infinity norm requires a stable system")
    # zero b or c: the response is d at every frequency
    points = np.flatnonzero(kernel.b.any(axis=(1, 2)) & kernel.c.any(axis=(1, 2)))
    if not points.size:
        return values, peaks
    if points.size < d_gain.size:
        kernel, d_gain = kernel.take(points), d_gain[points]

    grid = _padded([np.concatenate([[0.0], g]) for g in _pole_grids(kernel.poles)])
    lb, peak = _best_samples(kernel, grid)
    tail = d_gain > lb  # the response tends to d at infinite frequency
    lb, peak = np.where(tail, d_gain, lb), np.where(tail, grid[:, -1], peak)
    for _ in range(MAX_LEVEL_SETS):
        # An all-zero scan leaves no scale: test a tiny level instead.
        level = np.where(lb > 0.0, lb * (1.0 + rel_tol), 1e-12)
        # Guard the (gamma^2 I - D^T D) solves: perturb off sigma_max(D).
        close = np.abs(level - d_gain) <= 1e-12 * np.maximum(level, 1.0)
        level = np.where(close, level * (1.0 + 1e-10) + 1e-300, level)
        freqs = _imag_crossings(kernel, level)
        crossed = np.array([f.size > 0 for f in freqs])
        lifted = np.zeros_like(crossed)
        if crossed.any():
            samples = [np.concatenate([f, np.sqrt(f[:-1] * f[1:])]) for f in freqs if f.size]
            value, omega = _best_samples(kernel.take(crossed), _padded(samples))
            up = value >= level[crossed]
            lifted[crossed] = up
            lb[lifted], peak[lifted] = value[up], omega[up]
        done = ~lifted
        values[points[done]], peaks[points[done]] = lb[done], peak[done]
        if not lifted.any():
            break
        points, kernel, d_gain, lb, peak = (
            points[lifted], kernel.take(lifted), d_gain[lifted], lb[lifted], peak[lifted]
        )
    else:
        raise NumericalError("H-infinity level-set iteration failed to converge")
    return values, peaks


def hinf_norm(sys, rel_tol=1e-6):
    """Certified H-infinity norm of a stable system.

    The returned value is a gain the system attains at ``peak_omega`` (or
    ``sigma_max(d)``, approached at infinite frequency), and the true norm
    lies in ``[value, value * (1 + rel_tol)]``.  Raises
    UnstableError for systems with spectral abscissa >= 0 (the norm is
    unbounded or undefined there), and NumericalError when the level-set
    iteration does not settle or a response sample is singular.
    """
    values, peaks = _hinf_norms(sys, rel_tol)
    return NormResult(float(values[0]), float(peaks[0]))


def h2_norm(sys):
    """H2 norm of a stable, strictly proper system via the controllability
    Gramian; 0.0 for a system with no inputs or no outputs."""
    if max_singular_value(sys.d) > 1e-12:
        raise DomainError("H2 norm undefined for systems with feedthrough")
    if sys.is_static:
        return 0.0
    # solve_lyapunov raises UnstableError for a state matrix that is not Hurwitz
    p = solve_lyapunov(sys.a, sys.b @ sys.b.T)
    value = float(np.trace(sys.c @ p @ sys.c.T))
    return float(np.sqrt(max(value, 0.0)))
