"""Dense linear-algebra kernels used by the state-space and synthesis layers.

All routines operate on plain 2-D ``numpy`` arrays of real floats, and the
Lyapunov solve on a stack of them too; they are pure functions of their
inputs, so they are safe to call concurrently.  They need numpy alone: the
Lyapunov solve is a matrix sign iteration of inverses and products.
"""

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    UnstableError,
)

# Condition number beyond which a solve is declared numerically singular.
COND_SINGULAR = 1e14
# Sign iteration of solve_lyapunov: scale while the relative step exceeds
# SIGN_SCALE_TOL, stop once it falls to SIGN_TOL, give up after SIGN_MAX_ITER.
SIGN_SCALE_TOL = 1e-2
SIGN_TOL = 1e-13
SIGN_MAX_ITER = 100


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D float array and validate that every entry is finite.

    Scalars become 1x1, 1-D sequences become a single row.
    """
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise DomainError(f"{name} contains non-finite entries")
    return m


def _require_square(m, name="matrix"):
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")


def eigenvalues(m):
    """All eigenvalues of a square matrix, with multiplicity, as a complex array."""
    m = as_matrix(m)
    _require_square(m)
    if m.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def max_singular_value(m):
    """Largest singular value of ``m``; 0.0 for an empty matrix."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    try:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc


def solve_linear(a, b):
    """Solve ``a @ x = b`` for a square, well-conditioned ``a``.

    Raises SingularMatrixError when the 2-norm condition estimate of ``a``
    exceeds COND_SINGULAR (the error surfaced when an LFT loop is ill posed).
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    _require_square(a, "a")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"b has {b.shape[0]} rows, expected {a.shape[0]}"
        )
    if a.shape[0] == 0:
        return np.zeros((0, b.shape[1]))
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_SINGULAR:
        raise SingularMatrixError(
            f"matrix is numerically singular (condition estimate {cond:.3e})"
        )
    return np.linalg.solve(a, b)


def _frobenius(m):
    """Frobenius norms (M,) of a stack (M, k, l), each reduced as
    np.linalg.norm reduces one matrix alone."""
    rows = m.reshape(m.shape[0], -1)
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def solve_lyapunov(a, q):
    """Solve ``a @ p + p @ a.T + q = 0`` for symmetric ``p``, for one
    equation (n, n) or for M of them stacked over a leading axis (M, n, n).

    ``q`` must be symmetric.  The scaled Newton iteration for the matrix sign
    function (Roberts 1980) runs on ``[[a, q], [0, -a.T]]``, whose sign is
    ``[[-I, 2 p], [0, I]]``; it needs only the inverse of the top-left block
    and products with it.  While the relative step is large, each point
    scales its iterate by ``mu = 1 / sqrt(max|x| min|x|)`` over the
    iterate's eigenvalues x (Kenney and Laub 1992), which the iteration maps
    from those of the Hurwitz check as the scalars ``(mu x + 1 / (mu x)) /
    2``.  The points iterate side by side, and each leaves the stack at the
    iteration where it would stop alone, so its ``p`` is bit for bit the one
    it gets alone.  The result is explicitly symmetrized.

    In a stack, a point whose ``a`` is not Hurwitz gets a ``p`` of ``inf``
    and takes no part in the iteration; one equation (n, n) raises
    UnstableError instead.  Raises SingularMatrixError when an iterate is
    numerically singular (the inverses, and so ``p``, would carry no
    correct digits) and NumericalError when the iteration of a point does
    not converge.
    """
    a, q = np.asarray(a, dtype=float), np.asarray(q, dtype=float)
    single = a.ndim < 3
    if single:
        a, q = np.atleast_2d(a)[None], np.atleast_2d(q)[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2] or q.shape != a.shape:
        raise DimensionError(
            f"a and q must be square and of one shape, got {a.shape} and {q.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise DomainError("a and q must have finite entries")
    asym = np.abs(q - np.swapaxes(q, 1, 2)).max(axis=(1, 2), initial=0.0)
    if (asym > 1e-12 * np.maximum(1.0, np.abs(q).max(axis=(1, 2), initial=0.0))).any():
        raise DomainError(f"q is asymmetric (max deviation {asym.max():.3e})")
    p = np.full(a.shape, np.inf)
    if a.shape[1] == 0:
        return p[0] if single else p
    try:
        x = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    hurwitz = (x.real < 0.0).all(axis=1)
    if single and not hurwitz[0]:
        raise UnstableError(
            f"state matrix is not Hurwitz (spectral abscissa {x.real.max():.3e})"
        )
    points = np.flatnonzero(hurwitz)
    a, q, x = a[points], q[points], x[points]
    scale = np.ones(points.size, dtype=bool)
    for _ in range(SIGN_MAX_ITER):
        if not points.size:
            break
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"state matrix is singular: {exc}") from exc
        mu = np.ones(points.size)
        if scale.any():
            cond = np.where(scale, _frobenius(a) * _frobenius(a_inv), 0.0)
            if not (cond <= COND_SINGULAR).all():
                raise SingularMatrixError(
                    "state matrix is numerically singular "
                    f"(condition estimate {cond.max():.3e})"
                )
            modulus = np.abs(x[scale])
            mu[scale] = 1.0 / np.sqrt(modulus.max(axis=1) * modulus.min(axis=1))
        mu_x = mu[:, None] * x
        x = 0.5 * (mu_x + 1.0 / mu_x)
        half_mu, half_inv = (0.5 * mu)[:, None, None], (0.5 / mu)[:, None, None]
        # mu a + a_inv / mu and its image of q, halved; the spent operands
        # take the products in place, which spares stack-sized temporaries
        q_next = a_inv @ q @ np.swapaxes(a_inv, 1, 2)
        q *= half_mu
        q += np.multiply(q_next, half_inv, out=q_next)
        a_next = half_mu * a
        a_next += np.multiply(a_inv, half_inv, out=a_inv)
        step = _frobenius(a_next - a) / _frobenius(a_next)
        a = a_next
        done = step <= SIGN_TOL
        if done.any():
            half_q = 0.5 * q[done]
            p[points[done]] = 0.5 * (half_q + np.swapaxes(half_q, 1, 2))
            points, a, q, x, step = (v[~done] for v in (points, a, q, x, step))
        scale = step > SIGN_SCALE_TOL
    if points.size:
        raise NumericalError(
            f"sign iteration failed to converge (relative step {step.max():.3e})"
        )
    return p[0] if single else p
