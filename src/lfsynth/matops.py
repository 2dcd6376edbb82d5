"""Dense linear-algebra kernels used by the state-space and synthesis layers.

All routines operate on plain 2-D ``numpy`` arrays of real floats and are pure
functions of their inputs, so they are safe to call concurrently.  They need
numpy alone: the Lyapunov solve is a matrix sign iteration of inverses and
products.
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


def solve_lyapunov(a, q):
    """Solve ``a @ p + p @ a.T + q = 0`` for symmetric ``p``.

    ``a`` must be Hurwitz and ``q`` symmetric.  The scaled Newton iteration
    for the matrix sign function (Roberts 1980) runs on
    ``[[a, q], [0, -a.T]]``, whose sign is ``[[-I, 2 p], [0, I]]``; it needs
    only the inverse of the top-left block and products with it.  The result
    is explicitly symmetrized.  Raises UnstableError when ``a`` is not
    Hurwitz, SingularMatrixError when an iterate is numerically singular
    (the inverses, and so ``p``, would carry no correct digits) and
    NumericalError when the iteration does not converge.
    """
    a = as_matrix(a, "a")
    q = as_matrix(q, "q")
    _require_square(a, "a")
    _require_square(q, "q")
    if q.shape[0] != a.shape[0]:
        raise DimensionError(
            f"q has size {q.shape[0]}, expected {a.shape[0]}"
        )
    asym = np.abs(q - q.T).max(initial=0.0)
    if asym > 1e-12 * max(1.0, np.abs(q).max(initial=0.0)):
        raise DomainError(f"q is asymmetric (max deviation {asym:.3e})")
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    alpha = np.max(eigenvalues(a).real)
    if alpha >= 0.0:
        raise UnstableError(
            f"state matrix is not Hurwitz (spectral abscissa {alpha:.3e})"
        )
    scale = True
    for _ in range(SIGN_MAX_ITER):
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"state matrix is singular: {exc}") from exc
        mu = 1.0
        if scale:
            # mu balances the norms of mu a and its inverse
            norm_a, norm_inv = np.linalg.norm(a), np.linalg.norm(a_inv)
            if not norm_a * norm_inv <= COND_SINGULAR:
                raise SingularMatrixError(
                    "state matrix is numerically singular "
                    f"(condition estimate {norm_a * norm_inv:.3e})"
                )
            mu = np.sqrt(norm_inv / norm_a)
        a_next = (0.5 * mu) * a + (0.5 / mu) * a_inv
        q = (0.5 * mu) * q + (0.5 / mu) * (a_inv @ q @ a_inv.T)
        step = np.linalg.norm(a_next - a) / np.linalg.norm(a_next)
        a = a_next
        if step <= SIGN_TOL:
            p = 0.5 * q
            return 0.5 * (p + p.T)
        scale = step > SIGN_SCALE_TOL
    raise NumericalError(
        f"sign iteration failed to converge (relative step {step:.3e})"
    )
