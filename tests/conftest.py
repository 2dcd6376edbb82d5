import numpy as np
import pytest

from lfsynth import ControllerBlock, PartitionedSystem, StateSpace
from lfsynth.errors import DimensionError
from lfsynth.lft import _require, _well_posed
from lfsynth.statespace import static_gain


def random_stable_ss(rng, n, n_u=1, n_y=1, margin=0.3, with_d=True):
    """Random stable system: the state matrix is shifted left of the axis."""
    a = rng.normal(size=(n, n))
    shift = np.max(np.linalg.eigvals(a).real) + margin + rng.uniform(0.0, 0.5)
    a -= shift * np.eye(n)
    b = rng.normal(size=(n, n_u))
    c = rng.normal(size=(n_y, n))
    d = rng.normal(size=(n_y, n_u)) * (0.2 if with_d else 0.0)
    return StateSpace(a, b, c, d)


STACK_KINDS = ("plain", "real", "jordan", "near-pole", "zero-b", "feedthrough")


def stack_point(rng, kind, n, n_u=1, n_y=1):
    """One stable system of a stack whose points share n, n_u and n_y.

    ``kind`` picks what the stacked kernel and norm must handle per point: a
    real spectrum (eig gives real eigenvectors), a Jordan block (the dense
    fallback), a resonance damped by 1e-10 (its resonance sample lies within
    NEAR_POLE_TOL of the pole), zero b, or a feedthrough that dominates
    small dynamics (the response may peak at infinite frequency).  With
    ``n = 0`` every kind is a static gain.
    """
    if n == 0:
        return static_gain(rng.normal(size=(n_y, n_u)))
    sys = random_stable_ss(rng, n, n_u, n_y)
    a, b, c, d = (np.array(m) for m in (sys.a, sys.b, sys.c, sys.d))
    if kind == "real":
        a = np.triu(rng.normal(size=(n, n)), 1) - np.diag(rng.uniform(0.2, 5.0, n))
    elif kind == "jordan":
        a = -np.eye(n) + np.eye(n, k=1)
    elif kind == "near-pole" and n >= 2:
        w, zeta = rng.uniform(0.5, 5.0), 1e-10
        a = np.zeros((n, n))
        a[:2, :2] = [[0.0, 1.0], [-w * w, -2.0 * zeta * w]]
        if n > 2:
            a[2:, 2:] = random_stable_ss(rng, n - 2).a
    elif kind == "zero-b":
        b[:] = 0.0
    elif kind == "feedthrough":
        b *= 1e-3
        d = 10.0 * np.eye(n_y, n_u) + d
    return StateSpace(a, b, c, d)


def random_partitioned(rng, n, n_w, n_u, n_z, n_y, d_scale=0.1):
    sys = random_stable_ss(rng, n, n_w + n_u, n_z + n_y)
    d = np.array(sys.d) * d_scale
    return PartitionedSystem(
        StateSpace(sys.a, sys.b, sys.c, d), (n_w, n_u), (n_z, n_y)
    )


def random_block(rng, n_k, n_delta, n_u, n_y, scale=0.5, well_posed_for=None):
    """Random all-free controller block; optionally shrink d_zw so the
    parameter loop stays well posed for every rho in ``well_posed_for``."""
    shape = (n_k + n_delta + n_u, n_k + n_delta + n_y)
    k = rng.normal(size=shape) * scale
    kb = ControllerBlock(n_k, n_delta, n_u, n_y, k, np.ones(shape, dtype=np.int8))
    if well_posed_for and n_delta:
        rho_max = max(abs(r) for r in well_posed_for)
        dzw_norm = np.linalg.norm(kb.d_zw, 2)
        if rho_max * dzw_norm > 0.8:
            k = np.array(k)
            k[n_k : n_k + n_delta, n_k : n_k + n_delta] *= 0.8 / (rho_max * dzw_norm)
            kb = kb.with_k(k)
    return kb


def upper_lft_matrix(m, delta):
    """Close the leading block of ``m`` with ``delta``: the matrix upper LFT,
    the independent oracle of the controller instantiation.

    With ``m`` split as [[m11, m12], [m21, m22]] where ``m11`` matches
    ``delta.T`` in shape, returns ``m22 + m21 delta (I - m11 delta)^-1 m12``.
    """
    m = np.asarray(m)
    delta = np.asarray(delta)
    if delta.size == 0:
        q1 = p1 = 0
    else:
        q1, p1 = delta.shape
    if p1 > m.shape[0] or q1 > m.shape[1]:
        raise DimensionError(
            f"delta of shape {delta.shape} does not fit a matrix of shape {m.shape}"
        )
    m11 = m[:p1, :q1]
    m12 = m[:p1, q1:]
    m21 = m[p1:, :q1]
    m22 = m[p1:, q1:]
    if p1 == 0:
        return m22.copy()
    ok, loop = _well_posed(np.eye(p1) - m11 @ delta)
    _require(ok, "upper LFT")
    return m22 + m21 @ (delta @ np.linalg.solve(loop, m12))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
