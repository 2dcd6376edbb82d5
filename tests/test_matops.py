import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_continuous_lyapunov

from lfsynth import matops
from lfsynth.errors import (
    DimensionError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    UnstableError,
)
from lfsynth.matops import (
    as_matrix,
    eigenvalues,
    max_singular_value,
    solve_linear,
    solve_lyapunov,
)

finite_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6),
)


def sorted_complex(vals):
    return np.sort_complex(np.asarray(vals))


def kronecker_lyapunov(a, q):
    """Oracle: the Lyapunov equation as one dense n^2 x n^2 linear solve."""
    n = a.shape[0]
    eye = np.eye(n)
    p = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye), -q.reshape(-1))
    return p.reshape(n, n)


def triangular_lyapunov(a, q):
    """Oracle for upper-triangular ``a`` with a negative diagonal, entries
    >= 0 above it and ``q >= 0`` elementwise: back substitution adds only
    nonnegative terms, so every entry of ``p`` is correct to a few roundings
    however close ``a`` is to the axis."""
    n = a.shape[0]
    p = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i - 1, -1):
            s = q[i, j] + a[i, i + 1 :] @ p[i + 1 :, j] + a[j, j + 1 :] @ p[i, j + 1 :]
            p[i, j] = p[j, i] = s / -(a[i, i] + a[j, j])
    return p


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_matrix([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, np.inf]])

    def test_non_square_eigenvalues(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(sorted_complex(eigenvalues(np.eye(2))), [1.0, 1.0])

    def test_rotation_generator(self):
        lam = sorted_complex(eigenvalues([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(lam, [-1j, 1j], atol=1e-12)

    def test_construct_then_recover(self, rng):
        lam = np.array([-3.0, -1.5, -0.2, 0.7, 2.0, 4.5])
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        m = q @ np.diag(lam) @ q.T
        got = np.sort(eigenvalues(m).real)
        assert np.allclose(got, lam, atol=1e-8)
        assert np.abs(eigenvalues(m).imag).max() < 1e-8

    def test_conjugate_pairs(self, rng):
        m = rng.normal(size=(7, 7))
        lam = eigenvalues(m)
        assert np.allclose(sorted_complex(lam), sorted_complex(lam.conj()), atol=1e-10)


class TestMaxSingularValue:
    def test_diagonal(self):
        assert max_singular_value(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert max_singular_value(np.zeros((3, 2))) == 0.0

    def test_shear(self):
        expected = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
        assert max_singular_value([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(
            expected, rel=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(m=finite_matrices)
    def test_transpose_invariant(self, m):
        assert max_singular_value(m) == pytest.approx(
            max_singular_value(m.T), rel=1e-12, abs=1e-12
        )


class TestSolveLinear:
    def test_identity(self, rng):
        b = rng.normal(size=(4, 2))
        assert np.allclose(solve_linear(np.eye(4), b), b)

    def test_scaled_identity(self):
        assert np.allclose(solve_linear(2.0 * np.eye(3), np.eye(3)), 0.5 * np.eye(3))

    def test_construct_then_recover(self, rng):
        a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        x0 = rng.normal(size=(8, 3))
        assert np.allclose(solve_linear(a, a @ x0), x0, atol=1e-9)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear(np.eye(2), np.ones((3, 1)))

    def test_roundtrip_many_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(1, 13)
            a = rng.normal(size=(n, n)) + (n + 2.0) * np.eye(n)
            if np.linalg.cond(a) > 1e6:
                continue
            x0 = rng.normal(size=(n, 2))
            assert np.allclose(solve_linear(a, a @ x0), x0, atol=1e-9)


class TestSolveLyapunov:
    def test_scaled_identity(self):
        p = solve_lyapunov(-np.eye(4), 2.0 * np.eye(4))
        assert np.allclose(p, np.eye(4), atol=1e-12)

    def test_scalar(self):
        assert solve_lyapunov([[-1.0]], [[1.0]]) == pytest.approx(0.5)

    def test_residual_random_hurwitz(self, rng):
        a = rng.normal(size=(6, 6))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(6)
        q = rng.normal(size=(6, 6))
        q = q @ q.T
        p = solve_lyapunov(a, q)
        res = np.linalg.norm(a @ p + p @ a.T + q)
        assert res <= 1e-8 * np.linalg.norm(q)
        assert np.allclose(p, p.T, atol=1e-10)
        # positive semidefinite for psd q
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

    def test_not_hurwitz(self):
        with pytest.raises(UnstableError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_asymmetric_q(self):
        with pytest.raises(DomainError):
            solve_lyapunov(-np.eye(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_near_marginal_accurate_or_refused(self):
        # a non-normal a with a pole at -delta, reversed so that no step sees
        # the triangle; its rounding errors grow like 1 / delta, and once a
        # is numerically singular a returned p could be wrong in every digit
        q = np.ones((3, 3))
        for k in range(1, 18):
            delta = 10.0**-k
            a = np.array([[-1e3, 1.0, 1e2], [0.0, -delta, 10.0], [0.0, 0.0, -10.0]])
            exact = triangular_lyapunov(a, q)
            try:
                p = solve_lyapunov(a[::-1, ::-1], q)[::-1, ::-1]
            except NumericalError:
                assert delta < 1e-9, delta
                continue
            assert np.abs(p - exact).max() <= 1e-6 * np.abs(exact).max(), delta

    def test_singular_state_matrix_refused(self):
        # eigenvalues 0 and -5: the computed 0 may land on either side of
        # the axis, and neither way may a solution come back
        with pytest.raises((SingularMatrixError, UnstableError)):
            solve_lyapunov([[3.0, 6.0], [-4.0, -8.0]], np.eye(2))

    def test_iteration_cap(self, monkeypatch):
        a = -np.diag([1e-3, 1.0, 1e3])
        assert solve_lyapunov(a, np.eye(3)) == pytest.approx(np.diag(0.5 / -np.diag(a)))
        monkeypatch.setattr(matops, "SIGN_MAX_ITER", 2)
        with pytest.raises(NumericalError):
            solve_lyapunov(a, np.eye(3))

    def test_stack_points_leave_at_their_own_iteration(self, rng, monkeypatch):
        # points that converge after different numbers of iterations, and an
        # unstable one, which takes no part and gets a Gramian of inf
        a = [-np.eye(4), -np.diag([1e-3, 1.0, 1e2, 1e3]), 0.5 * np.eye(4)]
        for shift in (0.05, 3.0):
            m = rng.normal(size=(4, 4))
            a.append(m - (np.max(np.linalg.eigvals(m).real) + shift) * np.eye(4))
        b = rng.normal(size=(len(a), 4, 2))
        a, q = np.stack(a), b @ np.swapaxes(b, 1, 2)
        q_before = q.copy()
        sizes, real_inv = [], np.linalg.inv

        def counting(m):
            sizes.append(m.shape[0])
            return real_inv(m)

        monkeypatch.setattr(np.linalg, "inv", counting)
        alone, iterations = [], []
        for j in (0, 1, 3, 4):
            sizes.clear()
            alone.append(solve_lyapunov(a[j], q[j]))
            iterations.append(len(sizes))
        sizes.clear()
        p = solve_lyapunov(a, q)
        assert len(set(iterations)) >= 3
        # the stack shrinks as each point converges, on its own iteration
        assert sizes == [sum(k > t for k in iterations) for t in range(max(iterations))]
        assert np.array_equal(p[[0, 1, 3, 4]], alone)
        assert np.isinf(p[2]).all()
        np.testing.assert_array_equal(q, q_before)
        with pytest.raises(UnstableError):
            solve_lyapunov(a[2], q[2])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    n_b=st.integers(1, 3),
    log_scale=st.floats(-3, 3),
    log_margin=st.floats(-3, 1),
    seed=st.integers(0, 2**16),
)
def test_lyapunov_matches_kronecker_and_scipy(n, n_b, log_scale, log_margin, seed):
    # random Hurwitz a, its abscissa 1e-3 to 10 times its scale left of the axis
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    a = scale * rng.normal(size=(n, n))
    a -= (np.max(np.linalg.eigvals(a).real) + scale * 10.0**log_margin) * np.eye(n)
    b = rng.normal(size=(n, n_b))
    q = b @ b.T
    p = solve_lyapunov(a, q)
    exact = kronecker_lyapunov(a, q)
    assert np.linalg.norm(p - exact) <= 1e-8 * np.linalg.norm(exact)
    assert np.linalg.norm(p - solve_continuous_lyapunov(a, -q)) <= 1e-8 * np.linalg.norm(exact)
    np.testing.assert_array_equal(p, p.T)


@settings(max_examples=40, deadline=None)
@given(
    diag=hnp.arrays(np.float64, st.integers(2, 6), elements=st.floats(-10, 10)),
    seed=st.integers(0, 2**16),
)
def test_triangular_eigenvalues_match_diagonal(diag, seed):
    rng = np.random.default_rng(seed)
    n = diag.size
    m = np.triu(rng.normal(size=(n, n)), k=1) + np.diag(diag)
    got = np.sort(eigenvalues(m).real)
    assert np.allclose(got, np.sort(diag), atol=1e-12 * max(1.0, np.abs(m).max()))
    assert np.abs(eigenvalues(m).imag).max() <= 1e-12
