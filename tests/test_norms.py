import numpy as np
import pytest

from lfsynth.errors import DomainError, UnstableError
from lfsynth.norms import default_frequency_grid, h2_norm, hinf_norm
from lfsynth.statespace import StateSpace, append_diag, frequency_gain, static_gain

from conftest import random_stable_ss


def lag():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def resonant(zeta=0.1, wn=1.0):
    return StateSpace(
        [[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]], [[0.0], [wn * wn]], [[1.0, 0.0]], [[0.0]]
    )


def dense_sweep_oracle(sys, n_coarse=2000, refine_rounds=3):
    """Independent frequency-sweep estimate: coarse log grid, then windows
    shrinking around the running argmax."""
    radius = max(np.abs(np.linalg.eigvals(sys.a)).max(), 1e-3)
    omegas = np.concatenate([[0.0], np.geomspace(radius * 1e-3, radius * 1e3, n_coarse)])

    def scan(ws):
        best_v, best_w = -1.0, 0.0
        for w in ws:
            g = sys.c @ np.linalg.solve(1j * w * np.eye(sys.n) - sys.a, sys.b) + sys.d
            v = np.linalg.svd(g, compute_uv=False)[0]
            if v > best_v:
                best_v, best_w = v, w
        return best_v, best_w

    value, peak = scan(omegas)
    width = 10.0
    for _ in range(refine_rounds):
        if peak == 0.0:
            lo, hi = radius * 1e-6, radius * 1e-3
        else:
            lo, hi = peak / width, peak * width
        v, w = scan(np.geomspace(lo, hi, 400))
        if v > value:
            value, peak = v, w
        width = width**0.25
    return value


class TestHinfNorm:
    def test_static_gain(self):
        res = hinf_norm(static_gain([[2.0, 0.0], [0.0, 1.0]]))
        assert res.value == pytest.approx(2.0)

    def test_first_order_lag(self):
        res = hinf_norm(lag(), rel_tol=1e-6)
        assert res.value == pytest.approx(1.0, rel=1e-6)
        assert res.peak_omega < 0.05

    def test_resonant_peak(self):
        zeta = 0.1
        expected = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
        res = hinf_norm(resonant(zeta), rel_tol=1e-7)
        assert res.value == pytest.approx(expected, rel=1e-6)
        assert res.peak_omega == pytest.approx(np.sqrt(1.0 - 2.0 * zeta**2), rel=1e-2)

    def test_unstable_rejected(self):
        s = StateSpace([[0.1]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableError):
            hinf_norm(s)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            hinf_norm(lag(), rel_tol=0.5)

    def test_zero_system(self):
        s = StateSpace(-np.eye(2), np.zeros((2, 1)), np.ones((1, 2)), [[0.0]])
        assert hinf_norm(s).value == 0.0

    def test_against_sweep_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            sys = random_stable_ss(rng, n, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            certified = hinf_norm(sys, rel_tol=1e-6).value
            oracle = dense_sweep_oracle(sys)
            assert certified == pytest.approx(oracle, rel=1e-4)

    def test_output_scaling(self, rng):
        sys = random_stable_ss(rng, 5, 2, 2)
        base = hinf_norm(sys, rel_tol=1e-6).value
        for alpha in (0.5, 2.0, 10.0):
            scaled = StateSpace(sys.a, sys.b, alpha * sys.c, alpha * sys.d)
            assert hinf_norm(scaled, rel_tol=1e-6).value == pytest.approx(
                alpha * base, rel=3e-6
            )

    def test_value_covers_peak_sample(self, rng):
        for _ in range(5):
            sys = random_stable_ss(rng, 6, 2, 2)
            res = hinf_norm(sys, rel_tol=1e-6)
            sample = np.linalg.svd(
                frequency_gain(sys, res.peak_omega), compute_uv=False
            )[0]
            assert res.value >= sample * (1.0 - 1e-9)

    def test_append_diag_is_max(self, rng):
        for _ in range(5):
            g1 = random_stable_ss(rng, int(rng.integers(2, 6)))
            g2 = random_stable_ss(rng, int(rng.integers(2, 6)))
            v1 = hinf_norm(g1, rel_tol=1e-6).value
            v2 = hinf_norm(g2, rel_tol=1e-6).value
            va = hinf_norm(append_diag([g1, g2]), rel_tol=1e-6).value
            assert va == pytest.approx(max(v1, v2), rel=5e-6)


class TestGridLowerBound:
    def test_never_exceeds_certified(self, rng):
        for _ in range(5):
            sys = random_stable_ss(rng, 4, 2, 2)
            lb = max(
                np.linalg.svd(frequency_gain(sys, w), compute_uv=False)[0]
                for w in default_frequency_grid(sys, 80)
            )
            cert = hinf_norm(sys, rel_tol=1e-6)
            assert lb <= cert.value * (1.0 + 1e-6)


class TestH2Norm:
    def test_first_order_lag(self):
        assert h2_norm(lag()) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_zero_input_map(self):
        s = StateSpace(-np.eye(3), np.zeros((3, 1)), np.ones((1, 3)), [[0.0]])
        assert h2_norm(s) == 0.0

    def test_unit_energy_family(self):
        # b = sqrt(2 a), c = 1: gramian p = b^2 / (2 a) = 1, norm 1
        a = 2.0
        s = StateSpace([[-a]], [[np.sqrt(2.0 * a)]], [[1.0]], [[0.0]])
        assert h2_norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_feedthrough_rejected(self):
        s = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.5]])
        with pytest.raises(DomainError):
            h2_norm(s)

    def test_unstable_rejected(self):
        s = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableError):
            h2_norm(s)

    def test_similarity_invariance(self, rng):
        sys = random_stable_ss(rng, 5, 2, 2, with_d=False)
        base = h2_norm(sys)
        for _ in range(5):
            t = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
            if np.linalg.cond(t) > 1e3:
                continue
            ti = np.linalg.inv(t)
            sys2 = StateSpace(t @ sys.a @ ti, t @ sys.b, sys.c @ ti, sys.d)
            assert h2_norm(sys2) == pytest.approx(base, rel=1e-8)
