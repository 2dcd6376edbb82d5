from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsynth.cli import Scenario, parse_config
from lfsynth.errors import DomainError, NumericalError, UnstableError
from lfsynth.lft import eval_controller, load_controller, lower_lft_ss
from lfsynth import norms, statespace
from lfsynth.norms import _h2_norms, _hinf_norms, default_frequency_grid, h2_norm, hinf_norm
from lfsynth.statespace import (
    FrequencyKernel,
    Realization,
    StateSpace,
    append_diag,
    frequency_gain,
    static_gain,
)

from conftest import STACK_KINDS, random_stable_ss, stack_point


def lag():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def resonant(zeta=0.1, wn=1.0):
    return StateSpace(
        [[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]], [[0.0], [wn * wn]], [[1.0, 0.0]], [[0.0]]
    )


def dense_gain(sys):
    """sigma_max of the response by one dense solve per frequency."""

    def gain(omegas):
        return np.array([
            np.linalg.svd(
                sys.c @ np.linalg.solve(1j * w * np.eye(sys.n) - sys.a, sys.b) + sys.d,
                compute_uv=False,
            )[0]
            for w in omegas
        ])

    return gain


def dense_sweep_oracle(sys, n_coarse=2000, refine_rounds=3, gain=None, seeds=(), n_peaks=1):
    """Independent frequency-sweep estimate: coarse log grid plus ``seeds``,
    then windows shrinking around the running argmax, started from each of
    the ``n_peaks`` largest local maxima of the coarse scan.

    ``gain`` maps frequencies to sigma_max; by default one dense solve each.
    """
    gain = gain or dense_gain(sys)
    radius = max(np.abs(np.linalg.eigvals(sys.a)).max(), 1e-3)
    omegas = np.concatenate(
        [[0.0], np.geomspace(radius * 1e-3, radius * 1e3, n_coarse), seeds]
    )

    def scan(ws):
        vals = gain(ws)
        i = int(np.argmax(vals))
        return vals[i], ws[i]

    coarse = gain(omegas)
    padded = np.concatenate([[-np.inf], coarse, [-np.inf]])
    local = np.flatnonzero((padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:]))
    local = local[np.argsort(-coarse[local], kind="stable")][:n_peaks]
    best = -1.0
    for i in local:
        value, peak = coarse[i], omegas[i]
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
        best = max(best, value)
    return best


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

    @pytest.mark.parametrize("zeta", [1e-13, 1e-10, 1e-6])
    def test_near_marginal_resonance(self, zeta):
        # Poles within 1e-13 of the axis are still stable: the samples next
        # to them count, and the peak is not cut off.
        expected = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
        value = hinf_norm(resonant(zeta), rel_tol=1e-6).value
        assert expected / (1.0 + 1e-6) <= value <= expected * (1.0 + 1e-12)

    @pytest.mark.parametrize("zeta", [1e-4, 1e-6])
    def test_stiff_lightly_damped(self, zeta):
        # A 1e8 rad/s pole beside a slow lightly damped mode; the norm of the
        # block-diagonal system is the slow mode's peak.
        fast = StateSpace([[-1e8]], [[1e8]], [[1.0]], [[0.0]])
        expected = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
        value = hinf_norm(append_diag([resonant(zeta), fast]), rel_tol=1e-6).value
        assert expected / (1.0 + 1e-6) <= value <= expected * (1.0 + 1e-12)

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


class TestStackedNorms:
    """The level-set pass over a stack against hinf_norm one system at a
    time (a stack of one), bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 8),
        n_u=st.integers(1, 3),
        n_y=st.integers(1, 3),
        kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=6),
        rel_tol=st.sampled_from([1e-6, 1e-4]),
    )
    def test_matches_one_at_a_time(self, seed, n, n_u, n_y, kinds, rel_tol):
        rng = np.random.default_rng(seed)
        systems = [stack_point(rng, kind, n, n_u, n_y) for kind in kinds]
        stack = Realization(*(np.stack([getattr(s, m) for s in systems]) for m in "abcd"))
        try:
            one = [hinf_norm(s, rel_tol) for s in systems]
        except NumericalError:
            with pytest.raises(NumericalError):
                _hinf_norms(stack, rel_tol)
            return
        values, peaks = _hinf_norms(stack, rel_tol)
        assert np.array_equal(values, [r.value for r in one])
        assert np.array_equal(peaks, [r.peak_omega for r in one])

    def test_unstable_point_scores_inf(self, rng):
        unstable = StateSpace(np.diag([-1.0, -2.0, 0.1]), np.ones((3, 1)), np.ones((1, 3)), [[0.0]])
        stable = [random_stable_ss(rng, 3), random_stable_ss(rng, 3)]
        systems = [stable[0], unstable, stable[1]]
        stack = Realization(*(np.stack([getattr(s, m) for s in systems]) for m in "abcd"))
        values, peaks = _hinf_norms(stack, 1e-6)
        assert values[1] == np.inf and np.isnan(peaks[1])
        one = [hinf_norm(s, 1e-6) for s in stable]
        assert np.array_equal(values[[0, 2]], [r.value for r in one])
        assert np.array_equal(peaks[[0, 2]], [r.peak_omega for r in one])
        with pytest.raises(UnstableError):
            hinf_norm(unstable)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=5),
        budget=st.sampled_from([1, 200, 3000]),
    )
    def test_scan_blocks_match_one_block(self, seed, n, kinds, budget):
        # a budget of a few bytes scans one column at a time
        rng = np.random.default_rng(seed)
        systems = [stack_point(rng, kind, n, 2, 2) for kind in kinds]
        stack = Realization(*(np.stack([getattr(s, m) for s in systems]) for m in "abcd"))
        kernel = FrequencyKernel(stack)
        grid = np.sort(rng.uniform(0.0, 10.0, (len(kinds), 50)), axis=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statespace, "SCAN_BLOCK_BYTES", 2**40)
            whole = norms._best_samples(kernel, grid)
            try:
                one = _hinf_norms(stack, 1e-6)
            except NumericalError:
                one = None
            mp.setattr(statespace, "SCAN_BLOCK_BYTES", budget)
            blocks = norms._best_samples(kernel, grid)
            if one is None:
                with pytest.raises(NumericalError):
                    _hinf_norms(stack, 1e-6)
                return
            many = _hinf_norms(stack, 1e-6)
        for x, y in zip(whole + one, blocks + many):
            assert np.array_equal(x, y)

    def test_empty_stack(self):
        values, peaks = _hinf_norms(
            Realization(np.zeros((0, 2, 2)), np.zeros((0, 2, 1)), np.zeros((0, 1, 2)),
                        np.zeros((0, 1, 1))),
            1e-6,
        )
        assert values.shape == peaks.shape == (0,)



def h2_stack(systems):
    """The strictly proper parts of ``systems`` stacked as a Realization."""
    return Realization(*(np.stack([getattr(s, m) for s in systems]) for m in "abc"),
                       np.stack([np.zeros_like(s.d) for s in systems]))


class TestStackedH2:
    """The H2 pass over a stack against h2_norm one system at a time (a
    stack of one), bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 8),
        n_u=st.integers(1, 3),
        n_y=st.integers(1, 3),
        kinds=st.lists(st.sampled_from(STACK_KINDS + ("unstable",)), min_size=1, max_size=6),
    )
    def test_matches_one_at_a_time(self, seed, n, n_u, n_y, kinds):
        rng = np.random.default_rng(seed)
        systems = []
        for kind in kinds:
            s = stack_point(rng, "plain" if kind == "unstable" else kind, n, n_u, n_y)
            # the mirror image of a stable spectrum is unstable
            a = -s.a if kind == "unstable" else s.a
            systems.append(StateSpace(a, s.b, s.c, np.zeros_like(s.d)))
        one = []
        for s in systems:
            try:
                one.append(h2_norm(s))
            except UnstableError:
                one.append(np.inf)
            except NumericalError:
                with pytest.raises(NumericalError):
                    _h2_norms(h2_stack(systems))
                return
        assert np.array_equal(_h2_norms(h2_stack(systems)), one)

    def test_unstable_points_score_inf(self, rng):
        stable = [random_stable_ss(rng, 5, 2, 2, with_d=False) for _ in range(3)]
        unstable = [StateSpace(-s.a, s.b, s.c, s.d) for s in stable[:2]]
        systems = [stable[0], unstable[0], stable[1], unstable[1], stable[2]]
        values = _h2_norms(h2_stack(systems))
        assert np.array_equal(values[[1, 3]], [np.inf, np.inf])
        assert np.array_equal(values[[0, 2, 4]], [h2_norm(s) for s in stable])
        for s in unstable:
            with pytest.raises(UnstableError):
                h2_norm(s)

    def test_feedthrough_anywhere_rejected(self, rng):
        systems = [random_stable_ss(rng, 3, with_d=False) for _ in range(3)]
        stack = h2_stack(systems)
        stack.d[1, 0, 0] = 0.5
        with pytest.raises(DomainError):
            _h2_norms(stack)

    def test_empty_stack(self):
        values = _h2_norms(Realization(np.zeros((0, 2, 2)), np.zeros((0, 2, 1)),
                                       np.zeros((0, 1, 2)), np.zeros((0, 1, 1))))
        assert values.shape == (0,)


def modal_system(rng, n_modes, zeta_min, scale_bits, n_u=2, n_y=2):
    """Lightly damped modal system in displacement/velocity coordinates.

    Returns the realization after a diagonal similarity by powers of two up
    to ``2**scale_bits`` (exact in floating point, so the transfer function
    is unchanged) and the unscaled modal matrices (a, b, c, d).
    """
    omegas = np.geomspace(0.5, 2e3, n_modes) * rng.uniform(0.95, 1.05, n_modes)
    zetas = np.exp(rng.uniform(np.log(zeta_min), np.log(0.05), n_modes))
    n = 2 * n_modes
    pos = np.arange(0, n, 2)
    a = np.zeros((n, n))
    a[pos, pos + 1] = 1.0
    a[pos + 1, pos] = -(omegas**2)
    a[pos + 1, pos + 1] = -2.0 * zetas * omegas
    b = np.zeros((n, n_u))
    b[pos + 1] = rng.normal(size=(n_modes, n_u)) * omegas[:, None]
    c = np.zeros((n_y, n))
    c[:, pos] = rng.normal(size=(n_y, n_modes)) * omegas
    c[:, pos + 1] = 0.1 * rng.normal(size=(n_y, n_modes))
    d = 0.1 * rng.normal(size=(n_y, n_u))
    t = 2.0 ** rng.integers(-scale_bits, scale_bits + 1, n)
    scaled = StateSpace(t[:, None] * a / t[None, :], t[:, None] * b, c / t[None, :], d)
    return scaled, (a, b, c, d)


def modal_gain(modal):
    """sigma_max of a modal realization, mode by mode in closed form."""
    a, b, c, d = modal
    pos = np.arange(0, a.shape[0], 2)
    p, q = a[pos + 1, pos], a[pos + 1, pos + 1]

    def gain(omegas):
        s = 1j * np.asarray(omegas)[:, None]
        det = s * s - q * s - p
        # (s I - [[0, 1], [p, q]])^-1 = [[s - q, 1], [p, s]] / det
        x1 = ((s - q) / det)[:, :, None] * b[pos] + (1.0 / det)[:, :, None] * b[pos + 1]
        x2 = (p / det)[:, :, None] * b[pos] + (s / det)[:, :, None] * b[pos + 1]
        g = np.einsum("yk,fku->fyu", c[:, pos], x1) + np.einsum(
            "yk,fku->fyu", c[:, pos + 1], x2
        )
        return np.linalg.svd(g + d, compute_uv=False)[:, 0]

    return gain


def resonance_seeds(a, offsets=np.linspace(-3.0, 3.0, 13)):
    """Frequencies clustered around every lightly damped pole of ``a``."""
    lam = np.linalg.eigvals(a)
    lam = lam[lam.imag > 0.0]
    width = np.abs(lam.real) / np.abs(lam)
    return (lam.imag * (1.0 + np.outer(offsets, width))).ravel()


class TestBadlyScaledLightlyDamped:
    """60- to 120-state modal systems with damping down to 1e-4, rescaled by
    diagonal similarities spanning up to 2**+-20, against the sweep oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.integers(30, 60),
        zeta_min=st.sampled_from([1e-4, 1e-3, 1e-2]),
        scale_bits=st.integers(0, 20),
    )
    def test_against_sweep_oracle(self, seed, n_modes, zeta_min, scale_bits):
        rng = np.random.default_rng(seed)
        sys, modal = modal_system(rng, n_modes, zeta_min, scale_bits)
        certified = hinf_norm(sys, rel_tol=1e-6).value
        oracle = dense_sweep_oracle(
            sys, refine_rounds=12, gain=modal_gain(modal),
            seeds=resonance_seeds(modal[0]), n_peaks=6,
        )
        assert abs(certified - oracle) <= 1e-6 * oracle


BEAM_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


class TestBeamClosedLoops:
    """The committed beam controller closed on the 60-state beam, where the
    former bisection overshot the peak by 1.2e-6 to 2.4e-6."""

    @pytest.mark.parametrize("length", [10.0, 11.0, 12.0])
    def test_value_is_attained_and_within_tolerance(self, length):
        scenario = Scenario(parse_config(str(BEAM_INPUTS / "beam.cfg")))
        kb = load_controller(str(BEAM_INPUTS / "beam_controller.txt"))
        closed = lower_lft_ss(scenario.plant(length), eval_controller(kb, length))
        value = hinf_norm(closed, rel_tol=1e-6).value
        peak = dense_sweep_oracle(
            closed, n_coarse=400, refine_rounds=12, seeds=resonance_seeds(closed.a),
            n_peaks=2,
        )
        assert peak / (1.0 + 1e-6) <= value <= peak


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

    @pytest.mark.parametrize("n_u, n_y", [(0, 1), (1, 0)], ids=["no_inputs", "no_outputs"])
    def test_empty_channels(self, n_u, n_y):
        s = StateSpace([[-1.0]], np.ones((1, n_u)), np.ones((n_y, 1)), np.zeros((n_y, n_u)))
        assert h2_norm(s) == 0.0
        assert hinf_norm(s).value == 0.0

    def test_static_system(self):
        # no states: the Gramian is empty, and so is the trace
        assert h2_norm(static_gain(np.zeros((2, 3)))) == 0.0

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

    def test_one_eigensolve(self, rng, monkeypatch):
        # the Lyapunov solver's Hurwitz check is the only spectrum taken,
        # over a stack of one
        calls = []
        real_eigvals = np.linalg.eigvals

        def counting(m):
            calls.append(m.shape)
            return real_eigvals(m)

        sys = random_stable_ss(rng, 12, 2, 2, with_d=False)
        monkeypatch.setattr(np.linalg, "eigvals", counting)
        h2_norm(sys)
        assert calls == [(1, 12, 12)]

    @pytest.mark.parametrize("zeta", [1e-4, 1e-2])
    def test_lightly_damped_and_defective(self, zeta):
        # w^2 / (s^2 + 2 zeta w s + w^2) has H2^2 = w / (4 zeta); a Jordan
        # block 1 / (s + a)^2 has H2^2 = 1 / (4 a^3).  Side by side on their
        # own channels, squares add; a rotation hides the blocks.
        parts, squares = [], []
        for w in (0.3, 1.0, 40.0):
            parts.append(resonant(zeta, w))
            squares.append(w / (4.0 * zeta))
        for a in (1e-2, 0.5, 20.0):
            parts.append(StateSpace([[-a, 1.0], [0.0, -a]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]))
            squares.append(1.0 / (4.0 * a**3))
        sys = append_diag(parts)
        t = np.linalg.qr(np.random.default_rng(3).normal(size=(sys.n, sys.n)))[0]
        rotated = StateSpace(t @ sys.a @ t.T, t @ sys.b, sys.c @ t.T, sys.d)
        assert h2_norm(rotated) == pytest.approx(np.sqrt(sum(squares)), rel=1e-9)

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
