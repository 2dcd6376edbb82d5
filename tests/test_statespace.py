from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lfsynth import cli, synth
from lfsynth.errors import DimensionError, DomainError, SingularMatrixError
from lfsynth.statespace import (
    EIG_COND_LIMIT,
    NEAR_POLE_TOL,
    FrequencyKernel,
    PartitionedSystem,
    Realization,
    StateSpace,
    append_diag,
    frequency_gain,
    series,
    series_matrices,
    spectral_abscissa,
    static_gain,
    subsystem,
    _within_cond_limit,
)

from conftest import STACK_KINDS, random_stable_ss, stack_point

BUNDLED = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def stacked(systems):
    """Realization of systems that share their dimensions, stacked."""
    return Realization(*(np.stack([getattr(s, m) for s in systems]) for m in "abcd"))


def lag():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


class TestConstruction:
    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            StateSpace(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
        with pytest.raises(DimensionError):
            StateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)))
        with pytest.raises(DimensionError):
            StateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 2)))

    def test_static_gain(self):
        g = static_gain([[2.0, 0.5]])
        assert g.n == 0 and g.n_inputs == 2 and g.n_outputs == 1 and g.is_static

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    def test_immutable(self):
        s = lag()
        with pytest.raises(ValueError):
            s.a[0, 0] = 5.0


class TestFrequencyResponse:
    def test_static(self):
        g = static_gain([[2.0]])
        for w in (0.0, 1.0, 100.0):
            assert frequency_gain(g, w)[0, 0] == 2.0

    def test_integrator_at_one(self):
        integ = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert frequency_gain(integ, 1.0)[0, 0] == pytest.approx(-1j)

    def test_lag_at_one(self):
        val = frequency_gain(lag(), 1.0)[0, 0]
        assert val == pytest.approx(1.0 / (1.0 + 1j))
        assert abs(val) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_pole_on_axis_raises(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(SingularMatrixError):
            frequency_gain(osc, 1.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(DomainError):
            frequency_gain(lag(), -1.0)

    def test_badly_scaled_realization(self):
        # 1 / ((s + 1)(s + 2)) after the diagonal similarity diag(1, 1e-7):
        # the shifted state matrix is ill conditioned but far from any pole.
        scaled = StateSpace([[-1.0, 1e7], [0.0, -2.0]], [[0.0], [1e-7]], [[1.0, 0.0]], [[0.0]])
        assert frequency_gain(scaled, 0.0)[0, 0] == pytest.approx(0.5, rel=1e-12)


def lightly_damped(rng, n_modes, zeta, n_u=2, n_y=2):
    """Modal system in (x, x'/w) coordinates with damping ratio ``zeta``."""
    omegas = np.geomspace(0.5, 20.0, n_modes)
    a = np.zeros((2 * n_modes, 2 * n_modes))
    for i, w in enumerate(omegas):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[0.0, w], [-w, -2.0 * zeta * w]]
    b = rng.normal(size=(2 * n_modes, n_u))
    c = rng.normal(size=(n_y, 2 * n_modes))
    return StateSpace(a, b, c, 0.1 * rng.normal(size=(n_y, n_u))), omegas


def assert_kernel_matches(sys, omegas):
    kernel = FrequencyKernel(sys)
    got = kernel.response(omegas)
    assert got.shape[:2] == (1, len(omegas))  # a stack of one
    for w, g in zip(omegas, got[0]):
        expect = frequency_gain(sys, w)
        assert np.abs(g - expect).max() <= 1e-9 * np.abs(expect).max()
    return kernel


class TestFrequencyKernel:
    def test_random_stable(self, rng):
        for n, n_u, n_y in ((1, 1, 1), (4, 2, 3), (12, 3, 2), (30, 1, 1)):
            sys = random_stable_ss(rng, n, n_u, n_y)
            kernel = assert_kernel_matches(sys, np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 60)]))
            assert not kernel.dense.any()

    def test_lightly_damped(self, rng):
        zeta = 1e-4
        sys, modes = lightly_damped(rng, 8, zeta)
        near = np.concatenate([modes, modes * np.sqrt(1.0 - zeta**2), modes * (1.0 + zeta)])
        assert_kernel_matches(sys, np.concatenate([np.geomspace(1e-2, 1e3, 80), near]))

    def test_defective_takes_dense_fallback(self):
        jordan = StateSpace(
            [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]],
            [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]], [[0.0]],
        )
        kernel = assert_kernel_matches(jordan, np.geomspace(1e-3, 1e3, 40))
        assert kernel.dense.all()
        # 1 / (s + 1)^3
        got = kernel.response([0.0, 1.0])[0, :, 0, 0]
        assert np.allclose(got, [1.0, 1.0 / (1.0 + 1j) ** 3], rtol=1e-12)

    def test_sample_on_undamped_pole_raises(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        kernel = FrequencyKernel(osc)
        for method in (kernel.response, kernel.sigma):
            with pytest.raises(SingularMatrixError, match="frequency 1.0 rad/s"):
                method([0.5, 1.0, 2.0])
        assert np.isfinite(kernel.response([0.5, 2.0])).all()
        assert kernel.sigma([0.5, 2.0])[0, 0] == pytest.approx(1.0 / 0.75)

    def test_near_pole_sample_is_solved_densely(self):
        # The computed eigenvalues of this oscillator carry a 3e-4 relative
        # error in their 1e-13 real parts; the dense solve at resonance is exact.
        zeta = 1e-13
        osc = StateSpace([[0.0, 1.0], [-1.0, -2.0 * zeta]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        g = FrequencyKernel(osc).response([1.0])
        assert abs(g[0, 0, 0, 0]) == pytest.approx(1.0 / (2.0 * zeta), rel=1e-12)

    def test_static(self):
        g = FrequencyKernel(static_gain([[2.0, 1.0]])).response([0.0, 5.0])
        assert np.array_equal(g, np.array([[[[2.0, 1.0]]] * 2]))


class TestStackedKernel:
    """A kernel over a stack against kernels of one system each, bit for bit."""

    @staticmethod
    def undamped(rng, n, n_u, n_y):
        """A point with an undamped pole pair at +-1j: a sample at 1 sits on it."""
        sys = stack_point(rng, "plain", n, n_u, n_y)
        a = np.array(sys.a)
        a[:2], a[:, :2] = 0.0, 0.0
        a[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        return StateSpace(a, sys.b, sys.c, sys.d)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_matches_one_at_a_time(self, rng, n):
        kinds = STACK_KINDS + ("plain", "real")
        systems = [stack_point(rng, kind, n, 2, 3) for kind in kinds]
        if n:
            systems.append(self.undamped(rng, n, 2, 3))
        kernel = FrequencyKernel(stacked(systems))
        # a row of frequencies per point, led by the point's largest
        # resonance (a near-pole sample at the lightly damped point) and 1.0
        rows = np.sort(rng.uniform(0.0, 10.0, (len(systems), 30)), axis=1)
        for row, sys in zip(rows, systems):
            row[:2] = np.abs(np.linalg.eigvals(sys.a).imag).max(initial=0.0), 1.0
        if n:  # the sample at 1.0 sits on the undamped point's pole
            for freqs in (rows, rows[0]):
                with pytest.raises(SingularMatrixError, match="frequency 1.0 rad/s"):
                    kernel.response(freqs)
            with pytest.raises(SingularMatrixError):
                kernel.take([len(systems) - 1]).sigma(rows[-1])
        rows[rows == 1.0] = 1.5  # off that pole
        g = kernel.response(rows)
        shared = kernel.response(rows[0])
        for j, sys in enumerate(systems):
            assert np.array_equal(g[j], FrequencyKernel(sys).response(rows[j])[0])
            assert np.array_equal(shared[j], FrequencyKernel(sys).response(rows[0])[0])
            taken = kernel.take([j]).sigma(rows[j])
            assert np.array_equal(taken, FrequencyKernel(sys).sigma(rows[j]))
        dense = [n > 1 and kind == "jordan" for kind in kinds] + [False] * (n > 0)
        assert kernel.dense.tolist() == dense


    def test_modal_factors_wait_for_a_response(self, rng):
        """The resolvent products never read ``c V`` and ``V^-1 b``: the
        kernel makes them on its first response, and take hands them on or,
        taken earlier, makes its own points' ones."""
        systems = [stack_point(rng, kind, 4, 2, 3) for kind in STACK_KINDS]
        freqs = np.geomspace(0.1, 10.0, 20)
        kernel = FrequencyKernel(stacked(systems))
        kernel.resolvent_b(freqs)
        kernel.c_resolvent(freqs)
        early = kernel.take([0, 2])
        assert "_factors" not in kernel.__dict__ and "_factors" not in early.__dict__
        g = kernel.response(freqs)
        late = kernel.take([0, 2])
        assert "_factors" in late.__dict__
        for sub in (early, late):
            assert np.array_equal(sub.response(freqs), g[[0, 2]])


class TestResolventProducts:
    """``X b`` and ``c X``, ``X = (i w I - a)^-1``, against dense solves."""

    def test_per_point_dense_choice(self, rng):
        # a Jordan block, whose cond(V) exceeds the limit, among modal points
        kinds = ("near-pole", "jordan", "real", "near-pole")
        systems = [stack_point(rng, kind, 4, 2, 3) for kind in kinds]
        kernel = FrequencyKernel(stacked(systems), cond_limit=1e4)
        assert kernel.dense.tolist() == [False, True, False, False]
        rows = np.sort(rng.uniform(0.0, 10.0, (len(systems), 12)), axis=1)
        for freqs in (rows, rows[0]):
            xb, cx = kernel.resolvent_b(freqs), kernel.c_resolvent(freqs)
            assert xb.shape == (4, 12, 4, 2) and cx.shape == (4, 12, 3, 4)
            for j, (sys, row) in enumerate(zip(systems, np.broadcast_to(freqs, rows.shape))):
                shifted = 1j * row[:, None, None] * np.eye(4) - sys.a
                ref_xb = np.linalg.solve(shifted, sys.b)
                ref_cx = np.swapaxes(np.linalg.solve(np.swapaxes(shifted, 1, 2), sys.c.T), 1, 2)
                for got, ref in ((xb[j], ref_xb), (cx[j], ref_cx)):
                    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
                # a real spectrum takes complex eigenvectors in this stack,
                # and real ones on its own
                if kinds[j] == "near-pole":
                    one = FrequencyKernel(sys, cond_limit=1e4)
                    assert np.array_equal(xb[j], one.resolvent_b(row)[0])
                    assert np.array_equal(cx[j], one.c_resolvent(row)[0])


def svd_dense(kernel, cond_limit):
    """The dense mask by the SVD: a point is dense unless ``cond(V) <=
    cond_limit`` (NaN is dense), each spectrum group with its own vectors."""
    dense = np.zeros(kernel.a.shape[0], dtype=bool)
    for group, vectors in kernel._groups():
        dense[group] = ~(np.linalg.cond(vectors[group]) <= cond_limit)
    return dense


def count_cond_calls(monkeypatch):
    """List whose length counts the ``np.linalg.cond`` calls from now on."""
    calls, real = [], np.linalg.cond

    def spy(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", spy)
    return calls


def nearly_defective(delta, pair):
    """A state matrix with two eigenvalues (or, with ``pair``, two complex
    pairs) split by ``delta``: its cond(V) grows like 1 / delta."""
    if not pair:
        return np.array([[-1.0, 1.0], [0.0, -1.0 - delta]])
    r = np.array([[-0.1, 2.0], [-2.0, -0.1]])
    return np.block([[r, np.eye(2)], [np.zeros((2, 2)), r - delta * np.eye(2)]])


def with_cond(target, pair):
    """``nearly_defective`` with its cond(V) within 1e-3 of ``target``, and
    that cond(V)."""
    delta = 1.0 / target
    for _ in range(8):
        cond = np.linalg.cond(np.linalg.eig(nearly_defective(delta, pair))[1])
        if abs(cond / target - 1.0) < 1e-3:
            return nearly_defective(delta, pair), cond
        delta *= cond / target
    raise AssertionError(f"no cond(V) near {target:g}")


def kernel_of(a):
    n = a.shape[0]
    return StateSpace(a, np.ones((n, 1)), np.ones((1, n)), [[0.0]])


class TestConditioningTest:
    """The Gram-Cholesky choice of modal or dense points against the SVD
    condition number, which it replaces and falls back to."""

    LIMITS = (EIG_COND_LIMIT, synth.RESOLVENT_COND_LIMIT)

    @staticmethod
    def assert_as_svd(systems, limits=LIMITS, monkeypatch=None):
        """Compare at each limit; with ``monkeypatch``, return how many
        SVD condition numbers the kernels took."""
        calls = count_cond_calls(monkeypatch) if monkeypatch else []
        svds = 0
        for limit in limits:
            before = len(calls)
            kernel = FrequencyKernel(stacked(systems), cond_limit=limit)
            svds += len(calls) - before
            assert kernel.dense.tolist() == svd_dense(kernel, limit).tolist()
        return svds

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 60])
    def test_random_spectra(self, rng, monkeypatch, n):
        # random triangular real-spectrum matrices reach cond(V) = 1e3-1e20
        # from n = 12 up, and take the SVD there
        self.assert_as_svd([stack_point(rng, "real", n, 2, 2) for _ in range(4)])
        plain = [stack_point(rng, "plain", n, 2, 2) for _ in range(4)]
        assert self.assert_as_svd(plain, monkeypatch=monkeypatch) == 0

    def test_lightly_damped_in_random_coordinates(self, rng, monkeypatch):
        systems = []
        for zeta in (1e-2, 1e-4, 1e-6):
            sys, _ = lightly_damped(rng, 15, zeta)
            t = np.eye(30) + 0.3 * rng.normal(size=(30, 30))
            t_inv = np.linalg.inv(t)
            systems.append(StateSpace(t @ sys.a @ t_inv, t @ sys.b, sys.c @ t_inv, sys.d))
        assert self.assert_as_svd(systems, monkeypatch=monkeypatch) == 0

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_jordan_blocks_are_dense(self, rng, n):
        systems = [stack_point(rng, "jordan", n) for _ in range(2)]
        self.assert_as_svd(systems)
        assert FrequencyKernel(stacked(systems)).dense.all()

    @pytest.mark.parametrize("pair", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("target", [1e4, 1e6, 1e8])
    def test_nearly_defective_at_the_limits(self, target, pair):
        for side in (1.0 - 5e-3, 1.0 + 5e-3):
            a, cond = with_cond(target * side, pair)
            assert (cond < target) == (side < 1.0)
            self.assert_as_svd([kernel_of(a)], self.LIMITS + (target,))

    @pytest.mark.parametrize("pair", [False, True], ids=["real", "complex"])
    def test_conditioning_sweep(self, pair):
        """cond(V) from 1e1 to 1e12: each point alone and all in one stack."""
        systems = [kernel_of(nearly_defective(delta, pair)) for delta in np.geomspace(1e-12, 0.1, 45)]
        for sys in systems:
            self.assert_as_svd([sys], self.LIMITS + (1e6,))
        self.assert_as_svd(systems, self.LIMITS + (1e6,))

    def test_rounding_floor(self, rng):
        """Past cond(V) = 1e8 the Gram product's rounding exceeds ``1.01 n /
        cond_limit**2``; the floor keeps the fast test from passing there.
        Random triangular matrices reach cond(V) = 1e7-1e14 at these orders."""
        for n in (12, 20, 30):
            for _ in range(20):
                self.assert_as_svd([stack_point(rng, "real", n)], (1e9, 1e10, 1e11, 1e12))

    def test_zero_limit_makes_every_point_dense(self, rng):
        systems = [stack_point(rng, kind, 4, 2, 2) for kind in ("plain", "real")]
        self.assert_as_svd(systems, (0.0, 0.5, 1.0))
        assert FrequencyKernel(stacked(systems), cond_limit=0.0).dense.all()

    def test_one_state(self, rng):
        systems = [stack_point(rng, "plain", 1) for _ in range(3)]
        self.assert_as_svd(systems, self.LIMITS + (0.0, 1.0, np.inf))
        assert not FrequencyKernel(stacked(systems), cond_limit=1.0).dense.any()

    def test_nan_vectors_go_to_the_svd(self, rng, monkeypatch):
        """A NaN factor is no pass; the SVD then fails as it always has."""
        v = np.linalg.eig(stack_point(rng, "plain", 5).a)[1][None].repeat(3, axis=0)
        v[1, 2, 3] = np.nan
        calls = count_cond_calls(monkeypatch)
        for limit in self.LIMITS:
            with pytest.raises(np.linalg.LinAlgError):
                _within_cond_limit(v, limit)
        assert len(calls) == len(self.LIMITS)

    def test_one_group_falls_back_alone(self, rng, monkeypatch):
        """The real-spectrum group passes the Cholesky test; the complex one
        holds a nearly defective pair and takes the SVD."""
        a, _ = with_cond(9.9e3, pair=True)
        systems = [stack_point(rng, "real", 4) for _ in range(2)] + [
            kernel_of(a), stack_point(rng, "plain", 4)]
        calls = count_cond_calls(monkeypatch)
        for limit, dense in ((1e4, False), (5e3, True)):
            kernel = FrequencyKernel(stacked(systems), cond_limit=limit)
            assert kernel.dense.tolist() == [False, False, dense, False]
            assert len(calls) == 1
            assert kernel.dense.tolist() == svd_dense(kernel, limit).tolist()
            calls.clear()


def two_pass_response(kernel, omegas):
    """``response`` as it was, shifting the poles once for the near-pole
    distance and again for the modal diagonal: the one-pass oracle."""
    a, b, c, d = kernel.a, kernel.b, kernel.c, kernel.d
    omegas = kernel._rows(omegas)
    dist = np.abs(1j * omegas[..., None] - kernel.poles[:, None, :]).min(axis=-1, initial=np.inf)
    near = dist <= NEAR_POLE_TOL * np.abs(kernel.poles).max(axis=-1, initial=0.0)[:, None]
    g = np.empty(omegas.shape + d.shape[1:], dtype=complex)
    modal, (cv, wb) = kernel._modal(), kernel._factors
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = 1.0 / (1j * omegas[modal][..., None] - kernel.poles[modal][:, None, :])
        g[modal] = (cv[modal][:, None] * diag[..., None, :]) @ wb[modal][:, None] + d[modal][:, None]
    for j in np.flatnonzero(kernel.dense):
        far = ~near[j]
        m = 1j * omegas[j, far][:, None, None] * np.eye(a.shape[-1]) - a[j]
        g[j, far] = c[j] @ np.linalg.solve(m, np.broadcast_to(b[j], m.shape[:-1] + b.shape[-1:])) + d[j]
    for j, i in zip(*np.nonzero(near)):
        g[j, i] = frequency_gain(StateSpace(a[j], b[j], c[j], d[j]), omegas[j, i])
    return g


class TestOnePassResponse:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_matches_two_pass_formula(self, rng, n):
        kinds = STACK_KINDS + ("plain", "real")
        systems = [stack_point(rng, kind, n, 2, 3) for kind in kinds]
        kernel = FrequencyKernel(stacked(systems))
        assert kernel.dense.any() == (n > 1)  # the Jordan point
        rows = np.sort(rng.uniform(0.0, 10.0, (len(systems), 30)), axis=1)
        for row, sys in zip(rows, systems):  # a near-pole sample at each resonance
            row[0] = np.abs(np.linalg.eigvals(sys.a).imag).max(initial=0.0)
        for freqs in (rows, rows[0], rows[:, :1]):
            assert np.array_equal(kernel.response(freqs), two_pass_response(kernel, freqs))
        modal = kernel.take(~kernel.dense)  # every point modal: no copy of the shift
        assert np.array_equal(modal.response(rows[0]), two_pass_response(modal, rows[0]))


class TestMasksOfRealRuns:
    """Every kernel that eval and bode build on the bundled controllers, and
    that a short building synthesis builds, gets the SVD's mask; all of them
    pass the Cholesky test, so none takes an SVD."""

    def test_eval_bode_and_synthesis(self, tmp_path, monkeypatch):
        seen, fallbacks, calls = [], [], count_cond_calls(monkeypatch)
        real_init = FrequencyKernel.__init__

        def spy(kernel, systems, cond_limit=EIG_COND_LIMIT):
            before = len(calls)
            real_init(kernel, systems, cond_limit)
            fallbacks.append(len(calls) - before)
            seen.append(kernel.dense.tolist() == svd_dense(kernel, cond_limit).tolist())

        monkeypatch.setattr(FrequencyKernel, "__init__", spy)
        for name, levels in (("beam", "10,15,20"), ("building", "0.5,1,1.5")):
            common = ["--controller", str(BUNDLED / f"{name}_controller.txt"),
                      "--config", str(BUNDLED / f"{name}.cfg")]
            assert cli.main(["eval", *common, "--out", str(tmp_path / "eval.csv")]) == 0
            assert cli.main(["bode", *common, "--rho", levels, "--out", str(tmp_path / "bode.csv")]) == 0
        cfg = cli.parse_config(str(BUNDLED / "building.cfg"))
        problem = cli.build_problem(cfg)[1]
        opts = replace(cli.make_options(cfg), max_iter=4, refine_rounds=0)
        synth.optimize(problem, synth.init_from_nominal(problem, cfg.opt_nominal_index, opts), opts)
        assert len(seen) > 30 and all(seen)
        assert sum(fallbacks) == 0, f"{np.count_nonzero(fallbacks)} of {len(seen)} kernels took the SVD"


class TestSpectralAbscissa:
    def test_diagonal(self):
        s = StateSpace(np.diag([-3.0, 0.5]), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
        assert spectral_abscissa(s) == pytest.approx(0.5)

    def test_stable(self):
        s = StateSpace(-np.eye(3), np.zeros((3, 1)), np.zeros((1, 3)), [[0.0]])
        assert spectral_abscissa(s) == pytest.approx(-1.0)

    def test_marginal_oscillator(self):
        s = StateSpace([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
        assert spectral_abscissa(s) == pytest.approx(0.0, abs=1e-12)

    def test_static_raises(self):
        with pytest.raises(DomainError):
            spectral_abscissa(static_gain([[1.0]]))


class TestSeries:
    def test_static_product(self):
        g = series(static_gain([[2.0]]), static_gain([[3.0]]))
        assert g.is_static and g.d[0, 0] == 6.0

    def test_identity_preserves(self, rng):
        sys = random_stable_ss(rng, 4, 2, 3)
        chained = series(sys, static_gain(np.eye(3)))
        for w in np.geomspace(0.01, 100.0, 20):
            assert np.allclose(
                frequency_gain(chained, w), frequency_gain(sys, w), atol=1e-10
            )

    def test_frequency_product(self, rng):
        g1 = random_stable_ss(rng, 3, 2, 2)
        g2 = random_stable_ss(rng, 4, 2, 3)
        cascade = series(g1, g2)
        assert cascade.n == 7
        for w in np.geomspace(0.01, 100.0, 15):
            expect = frequency_gain(g2, w) @ frequency_gain(g1, w)
            assert np.allclose(frequency_gain(cascade, w), expect, atol=1e-8)

    def test_associativity(self, rng):
        g1 = random_stable_ss(rng, 2, 1, 2)
        g2 = random_stable_ss(rng, 3, 2, 2)
        g3 = random_stable_ss(rng, 2, 2, 1)
        left = series(series(g1, g2), g3)
        right = series(g1, series(g2, g3))
        for w in np.geomspace(0.05, 50.0, 12):
            assert np.allclose(
                frequency_gain(left, w), frequency_gain(right, w), atol=1e-8
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            series(random_stable_ss(rng, 2, 1, 2), random_stable_ss(rng, 2, 3, 1))


    def test_stacked_matches_one_at_a_time(self, rng):
        ctrl = [random_stable_ss(rng, 2, 3, 2) for _ in range(4)]
        weights = [random_stable_ss(rng, 3, 2, 2) for _ in range(4)]
        got = series_matrices(stacked(ctrl), stacked(weights))
        for j, (g1, g2) in enumerate(zip(ctrl, weights)):
            one = series(g1, g2)
            assert all(np.array_equal(m[j], getattr(one, k)) for m, k in zip(got, "abcd"))


class TestAppendDiag:
    def test_single(self, rng):
        sys = random_stable_ss(rng, 3)
        out = append_diag([sys])
        assert np.allclose(out.a, sys.a) and np.allclose(out.d, sys.d)

    def test_static_gains(self):
        out = append_diag([static_gain([[2.0]]), static_gain([[3.0]])])
        assert np.allclose(out.d, np.diag([2.0, 3.0]))

    def test_abscissa_is_max(self, rng):
        g1 = random_stable_ss(rng, 3)
        g2 = random_stable_ss(rng, 4)
        expect = max(spectral_abscissa(g1), spectral_abscissa(g2))
        assert spectral_abscissa(append_diag([g1, g2])) == pytest.approx(
            expect, abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            append_diag([])


class TestPartitionedSystem:
    def test_partition_sums(self, rng):
        sys = random_stable_ss(rng, 3, 3, 4)
        with pytest.raises(DimensionError):
            PartitionedSystem(sys, (1, 1), (2, 2))
        p = PartitionedSystem(sys, (2, 1), (3, 1))
        assert p.input_partition == (2, 1)

    def test_subsystem_blocks(self, rng):
        sys = random_stable_ss(rng, 3, 3, 4)
        p = PartitionedSystem(sys, (2, 1), (3, 1))
        blk = subsystem(p, 1, 0)
        assert blk.n_inputs == 2 and blk.n_outputs == 1
        for w in (0.1, 1.0, 10.0):
            assert np.allclose(
                frequency_gain(blk, w), frequency_gain(sys, w)[3:, :2], atol=1e-12
            )
