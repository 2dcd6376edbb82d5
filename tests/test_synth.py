from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lfsynth import cli, synth
from lfsynth.errors import (
    DimensionError,
    DomainError,
    IllPosedLFTError,
    SingularMatrixError,
    StabilizationFailedError,
    UnstableError,
)
from lfsynth.lft import (
    MASK_FREE,
    MASK_FROZEN,
    MASK_ZERO,
    ControllerBlock,
    count_free_params,
    eval_controller,
    load_controller,
    zero_block,
)
from lfsynth.models import WeightSpec, make_weight
from lfsynth.norms import hinf_norm
from lfsynth.statespace import (
    FrequencyKernel,
    PartitionedSystem,
    StateSpace,
    batch_sigma,
    series,
    static_gain,
)
from lfsynth.synth import (
    _TAU_SCHEDULE,
    ObjectiveEval,
    OptimizeOptions,
    StructureOptions,
    SynthesisProblem,
    build_mask,
    init_from_nominal,
    objective,
    optimize,
    stabilize,
    surrogate_grid,
)

from conftest import random_partitioned

BUNDLED = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def scalar_plant(pole=-1.0):
    """x' = pole*x + w + u, z = y = x."""
    return PartitionedSystem(
        StateSpace([[pole]], [[1.0, 1.0]], [[1.0], [1.0]], np.zeros((2, 2))),
        (1, 1),
        (1, 1),
    )


def oscillator_plant(rho, damping=0.4):
    """2-state oscillator whose stiffness is the grid parameter."""
    return PartitionedSystem(
        StateSpace(
            [[0.0, 1.0], [-rho, -damping]], [[0.0, 0.0], [1.0, 1.0]],
            [[1.0, 0.0], [1.0, 0.0]], np.zeros((2, 2))
        ),
        (1, 1),
        (1, 1),
    )


def single_problem(structure, plant=None, wk_gain=0.0):
    return SynthesisProblem(
        (plant or scalar_plant(),), (0.0,), static_gain([[wk_gain]]), structure
    )


class TestBuildMask:
    def test_full_hinf_all_free(self):
        st = StructureOptions(1, 1, "full-hinf", "rational", "full")
        mask = build_mask(st, 1, 1)
        assert mask.shape == (3, 3)
        assert np.all(mask == MASK_FREE)
        assert int((mask == MASK_FREE).sum()) == 9

    def test_affine_pins_dzw(self):
        st = StructureOptions(1, 1, "full-hinf", "affine", "full")
        mask = build_mask(st, 1, 1)
        assert mask[1, 1] == MASK_ZERO
        assert int((mask == MASK_FREE).sum()) == 8

    def test_h2_affine_tridiagonal_enumeration(self):
        st = StructureOptions(4, 2, "strictly-proper-h2", "affine", "tridiagonal")
        mask = build_mask(st, 1, 1)
        n_k, n_d, n_u, n_y = 4, 2, 1, 1
        expected = 0
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                in_ak = i < n_k and j < n_k
                in_dzw = n_k <= i < n_k + n_d and n_k <= j < n_k + n_d
                in_dzu = n_k <= i < n_k + n_d and j >= n_k + n_d
                in_dyw = i >= n_k + n_d and n_k <= j < n_k + n_d
                in_dyu = i >= n_k + n_d and j >= n_k + n_d
                if in_ak and abs(i - j) > 1:
                    continue
                if in_dzw or in_dzu or in_dyw or in_dyu:
                    continue
                expected += 1
        assert int((mask == MASK_FREE).sum()) == expected == 34

    def test_invalid_choices(self):
        with pytest.raises(DomainError):
            StructureOptions(1, 1, controller_class="h3")
        with pytest.raises(DomainError):
            StructureOptions(1, 1, dependency="quadratic")
        with pytest.raises(DimensionError):
            StructureOptions(-1, 0)


class TestSynthesisProblem:
    def test_grid_mismatch(self):
        with pytest.raises(DimensionError):
            SynthesisProblem(
                (scalar_plant(),), (1.0, 2.0), static_gain([[0.0]]),
                StructureOptions(1, 0),
            )

    def test_duplicate_grid(self):
        with pytest.raises(DomainError):
            SynthesisProblem(
                (scalar_plant(), scalar_plant()), (1.0, 1.0), static_gain([[0.0]]),
                StructureOptions(1, 0),
            )

    def test_channel_dim_consistency(self, rng):
        p1 = random_partitioned(rng, 2, 1, 1, 1, 1)
        p2 = random_partitioned(rng, 2, 2, 1, 1, 1)
        with pytest.raises(DimensionError):
            SynthesisProblem((p1, p2), (0.0, 1.0), static_gain([[0.0]]),
                             StructureOptions(1, 0))

    def test_mixed_state_orders(self, rng):
        p1 = random_partitioned(rng, 2, 1, 1, 1, 1)
        p2 = random_partitioned(rng, 3, 1, 1, 1, 1)
        with pytest.raises(DimensionError, match="state order"):
            SynthesisProblem((p1, p2), (0.0, 1.0), static_gain([[0.0]]),
                             StructureOptions(1, 0))

    def test_per_point_weights(self):
        wks = (static_gain([[0.1]]), static_gain([[0.2]]))
        prob = SynthesisProblem(
            (oscillator_plant(1.0), oscillator_plant(2.0)), (1.0, 2.0), wks,
            StructureOptions(1, 1),
        )
        assert prob.wk_list[1].d[0, 0] == 0.2

    def test_weights_share_output_count(self):
        wks = (static_gain([[0.1]]), static_gain([[0.1], [0.2]]))
        with pytest.raises(DimensionError, match="output count"):
            SynthesisProblem(
                (oscillator_plant(1.0), oscillator_plant(2.0)), (1.0, 2.0), wks,
                StructureOptions(1, 1),
            )

    def test_weights_share_state_order(self):
        # the weights are stacked over the grid, as the plants are
        wks = (static_gain([[0.1]]), StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))
        with pytest.raises(DimensionError, match="state order"):
            SynthesisProblem(
                (oscillator_plant(1.0), oscillator_plant(2.0)), (1.0, 2.0), wks,
                StructureOptions(1, 1),
            )

    @pytest.mark.parametrize("pole", [0.5, 0.0])
    def test_unstable_weight_rejected(self, pole):
        # the controller poles decide the weighted channel only for stable weights
        wk = StateSpace([[pole]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableError):
            SynthesisProblem((scalar_plant(),), (0.0,), wk, StructureOptions(1, 0))


class TestObjective:
    def test_zero_static_controller_is_open_loop(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        ev = objective(prob, kb)
        assert isinstance(ev, ObjectiveEval)
        assert ev.stable
        # open loop w -> z is 1/(s+1), norm 1
        assert ev.value == pytest.approx(1.0, rel=1e-3)

    def test_hand_computed_first_order(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1)).with_free_values([-1.0])
        ev = objective(prob, kb, rel_tol=1e-6)
        assert ev.value == pytest.approx(0.5, rel=1e-5)
        assert ev.per_point[0] == ev.value

    def test_single_model_reduction(self, rng):
        # m=1, n_delta=0 is the classical structured synthesis objective
        p = random_partitioned(rng, 3, 1, 1, 1, 1, d_scale=0.0)
        st = StructureOptions(0, 0)
        prob = SynthesisProblem((p,), (0.0,), static_gain([[0.0]]), st)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        from lfsynth.statespace import subsystem

        expected = hinf_norm(subsystem(p, 0, 0), 1e-6).value
        assert objective(prob, kb, 1e-6).value == pytest.approx(expected, rel=1e-5)

    def test_unstable_scores_inf(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, plant=scalar_plant(pole=0.5))
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        ev = objective(prob, kb)
        assert not ev.stable
        assert ev.value == np.inf and ev.per_point == (np.inf,)

    def test_ill_posed_carries_grid_index(self):
        st = StructureOptions(0, 1, dependency="rational")
        prob = SynthesisProblem(
            (oscillator_plant(1.0), oscillator_plant(2.0)), (1.0, 2.0),
            static_gain([[0.0]]), st,
        )
        k = np.zeros((2, 2))
        k[0, 0] = 0.5  # d_zw: loop singular at rho = 2
        kb = ControllerBlock(0, 1, 1, 1, k, build_mask(st, 1, 1))
        with pytest.raises(IllPosedLFTError) as err:
            objective(prob, kb)
        assert err.value.grid_index == 1

    def test_wk_channel_included(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, wk_gain=1.0)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1)).with_free_values([-3.0])
        # closed loop 1/(s+4) norm 0.25; wk channel |1.0 * (-3)| = 3 dominates
        ev = objective(prob, kb, rel_tol=1e-6)
        assert ev.value == pytest.approx(3.0, rel=1e-6)


class TestStabilize:
    def test_already_stable_returned_unchanged(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        assert stabilize(prob, kb) is kb

    def test_scalar_pole_placement(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, plant=scalar_plant(pole=1.0))
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        out = stabilize(prob, kb)
        assert out.free_values()[0] < -1.0

    def test_no_free_entries_raises(self):
        # no free entries: impossible to stabilize an unstable plant
        st = StructureOptions(0, 0)
        prob = single_problem(st, plant=scalar_plant(pole=1.0))
        kb = zero_block(0, 0, 1, 1, np.zeros((1, 1), dtype=np.int8))
        with pytest.raises(StabilizationFailedError, match="no free entries"):
            stabilize(prob, kb)

    def test_budget_exhaustion(self, monkeypatch):
        # x' = x + w + u, z = x, y = 0: no controller sees the unstable state,
        # so every descent ends where it started and restarts from a random
        # perturbation until the evaluation budget runs out
        plant = PartitionedSystem(
            StateSpace([[1.0]], [[1.0, 1.0]], [[1.0], [0.0]], np.zeros((2, 2))),
            (1, 1),
            (1, 1),
        )
        st = StructureOptions(1, 0)
        prob = single_problem(st, plant=plant)
        kb = zero_block(1, 0, 1, 1, build_mask(st, 1, 1))
        starts = []
        real_bfgs = synth._bfgs

        def spy(fun, grad_fun, theta0, *args, **kw):
            starts.append(tuple(theta0))
            return real_bfgs(fun, grad_fun, theta0, *args, **kw)

        monkeypatch.setattr(synth, "_bfgs", spy)
        with pytest.raises(StabilizationFailedError, match="budget exhausted"):
            stabilize(prob, kb)
        # only the budget ends the restarts, each from a new random point
        assert len(starts) > 1 and len(set(starts)) == len(starts)


class TestBfgs:
    """Each exit of _bfgs on the convex quadratic c + x' A x / 2.  The
    objectives take a trial and its Armijo bound, which they ignore."""

    A = np.diag([1.0, 4.0, 16.0])
    X0 = np.ones(3)

    def quadratic(self, c=100.0):
        def fun(x, bound=None):
            return c + 0.5 * float(x @ self.A @ x)

        return fun, (lambda x, value: self.A @ x)

    def test_relative_decrease_over_ten_steps(self):
        fun, grad = self.quadratic()
        f0 = fun(self.X0)  # 110.5; the whole descent drops at most 10.5
        theta, fval, accepted, converged = synth._bfgs(fun, grad, self.X0, f0, 100, 0.5)
        assert (accepted, converged) == (10, True)
        assert 100.0 <= fval < f0 and fval == fun(theta)

    def test_iteration_cap(self):
        fun, grad = self.quadratic()
        f0 = fun(self.X0)
        theta, fval, accepted, converged = synth._bfgs(fun, grad, self.X0, f0, 5, 0.5)
        assert (accepted, converged) == (5, False)
        assert fval < f0 and fval == fun(theta)

    def test_stop_value(self):
        fun, grad = self.quadratic()
        seen = []
        theta, fval, accepted, converged = synth._bfgs(
            fun, grad, self.X0, fun(self.X0), 100, 0.0,
            on_accept=lambda *a: seen.append(a), stop_value=101.0,
        )
        assert converged and fval <= 101.0 and fval == fun(theta)
        # the stopping point is accepted but not reported to on_accept
        assert len(seen) == accepted - 1 and all(v > 101.0 for _, v, _ in seen)

    def test_zero_gradient_resets_and_stops(self):
        # the first step halves onto the minimum of x^2 exactly; its zero
        # gradient is no descent direction, so the inverse Hessian resets to
        # steepest descent, which is zero too
        calls = []

        def fun(x, bound):
            calls.append(x.copy())
            return float(x @ x)

        theta, fval, accepted, converged = synth._bfgs(
            fun, lambda x, value: 2.0 * x, np.array([1.0]), 1.0, 100, 0.0
        )
        assert (theta[0], fval, accepted, converged) == (0.0, 0.0, 1, True)
        assert len(calls) == 2  # alpha = 1 overshoots to -1, alpha = 1/2 lands

    def test_failed_line_search_reports_converged(self):
        # a gradient of the wrong sign points uphill: no halving of the step
        # meets the sufficient-decrease test.  Reporting that as converged is
        # the behaviour today, pinned so that a change to it is deliberate.
        fun, grad = self.quadratic()
        calls = []

        def counted(x, bound):
            calls.append(x)
            return fun(x)

        f0 = fun(self.X0)
        theta, fval, accepted, converged = synth._bfgs(
            counted, lambda x, value: -grad(x, value), self.X0, f0, 100, 0.5
        )
        assert (fval, accepted, converged) == (f0, 0, True)
        assert np.array_equal(theta, self.X0)
        assert len(calls) == 30

    def test_underflowing_curvature_skips_the_update(self):
        # with tol = 0 the steps shrink until s'y passes its curvature test
        # while (s'y)^2 underflows to 0; that update is skipped, not divided by
        fun, grad = self.quadratic(10.0)
        steps = []
        theta, fval, accepted, converged = synth._bfgs(
            fun, grad, self.X0, fun(self.X0), 100, 0.0,
            on_accept=lambda th, value, step: steps.append(step),
        )
        assert converged and accepted < 100
        assert fval == fun(theta) == 10.0
        # s'y is about |s|^2, and its square underflows once |s| < 1e-81
        assert min(steps) < 1e-81

    def test_infeasible_trials_are_rejected(self):
        # fun is inf outside a ball around the minimum, as the surrogate is at
        # an infeasible block: the line search halves every step that leaves
        # the ball, bit for bit as if those trials scored a huge finite value
        fun, grad = self.quadratic()
        radius = 1.8  # |X0| = sqrt(3); the first full step lands at |x| > 15

        def run(outside):
            trials, accepted = [], []

            def bounded(x, bound):
                trials.append(x.copy())
                return fun(x) if np.linalg.norm(x) <= radius else outside

            out = synth._bfgs(
                bounded, grad, self.X0, fun(self.X0), 100, 1e-9,
                on_accept=lambda th, value, step: accepted.append(th.copy()),
            )
            return out, trials, accepted

        (theta, fval, accepted, converged), trials, points = run(np.inf)
        assert any(np.linalg.norm(x) > radius for x in trials)
        assert points and all(np.linalg.norm(x) <= radius for x in points)
        assert np.array_equal(points[-1], theta) and fval == fun(theta) < fun(self.X0)
        (theta_f, fval_f, accepted_f, converged_f), trials_f, points_f = run(1e300)
        assert np.array_equal(theta, theta_f)
        assert (fval, accepted, converged) == (fval_f, accepted_f, converged_f)
        assert np.array_equal(trials, trials_f) and np.array_equal(points, points_f)

    def test_rejecting_on_the_bound_keeps_the_descent(self):
        # each trial comes with its Armijo threshold f + 1e-4 alpha slope; an
        # objective that answers a failing trial with any number above it,
        # as the surrogate does with its fixed-grid bound, takes the same path
        fun, grad = self.quadratic()

        def run(reject):
            trials, bounds = [], []

            def scored(x, bound):
                trials.append(x.copy())
                bounds.append(bound)
                value = fun(x)
                return np.nextafter(bound, np.inf) if reject and value > bound else value

            return synth._bfgs(scored, grad, self.X0, fun(self.X0), 100, 1e-9), trials, bounds

        (theta, fval, accepted, converged), trials, bounds = run(False)
        (theta_r, fval_r, accepted_r, converged_r), trials_r, bounds_r = run(True)
        assert np.array_equal(theta, theta_r) and np.array_equal(trials, trials_r)
        assert (fval, accepted, converged) == (fval_r, accepted_r, converged_r)
        assert bounds == bounds_r and len(trials) > accepted  # some trials failed
        # the first trial takes the full step from X0 with its threshold
        g0 = grad(self.X0, None)
        assert np.array_equal(trials[0], self.X0 - g0)
        assert bounds[0] == fun(self.X0) + 1e-4 * 1.0 * -float(g0 @ g0)


class TestOptimize:
    def opts(self, **kw):
        base = dict(max_iter=80, restarts=2, seed=0, refine_rounds=1)
        base.update(kw)
        return OptimizeOptions(**base)

    def test_unstabilizable_block_raises(self):
        # no free entries on an unstable plant: nothing to synthesize
        st = StructureOptions(0, 0)
        prob = single_problem(st, plant=scalar_plant(pole=1.0))
        kb = zero_block(0, 0, 1, 1, np.zeros((1, 1), dtype=np.int8))
        with pytest.raises(StabilizationFailedError, match="no free entries"):
            optimize(prob, kb, self.opts())

    def test_flat_objective_returns_init(self):
        # no free parameters at all: optimizer returns the init, converged
        st = StructureOptions(0, 0)
        prob = single_problem(st)
        kb = zero_block(0, 0, 1, 1, np.full((1, 1), 2, dtype=np.int8))  # frozen
        res = optimize(prob, kb, self.opts())
        assert res.status == "converged"
        assert np.array_equal(res.controller.k, kb.k)

    def test_scalar_tradeoff_matches_scan(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, wk_gain=0.01)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        res = optimize(prob, kb, self.opts(max_iter=150))
        thetas = np.linspace(-40.0, 0.5, 8000)
        vals = np.where(
            thetas < 1.0,
            np.maximum(1.0 / np.abs(1.0 - thetas), 0.01 * np.abs(thetas)),
            np.inf,
        )
        assert res.gamma <= vals.min() * 1.02
        assert res.gamma == pytest.approx(max(res.per_point_norms), rel=1e-9)

    def test_descent_and_certification(self):
        grid = (1.0, 2.0, 3.0)
        st = StructureOptions(1, 1, dependency="affine")
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid,
            static_gain([[0.02]]), st,
        )
        kb0 = init_from_nominal(prob, 1, self.opts())
        ev0 = objective(prob, kb0, rel_tol=1e-6)
        res = optimize(prob, kb0, self.opts())
        assert res.gamma <= ev0.value * (1.0 + 1e-9)
        recheck = objective(prob, res.controller, rel_tol=1e-6)
        assert recheck.stable
        assert all(
            v <= res.gamma * (1.0 + 1e-6) for v in recheck.per_point
        )
        # trace is non-increasing
        objs = [row.objective for row in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_mask_respected_bit_for_bit(self):
        grid = (1.0, 2.0)
        st = StructureOptions(1, 1, dependency="affine", a_k_shape="tridiagonal")
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid,
            static_gain([[0.05]]), st,
        )
        mask = build_mask(st, 1, 1)
        mask[0, 1] = 2  # freeze one b_w entry at a nonzero value
        kb = zero_block(1, 1, 1, 1, mask)
        k = np.array(kb.k)
        k[0, 1] = 0.25
        kb = kb.with_k(k)
        res = optimize(prob, kb, self.opts(max_iter=40))
        assert np.array_equal(res.controller.mask, mask)
        assert res.controller.k[0, 1] == 0.25
        assert np.all(res.controller.k[mask == MASK_ZERO] == 0.0)

    def test_n_delta_zero_is_rho_independent(self):
        grid = (1.0, 2.0)
        st = StructureOptions(1, 0)
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid,
            static_gain([[0.05]]), st,
        )
        kb = zero_block(1, 0, 1, 1, build_mask(st, 1, 1))
        res = optimize(prob, kb, self.opts(max_iter=60))
        s1 = eval_controller(res.controller, grid[0])
        s2 = eval_controller(res.controller, grid[1])
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.d, s2.d)

    def test_final_not_worse_than_open_loop(self, rng):
        p = random_partitioned(rng, 3, 1, 1, 1, 1, d_scale=0.0)
        st = StructureOptions(0, 0)
        prob = SynthesisProblem((p,), (0.0,), static_gain([[0.01]]), st)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        from lfsynth.statespace import subsystem

        open_loop = hinf_norm(subsystem(p, 0, 0), 1e-6).value
        res = optimize(prob, kb, self.opts(max_iter=60))
        assert res.gamma <= open_loop * (1.0 + 1e-9)

    def test_deterministic_given_seed(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, wk_gain=0.01)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        r1 = optimize(prob, kb, self.opts(max_iter=50, seed=3))
        r2 = optimize(prob, kb, self.opts(max_iter=50, seed=3))
        assert r1.gamma == r2.gamma
        assert np.array_equal(r1.controller.k, r2.controller.k)

    def test_static_weight(self):
        # a static weight adds no surrogate frequency, and its channel's
        # certified norm is the weight's gain times the controller's
        grid = (1.0, 2.0)
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid,
            static_gain([[0.05]]), StructureOptions(1, 1, dependency="affine"),
        )
        plants_only = SimpleNamespace(plants=prob.plants, wk_list=())
        assert np.array_equal(surrogate_grid(prob), surrogate_grid(plants_only))
        res = optimize(prob, init_from_nominal(prob, 0, self.opts()), self.opts(max_iter=30))
        for rho, wk in zip(grid, res.per_point_wk_norms):
            ctrl = hinf_norm(eval_controller(res.controller, rho), 1e-6).value
            assert wk == pytest.approx(0.05 * ctrl, rel=1e-5)

    def test_init_from_nominal_structure(self):
        grid = (1.0, 2.0, 3.0)
        st = StructureOptions(2, 1, dependency="rational")
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid,
            static_gain([[0.02]]), st,
        )
        kb = init_from_nominal(prob, 1, self.opts(max_iter=40))
        assert (kb.n_k, kb.n_delta) == (2, 1)
        assert np.all(kb.b_w == 0.0) and np.all(kb.c_z == 0.0)
        assert np.all(kb.d_zw == 0.0) and np.all(kb.d_zu == 0.0)
        assert np.all(kb.d_yw == 0.0)
        s1 = eval_controller(kb, 0.1)
        s2 = eval_controller(kb, 3.0)
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.d, s2.d)
        # embedded nominal objective equals the max over grid of its norms
        ev = objective(prob, kb, rel_tol=1e-6)
        assert ev.value == pytest.approx(max(ev.per_point), rel=1e-12)


def fd_gradient(fun, theta, f0):
    """Central differences with one-sided fallback where a side is invalid,
    one evaluation of ``fun`` per probe: the oracle of the surrogate's
    closed-form gradient and of stabilization's stacked probe gradient."""
    g = np.zeros_like(theta)
    for i in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[i]))
        up = theta.copy()
        up[i] += h
        dn = theta.copy()
        dn[i] -= h
        fp, fm = fun(up), fun(dn)
        if np.isfinite(fp) and np.isfinite(fm):
            g[i] = (fp - fm) / (2.0 * h)
        elif np.isfinite(fp):
            g[i] = (fp - f0) / h
        elif np.isfinite(fm):
            g[i] = (f0 - fm) / h
    return g


def gradient_point(seed, structure, n_w, n_u, n_z, n_y, a_k=None, freeze_a_k=True):
    """Random two-point problem and stabilizing block with frozen entries, or
    None where the surrogate's sample count changes within a finite-difference
    step of the block (a needle frequency appears or vanishes there).  A
    given ``a_k`` is set in the block, frozen unless ``freeze_a_k`` is false."""
    rng = np.random.default_rng(seed)
    grid = (0.6, 1.4)
    plants = tuple(random_partitioned(rng, 3, n_w, n_u, n_z, n_y) for _ in grid)
    nk, nd = structure.n_k, structure.n_delta
    mask = build_mask(structure, n_u, n_y)
    if a_k is not None and freeze_a_k:
        mask[:nk, :nk] = MASK_FROZEN
    free = np.argwhere(mask == MASK_FREE)
    for i, j in free[rng.choice(len(free), size=2, replace=False)]:
        mask[i, j] = MASK_FROZEN
    k = 0.3 * rng.normal(size=mask.shape)
    k[:nk, :nk] -= 1.5 * np.eye(nk)
    if a_k is not None:
        k[:nk, :nk] = a_k
    k[nk : nk + nd, nk : nk + nd] *= 0.5
    k[mask == MASK_ZERO] = 0.0
    kb = ControllerBlock(nk, nd, n_u, n_y, k, mask)

    def evaluator(gain):
        weights = tuple(
            make_weight(WeightSpec("first-order-lag", gain=gain * r, corner=2.0))
            for r in grid
        )
        prob = SynthesisProblem(plants, grid, weights, structure)
        return synth._FastEvaluator(prob, surrogate_grid(prob, 40))

    # Scale the weight so that both channels carry soft-max weight; an exact
    # tie of their peaks would put a kink (the switch of the largest gain,
    # which sets the smoothing width) inside the difference step.
    unit = evaluator(1.0)
    if not unit.evaluate(kb).stable:
        return None
    cert = synth._certify(unit.problem, kb, 1e-6)
    ev = evaluator(0.9 * max(cert.perf) / max(cert.wk))
    theta = kb.free_values()
    count = ev.evaluate(kb).sigmas.size
    for i in range(theta.size):
        for sign in (1.0, -1.0):
            step = np.array(theta)
            step[i] += sign * 1e-6 * (1.0 + abs(theta[i]))
            moved = ev.evaluate(kb.with_free_values(step))
            if not moved.stable or moved.sigmas.size != count:
                return None
    return ev, kb


def spy_resolvents(monkeypatch):
    """List that receives, point by point, the ``dense`` flags of every
    controller kernel the surrogate passes from now on, once per kernel: a
    block's fixed-grid and needle passes share one."""
    dense, seen = [], []

    def spy(kernel, *args, _real=synth._channel_gains):
        if not any(kernel is k for k in seen):
            seen.append(kernel)
            dense.extend(kernel.dense.tolist())
        return _real(kernel, *args)

    monkeypatch.setattr(synth, "_channel_gains", spy)
    return dense


class TestClosedFormGradient:
    """The surrogate's closed-form gradient against central differences."""

    CASES = {
        "rational": (StructureOptions(2, 1, dependency="rational"), 1, 1, 1, 1),
        "no-states": (StructureOptions(0, 2, dependency="rational"), 1, 1, 1, 1),
        "no-parameter": (StructureOptions(2, 0), 2, 1, 1, 2),
        "h2-mimo": (
            StructureOptions(3, 2, "strictly-proper-h2", "affine", "tridiagonal"),
            2, 2, 2, 2,
        ),
        "rational-mimo": (StructureOptions(1, 2, dependency="rational"), 2, 2, 3, 1),
        # a column performance channel takes the SVD's singular pair, as the
        # row channel of "no-parameter" does: only a 1x1 one has a closed form
        "column-perf": (StructureOptions(2, 1, dependency="rational"), 1, 1, 2, 1),
        # a defective controller state matrix takes dense resolvent solves
        "jordan": (StructureOptions(2, 0), 1, 1, 1, 1, [[-1.0, 1.0], [0.0, -1.0]]),
        # free, the difference steps split it into nearly defective matrices:
        # those above RESOLVENT_COND_LIMIT solve densely, the rest stay accurate
        "jordan-free": (
            StructureOptions(2, 0), 1, 1, 1, 1, [[-1.0, 1.0], [0.0, -1.0]], False
        ),
    }
    DENSE = {"jordan": {True}, "jordan-free": {True, False}}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_finite_differences(self, monkeypatch, case):
        structure, *dims = self.CASES[case]
        points = [gradient_point(seed, structure, *dims) for seed in range(6)]
        points = [p for p in points if p is not None]
        assert len(points) >= 2
        dense = spy_resolvents(monkeypatch)
        for ev, kb in points[:2]:
            theta = kb.free_values()
            for tau in _TAU_SCHEDULE:
                value, _, grad = ev.penalized(kb, tau, gradient=True)

                def fun(th, _tau=tau):
                    return ev.penalized(kb.with_free_values(th), _tau)[0]

                oracle = fd_gradient(fun, theta, value)
                assert grad.shape == theta.shape
                assert np.linalg.norm(grad - oracle) <= 1e-6 * np.linalg.norm(oracle)
        assert set(dense) == self.DENSE.get(case, {False})

    def test_zero_at_unstable_block(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, plant=scalar_plant(pole=0.5))
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 20))
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1))
        value, info, grad = ev.penalized(kb, 0.01, gradient=True)
        assert not info.stable and value == np.inf
        assert np.array_equal(grad, np.zeros(1))


class TestTopSingularPairs:
    """The singular pairs of every channel shape against the SVD."""

    SHAPES = pytest.mark.parametrize(
        "shape", [(3, 1), (1, 4), (1, 1), (2, 3)], ids=["column", "row", "scalar", "matrix"]
    )

    @SHAPES
    def test_pair_attains_the_largest_singular_value(self, rng, shape):
        g = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
        g[2] = 0.0
        u, v = synth._top_singular_pairs(g)
        assert u.shape == (6, shape[0]) and v.shape == (6, shape[1])
        sigma = np.linalg.svd(g, compute_uv=False)[:, 0]
        attained = np.einsum("fp,fpq,fq->f", u.conj(), g, v)
        assert np.allclose(attained.real, sigma, rtol=1e-13, atol=1e-15)
        assert np.allclose(attained.imag, 0.0, atol=1e-13)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, rtol=1e-14)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=1e-14)

    @SHAPES
    def test_grid_stack_matches_slice_by_slice(self, rng, shape):
        g = rng.normal(size=(3, 6) + shape) + 1j * rng.normal(size=(3, 6) + shape)
        g[1, 2] = 0.0
        u, v = synth._top_singular_pairs(g)
        sigma = batch_sigma(g)
        assert u.shape == (3, 6, shape[0]) and v.shape == (3, 6, shape[1])
        for j in range(3):
            one_u, one_v = synth._top_singular_pairs(g[j])
            assert np.array_equal(u[j], one_u) and np.array_equal(v[j], one_v)
            assert np.array_equal(sigma[j], batch_sigma(g[j]))

    @SHAPES
    def test_only_scalars_skip_the_svd(self, rng, shape):
        g = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
        g[2] = 0.0
        u, v = synth._top_singular_pairs(g)
        if shape == (1, 1):
            rest = np.arange(6) != 2
            assert np.array_equal(u[rest], g[rest, 0] / np.abs(g[rest, 0]))
            assert u[2] == 1.0 and np.array_equal(v, np.ones((6, 1)))
        else:
            svd_u, _, svd_vh = np.linalg.svd(g)
            assert np.array_equal(u, svd_u[:, :, 0])
            assert np.array_equal(v, svd_vh[:, 0, :].conj())


def bundled_problem(name):
    """Problem and committed controller block of a perfbench input."""
    cfg = cli.parse_config(str(BUNDLED / f"{name}.cfg"))
    return cli.build_problem(cfg)[1], load_controller(BUNDLED / f"{name}_controller.txt")


def point_problem(prob, j):
    """The one-point problem of grid point ``j``."""
    return SynthesisProblem(
        (prob.plants[j],), (prob.grid[j],), (prob.wk_list[j],), prob.structure
    )


class TestModalResolvent:
    """The stacked pass with the eigen-factored controller resolvent against
    the dense pass one grid point at a time."""

    @pytest.mark.parametrize("name", ["beam", "building"])
    def test_agrees_with_dense_per_point_pass(self, monkeypatch, name):
        prob, kb0 = bundled_problem(name)
        freqs = surrogate_grid(prob, 160)
        stacked = synth._FastEvaluator(prob, freqs)
        rng = np.random.default_rng(0)
        theta0 = kb0.free_values()
        # the committed blocks have a diagonal a_k, so perturb every entry
        blocks = [kb0] + [
            kb0.with_free_values(theta0 + 0.05 * rng.normal(size=theta0.size))
            for _ in range(3)
        ]
        for kb in blocks:
            dense = spy_resolvents(monkeypatch)
            info = stacked.evaluate(kb, gradient=True)
            assert info.stable and dense == [False] * prob.m
            # no eigenbasis is well conditioned enough: every pass solves densely
            monkeypatch.setattr(synth, "RESOLVENT_COND_LIMIT", 0.0)
            points = [
                synth._FastEvaluator(point_problem(prob, j), freqs).evaluate(
                    kb, gradient=True
                )
                for j in range(prob.m)
            ]
            monkeypatch.undo()
            assert dense == [False] * prob.m + [True] * prob.m
            expect = [
                np.concatenate([p.sigmas for p in points]),
                np.concatenate([p.dsigmas[0] for p in points]),
                np.concatenate([p.dsigmas[1] for p in points]),
            ]
            for got, ref in zip((info.sigmas, *info.dsigmas), expect):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSinglePass:
    """One fixed-grid pass and, where needles exist, one needle pass, forward
    and gradient, each stacked over the grid, against one-point evaluators,
    bit for bit."""

    def assert_matches_points(self, monkeypatch, prob, kb, freqs):
        """Compare, and return each point's needle count."""
        owners = {"_channel_gains": synth, "_gain_factors": synth, "response": FrequencyKernel}
        calls = dict.fromkeys(owners, 0)
        for name, owner in owners.items():
            def counting(*args, _name=name, _real=getattr(owner, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)
        ev = synth._FastEvaluator(prob, freqs)
        calls["response"] = 0  # the fixed grid's responses
        info = ev.evaluate(kb, gradient=True)
        monkeypatch.undo()
        points = [
            synth._FastEvaluator(point_problem(prob, j), freqs).evaluate(kb, gradient=True)
            for j in range(prob.m)
        ]
        assert info.stable and all(p.stable for p in points)
        assert np.array_equal(info.sigmas, np.concatenate([p.sigmas for p in points]))
        for i in (0, 1):
            ref = np.concatenate([p.dsigmas[i] for p in points])
            assert np.array_equal(info.dsigmas[i], ref)
        counts = [(p.sigmas.size - 2 * ev.freqs.size) // 2 for p in points]
        # the needles take one stacked sample of the plants and one of the
        # weights, and a pass of their own; without needles no point samples
        # them again, and the fixed grid's pass is the only one
        passes = 2 if max(counts) else 1
        assert calls == {
            "_channel_gains": passes,
            "_gain_factors": passes,
            "response": 2 if max(counts) else 0,
        }
        return counts

    def test_padded_needle_rows(self, monkeypatch):
        grid = (1.0, 1.5, 2.0)
        st = StructureOptions(2, 0)
        plants = tuple(
            oscillator_plant(r, c) for r, c in zip(grid, (0.05, 2.0, 0.05))
        )
        prob = SynthesisProblem(plants, grid, static_gain([[0.02]]), st)
        # a lightly damped controller coupled to the plant: two light pairs
        # beside each lightly damped plant, none beside the damped one
        k = [[0.0, 1.0, 0.0], [-1.5, -0.1, 1.0], [0.3, 0.0, 0.0]]
        kb = ControllerBlock(2, 0, 1, 1, k, build_mask(st, 1, 1))
        freqs = surrogate_grid(prob, 40)
        assert self.assert_matches_points(monkeypatch, prob, kb, freqs) == [2, 0, 2]

    @pytest.mark.parametrize("name", ["beam", "building"])
    def test_bundled_problems(self, monkeypatch, name):
        prob, kb0 = bundled_problem(name)
        freqs = surrogate_grid(prob, 160)
        rng = np.random.default_rng(1)
        theta0 = kb0.free_values()
        for kb in (kb0, kb0.with_free_values(theta0 + 0.05 * rng.normal(size=theta0.size))):
            counts = self.assert_matches_points(monkeypatch, prob, kb, freqs)
            # the beam's loops are lightly damped, the building's are not
            assert (max(counts) > 0) == (name == "beam")


def hinf_or_inf(sys, rel_tol):
    """hinf_norm's value and peak frequency, ``(inf, nan)`` for an unstable
    system."""
    try:
        res = hinf_norm(sys, rel_tol)
    except UnstableError:
        return np.inf, np.nan
    return res.value, res.peak_omega


def certify_per_point(problem, kb, rel_tol):
    """synth._certify one grid point at a time: two hinf_norm calls per
    point, ``inf`` at an unstable one (the oracle of the stacked
    certificate)."""
    loops = synth._closed_loops(problem, kb)
    per_point, perf, wk, peaks = [], [], [], []
    for j, weight in enumerate(problem.wk_list):
        ctrl, closed = (StateSpace(*(m[j] for m in r)) for r in loops[:2])
        value_p, peak_p = hinf_or_inf(closed, rel_tol)
        value_w, peak_w = hinf_or_inf(series(ctrl, weight), rel_tol)
        per_point.append(max(value_p, value_w) if loops.abscissa[j] < 0.0 else np.inf)
        perf.append(value_p)
        wk.append(value_w)
        peaks.extend((peak_p, peak_w))
    return synth._Cert(
        max(per_point), tuple(per_point), tuple(perf), tuple(wk), tuple(peaks),
        float(loops.abscissa.max()),
    )


class TestStackedCertificate:
    """The certificate's two stacked level-set passes against two hinf_norm
    calls per grid point, bit for bit."""

    # the last perturbation's scale leaves some points unstable, not all
    @pytest.mark.parametrize("name, large", [("beam", 1.0), ("building", 0.2)])
    def test_bundled_problems(self, name, large):
        prob, kb0 = bundled_problem(name)
        rng = np.random.default_rng(2)
        theta0 = kb0.free_values()
        blocks = [kb0] + [
            kb0.with_free_values(theta0 + scale * rng.normal(size=theta0.size))
            for scale in (0.05, 0.05, large)
        ]
        stable = []
        for kb, rel_tol in zip(blocks, (1e-6, 1e-4, 1e-6, 1e-6)):
            got = synth._certify(prob, kb, rel_tol)
            ref = certify_per_point(prob, kb, rel_tol)
            for field in got._fields:
                assert np.array_equal(
                    getattr(got, field), getattr(ref, field), equal_nan=True
                ), field
            stable.append(np.isfinite(got.per_point).sum())
        assert stable[:3] == [prob.m] * 3 and 0 < stable[3] < prob.m


    def test_feedthrough_peak_on_a_padded_row(self):
        # a(rho) = [[-1, 1], [-rho / 2, -1]]: real controller poles at
        # rho = -1, a resonance at rho = 1, so the first point's frequency
        # rows are the shorter ones.  Its weighted controller tends to its
        # feedthrough, which no sample reaches: the peak is its own last
        # pole-grid frequency, 1e3 times its fastest pole.
        st = StructureOptions(2, 1, dependency="affine")
        prob = SynthesisProblem(
            (scalar_plant(), scalar_plant()), (-1.0, 1.0), static_gain([[1.0]]), st
        )
        k = [[-1.0, 1.0, 0.0, 0.0],
             [0.0, -1.0, 1.0, 0.3],
             [-0.5, 0.0, 0.0, 0.0],
             [0.0, 0.3, 0.0, -1.0]]
        kb = ControllerBlock(2, 1, 1, 1, k, build_mask(st, 1, 1))
        got = synth._certify(prob, kb, 1e-6)
        ref = certify_per_point(prob, kb, 1e-6)
        assert got == ref
        assert got.wk == (1.0, 1.0) and got.peaks[1] == 1e3 * (1.0 + np.sqrt(0.5))


class TestStackedKernels:
    """The surrogate's stacked plant and weight kernels against one kernel
    per system, bit for bit."""

    @pytest.mark.parametrize("name", ["beam", "building"])
    def test_grid_responses(self, name):
        prob, _ = bundled_problem(name)
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 160))
        rows = np.sort(np.random.default_rng(3).uniform(0.0, 50.0, (prob.m, 9)), axis=1)
        per_row = [kernel.response(rows) for kernel in ev._kernels]
        for j, (plant, weight) in enumerate(zip(prob.plants, prob.wk_list)):
            for sys, grid, row in zip((plant.sys, weight), ev._grid_responses, per_row):
                kernel = FrequencyKernel(sys)
                assert np.array_equal(grid[j], kernel.response(ev.freqs)[0])
                assert np.array_equal(row[j], kernel.response(rows[j])[0])


def integrator_plant():
    """x' = w + u, z = y = x: a pole at 0, the surrogate grid's first sample."""
    return PartitionedSystem(
        StateSpace([[0.0]], [[1.0, 1.0]], [[1.0], [1.0]], np.zeros((2, 2))),
        (1, 1),
        (1, 1),
    )


class TestSurrogatePoles:
    def test_sample_on_a_plant_pole_is_a_typed_error(self):
        st = StructureOptions(0, 0)
        prob = single_problem(st, plant=integrator_plant())
        freqs = surrogate_grid(prob, 20)
        assert freqs[0] == 0.0
        with pytest.raises(SingularMatrixError, match="pole"):
            synth._FastEvaluator(prob, freqs)
        kb = zero_block(0, 0, 1, 1, build_mask(st, 1, 1)).with_free_values([-1.0])
        with pytest.raises(SingularMatrixError):
            optimize(prob, kb, OptimizeOptions(max_iter=2, restarts=1))


class TestDescentBudget:
    def test_short_budget_runs_every_phase(self, monkeypatch):
        grid = (1.0, 2.0, 3.0)
        st = StructureOptions(1, 1, dependency="affine")
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid, static_gain([[0.02]]), st,
        )
        kb = zero_block(1, 1, 1, 1, build_mask(st, 1, 1))
        k = np.array(kb.k)
        k[0, 0], k[2, 2] = -1.0, -0.5  # a stabilizing start
        kb = kb.with_k(k)
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 60))
        phases, accepted = [], []
        real_bfgs = synth._bfgs

        def spy(fun, grad_fun, theta0, f0, max_iter, tol, on_accept=None, **kw):
            def seen(theta, fval, step_norm):
                fresh = synth._FastEvaluator(prob, ev.freqs)
                accepted.append(fresh.evaluate(kb.with_free_values(theta)).max_abscissa)
                on_accept(theta, fval, step_norm)

            out = real_bfgs(fun, grad_fun, theta0, f0, max_iter, tol, on_accept=seen, **kw)
            phases.append((max_iter, out[2]))
            return out

        monkeypatch.setattr(synth, "_bfgs", spy)
        trace = []
        _, _, used = synth._descend(
            ev, kb, kb.free_values(), trace, 0.0, 0, 4, len(_TAU_SCHEDULE)
        )
        assert used == sum(n for _, n in phases)
        assert len(phases) == len(_TAU_SCHEDULE)
        assert all(cap >= 1 for cap, _ in phases)
        assert sum(used for _, used in phases) <= 4
        # trace rows carry the abscissa of a fresh evaluation at their iterate
        for row in trace[1:]:
            assert row.max_abscissa == accepted[row.iteration - 1]


def light_plant(rho):
    """Lightly damped oscillator (damping ratio at most 2.5 %) whose stiffness
    is the grid parameter: its closed loops sample needle frequencies."""
    return PartitionedSystem(
        StateSpace(
            [[0.0, 1.0], [-rho, -0.05]], [[0.0, 0.0], [1.0, 1.0]],
            [[1.0, 0.0], [1.0, 0.0]], np.zeros((2, 2))
        ),
        (1, 1),
        (1, 1),
    )


def stabilizing_start():
    """Three-point lightly damped problem and a stabilizing first-order block."""
    grid = (1.0, 2.0, 3.0)
    st = StructureOptions(1, 1, dependency="affine")
    prob = SynthesisProblem(
        tuple(light_plant(r) for r in grid), grid, static_gain([[0.02]]), st,
    )
    kb = zero_block(1, 1, 1, 1, build_mask(st, 1, 1))
    k = np.array(kb.k)
    k[0, 0], k[0, 2], k[2, 0], k[2, 2] = -1.0, 0.3, 0.2, -0.5
    return prob, kb.with_k(k)


def assert_same_info(a, b):
    assert np.array_equal(a.sigmas, b.sigmas)
    assert a.max_abscissa == b.max_abscissa and a.grid_max == b.grid_max
    for fa, fb in zip(a.dsigmas, b.dsigmas):
        assert np.array_equal(fa, fb)


class TestEvaluatorMemo:
    """The evaluator keeps the latest block's forward pass."""

    @pytest.fixture
    def setup(self, monkeypatch):
        prob, kb = stabilizing_start()
        passes = []
        real = synth._closed_loops

        def counting(problem, block, **kw):
            passes.append(block.k.tobytes())
            return real(problem, block, **kw)

        monkeypatch.setattr(synth, "_closed_loops", counting)
        return prob, kb, passes

    def test_gradient_reuses_forward_pass(self, setup):
        prob, kb, passes = setup
        freqs = surrogate_grid(prob, 40)
        ev = synth._FastEvaluator(prob, freqs)
        first = ev.evaluate(kb)
        assert ev.evaluate(kb) is first
        info = ev.evaluate(kb, gradient=True)
        assert len(passes) == 1
        # needle frequencies are sampled, so their passes are reused too
        assert info.sigmas.size > 2 * prob.m * ev.freqs.size
        assert_same_info(info, synth._FastEvaluator(prob, freqs).evaluate(kb, gradient=True))
        assert ev.evaluate(kb) is info
        assert len(passes) == 2  # the second is the fresh evaluator's

    def test_other_block_misses(self, setup):
        prob, kb, passes = setup
        freqs = surrogate_grid(prob, 40)
        ev = synth._FastEvaluator(prob, freqs)
        ev.evaluate(kb, gradient=True)
        other = kb.with_free_values(kb.free_values() * 1.01)
        info = ev.evaluate(other, gradient=True)
        assert len(passes) == 2
        assert not np.array_equal(info.sigmas, ev.evaluate(kb).sigmas)
        assert_same_info(
            ev.evaluate(other, gradient=True),
            synth._FastEvaluator(prob, freqs).evaluate(other, gradient=True),
        )

    def test_new_frequencies_clear_it(self, setup):
        prob, kb, passes = setup
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))
        before = ev.evaluate(kb).sigmas.size
        assert ev.add_frequencies([0.37])
        assert ev.evaluate(kb).sigmas.size > before
        assert len(passes) == 2


class TestFixedGridBound:
    """The soft-max over the fixed grid alone bounds penalized's value from
    below, and a line-search trial that it rejects closes no loops."""

    @staticmethod
    def visited_blocks(prob, kb0):
        """The blocks a short descent from kb0 scores, then kb0 perturbed."""
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 160))
        seen = []
        real = ev.penalized

        def spy(kb, *args, **kw):
            seen.append(kb)
            return real(kb, *args, **kw)

        ev.penalized = spy
        synth._descend(ev, kb0, kb0.free_values(), [], 0.0, 0, 3, len(_TAU_SCHEDULE))
        rng = np.random.default_rng(7)
        theta0 = kb0.free_values()
        seen += [
            kb0.with_free_values(theta0 + 0.05 * rng.normal(size=theta0.size))
            for _ in range(3)
        ]
        return ev.freqs, seen

    @pytest.mark.parametrize("name", ["beam", "building"])
    def test_never_above_the_value(self, name):
        prob, kb0 = bundled_problem(name)
        freqs, blocks = self.visited_blocks(prob, kb0)
        equal = needle_max = 0
        for kb in blocks:
            ev = synth._FastEvaluator(prob, freqs)
            info = ev.evaluate(kb)
            fixed_max = ev._latest.sigmas.max() if info.stable else None
            for tau in _TAU_SCHEDULE:
                lower, value = ev.lower_bound(kb, tau), ev.penalized(kb, tau)[0]
                assert lower <= value
                if not info.stable:
                    continue
                # a trial whose value meets its threshold exactly is not rejected
                assert ev.penalized(kb, tau, bound=value)[1] is info
                if info.sigmas.size == 2 * prob.m * freqs.size:  # no needles
                    assert lower == value
                    equal += 1
                elif info.grid_max > fixed_max:  # a needle sets the maximum
                    assert lower < value
                    needle_max += 1
        # the beam's needles set the maximum, and the building's start and
        # perturbed blocks have none
        assert needle_max > 0 if name == "beam" else equal > 0

    def test_rejected_trial_closes_no_loops(self, monkeypatch):
        prob, kb = stabilizing_start()
        counts = dict.fromkeys(["instantiate_stack", "_channel_gains", "_closed_loops"], 0)
        for fn in counts:
            def counting(*args, _fn=fn, _real=getattr(synth, fn), **kw):
                counts[_fn] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(synth, fn, counting)
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))
        lower = ev.lower_bound(kb, 0.01)
        value, info, grad = ev.penalized(kb, 0.01, bound=0.5 * lower)
        assert (value, info, grad) == (lower, None, None)
        assert counts == {"instantiate_stack": 1, "_channel_gains": 1, "_closed_loops": 0}
        # a trial that passes reuses the fixed-grid pass: its loops, then one
        # more gain pass for the needles
        value, info, _ = ev.penalized(kb, 0.01, bound=2.0 * lower)
        assert info.stable and info.sigmas.size > 2 * prob.m * ev.freqs.size
        assert counts == {"instantiate_stack": 1, "_channel_gains": 2, "_closed_loops": 1}
        monkeypatch.undo()
        fresh = synth._FastEvaluator(prob, ev.freqs)
        assert value == fresh.penalized(kb, 0.01)[0] > lower
        assert_same_info(
            ev.evaluate(kb, gradient=True), fresh.evaluate(kb, gradient=True)
        )

    def test_no_rejection_without_a_bound(self, monkeypatch):
        """An ill-posed parameter loop, or a fixed-grid pass that fails to
        solve, gives no bound: the trial takes the full pass."""
        st = StructureOptions(0, 1, dependency="rational")
        prob = SynthesisProblem(
            (oscillator_plant(1.0), oscillator_plant(2.0)), (1.0, 2.0),
            static_gain([[0.0]]), st,
        )
        # d_zw = 0.5: the parameter loop is singular at rho = 2
        kb = ControllerBlock(0, 1, 1, 1, [[0.5, 0.0], [0.0, 0.0]], build_mask(st, 1, 1))
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))
        assert ev.lower_bound(kb, 0.01) == -np.inf
        value, info, _ = ev.penalized(kb, 0.01, bound=-1.0)
        assert value == np.inf and info is not None and not info.stable

        prob, kb = stabilizing_start()
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(synth, "_channel_gains", singular)
        assert ev.lower_bound(kb, 0.01) == -np.inf
        value, info, _ = ev.penalized(kb, 0.01, bound=-1.0)
        assert value == np.inf and info is not None and not info.stable
        assert info.max_abscissa < 0.0  # stable loops: the solve failed

    def test_same_descent_with_and_without_rejection(self, monkeypatch):
        """Two restarts with a refinement round, which enriches the grid, are
        the same bit for bit when penalized drops every bound; the plain run
        closes fewer blocks."""
        prob, kb = bundled_problem("building")
        opts = OptimizeOptions(max_iter=12, restarts=2, refine_rounds=1)
        enriched = []
        real_add = synth._FastEvaluator.add_frequencies

        def add(ev, omegas):
            enriched.append(real_add(ev, omegas))
            return enriched[-1]

        monkeypatch.setattr(synth._FastEvaluator, "add_frequencies", add)

        def run():
            passes, _ = spy_passes(monkeypatch)
            res = optimize(prob, kb, opts)
            return res, sum(isinstance(p, bytes) for p in passes)

        plain, closed = run()
        real = synth._FastEvaluator.penalized
        monkeypatch.setattr(
            synth._FastEvaluator, "penalized",
            lambda ev, block, tau, gradient=False, bound=None: real(ev, block, tau, gradient),
        )
        full, closed_full = run()
        assert True in enriched
        assert plain.controller.k.tobytes() == full.controller.k.tobytes()
        assert plain.gamma == full.gamma and plain.status == full.status
        assert plain.per_point_norms == full.per_point_norms
        assert [row[:4] for row in plain.trace] == [row[:4] for row in full.trace]
        assert closed < closed_full


class TestWorkCounts:
    def test_each_point_evaluated_once(self, monkeypatch):
        """Two certificates (start and final) and one surrogate forward pass
        per point."""
        prob, kb = stabilizing_start()
        certs, passes = [], []
        real_certify, real_forward = synth._certify, synth._FastEvaluator._forward

        def certify(problem, block, rel_tol):
            certs.append(rel_tol)
            return real_certify(problem, block, rel_tol)

        def forward(evaluator, block, record):
            passes.append(block.k.tobytes())
            return real_forward(evaluator, block, record)

        monkeypatch.setattr(synth, "_certify", certify)
        monkeypatch.setattr(synth._FastEvaluator, "_forward", forward)
        opts = OptimizeOptions(max_iter=10, restarts=1, refine_rounds=0)
        res = optimize(prob, kb, opts)
        assert len(res.trace) > 2  # the descent accepted steps
        assert certs == [opts.certify_rel_tol] * 2
        assert len(passes) > 1 and len(set(passes)) == len(passes)

    @pytest.mark.parametrize(
        "name, max_iter, restarts, refine_rounds, outcomes, rounds",
        [
            ("beam", 20, 1, 2, [False], 1),
            ("building", 40, 1, 2, [True], 2),
            ("building", 10, 2, 0, [True], 2),
        ],
        ids=["beam", "building", "building-two-starts"],
    )
    def test_one_whole_grid_certificate_per_round(
        self, monkeypatch, name, max_iter, restarts, refine_rounds, outcomes, rounds
    ):
        """Each round's block is certified once, over the whole grid at
        certify_rel_tol, and the design set's part of that certificate
        decides the shared grid's enrichment while the start has a round
        left or a later start follows: the beam's first round is not
        enriched and ends the start, the building's is and goes on, and with
        no round left the first of two starts enriches the grid for the
        second, whose last round refines nothing."""
        prob, kb = bundled_problem(name)
        opts = OptimizeOptions(max_iter=max_iter, restarts=restarts, refine_rounds=refine_rounds)
        certs, refined = [], []
        real_certify, real_refine = synth._certify, synth._FastEvaluator.refine

        def certify(problem, block, rel_tol):
            cert = real_certify(problem, block, rel_tol)
            certs.append((problem.m, rel_tol, block.k.tobytes(), cert))
            return cert

        def refine(evaluator, block, gamma, peaks):
            out = real_refine(evaluator, block, gamma, peaks)
            refined.append((block.k.tobytes(), gamma, tuple(peaks), out))
            return out

        monkeypatch.setattr(synth, "_certify", certify)
        monkeypatch.setattr(synth._FastEvaluator, "refine", refine)
        optimize(prob, kb, opts)
        assert [(m, tol) for m, tol, _, _ in certs] == [(prob.m, opts.certify_rel_tol)] * len(certs)
        assert len({key for _, _, key, _ in certs}) == len(certs)  # no block twice
        assert [out for *_, out in refined] == outcomes
        assert len(certs) == 1 + rounds  # the initial block's, then one per round
        points = list(synth._design_points(prob.grid))
        kept = {key: cert for _, _, key, cert in certs}
        for key, gamma, peaks, _ in refined:
            cert = kept[key]
            assert gamma == max(cert.per_point[p] for p in points)
            assert peaks == tuple(np.reshape(cert.peaks, (-1, 2))[points].ravel())


class TestDesignSet:
    """optimize descends on the grid's ends and middle value, and certifies
    every candidate over the whole grid, where a point outside the set that
    exceeds the set's value joins it."""

    def test_ends_and_middle(self):
        assert synth._design_points((1.0, 2.0)) == (0, 1)
        assert synth._design_points((1.0, 2.0, 3.0)) == (0, 1, 2)
        assert synth._design_points((1.0, 2.0, 3.0, 4.0)) == (0, 2, 3)
        assert synth._design_points((1.0, 2.0, 3.0, 4.0, 5.0)) == (0, 2, 4)
        # the ends are the extreme values, the middle is index len // 2
        assert synth._design_points((3.0, 1.0, 2.0, 5.0, 4.0)) == (1, 2, 3)

    def test_worst_outside(self):
        values = (1.0, 3.0, 2.0, np.inf, 1.5)
        assert synth._worst_outside(values, (0, 2, 4), 1e-6) == 3  # unstable
        assert synth._worst_outside(values, (0, 2, 3), 1e-6) is None  # nothing exceeds inf
        assert synth._worst_outside(values, (0, 1, 2, 3, 4), 1e-6) is None
        assert synth._worst_outside((1.0, 3.0, 2.0, 4.0, 1.5), (0, 2, 4), 1e-6) == 3
        assert synth._worst_outside((1.0, 3.0, 2.0, 4.0, 1.5), (0, 2, 3), 1e-6) is None
        # within the tolerance of the set's value, a point stays out
        assert synth._worst_outside((1.0, 1.0 + 1e-7, 1.0), (0, 2), 1e-6) is None

    @pytest.mark.parametrize("name", ["beam", "building"])
    def test_subgrid_is_the_problem_on_those_points(self, name):
        prob, kb = bundled_problem(name)
        points = (0, 2, 4)
        view = prob.subgrid(points)
        assert view.grid == tuple(prob.grid[j] for j in points) and view.m == 3
        assert prob.subgrid(range(prob.m)) is prob
        full = synth._certify(prob, kb, 1e-6)
        part = synth._certify(view, kb, 1e-6)
        assert part.per_point == tuple(full.per_point[j] for j in points)

    @staticmethod
    def interior_peak():
        """Five oscillator points under a weight that peaks at the second,
        outside the first design set."""
        grid = (1.0, 1.5, 2.0, 2.5, 3.0)
        weights = tuple(static_gain([[g]]) for g in (0.02, 0.2, 0.02, 0.02, 0.02))
        st = StructureOptions(1, 1, dependency="affine")
        return SynthesisProblem(tuple(oscillator_plant(r) for r in grid), grid, weights, st)

    def test_interior_peak_joins_the_set(self, monkeypatch):
        """A weight that peaks at the second of five grid values, outside
        the first design set: the global check adds that point, and the
        result is the certificate of the returned controller on the whole
        grid, bit for bit."""
        prob = self.interior_peak()
        opts = OptimizeOptions(max_iter=40, restarts=2, refine_rounds=1)
        kb0 = init_from_nominal(prob, 2, opts)
        designs, budgets = [], []
        real_subgrid, real_descend = SynthesisProblem.subgrid, synth._descend

        def subgrid(problem, points):
            designs.append(tuple(points))
            return real_subgrid(problem, points)

        def descend(evaluator, kb_template, theta0, trace, t_start, done, budget, phases):
            out = real_descend(evaluator, kb_template, theta0, trace, t_start, done, budget, phases)
            budgets.append((evaluator.problem.m, done, budget, out[2]))
            return out

        monkeypatch.setattr(SynthesisProblem, "subgrid", subgrid)
        monkeypatch.setattr(synth, "_descend", descend)
        res = optimize(prob, kb0, opts)
        assert designs == [(0, 2, 4), (0, 1, 2, 4)]
        # the first start's descent continues on four points with what it left
        (m0, d0, b0, used0), (m1, d1, b1, _) = budgets[:2]
        assert (m0, b0, m1, b1) == (3, opts.max_iter, 4, opts.max_iter - used0)
        assert (d0, d1) == (0, used0)
        assert all(b == opts.max_iter for _, _, b, _ in budgets[2:])
        tol = opts.certify_rel_tol
        for cert in (synth._certify(prob, res.controller, tol),
                     synth._certify(self.interior_peak(), res.controller, tol)):
            assert res.gamma == cert.gamma
            assert res.per_point_norms == cert.per_point
            assert res.per_point_perf_norms == cert.perf
            assert res.per_point_wk_norms == cert.wk
        assert res.gamma <= objective(prob, kb0, tol).value

    def test_trace_numbers_iterations_across_joins(self, monkeypatch):
        """The winning start's trace runs on through the join that its
        descent continues after: its rows are numbered by the start's
        iterations, with one row 0, and its values never rise."""
        prob = self.interior_peak()
        opts = OptimizeOptions(max_iter=40, restarts=1, refine_rounds=1)
        kb0 = init_from_nominal(prob, 2, opts)
        designs, real_subgrid = [], SynthesisProblem.subgrid

        def subgrid(problem, points):
            designs.append(tuple(points))
            return real_subgrid(problem, points)

        monkeypatch.setattr(SynthesisProblem, "subgrid", subgrid)
        res = optimize(prob, kb0, opts)
        assert designs == [(0, 2, 4), (0, 1, 2, 4)]
        iters = [row.iteration for row in res.trace]
        assert iters[0] == 0 and all(a < b for a, b in zip(iters, iters[1:]))
        objs = [row.objective for row in res.trace]
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    def test_ill_posed_outside_point_joins_the_set(self, monkeypatch):
        """A block whose loop is ill posed at a grid point outside the set
        is no candidate: that point joins the set, and the descent goes on
        from the block stabilized there."""
        grid = (1.0, 1.5, 2.0, 2.5, 3.0)
        st = StructureOptions(1, 1, dependency="affine")
        prob = SynthesisProblem(
            tuple(oscillator_plant(r) for r in grid), grid, static_gain([[0.02]]), st,
        )
        opts = OptimizeOptions(max_iter=20, restarts=1, refine_rounds=0)
        kb0 = init_from_nominal(prob, 2, opts)
        designs, blocks = [], []
        real_certify, real_subgrid = synth._certify, SynthesisProblem.subgrid

        def certify(problem, block, rel_tol):
            if problem.m == 5 and rel_tol == opts.certify_rel_tol:
                blocks.append(block)
                if len(blocks) == 2:  # the descent's first block
                    raise IllPosedLFTError("ill posed at rho = 1.5", grid_index=1)
            return real_certify(problem, block, rel_tol)

        def subgrid(problem, points):
            designs.append(tuple(points))
            return real_subgrid(problem, points)

        monkeypatch.setattr(synth, "_certify", certify)
        monkeypatch.setattr(SynthesisProblem, "subgrid", subgrid)
        res = optimize(prob, kb0, opts)
        assert designs == [(0, 2, 4), (0, 1, 2, 4)]
        assert len(blocks) == 3  # the start's, the ill-posed one, the continued descent's
        cert = real_certify(prob, res.controller, opts.certify_rel_tol)
        assert res.gamma == cert.gamma and res.per_point_norms == cert.per_point

    def test_bundled_building_counts(self, monkeypatch):
        """At the benchmark's building budget the parametric descent's
        stacked passes run over the three design points, and its
        certificates over all five."""
        cfg = cli.parse_config(str(BUNDLED / "building.cfg"))
        prob = cli.build_problem(cfg)[1]
        opts = replace(cli.make_options(cfg), max_iter=4, refine_rounds=0)
        kb0 = init_from_nominal(prob, cfg.opt_nominal_index, opts)
        certs, closes, gains, stabilized = [], [], [], []
        real_certify, real_close = synth._certify, synth.closed_loop_matrices
        real_gains, real_stabilize = synth._channel_gains, synth.stabilize

        def certify(problem, block, rel_tol):
            certs.append((problem.m, rel_tol))
            return real_certify(problem, block, rel_tol)

        def close(plant, ctrl):
            closes.append(ctrl.a.shape[-3])
            return real_close(plant, ctrl)

        def channel_gains(kernel, freqs, blocks, wk_resp):
            gains.append(blocks[0].shape[0])
            return real_gains(kernel, freqs, blocks, wk_resp)

        def stabilize_spy(problem, block, seed=0):
            stabilized.append(problem.m)
            return real_stabilize(problem, block, seed)

        monkeypatch.setattr(synth, "_certify", certify)
        monkeypatch.setattr(synth, "closed_loop_matrices", close)
        monkeypatch.setattr(synth, "_channel_gains", channel_gains)
        monkeypatch.setattr(synth, "stabilize", stabilize_spy)
        res = optimize(prob, kb0, opts)
        assert certs == [(5, opts.certify_rel_tol)] * 2  # the start's and the descent's
        assert stabilized == [5, 3]  # the start over the grid, the descent's on the set
        assert len(gains) > 2 and set(gains) == {3}
        # the two certificates close over five points, every other pass over three
        assert closes.count(5) == 2 and closes.count(3) == len(closes) - 2 > 2
        assert len(res.per_point_norms) == 5 and res.gamma == max(res.per_point_norms)


class TestClosedLoops:
    """Certification, the surrogate and stabilization share one decision on
    stability and well-posedness."""

    def test_unstable_controller_fails_both_evaluations(self):
        # closed-loop poles -0.25 +- 1.56j, but the controller pole is +0.5
        st = StructureOptions(1, 0)
        prob = single_problem(st, wk_gain=1.0)
        kb = ControllerBlock(1, 0, 1, 1, [[0.5, 1.0], [-3.0, 0.0]], build_mask(st, 1, 1))
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))
        value, info, _ = ev.penalized(kb, 0.01)
        cert = synth._certify(prob, kb, 1e-6)
        assert not info.stable and not objective(prob, kb).stable
        # the descent and the certificate both score the block infinite; the
        # stable closed loop keeps its norm, the unstable controller's is inf
        assert value == cert.gamma == objective(prob, kb).value == np.inf
        assert np.isfinite(cert.perf[0]) and cert.wk[0] == np.inf
        loops = synth._closed_loops(prob, kb)
        assert loops.poles[0].real.max() == pytest.approx(-0.25)
        assert loops.abscissa[0] == info.max_abscissa == cert.max_abscissa == 0.5

    @pytest.mark.parametrize("loop", ["parameter", "feedback"])
    def test_ill_posed_loop_scores_inf(self, loop):
        if loop == "parameter":
            st = StructureOptions(0, 1, dependency="rational")
            prob = SynthesisProblem(
                (oscillator_plant(1.0), oscillator_plant(2.0)), (1.0, 2.0),
                static_gain([[0.0]]), st,
            )
            k = [[0.5, 0.0], [0.0, 0.0]]  # d_zw: loop singular at rho = 2
        else:
            # y = x + u closed with u = y: the loop I - dk d22 is singular
            plant = PartitionedSystem(
                StateSpace([[-1.0]], [[1.0, 1.0]], [[1.0], [1.0]],
                           [[0.0, 0.0], [0.0, 1.0]]),
                (1, 1),
                (1, 1),
            )
            st = StructureOptions(0, 0)
            prob = single_problem(st, plant=plant)
            k = [[1.0]]
        kb = ControllerBlock(0, st.n_delta, 1, 1, k, build_mask(st, 1, 1))
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))
        value, info, grad = ev.penalized(kb, 0.01, gradient=True)
        assert value == np.inf and not info.stable
        assert np.array_equal(grad, np.zeros(grad.size))
        loops = synth._closed_loops(prob, kb)
        assert loops.well_posed.tolist() == [True] * (prob.m - 1) + [False]
        assert loops.abscissa[-1] == np.inf
        with pytest.raises(IllPosedLFTError) as err:
            synth._certify(prob, kb, 1e-6)
        assert err.value.grid_index == prob.m - 1
        assert objective(prob, stabilize(prob, kb)).stable

    def test_first_ill_posed_point_is_reported(self):
        """Point 0 fails the feedback loop and point 1 the parameter loop:
        the mask flags both, and the certificate's error names point 0, as a
        point-by-point pass would."""

        def plant(d22):
            return PartitionedSystem(
                StateSpace([[-1.0]], [[1.0, 1.0]], [[1.0], [1.0]],
                           [[0.0, 0.0], [0.0, d22]]),
                (1, 1),
                (1, 1),
            )

        st = StructureOptions(0, 1, dependency="rational")
        prob = SynthesisProblem(
            (plant(1.0), plant(0.0)), (1.0, 2.0), static_gain([[0.0]]), st
        )
        # d_zw = 0.5: parameter loop singular at rho = 2; d_yu = 1 closes
        # u = y against d22 = 1 at rho = 1
        kb = ControllerBlock(0, 1, 1, 1, [[0.5, 0.0], [0.0, 1.0]], build_mask(st, 1, 1))
        assert synth._closed_loops(prob, kb).well_posed.tolist() == [False, False]
        with pytest.raises(IllPosedLFTError, match="feedback") as err:
            synth._certify(prob, kb, 1e-6)
        assert err.value.grid_index == 0
        # without the feedback failure the parameter loop at point 1 is named
        prob = SynthesisProblem(
            (plant(0.0), plant(0.0)), (1.0, 2.0), static_gain([[0.0]]), st
        )
        assert synth._closed_loops(prob, kb).well_posed.tolist() == [True, False]
        with pytest.raises(IllPosedLFTError, match=r"parametric controller at rho = 2\.0") as err:
            objective(prob, kb)
        assert err.value.grid_index == 1


class TestOverflowingBlocks:
    """A block whose matrices overflow is ill posed at those points."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e155, 1e200])
    def test_scores_inf_and_certificate_raises(self, value):
        prob, kb = bundled_problem("building")
        kb = kb.with_free_values(np.full(count_free_params(kb), value))
        ev = synth._FastEvaluator(prob, surrogate_grid(prob, 40))
        score, info, grad = ev.penalized(kb, 0.01, gradient=True)
        assert score == np.inf and not info.stable and not grad.any()
        loops = synth._closed_loops(prob, kb)
        assert not loops.well_posed.any() and (loops.abscissa == np.inf).all()
        for certificate in (lambda: synth._certify(prob, kb, 1e-6), lambda: objective(prob, kb)):
            with pytest.raises(IllPosedLFTError, match="not finite") as err:
                certificate()
            assert err.value.grid_index == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_other_points_keep_their_poles(self):
        """At rho = 2 the block overflows; the point at rho = 0 gets the
        poles it gets alone."""
        st = StructureOptions(1, 1, dependency="affine")
        prob = SynthesisProblem(
            (scalar_plant(), scalar_plant()), (0.0, 2.0), static_gain([[0.0]]), st
        )
        mask = build_mask(st, 1, 1)
        kb = ControllerBlock(1, 1, 1, 1, np.where(mask == MASK_ZERO, 0.0, 1e200), mask)
        loops = synth._closed_loops(prob, kb)
        assert loops.well_posed.tolist() == [True, False]
        assert loops.abscissa[1] == np.inf
        alone = synth._closed_loops(point_problem(prob, 0), kb)
        assert np.array_equal(loops.poles[0], alone.poles[0])
        assert loops.abscissa[0] == alone.abscissa[0]


def softened_abscissa(problem, kb):
    """Stabilization's value over the free entries of ``kb``, one
    _closed_loops pass per block: infinite where the mask flags a point of
    the block ill posed."""

    def fun(theta):
        loops = synth._closed_loops(problem, kb.with_free_values(theta))
        if not loops.well_posed.all():
            return np.inf
        absc = loops.abscissa
        return synth._soft_max(absc, 1e-2 * (1.0 + abs(float(absc.max()))))[0]

    return fun


def nominal_zero_block(name):
    """The one-point, n_delta = 0 problem that init_from_nominal stabilizes
    first for a bundled config, and its zero start block."""
    cfg = cli.parse_config(str(BUNDLED / f"{name}.cfg"))
    prob = cli.build_problem(cfg)[1]
    j = cfg.opt_nominal_index
    st = replace(prob.structure, n_delta=0)
    nominal = SynthesisProblem((prob.plants[j],), (prob.grid[j],), (prob.wk_list[j],), st)
    return nominal, zero_block(st.n_k, 0, prob.n_u, prob.n_y, build_mask(st, prob.n_u, prob.n_y))


def ill_posed_probe_block():
    """Two-point rational problem and a block whose d_zw[0, 0] sits one
    difference step below 1/rho at rho = 2, so that its upward probe closes
    a singular parameter loop; returns the problem, the block and the
    index of that entry among the free ones."""
    grid = (1.0, 2.0)
    st = StructureOptions(1, 2, dependency="rational")
    prob = SynthesisProblem(
        tuple(oscillator_plant(r) for r in grid), grid, static_gain([[0.1]]), st
    )
    rng = np.random.default_rng(7)
    k = 0.3 * rng.normal(size=(4, 4))
    k[0, 0] = 0.4  # an unstable controller pole
    # d_zw = diag(d, 0.25) with d + 1e-6 (1 + d) = 1/2
    k[1:3, 1:3] = [[(0.5 - 1e-6) / (1.0 + 1e-6), 0.0], [0.0, 0.25]]
    kb = ControllerBlock(1, 2, 1, 1, k, build_mask(st, 1, 1))
    return prob, kb, 5  # row 1, column 1 of an all-free 4 x 4 block


def spy_passes(monkeypatch):
    """Record every closing pass that _closed_loops runs (one
    lft.closed_loop_matrices call), as the number of stacked probe blocks
    or, for one block, the bytes of its instantiated controllers, and each
    gradient's passes."""
    passes, gradients = [], []
    real_close, real_gradient = synth.closed_loop_matrices, synth._abscissa_gradient

    def spy(plant, ctrl):
        probes = ctrl.a.ndim == 4  # (B, M, n_k, n_k)
        passes.append(len(ctrl.a) if probes else b"".join(m.tobytes() for m in ctrl))
        return real_close(plant, ctrl)

    def gradient(*args):
        before = len(passes)
        g = real_gradient(*args)
        gradients.append(passes[before:])
        return g

    monkeypatch.setattr(synth, "closed_loop_matrices", spy)
    monkeypatch.setattr(synth, "_abscissa_gradient", gradient)
    return passes, gradients


class TestStabilizationGradient:
    """Stabilization's gradient, one stacked pass over all probe blocks,
    against central differences one probe block at a time."""

    def assert_matches_oracle(self, prob, kb):
        theta = kb.free_values()
        fun = softened_abscissa(prob, kb)
        f0 = fun(theta)
        grad = synth._abscissa_gradient(prob, kb, theta, f0)
        assert np.array_equal(grad, fd_gradient(fun, theta, f0))
        return grad

    def test_zero_nominal_block(self):
        """The building's nominal start: every controller pole sits at 0."""
        prob, kb = nominal_zero_block("building")
        loops = synth._closed_loops(prob, kb)
        assert np.count_nonzero(np.linalg.eigvals(loops.ctrl.a) == 0.0) == kb.n_k >= 2
        assert np.any(self.assert_matches_oracle(prob, kb) != 0.0)

    @pytest.mark.parametrize("name", ["beam", "building"])
    def test_unstable_parametric_block(self, name):
        prob, kb = bundled_problem(name)
        theta = kb.free_values()
        kb = kb.with_free_values(theta + np.random.default_rng(1).normal(0.0, 1.0, theta.size))
        absc = synth._closed_loops(prob, kb).abscissa
        assert kb.n_delta > 0 and absc.max() > 0.0 and np.unique(absc).size == prob.m
        self.assert_matches_oracle(prob, kb)

    def test_ill_posed_probe(self, monkeypatch):
        """An ill-posed probe scores infinite within the gradient's one
        stacked pass."""
        prob, kb, i = ill_posed_probe_block()
        _, gradients = spy_passes(monkeypatch)
        theta = kb.free_values()
        fun = softened_abscissa(prob, kb)
        up, dn = theta.copy(), theta.copy()
        up[i] += 1e-6 * (1.0 + abs(theta[i]))
        dn[i] -= 1e-6 * (1.0 + abs(theta[i]))
        assert fun(up) == np.inf and np.isfinite(fun(dn)) and np.isfinite(fun(theta))
        grad = self.assert_matches_oracle(prob, kb)
        assert np.isfinite(grad).all()
        assert gradients == [[2 * theta.size]]

    def test_one_stacked_pass_per_gradient(self, monkeypatch):
        """Each gradient is one stacked pass over its 2n probe blocks, and
        no single block is closed twice in a row."""
        prob, kb = nominal_zero_block("building")
        passes, gradients = spy_passes(monkeypatch)
        stabilize(prob, kb)
        n = kb.free_values().size
        assert gradients and all(g == [2 * n] for g in gradients)
        assert sum(isinstance(p, int) for p in passes) == len(gradients)
        singles = [p for p in passes if isinstance(p, bytes)]
        assert all(a != b for a, b in zip(singles, singles[1:]))


class TestLatestLoops:
    """The problem keeps its latest block's loops, so that the surrogate, the
    certificate and stabilization close each block once."""

    def test_optimize_closes_no_block_twice_in_a_row(self, monkeypatch):
        prob, kb = stabilizing_start()
        passes, _ = spy_passes(monkeypatch)
        optimize(prob, kb, OptimizeOptions(max_iter=10, restarts=1, refine_rounds=0))
        singles = [p for p in passes if isinstance(p, bytes)]
        assert len(singles) > 2
        assert all(a != b for a, b in zip(singles, singles[1:]))

    def test_same_block_returns_the_kept_loops(self):
        prob, kb = stabilizing_start()
        loops = synth._closed_loops(prob, kb)
        assert synth._closed_loops(prob, kb.with_free_values(kb.free_values())) is loops
        other = kb.with_free_values(kb.free_values() * 1.01)
        kept = synth._closed_loops(prob, other)
        assert kept is not loops
        synth._closed_loops(prob, kb, kb.free_values()[None])  # a probe stack is not kept
        assert synth._closed_loops(prob, other) is kept

    def test_same_bytes_other_split(self):
        """Two zero blocks of one size, split differently between n_k and
        n_delta, have the same bytes but their own loops."""
        prob, _ = stabilizing_start()
        one, two = zero_block(1, 1, 1, 1), zero_block(2, 0, 1, 1)
        assert one.k.tobytes() == two.k.tobytes() and one.k.shape == two.k.shape
        for kb in (one, two, one):
            loops = synth._closed_loops(prob, kb)
            assert loops.ctrl.a.shape[-1] == kb.n_k
            fresh = synth._closed_loops(stabilizing_start()[0], kb)
            for got, want in zip(loops.closed + loops.ctrl, fresh.closed + fresh.ctrl):
                assert np.array_equal(got, want)


class TestCampaigns:
    def test_beam_zero_init_stabilizes(self):
        from lfsynth.models import BeamSpec, beam_generalized_plant, timoshenko_beam
        from lfsynth.statespace import spectral_abscissa
        from lfsynth.lft import lower_lft_ss

        plant = beam_generalized_plant(
            timoshenko_beam(BeamSpec(length=15.0, n_elements=2))
        )
        st = StructureOptions(2, 0)
        prob = SynthesisProblem((plant,), (15.0,), static_gain([[0.0]]), st)
        kb0 = zero_block(2, 0, 1, 1, build_mask(st, 1, 1))
        out = stabilize(prob, kb0)
        closed = lower_lft_ss(plant, eval_controller(out, 15.0))
        assert spectral_abscissa(closed) < 0.0

    def test_options_validation(self):
        with pytest.raises(DomainError):
            OptimizeOptions(max_iter=0)
        with pytest.raises(DomainError):
            OptimizeOptions(restarts=0)
        with pytest.raises(DomainError, match="nonnegative"):
            OptimizeOptions(seed=-1)
        # no rounds would run no descent phase and report the start converged
        with pytest.raises(DomainError, match="nonnegative"):
            OptimizeOptions(refine_rounds=-1)
        assert OptimizeOptions(seed=0, refine_rounds=0).refine_rounds == 0


class TestSurrogateGrid:
    def test_contains_resonances(self):
        prob = SynthesisProblem(
            (oscillator_plant(4.0),), (4.0,), static_gain([[0.0]]),
            StructureOptions(1, 0),
        )
        freqs = surrogate_grid(prob, 50)
        res = np.sqrt(4.0 - 0.04)  # imaginary part of the oscillator poles
        assert np.min(np.abs(freqs - res)) < 1e-9

    def test_sorted_with_dc_sample(self, rng):
        prob = SynthesisProblem(
            (random_partitioned(rng, 4, 1, 1, 1, 1),), (0.0,),
            static_gain([[0.0]]), StructureOptions(1, 0),
        )
        freqs = surrogate_grid(prob)
        assert freqs[0] == 0.0  # slow closed-loop poles peak toward DC
        assert np.all(np.diff(freqs) > 0.0)
