import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsynth.errors import DimensionError, DomainError, IllPosedLFTError, ParseError
from lfsynth.lft import (
    LFT_COND_LIMIT,
    MASK_FREE,
    MASK_FROZEN,
    MASK_ZERO,
    ControllerBlock,
    closed_loop_matrices,
    count_free_params,
    eval_controller,
    eval_controller_matrices,
    instantiate_stack,
    instantiation_factors,
    load_controller,
    lower_lft_ss,
    save_controller,
    stack_plants,
    _well_posed,
    zero_block,
)
from lfsynth.statespace import PartitionedSystem, StateSpace, frequency_gain, static_gain

from conftest import random_block, random_partitioned, random_stable_ss, upper_lft_matrix


def lower_lft_matrix(m, k, n_u, n_y):
    """Frequency-wise oracle of the state-space closure: closes the trailing
    ``n_u`` inputs / ``n_y`` outputs of ``m`` with ``k``, giving
    ``m11 + m12 k (I - m22 k)^-1 m21``."""
    r = m.shape[0] - n_y
    c = m.shape[1] - n_u
    m11, m12, m21, m22 = m[:r, :c], m[:r, c:], m[r:, :c], m[r:, c:]
    return m11 + m12 @ (k @ np.linalg.solve(np.eye(n_y) - m22 @ k, m21))


def close_integrator(kb):
    """Oracle of the controller before instantiation: ``a_k`` driven through
    integrators, inputs [w_delta; y], outputs [z_delta; u]."""
    sys = StateSpace(
        kb.a_k,
        np.hstack([kb.b_w, kb.b_u]),
        np.vstack([kb.c_z, kb.c_y]),
        np.block([[kb.d_zw, kb.d_zu], [kb.d_yw, kb.d_yu]]),
    )
    return PartitionedSystem(sys, (kb.n_delta, kb.n_y), (kb.n_delta, kb.n_u))


class TestControllerBlock:
    def test_block_slices(self, rng):
        kb = random_block(rng, 2, 3, 1, 2)
        assert kb.a_k.shape == (2, 2)
        assert kb.b_w.shape == (2, 3)
        assert kb.b_u.shape == (2, 2)
        assert kb.c_z.shape == (3, 2)
        assert kb.d_zw.shape == (3, 3)
        assert kb.d_zu.shape == (3, 2)
        assert kb.c_y.shape == (1, 2)
        assert kb.d_yw.shape == (1, 3)
        assert kb.d_yu.shape == (1, 2)
        recomposed = np.block(
            [[kb.a_k, kb.b_w, kb.b_u], [kb.c_z, kb.d_zw, kb.d_zu], [kb.c_y, kb.d_yw, kb.d_yu]]
        )
        assert np.array_equal(recomposed, kb.k)

    def test_zero_mask_enforced(self):
        mask = np.full((2, 2), MASK_FREE, dtype=np.int8)
        mask[0, 0] = MASK_ZERO
        k = np.ones((2, 2))
        with pytest.raises(DomainError):
            ControllerBlock(1, 0, 1, 1, k, mask)

    @pytest.mark.parametrize("entry", [3, -1])
    def test_mask_entry_outside_the_codes(self, entry):
        mask = np.full((2, 2), MASK_FREE, dtype=np.int8)
        mask[1, 0] = entry
        with pytest.raises(DomainError, match="mask entries"):
            ControllerBlock(1, 0, 1, 1, np.ones((2, 2)), mask)

    def test_free_value_roundtrip(self, rng):
        kb = random_block(rng, 2, 1, 1, 1)
        theta = kb.free_values()
        assert theta.size == 16
        kb2 = kb.with_free_values(theta * 2.0)
        assert np.allclose(kb2.k, kb.k * 2.0)

    def test_wrong_free_count(self, rng):
        kb = random_block(rng, 1, 1, 1, 1)
        with pytest.raises(DimensionError):
            kb.with_free_values(np.zeros(5))

    def test_free_values_give_the_constructed_block(self, rng):
        """with_free_values skips re-validation, yet gives the block that the
        constructor builds from the same values and mask."""
        mask = rng.integers(MASK_ZERO, MASK_FROZEN + 1, size=(4, 4)).astype(np.int8)
        k = np.where(mask == MASK_ZERO, 0.0, rng.normal(size=(4, 4)))
        kb = ControllerBlock(1, 1, 2, 2, k, mask)
        theta = rng.normal(size=count_free_params(kb))
        got = kb.with_free_values(theta)
        k_new = np.array(k)
        k_new[mask == MASK_FREE] = theta
        want = ControllerBlock(1, 1, 2, 2, k_new, mask)
        assert (got.n_k, got.n_delta, got.n_u, got.n_y) == (1, 1, 2, 2)
        for name in ("k", "mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
        assert np.array_equal(kb.k, k)  # the source block keeps its values

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_free_values(self, rng, bad):
        kb = random_block(rng, 1, 1, 1, 1)
        theta = kb.free_values()
        theta[3] = bad
        with pytest.raises(DomainError, match="non-finite"):
            kb.with_free_values(theta)


# zero, subnormal, huge and infinite entries of a 1x1 algebraic loop
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, np.inf, -np.inf]


class TestWellPosed:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(allow_nan=False)))
    def test_one_by_one_rule_is_the_condition_test(self, x):
        """A 1x1 loop takes no SVD, yet its decision is the condition test's."""
        loop = np.array([[x]])
        ok, out = _well_posed(loop)
        assert bool(ok) == bool(np.linalg.cond(loop) <= LFT_COND_LIMIT)
        assert np.array_equal(out, loop if ok else np.eye(1))

    def test_nan_is_ill_posed(self):
        ok, out = _well_posed(np.array([[np.nan]]))
        assert not ok and np.array_equal(out, np.eye(1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 3])
    def test_non_finite_points_of_a_stack(self, rng, n):
        loops = np.stack([np.eye(n) + 0.1 * rng.normal(size=(n, n)) for _ in range(4)])
        loops[1, 0, 0], loops[2, -1, 0] = np.nan, np.inf
        ok, out = _well_posed(loops)
        assert ok.tolist() == [True, False, False, True]
        assert np.array_equal(out[[0, 3]], loops[[0, 3]])
        assert np.array_equal(out[1], np.eye(n)) and np.array_equal(out[2], np.eye(n))


class TestOverflow:
    """Matrices that overflow make a point ill posed, not a numpy error."""

    @staticmethod
    def affine_block(value):
        # d_zw = 0, so the controller at rho is k's blocks plus rho times products
        mask = np.full((3, 3), MASK_FREE, dtype=np.int8)
        mask[1, 1] = MASK_ZERO
        return ControllerBlock(1, 1, 1, 1, np.where(mask == MASK_ZERO, 0.0, value), mask)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_controller(self):
        kb = self.affine_block(1e200)
        ctrl, ok = instantiate_stack(kb, kb.k, np.array([0.0, 2.0]))
        assert ok.tolist() == [True, False]
        assert np.isfinite(ctrl.a[0]).all() and not np.isfinite(ctrl.a[1]).all()
        eval_controller_matrices(kb, 0.0)
        with pytest.raises(IllPosedLFTError, match=r"rho = 2\.0: not finite"):
            eval_controller_matrices(kb, 2.0)
        scalar = StateSpace([[-1.0]], [[1.0, 1.0]], [[1.0], [1.0]], np.zeros((2, 2)))
        plant = stack_plants([PartitionedSystem(scalar, (1, 1), (1, 1))] * 2)
        assert instantiate_and_close(plant, kb, np.array([0.0, 2.0]))[2].tolist() == [True, False]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_closed_loop(self):
        plant = PartitionedSystem(
            StateSpace([[-1.0]], [[1.0, 1.0]], [[1.0], [1e200]], np.zeros((2, 2))), (1, 1), (1, 1)
        )
        ctrl = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1e200]])
        closed, ok = closed_loop_matrices(plant, ctrl)
        assert not ok and not np.isfinite(closed.a).all()
        with pytest.raises(IllPosedLFTError, match="feedback interconnection: not finite"):
            lower_lft_ss(plant, ctrl)


class TestUpperLft:
    def test_zero_delta_returns_m22(self, rng):
        m = rng.normal(size=(4, 4))
        out = upper_lft_matrix(m, np.zeros((2, 2)))
        assert np.allclose(out, m[2:, 2:])

    def test_zero_m11_degenerates(self, rng):
        m = rng.normal(size=(3, 3))
        m[:1, :1] = 0.0
        delta = np.array([[0.4]])
        out = upper_lft_matrix(m, delta)
        expect = m[1:, 1:] + m[1:, :1] @ delta @ m[:1, 1:]
        assert np.allclose(out, expect)

    def test_hand_value(self):
        m = np.array([[0.5, 1.0], [1.0, 0.0]])
        out = upper_lft_matrix(m, np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(2.0 / 3.0)

    def test_ill_posed(self):
        m = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(IllPosedLFTError):
            upper_lft_matrix(m, np.array([[1.0]]))


class TestLowerLftSs:
    def test_zero_controller_gives_open_loop(self, rng):
        p = random_partitioned(rng, 3, 2, 1, 2, 1)
        closed = lower_lft_ss(p, static_gain(np.zeros((1, 1))))
        sub = p.sys
        for w in (0.1, 1.0, 10.0):
            assert np.allclose(
                frequency_gain(closed, w), frequency_gain(sub, w)[:2, :2], atol=1e-12
            )

    def test_static_output_feedback_formula(self, rng):
        p = random_partitioned(rng, 3, 1, 1, 1, 1, d_scale=0.0)
        kd = np.array([[0.7]])
        closed = lower_lft_ss(p, static_gain(kd))
        b2 = p.sys.b[:, 1:]
        c2 = p.sys.c[1:, :]
        assert np.allclose(closed.a, p.sys.a + b2 @ kd @ c2)

    def test_matches_matrix_lft_frequencywise(self, rng):
        p = random_partitioned(rng, 4, 2, 2, 1, 2)
        k = random_stable_ss(rng, 2, 2, 2, with_d=True)
        closed = lower_lft_ss(p, k)
        assert closed.n == 6
        for w in np.geomspace(0.01, 100.0, 30):
            expect = lower_lft_matrix(
                frequency_gain(p.sys, w), frequency_gain(k, w), 2, 2
            )
            assert np.allclose(frequency_gain(closed, w), expect, atol=1e-8)

    def test_ill_posed_algebraic_loop(self, rng):
        sys = StateSpace(
            [[-1.0]], [[1.0, 1.0]], [[1.0], [0.0]], [[0.0, 0.0], [0.0, 1.0]]
        )
        p = PartitionedSystem(sys, (1, 1), (1, 1))
        with pytest.raises(IllPosedLFTError):
            lower_lft_ss(p, static_gain([[1.0]]))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def instantiate_and_close(plant, kb, rho, k=None):
    """The controllers of ``kb`` (or of the value matrices ``k``) at every
    value of ``rho``, closed against the GridPlant ``plant``, as every
    stacked pass composes them: the controllers, the closed loops and the
    mask of the points whose parameter and feedback loops are well posed."""
    ctrl, instantiated = instantiate_stack(kb, kb.k if k is None else k, rho)
    closed, closed_ok = closed_loop_matrices(plant, ctrl)
    return ctrl, closed, instantiated & closed_ok


class TestStackedGrid:
    """Instantiating and closing a whole grid at once against one point at a
    time."""

    RHOS = (0.5, 0.9, 1.3, 2.0)

    @pytest.mark.parametrize("n_k, n_delta", [(2, 0), (3, 2), (0, 1), (0, 0)])
    def test_matches_per_point_bit_for_bit(self, rng, n_k, n_delta):
        for _ in range(3):
            plants = [random_partitioned(rng, 3, 2, 2, 1, 2) for _ in self.RHOS]
            kb = random_block(rng, n_k, n_delta, 2, 2, well_posed_for=self.RHOS)
            ctrl, closed, well_posed = instantiate_and_close(stack_plants(plants), kb, self.RHOS)
            assert well_posed.shape == (len(self.RHOS),) and well_posed.all()
            assert ctrl.a.shape == (len(self.RHOS), n_k, n_k)
            assert closed.a.shape == (len(self.RHOS), 3 + n_k, 3 + n_k)
            for j, (rho, plant) in enumerate(zip(self.RHOS, plants)):
                one = eval_controller(kb, rho)
                for m in "abcd":
                    assert same_bits(getattr(ctrl, m)[j], getattr(one, m))
                one_closed, ok = closed_loop_matrices(plant, one)
                assert ok
                for m in "abcd":
                    assert same_bits(getattr(closed, m)[j], getattr(one_closed, m))

    @pytest.mark.parametrize("n_k, n_delta", [(2, 0), (3, 2), (0, 1), (0, 0)])
    def test_instantiation_factors_match_per_point_bit_for_bit(self, rng, n_k, n_delta):
        for _ in range(3):
            kb = random_block(rng, n_k, n_delta, 2, 1, well_posed_for=self.RHOS)
            l1, r1 = instantiation_factors(kb, self.RHOS)
            assert l1.shape == (len(self.RHOS), n_k + 2, kb.k.shape[0])
            assert r1.shape == (len(self.RHOS), kb.k.shape[1], n_k + 1)
            for j, rho in enumerate(self.RHOS):
                one_l1, one_r1 = instantiation_factors(kb, rho)
                assert same_bits(l1[j], one_l1) and same_bits(r1[j], one_r1)

    def test_ill_posed_parameter_loop_is_masked(self):
        k = np.zeros((2, 2))
        k[0, 0] = 0.5  # d_zw: loop singular at rho = 2
        kb = ControllerBlock(0, 1, 1, 1, k, np.ones((2, 2), dtype=np.int8))
        _, well_posed = instantiate_stack(kb, kb.k, (1.0, 2.0, 2.0))
        assert well_posed.tolist() == [True, False, False]
        with pytest.raises(IllPosedLFTError, match=r"parametric controller at rho = 2\.0"):
            eval_controller_matrices(kb, 2.0)
        eval_controller_matrices(kb, 1.0)

    def test_ill_posed_feedback_loop_is_masked(self):
        def plant(d22):
            sys = StateSpace(
                [[-1.0]], [[1.0, 1.0]], [[1.0], [1.0]], [[0.0, 0.0], [0.0, d22]]
            )
            return PartitionedSystem(sys, (1, 1), (1, 1))

        kb = ControllerBlock(0, 0, 1, 1, [[1.0]], [[1]])
        plants = [plant(0.0), plant(1.0), plant(1.0)]
        _, closed_ok = closed_loop_matrices(
            stack_plants(plants), instantiate_stack(kb, kb.k, (0.0, 1.0, 2.0))[0]
        )
        assert closed_ok.tolist() == [True, False, False]
        assert instantiate_and_close(stack_plants(plants), kb, (0.0, 1.0, 2.0))[2].tolist() == [
            True, False, False
        ]
        with pytest.raises(IllPosedLFTError, match="feedback"):
            lower_lft_ss(plants[1], eval_controller(kb, 1.0))

    @pytest.mark.parametrize("n_k, n_delta", [(2, 0), (3, 2), (0, 1)])
    def test_stacked_blocks_match_per_block_bit_for_bit(self, rng, n_k, n_delta):
        """Value matrices stacked (B, rows, cols) against each block alone,
        instantiated and closed over the grid."""
        plants = stack_plants([random_partitioned(rng, 3, 2, 2, 1, 2) for _ in self.RHOS])
        blocks = [
            random_block(rng, n_k, n_delta, 2, 2, well_posed_for=self.RHOS) for _ in range(4)
        ]
        ks = np.stack([kb.k for kb in blocks])
        ctrl, closed, well_posed = instantiate_and_close(plants, blocks[0], self.RHOS, ks)
        assert ctrl.a.shape == (4, len(self.RHOS), n_k, n_k)
        assert closed.a.shape == (4, len(self.RHOS), 3 + n_k, 3 + n_k)
        assert well_posed.shape == (4, len(self.RHOS)) and well_posed.all()
        for b, kb in enumerate(blocks):
            one_ctrl, one_closed, _ = instantiate_and_close(plants, kb, self.RHOS)
            for m in "abcd":
                assert same_bits(getattr(ctrl, m)[b], getattr(one_ctrl, m))
                assert same_bits(getattr(closed, m)[b], getattr(one_closed, m))

    def test_stacked_blocks_mask_ill_posed_points(self, rng):
        """Blocks stacked over a grid whose points fail the parameter loop,
        the feedback loop or neither: the mask flags exactly the failing
        points, each well-posed point's matrices are bit for bit its own, and
        the one-point functions raise for each ill-posed one."""
        rhos = (0.5, 1.0, 2.0, 4.0)
        # d22 = 1 at rho = 1: u = y closes a singular feedback loop
        plants = []
        for d22 in (0.2, 1.0, -0.3, 0.4):
            p = random_partitioned(rng, 3, 1, 1, 1, 1)
            d = np.array(p.sys.d)
            d[1, 1] = d22
            plants.append(PartitionedSystem(StateSpace(p.sys.a, p.sys.b, p.sys.c, d),
                                            (1, 1), (1, 1)))
        ks = 0.3 * rng.normal(size=(3, 4, 4))  # n_k = 2, n_delta = 1
        ks[:, 2, 2] = 0.0  # d_zw
        ks[0, 2, 2] = 0.5  # block 0's parameter loop is singular at rho = 2
        ks[1, 2, 3] = ks[1, 3, 2] = 0.0  # block 1: d = d_yu at every rho
        ks[1, 3, 3] = 1.0  # so d d22 = 1 at rho = 1
        ks[2, 2, 2] = 0.25  # block 2: singular at rho = 4, and d_yu = 1 ...
        ks[2, 2, 3] = ks[2, 3, 2] = 0.0
        ks[2, 3, 3] = 1.0  # ... fails the feedback loop at rho = 1 too
        kb = ControllerBlock(2, 1, 1, 1, ks[0], np.ones((4, 4), dtype=np.int8))
        grid = stack_plants(plants)
        ctrl, closed, well_posed = instantiate_and_close(grid, kb, rhos, ks)
        assert well_posed.tolist() == [
            [True, True, False, True],
            [True, False, True, True],
            [True, False, True, False],
        ]
        for b in range(3):
            block = kb.with_k(ks[b])
            for j, (rho, plant) in enumerate(zip(rhos, plants)):
                if not well_posed[b, j]:
                    parametric = rho * ks[b, 2, 2] == 1.0
                    with pytest.raises(IllPosedLFTError,
                                       match="parametric" if parametric else "feedback"):
                        lower_lft_ss(plant, eval_controller(block, rho))
                    continue
                one = eval_controller_matrices(block, rho)
                one_closed = lower_lft_ss(plant, one)
                for m in "abcd":
                    assert same_bits(getattr(ctrl, m)[b, j], getattr(one, m))
                    assert same_bits(getattr(closed, m)[b, j], getattr(one_closed, m))

    def test_stack_rejects_mixed_state_orders(self, rng):
        plants = [random_partitioned(rng, n, 1, 1, 1, 1) for n in (2, 3)]
        with pytest.raises(DimensionError, match="state order"):
            stack_plants(plants)


class TestCloseIntegrator:
    def test_no_delta_reduces_to_plain_realization(self, rng):
        kb = random_block(rng, 2, 0, 1, 1)
        p = close_integrator(kb)
        assert p.input_partition == (0, 1) and p.output_partition == (0, 1)
        assert np.allclose(p.sys.a, kb.a_k)
        assert np.allclose(p.sys.b, kb.b_u)
        assert np.allclose(p.sys.c, kb.c_y)
        assert np.allclose(p.sys.d, kb.d_yu)

    def test_static_block(self, rng):
        kb = random_block(rng, 0, 2, 1, 1)
        p = close_integrator(kb)
        assert p.sys.is_static
        assert np.allclose(p.sys.d[:2, :2], kb.d_zw)

    def test_delta_channel_response(self, rng):
        kb = random_block(rng, 3, 2, 1, 1)
        p = close_integrator(kb)
        for w in (0.2, 1.0, 5.0):
            gain = frequency_gain(p.sys, w)[:2, :2]
            expect = kb.c_z @ np.linalg.solve(
                1j * w * np.eye(3) - kb.a_k, kb.b_w
            ) + kb.d_zw
            assert np.allclose(gain, expect, atol=1e-10)


class TestEvalController:
    def test_delta_zero(self, rng):
        kb = random_block(rng, 2, 2, 1, 1)
        sys = eval_controller(kb, 0.0)
        assert np.allclose(sys.a, kb.a_k)
        assert np.allclose(sys.b, kb.b_u)
        assert np.allclose(sys.c, kb.c_y)
        assert np.allclose(sys.d, kb.d_yu)

    def test_affine_when_dzw_zero(self, rng):
        kb = random_block(rng, 2, 1, 1, 1)
        k = np.array(kb.k)
        k[2:3, 2:3] = 0.0  # d_zw
        kb = kb.with_k(k)
        rho1, rho2 = 0.3, 1.1
        s1 = eval_controller(kb, rho1)
        s2 = eval_controller(kb, rho2)
        mid = eval_controller(kb, 0.5 * (rho1 + rho2))
        for part in "abcd":
            m1, m2, mm = (getattr(s, part) for s in (s1, s2, mid))
            assert np.allclose(m1 + m2, 2.0 * mm, atol=1e-12)
        assert np.allclose(s1.a, kb.a_k + rho1 * kb.b_w @ kb.c_z, atol=1e-14)

    def test_matches_double_lft_composition(self, rng):
        for _ in range(5):
            kb = random_block(rng, 2, 2, 2, 1, well_posed_for=[0.7])
            ci = close_integrator(kb)
            sys = eval_controller(kb, 0.7)
            for w in np.geomspace(0.05, 20.0, 10):
                expect = upper_lft_matrix(
                    frequency_gain(ci.sys, w), 0.7 * np.eye(2)
                )
                assert np.allclose(frequency_gain(sys, w), expect, atol=1e-8)

    def test_instantiation_factors_match_directional_difference(self, rng):
        def stacked(kb, rho):
            a, b, c, d = eval_controller_matrices(kb, rho)
            return np.block([[a, b], [c, d]])

        for n_k, n_delta, n_u, n_y in ((2, 2, 2, 1), (0, 1, 1, 2), (3, 0, 1, 1)):
            kb = random_block(rng, n_k, n_delta, n_u, n_y, well_posed_for=[1.3])
            l1, r1 = instantiation_factors(kb, 1.3)
            dk = rng.normal(size=kb.k.shape)
            h = 1e-6
            diff = (
                stacked(kb.with_k(kb.k + h * dk), 1.3)
                - stacked(kb.with_k(kb.k - h * dk), 1.3)
            ) / (2.0 * h)
            assert np.allclose(l1 @ dk @ r1, diff, rtol=1e-7, atol=1e-8)

    def test_ill_posed_at_rho(self):
        k = np.zeros((2, 2))
        k[0, 0] = 2.0  # d_zw = 2 -> singular loop at rho = 0.5
        kb = ControllerBlock(0, 1, 1, 1, k, np.ones((2, 2), dtype=np.int8))
        with pytest.raises(IllPosedLFTError):
            eval_controller(kb, 0.5)


class TestCountFreeParams:
    def test_full_block(self, rng):
        kb = random_block(rng, 2, 1, 1, 1)
        assert count_free_params(kb) == 16

    def test_all_zero_mask(self):
        kb = zero_block(2, 1, 1, 1, np.zeros((4, 4), dtype=np.int8))
        assert count_free_params(kb) == 0

    def test_enumeration_oracle(self, rng):
        # tridiagonal a_k with everything else free, counted independently
        n_k, n_delta, n_u, n_y = 5, 1, 1, 1
        mask = np.full((n_k + n_delta + n_u, n_k + n_delta + n_y), MASK_FREE, np.int8)
        for i in range(n_k):
            for j in range(n_k):
                if abs(i - j) > 1:
                    mask[i, j] = MASK_ZERO
        kb = zero_block(n_k, n_delta, n_u, n_y, mask)
        expected = 0
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                inside_ak = i < n_k and j < n_k
                if inside_ak and abs(i - j) > 1:
                    continue
                expected += 1
        assert count_free_params(kb) == expected == 37

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), frac=st.floats(0.0, 1.0))
    def test_matches_direct_count(self, seed, frac):
        r = np.random.default_rng(seed)
        mask = (r.random((4, 4)) < frac).astype(np.int8)
        kb = zero_block(2, 1, 1, 1, mask)
        assert count_free_params(kb) == int((mask == MASK_FREE).sum())


class TestControllerFile:
    def test_roundtrip(self, rng, tmp_path):
        kb = random_block(rng, 2, 1, 2, 1)
        mask = np.array(kb.mask)
        mask[0, 0] = MASK_FROZEN
        mask[1, 2] = MASK_ZERO
        k = np.array(kb.k)
        k[1, 2] = 0.0
        kb = ControllerBlock(2, 1, 2, 1, k, mask)
        path = tmp_path / "k.txt"
        save_controller(kb, str(path))
        back = load_controller(str(path))
        assert np.array_equal(back.k, kb.k)
        assert np.array_equal(back.mask, kb.mask)
        assert (back.n_k, back.n_delta, back.n_u, back.n_y) == (2, 1, 2, 1)

    def test_truncated(self, rng, tmp_path):
        kb = random_block(rng, 1, 1, 1, 1)
        path = tmp_path / "k.txt"
        save_controller(kb, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ParseError, match="mask"):
            load_controller(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "k.txt"
        for text in ("1 2 3\n", "-5 0 1 1\n"):
            path.write_text(text)
            with pytest.raises(ParseError, match=r":1: .*header"):
                load_controller(str(path))

    def test_mask_entry_out_of_range(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("0 1 1 1\n1 2\n3 4\n300 1\n1 1\n")
        with pytest.raises(ParseError, match=r":4: mask entry out of range"):
            load_controller(str(path))

    def test_non_numeric(self, rng, tmp_path):
        kb = random_block(rng, 1, 0, 1, 1)
        path = tmp_path / "k.txt"
        save_controller(kb, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split()[0], "abc")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_controller(str(path))
