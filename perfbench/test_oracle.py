"""Tests of the benchmark's oracle and output checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_oracle.py

The oracle is held to closed forms; each output check is shown to accept
lfsynth's own output and to reject it once a norm is moved by 1e-5 relative
(a mutation check on the outputs, since the checks must catch a norm that is
off by ten times the certification tolerance).
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads  # noqa: E402
from lfsynth import cli, lft, models, norms, statespace, synth  # noqa: E402

SHIFTS = (1.0 + 1e-5, 1.0 - 1e-5)


def second_order(omega_n, zeta):
    a = np.array([[0.0, 1.0], [-omega_n**2, -2.0 * zeta * omega_n]])
    return a, np.array([[0.0], [omega_n**2]]), np.array([[1.0, 0.0]]), np.zeros((1, 1))


@pytest.mark.parametrize("zeta", [0.3, 0.05, 1e-4])
def test_peak_matches_resonance_closed_form(zeta):
    sys_ = second_order(3.0, zeta)
    peak, w_peak = oracle.peak_gain(
        lambda w: oracle.sigma_max(oracle.response(*sys_, w)),
        np.linalg.eigvals(sys_[0]), np.random.default_rng(0))
    assert peak == pytest.approx(1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2)), rel=1e-10)
    assert w_peak == pytest.approx(3.0 * np.sqrt(1.0 - 2.0 * zeta**2), rel=1e-5)


def test_h2_matches_first_order_closed_form():
    assert oracle.h2_norm(-np.eye(1), np.eye(1), np.eye(1)) == pytest.approx(
        1.0 / np.sqrt(2.0), rel=1e-14)


def random_block(rng, n_k=2, n_delta=2, n_u=1, n_y=2):
    k = rng.normal(size=(n_k + n_delta + n_u, n_k + n_delta + n_y))
    k[:n_k, :n_k] -= 3.0 * np.eye(n_k)
    return k, n_k, n_delta


def test_double_lft_matches_instantiated_realization():
    rng = np.random.default_rng(1)
    k, n_k, n_delta = random_block(rng)
    omegas = np.array([0.0, 0.3, 1.0, 7.0])
    via_response = oracle.controller_response(k, n_k, n_delta, 0.4, omegas)
    via_states = oracle.response(*oracle.instantiate(k, n_k, n_delta, 0.4), omegas)
    np.testing.assert_allclose(via_response, via_states, rtol=1e-10, atol=1e-12)


def test_closed_loop_matches_frequency_wise_lft():
    rng = np.random.default_rng(2)
    n = 5
    plant = (rng.normal(size=(n, n)) - 4.0 * np.eye(n), rng.normal(size=(n, 3)),
             rng.normal(size=(4, n)), 0.1 * rng.normal(size=(4, 3)))
    k, n_k, n_delta = random_block(rng)
    ctrl = oracle.instantiate(k, n_k, n_delta, 0.4)  # maps 2 outputs y to 1 input u
    omegas = np.array([0.0, 0.5, 2.0, 9.0])
    state_form = oracle.response(*oracle.closed_loop(plant, 2, 2, ctrl), omegas)
    lft_form = oracle.lower_lft(oracle.response(*plant, omegas),
                                oracle.response(*ctrl, omegas), 1, 2)
    np.testing.assert_allclose(state_form, lft_form, rtol=1e-10, atol=1e-12)


def test_weight_closed_forms_match_lfsynth_weights():
    for kind in ("first-order-lag", "biquad-notch"):
        spec = {"kind": kind, "gain": 0.1, "corner": 100.0, "w_m": 5.2, "alpha": 10.0,
                "m": 0.1, "rho_scaled": True}
        wk = models.make_weight(models.WeightSpec(
            kind, spec["gain"], spec["corner"], spec["w_m"], spec["alpha"], spec["m"],
            spec["rho_scaled"]), 0.75)
        omegas = np.array([0.0, 1.0, 5.2, 40.0])
        np.testing.assert_allclose(oracle.weight_response(spec, 0.75, omegas),
                                   oracle.response(wk.a, wk.b, wk.c, wk.d, omegas),
                                   rtol=1e-12)


@pytest.fixture(scope="module")
def sweep():
    wl = workloads.EvalSweepWorkload()
    wl.setup(BENCH_DIR)
    return wl


def one_point_sweep(wl, name, rho, value):
    cfg = replace(wl.cfgs[name], sweep_rho_min=rho, sweep_rho_max=rho, sweep_n_points=1)
    n_k, n_delta, k = workloads.read_controller(
        workloads.INPUTS / f"{name}_controller.txt")
    text = f"rho,metric_value,closed_loop_stable\n{rho!r},{value!r},1\n"
    return wl._check_sweep(cfg, text, n_k, n_delta, k, np.random.default_rng(0))[0]


def program_closed_loop(wl, name, rho):
    kb = lft.load_controller(str(workloads.INPUTS / f"{name}_controller.txt"))
    return lft.lower_lft_ss(wl._measurement_plant(wl.cfgs[name], rho),
                            lft.eval_controller(kb, rho))


def test_hinf_sweep_check_rejects_shifted_norm(sweep):
    value = norms.hinf_norm(program_closed_loop(sweep, "beam", 20.0), 1e-6).value
    assert one_point_sweep(sweep, "beam", 20.0, value) == 0
    for shift in SHIFTS:
        assert one_point_sweep(sweep, "beam", 20.0, value * shift) == 1


def test_hinf_sweep_check_flags_the_known_overshoot(sweep):
    value = norms.hinf_norm(program_closed_loop(sweep, "beam", 10.0), 1e-6).value
    assert one_point_sweep(sweep, "beam", 10.0, value) == 1


def test_h2_sweep_check_rejects_shifted_norm(sweep):
    value = norms.h2_norm(program_closed_loop(sweep, "building", 0.75))
    assert one_point_sweep(sweep, "building", 0.75, value) == 0
    for shift in SHIFTS:
        assert one_point_sweep(sweep, "building", 0.75, value * shift) == 1


def test_bode_check_rejects_shifted_column(sweep, tmp_path):
    out = tmp_path / "bode.csv"
    assert cli.main(["bode", "--controller", str(workloads.INPUTS / "building_controller.txt"),
                     "--config", str(workloads.INPUTS / "building.cfg"),
                     "--rho", workloads.BUILDING_BODE_LEVELS, "--out", str(out)]) == 0
    n_k, n_delta, k = workloads.read_controller(workloads.INPUTS / "building_controller.txt")
    cfg = sweep.cfgs["building"]
    text = out.read_text()
    assert sweep._check_bode(cfg, text, n_k, n_delta, k)[0] == 0
    lines = text.splitlines()
    for shift in SHIFTS:
        moved = [lines[0]]
        for row in lines[1:]:
            *head, last = row.split(",")
            moved.append(",".join(head + [repr(float(last) * shift)]))
        assert sweep._check_bode(cfg, "\n".join(moved) + "\n", n_k, n_delta, k)[0] == 1


@pytest.fixture(scope="module")
def building_family():
    """The committed building family with its certified per-point norms, as
    ``optimize`` would return it, and a workload set up on its problem."""
    wl = workloads.SynthWorkload("building.cfg")
    wl.setup(BENCH_DIR)
    kb = lft.load_controller(str(workloads.INPUTS / "building_controller.txt"))
    perf, wk = [], []
    for rho, plant, weight in zip(wl.problem.grid, wl.problem.plants, wl.problem.wk_list):
        k_sys = lft.eval_controller(kb, rho)
        perf.append(norms.hinf_norm(lft.lower_lft_ss(plant, k_sys), 1e-6).value)
        wk.append(norms.hinf_norm(statespace.series(k_sys, weight), 1e-6).value)
    per_point = tuple(max(p, w) for p, w in zip(perf, wk))
    result = synth.SynthesisResult(kb, max(per_point), per_point, tuple(perf), tuple(wk),
                                   (), "converged")
    return wl, kb, result


def shifted(result, shift, perf=True, wk=True):
    p, w = result.per_point_perf_norms, result.per_point_wk_norms
    p = tuple(v * shift for v in p) if perf else p
    w = tuple(v * shift for v in w) if wk else w
    per_point = tuple(max(a, b) for a, b in zip(p, w))
    return replace(result, gamma=max(per_point), per_point_norms=per_point,
                   per_point_perf_norms=p, per_point_wk_norms=w)


def test_synthesis_check_accepts_certified_family(building_family):
    wl, kb, result = building_family
    assert wl.check((kb, result), np.random.default_rng(0)) == (0, [])


# A lowered norm is caught at its grid point; a raised one through gamma.  The
# per-point check is one-sided: its upper side would also flag the beam's
# length-10 point, where the known hinf_norm overshoot is counted by eval-sweep.
@pytest.mark.parametrize("shift, channels", [
    (1.0 - 1e-5, (True, True)), (1.0 - 1e-5, (True, False)), (1.0 - 1e-5, (False, True)),
    (1.0 + 1e-5, (True, True)), (1.0 + 1e-5, (True, False)),
])
def test_synthesis_check_rejects_shifted_norms(building_family, shift, channels):
    wl, kb, result = building_family
    failed, errors = wl.check((kb, shifted(result, shift, *channels)), np.random.default_rng(0))
    assert failed == 1 and errors
