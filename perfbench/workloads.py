"""The benchmark's workloads: set-up, one timed round, and output checks.

Every workload fixes the program's inputs (the synthesis seeds and grids are
part of the problem, so ``gamma`` is bit-identical from run to run and the
known ``hinf_norm`` fault falls on the same sweep points every time).  The
run's ``--seed`` draws the random frequencies the oracle adds to its scans,
so each run checks the outputs at fresh frequencies.

Set-up covers importing lfsynth and making the problem ready; a round is the
user-facing task that is timed; checks compare the round's outputs with the
numpy oracle in ``oracle.py``.
"""

import csv
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

import oracle
from lfsynth import cli, models, synth

INPUTS = Path(__file__).resolve().parent / "inputs"

# Relative tolerance ``cmd_eval`` passes to ``hinf_norm``; the norm is
# documented to lie within it of the true peak.
EVAL_REL_TOL = 1e-6
# H2 values and magnitude curves are plain floating-point computations: the
# oracle's independent route agrees with them to 1e-10 relative or better.
H2_REL_TOL = 1e-8
BODE_REL_TOL = 1e-8
BEAM_BODE_LENGTHS = "10,15,20"
BUILDING_BODE_LEVELS = "0.5,1,1.5"
# Optimizer budget of the building-synth round, in place of the config's
# campaign budget (which made ``inputs/building_controller.txt``): short
# rounds, so a run holds many and their median is steady on a shared host.
BUILDING_SYNTH_BUDGET = {"max_iter": 4, "refine_rounds": 0}


def read_controller(path):
    """Raw controller block (n_k, n_delta, k) parsed from the file text."""
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    n_k, n_delta, n_u, _ = (int(v) for v in rows[0])
    k = np.array([[float(v) for v in r] for r in rows[1 : 1 + n_k + n_delta + n_u]])
    return n_k, n_delta, k


def weight_spec(cfg):
    return {"kind": cfg.wk_kind, "gain": cfg.wk_gain, "corner": cfg.wk_corner,
            "w_m": cfg.wk_wm, "alpha": cfg.wk_alpha, "m": cfg.wk_m,
            "rho_scaled": cfg.wk_rho_scaled}


def _plant(part):
    """Raw matrices and channel sizes of a partitioned plant (an input)."""
    s = part.sys
    return (s.a, s.b, s.c, s.d), part.input_partition, part.output_partition


def closed_loop_gain(plant, n_u, n_y, k, n_k, n_delta, rho, omegas):
    """Oracle closed-loop gain at ``omegas`` of the raw plant matrices closed
    with the raw controller block at ``rho``."""
    kresp = oracle.controller_response(k, n_k, n_delta, rho, omegas)
    return oracle.sigma_max(oracle.lower_lft(oracle.response(*plant, omegas), kresp, n_u, n_y))


def channel_peaks(plant_part, k, n_k, n_delta, rho, wspec, rng):
    """Oracle view of one grid point: closed-loop and controller stability,
    and the peaks of the closed loop and of the weighted controller."""
    plant, (n_w, n_u), (n_z, n_y) = _plant(plant_part)
    ctrl = oracle.instantiate(k, n_k, n_delta, rho)
    acl = oracle.closed_loop(plant, n_w, n_z, ctrl)[0]
    cl_poles = np.linalg.eigvals(acl)
    k_poles = np.linalg.eigvals(ctrl[0]) if n_k else np.zeros(0, dtype=complex)
    stable = cl_poles.real.max() < 0.0 and (k_poles.size == 0 or k_poles.real.max() < 0.0)
    if not stable:
        return False, np.inf, np.inf

    def closed_gain(w):
        return closed_loop_gain(plant, n_u, n_y, k, n_k, n_delta, rho, w)

    def weighted_gain(w):
        kresp = oracle.controller_response(k, n_k, n_delta, rho, w)
        return oracle.sigma_max(oracle.weight_response(wspec, rho, w) * kresp)

    perf = oracle.peak_gain(closed_gain, cl_poles, rng)[0]
    wk = oracle.peak_gain(weighted_gain, np.concatenate([k_poles, oracle.weight_poles(wspec)]),
                          rng)[0]
    return True, perf, wk


def within(value, reference, rel_tol):
    return abs(value - reference) <= rel_tol * abs(reference)


class SynthWorkload:
    """Parametric synthesis (``init_from_nominal`` + ``optimize``) on one of
    the committed problem configs, with the config's budget or ``budget``
    (``OptimizeOptions`` fields) in its place; one operation per synthesis."""

    ops_per_round = 1

    def __init__(self, config_name, budget=None):
        self.config = INPUTS / config_name
        self.budget = budget or {}

    def setup(self, workdir):
        self.cfg = cli.parse_config(str(self.config))
        self.problem = cli.build_problem(self.cfg)[1]
        self.options = replace(cli.make_options(self.cfg), **self.budget)

    def run_round(self):
        kb0 = synth.init_from_nominal(self.problem, self.cfg.opt_nominal_index, self.options)
        return kb0, synth.optimize(self.problem, kb0, self.options)

    @staticmethod
    def gamma(output):
        return output[1].gamma

    @staticmethod
    def fingerprint(output):
        kb0, result = output
        return (kb0.k.tobytes(), result.controller.k.tobytes(), result.gamma,
                result.per_point_norms, result.per_point_perf_norms,
                result.per_point_wk_norms)

    def check(self, output, rng):
        """Failed operations and the reasons, from the oracle's view of the
        returned family and of the nominal start."""
        kb0, result = output
        problem, tol = self.problem, self.options.certify_rel_tol
        wspec = weight_spec(self.cfg)
        st = problem.structure
        errors = []
        worst = start_worst = 0.0
        for j, (rho, plant) in enumerate(zip(problem.grid, problem.plants)):
            stable, perf, wk = channel_peaks(plant, result.controller.k, st.n_k,
                                              st.n_delta, rho, wspec, rng)
            if not stable:
                errors.append(f"grid point {rho:g}: closed loop or controller unstable")
                continue
            worst = max(worst, perf, wk)
            for label, certified, peak in (("closed loop", result.per_point_perf_norms[j], perf),
                                           ("weighted controller",
                                            result.per_point_wk_norms[j], wk)):
                if certified < peak * (1.0 - tol):
                    errors.append(f"grid point {rho:g}: certified {label} norm "
                                  f"{certified:.10g} below the oracle peak {peak:.10g}")
            if result.per_point_norms[j] != max(result.per_point_perf_norms[j],
                                               result.per_point_wk_norms[j]):
                errors.append(f"grid point {rho:g}: per-point norm is not the larger channel")
            start_stable, start_perf, start_wk = channel_peaks(
                plant, kb0.k, st.n_k, st.n_delta, rho, wspec, rng)
            start_worst = max(start_worst, start_perf, start_wk) if start_stable else np.inf
        if result.gamma != max(result.per_point_norms):
            errors.append("gamma is not the largest per-point norm")
        if not within(result.gamma, worst, tol):
            errors.append(f"gamma {result.gamma:.10g} not within {tol:g} of the oracle's "
                          f"worst point {worst:.10g}")
        if result.gamma > start_worst * (1.0 + tol):
            errors.append(f"gamma {result.gamma:.10g} worse than the nominal start "
                          f"{start_worst:.10g}")
        return int(bool(errors)), errors


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class EvalSweepWorkload:
    """``lfsynth eval`` and ``lfsynth bode`` run in process over the committed
    controller files; one operation per sweep point and per bode column."""

    def setup(self, workdir):
        self.workdir = Path(workdir)
        self._building = None
        self.cfgs = {name: cli.parse_config(str(INPUTS / f"{name}.cfg"))
                     for name in ("beam", "building")}
        self.ops_per_round = sum(c.sweep_n_points + 1 + len(levels.split(","))
                                 for c, levels in zip(self.cfgs.values(),
                                                      (BEAM_BODE_LENGTHS,
                                                       BUILDING_BODE_LEVELS)))

    def _commands(self):
        for name, levels in (("beam", BEAM_BODE_LENGTHS), ("building", BUILDING_BODE_LEVELS)):
            common = ["--controller", str(INPUTS / f"{name}_controller.txt"),
                      "--config", str(INPUTS / f"{name}.cfg")]
            yield ["eval", *common, "--out", str(self.workdir / f"{name}_sweep.csv")]
            yield ["bode", *common, "--rho", levels,
                   "--out", str(self.workdir / f"{name}_bode.csv")]

    def run_round(self):
        outputs = {}
        for argv in self._commands():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"lfsynth {' '.join(argv)} exited with code {code}")
            out = Path(argv[-1])
            outputs[out.name] = out.read_text()
        return outputs

    @staticmethod
    def gamma(output):
        """Largest certified H-infinity value of the beam length sweep."""
        _, rows = _read_csv(output["beam_sweep.csv"])
        return max(float(r[1]) for r in rows if r[1])

    @staticmethod
    def fingerprint(output):
        return tuple(sorted(output.items()))

    def check(self, output, rng):
        failed, errors = 0, []
        for name in ("beam", "building"):
            cfg = self.cfgs[name]
            n_k, n_delta, k = read_controller(INPUTS / f"{name}_controller.txt")
            f, e = self._check_sweep(cfg, output[f"{name}_sweep.csv"], n_k, n_delta, k, rng)
            failed, errors = failed + f, errors + e
            f, e = self._check_bode(cfg, output[f"{name}_bode.csv"], n_k, n_delta, k)
            failed, errors = failed + f, errors + e
        return failed, errors

    def _measurement_plant(self, cfg, rho):
        """The plant ``cmd_eval``/``cmd_bode`` close at ``rho``, rebuilt from
        the models: the beam at that length, the building at unit level."""
        if cfg.scenario == "beam":
            beam = models.timoshenko_beam(models.BeamSpec(length=rho,
                                                          n_elements=cfg.beam_n_elements))
            return models.beam_generalized_plant(beam)
        if self._building is None:
            base = models.building_surrogate(cfg.building_n_modes, cfg.building_peak_omega,
                                             cfg.building_seed)
            self._building = models.lah_generalized_plant(base, 1.0)
        return self._building

    def _check_sweep(self, cfg, text, n_k, n_delta, k, rng):
        header, rows = _read_csv(text)
        expected_rhos = np.linspace(cfg.sweep_rho_min, cfg.sweep_rho_max, cfg.sweep_n_points)
        failed, errors = 0, []
        if (header != ["rho", "metric_value", "closed_loop_stable"]
                or len(rows) != expected_rhos.size):
            return cfg.sweep_n_points, [f"{cfg.scenario} sweep: malformed output"]
        for (rho_s, value_s, stable_s), rho_exp in zip(rows, expected_rhos):
            rho = float(rho_s)
            plant, (n_w, n_u), (n_z, n_y) = _plant(self._measurement_plant(cfg, rho))
            ctrl = oracle.instantiate(k, n_k, n_delta, rho)
            acl, bcl, ccl, _ = oracle.closed_loop(plant, n_w, n_z, ctrl)
            stable = np.linalg.eigvals(acl).real.max() < 0.0
            problem = None
            if rho != rho_exp:
                problem = f"sweep value {rho!r}, expected {rho_exp!r}"
            elif stable != (stable_s == "1") or stable != bool(value_s):
                problem = f"stability flag {stable_s!r}, oracle says stable={stable}"
            elif stable and cfg.sweep_metric == "hinf":
                peak, w_peak = oracle.peak_gain(
                    lambda w: closed_loop_gain(plant, n_u, n_y, k, n_k, n_delta, rho, w),
                    np.linalg.eigvals(acl), rng)
                if not within(float(value_s), peak, EVAL_REL_TOL):
                    problem = (f"certified {float(value_s):.10g} against the oracle peak "
                               f"{peak:.10g} at {w_peak:.6g} rad/s "
                               f"({float(value_s) / peak - 1.0:+.2e} relative)")
            elif stable:
                h2 = oracle.h2_norm(acl, bcl, ccl)
                if not within(float(value_s), h2, H2_REL_TOL):
                    problem = f"H2 {float(value_s):.12g} against the oracle's {h2:.12g}"
            if problem:
                failed += 1
                errors.append(f"{cfg.scenario} sweep at {rho:g}: {problem}")
        return failed, errors

    def _check_bode(self, cfg, text, n_k, n_delta, k):
        header, rows = _read_csv(text)
        levels = (BEAM_BODE_LENGTHS if cfg.scenario == "beam" else BUILDING_BODE_LEVELS)
        levels = [float(v) for v in levels.split(",")]
        n_columns = 1 + len(levels)
        if header[:2] != ["omega", "open_loop"] or len(header) != 1 + n_columns or not rows:
            return n_columns, [f"{cfg.scenario} bode: malformed output"]
        data = np.array([[float(v) for v in r] for r in rows])
        omegas = data[:, 0]
        nominal = cfg.grid[cfg.opt_nominal_index]
        plant, (n_w, n_u), (n_z, n_y) = _plant(self._measurement_plant(cfg, nominal))
        open_loop = oracle.sigma_max(oracle.response(*plant, omegas)[:, :n_z, :n_w])
        expected = [open_loop]
        for rho in levels:
            plant = _plant(self._measurement_plant(cfg, rho))[0]
            expected.append(closed_loop_gain(plant, n_u, n_y, k, n_k, n_delta, rho, omegas))
        failed, errors = 0, []
        for col, (label, ref) in enumerate(zip(header[1:], expected), start=1):
            rel = np.max(np.abs(data[:, col] - ref) / np.abs(ref))
            if not rel <= BODE_REL_TOL:
                failed += 1
                errors.append(f"{cfg.scenario} bode column {label}: {rel:.2e} relative "
                              "from the oracle")
        return failed, errors


WORKLOADS = {
    "building-synth": lambda: SynthWorkload("building.cfg", BUILDING_SYNTH_BUDGET),
    "eval-sweep": EvalSweepWorkload,
}
