"""Command-line driver: build a problem from a config file, synthesize, and
evaluate controller families over parameter sweeps.

Commands
--------
* ``synth --config cfg``: run the synthesis, write the controller file, the
  iteration trace CSV and a text summary.  Exit code 0 on convergence, 2 on
  iteration limit, 3 when stabilization failed.
* ``eval --controller k.txt --config cfg --out sweep.csv``: sweep the frozen
  parameter and report a norm metric per point.
* ``bode --controller k.txt --config cfg --rho 0.5,1.0 --out bode.csv``:
  open- and closed-loop magnitude curves.
* ``model gen --scenario beam --out plant.ss``: write a scenario plant in the
  state-space text format.

Configs are flat ``key = value`` text; '#' starts a comment.  See README for
the key reference.  All CSV output uses 17 significant digits, Unix newlines
and is written to a temporary file then renamed, so failed runs never leave
partial outputs.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    IllPosedLFTError,
    LfsynthError,
    NumericalError,
    SingularMatrixError,
    StabilizationFailedError,
    UnstableError,
)
from .lft import count_free_params, eval_controller, load_controller, lower_lft_ss, save_controller
from .models import (
    BeamSpec,
    WeightSpec,
    beam_generalized_plant,
    building_surrogate,
    lah_generalized_plant,
    load_statespace,
    make_weight,
    save_statespace,
    timoshenko_beam,
)
from .norms import default_frequency_grid, h2_norm, hinf_norm
from .statespace import FrequencyKernel, PartitionedSystem, subsystem
from .synth import (
    OptimizeOptions,
    StructureOptions,
    SynthesisProblem,
    init_from_nominal,
    optimize,
)
from .textio import write_lines

SCENARIOS = ("beam", "building", "custom")
METRICS = ("hinf", "h2")


@dataclass
class RunConfig:
    """Parsed run configuration with defaults filled in."""

    scenario: str = ""
    grid: tuple = ()
    n_k: int = 2
    n_delta: int = 1
    controller_class: str = "full-hinf"
    dependency: str = "affine"
    ak_shape: str = "full"
    wk_kind: str = "first-order-lag"
    wk_gain: float = 0.1
    wk_corner: float = 100.0
    wk_wm: float = 5.2
    wk_alpha: float = 10.0
    wk_m: float = 0.1
    wk_rho_scaled: bool = False
    opt_max_iter: int = 500
    opt_restarts: int = 3
    opt_seed: int = 0
    opt_nominal_index: int = -1  # -1: middle of the grid
    opt_refine_rounds: int = 2
    sweep_rho_min: float = np.nan
    sweep_rho_max: float = np.nan
    sweep_n_points: int = 21
    sweep_metric: str = "hinf"
    beam_n_elements: int = 15
    building_n_modes: int = 24
    building_peak_omega: float = 5.2
    building_seed: int = 0
    custom_plants: tuple = ()
    custom_n_u: int = 1
    custom_n_y: int = 1
    io_controller: str = "controller.txt"
    io_trace: str = "trace.csv"
    io_summary: str = "summary.txt"


def _parse_bool(v):
    low = v.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_floats(v):
    return tuple(float(tok) for tok in v.replace(",", " ").split())


def _parse_paths(v):
    return tuple(tok.strip() for tok in v.split(",") if tok.strip())


# key -> (RunConfig attribute, converter)
_KEYS = {
    "scenario": ("scenario", str.strip),
    "grid": ("grid", _parse_floats),
    "n_k": ("n_k", int),
    "n_delta": ("n_delta", int),
    "class": ("controller_class", str.strip),
    "dependency": ("dependency", str.strip),
    "ak_shape": ("ak_shape", str.strip),
    "wk.kind": ("wk_kind", str.strip),
    "wk.gain": ("wk_gain", float),
    "wk.corner": ("wk_corner", float),
    "wk.wm": ("wk_wm", float),
    "wk.alpha": ("wk_alpha", float),
    "wk.m": ("wk_m", float),
    "wk.rho_scaled": ("wk_rho_scaled", _parse_bool),
    "opt.max_iter": ("opt_max_iter", int),
    "opt.restarts": ("opt_restarts", int),
    "opt.seed": ("opt_seed", int),
    "opt.nominal_index": ("opt_nominal_index", int),
    "opt.refine_rounds": ("opt_refine_rounds", int),
    "sweep.rho_min": ("sweep_rho_min", float),
    "sweep.rho_max": ("sweep_rho_max", float),
    "sweep.n_points": ("sweep_n_points", int),
    "sweep.metric": ("sweep_metric", str.strip),
    "beam.n_elements": ("beam_n_elements", int),
    "building.n_modes": ("building_n_modes", int),
    "building.peak_omega": ("building_peak_omega", float),
    "building.seed": ("building_seed", int),
    "custom.plants": ("custom_plants", _parse_paths),
    "custom.n_u": ("custom_n_u", int),
    "custom.n_y": ("custom_n_y", int),
    "io.controller": ("io_controller", str.strip),
    "io.trace": ("io_trace", str.strip),
    "io.summary": ("io_summary", str.strip),
}


def parse_config(path):
    """Parse a flat key=value config file into a validated RunConfig."""
    cfg = RunConfig()
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, conv = _KEYS[key]
        try:
            setattr(cfg, attr, conv(value.strip()))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc

    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"{path}: key 'scenario' must be one of {SCENARIOS}")
    if not cfg.grid:
        raise ConfigError(f"{path}: key 'grid' is required and must be nonempty")
    if cfg.sweep_metric not in METRICS:
        raise ConfigError(f"{path}: key 'sweep.metric' must be one of {METRICS}")
    if np.isnan(cfg.sweep_rho_min):
        cfg.sweep_rho_min = min(cfg.grid)
    if np.isnan(cfg.sweep_rho_max):
        cfg.sweep_rho_max = max(cfg.grid)
    if cfg.sweep_rho_min > min(cfg.grid) or cfg.sweep_rho_max < max(cfg.grid):
        raise ConfigError(
            f"{path}: sweep bounds [{cfg.sweep_rho_min}, {cfg.sweep_rho_max}] "
            "must cover the grid range"
        )
    if cfg.sweep_n_points < 1:
        raise ConfigError(f"{path}: key 'sweep.n_points' must be positive")
    if cfg.opt_nominal_index == -1:
        cfg.opt_nominal_index = len(cfg.grid) // 2
    if not 0 <= cfg.opt_nominal_index < len(cfg.grid):
        raise ConfigError(
            f"{path}: key 'opt.nominal_index' must be a grid index or -1 (middle)"
        )
    if cfg.scenario == "custom" and len(cfg.custom_plants) != len(cfg.grid):
        raise ConfigError(
            f"{path}: key 'custom.plants' must list one plant file per grid value"
        )
    return cfg


class Scenario:
    """Plant/weight factory for one configured scenario; plants are cached."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._plants = {}
        self._building = None

    def _base_building(self):
        if self._building is None:
            self._building = building_surrogate(
                self.cfg.building_n_modes,
                self.cfg.building_peak_omega,
                self.cfg.building_seed,
            )
        return self._building

    def plant(self, rho):
        """Generalized plant used during synthesis at parameter value rho."""
        key = float(rho)
        if key not in self._plants:
            cfg = self.cfg
            if cfg.scenario == "beam":
                beam = timoshenko_beam(
                    BeamSpec(length=key, n_elements=cfg.beam_n_elements)
                )
                self._plants[key] = beam_generalized_plant(beam)
            elif cfg.scenario == "building":
                self._plants[key] = lah_generalized_plant(self._base_building(), key)
            else:
                # Custom plants exist only at the grid values; sweeps between
                # them evaluate the controller against the nearest grid plant.
                idx = int(np.argmin([abs(g - key) for g in cfg.grid]))
                sys = load_statespace(cfg.custom_plants[idx])
                n_w = sys.n_inputs - cfg.custom_n_u
                n_z = sys.n_outputs - cfg.custom_n_y
                if n_w < 0 or n_z < 0:
                    raise ConfigError(
                        f"custom plant {cfg.custom_plants[idx]} smaller than "
                        "custom.n_u/custom.n_y"
                    )
                self._plants[key] = PartitionedSystem(
                    sys, (n_w, cfg.custom_n_u), (n_z, cfg.custom_n_y)
                )
        return self._plants[key]

    def measurement_plant(self, rho):
        """Plant whose performance row is parameter-independent, for sweeps and
        magnitude curves that compare attenuation across parameter values."""
        if self.cfg.scenario == "building":
            return lah_generalized_plant(self._base_building(), 1.0)
        return self.plant(rho)

    def weight(self, rho):
        cfg = self.cfg
        spec = WeightSpec(
            kind=cfg.wk_kind,
            gain=cfg.wk_gain,
            corner=cfg.wk_corner,
            w_m=cfg.wk_wm,
            alpha=cfg.wk_alpha,
            m=cfg.wk_m,
            rho_scaled=cfg.wk_rho_scaled,
        )
        return make_weight(spec, rho)

    def open_loop(self):
        """Reference open-loop transfer (w -> z at the nominal parameter)."""
        nominal = self.cfg.grid[self.cfg.opt_nominal_index]
        return subsystem(self.measurement_plant(nominal), 0, 0)


def build_problem(cfg):
    scn = Scenario(cfg)
    structure = StructureOptions(
        cfg.n_k, cfg.n_delta, cfg.controller_class, cfg.dependency, cfg.ak_shape
    )
    plants = [scn.plant(r) for r in cfg.grid]
    weights = [scn.weight(r) for r in cfg.grid]
    return scn, SynthesisProblem(plants, cfg.grid, weights, structure)


def make_options(cfg):
    return OptimizeOptions(
        max_iter=cfg.opt_max_iter,
        restarts=cfg.opt_restarts,
        seed=cfg.opt_seed,
        refine_rounds=cfg.opt_refine_rounds,
    )


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else _fmt(v) for v in row))
    write_lines(path, lines)


EXIT_BY_STATUS = {"converged": 0, "iteration-limit": 2, "stabilization-failed": 3}


def cmd_synth(config_path):
    cfg = parse_config(config_path)
    scn, problem = build_problem(cfg)
    opts = make_options(cfg)
    try:
        kb0 = init_from_nominal(problem, cfg.opt_nominal_index, opts)
    except StabilizationFailedError as exc:
        print(f"synth: {exc}", file=sys.stderr)
        return 3
    result = optimize(problem, kb0, opts)

    save_controller(result.controller, cfg.io_controller)
    _write_csv(
        cfg.io_trace,
        ("iter", "objective", "max_abscissa", "step_norm", "wall_ms"),
        [(r.iteration, r.objective, r.max_abscissa, r.step_norm, r.wall_ms)
         for r in result.trace],
    )
    lines = [
        f"status: {result.status}",
        f"gamma: {_fmt(result.gamma)}",
        f"free_params: {count_free_params(result.controller)}",
        "grid: " + " ".join(_fmt(g) for g in problem.grid),
        "per_point_norms: " + " ".join(_fmt(v) for v in result.per_point_norms),
        "per_point_perf_norms: "
        + " ".join(_fmt(v) for v in result.per_point_perf_norms),
        "per_point_wk_norms: " + " ".join(_fmt(v) for v in result.per_point_wk_norms),
    ]
    write_lines(cfg.io_summary, lines)
    print(f"synth: {result.status}, gamma = {result.gamma:.6g}")
    return EXIT_BY_STATUS[result.status]


def _sweep_values(cfg):
    return np.linspace(cfg.sweep_rho_min, cfg.sweep_rho_max, cfg.sweep_n_points)


def cmd_eval(controller_path, config_path, out_path):
    cfg = parse_config(config_path)
    kb = load_controller(controller_path)
    scn = Scenario(cfg)
    metric = cfg.sweep_metric
    rows = []
    for rho in _sweep_values(cfg):
        plant = scn.plant(rho) if metric == "hinf" else scn.measurement_plant(rho)
        try:
            closed = lower_lft_ss(plant, eval_controller(kb, rho))
            value = (
                hinf_norm(closed, 1e-6).value if metric == "hinf" else h2_norm(closed)
            )
        except (IllPosedLFTError, UnstableError):
            rows.append((rho, None, 0))
            continue
        except NumericalError:
            # stable but numerically untractable (poles hugging the axis):
            # flag the row rather than aborting the sweep
            rows.append((rho, None, 1))
            continue
        rows.append((rho, value, 1))
    _write_csv(out_path, ("rho", "metric_value", "closed_loop_stable"), rows)
    return 0


def cmd_bode(controller_path, config_path, rho_list, out_path):
    cfg = parse_config(config_path)
    kb = load_controller(controller_path)
    scn = Scenario(cfg)
    open_loop = scn.open_loop()
    omegas = default_frequency_grid(open_loop, 200)

    def magnitudes(sys):
        mags = FrequencyKernel(sys).sigma(omegas)[0]
        if np.isnan(mags).any():
            raise SingularMatrixError("a bode frequency coincides with a system pole")
        return mags

    columns = [magnitudes(open_loop)]
    header = ["omega", "open_loop"]
    for rho in rho_list:
        closed = lower_lft_ss(scn.measurement_plant(rho), eval_controller(kb, rho))
        columns.append(magnitudes(closed))
        header.append(f"rho_{rho:g}")
    rows = [
        tuple([w] + [col[i] for col in columns]) for i, w in enumerate(omegas)
    ]
    _write_csv(out_path, header, rows)
    return 0


def cmd_model_gen(scenario, out_path, config_path=None, rho=None):
    cfg = parse_config(config_path) if config_path else RunConfig()
    if scenario == "beam":
        sys_out = timoshenko_beam(
            BeamSpec(length=rho if rho is not None else 15.0,
                     n_elements=cfg.beam_n_elements)
        )
    elif scenario == "building":
        sys_out = building_surrogate(
            cfg.building_n_modes, cfg.building_peak_omega, cfg.building_seed
        )
    else:
        raise ConfigError(f"model gen supports scenarios 'beam' and 'building', "
                          f"got {scenario!r}")
    save_statespace(sys_out, out_path)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lfsynth",
        description="Structured parametric controller synthesis and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run a synthesis from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("eval", help="sweep a saved controller over the parameter")
    p.add_argument("--controller", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bode", help="magnitude curves for a saved controller")
    p.add_argument("--controller", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--rho", required=True, help="comma-separated parameter values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("model", help="scenario model utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    g = msub.add_parser("gen", help="write a scenario plant to a state-space file")
    g.add_argument("--scenario", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--config")
    g.add_argument("--rho", type=float)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.config)
        if args.command == "eval":
            return cmd_eval(args.controller, args.config, args.out)
        if args.command == "bode":
            try:
                rhos = [float(tok) for tok in args.rho.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --rho value: {exc}") from None
            return cmd_bode(args.controller, args.config, rhos, args.out)
        if args.command == "model":
            return cmd_model_gen(args.scenario, args.out, args.config, args.rho)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LfsynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
