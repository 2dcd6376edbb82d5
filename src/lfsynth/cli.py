"""Command-line driver: build a problem from a config file, synthesize, and
evaluate controller families over parameter sweeps.

Commands
--------
* ``synth --config cfg``: run the synthesis, write the controller file, the
  iteration trace CSV and a text summary.  Exit code 0 on convergence, 2 on
  iteration limit, 3 when stabilization failed (and no file is written).
* ``eval --controller k.txt --config cfg --out sweep.csv``: sweep the frozen
  parameter and report a norm metric per point.
* ``bode --controller k.txt --config cfg --rho 0.5,1.0 --out bode.csv``:
  open- and closed-loop magnitude curves.
* ``model gen --scenario beam --out plant.ss``: write a scenario plant in the
  state-space text format.

Every command exits 1 with one stderr line on a config error, an unreadable
or malformed input or an output that cannot be written.

Configs are flat ``key = value`` text; '#' starts a comment.  Each key is
declared once, with its default, on its RunConfig field; see README for the
key reference.  Files are read and number rows written through ``textio``,
at 17 significant digits, so failed runs never leave partial outputs.
"""

import argparse
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    IllPosedLFTError,
    LfsynthError,
    NumericalError,
    ParseError,
    StabilizationFailedError,
)
from .lft import (
    close_grid,
    count_free_params,
    load_controller,
    save_controller,
    stack_plants,
)
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
from .norms import _h2_norms, _hinf_norms, _pole_grids
from .statespace import FrequencyKernel, PartitionedSystem, Realization, subsystem
from .synth import (
    OptimizeOptions,
    StructureOptions,
    SynthesisProblem,
    init_from_nominal,
    optimize,
)
from .textio import DataReader, format_row, write_lines

SCENARIOS = ("beam", "building", "custom")
METRICS = ("hinf", "h2")


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


def _key(key, default, parse=None):
    """A RunConfig field set by config key ``key``; ``parse`` turns the value
    text into the field's value, in place of the field's type."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class RunConfig:
    """Parsed run configuration; each field declares its key and default."""

    scenario: str = _key("scenario", "")
    grid: tuple = _key("grid", (), _parse_floats)
    n_k: int = _key("n_k", 2)
    n_delta: int = _key("n_delta", 1)
    controller_class: str = _key("class", "full-hinf")
    dependency: str = _key("dependency", "affine")
    ak_shape: str = _key("ak_shape", "full")
    wk_kind: str = _key("wk.kind", "first-order-lag")
    wk_gain: float = _key("wk.gain", 0.1)
    wk_corner: float = _key("wk.corner", 100.0)
    wk_wm: float = _key("wk.wm", 5.2)
    wk_alpha: float = _key("wk.alpha", 10.0)
    wk_m: float = _key("wk.m", 0.1)
    wk_rho_scaled: bool = _key("wk.rho_scaled", False, _parse_bool)
    opt_max_iter: int = _key("opt.max_iter", 500)
    opt_restarts: int = _key("opt.restarts", 3)
    opt_seed: int = _key("opt.seed", 0)
    opt_nominal_index: int = _key("opt.nominal_index", -1)  # -1: middle of the grid
    opt_refine_rounds: int = _key("opt.refine_rounds", 2)
    sweep_rho_min: float = _key("sweep.rho_min", None)  # None: the grid's range
    sweep_rho_max: float = _key("sweep.rho_max", None)
    sweep_n_points: int = _key("sweep.n_points", 21)
    sweep_metric: str = _key("sweep.metric", "hinf")
    beam_n_elements: int = _key("beam.n_elements", 15)
    building_n_modes: int = _key("building.n_modes", 24)
    building_peak_omega: float = _key("building.peak_omega", 5.2)
    building_seed: int = _key("building.seed", 0)
    custom_plants: tuple = _key("custom.plants", (), _parse_paths)
    custom_n_u: int = _key("custom.n_u", 1)
    custom_n_y: int = _key("custom.n_y", 1)
    io_controller: str = _key("io.controller", "controller.txt")
    io_trace: str = _key("io.trace", "trace.csv")
    io_summary: str = _key("io.summary", "summary.txt")


def parse_config(path):
    """Parse a flat key=value config file into a validated RunConfig."""
    try:
        data = DataReader(path)
    except ParseError as exc:
        # DataReader raises from the open or decode error it met
        raise ConfigError(f"cannot read config {path}: {exc.__cause__}") from exc.__cause__
    by_key = {f.metadata["key"]: f for f in fields(RunConfig)}
    cfg = RunConfig()
    for lineno, line in data.lines:
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in by_key:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        f = by_key[key]
        try:
            setattr(cfg, f.name, (f.metadata["parse"] or f.type)(value.strip()))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc

    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"{path}: key 'scenario' must be one of {SCENARIOS}")
    if not cfg.grid:
        raise ConfigError(f"{path}: key 'grid' is required and must be nonempty")
    if not np.isfinite(cfg.grid).all():
        raise ConfigError(f"{path}: key 'grid' must hold finite values")
    if cfg.sweep_metric not in METRICS:
        raise ConfigError(f"{path}: key 'sweep.metric' must be one of {METRICS}")
    if cfg.sweep_rho_min is None:
        cfg.sweep_rho_min = min(cfg.grid)
    if cfg.sweep_rho_max is None:
        cfg.sweep_rho_max = max(cfg.grid)
    lo, hi = cfg.sweep_rho_min, cfg.sweep_rho_max
    if not (-np.inf < lo <= min(cfg.grid) and max(cfg.grid) <= hi < np.inf):
        raise ConfigError(
            f"{path}: sweep bounds [{lo}, {hi}] must be finite and cover the grid range"
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
        cfg = self.cfg
        key = float(rho)
        if cfg.scenario == "custom":
            # Custom plants exist only at the grid values; sweeps between
            # them evaluate the controller against the nearest grid plant,
            # cached under that grid value.
            idx = int(np.argmin([abs(g - key) for g in cfg.grid]))
            key = cfg.grid[idx]
        if key not in self._plants:
            if cfg.scenario == "beam":
                beam = timoshenko_beam(
                    BeamSpec(length=key, n_elements=cfg.beam_n_elements)
                )
                self._plants[key] = beam_generalized_plant(beam)
            elif cfg.scenario == "building":
                self._plants[key] = lah_generalized_plant(self._base_building(), key)
            else:
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
        magnitude curves that compare attenuation across parameter values:
        the building's plant at rho = 1, built once."""
        return self.plant(1.0 if self.cfg.scenario == "building" else rho)

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


def _write_csv(path, header, rows):
    write_lines(path, [",".join(header)] + [format_row(row, ",") for row in rows])


EXIT_BY_STATUS = {"converged": 0, "iteration-limit": 2}


def cmd_synth(config_path):
    cfg = parse_config(config_path)
    scn, problem = build_problem(cfg)
    opts = make_options(cfg)
    try:
        kb0 = init_from_nominal(problem, cfg.opt_nominal_index, opts)
        result = optimize(problem, kb0, opts)
    except StabilizationFailedError as exc:
        print(f"synth: {exc}", file=sys.stderr)
        return 3

    save_controller(result.controller, cfg.io_controller)
    _write_csv(
        cfg.io_trace,
        ("iter", "objective", "max_abscissa", "step_norm", "wall_ms"),
        [(r.iteration, r.objective, r.max_abscissa, r.step_norm, r.wall_ms)
         for r in result.trace],
    )
    lines = [
        f"status: {result.status}",
        f"gamma: {format_row([result.gamma])}",
        f"free_params: {count_free_params(result.controller)}",
        f"grid: {format_row(problem.grid)}",
        f"per_point_norms: {format_row(result.per_point_norms)}",
        f"per_point_perf_norms: {format_row(result.per_point_perf_norms)}",
        f"per_point_wk_norms: {format_row(result.per_point_wk_norms)}",
    ]
    write_lines(cfg.io_summary, lines)
    print(f"synth: {result.status}, gamma = {result.gamma:.6g}")
    return EXIT_BY_STATUS[result.status]


def _sweep_values(cfg):
    return np.linspace(cfg.sweep_rho_min, cfg.sweep_rho_max, cfg.sweep_n_points)


def _closed_stacks(kb, plants, rhos):
    """Indices of the sweep values ``rhos`` in groups whose ``plants`` share
    their state order and channel partitions, and each group's loops from
    one lft.close_grid pass (closed loops and well-posed mask)."""
    groups = {}
    for i, p in enumerate(plants):
        groups.setdefault((p.sys.n, p.input_partition, p.output_partition), []).append(i)
    for idx in map(np.array, groups.values()):
        loops = close_grid(stack_plants([plants[i] for i in idx]), kb, rhos[idx])
        yield idx, loops.closed, loops.well_posed


def _sweep_metric(closed, metric):
    """Metric values (M,) of stacked closed loops: ``inf`` where a loop is
    unstable, NaN where its norm is numerically out of reach."""
    m = closed.a.shape[0]
    try:
        return _h2_norms(closed) if metric == "h2" else _hinf_norms(closed, 1e-6)[0]
    except NumericalError:
        if m == 1:
            return np.array([np.nan])
    # the stacked pass failed: evaluate each loop as a stack of one, so that
    # only the loops whose own norm fails lose their value
    return np.concatenate(
        [_sweep_metric(Realization(*(x[j : j + 1] for x in closed)), metric) for j in range(m)]
    )


def cmd_eval(controller_path, config_path, out_path):
    """Write the sweep CSV: one row ``rho, metric_value, closed_loop_stable``
    per sweep value.

    The whole sweep is instantiated, closed and evaluated in one stacked
    pass (one per plant state order in the custom scenario), for either
    metric.  A value whose controller or feedback loop is ill posed, which
    the well-posed mask of the pass marks, is not evaluated; it and an
    unstable loop get an empty value and flag 0.  When the stacked norm
    fails numerically, each loop is evaluated alone, and only a loop whose
    own norm fails gets an empty value, with flag 1.
    """
    cfg = parse_config(config_path)
    kb = load_controller(controller_path)
    scn = Scenario(cfg)
    metric = cfg.sweep_metric
    rhos = _sweep_values(cfg)
    plant = scn.plant if metric == "hinf" else scn.measurement_plant
    plants = [plant(rho) for rho in rhos]
    values = np.full(rhos.size, np.inf)  # an ill-posed value keeps inf
    for idx, closed, well_posed in _closed_stacks(kb, plants, rhos):
        if not well_posed.all():
            closed = Realization(*(x[well_posed] for x in closed))
        values[idx[well_posed]] = _sweep_metric(closed, metric)
    rows = [
        (rho, value if np.isfinite(value) else None, int(value != np.inf))
        for rho, value in zip(rhos, values.tolist())
    ]
    _write_csv(out_path, ("rho", "metric_value", "closed_loop_stable"), rows)
    return 0


def cmd_bode(controller_path, config_path, rho_list, out_path):
    cfg = parse_config(config_path)
    kb = load_controller(controller_path)
    scn = Scenario(cfg)
    open_loop = scn.open_loop()
    # one eigendecomposition of the open loop serves its grid and its curve
    open_kernel = FrequencyKernel(open_loop)
    omegas = (np.array([1.0]) if open_loop.is_static
              else _pole_grids(open_kernel.poles, 200)[0])

    rhos = np.array(rho_list, dtype=float)
    plants = [scn.measurement_plant(rho) for rho in rhos]
    closed_sigma = np.empty((rhos.size, omegas.size))
    for idx, closed, well_posed in _closed_stacks(kb, plants, rhos):
        if not well_posed.all():
            rho = rhos[idx[np.argmin(well_posed)]]
            raise IllPosedLFTError(f"ill-posed controller or feedback loop at rho = {rho:g}")
        closed_sigma[idx] = FrequencyKernel(closed).sigma(omegas)
    header = ["omega", "open_loop"] + [f"rho_{rho:g}" for rho in rho_list]
    rows = np.column_stack([omegas, open_kernel.sigma(omegas)[0], *closed_sigma]).tolist()
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
            if not rhos or not np.isfinite(rhos).all():
                raise ConfigError(f"--rho must list finite values, got {args.rho!r}")
            return cmd_bode(args.controller, args.config, rhos, args.out)
        if args.command == "model":
            return cmd_model_gen(args.scenario, args.out, args.config, args.rho)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LfsynthError, OSError) as exc:
        # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
