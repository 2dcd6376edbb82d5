#!/usr/bin/env python3
"""The paper's two campaigns.  Each synthesizes a parametric and a nominal
controller, sweeps both over the parameter, and emits the CSV data behind
the comparison plots (metric versus parameter, magnitude curves).

* beam: clamped beam over its length, H-infinity sweep.
* building: one controller family with parameter-scheduled attenuation
  strength, H2 sweep against the fixed measurement output.

Usage: python scripts/run_experiment.py {beam,building} [--outdir DIR] [--quick]

Exits with the worst code of its lfsynth commands (see worst).
"""

import argparse
import os
import sys
from typing import NamedTuple

from lfsynth.cli import main as cli_main


class Study(NamedTuple):
    config: str  # config template, without the io lines
    grid: str  # the parametric controller's grid
    nominal_grid: str  # the nominal controller's one-point grid
    n_delta: int  # parameter repetitions of the parametric controller
    full: dict  # budget (template values) of a full run
    quick: dict  # and of a --quick smoke run
    sweep: str  # name of the sweep CSVs: {sweep}_{tag}.csv
    rho: str  # the bode --rho list


STUDIES = {
    "beam": Study(
        """\
scenario = beam
grid = {grid}
beam.n_elements = 15
n_k = 2
n_delta = {n_delta}
class = full-hinf
dependency = affine
ak_shape = full
wk.kind = first-order-lag
wk.gain = 0.1
wk.corner = 100
opt.max_iter = {max_iter}
opt.restarts = {restarts}
opt.seed = 0
sweep.rho_min = 10
sweep.rho_max = 20
sweep.n_points = 21
sweep.metric = hinf
""",
        grid="10, 12.5, 15, 17.5, 20",
        nominal_grid="15",
        n_delta=1,
        full={"max_iter": 200, "restarts": 3},
        quick={"max_iter": 40, "restarts": 2},
        sweep="sweep",
        rho="10,15,20",
    ),
    "building": Study(
        """\
scenario = building
grid = {grid}
building.n_modes = {n_modes}
building.peak_omega = 5.2
building.seed = 0
n_k = 4
n_delta = {n_delta}
class = full-hinf
dependency = affine
ak_shape = tridiagonal
wk.kind = biquad-notch
wk.wm = 5.2
wk.alpha = 10
wk.m = 0.1
wk.rho_scaled = true
opt.max_iter = {max_iter}
opt.restarts = {restarts}
opt.seed = 0
sweep.rho_min = 0.5
sweep.rho_max = 1.5
sweep.n_points = 21
sweep.metric = h2
""",
        grid="0.5, 0.75, 1.0, 1.25, 1.5",
        nominal_grid="1.0",
        n_delta=3,
        full={"n_modes": 6, "max_iter": 250, "restarts": 3},
        quick={"n_modes": 4, "max_iter": 40, "restarts": 2},
        sweep="h2_sweep",
        rho="0.5,1.0,1.5",
    ),
}

IO = """\
io.controller = {outdir}/controller_{tag}.txt
io.trace = {outdir}/trace_{tag}.csv
io.summary = {outdir}/summary_{tag}.txt
"""


def worst(codes):
    """The exit code to report for several commands: an error (1) outranks
    every synthesis status, then 3 (stabilization failed) outranks 2."""
    return max(codes, key=lambda code: (code == 1, code))


def run(name, outdir, quick):
    study = STUDIES[name]
    os.makedirs(outdir, exist_ok=True)
    budget = study.quick if quick else study.full
    cfgs = {
        tag: os.path.join(outdir, f"{name}_{tag}.cfg") for tag in ("parametric", "nominal")
    }

    # The parametric family over the grid, then a parameter-independent
    # controller synthesized at the nominal value only (the sweep still spans
    # the full range).
    codes = []
    for tag, grid, n_delta in (
        ("parametric", study.grid, study.n_delta), ("nominal", study.nominal_grid, 0)
    ):
        with open(cfgs[tag], "w") as fh:
            fh.write((study.config + IO).format(
                grid=grid, n_delta=n_delta, outdir=outdir, tag=tag, **budget
            ))
        codes.append(cli_main(["synth", "--config", cfgs[tag]]))
        if codes == [3]:
            return 3  # no parametric controller to compare

    for tag, cfg in cfgs.items():
        codes.append(cli_main(
            ["eval", "--controller", f"{outdir}/controller_{tag}.txt",
             "--config", cfg, "--out", f"{outdir}/{study.sweep}_{tag}.csv"]
        ))
        codes.append(cli_main(
            ["bode", "--controller", f"{outdir}/controller_{tag}.txt",
             "--config", cfg, "--rho", study.rho,
             "--out", f"{outdir}/bode_{tag}.csv"]
        ))
    print(f"wrote controller/trace/summary/sweep/bode files under {outdir}")
    return worst(codes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("study", choices=sorted(STUDIES))
    parser.add_argument("--outdir", help="output directory (default results/STUDY)")
    parser.add_argument("--quick", action="store_true",
                        help="small iteration budget (and building model) for a smoke run")
    args = parser.parse_args()
    sys.exit(run(args.study, args.outdir or f"results/{args.study}", args.quick))
