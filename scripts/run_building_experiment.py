#!/usr/bin/env python3
"""Building campaign: one controller family with parameter-scheduled
attenuation strength.  Emits the attenuation-versus-parameter sweep (H2
metric against the fixed measurement output) and magnitude curves at a few
parameter values.

Usage: python scripts/run_building_experiment.py --outdir results/building [--quick]

Exits with the worst code of its lfsynth commands (see worst).
"""

import argparse
import os
import sys

from lfsynth.cli import main as cli_main


CONFIG = """\
scenario = building
grid = 0.5, 0.75, 1.0, 1.25, 1.5
building.n_modes = {n_modes}
building.peak_omega = 5.2
building.seed = 0
n_k = 4
n_delta = 3
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
io.controller = {outdir}/controller_{tag}.txt
io.trace = {outdir}/trace_{tag}.csv
io.summary = {outdir}/summary_{tag}.txt
"""


def worst(codes):
    """The exit code to report for several commands: an error (1) outranks
    every synthesis status, then 3 (stabilization failed) outranks 2."""
    return max(codes, key=lambda code: (code == 1, code))


def run(outdir, quick):
    os.makedirs(outdir, exist_ok=True)
    n_modes = 4 if quick else 6
    max_iter = 40 if quick else 250
    restarts = 2 if quick else 3

    cfg_par = os.path.join(outdir, "building_parametric.cfg")
    with open(cfg_par, "w") as fh:
        fh.write(CONFIG.format(outdir=outdir, tag="parametric", n_modes=n_modes,
                               max_iter=max_iter, restarts=restarts))
    codes = [cli_main(["synth", "--config", cfg_par])]
    if codes[0] == 3:
        return 3

    # Parameter-independent controller synthesized at the unit performance
    # level only (single-point grid; the sweep still spans the full range).
    cfg_nom = os.path.join(outdir, "building_nominal.cfg")
    with open(cfg_nom, "w") as fh:
        fh.write(
            CONFIG.format(outdir=outdir, tag="nominal", n_modes=n_modes,
                          max_iter=max_iter, restarts=restarts)
            .replace("n_delta = 3", "n_delta = 0")
            .replace("grid = 0.5, 0.75, 1.0, 1.25, 1.5", "grid = 1.0")
        )
    codes.append(cli_main(["synth", "--config", cfg_nom]))

    for tag, cfg in (("parametric", cfg_par), ("nominal", cfg_nom)):
        codes.append(cli_main(
            ["eval", "--controller", f"{outdir}/controller_{tag}.txt",
             "--config", cfg, "--out", f"{outdir}/h2_sweep_{tag}.csv"]
        ))
        codes.append(cli_main(
            ["bode", "--controller", f"{outdir}/controller_{tag}.txt",
             "--config", cfg, "--rho", "0.5,1.0,1.5",
             "--out", f"{outdir}/bode_{tag}.csv"]
        ))
    print(f"wrote controller/trace/summary/sweep/bode files under {outdir}")
    return worst(codes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/building")
    parser.add_argument("--quick", action="store_true",
                        help="small model and iteration budget for a smoke run")
    args = parser.parse_args()
    sys.exit(run(args.outdir, args.quick))
