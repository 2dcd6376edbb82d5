#!/usr/bin/env python3
"""Clamped-beam campaign: synthesize a nominal and a parametric controller,
sweep both over the beam length, and emit the CSV data behind the comparison
plots (worst-case gain versus length, magnitude curves).

Usage: python scripts/run_beam_experiment.py --outdir results/beam [--quick]

Exits with the worst code of its lfsynth commands (see worst).
"""

import argparse
import os
import sys

from lfsynth.cli import main as cli_main


CONFIG = """\
scenario = beam
grid = 10, 12.5, 15, 17.5, 20
beam.n_elements = 15
n_k = 2
n_delta = 1
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
    max_iter = 40 if quick else 200
    restarts = 2 if quick else 3

    # Parametric family over the length grid.
    cfg_par = os.path.join(outdir, "beam_parametric.cfg")
    with open(cfg_par, "w") as fh:
        fh.write(CONFIG.format(outdir=outdir, tag="parametric",
                               max_iter=max_iter, restarts=restarts))
    codes = [cli_main(["synth", "--config", cfg_par])]
    if codes[0] == 3:
        return 3

    # Length-independent controller synthesized at the nominal length only
    # (single-point grid; the sweep still spans the full length range).
    cfg_nom = os.path.join(outdir, "beam_nominal.cfg")
    with open(cfg_nom, "w") as fh:
        fh.write(
            CONFIG.format(outdir=outdir, tag="nominal",
                          max_iter=max_iter, restarts=restarts)
            .replace("n_delta = 1", "n_delta = 0")
            .replace("grid = 10, 12.5, 15, 17.5, 20", "grid = 15")
        )
    codes.append(cli_main(["synth", "--config", cfg_nom]))

    for tag, cfg in (("parametric", cfg_par), ("nominal", cfg_nom)):
        codes.append(cli_main(
            ["eval", "--controller", f"{outdir}/controller_{tag}.txt",
             "--config", cfg, "--out", f"{outdir}/sweep_{tag}.csv"]
        ))
        codes.append(cli_main(
            ["bode", "--controller", f"{outdir}/controller_{tag}.txt",
             "--config", cfg, "--rho", "10,15,20",
             "--out", f"{outdir}/bode_{tag}.csv"]
        ))
    print(f"wrote controller/trace/summary/sweep/bode files under {outdir}")
    return worst(codes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/beam")
    parser.add_argument("--quick", action="store_true",
                        help="small iteration budget for a fast smoke run")
    args = parser.parse_args()
    sys.exit(run(args.outdir, args.quick))
