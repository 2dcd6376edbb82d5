#!/usr/bin/env python3
"""Regenerate the controller files that the eval-sweep workload reads.

Usage (from the repository root):

    python3 perfbench/make_inputs.py

Runs the beam and building synthesis problems (the committed configs
``perfbench/inputs/beam.cfg`` and ``building.cfg``: their seeds, grids and
campaign budgets) exactly as ``lfsynth synth`` does, with BLAS on one thread, and
writes ``perfbench/inputs/{beam,building}_controller.txt``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "LFSYNTH_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def main():
    from lfsynth import lft
    from workloads import INPUTS, SynthWorkload

    for name in ("beam", "building"):
        workload = SynthWorkload(f"{name}.cfg")
        workload.setup(None)
        _, result = workload.run_round()
        out = INPUTS / f"{name}_controller.txt"
        lft.save_controller(result.controller, str(out))
        print(f"{out}: gamma = {result.gamma!r} ({result.status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
