"""lfsynth runs on numpy alone: importing it, building a problem and taking
both norms load no scipy.

The check runs in a fresh interpreter, since other tests import scipy into
this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path

import lfsynth
import lfsynth.cli
from lfsynth.cli import build_problem, parse_config

inputs = Path(sys.argv[1])
for name in ("beam.cfg", "building.cfg"):
    scn, problem = build_problem(parse_config(str(inputs / name)))
hinf = lfsynth.hinf_norm(scn.open_loop()).value


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


before = scipy_modules()
a = 2.0
h2 = lfsynth.h2_norm(lfsynth.StateSpace([[-a]], [[1.0]], [[1.0]], [[0.0]]))
print(json.dumps({"hinf": hinf, "scipy_before": before, "h2": h2,
                  "scipy_after": scipy_modules()}))
"""


def test_no_scipy_loads():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "inputs")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["hinf"] > 0.0
    assert result["scipy_before"] == []
    assert abs(result["h2"] - 1.0 / 2.0) < 1e-12  # 1 / sqrt(2 a), a = 2
    assert result["scipy_after"] == []
