"""The benchmark's tracer (perfbench/tracing.py) looks up every function it
wraps by name, so a function renamed or deleted in lfsynth must also leave
its ``TRACED`` table, or every traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"lfsynth.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"lfsynth.{layer} has no {missing}"
