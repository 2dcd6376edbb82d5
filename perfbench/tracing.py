"""Span tracing around the public functions of lfsynth's layers.

The benchmark's traced run installs a ``Tracer``: every function named in
``TRACED`` is replaced by a timing wrapper in the module that defines it and
in every lfsynth module that imported it by name (``hinf_norm``, for one, is
bound in ``norms``, ``synth``, ``cli``, ``models`` and the package itself).
Calls between lfsynth modules go through those module globals, so nested
calls become child spans.  Spans stay in memory as (name, start, end, parent)
and are written out once the run ends.  The program's numbers are unchanged:
a wrapper only reads the clock around the call.

The span stack assumes one thread, which the benchmark enforces with
``LFSYNTH_THREADS=1``.
"""

import functools
import sys
import time
from collections import defaultdict

# layer (module of lfsynth) -> public functions traced in it
TRACED = {
    "synth": ("init_from_nominal", "optimize", "stabilize"),
    "lft": ("eval_controller_matrices", "eval_controller", "closed_loop_matrices",
            "lower_lft_ss", "load_controller", "save_controller"),
    "norms": ("hinf_norm", "h2_norm", "default_frequency_grid"),
    "statespace": ("frequency_gain", "spectral_abscissa", "series", "append_diag",
                   "subsystem"),
    "matops": ("eigenvalues", "max_singular_value", "solve_linear", "solve_lyapunov"),
    "models": ("timoshenko_beam", "beam_generalized_plant", "building_surrogate",
               "lah_generalized_plant", "make_weight"),
    "cli": ("main", "parse_config", "build_problem", "cmd_eval", "cmd_bode"),
}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.names = []  # span name per name id, "layer.function"
        self.spans = []  # [name id, start, end, parent span index or -1]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrapper(self, name_id, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "lfsynth" or n.startswith("lfsynth.")) and m is not None]
        wrappers = {}
        for layer, functions in TRACED.items():
            home = sys.modules[f"lfsynth.{layer}"]
            for fname in functions:
                fn = getattr(home, fname)
                self.names.append(f"{layer}.{fname}")
                wrappers[id(fn)] = (fn, self._wrapper(len(self.names) - 1, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        """Spans as tab-separated ``name start end parent`` lines (seconds)."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def summarize(tracer, nested=()):
    """Per-function call counts, wall and self times, and for each
    ``(name, ancestor)`` pair in ``nested`` the calls of ``name`` made
    (directly or not) inside a span of ``ancestor``.

    A span's self time is its duration minus the durations of its child
    spans; children of one span never overlap on a single thread.
    """
    spans, names = tracer.spans, tracer.names
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    wall = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name_id, start, end, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        wall[name] += end - start
        self_s[name] += end - start - child[i]
    under = {}
    for name, ancestor in nested:
        ids = {i for i, n in enumerate(names) if n == name}
        anc_ids = {i for i, n in enumerate(names) if n == ancestor}
        count = 0
        for name_id, _, _, parent in spans:
            if name_id not in ids:
                continue
            while parent >= 0 and spans[parent][0] not in anc_ids:
                parent = spans[parent][3]
            count += parent >= 0
        under[(name, ancestor)] = count
    return calls, wall, self_s, under
