#!/usr/bin/env python3
"""lfsynth benchmark: one workload per run, end-to-end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload building-synth --seed 1 --seconds 10 --trace 0

Workloads: building-synth, eval-sweep (see README.md).  A run
repeats whole rounds of its workload until ``--seconds`` have passed (at
least one round), checks the outputs against the numpy oracle, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one more round runs with every public lfsynth function wrapped
in a span, and the metrics are the per-layer ones.  Run records and span
files go to ``.perfbench_out/`` in the repository root.
"""

import os

# Pinned before numpy loads: BLAS and lfsynth's own pool run one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "LFSYNTH_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7

END_TO_END = (("setup_s", "s"), ("task_ref", "ref"), ("gamma", "1"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("synth.self_s", "s"), ("synth.init_from_nominal.wall_s", "s"),
    ("synth.optimize.calls", "count"), ("synth.stabilize.calls", "count"),
    ("synth.stabilize.wall_s", "s"), ("synth.block_evals", "count"),
    ("lft.eval_controller_matrices.calls", "count"),
    ("lft.eval_controller_matrices.self_s", "s"),
    ("lft.closed_loop_matrices.calls", "count"), ("lft.closed_loop_matrices.self_s", "s"),
    ("lft.load_controller.self_s", "s"),
    ("norms.hinf_norm.calls", "count"), ("norms.hinf_norm.self_s", "s"),
    ("norms.hinf_norm.wall_s", "s"), ("norms.hinf_norm.mean_ms", "ms"),
    ("statespace.frequency_gain.calls", "count"), ("statespace.frequency_gain.self_s", "s"),
    ("statespace.frequency_gain.calls_per_norm", "count"),
    ("statespace.spectral_abscissa.calls", "count"),
    ("statespace.spectral_abscissa.self_s", "s"),
    ("norms.h2_norm.calls", "count"), ("norms.h2_norm.self_s", "s"),
    ("matops.calls", "count"), ("matops.self_s", "s"),
    ("models.self_s", "s"), ("models.timoshenko_beam.calls", "count"),
    ("cli.cmd_eval.wall_s", "s"), ("cli.cmd_bode.wall_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("building-synth", "eval-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (times set-up in a fresh process)")
    return p.parse_args(argv)


def environment():
    """Library versions, thread settings and core count of this run."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def time_setup(args):
    """Seconds from starting a fresh process until it reports the workload set
    up: interpreter start, the lfsynth import and the problem's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def timed_rounds(workload, seconds):
    """Whole rounds until ``seconds`` have passed, each between two passes of
    the reference computation.  Returns the round times, the reference times
    (one more than the rounds), the first round's output and whether every
    later round reproduced it bit for bit."""
    times, refs, first, same = [], [reference.seconds()], None, True
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        output = workload.run_round()
        times.append(time.perf_counter() - t0)
        refs.append(reference.seconds())
        if first is None:
            first = output
        else:
            same = same and workload.fingerprint(output) == workload.fingerprint(first)
    return times, refs, first, same


def relative_times(times, refs):
    """Each round's time over the mean of the reference passes around it."""
    return [t / (0.5 * (before + after)) for t, before, after in zip(times, refs, refs[1:])]


def layer_metrics(tracer, grid_size, overhead_s):
    from tracing import summarize

    ecm, fg, hinf = ("lft.eval_controller_matrices", "statespace.frequency_gain",
                     "norms.hinf_norm")
    init, opt = "synth.init_from_nominal", "synth.optimize"
    calls, wall, self_s, under = summarize(
        tracer, nested=((ecm, init), (ecm, opt), (fg, hinf)))

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    # The nominal synthesis inside init_from_nominal has a one-point grid.
    nominal_evals = under[(ecm, init)]
    block_evals = nominal_evals + (under[(ecm, opt)] - nominal_evals) / grid_size
    n_hinf = calls[hinf]
    return {
        "synth.self_s": layer("synth", self_s),
        "synth.init_from_nominal.wall_s": wall[init],
        "synth.optimize.calls": calls[opt],
        "synth.stabilize.calls": calls["synth.stabilize"],
        "synth.stabilize.wall_s": wall["synth.stabilize"],
        "synth.block_evals": block_evals,
        "lft.eval_controller_matrices.calls": calls[ecm],
        "lft.eval_controller_matrices.self_s": self_s[ecm],
        "lft.closed_loop_matrices.calls": calls["lft.closed_loop_matrices"],
        "lft.closed_loop_matrices.self_s": self_s["lft.closed_loop_matrices"],
        "lft.load_controller.self_s": self_s["lft.load_controller"],
        "norms.hinf_norm.calls": n_hinf,
        "norms.hinf_norm.self_s": self_s[hinf],
        "norms.hinf_norm.wall_s": wall[hinf],
        "norms.hinf_norm.mean_ms": 1e3 * wall[hinf] / n_hinf if n_hinf else 0.0,
        "statespace.frequency_gain.calls": calls[fg],
        "statespace.frequency_gain.self_s": self_s[fg],
        "statespace.frequency_gain.calls_per_norm": under[(fg, hinf)] / n_hinf if n_hinf else 0.0,
        "statespace.spectral_abscissa.calls": calls["statespace.spectral_abscissa"],
        "statespace.spectral_abscissa.self_s": self_s["statespace.spectral_abscissa"],
        "norms.h2_norm.calls": calls["norms.h2_norm"],
        "norms.h2_norm.self_s": self_s["norms.h2_norm"],
        "matops.calls": layer("matops", calls),
        "matops.self_s": layer("matops", self_s),
        "models.self_s": layer("models", self_s),
        "models.timoshenko_beam.calls": calls["models.timoshenko_beam"],
        "cli.cmd_eval.wall_s": wall["cli.cmd_eval"],
        "cli.cmd_bode.wall_s": wall["cli.cmd_bode"],
        "cli.self_s": layer("cli", self_s),
        "trace.overhead_s": overhead_s,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lfsynth" / "__init__.py").is_file():
        print(f"error: lfsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import lfsynth
    from workloads import WORKLOADS

    if Path(lfsynth.__file__).resolve().parent != SRC / "lfsynth":
        print(f"error: imported lfsynth from {lfsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(workdir)
        print("ready", flush=True)
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    setup_times = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPEATS)]
    workload.setup(workdir)
    times, refs, output, consistent = timed_rounds(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(times)
    gamma = workload.gamma(output)
    traced_s = None

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            workload.setup(workdir)
            ref_before = reference.seconds()
            t0 = time.perf_counter()
            traced = workload.run_round()
            traced_s = time.perf_counter() - t0
            ref_after = reference.seconds()
        finally:
            tracer.uninstall()
        # The untraced round's expected time at the host speed of the traced
        # round, from the median relative time and the reference around it.
        expected_s = (statistics.median(relative_times(times, refs))
                      * 0.5 * (ref_before + ref_after))
        rounds += 1
        consistent = consistent and workload.fingerprint(traced) == workload.fingerprint(output)
        tracer.write(workdir / "spans.tsv")
        grid_size = len(workload.problem.grid) if hasattr(workload, "problem") else 1
        values = layer_metrics(tracer, grid_size, traced_s - expected_s)
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "task_ref": statistics.median(relative_times(times, refs)),
                  "gamma": gamma,
                  "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)

    rng = np.random.default_rng(args.seed % 2**32)
    failed_per_round, errors = workload.check(output, rng)
    for line in errors:
        print(f"check failed: {line}")
    attempted = workload.ops_per_round * rounds
    failed = failed_per_round * rounds
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "rounds": rounds, "round_s": times,
              "reference_s": refs,
              "traced_round_s": traced_s,
              "setup_s": setup_times, "gamma": gamma, "consistent": consistent,
              "attempted": attempted, "failed": failed, "check_failures": errors,
              "metrics": metrics}
    (workdir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"gamma = {gamma!r}; rounds = {rounds}; reproduced every round: {consistent}")
    print(f"median round = {statistics.median(times):.4g} s, median reference pass = "
          f"{statistics.median(refs):.4g} s (wall time)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": bool(consistent), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
