"""floatlab benchmark: one workload per process, result as one JSON line.

    python3 perfbench/run.py --workload lqr-heave --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run

1. launches fresh interpreters ("set-up probes") that import
   ``floatlab.cli`` and build the workload's grids and generators: one
   untimed probe that fills the bytecode and file caches, then
   ``PROBES_BEFORE`` timed ones;
2. runs one untimed warm-up pass on a coarse grid;
3. runs whole passes of the workload's operations, starting another only
   while it should end within ``--seconds`` of passes and checks (the
   first always runs), checking every output after each pass, outside the
   timer, and launching ``PROBES_PER_PASS`` timed probes after each pass,
   outside the ``--seconds`` too: ``wall_s`` is the median pass time;
4. with ``--trace 1``, measures for twice ``--seconds`` instead, with
   untraced and traced passes in turn, and reports the per-layer metrics
   instead of the end-to-end ones;
5. launches timed probes until there are ``SETUP_PROBES``: ``setup_s`` is
   the median launch-to-ready time of the timed probes.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
the operations of the timed passes, ``failed`` those that raised, exited
non-zero or failed an output check.  A non-zero exit code means the
benchmark could not run at all (2: no ``src/floatlab`` or an unknown
workload).
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every process it starts: the
# machine has two cores, and the set-up probes never overlap the work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "results"
#: Timed set-up probes in a run: ``PROBES_BEFORE`` before the warm-up pass,
#: ``PROBES_PER_PASS`` after each measured pass while at least
#: ``PROBES_AFTER`` remain, and the rest after the last pass.  Their median
#: is reported: see README.md, "BLAS and steadiness".
SETUP_PROBES = 10
PROBES_BEFORE = 3
PROBES_PER_PASS = 2
PROBES_AFTER = 3
PROBE_TIMEOUT_S = 60


def probe_setup(workload, seed, count):
    """Launch ``count`` set-up probes one after another; (launch-to-ready s, import s) each."""
    probes = []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        probes.append((ready - start, float(fields[1])))
    return probes


def run_pass(workload, out, tracer=None):
    """One pass: (seconds, operation names, {failed operation: reasons})."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    ops = workload.operations(out)
    results, failed = {}, {}
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        for name, fn in ops:
            try:
                results[name] = fn()
            except Exception:  # an operation that raises counts as failed
                failed[name] = [traceback.format_exc()]
    finally:
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.remove()
    try:
        verdicts = workload.check(results, out)
    except Exception:  # a check that cannot read its output fails every unjudged operation
        verdicts = {name: [traceback.format_exc()] for name, _ in ops}
    for name, _ in ops:
        if name not in failed and verdicts.get(name, ["no verdict"]):
            failed[name] = verdicts.get(name, ["no verdict"])
    return seconds, [name for name, _ in ops], failed


def measure(workload, out, seconds, between, tracer_factory=None):
    """Whole passes, each started only if it should end within ``seconds``.

    A pass (with its checks) is expected to take as long as the one before;
    the first pass always runs.  ``between()`` runs after every pass; its
    time does not count towards ``seconds``.  With ``tracer_factory``,
    passes alternate untraced and traced (at least one of each), so drift in
    the machine's speed falls on both alike.  Returns (untraced times,
    traced times, attempted, failed, tracers).
    """
    times, traced, attempted, failed, tracers = [], [], 0, 0, []
    used, last = 0.0, 0.0
    while (not times or (tracer_factory and not tracers) or used + last <= seconds):
        tracer = tracer_factory() if tracer_factory and len(tracers) < len(times) else None
        pass_start = perf_counter()
        wall, ops, fails = run_pass(workload, out, tracer)
        last = perf_counter() - pass_start
        used += last
        (traced if tracer else times).append(wall)
        attempted += len(ops)
        failed += len(fails)
        for name, reasons in fails.items():
            print(f"FAILED {workload.name}/{name}: {'; '.join(reasons)}", file=sys.stderr)
        print(f"{'traced ' if tracer else ''}pass: {wall:.3f} s, {len(fails)} failed",
              file=sys.stderr)
        if tracer:
            tracers.append(tracer)
        between()
    return times, traced, attempted, failed, tracers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "floatlab" / "cli.py").is_file():
        print(f"floatlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    probe_setup(args.workload, args.seed, 1)  # fills the bytecode and file caches
    probes = probe_setup(args.workload, args.seed, PROBES_BEFORE)

    def between():
        count = min(PROBES_PER_PASS, SETUP_PROBES - PROBES_AFTER - len(probes))
        if count > 0:
            probes.extend(probe_setup(args.workload, args.seed, count))

    out = WORK / f"{args.workload}-{os.getpid()}"
    try:
        run_pass(cls.warm(args.seed), out)
        workload = cls(args.seed)
        if args.trace:
            times, traced, attempted, failed, tracers = measure(workload, out, 2 * args.seconds,
                                                                between, Tracer)
            per_pass = [layer_metrics(t) for t in tracers]
            layers = per_pass[0]  # counts repeat exactly; times take the median
            for name in layers:
                if name.endswith("_s"):
                    layers[name] = (statistics.median(p[name][0] for p in per_pass), "s")
            probes += probe_setup(args.workload, args.seed, SETUP_PROBES - len(probes))
            layers["cli.import_s"] = (statistics.median(imp for _, imp in probes), "s")
            layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(times),
                                          "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
            RESULTS.mkdir(exist_ok=True)
            with open(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "untraced_s": times, "traced_s": traced,
                           "functions": tracers[0].function_table(), "metrics": metrics},
                          fh, indent=1)
        else:
            times, _, attempted, failed, _ = measure(workload, out, args.seconds, between)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            probes += probe_setup(args.workload, args.seed, SETUP_PROBES - len(probes))
            print("set-up probes: " + " ".join(f"{wall:.3f}" for wall, _ in probes),
                  file=sys.stderr)
            metrics = {"setup_s": {"value": statistics.median(wall for wall, _ in probes),
                                   "unit": "s"},
                       "wall_s": {"value": statistics.median(times), "unit": "s"},
                       "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
