"""Benchmark of the tpsfem smoother: fit time, query time, set-up, accuracy.

Run from the repository root, for example:

    python3 perfbench/run.py --workload auxiliary-3k --seed 0 --seconds 55 --trace 0

A run is one process with BLAS pinned to one thread, the pinning of
``tpsfem fit --single-thread``.  It builds the workload's data from the
seed, then repeats checked attempts (fit, query, accuracy) for about
``--seconds``, set-up samples included, at least once.  With ``--trace 1``
it instead makes one untraced attempt and one traced attempt, and reports
per-layer metrics of the traced fit; the spans go to ``perfbench/out/``.

Every metric is printed with its unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Metric names and units come from BENCHMARK.json at the repository root.
See README.md next to this file for the workloads and the metrics.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-ups per run: this process plus SETUP_SAMPLES - 1 child processes
SETUP_SAMPLES = 7
#: relative slack allowed between the summed self times and the traced fit
SELF_TIME_TOLERANCE = 1e-9


class ProgramNotFound(Exception):
    """The checkout has no tpsfem sources to benchmark."""


def pin_threads():
    """Same variables as ``tpsfem fit --single-thread``; must precede numpy."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def load_program():
    """Import tpsfem from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tpsfem", "__init__.py")):
        raise ProgramNotFound(f"no tpsfem sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import tpsfem
    found = os.path.dirname(os.path.dirname(os.path.abspath(tpsfem.__file__)))
    if found != src:
        raise ProgramNotFound(f"tpsfem was imported from {found}, not {src}")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # used by the set-up probes
    return p.parse_args(argv)


def probe_setup(args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def try_attempt(workloads, workload, data, seed, tracer=None):
    """One attempt; None when it raised (the traceback goes to stderr)."""
    try:
        outcome = workloads.attempt(workload, data, seed, tracer)
    except Exception:  # any failure of the program counts as a failed run
        traceback.print_exc()
        return None
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return outcome


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workloads, workload, data, setup_s):
    """Untraced attempts for --seconds; returns (attempted, failed, metrics).

    The set-up probes count towards --seconds.  Another attempt starts only
    if at least half an attempt of the median length so far fits in the
    time left, so a run overruns --seconds by at most half an attempt.  The
    first attempt warms caches and lazy imports: it is checked but its
    times count only when it is the only attempt.  Every attempt does the
    same work, so fit and query times are means: the run's average speed,
    which varies less between runs than the median of a few attempts on a
    machine whose speed switches between a fast and a slow state.
    """
    began = time.perf_counter()
    setups = [setup_s] + [probe_setup(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    results, lengths = [], []
    while True:
        t0 = time.perf_counter()
        results.append(try_attempt(workloads, workload, data, args.seed))
        lengths.append(time.perf_counter() - t0)
        left = args.seconds - (time.perf_counter() - began)
        if statistics.median(lengths) > 2 * left:
            break
    attempted = len(results)
    outcomes = [o for o in results if o is not None]
    failed = attempted - sum(1 for o in outcomes if not o.problems)
    timed = [o for o in results[1:] if o is not None] or outcomes
    fits = [o.fit_s for o in timed]
    queries = [q for o in timed for q in o.query_s]
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb()}
    if timed:
        metrics["fit_s"] = statistics.fmean(fits)
        metrics["query_s"] = statistics.fmean(queries)
        metrics["truth_rmse"] = statistics.median(
            o.truth_rmse for o in timed)
        print(f"medians: fit_s {statistics.median(fits)!r}, query_s "
              f"{statistics.median(queries)!r}; slowest: fit_s "
              f"{max(fits)!r}, query_s {max(queries)!r}")
    print(f"{attempted} attempts, {failed} failed; fit_s is the mean of "
          f"{len(fits)} timed attempts, query_s of {len(queries)} calls, "
          f"setup_s the median of {len(setups)} set-ups")
    print(f"fit_s per attempt: {[o.fit_s for o in outcomes]}")
    print(f"query_s per call: {[q for o in outcomes for q in o.query_s]}")
    print(f"setup_s per set-up: {setups}")
    print(f"failed_share = {failed / attempted!r}")
    return attempted, failed, metrics


def measure_traced(args, workloads, workload, data):
    """An untraced then a traced attempt; returns (attempted, failed, metrics).

    The traced run must give the untraced answer, and its self times must
    sum to its fit time.
    """
    import tracing

    plain = try_attempt(workloads, workload, data, args.seed)
    tracer = tracing.Tracer()
    traced = try_attempt(workloads, workload, data, args.seed, tracer)
    plain_ok = plain is not None and not plain.problems
    traced_ok = traced is not None and not traced.problems
    if traced is None:
        return 2, 2 - plain_ok, {}

    metrics = tracing.layer_metrics(tracer)
    last = traced.records[-1]
    metrics.update({
        "driver.iterations": len(traced.records) - 1,
        "driver.nodes_final": last.nodes,
        "driver.alpha_final": last.alpha,
        "driver.rmse_final": last.rmse,
        "indicators.marked_edges": sum(r.marked_edges
                                       for r in traced.records),
        "trace.fit_s": traced.fit_s,
    })
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    if abs(self_sum - traced.fit_s) > SELF_TIME_TOLERANCE * traced.fit_s:
        print(f"check failed: self times sum to {self_sum!r} s, traced fit "
              f"took {traced.fit_s!r} s", file=sys.stderr)
        traced_ok = False
    if plain is not None:
        metrics["trace.overhead_s"] = traced.fit_s - plain.fit_s
        if plain.answer != traced.answer:
            print(f"check failed: traced answer {traced.answer} differs "
                  f"from untraced {plain.answer}", file=sys.stderr)
            traced_ok = False
    for name in tracer.missing:
        print(f"not traced (name not found): {name}", file=sys.stderr)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    tracer.save(path)
    print(f"{len(tracer.start)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    return 2, 2 - plain_ok - traced_ok, metrics


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        load_program()
        contract = load_contract()
    except (ProgramNotFound, ImportError, OSError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    data = workloads.make_data(workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    print(f"workload {workload.name}, seed {args.seed}, {len(data)} points, "
          f"trace {args.trace}")
    if args.trace:
        attempted, failed, values = measure_traced(args, workloads, workload,
                                                   data)
        wanted = contract["per_layer"]
    else:
        attempted, failed, values = measure(args, workloads, workload, data,
                                            setup_s)
        wanted = contract["end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
