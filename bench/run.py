"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload closed-loop --seed 1 --seconds 25 --trace 0

Run from the repository root (the library is imported from ``src/``).  The
process is single-threaded: BLAS thread counts are pinned to 1 before NumPy
loads, and no pool or thread is started.

A run builds its inputs from ``--seed`` (see ``inputs.py``), loads them
through ``loads_scenario``, then times whole rounds of ops until
``--seconds`` have passed and at least ``MIN_OPS`` ops ran.  The first
round's outputs are the reference: they must pass the independent checks
of ``checks.py``, and every later round must reproduce their digest;
otherwise ``correct`` is false.  With ``--trace 1`` the same timed phase
runs untraced, then ``TRACE_ROUNDS`` rounds and the checks run under the
span recorder of ``spans.py``, and the per-layer metrics are printed
instead.

The last line of standard output is
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}``;
the environment, the output digest and any check problems come before it,
and the whole result (plus the spans of a traced run) is written under
``bench/results/``.
"""

import time

_T0 = time.perf_counter()
# CPU time spent before this line is the interpreter's own start-up, which
# a wall clock started here cannot see; set-up time includes it.
_STARTUP = time.process_time()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: every run times at least this many ops, so p90 has ten samples beyond it.
MIN_OPS = 100
#: rounds run under the span recorder in a traced run.
TRACE_ROUNDS = 1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; see README.md for which end-to-end metric
#: each should move, and on which workload.
PER_LAYER = {
    "setup.import_s": "s",
    "scenario.loads_scenario.self_s": "s",
    "scenario.problem.self_s": "s",
    "qp.solve_pointwise.calls": "count",
    "qp.solve_pointwise.p50_us": "us",
    "qp.solve_pointwise.p90_us": "us",
    "qp.solve_pointwise.self_s": "s",
    "qp.solve_pointwise.warm_calls": "count",
    "qp.solve_pointwise.warm_hit_ratio": "ratio",
    "qp.closed_loop_field.calls": "count",
    "qp.closed_loop_field.p50_us": "us",
    "qp.closed_loop_field.self_s": "s",
    "qp.check_feasibility_condition.calls": "count",
    "qp.check_feasibility_condition.p50_us": "us",
    "qp.check_feasibility_condition.self_s": "s",
    "qp.oracle_solve.calls": "count",
    "qp.oracle_solve.p50_us": "us",
    "simulate.integrate.calls": "count",
    "simulate.integrate.self_s": "s",
    "simulate.rk4_steps": "count",
    "simulate.step_us": "us",
    "simulate.active_set_switches": "count",
    "equilibria.find_boundary_equilibria.calls": "count",
    "equilibria.find_boundary_equilibria.p50_ms": "ms",
    "equilibria.find_boundary_equilibria.self_s": "s",
    "equilibria.find_interior_equilibria.calls": "count",
    "equilibria.find_interior_equilibria.p50_ms": "ms",
    "equilibria.find_interior_equilibria.self_s": "s",
    "equilibria.validate_equilibrium.calls": "count",
    "equilibria.validate_equilibrium.self_s": "s",
    "equilibria.seeds": "count",
    "equilibria.roots": "count",
    "equilibria.validated": "count",
    "equilibria.validated_per_seed": "ratio",
    "stability.equilibrium_field_jacobian.calls": "count",
    "stability.equilibrium_field_jacobian.self_s": "s",
    "stability.closed_loop_jacobian.self_s": "s",
    "stability.classify.calls": "count",
    "stability.classify.p50_us": "us",
    "stability.classify.self_s": "s",
    "stability.spectrum_cross_check.calls": "count",
    "stability.spectrum_cross_check.p50_us": "us",
    "stability.spectrum_cross_check.self_s": "s",
    "trace.ops_per_s_untraced": "op/s",
    "trace.ops_per_s_traced": "op/s",
    "trace.overhead_ratio": "ratio",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-loop", "pointwise", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def _environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_rounds(lib, workload, ops, done):
    """Whole rounds of ``ops`` until ``done(rounds, ops_timed, elapsed)``.

    Returns the op wall times as a (rounds, ops) array, one digest per
    round, the failed-op count and the first round's outputs.
    """
    import numpy as np

    from workloads import digest

    clock = time.perf_counter
    times, digests, failed, first = [], [], 0, None
    start = clock()
    while True:
        outputs = []
        for op in ops:
            t0 = clock()
            try:
                out = op.fn()
            except lib.ToolkitError as exc:
                out = exc
            times.append(clock() - t0)
            outputs.append(out)
        failed += sum(workload.failed(op, out) for op, out in zip(ops, outputs))
        digests.append(digest(outputs))
        first = outputs if first is None else first
        if done(len(digests), len(times), clock() - start):
            return np.reshape(times, (len(digests), len(ops))), digests, failed, first


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _per_layer(tracer, setup_stop, ops_start, ops_stop, counters, import_s,
               untraced, traced):
    setup = tracer.self_times(0, setup_stop)
    timed = tracer.self_times(ops_start, ops_stop)
    audit = tracer.self_times(ops_stop)
    c = counters
    out = {"setup.import_s": import_s}
    for name, unit in PER_LAYER.items():
        if name in out or name.count(".") < 2:
            continue
        span, stat = name.rsplit(".", 1)
        source = setup if span.startswith("scenario.") else (
            audit if span == "qp.oracle_solve" else timed)
        durations, selfs = source.get(span, ([], []))
        if stat == "calls":
            out[name] = len(durations)
        elif stat == "self_s":
            out[name] = float(sum(selfs))
        elif stat.startswith("p50_") or stat.startswith("p90_"):
            out[name] = _percentile(durations, int(stat[1:3])) * _SCALE[unit]
    integrate = sum(timed.get("simulate.integrate", ([], []))[0])
    out.update({
        "qp.solve_pointwise.warm_calls": c["warm_calls"],
        "qp.solve_pointwise.warm_hit_ratio":
            c["warm_hits"] / c["warm_calls"] if c["warm_calls"] else 0.0,
        "simulate.rk4_steps": c["rk4_steps"],
        "simulate.step_us": 1e6 * integrate / c["rk4_steps"] if c["rk4_steps"] else 0.0,
        "simulate.active_set_switches": c["switches"],
        "equilibria.seeds": c["seeds"],
        "equilibria.roots": c["roots"],
        "equilibria.validated": c["validated"],
        "equilibria.validated_per_seed":
            c["validated"] / c["seeds"] if c["seeds"] else 0.0,
        "trace.ops_per_s_untraced": untraced,
        "trace.ops_per_s_traced": traced,
        "trace.overhead_ratio": traced / untraced,
    })
    return out


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "clfcbf" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'clfcbf'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    clock = time.perf_counter
    t_import = clock()
    import clfcbf as lib
    import_s = clock() - t_import

    import inputs
    import spans
    import workloads

    tracer = spans.Tracer(lib) if args.trace else None
    if tracer:
        tracer.install()
    loaded = []
    for case in inputs.CASES[args.workload](args.seed):
        scenario = lib.loads_scenario(case.text)
        loaded.append(workloads.Loaded(case, scenario, scenario.problem()))
    setup_s = _STARTUP + (clock() - _T0)
    if tracer:
        setup_stop = tracer.mark()
        tracer.uninstall()

    workload = workloads.WORKLOADS[args.workload](lib, loaded)
    ops = workload.ops()
    gc.collect()
    times, digests, failed, ref_outputs = _run_rounds(
        lib, workload, ops,
        lambda rounds, n, elapsed: elapsed >= args.seconds and n >= MIN_OPS)
    reference = digests[0]
    ops_per_s = times.size / float(times.sum())

    if tracer:
        tracer.install()
        tracer.counters.clear()
        ops_start = tracer.mark()
        traced_times, traced_digests, _, _ = _run_rounds(
            lib, workload, ops, lambda rounds, n, elapsed: rounds >= TRACE_ROUNDS)
        ops_stop = tracer.mark()
        counters = Counter(tracer.counters)
        digests += traced_digests
    problems = workload.check(ops, ref_outputs)
    if tracer:
        tracer.uninstall()
    mismatched = sum(d != reference for d in digests)
    if mismatched:
        problems.append(f"{mismatched} of {len(digests)} rounds differ from the "
                        "reference round's outputs")

    if tracer:
        traced = traced_times.size / float(traced_times.sum())
        metrics = _per_layer(tracer, setup_stop, ops_start, ops_stop, counters,
                             import_s, ops_per_s, traced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * _percentile(times.ravel(), 50),
            "op_p90_ms": 1e3 * _percentile(times.ravel(), 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": int(times.size),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }

    env = _environment()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "digest": reference, "ops_per_round": len(ops),
                   "op_times_s": times.tolist(),
                   "notes": workload.notes, "problems": problems, **result},
                  fh, indent=1)
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} {reference}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
