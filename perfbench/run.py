"""sumlearn benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 45 --trace 0

Run from the repository root; the program is imported from `src/`. Workloads
are `quickstart`, `mnist-sweep` and `assign-p80` (see workloads.py;
BENCHMARK.json lists the first two). A run first generates its inputs from
`--seed`: `setup_s` is the median time to import the program in a fresh
interpreter (five repeats) plus the median time to generate the inputs
(three repeats). It then repeats the workload's
iteration while another one still fits in `--seconds`, at least once, and
checks every iteration's outputs.

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
runs each input twice, untraced and traced, and reports the per-module
metrics of the traced runs (tracing.py) plus the tracing overhead. The second-to-last stdout line is a JSON record of the
environment, the input properties and every iteration; the last line is
{"correct", "attempted", "failed", "metrics"}.

Seed 7919 is held out: it was not used while tuning, and a claimed gain
should also hold on it (metric_map.json). Self-tests at tiny sizes:
`python3 -m pytest perfbench`.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_PATHS = [str(HERE.parent / "src"), str(HERE)]
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # the import alone is about 0.15 s, so it needs more repeats
BUSY_CPU_FRAC = 0.25  # other processes' share of all CPUs that flags a busy machine

END_TO_END_UNITS = {
    "wall_s": "s",
    "img_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "label_acc": "ratio",
}
PIPELINE_STAGES = ("data", "embed", "cluster", "assign", "infer", "train", "evaluate", "total")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment record --------------------------------------------------------

def cpu_ticks():
    """(idle, steal, total) CPU ticks since boot from /proc/stat, or None."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[3] + fields[4], fields[7], sum(fields)


def tick_share(before, after, which):
    """Share of all CPU ticks between two cpu_ticks() samples spent in `which`."""
    if before is None or after is None:
        return None
    return (after[which] - before[which]) / max(after[2] - before[2], 1)


def cpu_busy_fraction(interval=0.5):
    """Share of all CPUs busy over `interval` s while this process sleeps."""
    before = cpu_ticks()
    time.sleep(interval)
    idle = tick_share(before, cpu_ticks(), 0)
    return None if idle is None else 1.0 - idle


def probe_seconds():
    """Time of a fixed pure-Python loop: this machine's single-core speed
    right now. Shared hosts drift by tens of percent over minutes, which
    neither the load average nor steal time shows."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - started


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if it is not found."""
    try:
        with open("/proc/self/maps", "r", encoding="ascii") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(busy_before, loadavg_before):
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_busy_before": busy_before,
        "loadavg_before": loadavg_before,
        "probe_s_before": probe_seconds(),
        "busy": busy_before is not None and busy_before > BUSY_CPU_FRAC,
    }


# -- measuring -------------------------------------------------------------------

def import_seconds():
    """Median over fresh interpreters of the time to import the workloads
    (numpy, sumlearn and click); one process imports only once."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code, *SOURCE_PATHS],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def iterate(workload, index, tracer=None):
    """Run and check one iteration; the wall and CPU times cover `run` only."""
    cpu0, wall0 = os.times(), time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(index)
        else:
            with tracer:
                result = workload.run(index)
        problems = []
    except Exception as exc:  # noqa: BLE001 - a crash is a failed iteration
        result, problems = None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    if result is not None:
        problems = workload.check(result)
    return {
        "index": index,
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "problems": problems,
        "result": result,
        "tracer": tracer,
    }


def measure(workload, seconds, trace):
    """Iterations while the next one fits in `seconds`, at least one.

    With `trace`, each input runs untraced and traced; the pair's order
    alternates (traced first on even inputs), because the first iteration
    in a process also pays for warming the allocator and caches.
    """
    import tracing

    iterations = []
    start = time.perf_counter()
    index = 0
    limit = getattr(workload, "pool", None)
    while True:
        if not trace:
            iterations.append(iterate(workload, index))
        else:
            order = (tracing.Tracer(), None) if index % 2 == 0 else (None, tracing.Tracer())
            pair = [iterate(workload, index, tracer) for tracer in order]
            same = getattr(workload, "same_answer", None)
            results = [it["result"] for it in pair]
            if same and all(results) and not same(*results):
                pair[1]["problems"].append("traced and untraced solves of one input differ")
            iterations.extend(pair)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds or index == limit:
            return iterations


def pipeline_timings(result):
    """Stage times summed over the iteration's report.json files."""
    reports = result.get("reports", []) if result else []
    return {
        stage: sum(r["timings"].get(f"t_{stage}", 0.0) for r in reports)
        for stage in PIPELINE_STAGES
    }


def end_to_end(workload, iterations, setup_s):
    finished = [it for it in iterations if it["result"] is not None]
    wall = statistics.median(it["wall_s"] for it in iterations)
    values = {
        "wall_s": wall,
        "img_per_s": workload.images / wall,
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "label_acc": (
            statistics.median(workload.label_acc(it["result"]) for it in finished) if finished else 0.0
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(iterations):
    import tracing

    untraced = {it["index"]: it for it in iterations if not it["traced"]}
    rows = []
    for it in iterations:
        if not it["traced"]:
            continue
        tracer = it["tracer"]
        row = tracing.layer_metrics(tracer)
        for stage, seconds in pipeline_timings(it["result"]).items():
            row[f"pipeline.t_{stage}_s"] = (seconds, "s")
        row["pipeline.untraced_s"] = (it["wall_s"] - tracer.root_time(), "s")
        row["trace_overhead_frac"] = (it["wall_s"] / untraced[it["index"]]["wall_s"] - 1.0, "ratio")
        rows.append(row)
    return {
        name: {"value": statistics.median(row[name][0] for row in rows), "unit": unit}
        for name, (_, unit) in rows[0].items()
    }


def main(argv=None):
    args = parse_args(argv)
    busy_before = cpu_busy_fraction()
    loadavg_before = os.getloadavg()

    sys.path[:0] = SOURCE_PATHS
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment(busy_before, loadavg_before)
    if env["busy"]:
        print(f"warning: machine busy before the run ({busy_before:.0%} CPU in use)", file=sys.stderr)

    ticks_before = cpu_ticks()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        import_s = import_seconds()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        iterations = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["cpu_steal_frac"] = tick_share(ticks_before, cpu_ticks(), 1)
    env["probe_s_after"] = probe_seconds()

    setup_s = import_s + statistics.median(setup_times)
    if args.trace:
        metrics = per_layer(iterations)
    else:
        metrics = end_to_end(workload, iterations, setup_s)
    failed = sum(1 for it in iterations if it["problems"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": inputs,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "iterations": [
            {
                "index": it["index"],
                "traced": it["traced"],
                "wall_s": it["wall_s"],
                "cpu_s": it["cpu_s"],
                "problems": it["problems"],
                "summary": workload.summary(it["result"]) if it["result"] else None,
            }
            for it in iterations
        ],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
