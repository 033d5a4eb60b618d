"""Run one workload in this process and print its result as the last line.

``run.py`` starts this script in a fresh process with the thread
variables pinned; run it directly only for debugging:

    PYTHONPATH=src python3 perfbench/bench.py --workload readout --seed 0 --seconds 5 --trace 0
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nvmag  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

SETUP_REPEATS = 3

# Layer time metric -> the spans whose self time it sums.
LAYER_SPANS = {
    "bath.lattice_s": ("bath.generate_lattice_sites",),
    "bath.sample_s": ("bath.sample_bath",),
    "decoherence.trace_s": ("decoherence.echo_coherence_trace",),
    "decoherence.ensemble_s": ("decoherence.ensemble_average",),
    "decoherence.csv_load_s": ("decoherence.CoherenceTrace.load_csv",),
    "decoherence.csv_save_s": ("decoherence.CoherenceTrace.save_csv",),
    "timescales.extract_s": ("timescales.extract_timescales",),
    "timescales.fit_s": ("timescales.fit_power_law",),
    "magnetometry.reconstruct_s": (
        "magnetometry.measurements_to_components", "magnetometry.reconstruct_field",
    ),
    "magnetometry.resolve_s": ("magnetometry.resolve_alignment",),
    "sensitivity.report_s": ("sensitivity.build_report",),
    "cli.sweep_self_s": ("cli.main",),
}


def attempt(workload, i: int) -> tuple[float, str | None]:
    """Run and check op ``i``: its wall time and what went wrong, if anything."""
    t = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception as exc:  # an op that raises is a failed op
        return time.perf_counter() - t, f"op {i} raised {exc!r}"
    elapsed = time.perf_counter() - t
    try:
        return elapsed, workload.check(i, out)
    except Exception as exc:
        return elapsed, f"op {i} output could not be checked: {exc!r}"


def run_ops(workload, seconds: float, tracer=None) -> tuple[list, list]:
    """Closed loop: whole op cycles while the next one fits in ``seconds``.

    Returns the wall time of every op and the failures, one string each.
    """
    times, failures = [], []
    i, start, cycles = 0, time.perf_counter(), 0
    while True:
        for _ in range(workload.cycle_len):
            if tracer is not None:
                tracer.op = i
            elapsed, err = attempt(workload, i)
            times.append(elapsed)
            if err:
                failures.append(err)
            i += 1
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return times, failures


def p90(times: list[float]) -> float:
    """Not a gated metric: only readout has ten or more ops beyond it."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def unit_values(spans, names, value, ops) -> list[float]:
    """Per-op sums of ``value(span)`` over spans named ``names``.

    A layer that runs inside the traced ops gives one sum per op; a layer
    that only runs in set-up gives the one sum over the traced set-up.
    """
    sums = defaultdict(float)
    for span in spans:
        if span["name"] in names:
            sums[span["op"]] += value(span)
    if any(op in sums for op in ops):
        return [sums[op] for op in ops]
    return [sums["setup"]]


def layer_metrics(workload, tracer, traced_times, untraced_times, ops) -> dict:
    spans = tracer.spans
    own = tracing.self_times(spans)
    metrics = {}
    for metric, names in LAYER_SPANS.items():
        metrics[metric] = statistics.median(
            unit_values(spans, names, lambda s: own[s["id"]], ops)
        )

    def counted(names, key):
        return statistics.median(unit_values(spans, names, lambda s: s.get(key, 0), ops))

    metrics["bath.spins"] = counted(("bath.sample_bath",), "spins")
    metrics["bath.pairs"] = counted(("bath.sample_bath",), "pairs")

    # Single-spin factors alone: the same call on each traced bath with its
    # pair couplings removed.  The pair layer is the rest of the trace.
    trace_name = ("decoherence.echo_coherence_trace",)
    singles = {}
    for span in spans:
        if span["name"] in trace_name:
            args, kwargs = span["call"]
            bare = (workloads.without_pairs(args[0]),) + tuple(args[1:])
            t = time.perf_counter()
            workloads.decoherence.echo_coherence_trace(*bare, **kwargs)
            singles[span["id"]] = time.perf_counter() - t
    trace_u = unit_values(spans, trace_name, lambda s: own[s["id"]], ops)
    singles_u = unit_values(spans, trace_name, lambda s: singles[s["id"]], ops)
    points_u = unit_values(spans, trace_name, lambda s: s["pairs"] * s["points"], ops)
    pairs_u = [t - s for t, s in zip(trace_u, singles_u)]
    metrics["decoherence.singles_s"] = statistics.median(singles_u)
    metrics["decoherence.pairs_s"] = statistics.median(pairs_u)
    metrics["decoherence.pair_points"] = statistics.median(points_u)
    metrics["decoherence.pair_points_per_s"] = statistics.median(
        p / s if s > 0 else 0.0 for p, s in zip(points_u, pairs_u)
    )
    metrics["decoherence.over_unity_traces"] = sum(
        s["over_unity"] for s in spans if s["name"] in trace_name
    )

    names = Counter(s["name"] for s in spans)
    metrics["timescales.extract_calls"] = statistics.median(
        unit_values(spans, ("timescales.extract_timescales",), lambda s: 1, ops)
    )
    extracts = names["timescales.extract_timescales"]
    metrics["timescales.flagged_frac"] = (
        sum(s.get("flagged", 0) for s in spans) / extracts if extracts else 0.0
    )
    resolves = names["magnetometry.resolve_alignment"]
    metrics["magnetometry.resolved_frac"] = (
        sum(s.get("resolved", 0) for s in spans) / resolves if resolves else 0.0
    )

    busy = 0.0
    if isinstance(workload, workloads.SweepWorkload):
        main_thread = {s["thread"] for s in spans if s["name"] == "cli.main"}
        pool = min(int(os.environ.get("NVMAG_THREADS") or os.cpu_count() or 1),
                   workload.tasks)
        fracs = []
        for op, simulate_s in zip(ops, workload.simulate_s[-len(ops):]):
            worker = sum(
                s["end"] - s["start"] for s in spans
                if s["op"] == op and s["name"] in trace_name and s["thread"] not in main_thread
            )
            fracs.append(worker / (pool * simulate_s))
        busy = statistics.median(fracs)
    metrics["cli.pool_busy_frac"] = busy
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
    )
    return metrics


def provenance() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(
                ["git", *args], cwd=workloads.HERE.parent, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nvmag": nvmag.__version__,
        "blas": blas,
        "threads_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NVMAG_THREADS")
        },
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = parser.parse_args()

    workload = workloads.make_workload(ns.workload, ns.seed, workloads.load_reference())
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)
    # Untimed warm-up ops, so lazy set-up inside numpy is not timed.  They
    # also record the first output the timed ops must then reproduce.
    attempted, failures = workload.warmup_ops, []
    for i in range(workload.warmup_ops):
        _, err = attempt(workload, i)
        if err:
            failures.append(f"warm-up: {err}")

    budget = ns.seconds / 2 if ns.trace else ns.seconds
    times, failed_ops = run_ops(workload, budget)
    attempted += len(times)
    failures += failed_ops

    record = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace}
    if ns.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            workload.setup()
            traced_times, failed_ops = run_ops(workload, budget, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += len(traced_times)
        failures += failed_ops
        seen = {s["name"] for s in tracer.spans}
        missing = [name for name in workload.required_spans if name not in seen]
        if missing:
            raise tracing.TracingError(f"no spans recorded for {missing}")
        metrics = layer_metrics(
            workload, tracer, traced_times, times, list(range(len(traced_times)))
        )
        units = {name: ("1/s" if name.endswith("_per_s") else "s" if name.endswith("_s")
                        else "frac" if name.endswith("_frac") else "count")
                 for name in metrics}
        record["traced_op_s"] = traced_times
        record["spans"] = [{k: v for k, v in s.items() if k != "call"} for s in tracer.spans]
    else:
        metrics = {
            "op_s_p50": statistics.median(times),
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": IMPORT_S + statistics.median(setup_times),
        }
        units = {"op_s_p50": "s", "ops_per_s": "1/s",
                 "peak_rss_mb": "MiB", "setup_s": "s"}

    final = workload.final_checks()
    attempted += len(final)
    failures += [err for err in final if err]
    workload.close()

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(
        result=result, failures=failures, failed_frac=len(failures) / attempted,
        provenance=provenance(), import_s=IMPORT_S, setup_s=setup_times, op_s=times,
        op_s_p90=p90(times),
    )
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out_path = workloads.OUT_DIR / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    for err in failures:
        print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "failed_frac": record["failed_frac"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
