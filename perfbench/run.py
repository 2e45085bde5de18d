"""End-to-end and per-layer benchmark of gandr; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

A run generates its inputs from ``--seed``, times set-up (store load,
index build, endpoints), warms up, spends ``--seconds`` on units of work
interleaved with a closed-loop query stream, and checks every output
against an independent reference. ``--trace 1`` replaces the stream with
a traced repeat of the units and reports per-layer metrics instead. gandr
is imported from ``src/`` of the checkout, never from an installed copy.
The last line of standard output is one JSON object. The exit code is 1
when an output is wrong or the failures differ from those injected, and
2 when the checkout has no gandr sources.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# pinned before numpy loads, so no library starts threads of its own
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")}

STREAM_CHUNK_S = 0.25

UNITS = {"setup_s": "s", "items_per_s": "items/s", "query_p50_ms": "ms",
         "query_p99_ms": "ms", "peak_rss_mb": "MB"}


def import_gandr():
    """gandr from this checkout's src/, or None when it is not there."""
    src = ROOT / "src"
    if not (src / "gandr" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    gandr = importlib.import_module("gandr")
    for name in ("data_io", "evaluation", "generator", "pipeline", "retrieval",
                 "tfidf", "_kernels"):
        importlib.import_module("gandr." + name)
    return gandr


def machine_facts(gandr) -> dict:
    import numpy
    backend = getattr(gandr._kernels, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend() if backend else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """Units of work and stream queries measured together."""

    rates: list[float] = field(default_factory=list)   # items/s of each unit
    items: int = 0
    failed: int = 0
    digests: set[str] = field(default_factory=set)
    result: object = None
    best: list[float] = field(default_factory=list)    # per stream query, seconds
    issued: int = 0
    stream_hits: dict = field(default_factory=dict)    # first answers, for checks

    @property
    def items_per_s(self) -> float:
        return statistics.median(self.rates)


def measure(wl, state, out: Path, seconds: float, stream: bool,
            tracer=None) -> Phase:
    """Units of work for half of ``seconds``, interleaved with the stream.

    The stream is a closed loop of one client. It runs at least the other
    half of ``seconds``, and at least three passes, or one when a pass
    alone takes longer, so that a stall of the host is rarely the only
    sample of a query; each query reports its best pass. Units and stream
    chunks alternate so that both spread over the whole measurement. Each
    step runs pinned to the next CPU in turn: on a shared host one vCPU
    can run 1.5x slower than the other for many seconds, and taking turns
    makes every run sample both. Units of a threaded workload may use
    every CPU.
    """
    from workloads import sha256
    phase = Phase()
    n = len(wl.stream) if stream else 0
    phase.best = [math.inf] * n
    share = seconds / 2
    unit_time = stream_time = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for step in itertools.count():
            pass_s = stream_time / phase.issued * n if phase.issued else 0.0
            passes = 1 if pass_s > share else 3
            units_done = unit_time >= share
            stream_done = not stream or (phase.issued >= passes * n
                                         and stream_time >= share)
            if units_done and stream_done:
                return phase
            # keep both at the same fraction of the time each still needs
            need = max(share, pass_s * passes)
            run_unit = not units_done and (
                stream_done or unit_time / share <= stream_time / need)
            threaded = run_unit and wl.threaded
            os.sched_setaffinity(0, cpus if threaded else {cpus[step % len(cpus)]})
            if run_unit:
                if tracer is not None:
                    tracer.unit = len(phase.rates)
                start = time.perf_counter()
                phase.result = wl.unit(state, out)
                elapsed = time.perf_counter() - start
                unit_time += elapsed
                items = wl.items(phase.result)
                phase.rates.append(items / elapsed)
                phase.items += items
                phase.failed += wl.failures(phase.result)
                phase.digests.add(sha256(out))
                continue
            chunk_end = stream_time + STREAM_CHUNK_S
            while stream_time < chunk_end:
                i = phase.issued % n
                query, preliminary = wl.stream[i]
                start = time.perf_counter()
                hits = wl.query(state, query, preliminary)
                elapsed = time.perf_counter() - start
                stream_time += elapsed
                phase.best[i] = min(phase.best[i], elapsed)
                if i in wl.stream_checked:
                    phase.stream_hits.setdefault(i, hits)
                phase.issued += 1
    finally:
        os.sched_setaffinity(0, cpus)


def run_workload(gandr, wl, seed: int, seconds: float, trace: bool) -> dict:
    import spans as tracing

    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"tmp-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    clock = [time.perf_counter()]
    try:
        wl.prepare(seed, workdir)
        gc.collect()
        clock.append(time.perf_counter())

        setup_times, setup_spans = [], None
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for i in range(1 if trace else wl.setups):
                state = None
                gc.collect()
                # set-up is single-threaded; take turns on the CPUs as units do
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                if trace:
                    with tracing.Tracer() as tracer:
                        tracing.setup_wraps(tracer, gandr)
                        state = wl.setup()
                    setup_spans = tracer.spans
                else:
                    start = time.perf_counter()
                    state = wl.setup()
                    setup_times.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, cpus)

        out = workdir / wl.output_name
        wl.unit(state, workdir / ("warmup-" + wl.output_name), limit=2)
        # the corpus, the reference and the store live until the end; left
        # in the collected generations, each full collection walks them
        # all and stalls whichever call triggered it
        gc.collect()
        gc.freeze()
        clock.append(time.perf_counter())
        phases = [measure(wl, state, out, seconds, not trace)]
        untraced = phases[0]
        report = {"workload": wl.name, "seed": seed, "trace": int(trace),
                  "unit_rates": untraced.rates}
        if trace:
            samples = {s.utterance: s.sample_id for s in state.samples}
            with tracing.Tracer(samples) as tracer:
                tracing.work_wraps(tracer, gandr, state.endpoints)
                phases.append(measure(wl, state, out, seconds, False, tracer))
            traced = phases[1]
            metrics = tracing.setup_metrics(setup_spans)
            metrics.update(tracing.work_metrics(tracer.spans, len(traced.rates),
                                                traced.items))
            metrics["trace.overhead_ratio"] = traced.items_per_s / untraced.items_per_s
            tracer.spans = setup_spans + tracer.spans
            tracer.write(WORK / "results" / f"{tag}-spans.jsonl")
            stream_hits = {i: wl.query(state, *wl.stream[i]) for i in wl.stream_checked}
        else:
            latencies = sorted(untraced.best)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "items_per_s": untraced.items_per_s,
                "query_p50_ms": 1e3 * percentile(latencies, 0.50),
                "query_p99_ms": 1e3 * percentile(latencies, 0.99),
                "peak_rss_mb": peak_rss_mb(),
            }
            report["setup_times_s"] = setup_times
            report["queries"] = untraced.issued
            stream_hits = untraced.stream_hits

        clock.append(time.perf_counter())
        wrong, checked = wl.check(state, phases[-1].result)
        wrong += wl.check_stream(stream_hits)
        digests = set().union(*(p.digests for p in phases))
        wrong += len(digests) != 1
        units = sum(len(p.rates) for p in phases)
        work_items = sum(p.items for p in phases)
        failed = sum(p.failed for p in phases)
        injected = wl.expected_failed * units
        report.update({
            "units": units,
            "items": work_items,
            "wrong_outputs": wrong,
            "outputs_checked": checked + len(stream_hits),
            "failed_items": failed,
            "injected_failures": injected,
            "failed_share": failed / work_items,
            "valid": failed == injected,
            "output_sha256": sorted(digests),
            "metrics": metrics,
            "attempted": work_items + untraced.issued,
            "failed": max(0, failed - injected),
        })
        report["correct"] = wrong == 0 and report["valid"]
        clock.append(time.perf_counter())
        report["wall_s"] = dict(zip(("prepare", "setup", "measure", "check"),
                                    (b - a for a, b in zip(clock, clock[1:]))))
        return report
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def describe(report: dict) -> None:
    """Every figure by name with its unit, for a reader."""
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    for name, value in report["metrics"].items():
        unit = unit_of(name)
        print(f"{name:45s} {value:14.6f} {unit}")
    print(f"{'failed_share':45s} {report['failed_share']:14.6f} ratio "
          f"({report['failed_items']} failed, {report['injected_failures']} injected"
          f"{'' if report['valid'] else '; INVALID: counts differ'})")
    print(f"{'wrong_outputs':45s} {report['wrong_outputs']:14d} count "
          f"(of {report['outputs_checked']} checked)")
    print(f"{'units':45s} {report['units']:14d} count")
    for digest in report["output_sha256"]:
        print(f"{'output_sha256':45s} {digest}")


def result_line(report: dict, prefix: str = "") -> dict:
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {prefix + name: {"value": value, "unit": unit_of(name)}
                        for name, value in report["metrics"].items()}}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us") or "_us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if "ratio" in name or "share" in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    os.environ.update(THREAD_ENV)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="gandr end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    gandr = import_gandr()
    if gandr is None:
        print(f"error: no gandr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from corpus import Grammar

    facts = machine_facts(gandr)
    print("machine " + json.dumps(facts, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    grammar = Grammar()
    reports = []
    for name in names:
        try:
            report = run_workload(gandr, WORKLOADS[name](gandr, grammar),
                                  args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} raised; no result", file=sys.stderr)
            return 1
        report["machine"] = facts
        describe(report)
        path = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        reports.append(report)

    if len(reports) == 1:
        line = result_line(reports[0])
    else:
        lines = [result_line(r, r["workload"] + ".") for r in reports]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {k: v for x in lines for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
