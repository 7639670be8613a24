"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-n12 --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed at least three times and for
at least three seconds, with a fixed reference computation timed between
set-ups (`setup_s` is the median set-up time in units of the references
beside it, times the reference's time on the baseline host).  Then runs
samples one after another until `--seconds` have passed and the fixed
pass is complete, timing the reference between them.  Every sample's
output is checked; one sample is re-run and must reproduce its report
bytes.

With `--trace 0` it prints the end-to-end metrics, timed with nothing
wrapped.  With `--trace 1` the fixed pass runs under the span tracer and
it prints the per-layer metrics; the remaining time alternates untraced
and traced runs of the same samples to measure the tracer's overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record, and the
spans of a traced run, are written under --out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import hmac
import json
import resource
import statistics
import struct
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run, at least; more until SETUP_MIN_S have passed
SETUP_MIN_S = 3.0
SETUP_REF_SHARE = 0.5  # reference timing, as a share of set-up time
REF_NOMINAL_S = 0.0035  # about one reference() on the host bench/baseline.json was recorded on
P95_MIN_SAMPLES = 200  # at least 10 samples beyond the 95th percentile
REF_SHARE = 0.1  # reference timing, as a share of untraced sample time


def reference() -> int:
    """Fixed work that uses no secroute code: keyed hashing, packing, and
    dict, heap and JSON traffic, the kinds of work the package spends its
    time on.  Timed between samples, it gauges how fast the host runs at
    that moment; sample times are also reported in units of its mean."""
    heap, table, x = [], {}, b"reference"
    for i in range(400):
        x = hmac.new(x[:32], x + struct.pack(">Id", i, i / 7.0), hashlib.sha256).digest()
        table[x[:6].hex()] = [i, x[6:14].hex(), (i, i * 2)]
        heapq.heappush(heap, (x[0], i, x[:4]))
    while heap:
        heapq.heappop(heap)
    return len(json.dumps(table, sort_keys=True))


def import_package() -> None:
    """Put the checkout's own sources first on the path, and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "secroute" / "__init__.py").is_file():
        raise SystemExit("bench: no secroute sources under %s" % src)
    sys.path.insert(0, str(src))
    import secroute

    if Path(secroute.__file__).resolve().parent != src / "secroute":
        raise SystemExit("bench: imported secroute from %s, not %s" % (secroute.__file__, src))


def run(args) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    def calibrate(refs: list, budget: float) -> None:
        # Spread over the run in step with the timed work, so the reference
        # sees the same share of fast and slow moments of the host.
        while not refs or sum(refs) < budget:
            t0 = time.perf_counter()
            reference()
            refs.append(time.perf_counter() - t0)

    wl = WORKLOADS[args.workload]()
    # Each set-up is timed between two blocks of references and divided by
    # their mean, the host's speed on either side of it.
    setup_times, setup_ratios, before = [], [], []
    calibrate(before, 0.0)
    setup_refs = list(before)
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_MIN_S:
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(args.seed)
        seconds = time.perf_counter() - t0
        after = []
        calibrate(after, SETUP_REF_SHARE * seconds)
        setup_times.append(seconds)
        setup_ratios.append(seconds / statistics.mean(before + after))
        setup_refs += after
        before = after
    gc.collect()

    fixed = wl.fixed_samples
    runs = []  # (sample index, seconds, traced, outcome), in order
    tracer = Tracer() if args.trace else None
    mark = (lambda label: setattr(tracer, "sample", label)) if tracer else (lambda label: None)
    sample = wl.sample
    traced_sample = tracer.wrap(sample, "bench.sample") if tracer else None
    ref_times = []
    untraced_s = 0.0

    def one(i: int, traced: bool) -> None:
        nonlocal untraced_s
        run_sample = traced_sample if traced else sample
        if not traced:
            calibrate(ref_times, REF_SHARE * untraced_s)
        mark(str(i))
        t0 = time.perf_counter()
        raw = run_sample(i, mark)
        seconds = time.perf_counter() - t0
        if not traced:
            untraced_s += seconds
        runs.append((i, seconds, traced, wl.examine(i, raw, i < fixed)))
        # Free the sample's reference cycles (harness, behaviours, simulator)
        # now, so neither the next sample's time nor the peak memory depends
        # on when the collector would have run.
        del raw
        gc.collect()

    start = time.perf_counter()
    snap = None
    if tracer is None:
        i = 0
        while i < fixed or time.perf_counter() - start < args.seconds:
            one(i, False)
            i += 1
    else:
        tracer.install()
        for i in range(fixed):
            one(i, True)
        snap = tracer.snapshot()
        # Same samples with and without the tracer, alternating, for its overhead.
        i = fixed
        while i == fixed or time.perf_counter() - start < args.seconds:
            tracer.uninstall()
            one(i, False)
            tracer.install()
            one(i, True)
            i += 1
        tracer.uninstall()
    calibrate(ref_times, REF_SHARE * untraced_s)

    outcomes = [o for _, _, _, o in runs]
    # Re-run the first sample; it must reproduce its report bytes.
    again = wl.examine(0, sample(0, lambda label: None), True)
    if again.report != outcomes[0].report:
        again.fail("re-run of sample 0 gave different report bytes")
    outcomes.append(again)
    # Before the oracle runs: enumerating every path of a 12-node network
    # can take more memory than the workload itself.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = wl.verify(outcomes)

    first = outcomes[:fixed]
    times = [s for _, s, traced, _ in runs if not traced]
    traced_times = [s for _, s, traced, _ in runs[fixed:] if traced]
    timed_discoveries = sum(o.discoveries for _, _, traced, o in runs if not traced)
    # Means, not medians, over inputs and references alike: both then
    # average the host's speed over the same stretch of the run.
    per_input = {}
    for i, seconds, traced, _ in runs:
        if not traced:
            per_input.setdefault(i % fixed, []).append(seconds)
    input_s = [statistics.mean(v) for v in per_input.values()]
    ref_s = statistics.mean(ref_times)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(min(o.failed, o.attempted) for o in outcomes)
    sim_counts = sum((o.sim_counts for o in first), Counter())
    honest = sum(o.honest for o in first)
    sent = sum(o.cloudlets_sent for o in first)
    discovery_ms = [ms for o in first for ms in o.discovery_ms]

    end_to_end = {
        "scenario_ref.mean": (statistics.mean(input_s) / ref_s, "ref"),
        "discoveries_per_ref": (sum(first[k].discoveries for k in per_input) / sum(input_s) * ref_s, "1/ref"),
        "setup_s": (statistics.median(setup_ratios) * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "route_found_ratio": (sum(o.found for o in first) / honest, "ratio"),
        "link_bytes_per_discovery": (sim_counts["link_bytes"] / sum(o.discoveries for o in first), "B"),
        "discovery_sim_ms.mean": (statistics.mean(discovery_ms), "ms"),
    }
    # Reported, but not on every workload or not a nonzero number, so
    # they stay out of BENCHMARK.json's end-to-end list.
    side = {
        "failed_ratio": (failed / attempted, "ratio"),
        "scenario_s.mean": (statistics.mean(input_s), "s"),
        "scenario_s.p50": (statistics.median(times), "s"),
        "scenario_s.p95": (statistics.quantiles(times, n=20, method="inclusive")[-1], "s") if len(times) >= P95_MIN_SAMPLES else None,
        "discoveries_per_s": (timed_discoveries / sum(times), "1/s"),
        "ref_s": (ref_s, "s"),
        "setup_s.raw": (statistics.median(setup_times), "s"),
        "discovery_sim_ms.p50": (statistics.median(discovery_ms), "ms"),
        "cloudlets_delivered_ratio": (sum(o.cloudlets_delivered for o in first) / sent, "ratio") if sent else None,
    }
    for key, value in extra.items():
        side[key] = (value, "ratio")
    digest = hashlib.sha256(b"".join(hashlib.sha256(o.report).digest() for o in first)).hexdigest()

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(runs),
        "fixed_samples": fixed,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for o in outcomes for p in o.problems][:20],
        "report_digest": digest,
        "sim_counts": dict(sim_counts),
        "end_to_end": end_to_end,
        "side": {k: v for k, v in side.items() if v is not None},
        "sample_s": [[i, s] for i, s, traced, _ in runs if not traced],
        "setup_s": setup_times,
        "setup_ref_times": setup_refs,
        "references": len(ref_times),
        "ref_times": ref_times,
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(snap, sim_counts)
        record["overhead"] = {
            "pairs": len(traced_times),
            "traced_p50": statistics.median(traced_times),
            "untraced_p50": statistics.median(times),
        }
        record["spans"] = {"kept": len(tracer.spans), "dropped": tracer.spans_dropped}
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(args.out / ("%s.spans.jsonl" % wl.name))
    return record


def print_table(record: dict) -> None:
    print("workload %s  seed %d  trace %d" % (record["workload"], record["seed"], record["trace"]))
    print(
        "samples %d (fixed pass %d, untimed re-run 1)  attempted %d  failed %d"
        % (record["samples"], record["fixed_samples"], record["attempted"], record["failed"])
    )
    for problem in record["problems"]:
        print("  failure: %s" % problem)
    print("report digest %s" % record["report_digest"])
    rows = list(record["end_to_end"].items()) + list(record["side"].items())
    if record["trace"]:
        rows = list(record["per_layer"].items())
        o = record["overhead"]
        print(
            "tracing overhead: traced scenario_s.p50 %.6g s vs untraced %.6g s (x%.3f, %d pairs)"
            % (o["traced_p50"], o["untraced_p50"], o["traced_p50"] / o["untraced_p50"], o["pairs"])
        )
        print("spans kept %(kept)d, dropped past the cap %(dropped)d" % record["spans"])
    else:
        print(
            "timed samples %d over %d inputs, %d reference timings"
            % (len(record["sample_s"]), record["fixed_samples"], record["references"])
        )
    for name, (value, unit) in rows:
        print("  %-34s %16.6g %s" % (name, value, unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    record = run(args)
    print_table(record)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / ("%s.trace%d.json" % (record["workload"], record["trace"]))).write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
