"""Self-test of the benchmark: what must repeat, repeats.

    python3 bench/selftest.py

For each workload it makes two untraced and two traced runs with seed 7
and no time budget beyond the fixed pass.  It checks that the simulated
metrics, the simulator counts and the report digest are identical across
all four runs, that every per-layer count is identical across the two
traced runs, and that every run passed its output checks.  Equality
between traced and untraced runs shows that wrapping the package in the
tracer does not change what it does.  Takes about five minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7
WORKLOADS = ("provision-n250", "multiflow-n120", "sweep-n12")
SIM_METRICS = (
    "route_found_ratio",
    "link_bytes_per_discovery",
    "discovery_sim_ms.mean",
    "discovery_sim_ms.p50",
    "cloudlets_delivered_ratio",
    "oracle_agreement",
)
TIMED_UNITS = ("s", "1/s")


def bench(workload: str, seed: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--out", str(out)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
    return json.loads((out / ("%s.trace%d.json" % (workload, trace))).read_text())


def invariant(record: dict) -> dict:
    metrics = dict(record["end_to_end"], **record["side"])
    return {
        "report_digest": record["report_digest"],
        "sim_counts": record["sim_counts"],
        "sim_metrics": {k: metrics.get(k) for k in SIM_METRICS},
    }


def layer_counts(record: dict) -> dict:
    return {k: v for k, (v, unit) in record["per_layer"].items() if unit not in TIMED_UNITS}


def diff(a: dict, b: dict) -> list:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def check(workload: str) -> list:
    out = HERE / "out" / "selftest"
    runs = {
        (trace, k): bench(workload, SEED, trace, out / ("%s-t%d-%d" % (workload, trace, k)))
        for trace in (0, 1)
        for k in (0, 1)
    }
    problems = []
    for key, record in runs.items():
        if record["failed"]:
            problems.append("run %s failed %d checks: %s" % (key, record["failed"], record["problems"][:3]))
    base = invariant(runs[(0, 0)])
    for key, record in runs.items():
        for field in diff(base, invariant(record)):
            problems.append("run %s differs from run (0, 0) in %s" % (key, field))
    for name in diff(layer_counts(runs[(1, 0)]), layer_counts(runs[(1, 1)])):
        problems.append("per-layer count %s differs between traced runs" % name)
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check(workload)
        print("%s: %s" % (workload, "PASS" if not problems else "FAIL"))
        for p in problems:
            print("  " + p)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
