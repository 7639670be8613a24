"""What the benchmark under `bench/` uses of the package, checked in
tier 1 so that a rename fails here and not only in a benchmark run."""

import importlib
from pathlib import Path

import pytest

from secroute import sim, srdp
from secroute.harness import random_topology

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `tracer` and `workloads` modules, imported with
    `bench/` on the path for this test only."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_target_exists(bench):
    tracer, _ = bench
    missing = [(owner, attr) for owner, attr, _, _ in tracer.TARGETS if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_traced_drop_reason_resolves(bench):
    tracer, _ = bench
    reasons = {value for name, value in vars(srdp).items() if name.isupper() and isinstance(value, str)}
    assert tracer.DROP_REASONS and set(tracer.DROP_REASONS) <= reasons
    assert hasattr(srdp, "HOP_COUNT_MISMATCH")


def test_simulator_takes_the_workloads_seed(bench):
    _, workloads = bench
    assert workloads.sim is sim
    assert sim.Simulator(random_topology(1, 8), seed=0).clock == 0
