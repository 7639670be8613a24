"""A relay sends no copy of a request back over the link it arrived on
(`Simulator.broadcast`'s `came_from`).  That copy could only reach a node
that has already marked the round seen, so skipping it must change
nothing a run decides: these runs are repeated with the skip ignored,
every forward reaching every neighbour, and must give the same reports
but for the trace digest and the `Duplicate` drops the skipped copies
would have been."""

import pytest

from secroute.harness import ADVERSARY_BEHAVIORS, Harness, ScenarioConfig, topology_to_text
from secroute.sim import Simulator
from test_acceptance import tamper_scenarios
from test_harness import PINNED_REPORTS

DUPLICATE = "drop:Duplicate"


def run(cfg):
    report = Harness(cfg).run().to_dict()
    report.pop("trace_digest")
    duplicates = sum(c.pop(DUPLICATE, 0) for c in report["counters"].values())
    report["counters"] = {n: c for n, c in report["counters"].items() if c}  # a node that only dropped duplicates
    return report, duplicates


def both_ways(monkeypatch, configs):
    """(skipping, full) reports for each of `configs`, the Duplicate drops
    each way made, and the copies the skip left out, counted at each
    forward as the link to `came_from` being up."""
    real = Simulator.broadcast
    skipped = 0

    def counting(self, sender, frame, came_from=None):
        nonlocal skipped
        if came_from is not None and self.topo.has_link(sender, came_from) and self._link_up(sender, came_from):
            skipped += 1
        return real(self, sender, frame, came_from)

    def full_fan_out(self, sender, frame, came_from=None):
        return real(self, sender, frame)

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "broadcast", counting)
        skipping = [run(cfg) for cfg in configs]
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "broadcast", full_fan_out)
        full = [run(cfg) for cfg in configs]
    return skipping, full, skipped


def check(monkeypatch, configs):
    skipping, full, skipped = both_ways(monkeypatch, configs)
    for cfg, (a, _), (b, _) in zip(configs, skipping, full):
        assert a == b, cfg
    extra = sum(d for _, d in full) - sum(d for _, d in skipping)
    assert extra == skipped > 0  # each skipped copy was a Duplicate drop, and the patch did send them


def test_pinned_reports_equal_full_fan_out(monkeypatch):
    check(monkeypatch, [make() for make, _ in PINNED_REPORTS.values()])


@pytest.mark.parametrize("behavior", ADVERSARY_BEHAVIORS)
def test_tamper_scenarios_equal_full_fan_out(monkeypatch, behavior):
    check(
        monkeypatch,
        [
            ScenarioConfig(
                topology_text=topology_to_text(topo),
                source="N0",
                dest="N7",
                seed=seed,
                adversary=(adversary, behavior),
                collection_window=200,
            )
            for seed, adversary, topo in tamper_scenarios()
        ],
    )
