"""The receivers of one RREQ broadcast share its open and its upstream MAC
check (`frames.open_rreq`, `srdp.SrdpNode._verify_two_hop`).  Sharing
must change nothing a run reports: these runs are repeated with both
results forgotten before every open and every check, so that each
receiver computes its own, and must give the same report bytes and
trace digest."""

import hashlib

import pytest

from secroute import crypto, frames, srdp
from secroute.harness import ADVERSARY_BEHAVIORS, Harness, ScenarioConfig, emit_report, topology_to_text
from test_acceptance import tamper_scenarios
from test_harness import PINNED_REPORTS


def unshared(monkeypatch):
    """Make every receiver open and check for itself: clear what an earlier
    receiver left on the packet and on the body before each call."""
    real_open, real_check = srdp.open_rreq, srdp.SrdpNode._verify_two_hop

    def open_alone(key, pkt):
        vars(pkt).pop("_opened", None)
        return real_open(key, pkt)

    def check_alone(self, body):
        vars(body).pop("_upstream_checked", None)
        return real_check(self, body)

    monkeypatch.setattr(srdp, "open_rreq", open_alone)
    monkeypatch.setattr(srdp.SrdpNode, "_verify_two_hop", check_alone)


def run(cfg):
    report = Harness(cfg).run()
    return hashlib.sha256(emit_report(report)).hexdigest(), report.trace_digest


def both_ways(monkeypatch, configs):
    """(shared, unshared) results of running each of `configs`, and the
    open_box calls each way made."""
    tally = {"open_box": 0}
    real_open_box = crypto.open_box

    def counting_open_box(*args):
        tally["open_box"] += 1
        return real_open_box(*args)

    monkeypatch.setattr(frames, "open_box", counting_open_box)
    shared = [run(cfg) for cfg in configs]
    opens_shared, tally["open_box"] = tally["open_box"], 0
    with monkeypatch.context() as patch:
        unshared(patch)
        alone = [run(cfg) for cfg in configs]
    return shared, alone, opens_shared, tally["open_box"]


def test_pinned_reports_equal_unshared(monkeypatch):
    configs = [make() for make, _ in PINNED_REPORTS.values()]
    shared, alone, opens_shared, opens_alone = both_ways(monkeypatch, configs)
    assert shared == alone
    assert [digest for digest, _ in shared] == [digest for _, digest in PINNED_REPORTS.values()]
    assert opens_shared < opens_alone  # the patch did make receivers open alone


@pytest.mark.parametrize("behavior", ADVERSARY_BEHAVIORS)
def test_tamper_scenarios_equal_unshared(monkeypatch, behavior):
    configs = [
        ScenarioConfig(
            topology_text=topology_to_text(topo),
            source="N0",
            dest="N7",
            seed=seed,
            adversary=(adversary, behavior),
            collection_window=200,
        )
        for seed, adversary, topo in tamper_scenarios()
    ]
    shared, alone, opens_shared, opens_alone = both_ways(monkeypatch, configs)
    for cfg, a, b in zip(configs, shared, alone):
        assert a == b, cfg.seed
    assert opens_shared < opens_alone
