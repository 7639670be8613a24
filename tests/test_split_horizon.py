"""A relay sends no copy of a request back over the link it arrived on
(`Simulator.broadcast`'s `came_from`).  That copy could only reach a node
that has already marked the round seen, so skipping it must change
nothing a run decides: these runs are repeated with the skip ignored,
every forward reaching every neighbour, and must give the same reports
but for the trace digest and the `Duplicate` drops the skipped copies
would have been.  A relay whose one link is the one its copy came from
is left no link at all, so it builds no copy (the pendant tests below)."""

from collections import Counter

import pytest

from secroute import srdp
from secroute.harness import ADVERSARY_BEHAVIORS, Harness, ScenarioConfig, provision, topology_to_text
from secroute.sim import Simulator
from secroute.topology import load_topology
from test_acceptance import tamper_scenarios
from test_harness import DIAMOND, PINNED_REPORTS

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


# -- pendant relays ------------------------------------------------------------

# P and Q have one link each, so a request they hear has no link left to go on.
PENDANT = DIAMOND + "node P relay\nnode Q relay\nlink B P 10 2\nlink C Q 1 3\n"


@pytest.mark.parametrize(
    "link_break, routes",
    [(None, [["S", "A", "B", "D"]]), (("A", "B", 90.0), [["S", "A", "B", "D"], ["S", "C", "D"]])],
    ids=["honest", "break-a-b"],
)
def test_pendant_relay_builds_and_sends_nothing(monkeypatch, link_break, routes):
    """A relay whose one neighbour is the sender of its copy marks the round
    seen and builds no onward copy: no hop MAC, chain step, seal or send.
    The run installs the routes, and delivers the cloudlets, that it did
    when such a relay sealed a copy and broadcast it to no one."""
    built = []
    real = srdp.SrdpNode.relay_rreq
    monkeypatch.setattr(srdp.SrdpNode, "relay_rreq", lambda self, *args: built.append(self.node) or real(self, *args))
    h = Harness(ScenarioConfig(topology_text=PENDANT, source="S", dest="D", seed=3, cloudlets=6, link_break=link_break))
    report = h.run()
    rounds = 1 + report.rediscoveries
    assert report.routes_installed == routes and report.chosen_route == routes[-1]
    assert (report.cloudlets_delivered, report.detections) == (6, [])
    assert report.events == ({"link_break_detected": 1} if link_break else {})
    assert report.counters["P"] == {"rreq_dead_end": 1}  # B relays only the first round
    assert report.counters["Q"] == {"rreq_dead_end": rounds}
    assert not {"P", "Q"} & set(built)
    assert [e for e in h.sim.trace if e["ev"] == "send" and e["node"] in ("P", "Q")] == []


def test_pendant_relay_makes_no_mac_hash_or_seal(monkeypatch):
    """At the pendant P, a copy from B costs the open and the upstream MAC
    check, and nothing else: P lays down no MAC of its own, hashes no chain
    value and seals nothing, and a second copy of the round is a duplicate."""
    topo = load_topology(PENDANT)
    stores = provision(topo, 64, 8, seed=0)[0]
    nodes = {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}
    pkt = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    pkt = nodes["B"].process_rreq(pkt, "A", 10, 2)[1]
    calls = Counter()
    for name in ("rreq_hop_mac", "hash_bytes", "seal_rreq_plaintext", "seal"):
        real = getattr(srdp, name)
        monkeypatch.setattr(srdp, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args))
    assert nodes["P"].process_rreq(pkt, "B", 10, 2) is srdp.DEAD_END
    assert calls == {"rreq_hop_mac": 1}  # the check of the MAC A laid down
    assert nodes["P"].process_rreq(pkt, "B", 10, 2) is srdp.DUPLICATE_DROP
    assert nodes["P"].counters == {"rreq_dead_end": 1, "drop:Duplicate": 1} and nodes["P"].detections == []
