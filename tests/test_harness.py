import dataclasses
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from secroute import cost as ecms
from secroute import harness as harnesslib
from secroute import kdc
from secroute import oracle as oraclelib
from secroute import srdp
from secroute.cli import main
from secroute.crypto import Key, seal
from secroute.errors import ConfigError, EmptyCover, NoUsableIndex, TooLarge
from secroute.frames import RepPacket, RrepBody, RrepInfo, RrepPacket, SessionFrame, encode_frame
from secroute.harness import (
    DETECTABLE_BEHAVIORS,
    LINK_BW_RANGE,
    LINK_DELAY_RANGE,
    STEP_ACK,
    STEP_CLOUDLET,
    Harness,
    ProtocolBehavior,
    ScenarioConfig,
    compare_oracle,
    emit_report,
    provision,
    random_topology,
    run_scenario,
    topology_to_text,
)
from secroute.sim import TRACE_LAYOUT
from secroute.topology import Topology, load_topology
from test_acceptance import tamper_scenarios

DIAMOND = """
node S broker
node A relay
node B relay
node C relay
node D coordinator
link S A 10 2
link A B 10 2
link B D 10 2
link S C 5 8
link C D 5 8
"""


def diamond_cfg(**kw):
    base = dict(topology_text=DIAMOND, source="S", dest="D", seed=3)
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.mark.parametrize(
    "mode, route",
    [
        (ecms.Mode.HC_BW, ["S", "A", "B", "D"]),  # hc*bw 3*10 = 30 beats 2*5 = 10
        (ecms.Mode.BW_ND, ["S", "C", "D"]),  # bw*nd 5*16 = 80 beats 10*6 = 60
    ],
)
def test_destination_ranks_by_the_run_mode(mode, route):
    assert run_scenario(diamond_cfg(mode=mode)).chosen_route == route


def test_honest_run_installs_route():
    report = run_scenario(diamond_cfg())
    assert report.chosen_route == ["S", "A", "B", "D"]
    assert report.detections == []
    assert report.rediscoveries == 0
    assert report.path_cost is not None and report.path_cost > 0


def test_run_deterministic_byte_identical():
    r1 = emit_report(run_scenario(diamond_cfg(cloudlets=3)))
    r2 = emit_report(run_scenario(diamond_cfg(cloudlets=3)))
    assert r1 == r2


def test_report_json_round_trip():
    report = run_scenario(diamond_cfg())
    blob = emit_report(report, "json")
    d = json.loads(blob)
    assert d == json.loads(json.dumps(report.to_dict()))
    assert d["config"]["mode"] == "hc_bw_nd"
    text = emit_report(report, "text").decode()
    assert "S -> A -> B -> D" in text
    assert report.trace_digest in text


def test_cloudlets_delivered_honest():
    report = run_scenario(diamond_cfg(cloudlets=5))
    assert report.cloudlets_delivered == 5


def test_link_break_triggers_rediscovery():
    # First run learns the install time so the break lands mid-transfer.
    probe = run_scenario(diamond_cfg(cloudlets=6))
    assert probe.cloudlets_delivered == 6
    report = run_scenario(
        diamond_cfg(cloudlets=6, link_break=("A", "B", 90.0))
    )
    assert report.rediscoveries >= 1
    assert report.cloudlets_delivered == 6
    assert ["S", "C", "D"] in report.routes_installed


# S's neighbour X hears S's request first from A, over S-A-X (2 ms plus
# transmission), before S's own copy over the slow S-X link (20 ms).
SLOW_SIDE = """
node S broker
node A relay
node X relay
node D coordinator
link S A 10 1
link A X 10 1
link S X 10 20
link X D 10 1
"""


@pytest.mark.parametrize(
    "make, returned",
    [
        (diamond_cfg, 0),
        (lambda: diamond_cfg(cloudlets=6, link_break=("A", "B", 90.0)), 0),
        (lambda: ScenarioConfig(topology_text=SLOW_SIDE, source="S", dest="D"), 1),
    ],
    ids=["honest", "break-a-b", "slow-side"],
)
def test_source_broadcasts_each_round_once_and_relays_none(make, returned):
    """The source records each round it starts as seen, so a neighbour's
    copy that comes back is a duplicate, not a request for it to relay: S
    broadcasts once per round, and forwards no request.  A relay sends no
    copy back to the neighbour it heard the round from, so on the diamond
    no copy comes back from A or C; on the slow side, X first hears the
    round from A and sends S one copy per round, which S drops."""
    h = Harness(make())
    report = h.run()
    rounds = 1 + report.rediscoveries
    broadcasts = [e for e in h.sim.trace if e["ev"] == "send" and e["node"] == "S" and e["kind"] == "broadcast"]
    assert len(broadcasts) == rounds
    assert "rreq_forwarded" not in report.counters["S"]
    assert report.counters["S"].get("drop:" + srdp.DUPLICATE, 0) == returned * rounds
    if returned:
        assert report.chosen_route == ["S", "A", "X", "D"]


@pytest.mark.parametrize(
    "cfg",
    [diamond_cfg()]
    + [
        ScenarioConfig(topology_text=topology_to_text(random_topology(seed, n)), source="N0", dest="N%d" % (n - 1))
        for seed, n in [(1, 8), (5, 12), (11, 20), (23, 40)]
    ],
    ids=["diamond", "n8", "n12", "n20", "n40"],
)
def test_no_request_goes_back_to_where_it_came_from(monkeypatch, cfg):
    """Split horizon: a relay forwards a round to every neighbour but the
    one it first heard the round from, so no RREQ copy is ever delivered
    from a node to the node its own first copy of the round came from.
    The source starts the round before any copy reaches it, so what it
    hears later bounds nothing."""
    real = ProtocolBehavior.handle_rreq
    deliveries = []  # (to, sender, round) of every RREQ copy, in order

    def recording(self, sim, node, sender, pkt, clock):
        deliveries.append((node, sender, pkt.round_id()))
        return real(self, sim, node, sender, pkt, clock)

    monkeypatch.setattr(ProtocolBehavior, "handle_rreq", recording)
    report = Harness(cfg).run()
    first_from = {}
    for to, sender, rid in deliveries:
        if to != rid[0]:
            first_from.setdefault((to, rid), sender)
    assert [d for d in deliveries if first_from.get((d[1], d[2])) == d[0]] == []
    forwarded = sum(c.get("rreq_forwarded", 0) for c in report.counters.values())
    assert forwarded >= 2 and report.chosen_route is not None


@pytest.mark.parametrize("behavior", DETECTABLE_BEHAVIORS)
def test_tampering_adversary_broadcasts_each_round_once(behavior):
    """An adversary next to the source waits past the source's own copy
    for one with a path to tamper with, and drops later copies of the
    round on the clear header: it broadcasts the round once, and the
    destination still detects the tampering."""
    cfg = ScenarioConfig(
        topology_text=topology_to_text(random_topology(3, 12, 0.4)),
        source="N0",
        dest="N11",
        adversary=("N5", behavior),
    )
    h = Harness(cfg)
    assert h.topo.has_link("N0", "N5")
    report = h.run()
    broadcasts = [e for e in h.sim.trace if e["ev"] == "send" and e["node"] == "N5" and e["kind"] == "broadcast"]
    assert len(broadcasts) == 1 + report.rediscoveries == 1
    assert "rreq_forwarded" not in report.counters["N5"]  # the one broadcast is the tampered copy
    assert report.detections and {d["node"] for d in report.detections} == {"N11"}


class InstallTimes(Harness):
    """A harness that notes when each route is installed."""

    def __init__(self, config):
        super().__init__(config)
        self.installed_at = []

    def on_route_installed(self, sim, node, route, clock):
        self.installed_at.append(clock)
        super().on_route_installed(sim, node, route, clock)


def test_cost_deflate_lies_in_every_round():
    """A tampering relay lies in every round it relays, not only its
    first.  On random_topology(4, 10) the first route runs through the
    cost-deflating N2; with its first hop broken 5 ms after install, as
    sweep-n12 breaks it, round 2's copy through N2 again claims a cost
    below its true 30.007, and the source installs that route."""
    cfg = ScenarioConfig(
        topology_text=topology_to_text(random_topology(4, 10)),
        source="N0",
        dest="N9",
        adversary=("N2", "cost-deflate"),
        cloudlets=6,
    )
    probe = InstallTimes(cfg)
    first = probe.run().chosen_route
    assert first == ["N0", "N5", "N2", "N9"]
    h = Harness(dataclasses.replace(cfg, link_break=(first[0], first[1], probe.installed_at[0] + 5.0)))
    report = h.run()
    assert report.rediscoveries == 1
    assert report.routes_installed == [first, ["N0", "N7", "N2", "N9"]]
    via_n2 = [c for c in h.protos["N9"].dest_rounds[("N0", 2)].candidates if "N2" in c.path]
    assert [(c.path, round(c.totals.path_cost, 4)) for c in via_n2] == [(("N7", "N2"), 7.0017)]


def tamper_cfg(behavior):
    """The first acceptance tamper topology, with its adversary acting."""
    seed, adversary, topo = tamper_scenarios(1)[0]
    return ScenarioConfig(
        topology_text=topology_to_text(topo),
        source="N0",
        dest="N7",
        seed=seed,
        adversary=(adversary, behavior),
        collection_window=200,
    )


# Pinned report bytes: frame sizes, MAC inputs, path costs and every trace
# entry feed these hashes, so a codec, simulator or cost change that alters
# any of them shows here.
PINNED_REPORTS = {
    "honest": (lambda: diamond_cfg(cloudlets=3), "ed4e4bb7b9233c0a962d17ae2bdd00717d293f0d1fb4284d6dc6e864d68c090d"),
    "break-a-b": (  # A reports the broken round once
        lambda: diamond_cfg(cloudlets=6, link_break=("A", "B", 90.0)),
        "02fa304f85a0e267e286a21099b88fd6f8252cb56efc39971473bdc0c4f14d55",
    ),
    "break-b-d": (  # B's route error is relayed by A to S
        lambda: diamond_cfg(cloudlets=6, link_break=("B", "D", 90.0)),
        "356dc33f702448f08b2b85abd270f385280595800e7bd515006e9b9204c5b437",
    ),
    "n40": (
        lambda: ScenarioConfig(
            topology_text=topology_to_text(random_topology(11, 40, 0.12)), source="N0", dest="N39", seed=1, cloudlets=2
        ),
        "3552bce2632ebf9af570a95ebab109ca30ba36a4884d180f07e4f69d14784df1",
    ),
    "adv-path-insert": (
        lambda: tamper_cfg("path-insert"),
        "29f4bda66e51bce8f8755cb4bf9cc6e3448e17e31d20874ff01a7704ee78345b",
    ),
    "adv-path-delete": (
        lambda: tamper_cfg("path-delete"),
        "9547a9e2d80c200bea6bd8db33cd9d1e5aca2bdfcea8cdcbdc5ee9dc06e4541f",
    ),
    "adv-path-modify": (
        lambda: tamper_cfg("path-modify"),
        "ced202d376dd93d1a6db4b8f56a81c507f286529ad67242622eaa224da8140c0",
    ),
    "adv-rreq-field-tamper": (
        lambda: tamper_cfg("rreq-field-tamper"),
        "601cad9118e2c8a9589d549980b411a65e79d1c67443d1039e2054e9354a3e4c",
    ),
    "adv-replay": (
        lambda: tamper_cfg("replay"),
        "6ec3e759c216e43deb1c9228ad04cf9603d3e94999500491ef088cee0c4cd71f",
    ),
    "adv-cost-deflate": (
        lambda: tamper_cfg("cost-deflate"),
        "2f8d11a31f07920cce5a109af74aed3df3fcda98ca28cf90b126d784ef0d2911",
    ),
    "mode-hc": (
        lambda: diamond_cfg(mode=ecms.Mode.HC),
        "29c9780d8aaa500041e5a697e35b21cabf8bdbbb00665c83f4f081e4f384104f",
    ),
    "mode-bw": (
        lambda: diamond_cfg(mode=ecms.Mode.BW),
        "b6b415640b62f71a9d805642f1b4e233defa55a1b7a377e127f78f73167ce172",
    ),
    "mode-nd": (
        lambda: diamond_cfg(mode=ecms.Mode.ND),
        "f6a6746390a4a034aadb01430aad0325fc3540a432e40cbfbef07cb920de48e8",
    ),
    "mode-hc_bw": (
        lambda: diamond_cfg(mode=ecms.Mode.HC_BW),
        "d9216b3bd6f5eaeffeb61a3975f456f9b43ac7e5360403acc12377d9b8deeaef",
    ),
    "mode-bw_nd": (
        lambda: diamond_cfg(mode=ecms.Mode.BW_ND),
        "82b85694e6d87edd41d4e3845238777ea894e2e25cba4ad0b7d335418e289057",
    ),
    "mode-hc_nd": (
        lambda: diamond_cfg(mode=ecms.Mode.HC_ND),
        "4a3315939b88c8513185899b3da0cdb999b3e2f908d5d3524b8ecb8c1ae2cc00",
    ),
    "mode-hc_bw_nd": (
        lambda: diamond_cfg(mode=ecms.Mode.HC_BW_ND),
        "98207e88508e6f5a1a1660ad5c951e7d16614a5e584f3a45f5b460bbefb4465c",
    ),
    "literal-cost": (
        lambda: diamond_cfg(literal_cost=True),
        "0345b74dc6b0c062390ae8baeb6749c4c9c0c515fc21bf3ddaa3787802bf102a",
    ),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_bytes_pinned(name):
    make, digest = PINNED_REPORTS[name]
    assert hashlib.sha256(emit_report(run_scenario(make()))).hexdigest() == digest


@pytest.mark.parametrize("name", ["honest", "break-a-b", "n40"])
def test_trace_entries_follow_their_layout(name):
    """Each trace entry is `(ev, t, *fields)` in its kind's layout, reads
    the same by field name as by position, and the digest is the SHA-256
    of the entries' JSON arrays."""
    h = Harness(PINNED_REPORTS[name][0]())
    report = h.run()
    trace = h.sim.trace
    assert trace == h.sim._trace
    for e in trace:
        assert e[0] in TRACE_LAYOUT
        names = ("ev", "t") + TRACE_LAYOUT[e[0]]
        assert len(e) == len(names)
        for i, field in enumerate(names):
            assert e[field] is e[i] and e.get(field) is e[i]
        assert e.get("missing") is None and e.get("missing", 0) == 0
        with pytest.raises(KeyError):
            e["missing"]
        if e["ev"] == "send":
            assert (e["to"] is None) == (e["kind"] == "broadcast")
    kinds = Counter(e["ev"] for e in trace)
    assert {"deliver", "send", "timer"} <= set(kinds)
    if name == "break-a-b":
        assert kinds["suppress"]
    if name == "n40":
        assert kinds["drop"]
    encoded = json.dumps([list(e) for e in trace], separators=(", ", ": "), ensure_ascii=True)
    assert h.sim.trace_digest() == report.trace_digest == hashlib.sha256(encoded.encode()).hexdigest()


def test_replay_trace_holds_no_wire_bytes():
    """The replay adversary keeps the frame it captured and tags its timer
    without it, so the trace, and the trace digest, hold no ciphertext."""
    harness = Harness(tamper_cfg("replay"))
    report = harness.run()
    timers = [e["tag"] for e in harness.sim.trace if e["ev"] == "timer" and "adversary-replay" in e["tag"]]
    assert timers == [repr(("adversary-replay",))]
    assert sum(c.get("drop:Duplicate", 0) for c in report.counters.values()) >= 1


@pytest.mark.parametrize("seed, n, adversary", [(46, 10, "N1"), (62, 12, "N6"), (79, 8, "N5")])
def test_replay_does_not_steer_the_route(seed, n, adversary):
    """A replayed copy is opened under the key of the neighbour the link
    delivered it from, the replayer's, so it fails there instead of being
    priced over the replayer's link: the replay run installs the route the
    honest run installs.  These three topologies installed another route
    while an RREQ named its own sender."""
    text = topology_to_text(random_topology(seed, n))
    base = dict(topology_text=text, source="N0", dest="N%d" % (n - 1), collection_window=200)
    routes = [run_scenario(ScenarioConfig(adversary=a, **base)).chosen_route for a in (None, (adversary, "replay"))]
    assert routes[0] is not None and routes[1] == routes[0]


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("mode", list(ecms.Mode))
def test_candidates_equal_whole_path_fold(mode, literal):
    """What the protocol accumulated hop by hop equals the fold over the
    whole path, exactly and with the same number types."""
    w = ecms.weights_for_mode(mode)
    checked = 0
    for seed in range(20):
        cfg = ScenarioConfig(
            topology_text=topology_to_text(random_topology(seed)),
            source="N0",
            dest="N7",
            seed=seed,
            mode=mode,
            literal_cost=literal,
        )
        harness = Harness(cfg)
        report = harness.run()
        matrices = ecms.CostMatrices.from_topology(harness.topo)
        for state in harness.protos["N7"].dest_rounds.values():
            for c in state.candidates:
                t = ecms.aggregate(("N0", *c.path, "N7"), matrices, w, literal)
                assert c.totals == t, (seed, c.path)
                assert list(map(type, c.totals)) == list(map(type, t))
                if ["N0", *c.path, "N7"] == report.chosen_route:
                    got = {"hc": c.totals.hop_count, "bw": c.totals.bw, "nd": c.totals.nd}
                    assert (report.path_cost, report.metrics) == (c.totals.path_cost, got)
                checked += 1
        assert report.chosen_route, seed
    assert checked >= 20 * 2


def pending_acks(h):
    """Every hop's open ack waits, as `(node, (s_addr, s_seqno, d_addr, seq))`."""
    return {(n, c) for n, b in h.sim.behaviors.items() for c in b.awaiting_ack}


@pytest.mark.parametrize("step", [0, 1, 99, 102, 255])
def test_session_frame_with_other_step_is_ignored(step):
    h = Harness(diamond_cfg())
    h.run()
    h.sim.behaviors["A"].awaiting_ack.add(("S", 1, "D", 1))
    for sender, seqno in (("B", 1), ("S", 0)):  # held, not held
        h.sim.unicast(sender, "A", encode_frame(SessionFrame(step, "S", seqno, "D", 1)))
    h.sim.run_until()
    tail = h.sim.trace[-4:]
    # A receives both frames and answers neither: no drop, no ack, no delivery.
    assert [(e["ev"], e["node"]) for e in tail] == [("send", "B"), ("send", "S"), ("deliver", "A"), ("deliver", "A")]
    assert h.cloudlets_done == set()
    assert pending_acks(h) == {("A", ("S", 1, "D", 1))}


@pytest.mark.parametrize(
    "sender, to, route",
    [
        ("B", "D", ("D", 1, "A")),  # D holds no route from itself to A
        ("A", "B", ("B", 1, "S")),  # B holds no route from itself to S
        ("S", "A", ("S", 0, "D")),  # A holds S-A-B-D for round ("S", 1), not 0
        ("C", "D", ("S", 1, "D")),  # D holds S-A-B-D, so it takes the round's cloudlets only from B
    ],
)
def test_forged_cloudlet_off_route_is_dropped(sender, to, route):
    """A cloudlet is taken only for a round the receiver holds a route for,
    and only from its previous hop there: after the diamond's honest run,
    each of these cloudlets, naming its route by round `(s_addr, s_seqno,
    d_addr)`, is dropped on arrival, unacknowledged."""
    h = Harness(diamond_cfg())
    honest = h.run()
    h.sim.unicast(sender, to, encode_frame(SessionFrame(STEP_CLOUDLET, *route, 5)))
    h.sim.run_until()
    tail = h.sim.trace[-2:]
    assert tail == [
        ("deliver", tail[0]["t"], to, sender, tail[0]["size"]),
        ("drop", tail[0]["t"], to, srdp.NOT_ON_ROUTE),
    ]
    report = h._report()
    assert report.cloudlets_delivered == 0
    assert report.rediscoveries == 0
    assert report.routes_installed == honest.routes_installed
    assert pending_acks(h) == set()


@pytest.mark.parametrize(
    "sender,route,cleared",
    [
        ("S", ("S", 1, "D"), False),  # S is A's previous hop, not its next
        ("S", ("S", 1, "C"), False),  # A holds no route from S to C
        ("B", ("S", 0, "D"), False),  # A holds round ("S", 1), not 0
        ("B", ("S", 1, "D"), True),  # the honest ack
    ],
)
def test_cloudlet_ack_taken_only_from_successor_on_its_route(sender, route, cleared):
    """A cloudlet ack clears a hop's wait only when the hop holds a route
    for the round the ack names and the ack comes from its next hop there;
    any other is dropped on arrival."""
    h = Harness(diamond_cfg())
    h.run()
    h.sim.behaviors["A"].awaiting_ack.add(("S", 1, "D", 1))
    h.sim.unicast(sender, "A", encode_frame(SessionFrame(STEP_ACK, *route, 1)))
    h.sim.run_until()
    trace = h.sim.trace[-1:]
    drops = [(e["node"], e["reason"]) for e in trace if e["ev"] == "drop"]
    assert drops == ([] if cleared else [("A", srdp.NOT_ON_ROUTE)])
    assert pending_acks(h) == (set() if cleared else {("A", ("S", 1, "D", 1))})


def test_route_error_for_a_route_the_source_never_held_is_dropped():
    """A route error is bound to the round and route the source installed:
    after the honest run, C's LINK_BREAK report for round ("S", 0) on the
    route S-C-D is dropped, and S keeps S-A-B-D without rediscovering."""
    h = Harness(diamond_cfg())
    honest = h.run()
    rep = h.protos["C"].build_rep(RrepInfo("S", 0, "D", ("C",)), srdp.LINK_BREAK)
    h.sim.unicast("C", "S", encode_frame(rep))
    h.sim.run_until()
    trace = h.sim.trace
    assert (trace[-1]["ev"], trace[-1]["node"], trace[-1]["reason"]) == ("drop", "S", srdp.NOT_ON_ROUTE)
    report = h._report()
    assert report.rediscoveries == 0
    assert report.routes_installed == honest.routes_installed
    assert report.chosen_route == ["S", "A", "B", "D"]


def test_route_error_at_a_relay_holding_no_such_round_is_dropped():
    """A relay forwards a route error only for the round and route it
    holds: D's report naming S-C-D reaches C, which relayed no reply for
    S's round, and is dropped there."""
    h = Harness(diamond_cfg())
    h.run()
    rep = h.protos["D"].build_rep(RrepInfo("S", 1, "D", ("C",)), srdp.LINK_BREAK)
    h.sim.unicast("D", "C", encode_frame(rep))
    h.sim.run_until()
    trace = h.sim.trace
    assert (trace[-1]["ev"], trace[-1]["node"], trace[-1]["reason"]) == ("drop", "C", srdp.NOT_ON_ROUTE)
    assert h.protos["C"].counters["drop:" + srdp.NOT_ON_ROUTE] == 1
    assert h._report().rediscoveries == 0


class PoisonThenDrop(ProtocolBehavior):
    """B relays the honest reply, then sends A its own reply for the same
    round over S-A-B-B-D, which A can check only against its key with B,
    and drops every cloudlet of that round."""

    poisoned = False

    def handle_rrep(self, sim, node, sender, pkt, clock):
        super().handle_rrep(sim, node, sender, pkt, clock)
        if not self.poisoned:
            self.poisoned = True
            info = RrepInfo("S", 1, "D", ("A", "B", "B"))
            q = b"\x00" * 32
            body = RrepBody(info, q, srdp.rrep_hop_mac(self.proto.keys.pairwise_key("A"), info, q), None)
            sim.unicast(node, "A", encode_frame(RrepPacket(seal(self.proto.keys.group_key, body.to_bytes()))))

    def handle_session(self, sim, node, sender, pkt, clock):
        if not (pkt.step == STEP_CLOUDLET and pkt.s_seqno == 1):
            super().handle_session(sim, node, sender, pkt, clock)


def test_route_error_over_a_poisoned_relay_route_leads_to_rediscovery():
    """A route error is bound to the round and to the hop it comes from,
    not to the route it names: B makes A hold its own route for S's first
    round and drops that round's cloudlets; A's route error names the
    poisoned route, S accepts it from A, rediscovers, and every cloudlet
    arrives over the new round."""
    h = Harness(diamond_cfg(cloudlets=3))
    h.sim.install("B", PoisonThenDrop(h.protos["B"], h))
    report = h.run()
    assert report.rediscoveries == 1
    assert report.cloudlets_delivered == 3
    assert report.routes_installed == [["S", "A", "B", "D"]] * 2
    assert not [e for e in h.sim.trace if e["ev"] == "drop" and e["node"] == "S" and e["reason"] == srdp.NOT_ON_ROUTE]


def test_route_error_box_is_bound_to_its_round():
    """A route error's code is sealed bound to the round it names, so its
    box does not answer for another round: after the honest run and a
    rediscovery over the same route, A brings S B's round-1 box under
    round ("S", 2), and S drops it without rediscovering."""
    h = Harness(diamond_cfg())
    h.run()
    b = h.protos["B"]
    first = b.build_rep(b.routes[("S", "D")], srdp.LINK_BREAK)
    h.on_rep_at_source(h.sim, "S", "D")
    h.sim.run_until()
    held = h.protos["S"].routes[("S", "D")]
    assert (held.s_seqno, srdp.route_nodes(held)) == (2, ("S", "A", "B", "D"))
    second = b.build_rep(b.routes[("S", "D")], srdp.LINK_BREAK)
    assert second.sealed_code != first.sealed_code
    h.sim.unicast("A", "S", encode_frame(RepPacket("S", 2, "D", first.sealed_code, "B")))
    h.sim.run_until()
    trace = h.sim.trace
    assert (trace[-1]["ev"], trace[-1]["node"], trace[-1]["reason"]) == ("drop", "S", srdp.SEAL_OPEN_FAIL)
    assert "rep_accepted" not in h.protos["S"].counters
    assert h._report().rediscoveries == 1
    assert h.protos["S"].routes[("S", "D")] == held


def test_a_broken_round_raises_one_route_error():
    """A hop that raises a route error forgets the round's route, so its
    other waits for the round end there: with A-B down mid-transfer, A
    reports round ("S", 1) once, and S drops no second report."""
    h = Harness(PINNED_REPORTS["break-a-b"][0]())
    raised = []
    for proto in h.protos.values():
        build = proto.build_rep
        proto.build_rep = lambda rrep, code, node=proto.node, build=build: (
            raised.append((node, rrep.s_addr, rrep.s_seqno)) or build(rrep, code)
        )
    report = h.run()
    assert raised == [("A", "S", 1)]
    assert report.events == {"link_break_detected": 1}
    assert (report.rediscoveries, report.cloudlets_delivered) == (1, 6)
    assert ("S", "D") not in h.protos["A"].routes
    assert not [e for e in h.sim.trace if e["ev"] == "drop" and e["node"] == "S" and e["reason"] == srdp.NOT_ON_ROUTE]
    assert pending_acks(h) == set()


def test_reply_from_another_sender_than_it_claims_is_dropped():
    """A reply is taken only from the neighbour its route names as the
    previous hop: after the honest run, B sends A a reply for round
    ("S", 1) over S-A-D, which claims to come from D, sealed under B's own
    group key; A opens it under that key, as the link names B, drops it
    and keeps the route it holds."""
    h = Harness(diamond_cfg())
    h.run()
    held = h.protos["A"].routes[("S", "D")]
    b = h.protos["B"]
    body = RrepBody(RrepInfo("S", 1, "D", ("A",)), b"\x00" * 32, None, None)
    h.sim.unicast("B", "A", encode_frame(RrepPacket(seal(b.keys.group_key, body.to_bytes()))))
    h.sim.run_until()
    trace = h.sim.trace
    assert (trace[-1]["ev"], trace[-1]["node"], trace[-1]["reason"]) == ("drop", "A", srdp.NOT_ON_ROUTE)
    assert h.protos["A"].routes[("S", "D")] == held


def test_source_never_relays_a_reply_for_its_own_round():
    """The source takes a reply for its own round only as the route's end:
    after the honest run, C sends S a reply for round ("S", 1) over
    S-S-C-C-D, MAC'd under its key with S, and S drops it rather than relay
    it as the first S, keeping its installed route."""
    h = Harness(diamond_cfg())
    h.run()
    held = h.protos["S"].routes[("S", "D")]
    c = h.protos["C"]
    info = RrepInfo("S", 1, "D", ("S", "C", "C"))
    q = b"\x00" * 32
    body = RrepBody(info, q, srdp.rrep_hop_mac(c.keys.pairwise_key("S"), info, q), None)
    h.sim.unicast("C", "S", encode_frame(RrepPacket(seal(c.keys.group_key, body.to_bytes()))))
    h.sim.run_until()
    trace = h.sim.trace
    assert (trace[-1]["ev"], trace[-1]["node"], trace[-1]["reason"]) == ("drop", "S", srdp.NOT_ON_ROUTE)
    assert h.protos["S"].routes[("S", "D")] == held
    assert h.protos["S"].installed_routes == {"D": ("S", "A", "B", "D")}


def test_reply_naming_an_unkeyed_destination_is_dropped_at_the_source():
    """A keyed neighbour's reply for a destination nobody holds a key with
    is dropped by the source with a reason, not raised out of the run:
    after the honest run, A seals under its group key a reply for round
    ("S", 1) to "ghost" over A-A, MACs it under its key with S, and
    unicasts it to S."""
    h = Harness(diamond_cfg())
    honest = h.run()
    a = h.protos["A"]
    info = RrepInfo("S", 1, "ghost", ("A", "A"))
    q = b"\x00" * 32
    body = RrepBody(info, q, srdp.rrep_hop_mac(a.keys.pairwise_key("S"), info, q), None)
    h.sim.unicast("A", "S", encode_frame(RrepPacket(seal(a.keys.group_key, body.to_bytes()))))
    h.sim.run_until()
    trace = h.sim.trace
    assert (trace[-1]["ev"], trace[-1]["node"], trace[-1]["reason"]) == ("drop", "S", srdp.NO_PAIRWISE_KEY)
    assert h.protos["S"].counters["drop:" + srdp.NO_PAIRWISE_KEY] == 1
    assert h._report().chosen_route == honest.chosen_route


def test_rrep_naming_an_unkeyed_node_is_dropped():
    """An insider's reply that names, two hops past a relay, a node nobody
    holds a key with is dropped at that relay with a reason, and the run
    goes on: after the honest run on the diamond, D seals a reply for the
    route ghost-A-B under its own group key and unicasts it to B."""
    h = Harness(diamond_cfg())
    honest = h.run()
    d = h.protos["D"]
    info = RrepInfo("S", 1, "D", ("ghost", "A", "B"))
    body = RrepBody(info, b"\x00" * 32, None, None)
    h.sim.unicast("D", "B", encode_frame(RrepPacket(seal(d.keys.group_key, body.to_bytes()))))
    h.sim.run_until()
    trace = h.sim.trace
    assert trace[-1]["ev"] == "drop"
    assert (trace[-1]["node"], trace[-1]["reason"]) == ("B", srdp.NO_PAIRWISE_KEY)
    assert h.protos["B"].counters["drop:" + srdp.NO_PAIRWISE_KEY] == 1
    assert h._report().chosen_route == honest.chosen_route


def test_malformed_broadcast_dropped_by_every_receiver(monkeypatch):
    """A frame that does not decode is decoded again, and dropped, by each
    receiver, and the run that follows is the run without it."""
    clean = Harness(diamond_cfg()).run()
    decodes = Counter()
    counting(monkeypatch, harnesslib, "decode_frame", lambda frame: frame, decodes)
    h = Harness(diamond_cfg())
    h.sim.broadcast("S", b"\x09not a frame")
    h.sim.run_until()
    trace = h.sim.trace
    drops = [(e["node"], e["reason"]) for e in trace if e["ev"] == "drop"]
    assert drops == [("A", "MalformedFrame"), ("C", "MalformedFrame")]
    assert decodes == {b"\x09not a frame": 2}
    report = h.run()
    assert (report.chosen_route, report.detections) == (clean.chosen_route, clean.detections)


# -- key provisioning --------------------------------------------------


def eager_twohop_secrets(topo, rings, params):
    """(receiver, sender) -> secret, as provisioning every broadcast up front
    gives it; also how many senders hit EmptyCover and receivers NoUsableIndex."""
    secrets, empty_cover, no_index = {}, 0, 0
    for sender in sorted(topo.nodes):
        revoked = sorted(topo.rdn(sender))
        try:
            msg = kdc.build_broadcast(rings[sender], rings[sender].broadcast_secret, revoked, params)
        except EmptyCover:
            msg = None
            empty_cover += 1
        for receiver in sorted(topo.nodes):
            if receiver == sender or receiver in revoked:
                continue
            secret = None
            if msg is not None:
                try:
                    secret = kdc.open_broadcast(rings[receiver], msg, sender, params)
                except NoUsableIndex:
                    no_index += 1
            secrets[receiver, sender] = secret or rings[sender].broadcast_secret
    return secrets, empty_cover, no_index


# (seed, nodes, edge_prob, kdc_k, kdc_m, some sender hits EmptyCover,
# some receiver hits NoUsableIndex)
KEY_NETWORKS = [
    (1, 8, 0.4, 64, 8, False, False),
    (2, 20, 0.4, 64, 8, False, True),
    (3, 60, 0.1, 64, 8, False, True),
    (1, 12, 0.5, 8, 4, True, True),
    (1, 12, 0.4, 16, 4, False, True),
]


@pytest.mark.parametrize("seed, n, p, k, m, empty_cover, no_index", KEY_NETWORKS)
def test_keys_on_first_use_match_eager_provisioning(seed, n, p, k, m, empty_cover, no_index):
    topo = random_topology(seed, n, p)
    stores, svc, params, rings = provision(topo, k, m, seed)
    expected, empty_covers, no_indices = eager_twohop_secrets(topo, rings, params)
    assert (empty_covers > 0, no_indices > 0) == (empty_cover, no_index)
    for node in sorted(topo.nodes):
        for peer in sorted(topo.nodes):
            assert stores[node].twohop_secret(peer) == expected.get((node, peer)), (node, peer)
            if peer == node:
                assert stores[node].pairwise_key(peer) is None
            else:
                assert stores[node].pairwise_key(peer) == svc.pairwise_key(node, peer)
        assert stores[node].twohop_secret("ghost") is None
        assert stores[node].pairwise_key("ghost") is None


def test_long_lived_keys_are_one_key_per_network():
    """Every key used many times is a `crypto.Key`: the master seed, the
    pairwise root, each ring's group key and broadcast secret, and every
    key a store hands out.  A network's stores share one Key per value: a
    two-hop secret is the sender's own ring key, and a pairwise key is one
    object at both ends.  Pool keys and encryption secrets, the material
    of envelope keys that each seal or open about once, stay plain bytes."""
    topo = random_topology(2, 20, 0.4)
    stores, svc, params, rings = provision(topo, 64, 8, 2)
    assert type(params.master_seed) is Key and type(svc._root) is Key
    for node, ring in rings.items():
        assert type(ring.rdn_group_key) is Key and type(ring.broadcast_secret) is Key
        assert type(ring.encryption_secret(ring.indices[0])) is bytes
        assert all(type(k) is bytes for k in ring.decryption_secrets)
        store = stores[node]
        for peer in sorted(topo.nodes):
            secret = store.twohop_secret(peer)
            assert secret is None or secret is rings[peer].broadcast_secret
            if peer != node:
                assert type(store.pairwise_key(peer)) is Key
                assert store.pairwise_key(peer) is stores[peer].pairwise_key(node)


def counting(monkeypatch, owner, name, key, tally):
    """Replace owner.name with a wrapper that counts calls by key(args)."""
    real = getattr(owner, name)

    def counted(*args):
        tally[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("behavior", [None, "path-insert", "path-modify"])
def test_secrets_opened_once_and_only_in_scope(monkeypatch, behavior):
    opened, built, derived = Counter(), Counter(), Counter()
    counting(monkeypatch, kdc, "open_broadcast", lambda ring, msg, sender, params: (ring.node, sender), opened)
    counting(monkeypatch, kdc, "build_broadcast", lambda ring, secret, revoked, params: ring.node, built)
    counting(monkeypatch, kdc.PairwiseKeyService, "pairwise_key", lambda svc, a, b: (a, b), derived)
    for seed, adversary, topo in tamper_scenarios(5):
        opened.clear(), built.clear(), derived.clear()
        harness = Harness(
            ScenarioConfig(
                topology_text=topology_to_text(topo),
                source="N0",
                dest="N7",
                seed=seed,
                adversary=(adversary, behavior) if behavior else None,
                collection_window=200,
            )
        )
        assert not opened and not built and not derived  # provisioning opens nothing
        report = harness.run()
        assert report.routes_installed
        assert opened and max(opened.values()) == 1
        assert max(built.values()) == 1
        assert max(derived.values()) == 1
        for receiver, sender in opened:
            assert receiver != sender and receiver not in harness.topo.rdn(sender)
            assert built[sender] == 1
        opens, derivations = sum(opened.values()), sum(derived.values())
        for receiver, sender in list(opened):
            assert harness.stores[receiver].twohop_secret(sender) is not None
        for a, b in list(derived):
            harness.stores[a].pairwise_key(b)
        assert sum(derived.values()) == derivations
        for node, store in harness.stores.items():
            assert store.twohop_secret(node) is None
            for neighbor in harness.topo.rdn(node):
                assert store.twohop_secret(neighbor) is None
            assert store.twohop_secret("ghost-1") is None
        assert sum(opened.values()) == opens


def test_encryption_secrets_derived_once_and_only_for_sealed_covers(monkeypatch):
    pool_reads, built, derived, issued = Counter(), Counter(), Counter(), Counter()
    # (receiver, sender, message, pool indices it read) per open; hashing
    # a message would seal it
    opened = []
    sealing = []  # the pool index just read to seal, until its key is derived
    issuing, enveloping, opening = [], [], []
    real_key, real_build, real_issue = kdc.KeyPool.key, kdc.build_broadcast, kdc.Kdc.issue
    real_open, real_envelope_key = kdc.open_broadcast, kdc.envelope_key
    real_envelope = kdc.BroadcastMessage.envelope

    def key(pool, j):
        pool_reads["read"] += 1
        if enveloping:  # K_j read inside `BroadcastMessage.envelope`: read to seal an envelope
            sealing.append(j)
        elif not issuing:  # any other read is an opener's, of its own K_j
            opening[-1].append(j)
        return real_key(pool, j)

    def envelope_key(pool_key, node):
        if sealing:  # hashing the K_j just read: a derivation of node's secret at j
            derived[node, sealing.pop()] += 1
        return real_envelope_key(pool_key, node)

    def envelope(msg, j):
        enveloping.append(j)
        try:
            return real_envelope(msg, j)
        finally:
            enveloping.pop()

    def build_broadcast(ring, secret, revoked, params):
        built[ring.node] += 1
        return real_build(ring, secret, revoked, params)

    def open_broadcast(receiver, msg, sender, params):
        opening.append([])
        opened.append((receiver.node, sender, msg, opening[-1]))
        try:
            return real_open(receiver, msg, sender, params)
        finally:
            opening.pop()

    def issue(center, node):
        issued[node] += 1
        before = pool_reads["read"]
        issuing.append(node)
        try:
            ring = real_issue(center, node)
        finally:
            issuing.pop()
        assert pool_reads["read"] == before  # issuing reads no pool key
        return ring

    monkeypatch.setattr(kdc.KeyPool, "key", key)
    monkeypatch.setattr(kdc, "envelope_key", envelope_key)
    monkeypatch.setattr(kdc.BroadcastMessage, "envelope", envelope)
    monkeypatch.setattr(kdc, "build_broadcast", build_broadcast)
    monkeypatch.setattr(kdc, "open_broadcast", open_broadcast)
    monkeypatch.setattr(kdc.Kdc, "issue", issue)
    for seed, adversary, topo in tamper_scenarios(5):
        built.clear(), derived.clear(), issued.clear(), opened.clear(), pool_reads.clear()
        harness = Harness(
            ScenarioConfig(
                topology_text=topology_to_text(topo),
                source="N0",
                dest="N7",
                seed=seed,
                adversary=(adversary, "path-insert"),
                collection_window=200,
            )
        )
        assert not derived and set(issued) == set(topo.nodes)
        assert not pool_reads["read"]  # set-up and issuing read no pool key
        harness.run()
        assert built and max(built.values()) == 1
        prov = harness.stores["N0"].provisioning
        # Each receiver reads its own K_j, and reads, so seals, the
        # envelope, only at its first usable index.
        read = set()
        for receiver, sender, msg, own in opened:
            first = next((j for j in prov.rings[receiver].indices if j in msg.cover_indices), None)
            assert own == ([] if first is None else [first])
            if first is not None:
                read.add((sender, first))
        assert read and set(derived) == read
        assert max(derived.values()) == 1
        assert not sealing
        covers = set()
        for sender in list(built):  # nothing keeps a secret: sealing again derives each anew
            ring = prov.rings[sender]
            try:
                again = kdc.build_broadcast(ring, ring.broadcast_secret, sorted(prov.neighbors[sender]), prov.params)
            except EmptyCover:
                continue
            assert again == prov.broadcast(sender)
            covers.update((sender, j) for j in again.cover_indices)
        assert set(derived) == covers
        assert set(derived.values()) == {2}


def test_compare_oracle_diamond():
    topo = load_topology(DIAMOND)
    diff = compare_oracle(topo, "S", "D")
    assert diff["all_match"]
    assert set(diff["modes"]) == {m.value for m in ecms.Mode}
    for mode, res in diff["modes"].items():
        # On the diamond the flood delivers both paths, so every pick is the oracle's.
        assert res["oracle_pick"] and res["installed"] == res["best_delivered"] == res["oracle"], mode
        # The route checked is the one a plain run of the protocol installs.
        assert res["installed"] == run_scenario(diamond_cfg(mode=ecms.Mode(mode), seed=0)).chosen_route, mode


def test_compare_oracle_random_graphs():
    for seed in range(4):
        topo = random_topology(seed)
        assert compare_oracle(topo, "N0", "N7")["all_match"], seed


def test_oracle_node_budget():
    topo = random_topology(0, n=13, edge_prob=0.6)
    with pytest.raises(TooLarge):
        oraclelib.all_simple_paths(topo, "N0", "N12", 16)


def test_random_topology_connected_and_seeded():
    t1 = random_topology(7)
    t2 = random_topology(7)
    assert topology_to_text(t1) == topology_to_text(t2)
    assert topology_to_text(t1) != topology_to_text(random_topology(8))
    # connectivity: the oracle can always find at least one path
    assert oraclelib.all_simple_paths(t1, "N0", "N7", 16)


def _random_topology_by_retry(seed, n, edge_prob):
    """The generator as it was first written: a whole Topology per
    attempt, kept until one is connected.  The reference for
    `random_topology`, which draws the same attempts."""
    rng = random.Random(seed)
    while True:
        topo = Topology()
        names = ["N%d" % i for i in range(n)]
        for i, name in enumerate(names):
            role = "broker" if i == 0 else ("coordinator" if i == n - 1 else "relay")
            topo.add_node(name, role)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_prob:
                    bw = float(rng.randint(*LINK_BW_RANGE))
                    delay = float(rng.randint(*LINK_DELAY_RANGE))
                    topo.add_link(names[i], names[j], bw, delay)
        seen, frontier = {"N0"}, ["N0"]
        while frontier:
            for nxt in topo.rdn(frontier.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) == n:
            return topo


@pytest.mark.parametrize("n, edge_prob", [(1, 0.4), (2, 0.4), (8, 0.4), (12, 0.4), (120, 0.04), (250, 0.021)])
def test_random_topology_matches_retry_reference(n, edge_prob):
    for seed in range(20):
        got, want = random_topology(seed, n, edge_prob), _random_topology_by_retry(seed, n, edge_prob)
        assert topology_to_text(got) == topology_to_text(want), seed
        assert list(got.nodes) == list(want.nodes) and list(got.links) == list(want.links), seed
        assert got.nodes == want.nodes and got.links == want.links, seed


@pytest.mark.parametrize(
    "n, edge_prob", [(0, 0.4), (-3, 0.4), (2, 0.0), (8, -0.5), (8, float("nan")), (250, 0.0)]
)
def test_random_topology_rejects_inputs_no_attempt_connects(n, edge_prob):
    # Each of these redrew attempts forever.
    with pytest.raises(ConfigError):
        random_topology(0, n, edge_prob)


def test_topology_text_round_trip():
    topo = random_topology(11)
    again = load_topology(topology_to_text(topo))
    assert topology_to_text(again) == topology_to_text(topo)
    # Non-integer metrics read back as the same floats.
    exact = load_topology(
        "node S broker\nnode A relay\nnode D coordinator\n"
        "link S A 12.3456789 0.1234567\nlink A D 0.30000000000000004 1e-300\n"
    )
    assert load_topology(topology_to_text(exact)).links == exact.links


# -- CLI ---------------------------------------------------------------


@pytest.fixture
def topo_file(tmp_path):
    p = tmp_path / "net.topo"
    p.write_text(DIAMOND)
    return p


def test_cli_run_writes_report(topo_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--topology", str(topo_file), "--seed", "3", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["chosen_route"] == ["S", "A", "B", "D"]


def test_cli_run_stdout_text(topo_file, capsys):
    rc = main(["run", "--topology", str(topo_file), "--format", "text"])
    assert rc == 0
    assert "route: S -> A -> B -> D" in capsys.readouterr().out


def test_cli_run_detection_exit_zero(topo_file, capsys):
    rc = main(
        [
            "run",
            "--topology",
            str(topo_file),
            "--adversary",
            "B:path-insert",
            "--window",
            "200",
        ]
    )
    assert rc == 0  # detected, so no failure flag
    d = json.loads(capsys.readouterr().out)
    assert d["detections"]


def test_cli_run_missed_detection_exit_two(topo_file, tmp_path, monkeypatch, capsys):
    # An adversary off every S-D path tampers nothing, so nothing is
    # detected and the CLI must flag it.
    p = tmp_path / "island.topo"
    p.write_text(DIAMOND + "node E relay\nlink E D 1 1\n")
    rc = main(["run", "--topology", str(p), "--adversary", "E:path-insert"])
    assert rc == 2
    assert "detection expected but missed" in capsys.readouterr().err


def test_cli_bad_adversary_spec(topo_file, capsys):
    for spec in ("nonsense", "B", "B:"):  # no colon, no colon, no behaviour
        rc = main(["run", "--topology", str(topo_file), "--adversary", spec])
        assert rc == 1
        _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "flags",
    [
        ["--window", "-40"],
        ["--window", "-1"],
        ["--window", "nan"],
        ["--max-hops", "256"],
        ["--max-hops", "-1"],
        ["--window", "inf"],
        ["--source", "Z"],
        ["--dest", "Z"],
        ["--adversary", "Z:replay"],
    ],
)
def test_cli_rejects_out_of_range_input(topo_file, capsys, flags):
    # A negative window would run the clock backwards, and an infinite one
    # sets a timer no clock reaches; max hops is the RREQ's u8 field.
    rc = main(["run", "--topology", str(topo_file), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_harness_rejects_infinite_window():
    # The destination's collection timer needs a finite delay.
    with pytest.raises(ConfigError, match="collection window inf ms"):
        Harness(diamond_cfg(collection_window=float("inf")))


def test_harness_rejects_source_as_destination(topo_file, capsys):
    # A source has no pairwise key with itself, so the run failed to start
    # with the misleading "S has no key with S".
    with pytest.raises(ConfigError, match="source and destination are both 'S'"):
        Harness(diamond_cfg(dest="S"))
    assert main(["run", "--topology", str(topo_file), "--source", "S", "--dest", "S"]) == 1
    assert "both" in _assert_one_error_line(capsys)


@pytest.mark.parametrize("metrics", ["nan 2", "10 nan", "10 inf"])
def test_cli_rejects_non_finite_link_metric(tmp_path, capsys, metrics):
    # A NaN bandwidth crashed the delivery-time arithmetic; a NaN or infinite
    # delay ran with event times no clock reaches.
    p = tmp_path / "bad.topo"
    p.write_text(DIAMOND.replace("link S A 10 2", "link S A " + metrics))
    assert main(["run", "--topology", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flags", [["--window", "0"], ["--max-hops", "0"], ["--max-hops", "255"]])
def test_cli_accepts_range_edges(topo_file, capsys, flags):
    assert main(["run", "--topology", str(topo_file), *flags]) == 0


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_missing_topology(tmp_path, capsys):
    assert main(["run", "--topology", str(tmp_path / "absent.topo")]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_topology_is_a_directory(tmp_path, capsys, command):
    assert main([command, "--topology", str(tmp_path)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("out", ["", "absent/report.json"])
def test_cli_unwritable_out(topo_file, tmp_path, capsys, out):
    # A directory, or a file in a directory that does not exist.
    assert main(["run", "--topology", str(topo_file), "--out", str(tmp_path / out)]) == 1
    _assert_one_error_line(capsys)


def test_cli_topology_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.topo"
    p.write_bytes(DIAMOND.replace("node B relay", "node B\xe9 relay").encode("latin-1"))
    assert main(["run", "--topology", str(p)]) == 1
    _assert_one_error_line(capsys)


def test_cli_repeated_node_line(tmp_path, capsys):
    # A second `node A` line used to make A both default endpoints.
    p = tmp_path / "twice.topo"
    p.write_text(DIAMOND + "node S coordinator\n")
    assert main(["run", "--topology", str(p)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_topology_with_no_nodes(tmp_path, capsys, command):
    # No node to pick as a default endpoint.
    p = tmp_path / "empty.topo"
    p.write_text("# comments only\n")
    assert main([command, "--topology", str(p)]) == 1
    assert "topology has no nodes" in _assert_one_error_line(capsys)


def test_cli_oracle_rejects_source_as_destination(topo_file, capsys):
    # A one-node path has no links for the oracle to rank.
    assert main(["oracle", "--topology", str(topo_file), "--source", "S", "--dest", "S"]) == 1
    assert "source and destination are both 'S'" in _assert_one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--source", "--dest"])
def test_cli_oracle_rejects_unknown_endpoint(topo_file, capsys, flag):
    # The oracle ran first and named the node bare ("error: Z") or as
    # unreachable ("error: no path S -> Z"); a run names it as missing.
    assert main(["oracle", "--topology", str(topo_file), flag, "Z"]) == 1
    assert _assert_one_error_line(capsys) == "error: node 'Z' not in topology\n"
    assert main(["run", "--topology", str(topo_file), flag, "Z"]) == 1
    assert _assert_one_error_line(capsys) == "error: node 'Z' not in topology\n"


def test_cli_oracle_subcommand(topo_file, capsys):
    rc = main(["oracle", "--topology", str(topo_file)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [m.value for m in ecms.Mode]
    assert all(line.split(": ")[1].startswith("match, installed ") for line in lines), lines
    assert "hc_bw: match, installed S-A-B-D, best delivered S-A-B-D, oracle S-A-B-D" in lines
    assert "bw_nd: match, installed S-C-D, best delivered S-C-D, oracle S-C-D" in lines


def test_cli_oracle_flags_a_route_the_destination_misranks(topo_file, capsys, monkeypatch):
    # A destination that answers its worst candidate must fail the check.
    def worst(cands, mode):
        return max(cands, key=lambda c: ecms.selection_key(c, mode))[0]

    monkeypatch.setattr(ecms, "select_route", worst)
    assert main(["oracle", "--topology", str(topo_file)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(": MISMATCH, installed " in line for line in lines), lines


def test_cli_oracle_no_path(tmp_path, capsys):
    p = tmp_path / "split.topo"
    p.write_text("node S broker\nnode A relay\nnode D coordinator\nlink S A 10 2\n")
    assert main(["oracle", "--topology", str(p)]) == 1
    err = _assert_one_error_line(capsys)
    assert "S" in err and "D" in err, err


def test_example_topology_is_the_test_diamond():
    # CI runs the CLI on the committed example; it must stay this diamond.
    example = Path(__file__).resolve().parent.parent / "docs" / "examples" / "diamond.topo"
    assert topology_to_text(load_topology(example.read_text())) == topology_to_text(load_topology(DIAMOND))


def test_cli_endpoint_defaults(topo_file, capsys):
    rc = main(["run", "--topology", str(topo_file)])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["config"]["source"] == "S" and d["config"]["dest"] == "D"
