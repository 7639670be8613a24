import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from secroute import cost as ecms
from secroute import kdc
from secroute import oracle as oraclelib
from secroute import srdp
from secroute.cli import main
from secroute.crypto import Key, seal
from secroute.errors import ConfigError, EmptyCover, NoUsableIndex, TooLarge
from secroute.frames import RrepBody, RrepInfo, RrepPacket, SessionFrame, encode_frame
from secroute.harness import (
    DETECTABLE_BEHAVIORS,
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
from secroute.topology import load_topology
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


@pytest.mark.parametrize(
    "make", [diamond_cfg, lambda: diamond_cfg(cloudlets=6, link_break=("A", "B", 90.0))], ids=["honest", "break-a-b"]
)
def test_source_broadcasts_each_round_once_and_relays_none(make):
    """The source records each round it starts as seen, so its neighbours'
    copies that come back are duplicates, not requests for it to relay: S
    broadcasts once per round, and forwards no request."""
    h = Harness(make())
    report = h.run()
    rounds = 1 + report.rediscoveries
    broadcasts = [e for e in h.sim.trace if e["ev"] == "send" and e["node"] == "S" and e["kind"] == "broadcast"]
    assert len(broadcasts) == rounds
    assert "rreq_forwarded" not in report.counters["S"]
    assert report.counters["S"]["drop:" + srdp.DUPLICATE] == 2 * rounds  # A's and C's copies


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
    "honest": (lambda: diamond_cfg(cloudlets=3), "4b04a5143991d1b6eaf19de2b8088142e38a833fd4ff01036768cedd533707b7"),
    "break-a-b": (  # A's second route error names the round S has already dropped
        lambda: diamond_cfg(cloudlets=6, link_break=("A", "B", 90.0)),
        "029e92b6867d9383298e0725f8ca07186e41ce0e8473410e1d3a8ed19a750652",
    ),
    "break-b-d": (  # B's route error is relayed by A to S
        lambda: diamond_cfg(cloudlets=6, link_break=("B", "D", 90.0)),
        "db6b964087bea36a1d87068d5a2d903aaac95bf0e5eb04a2cda36fa8d0c81d62",
    ),
    "n40": (
        lambda: ScenarioConfig(
            topology_text=topology_to_text(random_topology(11, 40, 0.12)), source="N0", dest="N39", seed=1, cloudlets=2
        ),
        "e010d474fc5aa2fcd12520be68dc80b072f80e5088fb2b8be14e5c140a265474",
    ),
    "adv-path-insert": (
        lambda: tamper_cfg("path-insert"),
        "63427fa5d10064c381a3ea6b848c67abb1445ea6512ecc18885e82a509fdda60",
    ),
    "adv-path-delete": (
        lambda: tamper_cfg("path-delete"),
        "c0663fba15db5da3af79f31769c450715e125ca3aa1d755adf0eaf7f7235c586",
    ),
    "adv-path-modify": (
        lambda: tamper_cfg("path-modify"),
        "4844ea56310ad491e4bbfc6a8663983283c6548290234b145767cf96793235cf",
    ),
    "adv-rreq-field-tamper": (
        lambda: tamper_cfg("rreq-field-tamper"),
        "4b9008bf16a1ec5781d93997735db6b6b4d8233fc40fbc47a616a908a005ff98",
    ),
    "adv-replay": (
        lambda: tamper_cfg("replay"),
        "64ddd2515b00e091cf1d941e967d800864db29938923d0371125782452ec9417",
    ),
    "adv-cost-deflate": (
        lambda: tamper_cfg("cost-deflate"),
        "ee8d35735ff9b9d40909ca9d48d49cbd9244cc11a901c4ce9c062aeed25954b2",
    ),
    "mode-hc": (
        lambda: diamond_cfg(mode=ecms.Mode.HC),
        "37204bbcaa5441035d1148871f69cce8045b113b75b91793d6ef86c14d571faf",
    ),
    "mode-bw": (
        lambda: diamond_cfg(mode=ecms.Mode.BW),
        "d47ed31959c4b1d0a5509935c8d72328c6f1d255c59cfab65117fda90404b8ff",
    ),
    "mode-nd": (
        lambda: diamond_cfg(mode=ecms.Mode.ND),
        "2e5a6c2bcce224c952b38c3aa4b6315567a01fb7216c1e83946c2c1ec2a59277",
    ),
    "mode-hc_bw": (
        lambda: diamond_cfg(mode=ecms.Mode.HC_BW),
        "c346ee837730e68d2a1719edfbff924d547475cfa70c2b11f761319691a025d8",
    ),
    "mode-bw_nd": (
        lambda: diamond_cfg(mode=ecms.Mode.BW_ND),
        "1c3a7d1d4973ce42a1a148ce31ba0057655ed56d3bccf0d32a5377f230162fe9",
    ),
    "mode-hc_nd": (
        lambda: diamond_cfg(mode=ecms.Mode.HC_ND),
        "ae7ec725a3fd96f0246f6f7ccf4062abc2be4b330ca98a7a33374330a9d7ef09",
    ),
    "mode-hc_bw_nd": (
        lambda: diamond_cfg(mode=ecms.Mode.HC_BW_ND),
        "80b116df0b220c922894a648af4e0ef6921634163a64e6a378e86ee023d0eaf3",
    ),
    "literal-cost": (
        lambda: diamond_cfg(literal_cost=True),
        "d94010d212d0cbeb22743a28fc604d66aa1d7e098f2258acecde453d650d4305",
    ),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_bytes_pinned(name):
    make, digest = PINNED_REPORTS[name]
    assert hashlib.sha256(emit_report(run_scenario(make()))).hexdigest() == digest


@pytest.mark.parametrize("name", ["honest", "break-a-b"])
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
        assert kinds["suppress"] and kinds["drop"]
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
    for frame in (SessionFrame("B", step, "S", 1, "D", 1), SessionFrame("S", step, "S", 0, "D", 1)):  # held, not held
        h.sim.unicast(frame.sender_addr, "A", encode_frame(frame))
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
    h.sim.unicast(sender, to, encode_frame(SessionFrame(sender, STEP_CLOUDLET, *route, 5)))
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
    h.sim.unicast(sender, "A", encode_frame(SessionFrame(sender, STEP_ACK, *route, 1)))
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
            sim.unicast(node, "A", encode_frame(RrepPacket(node, seal(self.proto.keys.group_key, body.to_bytes()))))

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


def test_reply_from_another_sender_than_it_claims_is_dropped():
    """A reply is taken only from the neighbour its clear header names:
    after the honest run, B sends A a reply for round ("S", 1) over S-A-D
    that claims to come from D, and A drops it, keeping the route it
    holds."""
    h = Harness(diamond_cfg())
    h.run()
    held = h.protos["A"].routes[("S", "D")]
    b = h.protos["B"]
    body = RrepBody(RrepInfo("S", 1, "D", ("A",)), b"\x00" * 32, None, None)
    h.sim.unicast("B", "A", encode_frame(RrepPacket("D", seal(b.keys.group_key, body.to_bytes()))))
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
    h.sim.unicast("C", "S", encode_frame(RrepPacket("C", seal(c.keys.group_key, body.to_bytes()))))
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
    h.sim.unicast("A", "S", encode_frame(RrepPacket("A", seal(a.keys.group_key, body.to_bytes()))))
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
    h.sim.unicast("D", "B", encode_frame(RrepPacket("D", seal(d.keys.group_key, body.to_bytes()))))
    h.sim.run_until()
    trace = h.sim.trace
    assert trace[-1]["ev"] == "drop"
    assert (trace[-1]["node"], trace[-1]["reason"]) == ("B", srdp.NO_PAIRWISE_KEY)
    assert h.protos["B"].counters["drop:" + srdp.NO_PAIRWISE_KEY] == 1
    assert h._report().chosen_route == honest.chosen_route


def test_malformed_broadcast_dropped_by_every_receiver():
    """A frame that does not decode is decoded again, and dropped, by each
    receiver; a run leaves no decoded frame behind."""
    h = Harness(diamond_cfg())
    h.sim.broadcast("S", b"\x09not a frame")
    h.sim.run_until()
    trace = h.sim.trace
    drops = [(e["node"], e["reason"]) for e in trace if e["ev"] == "drop"]
    assert drops == [("A", "MalformedFrame"), ("C", "MalformedFrame")]
    h.run()
    assert h.sim._decoded == {} and h.sim._pending == {}


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
    counting(monkeypatch, kdc.KeyPool, "key", lambda pool, j: "read", pool_reads)
    counting(monkeypatch, kdc, "build_broadcast", lambda ring, secret, revoked, params: ring.node, built)
    real_issue, real_secret = kdc.Kdc.issue, kdc.NodeKeyRing.encryption_secret

    def issue(center, node):
        issued[node] += 1
        before = pool_reads["read"]
        ring = real_issue(center, node)
        # Only the m decryption secrets read the pool; no K_j is hashed.
        assert pool_reads["read"] - before == center.params.m
        return ring

    def encryption_secret(ring, j):
        before = pool_reads["read"]
        secret = real_secret(ring, j)
        if pool_reads["read"] != before:  # K_j was read: a derivation
            derived[ring.node, j] += 1
        return secret

    monkeypatch.setattr(kdc.Kdc, "issue", issue)
    monkeypatch.setattr(kdc.NodeKeyRing, "encryption_secret", encryption_secret)
    for seed, adversary, topo in tamper_scenarios(5):
        built.clear(), derived.clear(), issued.clear()
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
        harness.run()
        assert built and max(built.values()) == 1
        prov = harness.stores["N0"].provisioning
        expected = set()
        for sender in built:
            try:
                cover = kdc.cover_indices(prov.params, sorted(prov.neighbors[sender]))
            except EmptyCover:
                cover = []
            expected.update((sender, j) for j in cover)
        assert expected and set(derived) == expected
        for sender in list(built):  # sealing again reads the kept secrets
            try:
                kdc.build_broadcast(prov.rings[sender], b"s" * 32, sorted(prov.neighbors[sender]), prov.params)
            except EmptyCover:
                pass
        assert max(derived.values()) == 1


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
