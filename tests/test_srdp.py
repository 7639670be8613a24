import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secroute import cost, crypto, frames, srdp
from secroute.cost import Totals
from secroute.crypto import chain, hash_bytes, mac, open_box, seal
from secroute.crypto import Key
from secroute.errors import AuthFailure, MalformedFrame, NoValidCandidate
from secroute.frames import (
    RreqBody,
    RreqPacket,
    RrepBody,
    RrepPacket,
    decode_frame,
    encode_frame,
    open_rreq,
)
from secroute.harness import Harness, ScenarioConfig, provision
from secroute.topology import Topology, load_topology

LINE = """
node S broker
node A relay
node B relay
node D coordinator
link S A 10 2
link A B 10 2
link B D 10 2
"""

DIAMOND = LINE + "node C relay\nlink S C 5 8\nlink C D 5 8\n"


def hand_sealed_rreq(key, raw, s_addr="S", s_seqno=1):
    """An RREQ whose seal holds `raw` under `key`, bound to the clear
    header of round `(s_addr, s_seqno)`, as an honest sender binds it."""
    pkt = RreqPacket(s_addr, s_seqno, b"")
    return dataclasses.replace(pkt, sealed=seal(key, raw, pkt.header))


@pytest.fixture
def line_net():
    topo = load_topology(LINE)
    stores, svc, params, rings = provision(topo, 64, 8, seed=0)
    nodes = {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}
    return topo, nodes


def test_originate_rreq_shape(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    body = open_rreq(nodes["S"].keys.group_key, pkt)
    assert body.totals == Totals()
    assert body.path == ()
    assert body.mac_prev is None
    # h0 anchors in the source-destination secret
    k_sd = nodes["S"].keys.pairwise_key("D")
    assert body.h == mac(k_sd, [body.rreq.to_bytes()])
    pkt2 = nodes["S"].originate_rreq("D")
    assert (pkt.round_id(), pkt2.round_id()) == (("S", 1), ("S", 2))


def test_first_hop_forward_matches_construction(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    action = nodes["A"].process_rreq(pkt, "S", 10, 2)
    assert action[0] == "forward"
    out = action[1]
    body = open_rreq(nodes["A"].keys.group_key, out)
    src_body = open_rreq(nodes["S"].keys.group_key, pkt)
    assert body.path == ("A",)
    assert body.h == hash_bytes(src_body.h)  # h1 = h(h0)
    assert body.mac_prev == src_body.mac_curr  # M0 promoted
    t_a = nodes["A"].keys.broadcast_secret
    assert body.mac_curr == srdp.rreq_hop_mac(t_a, body.rreq, frames.path_bytes(("A",)), hash_bytes(body.h))
    assert body.totals == cost.advance(Totals(), 10, 2, nodes["A"].weights, False)
    assert body.totals.hop_count == 1 and out.header == pkt.header


digests = st.binary(min_size=32, max_size=32)
tags = st.binary(min_size=crypto.MAC_LEN, max_size=crypto.MAC_LEN)


@settings(max_examples=60, deadline=None)
@given(
    keyed=st.lists(st.text(min_size=1, max_size=5), min_size=3, max_size=3, unique=True),
    free=st.lists(st.text(max_size=5), min_size=8, max_size=8),
    hops=st.integers(min_value=0, max_value=7),
    s_seqno=st.integers(min_value=0, max_value=2**32 - 1),
    max_hops=st.integers(min_value=8, max_value=255),
    h=digests,
    mac_curr=tags,
)
def test_forwarded_frame_equals_fresh_construction(keyed, free, hops, s_seqno, max_hops, h, mac_curr):
    """A relay seals its onward copy from the bytes it opened, not from a
    re-encoding.  Whatever the ids (empty, non-ASCII) and the path, that
    copy equals the one sealed from a freshly constructed RreqImmutable.

    Only the ids the relay checks a key for are provisioned: its own, the
    sender's and, on a path, the id two hops upstream.  The destination,
    and on a path of two or more hops the source and all but the last two
    relays, are any text, the empty id included.  The relay has one more
    neighbour, so that it has a link to forward on."""
    relay, last, two_up = keyed
    dest = free[-1]
    assume(dest != relay)
    if hops < 2:
        src, path = two_up, ((last,) if hops else ())
    else:
        src, path = free[0], (*free[1 : hops - 1], two_up, last)
    sender = path[-1] if path else src
    topo = Topology()
    for n in keyed:
        topo.add_node(n)
    topo.add_link(sender, relay, 10, 2)
    topo.add_node("onward")  # longer than any id drawn
    topo.add_link(relay, "onward", 10, 2)
    stores = provision(topo, 64, 8, seed=0)[0]
    rreq = frames.RreqImmutable(src, s_seqno, dest, max_hops)
    mac_prev = None
    if path:  # laid down two hops upstream, under that node's broadcast secret
        t = stores[two_up].broadcast_secret
        mac_prev = srdp.rreq_hop_mac(t, rreq, frames.path_bytes(path[:-1]), h)
    body = RreqBody(rreq, path, mac_prev, mac_curr, h, Totals(hops))
    arriving = frames.seal_rreq(stores[sender].group_key, body)

    node = srdp.SrdpNode(stores[relay])
    action = node.process_rreq(decode_frame(encode_frame(arriving)), sender, 10, 2)
    assert action[0] == "forward"
    fresh = frames.RreqImmutable(src, s_seqno, dest, max_hops)
    new_path = path + (relay,)
    h_new = hash_bytes(h)
    m_self = srdp.rreq_hop_mac(stores[relay].broadcast_secret, fresh, frames.path_bytes(new_path), hash_bytes(h_new))
    totals = cost.advance(Totals(hops), 10, 2, node.weights, node.literal_cost)
    fresh_body = RreqBody(fresh, new_path, mac_curr, m_self, h_new, totals)
    expected = frames.seal_rreq(stores[relay].group_key, fresh_body)
    assert encode_frame(action[1]) == encode_frame(expected)


FIELD_LIES = {
    "max_hops": lambda r: r.max_hops ^ 1,
    "d_addr": lambda r: r.d_addr + "é",
    "s_addr": lambda r: r.s_addr + "节",
    "s_seqno": lambda r: (r.s_seqno + 1) % 2**32,
}


@settings(max_examples=80, deadline=None)
@given(
    keyed=st.lists(st.text(min_size=1, max_size=5), min_size=2, max_size=2, unique=True),
    path=st.lists(st.text(max_size=5), max_size=6).map(tuple),
    totals=st.builds(Totals, st.integers(0, 0xFF), *[st.floats(allow_nan=False)] * 3),
    edit=st.sampled_from(["none", "insert", "delete", "modify"]),
    phantom=st.text(max_size=8),
    field_lie=st.sampled_from([None, "copy", *FIELD_LIES]),
    mac_prev=st.one_of(st.none(), tags),
    h_new=digests,
)
@example(
    keyed=["R", "P"],
    path=("P",),
    totals=Totals(1, -0.0, float("inf"), float("-inf")),
    edit="none",
    phantom="",
    field_lie=None,
    mac_prev=None,
    h_new=b"\x00" * 32,
)
def test_tampered_relay_frame_equals_fresh_construction(keyed, path, totals, edit, phantom, field_lie, mac_prev, h_new):
    """`relay_rreq` builds a tampering relay's onward copy the way it builds
    an honest one's.  Whatever it is told to claim (a path of any length, a
    phantom id, any totals, a random or absent `mac_prev`, a chain value, an
    `rreq` rebuilt by `dataclasses.replace` with or without a changed
    field, so holding no opened bytes), the frame equals `seal_rreq` of a
    freshly constructed body with those totals, and it opens to them with
    `hop_count = len(new_path)`."""
    relay, sender = keyed
    topo = Topology()
    for n in keyed:
        topo.add_node(n)
    topo.add_link(sender, relay, 10, 2)
    stores = provision(topo, 64, 8, seed=0)[0]
    rreq = frames.RreqImmutable("S", 9, "D", 16)
    body = RreqBody(rreq, path, b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, Totals(len(path)))
    arriving = frames.seal_rreq(stores[sender].group_key, body)
    frame = decode_frame(encode_frame(arriving))
    opened = open_rreq(stores[sender].group_key, frame)  # holding the bytes it opened, as a relay does

    new_path = {
        "none": path + (relay,),
        "insert": path + (phantom, relay),
        "delete": path[:-1] + (relay,),
        "modify": path[:-1] + (phantom, relay),
    }[edit]
    claimed = opened.rreq
    if field_lie == "copy":
        claimed = dataclasses.replace(claimed)
    elif field_lie is not None:
        claimed = dataclasses.replace(claimed, **{field_lie: FIELD_LIES[field_lie](claimed)})
    node = srdp.SrdpNode(stores[relay])
    out = node.relay_rreq(claimed, frames.path_bytes(new_path), totals, mac_prev, h_new)

    fresh = frames.RreqImmutable(claimed.s_addr, claimed.s_seqno, claimed.d_addr, claimed.max_hops)
    section = frames.path_bytes(new_path)
    m_self = srdp.rreq_hop_mac(stores[relay].broadcast_secret, fresh, section, hash_bytes(h_new))
    fresh_body = RreqBody(fresh, new_path, mac_prev, m_self, h_new, totals._replace(hop_count=len(new_path)))
    expected = frames.seal_rreq(stores[relay].group_key, fresh_body)
    assert encode_frame(out) == encode_frame(expected)
    assert out == expected
    # Read back from the wire, not through the sealing code both share.
    arrived = decode_frame(encode_frame(out))
    assert arrived.round_id() == fresh.round_id()
    assert open_rreq(stores[relay].group_key, arrived) == fresh_body


def test_duplicate_round_dropped(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    assert nodes["A"].process_rreq(pkt, "S", 10, 2)[0] == "forward"
    assert nodes["A"].process_rreq(pkt, "S", 10, 2) == ("drop", srdp.DUPLICATE)


@pytest.mark.parametrize("field,value", [("s_addr", "B"), ("s_addr", "D"), ("s_seqno", 99)])
def test_rewritten_clear_header_fails_the_seal(line_net, field, value):
    """The seal binds the clear header: a copy whose header was rewritten
    in flight is dropped as SealOpenFail by a relay that has not seen the
    round, as a flipped bit in the box is."""
    topo, nodes = line_net
    pkt = decode_frame(encode_frame(nodes["S"].originate_rreq("D")))
    rewritten = decode_frame(encode_frame(dataclasses.replace(pkt, **{field: value})))
    assert rewritten.round_id() not in nodes["A"].seen_rounds
    assert nodes["A"].process_rreq(rewritten, "S", 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)
    assert nodes["A"].process_rreq(pkt, "S", 10, 2)[0] == "forward"


def test_neighbour_duplicate_dropped_before_opening(line_net, monkeypatch):
    """A relay that forwarded a round drops a neighbour's later copy of it
    on the clear header: no seal is opened and no body decoded."""
    topo, nodes = line_net
    calls = {"open_box": 0, "from_bytes": 0}
    real_open, real_from_bytes = crypto.open_box, RreqBody.from_bytes.__func__

    def counting_open(*args):
        calls["open_box"] += 1
        return real_open(*args)

    def counting_from_bytes(cls, *args):
        calls["from_bytes"] += 1
        return real_from_bytes(cls, *args)

    for module in (crypto, frames, srdp):
        monkeypatch.setattr(module, "open_box", counting_open)
    monkeypatch.setattr(RreqBody, "from_bytes", classmethod(counting_from_bytes))
    out_a = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    out_b = nodes["B"].process_rreq(out_a, "A", 10, 2)[1]
    assert calls == {"open_box": 2, "from_bytes": 2}  # one open per forward
    assert nodes["A"].process_rreq(out_b, "B", 10, 2) == ("drop", srdp.DUPLICATE)
    assert calls == {"open_box": 2, "from_bytes": 2}


def test_replayed_copy_fails_the_seal(line_net):
    """A node opens a copy under the group key of the neighbour the link
    delivered it from.  A's replay of the copy S sealed is SealOpenFail at
    B, which has not seen the round, so its path is never priced over A's
    link; A's own copy is then forwarded, and once B has forwarded the
    round any copy of it is a Duplicate."""
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    out_a = nodes["A"].process_rreq(pkt, "S", 10, 2)[1]
    assert nodes["B"].process_rreq(pkt, "A", 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)
    assert pkt.round_id() not in nodes["B"].seen_rounds
    assert nodes["B"].process_rreq(out_a, "A", 10, 2)[0] == "forward"
    assert nodes["B"].process_rreq(pkt, "A", 10, 2) == ("drop", srdp.DUPLICATE)


def test_hop_limit_enforced(line_net):
    topo, nodes = line_net
    src = srdp.SrdpNode(nodes["S"].keys, max_hops=0)
    pkt = src.originate_rreq("D")
    assert nodes["A"].process_rreq(pkt, "S", 10, 2) == ("drop", srdp.HOP_LIMIT)


def test_foreign_seal_rejected(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    # D is not in S's neighborhood, so it holds no key for S's seal
    assert nodes["D"].process_rreq(pkt, "S", 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)


GARBAGE_BODIES = [b"", b"\x00" * 5, b"\xff" * 64, bytes(range(200))]


@pytest.mark.parametrize("garbage", GARBAGE_BODIES)
def test_garbage_body_under_valid_group_key_dropped(line_net, garbage):
    topo, nodes = line_net
    valid = nodes["S"].originate_rreq("D")
    for raw in (garbage, open_box(nodes["S"].keys.group_key, valid.sealed, valid.header) + garbage[:1] + b"\x00"):
        rreq = hand_sealed_rreq(nodes["S"].keys.group_key, raw)
        assert nodes["A"].process_rreq(rreq, "S", 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)
        rrep = RrepPacket(seal(nodes["B"].keys.group_key, raw))
        assert nodes["A"].process_rrep(rrep, "B") == ("drop", srdp.SEAL_OPEN_FAIL)


def run_chain(nodes, hops, pkt, metrics=(10, 2)):
    """Relay `pkt`, which S sent, through `hops` in turn; each hop takes the
    copy from the one before it."""
    sender = "S"
    for n in hops:
        action = nodes[n].process_rreq(pkt, sender, *metrics)
        assert action[0] == "forward", action
        pkt, sender = action[1], n
    return pkt


def test_destination_chain_check_and_finalize(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    arrived = nodes["D"].open_request(pkt, "B")
    action = nodes["D"].process_rreq(pkt, "B", 10, 2)
    assert action[0] == "collected"
    rid = action[1]
    state = nodes["D"].dest_rounds[rid]
    cand = state.candidates[0]
    k_sd = nodes["D"].keys.pairwise_key("S")
    h0 = mac(k_sd, [state.rreq.to_bytes()])
    assert cand.path == arrived.path == ("A", "B")
    assert arrived.h == chain(h0, len(cand.path))
    rrep = nodes["D"].finalize_destination(rid)
    body = RrepBody.from_bytes(open_box(nodes["D"].keys.group_key, rrep.sealed))
    assert body.rrep.route == ("A", "B")
    assert body.q == mac(k_sd, [body.rrep.to_bytes()])


def test_destination_rejects_short_chain(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    # Claim one hop fewer than the chain proves.
    body = open_rreq(nodes["B"].keys.group_key, pkt)
    shorter = dataclasses.replace(body, path=body.path[:-1], totals=body.totals._replace(hop_count=1))
    pkt = hand_sealed_rreq(nodes["B"].keys.group_key, shorter.to_bytes(), pkt.s_addr, pkt.s_seqno)
    action = nodes["D"].process_rreq(pkt, "B", 10, 2)
    assert action == ("drop", srdp.CHAIN_MISMATCH) or action == ("drop", srdp.TWO_HOP_AUTH_FAIL)


def test_destination_ranks_on_the_checked_hop_count(line_net):
    """A candidate's hop count is the length of the sealed path, which the
    destination checks against the hash chain, plus the final link; no hop
    count travels, so a sealer's claim of another is not even sent.  The
    other totals are the last relay's sealed ones, advanced over that link."""
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    body = open_rreq(nodes["B"].keys.group_key, pkt)
    assert body.totals.hop_count == len(body.path) == 2
    lie = dataclasses.replace(body, totals=body.totals._replace(hop_count=len(body.path) + 1))
    for copy in (hand_sealed_rreq(nodes["B"].keys.group_key, lie.to_bytes(), pkt.s_addr, pkt.s_seqno), pkt):
        action = nodes["D"].process_rreq(copy, "B", 10, 2)
        assert action[0] == "collected"
    for cand in nodes["D"].dest_rounds[action[1]].candidates:
        assert cand.totals == cost.advance(body.totals, 10, 2, nodes["D"].weights, False)
        assert (cand.totals.hop_count, cand.totals.bw, cand.totals.nd) == (len(body.path) + 1, 10, 6)


def test_finalize_without_candidates(line_net):
    topo, nodes = line_net
    with pytest.raises(NoValidCandidate):
        nodes["D"].finalize_destination(("S", 1))


def test_finalize_drops_reply_through_unkeyed_node(line_net):
    """A chosen route that names, two hops back, a node the destination
    shares no key with yields no reply and a NoPairwiseKey drop."""
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, "B", 10, 2)[1]
    state = nodes["D"].dest_rounds[rid]
    state.candidates[0] = state.candidates[0]._replace(path=("ghost", "B"))
    assert nodes["D"].finalize_destination(rid) is None
    assert nodes["D"].counters["drop:" + srdp.NO_PAIRWISE_KEY] == 1
    assert ("S", "D") not in nodes["D"].routes and not state.window_open


def test_finalize_picks_min_cost():
    topo = load_topology(DIAMOND)
    stores, svc, params, rings = provision(topo, 64, 8, seed=1)
    nodes = {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}
    pkt = nodes["S"].originate_rreq("D")
    fast = run_chain(nodes, ["A", "B"], pkt, metrics=(10, 2))
    slow_action = nodes["C"].process_rreq(pkt, "S", 5, 8)
    assert slow_action[0] == "forward"
    a1 = nodes["D"].process_rreq(fast, "B", 10, 2)
    a2 = nodes["D"].process_rreq(slow_action[1], "C", 5, 8)
    assert a1[0] == a2[0] == "collected"
    rrep = nodes["D"].finalize_destination(a1[1])
    body = RrepBody.from_bytes(open_box(nodes["D"].keys.group_key, rrep.sealed))
    assert body.rrep.route == ("A", "B")  # three cheap links beat two slow ones


@pytest.mark.parametrize("adversary", [None, ("B", "replay")])
def test_diamond_destination_collects_every_copy(adversary):
    """The destination never marks its own rounds as seen, so dropping
    duplicates before opening leaves its candidates as they were: 2 in the
    diamond, with or without a replaying relay."""
    cfg = ScenarioConfig(topology_text=DIAMOND, source="S", dest="D", seed=5, adversary=adversary)
    harness = Harness(cfg)
    report = harness.run()
    assert [len(state.candidates) for state in harness.protos["D"].dest_rounds.values()] == [2]
    assert report.counters["D"]["rreq_collected"] == 2
    assert report.counters["D"].get("drop:SealOpenFail", 0) == (1 if adversary else 0)
    assert report.chosen_route == ["S", "A", "B", "D"]


def test_rrep_relay_and_accept(line_net, monkeypatch):
    topo, nodes = line_net
    accepted = []
    accept = srdp.SrdpNode._accept_rrep

    def spy(self, body, seq):
        accepted.append((body.rrep, body.q))
        return accept(self, body, seq)

    monkeypatch.setattr(srdp.SrdpNode, "_accept_rrep", spy)
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, "B", 10, 2)[1]
    rrep = nodes["D"].finalize_destination(rid)
    act_b = nodes["B"].process_rrep(rrep, "D")
    assert act_b[0] == "forward" and act_b[2] == "A"
    act_a = nodes["A"].process_rrep(act_b[1], "B")
    assert act_a[0] == "forward" and act_a[2] == "S"
    act_s = nodes["S"].process_rrep(act_a[1], "A")
    assert act_s == ("accept", ("S", "A", "B", "D"))
    ((rrep_info, q),) = accepted
    q0 = mac(nodes["S"].keys.pairwise_key("D"), [rrep_info.to_bytes()])
    assert q == chain(q0, len(rrep_info.route))
    # Every node on the route holds the reply it answered, relayed or installed.
    assert all(nodes[n].routes == {("S", "D"): rrep_info} for n in "SABD")


def install_route(nodes):
    """Run a discovery S -> A -> B -> D on the line; returns the reply."""
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rrep = nodes["D"].finalize_destination(nodes["D"].process_rreq(pkt, "B", 10, 2)[1])
    for hop, sender in (("B", "D"), ("A", "B")):
        rrep = nodes[hop].process_rrep(rrep, sender)[1]
    assert nodes["S"].process_rrep(rrep, "A")[0] == "accept"
    return nodes["S"].routes[("S", "D")]


def test_rrep_off_route_node_drops(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, "B", 10, 2)[1]
    rrep = nodes["D"].finalize_destination(rid)
    fwd = nodes["B"].process_rrep(rrep, "D")[1]
    res = nodes["D"].process_rrep(fwd, "B")  # on route but wrong direction hop
    assert res[0] == "drop"


def test_rrep_tamper_detected_by_q_chain(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, "B", 10, 2)[1]
    rrep = nodes["D"].finalize_destination(rid)
    body = RrepBody.from_bytes(open_box(nodes["D"].keys.group_key, rrep.sealed))
    # Corrupt q (bypassing the seal, as a compromised relay could).
    from secroute.crypto import seal

    bad = RrepBody(body.rrep, b"\x00" * 32, body.mac_prev, body.mac_curr)
    fwd_b = nodes["B"].process_rrep(RrepPacket(seal(nodes["D"].keys.group_key, bad.to_bytes())), "D")
    assert fwd_b[0] == "forward"
    fwd_a = nodes["A"].process_rrep(fwd_b[1], "B")
    # Either Y-position verification or the source q-chain stops it.
    if fwd_a[0] == "forward":
        assert nodes["S"].process_rrep(fwd_a[1], "A") == ("drop", srdp.Q_CHAIN_MISMATCH)
    else:
        assert fwd_a == ("drop", srdp.TWO_HOP_AUTH_FAIL)


def test_rep_round_trip(line_net):
    topo, nodes = line_net
    info = install_route(nodes)
    rep = nodes["B"].build_rep(nodes["B"].routes[("S", "D")], srdp.LINK_BREAK)
    assert nodes["A"].handle_rep(rep, "B") == ("forward", rep, "S")
    assert nodes["S"].handle_rep(rep, "A") == ("accept", "D")
    assert nodes["S"].routes[("S", "D")] == info  # dropping it is the caller's call
    nodes["S"].drop_route("D")
    assert nodes["S"].routes == {} and nodes["S"].installed_routes == {}


def test_rep_wrong_key_discarded(line_net):
    topo, nodes = line_net
    info = install_route(nodes)
    rep = nodes["B"].build_rep(info, srdp.LINK_BREAK)
    forged = dataclasses.replace(rep, sealed_code=seal(b"z" * 32, bytes([srdp.LINK_BREAK])))
    assert nodes["S"].handle_rep(forged, "A") == ("drop", srdp.SEAL_OPEN_FAIL)


def test_rep_code_round_trip(line_net):
    """LINK_BREAK is the only route error code: an authentic report under
    any other code is discarded."""
    topo, nodes = line_net
    info = install_route(nodes)
    rep = nodes["A"].build_rep(info, 2)
    assert nodes["S"].handle_rep(rep, "A") == ("drop", srdp.SEAL_OPEN_FAIL)
    assert nodes["S"].installed_routes == {"D": ("S", "A", "B", "D")}


@pytest.mark.parametrize(
    "node, sender, change",
    [
        ("S", "A", {"s_seqno": 0}),  # another round
        ("S", "A", {"d_addr": "B"}),  # another destination
        ("S", "B", {}),  # not S's next hop
        ("A", "S", {}),  # A's previous hop, not its next
        ("D", "B", {}),  # the destination has no next hop
    ],
)
def test_rep_taken_only_for_the_held_round_from_next_hop(line_net, node, sender, change):
    """A relay forwards, and the source accepts, a route error only for a
    round it holds a route for, and only from its next hop there."""
    topo, nodes = line_net
    info = install_route(nodes)
    rep = dataclasses.replace(nodes["B"].build_rep(info, srdp.LINK_BREAK), **change)
    assert nodes[node].handle_rep(rep, sender) == ("drop", srdp.NOT_ON_ROUTE)


def test_rep_from_a_reporter_off_the_route_is_accepted():
    """A route error names its reporter, which need not be on the source's
    route: an authentic LINK_BREAK from C, which the source shares a key
    with, brought by the source's next hop for its round, is accepted."""
    topo = load_topology(DIAMOND)
    stores = provision(topo, 64, 8, seed=0)[0]
    nodes = {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}
    info = install_route(nodes)
    assert srdp.route_nodes(info) == ("S", "A", "B", "D")
    rep = nodes["C"].build_rep(info, srdp.LINK_BREAK)
    assert rep.reporter == "C"
    assert nodes["S"].handle_rep(rep, "A") == ("accept", "D")


def test_rep_costs_the_source_one_open(line_net, monkeypatch):
    """The source opens a route error's code once, under its key with the
    reporter, and tries no other relay's key first."""
    topo, nodes = line_net
    install_route(nodes)
    rep = nodes["B"].build_rep(nodes["B"].routes[("S", "D")], srdp.LINK_BREAK)
    opened = []

    def counted(key, box, aad=b""):
        opened.append(key)
        return open_box(key, box, aad)

    monkeypatch.setattr(srdp, "open_box", counted)
    assert nodes["A"].handle_rep(rep, "B") == ("forward", rep, "S")
    assert nodes["S"].handle_rep(rep, "A") == ("accept", "D")
    assert opened == [nodes["S"].keys.pairwise_key("B")]


# -- work shared by the receivers of one transmission -------------------


def counting(monkeypatch, module, name, tally, keep=lambda *args: True):
    """Replace `module.name` by a wrapper that counts, in `tally[name]`,
    the calls whose arguments pass `keep`."""
    real = getattr(module, name)
    tally.setdefault(name, 0)

    def wrapper(*args):
        if keep(*args):
            tally[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_open_is_shared_only_under_the_same_key_object(line_net, monkeypatch):
    """One packet opened under key A and then under key B gets B's own
    result: the same body under A's object, a fresh equal one under an
    equal key that is another object, and AuthFailure under a wrong key,
    each time it is asked, after which A's key opens it again."""
    topo, nodes = line_net
    tally = {}
    counting(monkeypatch, frames, "open_box", tally)
    pkt = decode_frame(encode_frame(nodes["S"].originate_rreq("D")))
    key_a = nodes["S"].keys.group_key
    body = open_rreq(key_a, pkt)
    assert open_rreq(key_a, pkt) is body and tally["open_box"] == 1
    twin = open_rreq(Key(bytes(key_a)), pkt)
    assert twin == body and twin is not body and tally["open_box"] == 2
    for wrong in (nodes["A"].keys.group_key, nodes["A"].keys.group_key):
        with pytest.raises(AuthFailure):
            open_rreq(wrong, pkt)
    assert tally["open_box"] == 4  # a failure is not remembered: each wrong open opens
    again = open_rreq(key_a, pkt)
    assert again == body and tally["open_box"] == 5
    assert open_rreq(key_a, pkt) is again and tally["open_box"] == 5


@pytest.mark.parametrize("wrong_key", [False, True])
def test_failed_open_raises_anew_for_the_next_receiver(line_net, monkeypatch, wrong_key):
    """A copy that fails to open, whether its seal or its plaintext is at
    fault, fails for every receiver that opens it under the same key, each
    with an exception of its own from an open of its own."""
    topo, nodes = line_net
    key = nodes["S"].keys.group_key
    pkt = hand_sealed_rreq(nodes["A"].keys.group_key if wrong_key else key, b"\x00" * 5)
    kind = AuthFailure if wrong_key else MalformedFrame
    tally = {}
    counting(monkeypatch, frames, "open_box", tally)
    raised = []
    for _ in range(3):
        with pytest.raises(kind) as info:
            open_rreq(key, pkt)
        raised.append(info.value)
    assert tally["open_box"] == 3
    assert len({id(e) for e in raised}) == 3 and {e.args for e in raised} == {raised[0].args}
    assert nodes["A"].process_rreq(pkt, "S", 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)


def network(text):
    """Protocol nodes for topology `text`, provisioned as `line_net`'s,
    and their key stores."""
    topo = load_topology(text)
    stores = provision(topo, 64, 8, seed=0)[0]
    return {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}, stores


FAN = """
node S broker
node A relay
node X relay
node Y relay
node W relay
node D coordinator
link S A 10 2
link A X 10 2
link A Y 10 2
link A W 10 2
link S W 10 2
link X D 10 2
link Y D 10 2
"""


def test_upstream_check_shared_by_receivers_holding_the_secret(monkeypatch):
    """A's broadcast reaches X, Y and W.  X and Y hold S's two-hop secret;
    W is S's neighbour and holds none.  A copy with a tampered upstream MAC
    is a detection at X and at Y, checked once for both, while W still
    skips the check and relays it; an honest copy passes all three."""
    nodes, stores = network(FAN)
    assert nodes["X"].keys.twohop_secret("S") is nodes["Y"].keys.twohop_secret("S") is not None
    assert nodes["W"].keys.twohop_secret("S") is None
    honest = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    body = open_rreq(nodes["A"].keys.group_key, honest)
    flipped = bytes([body.mac_prev[0] ^ 1]) + body.mac_prev[1:]
    tampered = hand_sealed_rreq(
        nodes["A"].keys.group_key, dataclasses.replace(body, mac_prev=flipped).to_bytes(), "S", 1
    )
    tally = {}
    counting(monkeypatch, srdp, "rreq_hop_mac", tally, keep=lambda t, *rest: t is stores["S"].broadcast_secret)
    for pkt, at_x_and_y in ((tampered, "drop"), (honest, "forward")):
        tally["rreq_hop_mac"] = 0
        shared = decode_frame(encode_frame(pkt))
        actions = {n: nodes[n].process_rreq(shared, "A", 10, 2)[0] for n in ("X", "Y", "W")}
        assert actions == {"X": at_x_and_y, "Y": at_x_and_y, "W": "forward"}
        assert tally["rreq_hop_mac"] == 1  # X checked; Y reused the verdict
        for n in ("X", "Y", "W"):
            nodes[n].seen_rounds.clear()
    assert [r for r, _ in nodes["X"].detections] == [r for r, _ in nodes["Y"].detections] == [srdp.TWO_HOP_AUTH_FAIL]


def test_upstream_verdict_reused_only_under_the_same_secret_object(monkeypatch):
    """A verdict left on a body by a receiver holding S's secret is not
    taken by one holding another secret object for S: an equal one checks
    again and passes, a wrong one checks again and fails."""
    nodes, stores = network(FAN)
    honest = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    body = open_rreq(nodes["A"].keys.group_key, honest)
    assert nodes["X"]._verify_two_hop(body) is None
    tally = {}
    counting(monkeypatch, srdp, "rreq_hop_mac", tally)
    secret = stores["S"].broadcast_secret
    for other, verdict in ((Key(bytes(secret)), None), (Key(bytes(32)), "upstream MAC mismatch (claimed S)")):
        monkeypatch.setitem(nodes["Y"].keys._twohop, "S", other)
        assert nodes["Y"]._verify_two_hop(body) == verdict
    assert tally["rreq_hop_mac"] == 2


SHORTCUT = LINE + "link A D 10 2\n"


def test_destination_anchors_each_round_once(monkeypatch):
    """The destination MACs a round's chain anchor once and hashes each
    chain value once, however many copies it collects; a later copy whose
    immutable fields were rewritten is still a ChainMismatch.  D is A's
    neighbour, so it cannot check the MAC A laid down for it: the chain is
    the only check left on B's copy."""
    nodes, _ = network(SHORTCUT)
    from_a = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    from_b = nodes["B"].process_rreq(from_a, "A", 10, 2)[1]
    tally = {}
    counting(monkeypatch, srdp, "mac", tally, keep=lambda key, parts: len(parts) == 1)
    counting(monkeypatch, srdp, "hash_bytes", tally)
    d = nodes["D"]
    assert d.process_rreq(from_b, "B", 10, 2)[:2] == ("collected", ("S", 1))
    assert d.process_rreq(from_a, "A", 10, 2)[:2] == ("collected", ("S", 1))
    assert tally == {"mac": 1, "hash_bytes": 2}  # h0, then h1 and h2 for the two-hop copy
    body = open_rreq(nodes["B"].keys.group_key, from_b)
    lie = dataclasses.replace(body, rreq=dataclasses.replace(body.rreq, max_hops=body.rreq.max_hops - 1))
    forged = hand_sealed_rreq(nodes["B"].keys.group_key, lie.to_bytes(), "S", 1)
    assert d.process_rreq(forged, "B", 10, 2) == ("drop", srdp.CHAIN_MISMATCH)
    assert d.process_rreq(from_b, "B", 10, 2)[0] == "collected"
    assert tally == {"mac": 2, "hash_bytes": 4}  # the forgery anchored its own chain
    (state,) = d.dest_rounds.values()
    assert len(state.candidates) == 3 and state.rreq == body.rreq


def test_copy_failing_its_checks_makes_no_round():
    nodes, _ = network(SHORTCUT)
    from_b = nodes["B"].process_rreq(
        nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1], "A", 10, 2
    )[1]
    body = open_rreq(nodes["B"].keys.group_key, from_b)
    bad_h = bytes([body.h[0] ^ 1]) + body.h[1:]
    forged = hand_sealed_rreq(nodes["B"].keys.group_key, dataclasses.replace(body, h=bad_h).to_bytes(), "S", 1)
    assert nodes["D"].process_rreq(forged, "B", 10, 2) == ("drop", srdp.CHAIN_MISMATCH)
    assert nodes["D"].dest_rounds == {}

# -- scenario-level adversary checks ----------------------------------


@pytest.mark.parametrize("behavior", ["path-insert", "path-delete", "path-modify", "rreq-field-tamper"])
def test_adversary_detected_in_diamond(behavior):
    cfg = ScenarioConfig(
        topology_text=DIAMOND,
        source="S",
        dest="D",
        seed=5,
        adversary=("B", behavior),
        collection_window=200,
    )
    report = Harness(cfg).run()
    assert report.detections, behavior
    assert all("ghost" not in n for route in report.routes_installed for n in route)
    topo = load_topology(DIAMOND)
    for route in report.routes_installed:
        for a, b in zip(route, route[1:]):
            assert topo.has_link(a, b)


def test_replay_suppressed():
    cfg = ScenarioConfig(
        topology_text=DIAMOND, source="S", dest="D", seed=5, adversary=("B", "replay")
    )
    report = Harness(cfg).run()
    dup = sum(c.get("drop:Duplicate", 0) for c in report.counters.values())
    assert dup >= 1
    assert report.chosen_route is not None


def test_cost_deflate_undetected_by_design():
    """B seals a path cost of 0 in its onward copy; D, which can check only
    the path and the chain, prices the copy from there over B-D."""
    cfg = ScenarioConfig(
        topology_text=DIAMOND, source="S", dest="D", seed=5, adversary=("B", "cost-deflate")
    )
    harness = Harness(cfg)
    report = harness.run()
    assert report.detections == []
    assert report.chosen_route is not None
    d = harness.protos["D"]
    (state,) = d.dest_rounds.values()
    via_b = [c.totals for c in state.candidates if c.path == ("A", "B")]
    assert [t.path_cost for t in via_b] == [cost.path_cost_step(0.0, 10, 2, d.weights)]
    assert (via_b[0].hop_count, via_b[0].bw) == (3, 10)  # as honest
