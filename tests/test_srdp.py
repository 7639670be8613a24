import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secroute import cost, crypto, frames, srdp
from secroute.cost import Totals
from secroute.crypto import chain, hash_bytes, mac, open_box, seal
from secroute.errors import NoValidCandidate
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


def hand_sealed_rreq(key, raw, sender="S", s_addr="S", s_seqno=1, mutable=None):
    """An RREQ whose seal holds `raw` under `key`, bound to the clear
    header built from the other arguments, as an honest sender binds it."""
    pkt = RreqPacket(sender, s_addr, s_seqno, mutable or Totals(), b"")
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
    assert pkt.mutable.hop_count == 0
    assert pkt.mutable.path_cost == 0.0
    body = open_rreq(nodes["S"].keys.group_key, pkt)
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
    action = nodes["A"].process_rreq(pkt, 10, 2)
    assert action[0] == "forward"
    out = action[1]
    body = open_rreq(nodes["A"].keys.group_key, out)
    src_body = open_rreq(nodes["S"].keys.group_key, pkt)
    assert body.path == ("A",)
    assert body.h == hash_bytes(src_body.h)  # h1 = h(h0)
    assert body.mac_prev == src_body.mac_curr  # M0 promoted
    t_a = nodes["A"].keys.broadcast_secret
    assert body.mac_curr == srdp.rreq_hop_mac(t_a, body.rreq, frames.path_bytes(("A",)), hash_bytes(body.h))
    assert out.mutable.hop_count == 1


digests = st.binary(min_size=32, max_size=32)


@settings(max_examples=60, deadline=None)
@given(
    keyed=st.lists(st.text(min_size=1, max_size=5), min_size=3, max_size=3, unique=True),
    free=st.lists(st.text(max_size=5), min_size=8, max_size=8),
    hops=st.integers(min_value=0, max_value=7),
    s_seqno=st.integers(min_value=0, max_value=2**32 - 1),
    max_hops=st.integers(min_value=8, max_value=255),
    h=digests,
    mac_curr=digests,
)
def test_forwarded_frame_equals_fresh_construction(keyed, free, hops, s_seqno, max_hops, h, mac_curr):
    """A relay seals its onward copy from the bytes it opened, not from a
    re-encoding.  Whatever the ids (empty, non-ASCII) and the path, that
    copy equals the one sealed from a freshly constructed RreqImmutable.

    Only the ids the relay checks a key for are provisioned: its own, the
    sender's and, on a path, the id two hops upstream.  The destination,
    and on a path of two or more hops the source and all but the last two
    relays, are any text, the empty id included."""
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
    stores = provision(topo, 64, 8, seed=0)[0]
    rreq = frames.RreqImmutable(src, s_seqno, dest, max_hops)
    mac_prev = None
    if path:  # laid down two hops upstream, under that node's broadcast secret
        t = stores[two_up].broadcast_secret
        mac_prev = srdp.rreq_hop_mac(t, rreq, frames.path_bytes(path[:-1]), h)
    body = RreqBody(rreq, path, mac_prev, mac_curr, h)
    arriving = frames.seal_rreq(stores[sender].group_key, sender, Totals(hop_count=hops), body)

    action = srdp.SrdpNode(stores[relay]).process_rreq(decode_frame(encode_frame(arriving)), 10, 2)
    assert action[0] == "forward"
    fresh = frames.RreqImmutable(src, s_seqno, dest, max_hops)
    new_path = path + (relay,)
    h_new = hash_bytes(h)
    m_self = srdp.rreq_hop_mac(stores[relay].broadcast_secret, fresh, frames.path_bytes(new_path), hash_bytes(h_new))
    fresh_body = RreqBody(fresh, new_path, mac_curr, m_self, h_new)
    expected = frames.seal_rreq(stores[relay].group_key, relay, action[1].mutable, fresh_body)
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
    clear=st.builds(Totals, st.integers(0, 0xFF), *[st.floats(allow_nan=False)] * 3),
    edit=st.sampled_from(["none", "insert", "delete", "modify"]),
    phantom=st.text(max_size=8),
    field_lie=st.sampled_from([None, "copy", *FIELD_LIES]),
    mac_prev=st.one_of(st.none(), digests),
    h_new=digests,
    link=st.tuples(st.floats(min_value=0.5, max_value=100.0), st.floats(min_value=0.0, max_value=20.0)),
)
@example(
    keyed=["R", "P"],
    path=("P",),
    clear=Totals(1, -0.0, float("inf"), float("-inf")),
    edit="none",
    phantom="",
    field_lie=None,
    mac_prev=None,
    h_new=b"\x00" * 32,
    link=(0.5, -0.0),
)
def test_tampered_relay_frame_equals_fresh_construction(
    keyed, path, clear, edit, phantom, field_lie, mac_prev, h_new, link
):
    """`relay_rreq` builds a tampering relay's onward copy the way it builds
    an honest one's.  Whatever it is told to claim (a path whose length
    differs from the arriving `hop_count`, a phantom id, a random or absent
    `mac_prev`, a chain value, an `rreq` rebuilt by `dataclasses.replace`
    with or without a changed field, so holding no opened bytes), the frame
    equals `seal_rreq` of a freshly constructed body, with the clear fields
    advanced by `cost.advance` and `hop_count = len(new_path)`."""
    relay, sender = keyed
    link_bw, link_delay = link
    topo = Topology()
    for n in keyed:
        topo.add_node(n)
    topo.add_link(sender, relay, link_bw, link_delay)
    stores = provision(topo, 64, 8, seed=0)[0]
    rreq = frames.RreqImmutable("S", 9, "D", 16)
    body = RreqBody(rreq, path, b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)
    arriving = frames.seal_rreq(stores[sender].group_key, sender, clear, body)
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
    out = node.relay_rreq(frame, claimed, new_path, frames.path_bytes(new_path), mac_prev, h_new, link_bw, link_delay)

    fresh = frames.RreqImmutable(claimed.s_addr, claimed.s_seqno, claimed.d_addr, claimed.max_hops)
    section = frames.path_bytes(new_path)
    m_self = srdp.rreq_hop_mac(stores[relay].broadcast_secret, fresh, section, hash_bytes(h_new))
    advanced = cost.advance(frame.mutable, link_bw, link_delay, node.weights, node.literal_cost)
    mutable = advanced._replace(hop_count=len(new_path))
    fresh_body = RreqBody(fresh, new_path, mac_prev, m_self, h_new)
    expected = frames.seal_rreq(stores[relay].group_key, relay, mutable, fresh_body)
    assert encode_frame(out) == encode_frame(expected)
    assert out == expected
    # Read back from the wire, not through the sealing code both share.
    arrived = decode_frame(encode_frame(out))
    assert (arrived.sender_addr, arrived.round_id(), arrived.mutable) == (relay, fresh.round_id(), mutable)
    assert open_rreq(stores[relay].group_key, arrived) == fresh_body


def test_duplicate_round_dropped(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    assert nodes["A"].process_rreq(pkt, 10, 2)[0] == "forward"
    assert nodes["A"].process_rreq(pkt, 10, 2) == ("drop", srdp.DUPLICATE)


@pytest.mark.parametrize("field,value", [("s_addr", "B"), ("s_addr", "D"), ("s_seqno", 99)])
def test_rewritten_clear_header_fails_the_seal(line_net, field, value):
    """The seal binds the clear header: a copy whose header was rewritten
    in flight is dropped as SealOpenFail by a relay that has not seen the
    round, as a flipped bit in the box is."""
    topo, nodes = line_net
    pkt = decode_frame(encode_frame(nodes["S"].originate_rreq("D")))
    rewritten = decode_frame(encode_frame(dataclasses.replace(pkt, **{field: value})))
    assert rewritten.round_id() not in nodes["A"].seen_rounds
    assert nodes["A"].process_rreq(rewritten, 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)
    assert nodes["A"].process_rreq(pkt, 10, 2)[0] == "forward"


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
    out_a = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), 10, 2)[1]
    out_b = nodes["B"].process_rreq(out_a, 10, 2)[1]
    assert calls == {"open_box": 2, "from_bytes": 2}  # one open per forward
    assert nodes["A"].keys.neighbor_group_key(out_b.sender_addr) is not None
    assert nodes["A"].process_rreq(out_b, 10, 2) == ("drop", srdp.DUPLICATE)
    assert calls == {"open_box": 2, "from_bytes": 2}


def test_non_neighbour_copy_of_seen_round_fails_the_seal(line_net):
    """A copy of a seen round from a node this one holds no group key for,
    as a replay adversary delivers it, is still SealOpenFail."""
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    out_a = nodes["A"].process_rreq(pkt, 10, 2)[1]
    assert nodes["B"].process_rreq(out_a, 10, 2)[0] == "forward"
    assert pkt.round_id() in nodes["B"].seen_rounds
    assert nodes["B"].keys.neighbor_group_key("S") is None
    assert nodes["B"].process_rreq(pkt, 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)


def test_hop_limit_enforced(line_net):
    topo, nodes = line_net
    src = srdp.SrdpNode(nodes["S"].keys, max_hops=0)
    pkt = src.originate_rreq("D")
    assert nodes["A"].process_rreq(pkt, 10, 2) == ("drop", srdp.HOP_LIMIT)


def test_foreign_seal_rejected(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    # D is not in S's neighborhood, so it holds no key for S's seal
    assert nodes["D"].process_rreq(pkt, 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)


GARBAGE_BODIES = [b"", b"\x00" * 5, b"\xff" * 64, bytes(range(200))]


@pytest.mark.parametrize("garbage", GARBAGE_BODIES)
def test_garbage_body_under_valid_group_key_dropped(line_net, garbage):
    topo, nodes = line_net
    valid = nodes["S"].originate_rreq("D")
    for raw in (garbage, open_box(nodes["S"].keys.group_key, valid.sealed, valid.header) + garbage[:1] + b"\x00"):
        rreq = hand_sealed_rreq(nodes["S"].keys.group_key, raw)
        assert nodes["A"].process_rreq(rreq, 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)
        rrep = RrepPacket("B", seal(nodes["B"].keys.group_key, raw))
        assert nodes["A"].process_rrep(rrep) == ("drop", srdp.SEAL_OPEN_FAIL)


def run_chain(nodes, hops, pkt, metrics=(10, 2)):
    for n in hops:
        action = nodes[n].process_rreq(pkt, *metrics)
        assert action[0] == "forward", action
        pkt = action[1]
    return pkt


def test_destination_chain_check_and_finalize(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    action = nodes["D"].process_rreq(pkt, 10, 2)
    assert action[0] == "collected"
    rid = action[1]
    state = nodes["D"].dest_rounds[rid]
    cand = state.candidates[0]
    k_sd = nodes["D"].keys.pairwise_key("S")
    h0 = mac(k_sd, [state.rreq.to_bytes()])
    assert cand.h == chain(h0, len(cand.path))
    rrep = nodes["D"].finalize_destination(rid)
    body = RrepBody.from_bytes(open_box(nodes["D"].keys.group_key, rrep.sealed))
    assert body.rrep.route == ("A", "B")
    assert body.q == mac(k_sd, [body.rrep.to_bytes()])


def test_destination_rejects_short_chain(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    # Claim one hop fewer than the chain proves.
    body = open_rreq(nodes["B"].keys.group_key, pkt)
    shorter = RreqBody(body.rreq, body.path[:-1], body.mac_prev, body.mac_curr, body.h)
    pkt = hand_sealed_rreq(
        nodes["B"].keys.group_key,
        shorter.to_bytes(),
        pkt.sender_addr,
        pkt.s_addr,
        pkt.s_seqno,
        mutable=Totals(1, pkt.mutable.path_cost, 10.0, 2.0),
    )
    action = nodes["D"].process_rreq(pkt, 10, 2)
    assert action == ("drop", srdp.CHAIN_MISMATCH) or action == ("drop", srdp.TWO_HOP_AUTH_FAIL)


def test_destination_ranks_on_the_checked_hop_count(line_net):
    """A candidate's hop count is the request's `hop_count`, the one field
    of the clear header that every receiver checks against the sealed path
    (and the destination against the hash chain), plus the final link."""
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    path = open_rreq(nodes["B"].keys.group_key, pkt).path
    clear = pkt.mutable._replace(hop_count=len(path))
    lie = clear._replace(hop_count=len(path) + 1)
    assert nodes["D"].process_rreq(dataclasses.replace(pkt, mutable=lie), 10, 2) == ("drop", srdp.HOP_COUNT_MISMATCH)
    action = nodes["D"].process_rreq(dataclasses.replace(pkt, mutable=clear), 10, 2)
    assert action[0] == "collected"
    (cand,) = nodes["D"].dest_rounds[action[1]].candidates
    assert (cand.totals.hop_count, cand.totals.bw, cand.totals.nd) == (len(path) + 1, 10, 6)


def test_finalize_without_candidates(line_net):
    topo, nodes = line_net
    with pytest.raises(NoValidCandidate):
        nodes["D"].finalize_destination(("S", 1))


def test_finalize_drops_reply_through_unkeyed_node(line_net):
    """A chosen route that names, two hops back, a node the destination
    shares no key with yields no reply and a NoPairwiseKey drop."""
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, 10, 2)[1]
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
    slow_action = nodes["C"].process_rreq(pkt, 5, 8)
    assert slow_action[0] == "forward"
    a1 = nodes["D"].process_rreq(fast, 10, 2)
    a2 = nodes["D"].process_rreq(slow_action[1], 5, 8)
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


def test_rrep_relay_and_accept(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, 10, 2)[1]
    rrep = nodes["D"].finalize_destination(rid)
    act_b = nodes["B"].process_rrep(rrep)
    assert act_b[0] == "forward" and act_b[2] == "A"
    act_a = nodes["A"].process_rrep(act_b[1])
    assert act_a[0] == "forward" and act_a[2] == "S"
    act_s = nodes["S"].process_rrep(act_a[1])
    assert act_s == ("accept", ("S", "A", "B", "D"))
    rrep_info, q = nodes["S"].accepted_rreps[0]
    q0 = mac(nodes["S"].keys.pairwise_key("D"), [rrep_info.to_bytes()])
    assert q == chain(q0, len(rrep_info.route))
    # Every node on the route holds the reply it answered, relayed or installed.
    assert all(nodes[n].routes == {("S", "D"): rrep_info} for n in "SABD")


def install_route(nodes):
    """Run a discovery S -> A -> B -> D on the line; returns the reply."""
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rrep = nodes["D"].finalize_destination(nodes["D"].process_rreq(pkt, 10, 2)[1])
    for hop in ("B", "A"):
        rrep = nodes[hop].process_rrep(rrep)[1]
    assert nodes["S"].process_rrep(rrep)[0] == "accept"
    return nodes["S"].routes[("S", "D")]


def test_rrep_off_route_node_drops(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, 10, 2)[1]
    rrep = nodes["D"].finalize_destination(rid)
    fwd = nodes["B"].process_rrep(rrep)[1]
    res = nodes["D"].process_rrep(fwd)  # on route but wrong direction hop
    assert res[0] == "drop"


def test_rrep_tamper_detected_by_q_chain(line_net):
    topo, nodes = line_net
    pkt = run_chain(nodes, ["A", "B"], nodes["S"].originate_rreq("D"))
    rid = nodes["D"].process_rreq(pkt, 10, 2)[1]
    rrep = nodes["D"].finalize_destination(rid)
    body = RrepBody.from_bytes(open_box(nodes["D"].keys.group_key, rrep.sealed))
    # Corrupt q (bypassing the seal, as a compromised relay could).
    from secroute.crypto import seal

    bad = RrepBody(body.rrep, b"\x00" * 32, body.mac_prev, body.mac_curr)
    fwd_b = nodes["B"].process_rrep(
        RrepPacket(rrep.sender_addr, seal(nodes["D"].keys.group_key, bad.to_bytes()))
    )
    assert fwd_b[0] == "forward"
    fwd_a = nodes["A"].process_rrep(fwd_b[1])
    # Either Y-position verification or the source q-chain stops it.
    if fwd_a[0] == "forward":
        assert nodes["S"].process_rrep(fwd_a[1]) == ("drop", srdp.Q_CHAIN_MISMATCH)
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
    cfg = ScenarioConfig(
        topology_text=DIAMOND, source="S", dest="D", seed=5, adversary=("B", "cost-deflate")
    )
    report = Harness(cfg).run()
    assert report.detections == []
    assert report.chosen_route is not None
