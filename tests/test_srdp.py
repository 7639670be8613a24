import pytest

from secroute import cost, srdp
from secroute.crypto import chain, hash_bytes, mac, open_box, seal
from secroute.errors import NoValidCandidate
from secroute.frames import RreqBody, RreqMutable, RreqPacket, RrepBody, RrepInfo, RrepPacket
from secroute.harness import (
    Harness,
    ScenarioConfig,
    provision,
    random_topology,
    topology_to_text,
)
from secroute.topology import load_topology

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
    body = RreqBody.from_bytes(open_box(nodes["S"].keys.group_key, pkt.sealed))
    assert body.path == ()
    assert body.mac_prev is None
    # h0 anchors in the source-destination secret
    k_sd = nodes["S"].keys.pairwise_key("D")
    assert body.h == mac(k_sd, [body.rreq.to_bytes()])
    pkt2 = nodes["S"].originate_rreq("D")
    assert (pkt2.sender_seqno, pkt2.b_id) != (pkt.sender_seqno, pkt.b_id)


def test_first_hop_forward_matches_construction(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    action = nodes["A"].process_rreq(pkt, 10, 2)
    assert action[0] == "forward"
    out = action[1]
    body = RreqBody.from_bytes(open_box(nodes["A"].keys.group_key, out.sealed))
    src_body = RreqBody.from_bytes(open_box(nodes["S"].keys.group_key, pkt.sealed))
    assert body.path == ("A",)
    assert body.h == hash_bytes(src_body.h)  # h1 = h(h0)
    assert body.mac_prev == src_body.mac_curr  # M0 promoted
    t_a = nodes["A"].keys.broadcast_secret
    assert body.mac_curr == srdp.rreq_hop_mac(t_a, body.rreq, ("A",), hash_bytes(body.h))
    assert out.mutable.hop_count == 1


def test_duplicate_round_dropped(line_net):
    topo, nodes = line_net
    pkt = nodes["S"].originate_rreq("D")
    assert nodes["A"].process_rreq(pkt, 10, 2)[0] == "forward"
    assert nodes["A"].process_rreq(pkt, 10, 2) == ("drop", srdp.DUPLICATE)


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
    for raw in (garbage, open_box(nodes["S"].keys.group_key, valid.sealed) + garbage[:1] + b"\x00"):
        rreq = RreqPacket("S", 1, 1, RreqMutable(), seal(nodes["S"].keys.group_key, raw))
        assert nodes["A"].process_rreq(rreq, 10, 2) == ("drop", srdp.SEAL_OPEN_FAIL)
        rrep = RrepPacket("B", 1, seal(nodes["B"].keys.group_key, raw))
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
    from secroute.crypto import seal

    body = RreqBody.from_bytes(open_box(nodes["B"].keys.group_key, pkt.sealed))
    shorter = RreqBody(body.rreq, body.path[:-1], body.mac_prev, body.mac_curr, body.h)
    pkt = type(pkt)(
        pkt.sender_addr,
        pkt.sender_seqno,
        pkt.b_id,
        type(pkt.mutable)(1, pkt.mutable.path_cost, 1, 10.0, 2.0),
        seal(nodes["B"].keys.group_key, shorter.to_bytes()),
    )
    action = nodes["D"].process_rreq(pkt, 10, 2)
    assert action == ("drop", srdp.CHAIN_MISMATCH) or action == ("drop", srdp.TWO_HOP_AUTH_FAIL)


def test_finalize_without_candidates(line_net):
    topo, nodes = line_net
    with pytest.raises(NoValidCandidate):
        nodes["D"].finalize_destination(("S", 1, 1))


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
        type(rrep)(rrep.sender_addr, rrep.sender_seqno, seal(nodes["D"].keys.group_key, bad.to_bytes()))
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
    info = RrepInfo("S", 1, "D", 0, ("A", "B"))
    rep = nodes["B"].build_rep(info, srdp.LINK_BREAK)
    assert nodes["S"].handle_rep(rep) == srdp.LINK_BREAK


def test_rep_wrong_key_discarded(line_net):
    topo, nodes = line_net
    from secroute.crypto import seal

    info = RrepInfo("S", 1, "D", 0, ("A", "B"))
    rep = nodes["B"].build_rep(info, srdp.BDP_DEGRADE)
    forged = type(rep)(
        rep.s_addr, rep.s_seqno, rep.d_addr, rep.d_seqno, seal(b"z" * 32, b"\x01"), rep.route
    )
    assert nodes["S"].handle_rep(forged) is None


def test_rep_code_round_trip(line_net):
    topo, nodes = line_net
    info = RrepInfo("S", 1, "D", 0, ("A", "B"))
    rep = nodes["A"].build_rep(info, srdp.BDP_DEGRADE)
    assert nodes["S"].handle_rep(rep) == srdp.BDP_DEGRADE


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
