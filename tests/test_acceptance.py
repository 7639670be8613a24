"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line so a
log scrape shows the verdicts at a glance.
"""

import contextlib
import json
import random
import time
from collections import deque
from math import comb

import pytest

from secroute import kdc, oracle as oraclelib, session, srdp
from secroute.crypto import chain, mac
from secroute.errors import (
    MalformedFrame,
    NoUsableIndex,
    TokenInvalid,
)
from secroute.frames import decode_frame, encode_frame
from secroute.harness import (
    Harness,
    ScenarioConfig,
    compare_oracle,
    emit_report,
    random_topology,
    topology_to_text,
)
from secroute.kdc import PairwiseKeyService
from secroute.topology import load_topology

AUTH_DROPS = (
    srdp.TWO_HOP_AUTH_FAIL,
    srdp.CHAIN_MISMATCH,
    srdp.Q_CHAIN_MISMATCH,
    srdp.SEAL_OPEN_FAIL,
    srdp.HOP_COUNT_MISMATCH,
)

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


@contextlib.contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print("%s: FAIL" % name)
        raise
    print("%s: PASS" % name)


def bfs_dist(topo, start, skip=None):
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        x = frontier.popleft()
        for y in topo.nodes:
            if y != skip and y not in dist and topo.has_link(x, y):
                dist[y] = dist[x] + 1
                frontier.append(y)
    return dist


def is_real_path(topo, route):
    return all(n in topo.nodes for n in route) and all(
        topo.has_link(a, b) for a, b in zip(route, route[1:])
    )


# Modes whose objective adds up link by link; on these topologies the
# first-copy flood delivers their oracle pick.  hc*bw and bw*nd grow with extra hops and delay, so
# their best path is often a long one no relay forwards first.
ADDITIVE_MODES = ("hc", "nd", "hc_nd", "hc_bw_nd")


def test_route_selection_matches_oracle():
    with verdict("installed route is the oracle-best delivered one (140/140), the oracle's pick in additive modes (80/80)"):
        start = time.monotonic()
        best = picks = additive_picks = 0
        for seed in range(20):
            topo = random_topology(seed)
            diff = compare_oracle(topo, "N0", "N7")
            assert diff["all_match"], (seed, diff)
            for mode, res in diff["modes"].items():
                best += res["match"]
                picks += res["oracle_pick"]
                additive_picks += res["oracle_pick"] and mode in ADDITIVE_MODES
        elapsed = time.monotonic() - start
        assert best == 140
        assert additive_picks == 80
        assert picks >= 111, picks  # fewer: the flood delivers fewer oracle picks
        assert elapsed < 10.0, elapsed


def tamper_scenarios(count=100):
    """Seeded topologies where the adversary sits next to the destination,
    at least two hops from the source, and is reachable without crossing
    the destination (so the flood actually passes through it)."""
    out = []
    seed = 0
    while len(out) < count:
        topo = random_topology(seed)
        full = bfs_dist(topo, "N0")
        detour = bfs_dist(topo, "N0", skip="N7")
        picks = [
            n
            for n in topo.nodes
            if n not in ("N0", "N7")
            and topo.has_link(n, "N7")
            and full.get(n, 99) >= 2
            and n in detour
        ]
        if picks:
            out.append((seed, sorted(picks)[0], topo))
        seed += 1
    return out


@pytest.mark.parametrize(
    "behavior", ["path-insert", "path-delete", "path-modify", "rreq-field-tamper"]
)
def test_tampering_always_detected(behavior):
    with verdict("%s detected in 100/100 runs, no tampered route installed" % behavior):
        for seed, adversary, topo in tamper_scenarios(100):
            cfg = ScenarioConfig(
                topology_text=topology_to_text(topo),
                source="N0",
                dest="N7",
                seed=seed,
                adversary=(adversary, behavior),
                collection_window=200,
            )
            report = Harness(cfg).run()
            assert report.detections, (behavior, seed)
            adv_dist = bfs_dist(topo, adversary)
            for det in report.detections:
                assert det["reason"] in (srdp.TWO_HOP_AUTH_FAIL, srdp.CHAIN_MISMATCH)
                assert det["node"] == "N7" or adv_dist.get(det["node"], 99) <= 2
            for route in report.routes_installed:
                assert is_real_path(topo, route), (behavior, seed, route)


def test_honest_runs_install_traversed_routes():
    with verdict("100/100 honest runs install a genuinely traversed route, 0 auth drops"):
        for seed in range(100):
            n = 6 + seed % 7  # 6..12 nodes
            topo = random_topology(seed, n=n)
            dest = "N%d" % (n - 1)
            cfg = ScenarioConfig(
                topology_text=topology_to_text(topo), source="N0", dest=dest, seed=seed
            )
            harness = Harness(cfg)
            report = harness.run()
            route = report.chosen_route
            assert route is not None, seed
            assert is_real_path(topo, route), (seed, route)
            delivered = {
                (e["sender"], e["node"])
                for e in harness.sim.trace
                if e["ev"] == "deliver"
            }
            for a, b in zip(route, route[1:]):
                assert (a, b) in delivered, (seed, a, b)  # request went out
                assert (b, a) in delivered, (seed, b, a)  # reply came back
            auth_drops = [
                e
                for e in harness.sim.trace
                if e["ev"] == "drop" and e["reason"] in AUTH_DROPS
            ]
            assert auth_drops == [], (seed, auth_drops)


def test_revoked_node_never_recovers_broadcast():
    with verdict("revoked-node recovery 0/10000, coverage above thresholds"):
        params, pool, _ = kdc.setup(16, 4, b"a" * 32)
        center = kdc.Kdc(params, pool)
        sender = center.issue("sender")
        for trial in range(10**4):
            victim = "victim-%d" % trial
            ring = center.issue(victim)
            msg = kdc.build_broadcast(sender, b"s" * 32, [victim], params)
            with pytest.raises(NoUsableIndex):
                kdc.open_broadcast(ring, msg, "sender", params)
        cov1 = kdc.coverage_estimate(k=64, m=8, r=1, trials=1000, seed=1)
        cov2 = kdc.coverage_estimate(k=64, m=8, r=2, trials=1000, seed=2)
        assert cov1 >= 0.99, cov1
        assert cov2 >= 0.95, cov2
        # analytic floor: miss only if all m indices fall inside the
        # revoked union (at most r*m of k), so coverage >= 1 - C(rm,m)/C(k,m)
        assert cov1 >= 1 - comb(8, 8) / comb(64, 8) - 0.01
        assert cov2 >= 1 - comb(16, 8) / comb(64, 8) - 0.01


def disjoint_pair_exists(topo, source, dest):
    paths = oraclelib.all_simple_paths(topo, source, dest, 16)
    for i, p in enumerate(paths):
        edges_p = set(map(frozenset, zip(p, p[1:])))
        for q in paths[i + 1 :]:
            if set(p[1:-1]) & set(q[1:-1]):
                continue
            if edges_p & set(map(frozenset, zip(q, q[1:]))):
                continue
            return True
    return False


def recovery_scenarios(count=50):
    out = []
    seed = 0
    while len(out) < count:
        topo = random_topology(seed)
        if disjoint_pair_exists(topo, "N0", "N7"):
            out.append((seed, topology_to_text(topo)))
        seed += 1
    return out


def test_link_break_recovery_on_alternate_route():
    with verdict("link-break recovery completes delivery in 50/50 runs"):
        for seed, text in recovery_scenarios(50):
            cfg = ScenarioConfig(
                topology_text=text, source="N0", dest="N7", seed=seed, cloudlets=6
            )
            probe_harness = Harness(cfg)
            probe = probe_harness.run()
            assert probe.cloudlets_delivered == 6, seed
            install = min(
                e["t"]
                for e in probe_harness.sim.trace
                if e["ev"] == "timer"
                and e.get("node") == "N0"
                and "ack-wait" in str(e.get("tag", ""))
            ) - cfg.ack_timeout
            first_edge = (probe.chosen_route[0], probe.chosen_route[1])
            broken = ScenarioConfig(
                topology_text=text,
                source="N0",
                dest="N7",
                seed=seed,
                cloudlets=6,
                link_break=(first_edge[0], first_edge[1], install + 5.0),
            )
            report = Harness(broken).run()
            assert report.rediscoveries >= 1, seed
            assert report.cloudlets_delivered == 6, seed
            final_edges = set(zip(report.chosen_route, report.chosen_route[1:]))
            assert first_edge not in final_edges
            assert (first_edge[1], first_edge[0]) not in final_edges


def test_accepted_packets_satisfy_hash_chains(monkeypatch):
    # Each collected request's round, path and chain value, and each
    # accepted reply and the chain value it carried, as they arrived.
    arrived, accepted = [], []
    collect, accept = srdp.SrdpNode._collect_candidate, srdp.SrdpNode._accept_rrep

    def spy_collect(node, body, link_bw, link_delay):
        action = collect(node, body, link_bw, link_delay)
        if action[0] == "collected":
            arrived.append((body.rreq, body.path, body.h))
        return action

    def spy_accept(node, body, seq):
        action = accept(node, body, seq)
        if action[0] == "accept":
            accepted.append((node.node, body.rrep, body.q))
        return action

    monkeypatch.setattr(srdp.SrdpNode, "_collect_candidate", spy_collect)
    monkeypatch.setattr(srdp.SrdpNode, "_accept_rrep", spy_accept)
    with verdict("hash chains sound on 1000+ accepted requests and all replies"):
        candidates = 0
        replies = 0
        seed = 0
        while candidates < 1000:
            arrived.clear()
            accepted.clear()
            topo = random_topology(seed)
            cfg = ScenarioConfig(
                topology_text=topology_to_text(topo), source="N0", dest="N7", seed=seed
            )
            harness = Harness(cfg)
            harness.run()
            k_sd = harness.protos["N7"].keys.pairwise_key("N0")
            for rreq, path, h in arrived:
                assert h == chain(mac(k_sd, [rreq.to_bytes()]), len(path)), seed
                candidates += 1
            k_ds = harness.protos["N0"].keys.pairwise_key("N7")
            for node, info, q in accepted:
                assert node == "N0", seed
                q0 = mac(k_ds, [info.to_bytes()])
                assert q == chain(q0, len(info.route)), seed
                replies += 1
            seed += 1
        assert candidates >= 1000 and replies >= 1, (candidates, replies)


def test_codec_identity_and_fuzz():
    with verdict("codec round-trips live frames, survives 10000 random inputs"):
        topo = load_topology(DIAMOND)
        from secroute.harness import provision

        stores, _, _, _ = provision(topo, 64, 8, seed=0)
        nodes = {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}
        frames = [nodes["S"].originate_rreq("D")]
        pkt = frames[0]
        for sender, hop in (("S", "A"), ("A", "B")):
            pkt = nodes[hop].process_rreq(pkt, sender, 10, 2)[1]
            frames.append(pkt)
        rid = nodes["D"].process_rreq(pkt, "B", 10, 2)[1]
        rrep = nodes["D"].finalize_destination(rid)
        frames.append(rrep)
        fwd = nodes["B"].process_rrep(rrep, "D")
        frames.append(fwd[1])
        from secroute.frames import RrepInfo, SessionFrame

        info = RrepInfo("S", 1, "D", ("A", "B"))
        frames.append(nodes["B"].build_rep(info, srdp.LINK_BREAK))
        frames.append(SessionFrame(100, "S", 1, "D", 0))
        for frame in frames:
            assert decode_frame(encode_frame(frame)) == frame
        rng = random.Random(2026)
        for _ in range(10**4):
            blob = rng.randbytes(rng.randrange(0, 300))
            try:
                decode_frame(blob)
            except MalformedFrame:
                pass


def test_handshake_gates():
    with verdict("handshakes complete, 100/100 forged tokens refused"):
        svc = PairwiseKeyService(b"m" * 32)
        broker = session.Broker("B1")
        exchange = session.Exchange("X1")
        coord = session.Coordinator(
            "C1", ("compute",), 2, 2.0, "std", 0.5, registered_with="X1"
        )
        session.directory_refresh(coord, exchange)
        cloud, sla, auth = session.run_bcec(broker, exchange, svc, "compute")
        _, token = session.run_ceccc(exchange, coord, svc, sla)
        result, cost = session.run_bccc(broker, coord, svc, token, b"task", 4.0)
        assert cloud == "C1" and len(auth) == 32 and len(result) == 32
        assert cost == pytest.approx(2.0)
        ledger_before = list(broker.ledger)
        rng = random.Random(7)
        for _ in range(100):
            forged = session.AuthToken("B1", "C1", "bccc", rng.randbytes(32))
            with pytest.raises(TokenInvalid):
                session.run_bccc(broker, coord, svc, forged, b"task", 1.0)
        assert broker.ledger == ledger_before  # nothing transferred or billed


def test_reports_are_byte_identical():
    with verdict("fixed scenarios produce byte-identical reports"):
        configs = [
            ScenarioConfig(
                topology_text=DIAMOND, source="S", dest="D", seed=3, cloudlets=4
            ),
            ScenarioConfig(
                topology_text=DIAMOND,
                source="S",
                dest="D",
                seed=3,
                adversary=("B", "path-insert"),
                collection_window=200,
            ),
            ScenarioConfig(
                topology_text=DIAMOND,
                source="S",
                dest="D",
                seed=3,
                cloudlets=6,
                link_break=("A", "B", 90.0),
            ),
        ]
        for cfg in configs:
            first = emit_report(Harness(cfg).run())
            second = emit_report(Harness(cfg).run())
            assert first == second
            json.loads(first)  # and they are valid JSON
