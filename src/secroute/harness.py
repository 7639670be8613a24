"""Scenario runner: wires key provisioning, the simulator, and the
protocol state machines together; runs discovery, maintenance, and
session scenarios with optional scripted adversaries; emits
machine-readable reports and compares selection against the oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import cost as ecms
from . import kdc as kdclib
from . import oracle as oraclelib
from . import srdp
from .crypto import hash_bytes
from .errors import ConfigError, EmptyCover, NoUsableIndex, NoValidCandidate, SecrouteError
from .frames import (
    RepPacket,
    RreqPacket,
    RrepInfo,
    RrepPacket,
    SessionFrame,
    decode_frame,
    encode_frame,
)
from .sim import NodeBehavior, Simulator
from .topology import Topology, load_topology

STEP_CLOUDLET = 100
STEP_ACK = 101

ADVERSARY_BEHAVIORS = (
    "path-insert",
    "path-delete",
    "path-modify",
    "rreq-field-tamper",
    "replay",
    "cost-deflate",
)
# Tampering behaviors the protocol is required to catch; cost-deflate is
# the documented undetectable case and replay is merely suppressed.
DETECTABLE_BEHAVIORS = ("path-insert", "path-delete", "path-modify", "rreq-field-tamper")


@dataclass
class ScenarioConfig:
    topology_text: str
    source: str
    dest: str
    mode: ecms.Mode = ecms.Mode.HC_BW_ND
    weights: ecms.Weights = ecms.Weights()
    seed: int = 0
    adversary: Optional[Tuple[str, str]] = None  # (node, behavior)
    collection_window: float = 50.0
    monitor_interval: float = 100.0
    monitor_intervals: int = 0  # how many monitor checks to run after install
    epsilon: float = 0.1
    literal_cost: bool = False
    max_hops: int = 16
    kdc_k: int = 64
    kdc_m: int = 8
    cloudlets: int = 0
    ack_timeout: float = 60.0
    link_break: Optional[Tuple[str, str, float]] = None  # (a, b, at_ms)


@dataclass
class RunReport:
    config_summary: Dict[str, Any]
    chosen_route: Optional[List[str]]
    path_cost: Optional[float]
    metrics: Optional[Dict[str, float]]
    counters: Dict[str, Dict[str, int]]
    detections: List[Dict[str, Any]]
    events: Dict[str, int]
    cloudlets_delivered: int
    rediscoveries: int
    routes_installed: List[List[str]]
    trace_digest: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config_summary,
            "chosen_route": self.chosen_route,
            "path_cost": self.path_cost,
            "metrics": self.metrics,
            "counters": self.counters,
            "detections": self.detections,
            "events": self.events,
            "cloudlets_delivered": self.cloudlets_delivered,
            "rediscoveries": self.rediscoveries,
            "routes_installed": self.routes_installed,
            "trace_digest": self.trace_digest,
        }


def emit_report(report: RunReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2).encode()
    if fmt == "text":
        d = report.to_dict()
        lines = ["run report"]
        lines.append("route: %s" % (" -> ".join(d["chosen_route"]) if d["chosen_route"] else "none"))
        lines.append("path cost: %s" % d["path_cost"])
        lines.append("cloudlets delivered: %d" % d["cloudlets_delivered"])
        lines.append("rediscoveries: %d" % d["rediscoveries"])
        lines.append("detections:")
        for det in d["detections"]:
            lines.append("  t=%s node=%s reason=%s %s" % (det["t"], det["node"], det["reason"], det.get("detail", "")))
        if not d["detections"]:
            lines.append("  (none)")
        lines.append("trace digest: %s" % d["trace_digest"])
        return ("\n".join(lines) + "\n").encode()
    raise ConfigError("unknown report format %r" % fmt)


# -- provisioning ------------------------------------------------------


def provision(topo: Topology, k: int, m: int, seed: int):
    """Issue key rings and build every node's KeyStore.

    One-hop group keys go to direct neighbors.  Two-hop broadcast secrets
    are distributed by a revocation broadcast that excludes each node's
    own neighborhood; the rare receiver whose indices miss the cover gets
    the secret over its pairwise channel with the KDC's help.
    """
    params, pool, svc = kdclib.setup(k, m, hashlib.sha256(b"net-seed-%d" % seed).digest())
    center = kdclib.Kdc(params, pool)
    nodes = sorted(topo.nodes)
    rings = {n: center.issue(n) for n in nodes}
    pairwise: Dict[str, Dict[str, bytes]] = {n: {} for n in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            pairwise[a][b] = pairwise[b][a] = svc.pairwise_key(a, b)
    stores: Dict[str, srdp.KeyStore] = {}
    for n in nodes:
        neighbors = topo.rdn(n)
        stores[n] = srdp.KeyStore(
            node=n,
            group_key=rings[n].rdn_group_key,
            broadcast_secret=rings[n].broadcast_secret,
            neighbor_group_keys={x: rings[x].rdn_group_key for x in neighbors},
            neighbor_ids=set(neighbors),
            pairwise=pairwise[n],
        )
    for sender in nodes:
        revoked = sorted(topo.rdn(sender))
        try:
            msg = kdclib.build_broadcast(rings[sender], rings[sender].broadcast_secret, revoked, params)
        except EmptyCover:
            msg = None
        for receiver in nodes:
            if receiver == sender or receiver in stores[sender].neighbor_ids:
                continue
            secret = None
            if msg is not None:
                try:
                    secret = kdclib.open_broadcast(rings[receiver], msg, sender, params)
                except NoUsableIndex:
                    secret = None
            if secret is None:
                secret = rings[sender].broadcast_secret  # pairwise fallback delivery
            stores[receiver].twohop_secrets[sender] = secret
    return stores, svc, params, rings


# -- behaviors ---------------------------------------------------------


class ProtocolBehavior(NodeBehavior):
    """Adapts an SrdpNode to the simulator event loop."""

    def __init__(self, proto: srdp.SrdpNode, harness: "Harness"):
        self.proto = proto
        self.harness = harness

    # frame dispatch

    def on_frame(self, sim: Simulator, node: str, sender: str, frame: bytes, clock) -> None:
        try:
            pkt = decode_frame(frame)
        except SecrouteError:
            sim.log_drop(node, "MalformedFrame")
            return
        if isinstance(pkt, RreqPacket):
            self.handle_rreq(sim, node, sender, pkt, clock)
        elif isinstance(pkt, RrepPacket):
            self.handle_rrep(sim, node, sender, pkt, clock)
        elif isinstance(pkt, RepPacket):
            self.handle_rep(sim, node, sender, pkt, clock)
        elif isinstance(pkt, SessionFrame):
            self.handle_session(sim, node, sender, pkt, clock)

    def handle_rreq(self, sim, node, sender, pkt: RreqPacket, clock) -> None:
        link = sim.topo.link(sender, node)
        action = self.proto.process_rreq(pkt, link.avl_bw, link.nw_delay)
        self.dispatch_rreq_action(sim, node, action, clock)

    def dispatch_rreq_action(self, sim, node, action, clock) -> None:
        if action[0] == "forward":
            sim.broadcast(node, encode_frame(action[1]))
        elif action[0] == "drop":
            self.harness.record_drop(node, action[1], clock, self.proto)
        elif action[0] == "collected":
            _, rid, first = action
            if first:
                sim.set_timer(node, self.harness.config.collection_window, ("finalize", rid))

    def handle_rrep(self, sim, node, sender, pkt: RrepPacket, clock) -> None:
        action = self.proto.process_rrep(pkt)
        if action[0] == "forward":
            sim.unicast(node, action[2], encode_frame(action[1]))
        elif action[0] == "drop":
            self.harness.record_drop(node, action[1], clock, self.proto)
        elif action[0] == "accept":
            self.harness.on_route_installed(sim, node, action[1], clock)

    def handle_rep(self, sim, node, sender, pkt: RepPacket, clock) -> None:
        if node == pkt.s_addr:
            code = self.proto.handle_rep(pkt)
            if code is not None:
                self.harness.on_rep_at_source(sim, node, pkt, code, clock)
            return
        seq = [pkt.d_addr] + list(reversed(pkt.route)) + [pkt.s_addr]
        if node in seq:
            nxt = seq[seq.index(node) + 1]
            sim.unicast(node, nxt, encode_frame(pkt))

    # cloudlet forwarding with per-hop acks

    def handle_session(self, sim, node, sender, pkt: SessionFrame, clock) -> None:
        if pkt.step not in (STEP_ACK, STEP_CLOUDLET):
            return
        payload = _cloudlet_payload(pkt.payload, sim.topo)
        if payload is None:
            sim.log_drop(node, "MalformedSession")
            return
        if pkt.step == STEP_ACK:
            self.harness.ack_received(node, payload["seq"])
            return
        sim.unicast(node, sender, encode_frame(SessionFrame(node, STEP_ACK, pkt.payload)))
        route = payload["route"]
        if node == route[-1]:
            self.harness.cloudlet_delivered(payload["seq"])
            return
        if node not in route:
            return
        nxt = route[route.index(node) + 1]
        sim.unicast(node, nxt, encode_frame(pkt))
        self.harness.expect_ack(sim, node, payload, nxt)

    def on_timer(self, sim: Simulator, node: str, tag: Any, clock) -> None:
        if tag[0] == "finalize":
            try:
                rrep = self.proto.finalize_destination(tag[1])
            except NoValidCandidate:
                self.harness.events["no_valid_candidate"] = self.harness.events.get("no_valid_candidate", 0) + 1
                return
            seq = srdp.reverse_sequence(self._rrep_info(rrep))
            sim.unicast(node, seq[1], encode_frame(rrep))
        elif tag[0] == "ack-wait":
            self.harness.ack_timeout(sim, node, tag[1], clock, self.proto)
        elif tag[0] == "monitor":
            self.harness.monitor_tick(sim, node, clock)
        elif tag[0] == "adversary-replay":
            sim.broadcast(node, tag[1])

    def _rrep_info(self, rrep_pkt: RrepPacket):
        # The destination just sealed this packet under its own group key,
        # so it can reopen it to learn the first reverse hop.
        from .crypto import open_box
        from .frames import RrepBody

        body = RrepBody.from_bytes(open_box(self.proto.keys.group_key, rrep_pkt.sealed))
        return body.rrep


def _cloudlet_payload(raw: bytes, topo: Topology) -> Optional[Dict[str, Any]]:
    """The JSON object a cloudlet or its ack carries, or None unless it holds
    an integer "seq" and a nonempty "route" list of the topology's nodes."""
    try:
        payload = json.loads(raw.decode())
    except (ValueError, RecursionError):  # bad UTF-8, bad JSON, or nesting too deep
        return None
    if not isinstance(payload, dict):
        return None
    seq, route = payload.get("seq"), payload.get("route")
    if type(seq) is not int or not isinstance(route, list) or not route:
        return None
    if not all(isinstance(n, str) and n in topo.nodes for n in route):
        return None
    return payload


# -- adversaries -------------------------------------------------------


class AdversaryBehavior(ProtocolBehavior):
    """Tampers with the first RREQ it would forward; honest otherwise."""

    def __init__(self, proto, harness, behavior: str, rng: random.Random):
        super().__init__(proto, harness)
        self.behavior = behavior
        self.rng = rng
        self.tampered = False
        self.phantom = "ghost-%d" % rng.getrandbits(16)

    def handle_rreq(self, sim, node, sender, pkt: RreqPacket, clock) -> None:
        if self.behavior == "replay":
            if not self.tampered:
                self.tampered = True
                sim.set_timer(node, 5, ("adversary-replay", encode_frame(pkt)))
            super().handle_rreq(sim, node, sender, pkt, clock)
            return
        if self.behavior == "cost-deflate":
            link = sim.topo.link(sender, node)
            action = self.proto.process_rreq(pkt, link.avl_bw, link.nw_delay)
            if action[0] == "forward":
                out = action[1]
                out.mutable.path_cost = 0.0  # lie in the clear header
                sim.broadcast(node, encode_frame(out))
                self.tampered = True
            else:
                self.dispatch_rreq_action(sim, node, action, clock)
            return
        body = self.proto._open_rreq(pkt)
        if body is None or self.tampered or not body.path:
            super().handle_rreq(sim, node, sender, pkt, clock)
            return
        self.tampered = True
        out = self._tampered_forward(pkt, body, sim.topo.link(sender, node))
        self.proto.seen_rounds.add(body.rreq.round_id())
        sim.broadcast(node, encode_frame(out))

    def _tampered_forward(self, pkt: RreqPacket, body, link) -> RreqPacket:
        from .crypto import hash_bytes, seal
        from .frames import RreqBody, RreqMutable

        proto = self.proto
        rreq = body.rreq
        path = body.path
        if self.behavior == "path-insert":
            # Claim a phantom predecessor; its MAC cannot exist.
            new_path = path + (self.phantom, proto.node)
            h_new = hash_bytes(hash_bytes(body.h))
            mac_prev = bytes(self.rng.getrandbits(8) for _ in range(32))
        elif self.behavior == "path-modify":
            new_path = path[:-1] + (self.phantom, proto.node)
            h_new = hash_bytes(body.h)
            mac_prev = body.mac_curr
        elif self.behavior == "path-delete":
            new_path = path[:-1] + (proto.node,)
            h_new = hash_bytes(body.h)  # chain now one step too long for the claim
            mac_prev = body.mac_curr
        else:  # rreq-field-tamper
            rreq = type(rreq)(
                s_addr=rreq.s_addr,
                s_seqno=rreq.s_seqno,
                b_id=rreq.b_id,
                d_addr=rreq.d_addr,
                d_seqno=rreq.d_seqno + 1,
                max_hops=rreq.max_hops,
            )
            new_path = path + (proto.node,)
            h_new = hash_bytes(body.h)
            mac_prev = body.mac_curr
        m_self = srdp.rreq_hop_mac(proto.keys.broadcast_secret, rreq, new_path, hash_bytes(h_new))
        new_body = RreqBody(rreq, new_path, mac_prev, m_self, h_new)
        mut = pkt.mutable
        new_mut = RreqMutable(
            hop_count=len(new_path),
            path_cost=ecms.path_cost_step(mut.path_cost, link.avl_bw, link.nw_delay, proto.weights, proto.literal_cost),
            hc=mut.hc + 1,
            bw=link.avl_bw if mut.hc == 0 else min(mut.bw, link.avl_bw),
            nd=mut.nd + link.nw_delay,
        )
        proto._seqno += 1
        return RreqPacket(proto.node, proto._seqno, pkt.b_id, new_mut, seal(proto.keys.group_key, new_body.to_bytes()))


# -- harness -----------------------------------------------------------


class Harness:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.topo = load_topology(config.topology_text)
        for n in (config.source, config.dest):
            if n not in self.topo.nodes:
                raise ConfigError("node %r not in topology" % n)
        if config.adversary is not None:
            node, behavior = config.adversary
            if node not in self.topo.nodes:
                raise ConfigError("adversary node %r not in topology" % node)
            if behavior not in ADVERSARY_BEHAVIORS:
                raise ConfigError("unknown adversary behavior %r" % behavior)
        self.sim = Simulator(self.topo, seed=config.seed)
        self.stores, self.svc, self.params, self.rings = provision(
            self.topo, config.kdc_k, config.kdc_m, config.seed
        )
        self.protos: Dict[str, srdp.SrdpNode] = {}
        self.detections: List[Dict[str, Any]] = []
        self.events: Dict[str, int] = {}
        self.routes_installed: List[Tuple[str, ...]] = []
        self.cloudlets_done: set = set()
        self.pending_acks: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self.rediscoveries = 0
        self.monitor_state: Optional[ecms.MonitorState] = None
        self.monitor_ticks_left = 0
        self.cloudlets_to_send = 0
        self.next_cloudlet = 0
        self.halted = False
        self._build_behaviors()

    def _build_behaviors(self) -> None:
        w = ecms.weights_for_mode(self.config.mode, self.config.weights)
        adv_node = self.config.adversary[0] if self.config.adversary else None
        for n in sorted(self.topo.nodes):
            proto = srdp.SrdpNode(
                self.stores[n],
                weights=w,
                max_hops=self.config.max_hops,
                literal_cost=self.config.literal_cost,
            )
            self.protos[n] = proto
            if n == adv_node:
                behavior = AdversaryBehavior(
                    proto, self, self.config.adversary[1], random.Random(self.config.seed ^ 0xA5)
                )
            else:
                behavior = ProtocolBehavior(proto, self)
            self.sim.install(n, behavior)

    # -- hooks ---------------------------------------------------------

    def record_drop(self, node: str, reason: str, clock, proto: srdp.SrdpNode) -> None:
        self.sim.log_drop(node, reason)
        if reason in (srdp.TWO_HOP_AUTH_FAIL, srdp.CHAIN_MISMATCH, srdp.Q_CHAIN_MISMATCH):
            detail = proto.detections[-1][1] if proto.detections else ""
            self.detections.append({"t": clock, "node": node, "reason": reason, "detail": detail})

    def on_route_installed(self, sim, node: str, route: Tuple[str, ...], clock) -> None:
        self.routes_installed.append(route)
        self.halted = False
        if self.cloudlets_to_send and node == self.config.source:
            # Delivery is serial, so anything past the delivered prefix was
            # lost with the old route and gets resent.
            self.next_cloudlet = len(self.cloudlets_done)
            self._send_next_cloudlet(sim, node)
        if self.config.monitor_intervals and node == self.config.source:
            metrics = ecms.aggregate(route, ecms.CostMatrices.from_topology(self.topo))
            self.monitor_state = ecms.MonitorState(
                route=route,
                last_bdp=metrics.bw * metrics.nd,
                interval=self.config.monitor_interval,
                epsilon=self.config.epsilon,
            )
            self.monitor_ticks_left = self.config.monitor_intervals
            sim.set_timer(node, self.config.monitor_interval, ("monitor",))

    def monitor_tick(self, sim, node: str, clock) -> None:
        if self.monitor_state is None or self.monitor_ticks_left <= 0:
            return
        self.monitor_ticks_left -= 1
        metrics = ecms.aggregate(self.monitor_state.route, ecms.CostMatrices.from_topology(self.topo))
        action, _code = ecms.monitor(self.monitor_state, True, metrics.bw * metrics.nd)
        if action is ecms.MonitorAction.REDISCOVER:
            self.rediscoveries += 1
            self._rediscover(sim, node)
        elif self.monitor_ticks_left > 0:
            sim.set_timer(node, self.monitor_state.interval, ("monitor",))

    # cloudlet bookkeeping

    def _route_payload(self, route: Tuple[str, ...], seq: int) -> bytes:
        return json.dumps({"route": list(route), "seq": seq}, sort_keys=True).encode()

    def _send_next_cloudlet(self, sim, source: str) -> None:
        if self.halted or self.next_cloudlet >= self.cloudlets_to_send:
            return
        route = self.protos[source].installed_routes.get(self.config.dest)
        if route is None:
            return
        seq = self.next_cloudlet
        self.next_cloudlet += 1
        payload = self._route_payload(route, seq)
        sim.unicast(source, route[1], encode_frame(SessionFrame(source, STEP_CLOUDLET, payload)))
        self.expect_ack(sim, source, {"route": list(route), "seq": seq}, route[1])

    def expect_ack(self, sim, node: str, payload: Dict[str, Any], nxt: str) -> None:
        key = (node, payload["seq"])
        self.pending_acks[key] = payload
        sim.set_timer(node, self.config.ack_timeout, ("ack-wait", payload))

    def ack_received(self, node: str, seq: int) -> None:
        self.pending_acks.pop((node, seq), None)

    def cloudlet_delivered(self, seq: int) -> None:
        self.cloudlets_done.add(seq)
        src = self.config.source
        self._send_next_cloudlet(self.sim, src)

    def ack_timeout(self, sim, node: str, payload: Dict[str, Any], clock, proto: srdp.SrdpNode) -> None:
        key = (node, payload["seq"])
        if key not in self.pending_acks:
            return
        self.pending_acks.pop(key)
        self.events["link_break_detected"] = self.events.get("link_break_detected", 0) + 1
        route = tuple(payload["route"])
        rrep = RrepInfo(
            s_addr=route[0],
            s_seqno=0,
            d_addr=route[-1],
            d_seqno=0,
            route=route[1:-1],
        )
        if node == route[0]:
            # Source saw the break itself; no REP needed.
            self.on_rep_at_source(sim, node, None, srdp.LINK_BREAK, clock)
            return
        rep = proto.build_rep(rrep, srdp.LINK_BREAK)
        seq = [rep.d_addr] + list(reversed(rep.route)) + [rep.s_addr]
        nxt = seq[seq.index(node) + 1]
        sim.unicast(node, nxt, encode_frame(rep))

    def on_rep_at_source(self, sim, node: str, rep: Optional[RepPacket], code: int, clock) -> None:
        self.events["rep_at_source"] = self.events.get("rep_at_source", 0) + 1
        self.halted = True
        # Drop outstanding expectations for the dead route.
        for key in [k for k in self.pending_acks if k[0] == node]:
            self.pending_acks.pop(key)
        self.protos[node].installed_routes.pop(self.config.dest, None)
        self.rediscoveries += 1
        self._rediscover(sim, node)

    def _rediscover(self, sim, node: str) -> None:
        pkt = self.protos[node].originate_rreq(self.config.dest)
        sim.broadcast(node, encode_frame(pkt))

    # -- run -----------------------------------------------------------

    def run(self, stop: Optional[float] = None) -> RunReport:
        cfg = self.config
        self.cloudlets_to_send = cfg.cloudlets
        if cfg.link_break is not None:
            a, b, at = cfg.link_break
            self.sim.break_link(a, b, at)
        pkt = self.protos[cfg.source].originate_rreq(cfg.dest)
        self.sim.broadcast(cfg.source, encode_frame(pkt))
        self.sim.run_until(stop=stop)
        return self._report()

    def _report(self) -> RunReport:
        cfg = self.config
        src_proto = self.protos[cfg.source]
        route = src_proto.installed_routes.get(cfg.dest)
        path_cost = metrics = None
        if route is not None:
            matrices = ecms.CostMatrices.from_topology(self.topo)
            m = ecms.aggregate(route, matrices)
            metrics = {"hc": m.hc, "bw": m.bw, "nd": m.nd}
            w = ecms.weights_for_mode(cfg.mode, cfg.weights)
            c = 0.0
            for a, b in zip(route, route[1:]):
                link = self.topo.link(a, b)
                c = ecms.path_cost_step(c, link.avl_bw, link.nw_delay, w, cfg.literal_cost)
            path_cost = c
        trace_repr = json.dumps(self.sim.trace, sort_keys=True, default=str).encode()
        counters = {n: dict(sorted(p.counters.items())) for n, p in sorted(self.protos.items()) if p.counters}
        return RunReport(
            config_summary={
                "source": cfg.source,
                "dest": cfg.dest,
                "mode": cfg.mode.value,
                "seed": cfg.seed,
                "adversary": list(cfg.adversary) if cfg.adversary else None,
                "literal_cost": cfg.literal_cost,
            },
            chosen_route=list(route) if route else None,
            path_cost=path_cost,
            metrics=metrics,
            counters=counters,
            detections=self.detections,
            events=dict(sorted(self.events.items())),
            cloudlets_delivered=len(self.cloudlets_done),
            rediscoveries=self.rediscoveries,
            routes_installed=[list(r) for r in self.routes_installed],
            trace_digest=hashlib.sha256(trace_repr).hexdigest(),
        )


def run_scenario(config: ScenarioConfig, stop: Optional[float] = None) -> RunReport:
    return Harness(config).run(stop=stop)


# -- oracle comparison -------------------------------------------------


def compare_oracle(
    topo: Topology,
    source: str,
    dest: str,
    modes=tuple(ecms.Mode),
    base: ecms.Weights = ecms.Weights(),
    literal: bool = False,
    max_hops: int = 16,
) -> Dict[str, Any]:
    """Check select_route against brute-force enumeration, mode by mode."""
    matrices = ecms.CostMatrices.from_topology(topo)
    results = {}
    all_match = True
    for mode in modes:
        w = ecms.weights_for_mode(mode, base)
        paths = oraclelib.all_simple_paths(topo, source, dest, max_hops)
        candidates = []
        for p in paths:
            c = 0.0
            for a, b in zip(p, p[1:]):
                link = topo.link(a, b)
                c = ecms.path_cost_step(c, link.avl_bw, link.nw_delay, w, literal)
            candidates.append((tuple(p[1:-1]), c, ecms.aggregate(p, matrices)))
        chosen = ecms.select_route(candidates, mode)
        chosen_key = ecms.selection_key(
            next(cand for cand in candidates if cand[0] == chosen), mode
        )
        oracle_path, oracle_key_val = oraclelib.oracle_select(topo, source, dest, mode, w, literal, max_hops)
        match = tuple(chosen) == tuple(oracle_path[1:-1]) and chosen_key == oracle_key_val
        all_match = all_match and match
        results[mode.value] = {
            "match": match,
            "selected": list(chosen),
            "oracle": list(oracle_path[1:-1]),
        }
    return {"all_match": all_match, "modes": results}


# -- topology generation ----------------------------------------------


def random_topology(
    seed: int,
    n: int = 8,
    edge_prob: float = 0.4,
    bw_range: Tuple[float, float] = (1.0, 100.0),
    delay_range: Tuple[float, float] = (1.0, 20.0),
) -> Topology:
    """Seeded connected random topology with integer-valued metrics."""
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
                    bw = float(rng.randint(int(bw_range[0]), int(bw_range[1])))
                    delay = float(rng.randint(int(delay_range[0]), int(delay_range[1])))
                    topo.add_link(names[i], names[j], bw, delay)
        if _connected(topo):
            return topo


def _connected(topo: Topology) -> bool:
    nodes = list(topo.nodes)
    if not nodes:
        return False
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        cur = frontier.pop()
        for nxt in topo.rdn(cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(topo.nodes)


def topology_to_text(topo: Topology) -> str:
    lines = []
    for n in sorted(topo.nodes):
        lines.append("node %s %s" % (n, topo.nodes[n]))
    for key in sorted(topo.links, key=lambda k: tuple(sorted(k))):
        a, b = sorted(key)
        link = topo.links[key]
        lines.append("link %s %s %g %g" % (a, b, link.avl_bw, link.nw_delay))
    return "\n".join(lines) + "\n"
