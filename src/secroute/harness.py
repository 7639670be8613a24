"""Scenario runner: wires key provisioning, the simulator, and the
protocol state machines together; runs a discovery, then sends cloudlets
over the installed route, with optional scripted adversaries; emits
machine-readable reports and checks the route the protocol installs
against the oracle.

Route upkeep lives on each node's `ProtocolBehavior`: a hop that sends a
cloudlet waits for its next hop's ack, and when the wait times out it
forgets the round's route and sends the source a route error naming
itself (the source rediscovers), once per round.
Cloudlets, acks and route errors name their round, not a route: each
node acts on one only along the route it holds for that round
(`SrdpNode.routes`), from the neighbour it expects there.  `Harness`
keeps the scenario's records and the source's cloudlet workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, List, Optional, Set, Tuple

from . import cost as ecms
from . import kdc as kdclib
from . import oracle as oraclelib
from . import srdp
from .crypto import MAC_LEN, hash_bytes
from .errors import ConfigError, NoValidCandidate, SecrouteError
from .frames import (
    RepPacket,
    RreqBody,
    RreqPacket,
    RrepPacket,
    SessionFrame,
    decode_frame,
    encode_frame,
    path_bytes,
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
# Tampering behaviors the protocol is required to catch.  cost-deflate is
# the documented undetectable case: the liar seals its own lie.  A replayed
# copy fails to open under the replayer's key, so replay is merely suppressed.
DETECTABLE_BEHAVIORS = ("path-insert", "path-delete", "path-modify", "rreq-field-tamper")


@dataclass
class ScenarioConfig:
    topology_text: str
    source: str
    dest: str
    mode: ecms.Mode = ecms.Mode.HC_BW_ND
    seed: int = 0
    adversary: Optional[Tuple[str, str]] = None  # (node, behavior)
    collection_window: float = 50.0
    literal_cost: bool = False
    max_hops: int = 16
    cloudlets: int = 0
    link_break: Optional[Tuple[str, str, float]] = None  # (a, b, at_ms)
    # The same in every scenario: base cost weights, key pool size and ring
    # size, and how long a hop waits for a cloudlet's ack (ms).
    weights: ClassVar[ecms.Weights] = ecms.Weights()
    kdc_k: ClassVar[int] = 64
    kdc_m: ClassVar[int] = 8
    ack_timeout: ClassVar[float] = 60.0


@dataclass
class RunReport:
    config: Dict[str, Any]
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
        # The fields by name, sharing their values; `dataclasses.asdict`
        # would deep-copy every counter of every node on each report.
        return dict(vars(self))


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

    A ring carries no encryption secrets: a node's broadcast derives the
    secrets of its cover as it seals, and keeps none.  Issuing a ring
    reads no pool key either: the network's pool derives each one the
    first time a broadcast seals, or a receiver opens, under it.
    One-hop group keys go to direct neighbors here.  Two-hop broadcast
    secrets and pairwise keys are handed out on first use: a node opens
    a sender's revocation broadcast, which excludes the sender's
    neighborhood as recorded here, the first time it checks a MAC under
    that sender's secret, and derives a pairwise key the first time it
    needs one.  The rare receiver whose indices miss the cover gets the
    secret over its pairwise channel with the KDC's help.
    """
    params, pool, svc = kdclib.setup(k, m, hashlib.sha256(b"net-seed-%d" % seed).digest())
    center = kdclib.Kdc(params, pool)
    nodes = sorted(topo.nodes)
    rings = {n: center.issue(n) for n in nodes}
    neighbors = {n: frozenset(topo.rdn(n)) for n in nodes}
    issued = srdp.Provisioning(params, svc, rings, neighbors)
    stores = {n: srdp.KeyStore(n, issued) for n in nodes}
    return stores, svc, params, rings


# -- behaviors ---------------------------------------------------------


class ProtocolBehavior(NodeBehavior):
    """Adapts an SrdpNode to the simulator event loop."""

    def __init__(self, proto: srdp.SrdpNode, harness: "Harness"):
        self.proto = proto
        self.harness = harness
        # (s_addr, s_seqno, d_addr, seq): cloudlets sent and not yet acked
        self.awaiting_ack: Set[Tuple[str, int, str, int]] = set()

    # frame dispatch

    def on_frame(self, sim: Simulator, node: str, sender: str, frame: bytes, clock) -> None:
        try:
            # One decode per transmission: every receiver of a broadcast gets
            # the same packet, which is frozen, so none can change it; what
            # `frames.open_rreq` remembers on it is shared by design.
            pkt = sim.decoded(frame, decode_frame)
        except SecrouteError:
            sim.log_drop(node, "MalformedFrame")
            return
        kind = type(pkt)  # decode_frame builds these four classes, never a subclass
        if kind is RreqPacket:
            self.handle_rreq(sim, node, sender, pkt, clock)
        elif kind is RrepPacket:
            self.handle_rrep(sim, node, sender, pkt, clock)
        elif kind is RepPacket:
            self.handle_rep(sim, node, sender, pkt, clock)
        elif kind is SessionFrame:
            self.handle_session(sim, node, sender, pkt, clock)

    def handle_rreq(self, sim, node, sender, pkt: RreqPacket, clock) -> None:
        link = sim.topo.link(sender, node)
        action = self.proto.process_rreq(pkt, sender, link.avl_bw, link.nw_delay)
        if action is srdp.DUPLICATE_DROP:  # most copies of a flood: traced, nothing more
            sim.log_drop(node, srdp.DUPLICATE)
        elif action[0] == "forward":  # to every neighbour but the one it came from
            sim.broadcast(node, encode_frame(action[1]), sender)
        elif action[0] == "drop":
            self.harness.record_drop(node, action[1], clock, self.proto)
        elif action[0] == "collected" and action[2]:  # the round's first copy opens its window
            sim.set_timer(node, self.harness.config.collection_window, ("finalize", action[1]))
        # srdp.DEAD_END: a pendant relay built no copy, so nothing is sent.

    def handle_rrep(self, sim, node, sender, pkt: RrepPacket, clock) -> None:
        action = self.proto.process_rrep(pkt, sender)
        if action[0] == "forward":
            sim.unicast(node, action[2], encode_frame(action[1]))
        elif action[0] == "drop":
            self.harness.record_drop(node, action[1], clock, self.proto)
        elif action[0] == "accept":
            self.harness.on_route_installed(sim, node, action[1], clock)

    def handle_rep(self, sim, node, sender, pkt: RepPacket, clock) -> None:
        action = self.proto.handle_rep(pkt, sender)
        if action[0] == "forward":
            sim.unicast(node, action[2], encode_frame(pkt))
        elif action[0] == "drop":
            self.harness.record_drop(node, action[1], clock, self.proto)
        else:
            self.harness.on_rep_at_source(sim, node, action[1])

    # route upkeep: cloudlets with per-hop acks, route errors

    def send_cloudlet(self, sim, node: str, to: str, pkt: SessionFrame) -> None:
        """Unicast cloudlet `pkt` to `to` and wait for its ack."""
        cloudlet = (pkt.s_addr, pkt.s_seqno, pkt.d_addr, pkt.seq)
        sim.unicast(node, to, encode_frame(pkt))
        self.awaiting_ack.add(cloudlet)
        sim.set_timer(node, self.harness.config.ack_timeout, ("ack-wait", *cloudlet))

    def handle_session(self, sim, node, sender, pkt: SessionFrame, clock) -> None:
        if pkt.step not in (STEP_ACK, STEP_CLOUDLET):
            return
        # A cloudlet is taken only from this node's previous hop, and an ack
        # only from its next hop, on the route it holds for the round.
        hop = self.proto.hop_on_route(pkt.s_addr, pkt.s_seqno, pkt.d_addr, sender, pkt.step == STEP_CLOUDLET)
        if hop is None:
            sim.log_drop(node, srdp.NOT_ON_ROUTE)
            return
        if pkt.step == STEP_ACK:
            self.awaiting_ack.discard((pkt.s_addr, pkt.s_seqno, pkt.d_addr, pkt.seq))
            return
        nodes, pos = hop
        ack = SessionFrame(STEP_ACK, pkt.s_addr, pkt.s_seqno, pkt.d_addr, pkt.seq)
        sim.unicast(node, sender, encode_frame(ack))
        if pos == len(nodes) - 1:
            self.harness.cloudlet_delivered(pkt.seq)
        else:
            self.send_cloudlet(sim, node, nodes[pos + 1], pkt)

    def ack_timed_out(self, sim, node: str, cloudlet: Tuple[str, int, str, int], clock) -> None:
        """A wait for `cloudlet`'s ack ended.  If the ack never came and this
        node still holds the cloudlet's round, the link to its next hop is
        taken as broken: the source rediscovers, and any other hop forgets
        the round's route and sends its previous hop a route error for the
        source.  Forgetting it ends the hop's other waits for the round and
        drops the round's later cloudlets here, so a round breaks once."""
        if cloudlet not in self.awaiting_ack:
            return
        self.awaiting_ack.remove(cloudlet)
        s_addr, s_seqno, d_addr, _ = cloudlet
        info = self.proto.routes.get((s_addr, d_addr))
        if info is None or info.s_seqno != s_seqno:
            return  # a later round has replaced the route
        self.harness.events["link_break_detected"] = self.harness.events.get("link_break_detected", 0) + 1
        if node == s_addr:
            self.harness.on_rep_at_source(sim, node, d_addr)  # the source saw the break itself
            return
        del self.proto.routes[(s_addr, d_addr)]
        rep = self.proto.build_rep(info, srdp.LINK_BREAK)
        if rep is None:
            self.harness.record_drop(node, srdp.NO_PAIRWISE_KEY, clock, self.proto)
            return
        nodes = srdp.route_nodes(info)
        sim.unicast(node, nodes[nodes.index(node) - 1], encode_frame(rep))

    def on_timer(self, sim: Simulator, node: str, tag: Any, clock) -> None:
        if tag[0] == "finalize":
            try:
                rrep = self.proto.finalize_destination(tag[1])
            except NoValidCandidate:
                self.harness.events["no_valid_candidate"] = self.harness.events.get("no_valid_candidate", 0) + 1
                return
            if rrep is None:
                self.harness.record_drop(node, srdp.NO_PAIRWISE_KEY, clock, self.proto)
                return
            reply = self.proto.routes[(tag[1][0], node)]
            sim.unicast(node, srdp.route_nodes(reply)[-2], encode_frame(rrep))
        elif tag[0] == "ack-wait":
            self.ack_timed_out(sim, node, tag[1:], clock)


# -- adversaries -------------------------------------------------------


class AdversaryBehavior(ProtocolBehavior):
    """Lies in each round it relays, or replays its first RREQ; else honest.

    A tampering relay (path-insert, path-delete, path-modify,
    rreq-field-tamper, cost-deflate) tests a copy's round on its clear
    header before it opens anything, so a round it has already broadcast
    is a duplicate, and it lets a copy that comes straight from the source
    (empty path) go by unrelayed, waiting for one with a path to lie
    about.  It thus broadcasts each round at most once, with a lie."""

    def __init__(self, proto, harness, behavior: str, rng: random.Random):
        super().__init__(proto, harness)
        self.behavior = behavior
        self.rng = rng
        self.phantom = "ghost-%d" % rng.getrandbits(16)
        self.captured: Optional[bytes] = None  # the frame a replay adversary rebroadcasts

    def on_timer(self, sim: Simulator, node: str, tag: Any, clock) -> None:
        if tag[0] == "adversary-replay":
            sim.broadcast(node, self.captured)
        else:
            super().on_timer(sim, node, tag, clock)

    def handle_rreq(self, sim, node, sender, pkt: RreqPacket, clock) -> None:
        if self.behavior == "replay":
            if self.captured is None:
                # The tag stays free of wire bytes, so the trace never holds ciphertext.
                self.captured = encode_frame(pkt)
                sim.set_timer(node, 5, ("adversary-replay",))
        elif pkt.round_id() not in self.proto.seen_rounds:
            body = self.proto.open_request(pkt, sender)
            if body is not None and body.path:
                out = self._lie(body, sim.topo.link(sender, node))
                self.proto.seen_rounds.add(body.rreq.round_id())
                sim.broadcast(node, encode_frame(out), sender)
                return
            if body is not None and body.rreq.d_addr != node:
                return  # straight from the source: wait for a copy with a path
        super().handle_rreq(sim, node, sender, pkt, clock)

    def _lie(self, body: RreqBody, link) -> RreqPacket:
        proto = self.proto
        node = proto.node
        rreq, path = body.rreq, body.path
        new_path = path + (node,)
        h_new = hash_bytes(body.h)
        mac_prev = body.mac_curr
        totals = ecms.advance(body.totals, link.avl_bw, link.nw_delay, proto.weights, proto.literal_cost)
        if self.behavior == "cost-deflate":
            totals = totals._replace(path_cost=0.0)
        elif self.behavior == "path-insert":
            # Claim a phantom predecessor; its MAC cannot exist.
            new_path = path + (self.phantom, node)
            h_new = hash_bytes(h_new)
            mac_prev = bytes(self.rng.getrandbits(8) for _ in range(MAC_LEN))
        elif self.behavior == "path-modify":
            new_path = path[:-1] + (self.phantom, node)
        elif self.behavior == "path-delete":
            new_path = path[:-1] + (node,)  # the chain is now one step too long for the claim
        else:  # rreq-field-tamper
            rreq = replace(rreq, max_hops=rreq.max_hops ^ 1)
        return proto.relay_rreq(rreq, path_bytes(new_path), totals, mac_prev, h_new)


# -- harness -----------------------------------------------------------


def _check_endpoints(topo: Topology, source: str, dest: str) -> None:
    """Raise `ConfigError` unless `source` and `dest` are two distinct
    nodes of `topo`."""
    for n in (source, dest):
        if n not in topo.nodes:
            raise ConfigError("node %r not in topology" % n)
    if source == dest:  # a one-node path: no pairwise key, no links to rank
        raise ConfigError("source and destination are both %r" % source)


class Harness:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.topo = load_topology(config.topology_text)
        _check_endpoints(self.topo, config.source, config.dest)
        if config.adversary is not None:
            node, behavior = config.adversary
            if node not in self.topo.nodes:
                raise ConfigError("adversary node %r not in topology" % node)
            if behavior not in ADVERSARY_BEHAVIORS:
                raise ConfigError("unknown adversary behavior %r" % behavior)
        if not 0 <= config.collection_window < math.inf:  # also rejects NaN
            raise ConfigError("collection window %r ms is not a finite nonnegative number" % config.collection_window)
        if not 0 <= config.max_hops <= 255:
            raise ConfigError("max hops %r is outside 0..255" % config.max_hops)
        self.sim = Simulator(self.topo)
        self.stores = provision(self.topo, config.kdc_k, config.kdc_m, config.seed)[0]
        self.protos: Dict[str, srdp.SrdpNode] = {}
        self.detections: List[Dict[str, Any]] = []
        self.events: Dict[str, int] = {}
        self.routes_installed: List[Tuple[str, ...]] = []
        self.cloudlets_done: Set[int] = set()
        self.rediscoveries = 0
        self.next_cloudlet = 0
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
                mode=self.config.mode,
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
        if reason in srdp.DETECTION_REASONS:
            detail = proto.detections[-1][1] if proto.detections else ""
            self.detections.append({"t": clock, "node": node, "reason": reason, "detail": detail})

    def on_route_installed(self, sim, node: str, route: Tuple[str, ...], clock) -> None:
        self.routes_installed.append(route)
        if self.config.cloudlets and node == self.config.source:
            # Delivery is serial, so anything past the delivered prefix was
            # lost with the old route and gets resent.
            self.next_cloudlet = len(self.cloudlets_done)
            self._send_next_cloudlet(sim, node)

    def on_rep_at_source(self, sim, node: str, dest: str) -> None:
        self.protos[node].drop_route(dest)
        self.rediscoveries += 1
        self._discover(sim, node, dest)

    # the source's cloudlet workload

    def _send_next_cloudlet(self, sim, source: str) -> None:
        if self.next_cloudlet >= self.config.cloudlets:
            return
        info = self.protos[source].routes.get((source, self.config.dest))
        if info is None:
            return
        pkt = SessionFrame(STEP_CLOUDLET, source, info.s_seqno, info.d_addr, self.next_cloudlet)
        self.next_cloudlet += 1
        sim.behaviors[source].send_cloudlet(sim, source, srdp.route_nodes(info)[1], pkt)

    def cloudlet_delivered(self, seq: int) -> None:
        # The next cloudlet leaves the instant this one arrives, a signal no
        # frame carries: a stand-in for pacing by end-to-end acks.
        self.cloudlets_done.add(seq)
        self._send_next_cloudlet(self.sim, self.config.source)

    def _discover(self, sim, node: str, dest: str) -> None:
        pkt = self.protos[node].originate_rreq(dest)
        sim.broadcast(node, encode_frame(pkt))

    # -- run -----------------------------------------------------------

    def run(self) -> RunReport:
        cfg = self.config
        if cfg.link_break is not None:
            a, b, at = cfg.link_break
            self.sim.break_link(a, b, at)
        self._discover(self.sim, cfg.source, cfg.dest)
        self.sim.run_until()
        return self._report()

    def _report(self) -> RunReport:
        cfg = self.config
        src_proto = self.protos[cfg.source]
        route = src_proto.installed_routes.get(cfg.dest)
        path_cost = metrics = None
        if route is not None:
            w = ecms.weights_for_mode(cfg.mode, cfg.weights)
            t = ecms.aggregate(route, ecms.CostMatrices.from_topology(self.topo), w, cfg.literal_cost)
            path_cost, metrics = t.path_cost, {"hc": t.hop_count, "bw": t.bw, "nd": t.nd}
        counters = {n: dict(sorted(p.counters.items())) for n, p in sorted(self.protos.items()) if p.counters}
        return RunReport(
            config={
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
            trace_digest=self.sim.trace_digest(),
        )


def run_scenario(config: ScenarioConfig) -> RunReport:
    return Harness(config).run()


# -- oracle comparison -------------------------------------------------


def compare_oracle(topo: Topology, source: str, dest: str) -> Dict[str, Any]:
    """Run the protocol from `source` to `dest` once per mode, with default
    settings otherwise, and check the route it installs against the oracle.

    Each mode reports three full routes: `installed`, the one the source
    installed (None if none was); `best_delivered`, the best of the
    candidates the destination collected in the installed round; and
    `oracle`, the oracle's pick over every simple path.  The candidates are
    ranked by `oracle.oracle_key`, which shares no code with the
    protocol's own ranking.  A mode matches when the installed route is
    the best delivered one; `oracle_pick` says whether it is also the
    oracle's pick, which the first-copy flood need not deliver.  Raises
    `ConfigError` when an endpoint is not in `topo` or `source` is `dest`,
    as a run would, and `NoCandidates` when no path joins the endpoints.
    """
    _check_endpoints(topo, source, dest)
    text = topology_to_text(topo)
    results = {}
    for mode in ecms.Mode:
        w = ecms.weights_for_mode(mode, ScenarioConfig.weights)
        oracle_path = oraclelib.oracle_select(topo, source, dest, mode, w)[0]
        harness = Harness(ScenarioConfig(topology_text=text, source=source, dest=dest, mode=mode))
        harness.run()
        info = harness.protos[source].routes.get((source, dest))
        installed = best = None
        if info is not None:
            installed = srdp.route_nodes(info)
            state = harness.protos[dest].dest_rounds[(info.s_addr, info.s_seqno)]
            best = min(
                ((source, *c.path, dest) for c in state.candidates),
                key=lambda p: oraclelib.oracle_key(topo, p, mode, w, False),
            )
        results[mode.value] = {
            "match": installed is not None and installed == best,
            "oracle_pick": installed == oracle_path,
            "installed": list(installed) if installed else None,
            "best_delivered": list(best) if best else None,
            "oracle": list(oracle_path),
        }
    return {"all_match": all(r["match"] for r in results.values()), "modes": results}


# -- topology generation ----------------------------------------------


# A random link's bandwidth (Mb/s) and delay (ms): integers drawn uniformly.
LINK_BW_RANGE = (1, 100)
LINK_DELAY_RANGE = (1, 20)


def random_topology(seed: int, n: int = 8, edge_prob: float = 0.4) -> Topology:
    """Seeded connected random topology with integer-valued metrics.

    Nodes N0..N{n-1}: N0 is the broker, N{n-1} the coordinator (N0 when
    n is 1) and the rest relays.  Each attempt draws every pair i < j in
    order and links it when `rng.random() < edge_prob`, drawing its
    bandwidth and then its delay; an attempt whose links leave the nodes
    in more than one component is redrawn from the same generator, and
    only the first connected one is built.  Raises `ConfigError` for
    `n < 1`, and for `n >= 2` with an `edge_prob` that is not positive
    (or NaN), which no attempt could connect.
    """
    if n < 1:
        raise ConfigError("a topology needs at least one node, got n=%r" % n)
    if n > 1 and not edge_prob > 0:  # NaN fails the comparison too
        raise ConfigError("edge probability %r links no two nodes" % edge_prob)
    rng = random.Random(seed)
    draw = rng.random
    while True:
        links = []
        parent = list(range(n))  # union-find forest over node numbers
        components = n
        for i in range(n):
            for j in range(i + 1, n):
                if draw() < edge_prob:
                    bw = float(rng.randint(*LINK_BW_RANGE))
                    delay = float(rng.randint(*LINK_DELAY_RANGE))
                    links.append((i, j, bw, delay))
                    a, b = _root(parent, i), _root(parent, j)
                    if a != b:
                        parent[a] = b
                        components -= 1
        if components == 1:
            break
    topo = Topology()
    names = ["N%d" % i for i in range(n)]
    for i, name in enumerate(names):
        topo.add_node(name, "broker" if i == 0 else ("coordinator" if i == n - 1 else "relay"))
    for i, j, bw, delay in links:
        topo.add_link(names[i], names[j], bw, delay)
    return topo


def _root(parent: List[int], i: int) -> int:
    """`i`'s component root, halving the path to it on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def topology_to_text(topo: Topology) -> str:
    lines = []
    for n in sorted(topo.nodes):
        lines.append("node %s %s" % (n, topo.nodes[n]))
    for key in sorted(topo.links, key=lambda k: tuple(sorted(k))):
        a, b = sorted(key)
        link = topo.links[key]
        # 17 significant digits read back as the same float.
        lines.append("link %s %s %.17g %.17g" % (a, b, link.avl_bw, link.nw_delay))
    return "\n".join(lines) + "\n"
