"""Secure route discovery state machine.

Flooded route requests carry a per-hop hash chain (length proves hop
count to the destination) and a sliding window of two MACs: each relay
verifies the MAC laid down two hops upstream, strips it, and appends its
own, keyed by its broadcast secret so the next hop cannot forge it but
the hop after that can check it.  Replies unicast back along the chosen
path under the same two-MAC discipline, keyed by pairwise keys, with a
reverse hash chain the source anchors in the source-destination secret.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import cost as ecms
from .crypto import chain, hash_bytes, mac, open_box, seal
from .errors import AuthFailure, NoPairwiseKey, NoValidCandidate
from .frames import (
    RepPacket,
    RreqBody,
    RreqImmutable,
    RreqMutable,
    RreqPacket,
    RrepBody,
    RrepInfo,
    RrepPacket,
    _path_bytes,
)

# Drop reasons
DUPLICATE = "Duplicate"
HOP_LIMIT = "HopLimit"
TWO_HOP_AUTH_FAIL = "TwoHopAuthFail"
SEAL_OPEN_FAIL = "SealOpenFail"
HOP_COUNT_MISMATCH = "HopCountMismatch"
CHAIN_MISMATCH = "ChainMismatch"
NOT_ON_ROUTE = "NotOnRoute"
Q_CHAIN_MISMATCH = "QChainMismatch"

LINK_BREAK = ecms.LINK_BREAK
BDP_DEGRADE = ecms.BDP_DEGRADE


@dataclass
class KeyStore:
    """One node's view of the key material it was provisioned."""

    node: str
    group_key: bytes  # own one-hop key, shared with the neighborhood
    broadcast_secret: bytes  # own two-hop secret, confined from neighbors
    neighbor_group_keys: Dict[str, bytes] = field(default_factory=dict)
    neighbor_ids: Set[str] = field(default_factory=set)
    twohop_secrets: Dict[str, bytes] = field(default_factory=dict)  # T of distant nodes
    pairwise: Dict[str, bytes] = field(default_factory=dict)  # peer -> shared key

    def pairwise_key(self, peer: str) -> bytes:
        if peer not in self.pairwise:
            raise NoPairwiseKey("%s has no key with %s" % (self.node, peer))
        return self.pairwise[peer]


@dataclass
class Candidate:
    path: Tuple[str, ...]  # intermediate relays, source order
    path_cost: float
    metrics: ecms.PathMetrics
    arrived_from: str
    h: bytes = b""  # chain value the request carried on arrival


@dataclass
class RoundState:
    candidates: List[Candidate] = field(default_factory=list)
    window_open: bool = True
    rreq: Optional[RreqImmutable] = None


def rreq_hop_mac(t_secret: bytes, rreq: RreqImmutable, path: Sequence[str], h_next: bytes) -> bytes:
    """MAC a relay lays down for the node two hops downstream."""
    return mac(t_secret, [rreq.to_bytes(), _path_bytes(tuple(path)), h_next])


def rrep_hop_mac(pair_key: bytes, rrep: RrepInfo, q_next: bytes) -> bytes:
    return mac(pair_key, [rrep.to_bytes(), q_next])


def reverse_sequence(rrep: RrepInfo) -> List[str]:
    """Node order the reply traverses: destination, relays reversed, source."""
    return [rrep.d_addr] + list(reversed(rrep.route)) + [rrep.s_addr]


class SrdpNode:
    """Protocol state for one node; transport is supplied by the caller."""

    def __init__(
        self,
        keys: KeyStore,
        weights: ecms.Weights = ecms.Weights(),
        max_hops: int = 16,
        literal_cost: bool = False,
    ):
        self.keys = keys
        self.node = keys.node
        self.weights = weights
        self.max_hops = max_hops
        self.literal_cost = literal_cost
        self._seqno = 0
        self._b_id = 0
        self.seen_rounds: Set[Tuple[str, int, int]] = set()
        self.dest_rounds: Dict[Tuple[str, int, int], RoundState] = {}
        self.installed_routes: Dict[str, Tuple[str, ...]] = {}  # dest -> full path
        self.counters: Dict[str, int] = {}
        self.detections: List[Tuple[str, str]] = []  # (reason, detail)
        self.accepted_rreps: List[Tuple[RrepInfo, bytes]] = []  # (reply, carried q)

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _drop(self, reason: str, detail: str = "") -> Tuple[str, str]:
        self._count("drop:" + reason)
        if reason in (TWO_HOP_AUTH_FAIL, CHAIN_MISMATCH, Q_CHAIN_MISMATCH):
            self.detections.append((reason, detail))
        return ("drop", reason)

    # -- RREQ origination ---------------------------------------------

    def originate_rreq(self, dest: str, d_seqno: int = 0) -> RreqPacket:
        k_sd = self.keys.pairwise_key(dest)
        self._seqno += 1
        self._b_id += 1
        rreq = RreqImmutable(
            s_addr=self.node,
            s_seqno=self._seqno,
            b_id=self._b_id,
            d_addr=dest,
            d_seqno=d_seqno,
            max_hops=self.max_hops,
        )
        h0 = mac(k_sd, [rreq.to_bytes()])
        m0 = rreq_hop_mac(self.keys.broadcast_secret, rreq, (), hash_bytes(h0))
        body = RreqBody(rreq, (), None, m0, h0)
        self._count("rreq_originated")
        return RreqPacket(
            sender_addr=self.node,
            sender_seqno=self._seqno,
            b_id=self._b_id,
            mutable=RreqMutable(),
            sealed=seal(self.keys.group_key, body.to_bytes()),
        )

    # -- RREQ relay / destination -------------------------------------

    def _open_rreq(self, frame: RreqPacket):
        key = self.keys.neighbor_group_keys.get(frame.sender_addr)
        if key is None:
            return None
        try:
            return RreqBody.from_bytes(open_box(key, frame.sealed))
        except (AuthFailure, Exception):
            return None

    def _verify_two_hop(self, body: RreqBody) -> Optional[str]:
        """Check the MAC from two hops upstream; None means pass or skip."""
        if body.mac_prev is None:
            if body.path:
                return "missing upstream MAC"
            return None  # direct from the source: nothing upstream to check
        two_up = body.path[-2] if len(body.path) >= 2 else body.rreq.s_addr
        t = self.keys.twohop_secrets.get(two_up)
        if t is None:
            if two_up in self.keys.neighbor_ids or two_up == self.node:
                # A direct neighbor's broadcast secret is confined from us
                # by construction; structurally unverifiable, not hostile.
                return None
            return "no secret for claimed upstream %s" % two_up
        expect = rreq_hop_mac(t, body.rreq, body.path[:-1], body.h)
        if expect != body.mac_prev:
            return "upstream MAC mismatch (claimed %s)" % two_up
        return None

    def process_rreq(self, frame: RreqPacket, link_bw: float, link_delay: float):
        """Handle a delivered RREQ.

        Returns ("forward", RreqPacket), ("drop", reason), or
        ("collected", round_id, first_arrival) at the destination.
        """
        body = self._open_rreq(frame)
        if body is None:
            return self._drop(SEAL_OPEN_FAIL)
        rreq = body.rreq
        if frame.mutable.hop_count != len(body.path):
            return self._drop(HOP_COUNT_MISMATCH)
        if rreq.d_addr == self.node:
            return self._collect_candidate(frame, body, link_bw, link_delay)
        rid = rreq.round_id()
        if rid in self.seen_rounds:
            return self._drop(DUPLICATE)
        if frame.mutable.hop_count >= rreq.max_hops:
            return self._drop(HOP_LIMIT)
        bad = self._verify_two_hop(body)
        if bad is not None:
            return self._drop(TWO_HOP_AUTH_FAIL, bad)
        self.seen_rounds.add(rid)
        return ("forward", self._forward_rreq(frame, body, link_bw, link_delay))

    def _forward_rreq(self, frame: RreqPacket, body: RreqBody, link_bw, link_delay) -> RreqPacket:
        new_path = body.path + (self.node,)
        h_new = hash_bytes(body.h)
        m_self = rreq_hop_mac(self.keys.broadcast_secret, body.rreq, new_path, hash_bytes(h_new))
        new_body = RreqBody(body.rreq, new_path, body.mac_curr, m_self, h_new)
        mut = frame.mutable
        new_mut = RreqMutable(
            hop_count=mut.hop_count + 1,
            path_cost=ecms.path_cost_step(
                mut.path_cost, link_bw, link_delay, self.weights, self.literal_cost
            ),
            hc=mut.hc + 1,
            bw=link_bw if mut.hc == 0 else min(mut.bw, link_bw),
            nd=mut.nd + link_delay,
        )
        self._seqno += 1
        self._count("rreq_forwarded")
        return RreqPacket(
            sender_addr=self.node,
            sender_seqno=self._seqno,
            b_id=frame.b_id,
            mutable=new_mut,
            sealed=seal(self.keys.group_key, new_body.to_bytes()),
        )

    def _collect_candidate(self, frame: RreqPacket, body: RreqBody, link_bw, link_delay):
        rreq = body.rreq
        rid = rreq.round_id()
        bad = self._verify_two_hop(body)
        if bad is not None:
            return self._drop(TWO_HOP_AUTH_FAIL, bad)
        try:
            k_sd = self.keys.pairwise_key(rreq.s_addr)
        except NoPairwiseKey:
            return self._drop(SEAL_OPEN_FAIL, "no source key")
        h0 = mac(k_sd, [rreq.to_bytes()])
        if body.h != chain(h0, frame.mutable.hop_count):
            return self._drop(CHAIN_MISMATCH, "h-chain length disagrees with hop count")
        state = self.dest_rounds.setdefault(rid, RoundState(rreq=rreq))
        if not state.window_open:
            return self._drop(DUPLICATE, "window closed")
        mut = frame.mutable
        # Fold in the final link so cost and metrics span the whole path.
        final_cost = ecms.path_cost_step(mut.path_cost, link_bw, link_delay, self.weights, self.literal_cost)
        metrics = ecms.PathMetrics(
            hc=mut.hc + 1,
            bw=link_bw if mut.hc == 0 else min(mut.bw, link_bw),
            nd=mut.nd + link_delay,
        )
        first = not state.candidates
        state.candidates.append(Candidate(body.path, final_cost, metrics, frame.sender_addr, body.h))
        self._count("rreq_collected")
        return ("collected", rid, first)

    def finalize_destination(self, rid: Tuple[str, int, int]) -> RrepPacket:
        """Close the collection window and answer the best surviving request."""
        state = self.dest_rounds.get(rid)
        if state is None or not state.candidates:
            raise NoValidCandidate(str(rid))
        state.window_open = False
        best = min(
            state.candidates,
            key=lambda c: ecms.selection_key(
                (c.path, c.path_cost, c.metrics), ecms.Mode.HC_BW_ND
            ),
        )
        rreq = state.rreq
        rrep = RrepInfo(
            s_addr=rreq.s_addr,
            s_seqno=rreq.s_seqno,
            d_addr=self.node,
            d_seqno=rreq.d_seqno,
            route=best.path,
        )
        k_sd = self.keys.pairwise_key(rreq.s_addr)
        q0 = mac(k_sd, [rrep.to_bytes()])
        seq = reverse_sequence(rrep)
        mac_curr = None
        if len(seq) > 2:
            mac_curr = rrep_hop_mac(self.keys.pairwise_key(seq[2]), rrep, hash_bytes(q0))
        body = RrepBody(rrep, q0, None, mac_curr)
        self._seqno += 1
        self._count("rrep_originated")
        return RrepPacket(self.node, self._seqno, seal(self.keys.group_key, body.to_bytes()))

    # -- RREP relay / source acceptance -------------------------------

    def _open_rrep(self, frame: RrepPacket):
        key = self.keys.neighbor_group_keys.get(frame.sender_addr)
        if key is None:
            return None
        try:
            return RrepBody.from_bytes(open_box(key, frame.sealed))
        except (AuthFailure, Exception):
            return None

    def process_rrep(self, frame: RrepPacket):
        """Returns ("forward", RrepPacket, next_hop), ("accept", route), or a drop."""
        body = self._open_rrep(frame)
        if body is None:
            return self._drop(SEAL_OPEN_FAIL)
        rrep = body.rrep
        seq = reverse_sequence(rrep)
        if self.node not in seq:
            return self._drop(NOT_ON_ROUTE)
        pos = seq.index(self.node)
        if pos == 0 or seq[pos - 1] != frame.sender_addr:
            return self._drop(NOT_ON_ROUTE, "unexpected previous hop")
        bad = self._verify_rrep_mac(body, seq, pos)
        if bad is not None:
            return self._drop(TWO_HOP_AUTH_FAIL, bad)
        if pos == len(seq) - 1:
            return self._accept_rrep(body, seq)
        return self._relay_rrep(body, seq, pos)

    def _verify_rrep_mac(self, body: RrepBody, seq: List[str], pos: int) -> Optional[str]:
        if pos < 2:
            return "unexpected upstream MAC" if body.mac_prev is not None else None
        if body.mac_prev is None:
            return "missing upstream MAC"
        two_up = seq[pos - 2]
        try:
            key = self.keys.pairwise_key(two_up)
        except NoPairwiseKey:
            return "no pairwise key with %s" % two_up
        if rrep_hop_mac(key, body.rrep, body.q) != body.mac_prev:
            return "upstream MAC mismatch (claimed %s)" % two_up
        return None

    def _relay_rrep(self, body: RrepBody, seq: List[str], pos: int):
        q_new = hash_bytes(body.q)
        mac_curr = None
        if pos + 2 < len(seq):
            key = self.keys.pairwise_key(seq[pos + 2])
            mac_curr = rrep_hop_mac(key, body.rrep, hash_bytes(q_new))
        new_body = RrepBody(body.rrep, q_new, body.mac_curr, mac_curr)
        self._seqno += 1
        self._count("rrep_forwarded")
        out = RrepPacket(self.node, self._seqno, seal(self.keys.group_key, new_body.to_bytes()))
        return ("forward", out, seq[pos + 1])

    def _accept_rrep(self, body: RrepBody, seq: List[str]):
        rrep = body.rrep
        k_sd = self.keys.pairwise_key(rrep.d_addr)
        q0 = mac(k_sd, [rrep.to_bytes()])
        if body.q != chain(q0, len(rrep.route)):
            return self._drop(Q_CHAIN_MISMATCH)
        full = (rrep.s_addr,) + rrep.route + (rrep.d_addr,)
        self.installed_routes[rrep.d_addr] = full
        self.accepted_rreps.append((rrep, body.q))
        self._count("route_installed")
        return ("accept", full)

    # -- route error packets ------------------------------------------

    def build_rep(self, rrep: RrepInfo, code: int) -> RepPacket:
        """Route error raised by this node for an installed route."""
        key = self.keys.pairwise_key(rrep.s_addr)
        return RepPacket(
            s_addr=rrep.s_addr,
            s_seqno=rrep.s_seqno,
            d_addr=rrep.d_addr,
            d_seqno=rrep.d_seqno,
            sealed_code=seal(key, bytes([code])),
            route=rrep.route,
        )

    def handle_rep(self, rep: RepPacket) -> Optional[int]:
        """Source-side: authenticate a route error; returns the code or None.

        The sealing key is the reporter's pairwise key with us, and the
        reporter is some node on the route (or the destination), so every
        plausible key is tried; an unauthentic REP is discarded.
        """
        for peer in tuple(rep.route) + (rep.d_addr,):
            try:
                key = self.keys.pairwise_key(peer)
            except NoPairwiseKey:
                continue
            try:
                code = open_box(key, rep.sealed_code)
            except AuthFailure:
                continue
            if len(code) == 1 and code[0] in (LINK_BREAK, BDP_DEGRADE):
                self._count("rep_accepted")
                self.installed_routes.pop(rep.d_addr, None)
                return code[0]
        self._count("rep_discarded")
        return None
