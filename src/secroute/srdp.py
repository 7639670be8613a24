"""Secure route discovery state machine.

Flooded route requests carry a per-hop hash chain (length proves hop
count to the destination) and a sliding window of two MACs: each relay
verifies the MAC laid down two hops upstream, strips it, and appends its
own, keyed by its broadcast secret so the next hop cannot forge it but
the hop after that can check it.  A hop MAC travels as the leftmost
`crypto.MAC_LEN` (16) bytes of its HMAC-SHA256 output, and a check
recomputes that tag and compares it in constant time.  Replies unicast
back along the chosen path under the same two-MAC discipline, keyed by
pairwise keys, with a reverse hash chain the source anchors in the
source-destination secret.

Every frame names its round as `(s_addr, s_seqno)`: the source and the
number of the discovery it started.  A request carries it in its clear
header, bound to the seal, so a relay drops a copy of a round it has
already forwarded, and the source a copy of a round it started, before
opening the seal.  No relay sends its copy back to the neighbour it came
from (`Simulator.broadcast`'s `came_from`), so no duplicate reaches a
node from a neighbour that first heard the round from it, and a pendant
relay, whose one neighbour is that one, builds no copy at all.  No frame
names its sender: a node opens a request or a reply under the group key
of the neighbour the link delivered it from.  A relay opens and checks
only its first copy of each round; a destination opens every copy.  Most
copies of a flood are duplicates, so one costs the header test and its
drop count, and `process_rreq` returns the shared `DUPLICATE_DROP` for
the caller to log as it stands.  The neighbours of one broadcast share
its decoded packet (`Simulator.decoded`) and the sender's one group key,
so the first of them to open a copy opens it for all (`frames.open_rreq`
remembers on the packet a body it opened; a failed open is repeated by
each), and the first to check its upstream MAC checks it for all who
hold the same two-hop secret object (`_verify_two_hop` remembers it on
the body).  Each receiver still fetches its own keys and takes its own
neighbour skip, so every drop and detection is the one it would reach
alone.  A forwarded copy is sealed from the bytes the relay opened (see
`frames`), with the sealed `cost.Totals` advanced over the link it
arrived on.  A candidate's totals are the sealed ones advanced over the
final link; their hop count is the sealed path's length, which the
destination checks against the hash chain, and the other fields are
taken as the last relay sealed them.  The destination anchors a round's
chain once, at its first collected copy, and keeps each chain value it
walks to (`RoundState.chain`) for the round's later copies of the same
request.  When its collection window closes, the destination answers the
candidate that ranks first under the run's selection mode
(`SrdpNode.mode`); this is the one place a route is chosen.

A route error (REP) names its round and its reporter, not a route, which
the reply sealed; its code is sealed with both bound (`frames.rep_aad`),
and the source opens it once, under its key with the reporter.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set, Tuple

from . import cost as ecms
from . import kdc
from .crypto import MAC_LEN, Key, chain, hash_bytes, mac, open_box, seal
from .errors import AuthFailure, EmptyCover, MalformedFrame, NoPairwiseKey, NoUsableIndex, NoValidCandidate
from .frames import (
    RepPacket,
    RreqBody,
    RreqImmutable,
    RreqPacket,
    RrepBody,
    RrepInfo,
    RrepPacket,
    extend_path_bytes,
    open_rreq,
    parent_path_bytes,
    path_bytes,
    rep_aad,
    rreq_plaintext,
    seal_rreq_plaintext,
)

# Drop reasons
DUPLICATE = "Duplicate"
HOP_LIMIT = "HopLimit"
TWO_HOP_AUTH_FAIL = "TwoHopAuthFail"
SEAL_OPEN_FAIL = "SealOpenFail"
HOP_COUNT_MISMATCH = "HopCountMismatch"  # never raised: a sealed path's length is its hop count
CHAIN_MISMATCH = "ChainMismatch"
NOT_ON_ROUTE = "NotOnRoute"
Q_CHAIN_MISMATCH = "QChainMismatch"
NO_PAIRWISE_KEY = "NoPairwiseKey"  # a reply or route names a node this one shares no key with
# Drops that are detections: evidence of tampering, not plain loss.
DETECTION_REASONS = frozenset((TWO_HOP_AUTH_FAIL, CHAIN_MISMATCH, Q_CHAIN_MISMATCH))
# `process_rreq`'s action for a copy of a round already forwarded, the
# flood's commonest outcome: one shared value, told apart by identity.
DUPLICATE_DROP = ("drop", DUPLICATE)
_DUPLICATE_KEY = "drop:" + DUPLICATE
# `process_rreq`'s action at a pendant relay, whose one provisioned
# neighbour is the one its copy came from: no link is left to forward on.
DEAD_END = ("dead-end",)

# The one route error (REP) code: a hop's cloudlet ack timed out.
LINK_BREAK = 1


class Provisioning:
    """What the KDC issued to one network, shared by its nodes' KeyStores.

    `neighbors` is each node's neighbour set as it was when the rings were
    issued.  A sender's two-hop broadcast revokes those neighbours; it is
    built when a receiver first asks for it and kept for all receivers.
    The stores of one network share one `crypto.Key` per key value
    (`shared_key`).
    """

    def __init__(
        self,
        params: kdc.KdcParams,
        svc: kdc.PairwiseKeyService,
        rings: Mapping[str, kdc.NodeKeyRing],
        neighbors: Mapping[str, FrozenSet[str]],
    ):
        self.params = params
        self.svc = svc
        self.rings = rings
        self.neighbors = neighbors
        self._broadcasts: Dict[str, Optional[kdc.BroadcastMessage]] = {}
        # key value -> this network's one Key of that value; see shared_key
        self._keys: Dict[bytes, Key] = {r.broadcast_secret: r.broadcast_secret for r in rings.values()}

    def shared_key(self, raw: bytes) -> Key:
        """This network's one `Key` equal to `raw`.  A sender's broadcast
        secret, which each receiver opens for itself, and a pairwise key,
        which each end derives, are then one object with one prepared
        state, built once per network: for a broadcast secret, the
        sender's own ring key."""
        key = self._keys.get(raw)
        if key is None:
            key = self._keys[raw] = Key(raw)
        return key

    def broadcast(self, sender: str) -> Optional[kdc.BroadcastMessage]:
        """`sender`'s two-hop broadcast, or None when its neighbours jointly
        hold every pool index (EmptyCover)."""
        if sender not in self._broadcasts:
            ring = self.rings[sender]
            try:
                msg = kdc.build_broadcast(
                    ring, ring.broadcast_secret, sorted(self.neighbors[sender]), self.params
                )
            except EmptyCover:
                msg = None
            self._broadcasts[sender] = msg
        return self._broadcasts[sender]


class KeyStore:
    """One node's view of the key material `provisioning` issued it.

    The one-hop keys and the neighbour set are read from the node's ring
    and neighbourhood as provisioned.  Two-hop secrets and pairwise keys
    are obtained the first time they are read, then kept: `twohop_secret`
    opens the sender's broadcast with this node's own ring, and
    `pairwise_key` derives only keys that have this node at one end.  Both
    return None for a missing key, which each protocol step makes a drop.
    Every key a KeyStore hands out is its network's `crypto.Key` of that
    value, so each keeps its prepared MAC and seal state for as long as
    the network does.
    """

    def __init__(self, node: str, provisioning: Provisioning):
        ring = provisioning.rings[node]
        self.node = node
        self.provisioning = provisioning
        self.group_key = ring.rdn_group_key  # own one-hop key, shared with the neighborhood
        self.broadcast_secret = ring.broadcast_secret  # own two-hop secret, confined from neighbors
        self.neighbor_ids = provisioning.neighbors[node]
        self._twohop: Dict[str, Optional[Key]] = {}
        self._pairwise: Dict[str, Key] = {}

    def neighbor_group_key(self, peer: str) -> Optional[bytes]:
        """`peer`'s one-hop group key if it is a neighbour, else None."""
        if peer in self.neighbor_ids:
            return self.provisioning.rings[peer].rdn_group_key
        return None

    def twohop_secret(self, sender: str) -> Optional[Key]:
        """`sender`'s broadcast secret; None for this node itself, for the
        sender's neighbours and for ids that were never provisioned."""
        if sender not in self._twohop:
            secret = self._open_twohop(sender)
            self._twohop[sender] = None if secret is None else self.provisioning.shared_key(secret)
        return self._twohop[sender]

    def _open_twohop(self, sender: str) -> Optional[bytes]:
        prov = self.provisioning
        if sender == self.node or sender not in prov.rings or self.node in prov.neighbors[sender]:
            return None
        msg = prov.broadcast(sender)
        if msg is not None:
            try:
                return kdc.open_broadcast(prov.rings[self.node], msg, sender, prov.params)
            except NoUsableIndex:
                pass
        return prov.rings[sender].broadcast_secret  # pairwise fallback delivery

    def pairwise_key(self, peer: str) -> Optional[Key]:
        key = self._pairwise.get(peer)
        if key is None and peer != self.node and peer in self.provisioning.rings:
            prov = self.provisioning
            key = self._pairwise[peer] = prov.shared_key(prov.svc.pairwise_key(self.node, peer))
        return key


class Candidate(NamedTuple):
    path: Tuple[str, ...]  # intermediate relays, source order
    totals: ecms.Totals  # over the whole path, the final link included


@dataclass
class RoundState:
    """A destination's collection of one round, made by its first copy
    that passes the checks."""

    rreq: RreqImmutable  # as that copy carried it
    chain: List[bytes]  # chain(h0, i) at index i, h0 the round's anchor; grown on demand
    candidates: List[Candidate] = field(default_factory=list)
    window_open: bool = True


def rreq_hop_mac(t_secret: bytes, rreq: RreqImmutable, path_section: bytes, h_next: bytes) -> bytes:
    """MAC a relay lays down for the node two hops downstream, as the
    `MAC_LEN`-byte tag that travels; `path_section` is `frames.path_bytes`
    of the path it claims."""
    return mac(t_secret, [rreq.to_bytes(), path_section, h_next])[:MAC_LEN]


def rrep_hop_mac(pair_key: bytes, rrep: RrepInfo, q_next: bytes) -> bytes:
    """A reply hop's MAC for the node two hops on, as the `MAC_LEN`-byte tag."""
    return mac(pair_key, [rrep.to_bytes(), q_next])[:MAC_LEN]


def route_nodes(info: RrepInfo) -> Tuple[str, ...]:
    """A route's nodes from source to destination; its reply and route
    errors traverse them in reverse."""
    return (info.s_addr, *info.route, info.d_addr)


class SrdpNode:
    """Protocol state for one node; transport is supplied by the caller.
    `routes` holds, per `(s_addr, d_addr)`, the reply of the latest round
    this node answered as destination, relayed, or installed as source.
    `weights` price each hop of a request this node relays or collects;
    `mode` is the run's selection mode, by which this node, as a
    destination, ranks the requests it collected (`cost.select_route`)."""

    def __init__(
        self,
        keys: KeyStore,
        weights: ecms.Weights = ecms.Weights(),
        max_hops: int = 16,
        literal_cost: bool = False,
        *,
        mode: ecms.Mode = ecms.Mode.HC_BW_ND,
    ):
        self.keys = keys
        self.node = keys.node
        self.weights = weights
        self.mode = mode
        self.max_hops = max_hops
        self.literal_cost = literal_cost
        self._seqno = 0  # rounds this node has started
        self.seen_rounds: Set[Tuple[str, int]] = set()
        self.dest_rounds: Dict[Tuple[str, int], RoundState] = {}
        self.routes: Dict[Tuple[str, str], RrepInfo] = {}
        self.counters: Dict[str, int] = {}
        self.detections: List[Tuple[str, str]] = []  # (reason, detail)

    @property
    def installed_routes(self) -> Dict[str, Tuple[str, ...]]:
        """dest -> full path of each route this node installed as source."""
        return {d: route_nodes(info) for (s, d), info in self.routes.items() if s == self.node}

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _drop(self, reason: str, detail: str = "") -> Tuple[str, str]:
        self._count("drop:" + reason)
        if reason in DETECTION_REASONS:
            self.detections.append((reason, detail))
        return ("drop", reason)

    # -- RREQ origination ---------------------------------------------

    def originate_rreq(self, dest: str) -> RreqPacket:
        k_sd = self.keys.pairwise_key(dest)
        if k_sd is None:
            raise NoPairwiseKey("%s has no key with %s" % (self.node, dest))
        self._seqno += 1
        rreq = RreqImmutable(s_addr=self.node, s_seqno=self._seqno, d_addr=dest, max_hops=self.max_hops)
        # Copies that come back, from neighbours that first heard the round
        # from another node, are duplicates, not requests for this node to relay.
        self.seen_rounds.add(rreq.round_id())
        self._count("rreq_originated")
        return self.relay_rreq(rreq, path_bytes(()), ecms.Totals(), None, mac(k_sd, [rreq.to_bytes()]))

    def open_request(self, frame: RreqPacket, sender: str) -> Optional[RreqBody]:
        """`frame`'s sealed body, or None unless `sender`, a neighbour,
        sealed a well-formed one under its group key, bound to the clear
        header."""
        key = self.keys.neighbor_group_key(sender)
        if key is None:
            return None
        try:
            return open_rreq(key, frame)
        except (AuthFailure, MalformedFrame):
            return None

    def open_reply(self, frame: RrepPacket, sender: str) -> Optional[RrepBody]:
        """`frame`'s sealed body, or None unless `sender`, a neighbour,
        sealed a well-formed one under its group key."""
        key = self.keys.neighbor_group_key(sender)
        if key is None:
            return None
        try:
            return RrepBody.from_bytes(open_box(key, frame.sealed))
        except (AuthFailure, MalformedFrame):
            return None

    # -- RREQ relay / destination -------------------------------------

    def _verify_two_hop(self, body: RreqBody) -> Optional[str]:
        """Check the MAC from two hops upstream; None means pass or skip.

        The verdict is remembered on `body` with the secret it was reached
        under, so that the other receivers of the transmission, which share
        the body (`frames.open_rreq`), check it once.  A receiver reuses it
        only under the same secret object; each fetches its own secret and
        takes the neighbour skip itself."""
        if body.mac_prev is None:
            if body.path:
                return "missing upstream MAC"
            return None  # direct from the source: nothing upstream to check
        two_up = body.path[-2] if len(body.path) >= 2 else body.rreq.s_addr
        t = self.keys.twohop_secret(two_up)
        if t is None:
            if two_up in self.keys.neighbor_ids or two_up == self.node:
                # A direct neighbor's broadcast secret is confined from us
                # by construction; structurally unverifiable, not hostile.
                return None
            return "no secret for claimed upstream %s" % two_up
        attrs = vars(body)
        checked = attrs.get("_upstream_checked")
        if checked is not None and checked[0] is t:
            ok = checked[1]
        else:
            expect = rreq_hop_mac(t, body.rreq, parent_path_bytes(body.path_section, body.path), body.h)
            ok = hmac.compare_digest(expect, body.mac_prev)
            attrs["_upstream_checked"] = (t, ok)
        if not ok:
            return "upstream MAC mismatch (claimed %s)" % two_up
        return None

    def process_rreq(self, frame: RreqPacket, sender: str, link_bw: float, link_delay: float):
        """Handle an RREQ the link from `sender` delivered.

        Returns ("forward", RreqPacket), ("drop", reason),
        ("collected", round_id, first_arrival) at the destination, or
        `DEAD_END` at a relay whose one provisioned neighbour is `sender`:
        split horizon leaves it no link to forward on, so it marks the
        round seen and builds no onward copy (no MAC, chain step or seal).

        A copy of a round this node has already forwarded is dropped on
        its clear header alone, before the seal is opened: the seal binds
        that header, so the round id read there is the one the body
        carries.  Such a copy costs the header test and its drop count,
        and returns `DUPLICATE_DROP` itself.  The source records its own
        round as seen when it starts it; a destination never does, so it
        collects every copy.
        """
        rid = (frame.s_addr, frame.s_seqno)
        if rid in self.seen_rounds:
            counters = self.counters  # _count, inlined for the commonest drop
            counters[_DUPLICATE_KEY] = counters.get(_DUPLICATE_KEY, 0) + 1
            return DUPLICATE_DROP
        body = self.open_request(frame, sender)
        if body is None:
            return self._drop(SEAL_OPEN_FAIL)
        rreq = body.rreq
        if rreq.d_addr == self.node:
            return self._collect_candidate(body, link_bw, link_delay)
        if len(body.path) >= rreq.max_hops:
            return self._drop(HOP_LIMIT)
        bad = self._verify_two_hop(body)
        if bad is not None:
            return self._drop(TWO_HOP_AUTH_FAIL, bad)
        self.seen_rounds.add(rid)
        if len(self.keys.neighbor_ids) == 1:  # the sender, as the open proved
            self._count("rreq_dead_end")
            return DEAD_END
        self._count("rreq_forwarded")
        out = self.relay_rreq(
            rreq,
            extend_path_bytes(body.path_section, self.node),
            ecms.advance(body.totals, link_bw, link_delay, self.weights, self.literal_cost),
            body.mac_curr,
            hash_bytes(body.h),
        )
        return ("forward", out)

    def relay_rreq(
        self, rreq: RreqImmutable, new_section: bytes, totals: ecms.Totals, mac_prev: Optional[bytes], h_new: bytes
    ) -> RreqPacket:
        """This node's copy of round `rreq`: a sealed body claiming the
        path whose `path_bytes` is `new_section`, `totals` and `h_new`, with
        `mac_prev` beside this node's own MAC.  The source passes the empty
        path, no MAC and the chain anchor; an honest relay, the arriving
        body's values advanced over its in-link; a tampering one, its lies.
        The plaintext is spliced from the bytes given, and sealed under the
        frame type and `rreq`'s round bytes; no body is built."""
        keys = self.keys
        m_self = rreq_hop_mac(keys.broadcast_secret, rreq, new_section, hash_bytes(h_new))
        plaintext = rreq_plaintext(rreq, new_section, mac_prev, m_self, h_new, totals)
        return seal_rreq_plaintext(keys.group_key, rreq, plaintext)

    def _collect_candidate(self, body: RreqBody, link_bw, link_delay):
        rreq = body.rreq
        rid = rreq.round_id()
        bad = self._verify_two_hop(body)
        if bad is not None:
            return self._drop(TWO_HOP_AUTH_FAIL, bad)
        # The round's anchor and chain, kept from its first collected copy,
        # serve every later copy of the same request bytes; a copy whose
        # immutable fields differ anchors its own chain, kept by no one.
        state = self.dest_rounds.get(rid)
        if state is not None and state.rreq.to_bytes() == rreq.to_bytes():
            hs = state.chain
        else:
            k_sd = self.keys.pairwise_key(rreq.s_addr)
            if k_sd is None:
                return self._drop(SEAL_OPEN_FAIL, "no source key")
            hs = [mac(k_sd, [rreq.to_bytes()])]
        hops = len(body.path)
        while len(hs) <= hops:
            hs.append(hash_bytes(hs[-1]))
        if not hmac.compare_digest(body.h, hs[hops]):
            return self._drop(CHAIN_MISMATCH, "h-chain length disagrees with hop count")
        if state is None:
            state = self.dest_rounds[rid] = RoundState(rreq, hs)
        if not state.window_open:
            return self._drop(DUPLICATE, "window closed")
        # Fold in the final link so the totals span the whole path; the hop
        # count folded is the path's length, checked against the chain.
        t = ecms.advance(body.totals, link_bw, link_delay, self.weights, self.literal_cost)
        first = not state.candidates
        state.candidates.append(Candidate(body.path, t))
        self._count("rreq_collected")
        return ("collected", rid, first)

    def finalize_destination(self, rid: Tuple[str, int]) -> Optional[RrepPacket]:
        """Close the collection window and answer the request that ranks
        first under `self.mode`.

        Returns None, and counts a NoPairwiseKey drop, if this node shares
        no key with the round's source or with the node two hops back on
        the chosen route."""
        state = self.dest_rounds.get(rid)
        if state is None or not state.candidates:
            raise NoValidCandidate(str(rid))
        state.window_open = False
        route = ecms.select_route(state.candidates, self.mode)
        rreq = state.rreq
        rrep = RrepInfo(s_addr=rreq.s_addr, s_seqno=rreq.s_seqno, d_addr=self.node, route=route)
        seq = route_nodes(rrep)[::-1]
        k_sd = self.keys.pairwise_key(rreq.s_addr)
        k_next = self.keys.pairwise_key(seq[2]) if len(seq) > 2 else None
        if k_sd is None or (len(seq) > 2 and k_next is None):
            self._drop(NO_PAIRWISE_KEY)
            return None
        self.routes[(rrep.s_addr, rrep.d_addr)] = rrep
        q0 = mac(k_sd, [rrep.to_bytes()])
        mac_curr = None if k_next is None else rrep_hop_mac(k_next, rrep, hash_bytes(q0))
        body = RrepBody(rrep, q0, None, mac_curr)
        self._count("rrep_originated")
        return RrepPacket(seal(self.keys.group_key, body.to_bytes()))

    # -- RREP relay / source acceptance -------------------------------

    def process_rrep(self, frame: RrepPacket, sender: str):
        """Handle an RREP the link from `sender` delivered.  Returns
        ("forward", RrepPacket, next_hop), ("accept", route), or a drop."""
        body = self.open_reply(frame, sender)
        if body is None:
            return self._drop(SEAL_OPEN_FAIL)
        rrep = body.rrep
        seq = route_nodes(rrep)[::-1]
        if self.node not in seq:
            return self._drop(NOT_ON_ROUTE)
        # The source takes a reply for its own round only as its end, so no
        # reply that names it again as a relay can replace its route.
        pos = len(seq) - 1 if rrep.s_addr == self.node else seq.index(self.node)
        if pos == 0 or seq[pos - 1] != sender:
            return self._drop(NOT_ON_ROUTE, "unexpected previous hop")
        bad = self._verify_rrep_mac(body, seq, pos)
        if bad is not None:
            return self._drop(TWO_HOP_AUTH_FAIL, bad)
        if pos == len(seq) - 1:
            return self._accept_rrep(body, seq)
        return self._relay_rrep(body, seq, pos)

    def _verify_rrep_mac(self, body: RrepBody, seq: Tuple[str, ...], pos: int) -> Optional[str]:
        if pos < 2:
            return "unexpected upstream MAC" if body.mac_prev is not None else None
        if body.mac_prev is None:
            return "missing upstream MAC"
        two_up = seq[pos - 2]
        key = self.keys.pairwise_key(two_up)
        if key is None:
            return "no pairwise key with %s" % two_up
        if not hmac.compare_digest(rrep_hop_mac(key, body.rrep, body.q), body.mac_prev):
            return "upstream MAC mismatch (claimed %s)" % two_up
        return None

    def _relay_rrep(self, body: RrepBody, seq: Tuple[str, ...], pos: int):
        q_new = hash_bytes(body.q)
        mac_curr = None
        if pos + 2 < len(seq):
            key = self.keys.pairwise_key(seq[pos + 2])
            if key is None:
                return self._drop(NO_PAIRWISE_KEY)
            mac_curr = rrep_hop_mac(key, body.rrep, hash_bytes(q_new))
        self.routes[(body.rrep.s_addr, body.rrep.d_addr)] = body.rrep
        new_body = RrepBody(body.rrep, q_new, body.mac_curr, mac_curr)
        self._count("rrep_forwarded")
        out = RrepPacket(seal(self.keys.group_key, new_body.to_bytes()))
        return ("forward", out, seq[pos + 1])

    def _accept_rrep(self, body: RrepBody, seq: Tuple[str, ...]):
        rrep = body.rrep
        k_sd = self.keys.pairwise_key(rrep.d_addr)
        if k_sd is None:
            return self._drop(NO_PAIRWISE_KEY)
        q0 = mac(k_sd, [rrep.to_bytes()])
        if not hmac.compare_digest(body.q, chain(q0, len(rrep.route))):
            return self._drop(Q_CHAIN_MISMATCH)
        full = route_nodes(rrep)
        self.routes[(rrep.s_addr, rrep.d_addr)] = rrep
        self._count("route_installed")
        return ("accept", full)

    # -- route upkeep: cloudlets, acks and route errors -----------------

    def hop_on_route(self, s_addr: str, s_seqno: int, d_addr: str, sender: str, from_source: bool):
        """`(route_nodes, this node's index)` of the route held for round
        `(s_addr, s_seqno)` to `d_addr`; None unless `sender` is this node's
        previous hop there if `from_source`, else its next hop."""
        info = self.routes.get((s_addr, d_addr))
        if info is None or info.s_seqno != s_seqno:
            return None
        nodes = route_nodes(info)
        pos = nodes.index(self.node)
        peer = pos - 1 if from_source else pos + 1
        if not 0 <= peer < len(nodes) or nodes[peer] != sender:
            return None
        return nodes, pos

    def build_rep(self, rrep: RrepInfo, code: int) -> Optional[RepPacket]:
        """Route error raised by this node, which names itself as the
        reporter, for the round `rrep` names, or None, and a NoPairwiseKey
        drop, if it shares no key with the round's source.  The code is
        sealed bound to the round and the reporter, so its box answers for
        this round only."""
        key = self.keys.pairwise_key(rrep.s_addr)
        if key is None:
            self._drop(NO_PAIRWISE_KEY)
            return None
        aad = rep_aad(rrep.s_addr, rrep.s_seqno, rrep.d_addr, self.node)
        return RepPacket(rrep.s_addr, rrep.s_seqno, rrep.d_addr, seal(key, bytes([code]), aad), self.node)

    def handle_rep(self, rep: RepPacket, sender: str):
        """A route error from `sender`, taken only for a round this node
        holds a route for and from its next hop there.  Its reporter need
        not be on this node's route: only the source's next hop can bring
        one, and that hop could break the route by withholding acks anyway.
        Returns ("forward", rep, next_hop) at a relay, ("accept", d_addr)
        at the source, which opens the code under its key with the reporter,
        bound to the round and reporter the REP names, and accepts only
        LINK_BREAK, or a drop."""
        hop = self.hop_on_route(rep.s_addr, rep.s_seqno, rep.d_addr, sender, from_source=False)
        if hop is None:
            return self._drop(NOT_ON_ROUTE)
        nodes, pos = hop
        if pos:
            return ("forward", rep, nodes[pos - 1])
        key = self.keys.pairwise_key(rep.reporter)
        aad = rep_aad(rep.s_addr, rep.s_seqno, rep.d_addr, rep.reporter)
        try:
            code = None if key is None else open_box(key, rep.sealed_code, aad)
        except AuthFailure:
            code = None
        if code != bytes([LINK_BREAK]):
            return self._drop(SEAL_OPEN_FAIL)
        self._count("rep_accepted")
        return ("accept", rep.d_addr)

    def drop_route(self, d_addr: str) -> None:
        """Forget the route this node installed to `d_addr`."""
        self.routes.pop((self.node, d_addr), None)
