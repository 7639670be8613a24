"""Key distribution: pooled broadcast-encryption keys, per-node rings,
pairwise keys, and revocation-aware secret broadcasts.

The KDC holds a pool of k keys.  Each node is publicly mapped to m pool
indices; its decryption secrets are the pool keys at those indices, and
its encryption secrets are per-node hashes of every pool key.  A node can
broadcast a secret readable by everyone except a revoked set by sealing
it under the encryption secrets whose indices no revoked node holds.
A ring derives each encryption secret the first time it is read, so a
node that never seals a broadcast never derives any.

The keys that are used many times are `crypto.Key`s, which keep their
prepared HMAC and AEAD state: the master seed (`setup` MACs every pool
key and the pairwise root under it, and `Kdc.issue` each node's master),
the pairwise root, and each ring's `rdn_group_key` and
`broadcast_secret`.  Pool keys, encryption secrets and the envelope keys
a receiver derives stay plain bytes: each seals or opens about once.

A node's index set is derived once per network: `index_set` keeps each
set it derives on the `KdcParams` instance, the one `setup` returns, and
`Kdc.issue` and `cover_indices` both read it from there.  The memo dies
with its network; a second `setup` starts an empty one.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from .crypto import Key, frame_parts, hash_bytes, mac, mac_framed, open_box, seal
from .errors import (
    AuthFailure,
    BadParams,
    DuplicateNode,
    EmptyCover,
    NoUsableIndex,
    SelfPair,
    TagMismatch,
)


@dataclass(frozen=True)
class KdcParams:
    k: int
    m: int
    master_seed: bytes
    # node -> its index set, derived on first read by `index_set`
    _index_sets: Dict[str, Tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class KeyPool:
    keys: Tuple[bytes, ...]  # K_1..K_k, index 1-based externally

    def key(self, index: int) -> bytes:
        if not 1 <= index <= len(self.keys):
            raise BadParams("pool index %d outside 1..%d" % (index, len(self.keys)))
        return self.keys[index - 1]


def envelope_key(pool_key: bytes, node: str) -> bytes:
    """`hash(K_j || node)`: `node`'s encryption secret at the index of pool
    key K_j, under which its broadcasts seal that index's envelope."""
    return hash_bytes(pool_key + node.encode())


@dataclass
class NodeKeyRing:
    """All secret material issued to one node."""

    node: str
    indices: List[int]
    decryption_secrets: List[bytes]  # pool keys at `indices`
    rdn_group_key: bytes  # shared with the node's one-hop neighborhood
    broadcast_secret: bytes  # confined from the one-hop neighborhood
    # j -> K_j, the issuing Kdc's pool lookup
    _pool_key: Callable[[int], bytes] = field(repr=False, compare=False)
    # envelope_key(K_j, node) for each j read so far; derived on first read
    _encryption: Dict[int, bytes] = field(default_factory=dict, init=False, repr=False, compare=False)

    def encryption_secret(self, index: int) -> bytes:
        secret = self._encryption.get(index)
        if secret is None:
            secret = self._encryption[index] = envelope_key(self._pool_key(index), self.node)
        return secret


@dataclass(frozen=True)
class BroadcastMessage:
    """Secret sealed for everyone outside the revoked set.

    The tag is a MAC, under the secret, over `tag_input`.  `tag_input` and
    `by_index` are derived from the fields on first use and kept on the
    instance, except that `build_broadcast` keeps the `tag_input` it
    framed for the tag; `dataclasses.replace` builds a new instance, so a
    changed copy derives its own.
    """

    revoked: FrozenSet[str]
    cover_indices: Tuple[int, ...]
    envelopes: Tuple[bytes, ...]
    tag: bytes

    @cached_property
    def tag_input(self) -> bytes:
        """The framed MAC input: a label, the sorted revoked ids, every envelope."""
        return _tag_input(self.revoked, self.envelopes)

    @cached_property
    def by_index(self) -> Dict[int, bytes]:
        """Cover index -> the envelope sealed under it."""
        return dict(zip(self.cover_indices, self.envelopes))


def _tag_input(revoked: FrozenSet[str], envelopes: Tuple[bytes, ...]) -> bytes:
    return frame_parts([b"broadcast-tag", *(n.encode() for n in sorted(revoked)), *envelopes])


class PairwiseKeyService:
    """Derives a shared secret for any unordered node pair."""

    def __init__(self, root: bytes):
        self._root = root

    def pairwise_key(self, a: str, b: str) -> bytes:
        if a == b:
            raise SelfPair("no pairwise key for a node with itself")
        lo, hi = sorted((a, b))
        return mac(self._root, [b"pairwise", lo.encode(), hi.encode()])


def setup(k: int, m: int, seed: bytes) -> Tuple[KdcParams, KeyPool, PairwiseKeyService]:
    """Derive the key pool and pairwise-key root deterministically from seed."""
    if k <= 0 or m < 1 or m >= k or k > 4096:
        raise BadParams("require 1 <= m < k <= 4096, got k=%d m=%d" % (k, m))
    params = KdcParams(k=k, m=m, master_seed=Key(seed))
    keys = tuple(
        mac(params.master_seed, [b"pool", i.to_bytes(4, "big")]) for i in range(1, k + 1)
    )
    svc = PairwiseKeyService(Key(mac(params.master_seed, [b"pairwise-root"])))
    return params, KeyPool(keys), svc


def index_set(params: KdcParams, node: str) -> List[int]:
    """Public mapping from node id to its m pool indices (1-based).

    Takes the first m distinct values of hash(node || counter) mod k.
    Needs no secrets, so any node can compute any other node's indices.
    Each node's set is hashed once per `params`; every call returns a
    fresh list.
    """
    known = params._index_sets.get(node)
    if known is not None:
        return list(known)
    if not node:
        raise BadParams("node id must be nonempty")
    out: List[int] = []
    seen = set()
    counter = 0
    while len(out) < params.m:
        h = hash_bytes(node.encode() + counter.to_bytes(4, "big"))
        idx = int.from_bytes(h[:8], "big") % params.k + 1
        if idx not in seen:
            seen.add(idx)
            out.append(idx)
        counter += 1
    params._index_sets[node] = tuple(out)
    return out


class Kdc:
    """Issues key rings; refuses to issue the same node twice."""

    def __init__(self, params: KdcParams, pool: KeyPool):
        self.params = params
        self.pool = pool
        self._issued: Dict[str, NodeKeyRing] = {}

    def issue(self, node: str) -> NodeKeyRing:
        if node in self._issued:
            raise DuplicateNode(node)
        params = self.params
        indices = index_set(params, node)
        node_master = mac(params.master_seed, [b"node", node.encode()])
        ring = NodeKeyRing(
            node=node,
            indices=indices,
            decryption_secrets=[self.pool.key(i) for i in indices],
            rdn_group_key=Key(mac(node_master, [b"rdn-group"])),
            broadcast_secret=Key(mac(node_master, [b"broadcast-secret"])),
            _pool_key=self.pool.key,
        )
        self._issued[node] = ring
        return ring


def cover_indices(params: KdcParams, revoked: Sequence[str]) -> List[int]:
    """All pool indices held by no revoked node."""
    held = set()
    for node in revoked:
        held.update(index_set(params, node))
    cover = [i for i in range(1, params.k + 1) if i not in held]
    if not cover:
        raise EmptyCover("revoked nodes jointly hold all %d indices" % params.k)
    return cover


def build_broadcast(
    ring: NodeKeyRing, secret: bytes, revoked: Sequence[str], params: KdcParams
) -> BroadcastMessage:
    """Seal `secret` once per cover index under the sender's encryption secrets."""
    cover = cover_indices(params, revoked)
    revoked_set = frozenset(revoked)
    envelopes = tuple(seal(ring.encryption_secret(i), secret) for i in cover)
    tag_input = _tag_input(revoked_set, envelopes)
    msg = BroadcastMessage(revoked_set, tuple(cover), envelopes, mac_framed(secret, tag_input))
    vars(msg)["tag_input"] = tag_input  # the cached property's value, framed once
    return msg


def open_broadcast(
    receiver: NodeKeyRing, msg: BroadcastMessage, sender: str, params: KdcParams
) -> bytes:
    """Recover the broadcast secret using any pool key the cover includes.

    The receiver opens its own envelope with `open_box`, then checks the
    tag, a MAC under the recovered secret over the full message (label,
    revoked ids, every envelope), before returning the secret.  The
    message's serialisation is computed once per message and shared by
    all its receivers; each receiver still computes the MAC itself.
    """
    by_index = msg.by_index
    usable = [i for i in receiver.indices if i in by_index]
    if not usable:
        raise NoUsableIndex(receiver.node)
    secret = None
    for i in usable:
        # Receiver reconstructs the sender's encryption secret from its own
        # pool key; a tampered envelope just fails authentication.
        k_pool = receiver.decryption_secrets[receiver.indices.index(i)]
        try:
            secret = open_box(envelope_key(k_pool, sender), by_index[i])
            break
        except AuthFailure:
            continue
    if secret is None:
        raise TagMismatch("no envelope authenticated")
    if not hmac.compare_digest(mac_framed(secret, msg.tag_input), msg.tag):
        raise TagMismatch("broadcast tag mismatch")
    return secret


def coverage_estimate(k: int, m: int, r: int, trials: int, seed: int) -> float:
    """Monte Carlo probability that a random non-revoked node can open a
    broadcast excluding r random revoked nodes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params, pool, _ = setup(k, m, b"\x00" * 32)
    rng = random.Random(seed)
    hits = 0
    for t in range(trials):
        revoked = ["rev-%d-%d" % (t, j) for j in range(r)]
        receiver = "rcv-%d-%d" % (rng.getrandbits(32), t)
        try:
            cover = set(cover_indices(params, revoked))
        except EmptyCover:
            continue
        if set(index_set(params, receiver)) & cover:
            hits += 1
    return hits / trials
