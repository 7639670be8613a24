"""Key distribution: pooled broadcast-encryption keys, per-node rings,
pairwise keys, and revocation-aware secret broadcasts.

The KDC holds a pool of k keys.  Each node is publicly mapped to m pool
indices; its decryption secrets are the pool keys at those indices, and
its encryption secrets are per-node hashes of every pool key.  A node can
broadcast a secret readable by everyone except a revoked set by sealing
it under the encryption secrets whose indices no revoked node holds.

`build_broadcast` computes the cover at once and seals nothing: the
message it returns seals cover index j's envelope the first time it is
read, once per message, deriving the sender's encryption secret at j as
it seals, and derives its full `envelopes`, `tag_input` and `tag` only
when one of them is first read.  `open_broadcast` reads only the
receiver's usable envelopes, in its index order, and the tag only when
it needs to check it, so a scenario whose receivers are honest seals
only the envelopes they open and never MACs a tag.  Nothing keeps an
encryption secret, and nothing a message seals outlives the message.

The keys that are used many times are `crypto.Key`s, which keep their
prepared HMAC and AEAD state: the master seed (`setup` MACs every pool
key and the pairwise root under it, and `Kdc.issue` each node's master),
the pairwise root, and each ring's `rdn_group_key` and
`broadcast_secret`.  Pool keys, encryption secrets and the envelope keys
a receiver derives stay plain bytes: each seals or opens about once.

A broadcast's tag is checked once per message and secret: the message
records the secret its tag verified under (`build_broadcast` records the
sender's, which the tag is by construction), and `open_broadcast` reads
and MACs the tag only for a secret it has not seen verify.  A
`dataclasses.replace` copy records nothing.

A node's index set is derived once per network: `index_set` keeps each
set it derives on the `KdcParams` instance, the one `setup` returns, and
`Kdc.issue` and `cover_indices` both read it from there.  The memo dies
with its network; a second `setup` starts an empty one.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

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

    def encryption_secret(self, index: int) -> bytes:
        """`envelope_key(K_index, node)`, derived on every call."""
        return envelope_key(self._pool_key(index), self.node)


@dataclass(frozen=True)
class BroadcastMessage:
    """Secret sealed for everyone outside the revoked set.

    `envelopes[p]` is the secret sealed under cover index
    `cover_indices[p]`, and the tag is a MAC, under the secret, over
    `tag_input`.  A message built by the constructor, a
    `dataclasses.replace` copy included, holds the envelopes and tag it
    was given.  One that `build_broadcast` returns holds neither yet:
    `envelope(j)` seals index j's envelope on its first read, and
    `envelopes` and `tag` are derived, then kept, on theirs (`==`,
    `hash`, `repr` and `replace` read both).  `tag_input` is derived from
    the fields on first read and kept.
    """

    revoked: FrozenSet[str]
    cover_indices: Tuple[int, ...]
    envelopes: Tuple[bytes, ...]
    tag: bytes

    # Unannotated, so not fields: a constructed message, a
    # `dataclasses.replace` copy included, starts with the class's None.
    # The secret `tag` last verified under, set in the instance's own
    # `vars` by `build_broadcast` and `open_broadcast`; on a built
    # message also the secret its envelopes are sealed with, which
    # `open_broadcast` replaces only after reading the tag, and so every
    # envelope.
    _tag_secret = None
    # The sender's ring, set by `build_broadcast`: the envelopes not yet
    # read are sealed under its encryption secrets.
    _sender = None

    def __post_init__(self) -> None:
        if len(self.cover_indices) != len(self.envelopes):
            raise BadParams(
                "%d cover indices but %d envelopes" % (len(self.cover_indices), len(self.envelopes))
            )

    def __getattr__(self, name: str):
        # Reached only for a name neither the instance nor its class
        # holds: on a built message, `envelopes` and `tag` until first read.
        if name == "envelopes":
            value = tuple(map(self.envelope, self.cover_indices))
        elif name == "tag":
            value = mac_framed(self._tag_secret, self.tag_input)
        else:
            raise AttributeError(name)
        vars(self)[name] = value
        return value

    def envelope(self, index: int) -> bytes:
        """The envelope sealed under cover index `index`; KeyError if the
        cover omits it.  A built message seals it here on first read."""
        envelope = self._by_index[index]
        if envelope is None:
            envelope = seal(self._sender.encryption_secret(index), self._tag_secret)
            self._by_index[index] = envelope
        return envelope

    @cached_property
    def tag_input(self) -> bytes:
        """The framed MAC input: a label, the sorted revoked ids, every envelope."""
        return _tag_input(self.revoked, self.envelopes)

    @cached_property
    def _by_index(self) -> Dict[int, Optional[bytes]]:
        """Cover index -> its envelope, or None on a built message until
        that envelope is first read."""
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

    Takes the first m distinct values of hash(node || counter) mod k, for
    a 4-byte big-endian counter from 0.  Needs no secrets, so any node can
    compute any other node's indices.  Each node's set is hashed once per
    `params`, every counter from one SHA-256 state that has hashed the
    node id; every call returns a fresh list.
    """
    known = params._index_sets.get(node)
    if known is not None:
        return list(known)
    if not node:
        raise BadParams("node id must be nonempty")
    prefix = hashlib.sha256(node.encode())
    out: List[int] = []
    seen = set()
    counter = 0
    while len(out) < params.m:
        h = prefix.copy()
        h.update(counter.to_bytes(4, "big"))
        idx = int.from_bytes(h.digest()[:8], "big") % params.k + 1
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
    """`secret` for everyone outside `revoked`, sealed once per cover index
    j under the sender's encryption secret there, `envelope_key(K_j,
    sender)`.  Raises EmptyCover at once; each envelope is sealed, and the
    tag MACed, on its first read (see `BroadcastMessage`)."""
    cover = cover_indices(params, revoked)
    msg = object.__new__(BroadcastMessage)  # no envelopes or tag until read
    vars(msg).update(
        revoked=frozenset(revoked),
        cover_indices=tuple(cover),
        _sender=ring,
        _tag_secret=secret,  # the tag is this secret's MAC by construction
        _by_index=dict.fromkeys(cover),
    )
    return msg


def open_broadcast(
    receiver: NodeKeyRing, msg: BroadcastMessage, sender: str, params: KdcParams
) -> bytes:
    """Recover the broadcast secret using any pool key the cover includes.

    The receiver opens its own envelope with `open_box`, trying its
    usable indices in its own order and reading no other envelope, then
    checks the tag, a MAC under the recovered secret over the full
    message (label, revoked ids, every envelope), before returning the
    secret.  The message's serialisation is computed once per message and
    shared by all its receivers, and so is the tag check: a receiver
    whose secret equals (by `hmac.compare_digest`) the one the message
    last verified under, the sender's own when `build_broadcast` made it,
    reads no tag and skips the MAC.  Any other secret is MAC-checked and,
    if the tag verifies, recorded on the message in its place.
    """
    cover = msg._by_index
    usable = [i for i in receiver.indices if i in cover]
    if not usable:
        raise NoUsableIndex(receiver.node)
    secret = None
    for i in usable:
        # Receiver reconstructs the sender's encryption secret from its own
        # pool key; a tampered envelope just fails authentication.
        k_pool = receiver.decryption_secrets[receiver.indices.index(i)]
        try:
            secret = open_box(envelope_key(k_pool, sender), msg.envelope(i))
            break
        except AuthFailure:
            continue
    if secret is None:
        raise TagMismatch("no envelope authenticated")
    verified = msg._tag_secret
    if verified is None or not hmac.compare_digest(secret, verified):
        if not hmac.compare_digest(mac_framed(secret, msg.tag_input), msg.tag):
            raise TagMismatch("broadcast tag mismatch")
        vars(msg)["_tag_secret"] = secret
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
