import dataclasses
import hashlib
import math
import random
import types
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secroute import crypto, kdc
from secroute.errors import (
    BadParams,
    DuplicateNode,
    EmptyCover,
    NoUsableIndex,
    SelfPair,
    TagMismatch,
)

SEED = b"\x42" * 32


@pytest.fixture
def small_kdc():
    params, pool, svc = kdc.setup(64, 8, SEED)
    return params, pool, svc, kdc.Kdc(params, pool)


def test_setup_deterministic():
    a = kdc.setup(64, 8, SEED)
    b = kdc.setup(64, 8, SEED)
    assert a[1].keys == b[1].keys


def test_setup_rejects_bad_params():
    with pytest.raises(BadParams):
        kdc.setup(2, 2, SEED)
    with pytest.raises(BadParams):
        kdc.setup(0, 1, SEED)


@pytest.mark.parametrize("k, m", [(4, 8), (4, 4), (0, 1), (0, 0), (8, 0), (4097, 8)])
def test_params_outside_range_refused_at_construction(k, m):
    # Constructed only: `index_set` on such params would never return (m >= k)
    # or divide by zero (k = 0).
    with pytest.raises(BadParams):
        kdc.KdcParams(k, m, SEED)
    with pytest.raises(BadParams):
        dataclasses.replace(kdc.setup(64, 8, SEED)[0], k=k, m=m)


def test_pool_keys_distinct():
    _, pool, _ = kdc.setup(64, 8, SEED)
    assert len(set(pool.keys)) == 64


def test_index_set_contract(small_kdc):
    params = small_kdc[0]
    a = kdc.index_set(params, "A")
    assert a == kdc.index_set(params, "A")
    assert len(a) == 8 == len(set(a))
    assert all(1 <= i <= 64 for i in a)


def test_index_set_rejects_empty_node_id(small_kdc):
    with pytest.raises(BadParams):
        kdc.index_set(small_kdc[0], "")


def fresh_index_set(params, node):
    """The node's index set derived anew: a copy of `params` starts with no memo."""
    return kdc.index_set(dataclasses.replace(params), node)


class _RecordingSha256:
    """A SHA-256 state that appends its whole input to `inputs` when it
    is digested; a copy carries the input hashed so far."""

    def __init__(self, inputs, state, data):
        self.inputs, self.state, self.data = inputs, state, data

    def update(self, data):
        self.state.update(data)
        self.data += data

    def copy(self):
        return _RecordingSha256(self.inputs, self.state.copy(), self.data)

    def digest(self):
        self.inputs.append(self.data)
        return self.state.digest()


@pytest.fixture
def hashed(monkeypatch):
    """Every input `kdc` hashes, in order: through `hash_bytes`, and
    through the SHA-256 states it builds itself (`index_set`'s prefix)."""
    inputs = []
    real = kdc.hash_bytes

    def counted(data):
        inputs.append(data)
        return real(data)

    def sha256(data=b""):
        return _RecordingSha256(inputs, hashlib.sha256(data), data)

    monkeypatch.setattr(kdc, "hash_bytes", counted)
    monkeypatch.setattr(kdc, "hashlib", types.SimpleNamespace(sha256=sha256))
    return inputs


def test_index_set_hashed_once_per_setup(hashed):
    nodes = ["N%d" % i for i in range(12)]
    params, pool, _ = kdc.setup(64, 8, SEED)
    center = kdc.Kdc(params, pool)
    for n in nodes:
        center.issue(n)
    issued = len(hashed)
    assert issued >= 8 * len(nodes)
    for i in range(len(nodes)):
        kdc.cover_indices(params, nodes[: i + 1])
        kdc.index_set(params, nodes[i])
    assert len(hashed) == issued  # cover_indices and later reads hash nothing
    assert len(set(hashed)) == issued  # no (node, counter) input hashed twice


def test_setups_share_no_index_set_memo(hashed):
    first = kdc.setup(64, 8, SEED)[0]
    second = kdc.setup(64, 8, SEED)[0]
    assert first == second
    a = kdc.index_set(first, "A")
    once = len(hashed)
    assert kdc.index_set(second, "A") == a
    assert len(hashed) == 2 * once


def test_index_set_returns_a_fresh_list(small_kdc):
    params, _, _, center = small_kdc
    want = fresh_index_set(params, "A")
    got = kdc.index_set(params, "A")
    got.append(0)
    got[0] = -1
    ring = center.issue("A")
    ring.indices.reverse()
    assert kdc.index_set(params, "A") == want
    assert kdc.cover_indices(params, ["A"]) == [i for i in range(1, 65) if i not in want]


def test_cover_indices_is_complement_of_fresh_sets(small_kdc):
    params, _, _, center = small_kdc
    rng = random.Random(5)
    nodes = ["node-%d" % i for i in range(20)]
    for n in nodes[:10]:
        center.issue(n)  # half the sets are memoised before the first cover
    for _ in range(50):
        revoked = rng.sample(nodes, rng.randint(0, 4))
        held = set().union(*(fresh_index_set(params, n) for n in revoked))
        assert kdc.cover_indices(params, revoked) == [i for i in range(1, 65) if i not in held]


def test_index_set_uniformity(small_kdc):
    # Each index should be hit with frequency ~ m/k over many node ids.
    params = small_kdc[0]
    n = 10_000
    counts = [0] * 65
    for t in range(n):
        for i in kdc.index_set(params, "node-%d" % t):
            counts[i] += 1
    p = params.m / params.k
    sigma = math.sqrt(n * p * (1 - p))
    for i in range(1, 65):
        assert abs(counts[i] - n * p) <= 3.5 * sigma


def test_issue_matches_construction():
    secret = crypto.mac(SEED, [b"secret"])
    for k, m in ((64, 8), (8, 4)):
        params, pool, _ = kdc.setup(k, m, SEED)
        center = kdc.Kdc(params, pool)
        rng = random.Random(k)
        for node in ("A", "B", "node-17", "N250"):
            ring = center.issue(node)
            # A broadcast derives its cover's secrets; every later read derives anew.
            kdc.build_broadcast(ring, secret, [n for n in ("A", "B") if n != node], params)
            order = list(range(1, k + 1))
            rng.shuffle(order)
            for j in order + order[:3]:
                assert ring.encryption_secret(j) == crypto.hash_bytes(pool.key(j) + node.encode())
            assert [pool.key(i) for i in ring.indices] == ring.decryption_secrets
            assert "_pool_key" not in repr(ring)


@pytest.mark.parametrize("index", [0, -1, 65, 1000])
def test_pool_index_outside_range_rejected(small_kdc, index):
    _, pool, _, center = small_kdc
    ring = center.issue("A")
    with pytest.raises(BadParams):
        pool.key(index)
    with pytest.raises(BadParams):
        ring.encryption_secret(index)


def test_issue_twice_rejected(small_kdc):
    center = small_kdc[3]
    center.issue("A")
    with pytest.raises(DuplicateNode):
        center.issue("A")


def test_pairwise_symmetry_and_separation(small_kdc):
    svc = small_kdc[2]
    assert svc.pairwise_key("S", "D") == svc.pairwise_key("D", "S")
    rng = random.Random(5)
    for _ in range(1000):
        s, d, x = ("n%d" % rng.getrandbits(24) for _ in range(3))
        if len({s, d, x}) < 3:
            continue
        assert svc.pairwise_key(s, d) != svc.pairwise_key(s, x)
    with pytest.raises(SelfPair):
        svc.pairwise_key("S", "S")


def test_cover_indices(small_kdc):
    params = small_kdc[0]
    assert kdc.cover_indices(params, []) == list(range(1, 65))
    cov = kdc.cover_indices(params, ["B"])
    assert set(cov) == set(range(1, 65)) - set(kdc.index_set(params, "B"))
    assert len(cov) >= 64 - 8


def find_joint_cover_nodes(params, want):
    """Search node ids whose index sets jointly cover `want`."""
    found = []
    held = set()
    i = 0
    while held != want:
        i += 1
        cand = "n%d" % i
        s = set(kdc.index_set(params, cand))
        if s - held:
            found.append(cand)
            held |= s
        if i > 100_000:
            pytest.fail("search budget exceeded")
    return found


def test_empty_cover():
    params, _, _ = kdc.setup(4, 2, SEED)
    revoked = find_joint_cover_nodes(params, {1, 2, 3, 4})
    with pytest.raises(EmptyCover):
        kdc.cover_indices(params, revoked)


def test_broadcast_round_trip(small_kdc):
    params, _, _, center = small_kdc
    a, b = center.issue("A"), center.issue("B")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, [], params)
    assert kdc.open_broadcast(b, msg, "A", params) == secret


def test_broadcast_excludes_revoked(small_kdc):
    params, _, _, center = small_kdc
    a, b, c = center.issue("A"), center.issue("B"), center.issue("C")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, ["B"], params)
    with pytest.raises(NoUsableIndex):
        kdc.open_broadcast(b, msg, "A", params)
    assert kdc.open_broadcast(c, msg, "A", params) == secret


def test_broadcast_tag_detects_tamper(small_kdc):
    params, _, _, center = small_kdc
    a, c = center.issue("A"), center.issue("C")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, [], params)
    bad_env = list(msg.envelopes)
    first = bad_env[0]
    bad_env[0] = first[:12] + bytes([first[12] ^ 1]) + first[13:]  # first ciphertext byte
    tampered = kdc.BroadcastMessage(msg.revoked, msg.cover_indices, tuple(bad_env), msg.tag)
    with pytest.raises(TagMismatch):
        kdc.open_broadcast(c, tampered, "A", params)


def _opened_then(msg, receiver, params, **changes):
    # Open first so the message's derived tag input is in use, then change a field.
    kdc.open_broadcast(receiver, msg, "A", params)
    return dataclasses.replace(msg, **changes)


def test_replaced_envelope_outside_receivers_indices_fails_tag(small_kdc):
    params, _, _, center = small_kdc
    a, c = center.issue("A"), center.issue("C")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, [], params)
    pos = next(p for p, i in enumerate(msg.cover_indices) if i not in c.indices)
    env = list(msg.envelopes)
    env[pos] = env[pos][:-16] + bytes([env[pos][-16] ^ 1]) + env[pos][-15:]  # first tag byte
    tampered = _opened_then(msg, c, params, envelopes=tuple(env))
    with pytest.raises(TagMismatch):
        kdc.open_broadcast(c, tampered, "A", params)


def test_replaced_revoked_set_fails_tag(small_kdc):
    params, _, _, center = small_kdc
    a, c = center.issue("A"), center.issue("C")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, ["B"], params)
    tampered = _opened_then(msg, c, params, revoked=frozenset())
    with pytest.raises(TagMismatch):
        kdc.open_broadcast(c, tampered, "A", params)


def test_broadcast_tag_bytes_pinned(small_kdc):
    params, _, _, center = small_kdc
    a = center.issue("A")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, ["C", "B"], params)
    assert len(msg.envelopes) == 49
    assert msg.tag.hex() == "8a3d3f3ac38fd0ce81d5bbdf7c2d238d751cca6c7363afd754df4dc03bce9c48"


def test_built_broadcast_keeps_the_tag_input_it_framed(small_kdc, monkeypatch):
    """A built message frames its tag input once, when its tag is first
    read, and keeps it; it equals the input a copy derives from its
    fields, and the tag is its MAC."""
    framed = []
    real = kdc._tag_input

    def counted(revoked, envelopes):
        framed.append(envelopes)
        return real(revoked, envelopes)

    monkeypatch.setattr(kdc, "_tag_input", counted)
    params, _, _, center = small_kdc
    a = center.issue("A")
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, ["C", "B"], params)
    assert not framed and "tag_input" not in vars(msg)
    tag = msg.tag
    kept = vars(msg)["tag_input"]
    assert msg.tag is tag and msg.tag_input is kept
    assert len(framed) == 1
    assert kept == dataclasses.replace(msg).tag_input
    assert tag == crypto.mac_framed(secret, kept)


def test_envelopes_sealed_under_each_cover_indexs_envelope_key(small_kdc):
    params, pool, _, center = small_kdc
    secret = crypto.mac(SEED, [b"secret"])
    a, u = center.issue("A"), center.issue("N\u00e9\u8282")
    for ring, revoked in ((a, []), (a, ["C", "B"]), (u, ["A"])):
        msg = kdc.build_broadcast(ring, secret, revoked, params)
        assert list(msg.cover_indices) == kdc.cover_indices(params, revoked)
        for j, envelope in zip(msg.cover_indices, msg.envelopes):
            assert envelope == crypto.seal(kdc.envelope_key(pool.key(j), ring.node), secret)
            assert envelope == crypto.seal(ring.encryption_secret(j), secret)


def _index_set_by_rule(params, node):
    """The first m distinct hash(node || u32 counter) mod k + 1, by `hash_bytes`."""
    out, counter = [], 0
    while len(out) < params.m:
        h = crypto.hash_bytes(node.encode() + counter.to_bytes(4, "big"))
        idx = int.from_bytes(h[:8], "big") % params.k + 1
        if idx not in out:
            out.append(idx)
        counter += 1
    return out


@pytest.mark.parametrize("k, m", [(64, 8), (8, 7), (4096, 20)])
def test_index_set_follows_the_hash_rule(k, m):
    params = kdc.setup(k, m, SEED)[0]
    for node in ("A", "node-17", "N249", "N\u00e9\u8282-\U0001f511", "x" * 200):
        assert kdc.index_set(params, node) == _index_set_by_rule(params, node), node


@pytest.fixture
def tag_macs(monkeypatch):
    """Every secret `kdc` MACs a framed tag input under, in order."""
    keys = []
    real = kdc.mac_framed

    def counted(key, framed):
        keys.append(key)
        return real(key, framed)

    monkeypatch.setattr(kdc, "mac_framed", counted)
    return keys


def test_broadcast_tag_checked_once_per_message(small_kdc, tag_macs):
    params, _, _, center = small_kdc
    a = center.issue("A")
    receivers = [center.issue(n) for n in ("C", "D", "E", "F")]
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, ["B"], params)
    assert tag_macs == []  # nothing MACed at build time
    for r in receivers:
        assert kdc.open_broadcast(r, msg, "A", params) == secret
    assert tag_macs == []  # the sender's secret verified by construction
    tag = msg.tag
    assert tag_macs == [secret]  # the tag is MACed on its first read, once
    assert msg.tag is tag and tag_macs == [secret]
    copy = dataclasses.replace(msg)
    for r in receivers:
        assert kdc.open_broadcast(r, copy, "A", params) == secret
    assert tag_macs == [secret, secret]  # a copy's first receiver checks it, once


@pytest.mark.parametrize("change", ["tag", "envelope"])
def test_changed_copy_fails_tag_after_honest_opens(small_kdc, change):
    params, _, _, center = small_kdc
    a = center.issue("A")
    receivers = [center.issue(n) for n in ("C", "D", "E")]
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(a, secret, ["B"], params)
    for r in receivers:
        assert kdc.open_broadcast(r, msg, "A", params) == secret
    if change == "tag":
        changed = dataclasses.replace(msg, tag=bytes([msg.tag[0] ^ 1]) + msg.tag[1:])
    else:  # re-sealed under the same key, so it opens, but not the envelope the tag covers
        pos = next(p for p, j in enumerate(msg.cover_indices) if j not in receivers[0].indices)
        env = list(msg.envelopes)
        env[pos] = crypto.seal(a.encryption_secret(msg.cover_indices[pos]), secret, b"other")
        changed = dataclasses.replace(msg, envelopes=tuple(env))
    for r in receivers:
        with pytest.raises(TagMismatch):
            kdc.open_broadcast(r, changed, "A", params)
    assert kdc.open_broadcast(receivers[0], msg, "A", params) == secret


def test_receiver_recovering_another_secret_fails_tag(small_kdc):
    # A sender that seals two secrets, tagging one: the receivers of the
    # tagged one verify it, and the message records that secret; a
    # receiver that recovers the other must still MAC it, and fail.
    params, _, _, center = small_kdc
    a, c = center.issue("A"), center.issue("C")
    d = next(r for r in (center.issue("n%d" % i) for i in range(100)) if not set(r.indices) & set(c.indices))
    tagged, other = crypto.mac(SEED, [b"secret"]), crypto.mac(SEED, [b"other"])
    cover = tuple(kdc.cover_indices(params, []))
    envelopes = tuple(
        crypto.seal(a.encryption_secret(j), other if j in d.indices else tagged) for j in cover
    )
    tag = crypto.mac_framed(tagged, kdc._tag_input(frozenset(), envelopes))
    msg = kdc.BroadcastMessage(frozenset(), cover, envelopes, tag)
    assert kdc.open_broadcast(c, msg, "A", params) == tagged
    with pytest.raises(TagMismatch):
        kdc.open_broadcast(d, msg, "A", params)
    assert kdc.open_broadcast(c, msg, "A", params) == tagged


def test_broadcast_reproducible(small_kdc):
    params, _, _, center = small_kdc
    a = center.issue("A")
    secret = crypto.mac(SEED, [b"secret"])
    assert kdc.build_broadcast(a, secret, ["B"], params) == kdc.build_broadcast(a, secret, ["B"], params)


def test_broadcast_message_rejects_envelope_count_unlike_cover(small_kdc):
    """Each cover index names one envelope: a message with an envelope too
    few or too many is refused, not cut to the shorter of the two."""
    params, _, _, center = small_kdc
    secret = crypto.mac(SEED, [b"secret"])
    msg = kdc.build_broadcast(center.issue("A"), secret, ["B"], params)
    assert len(msg.cover_indices) == len(msg.envelopes) == 56
    for envelopes in (msg.envelopes[:-1], msg.envelopes + msg.envelopes[:1], ()):
        with pytest.raises(BadParams):
            kdc.BroadcastMessage(msg.revoked, msg.cover_indices, envelopes, msg.tag)
        with pytest.raises(BadParams):
            dataclasses.replace(msg, envelopes=envelopes)


_LAZY_NODES = ("A", "B", "C", "D", "E", "F", "G", "H")


def _lazy_network():
    params, pool, _ = kdc.setup(64, 8, SEED)
    center = kdc.Kdc(params, pool)
    return params, pool, {n: center.issue(n) for n in _LAZY_NODES}


_LAZY = _lazy_network()
_READ = st.one_of(
    st.tuples(st.just("open"), st.sampled_from(_LAZY_NODES)),
    st.tuples(st.just("envelope"), st.integers(min_value=1, max_value=64)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.frozensets(st.sampled_from(_LAZY_NODES[1:]), max_size=5),
    st.lists(_READ, max_size=10),
    st.sampled_from(["envelopes", "tag", "tag_input", "==", "hash", "repr", "replace"]),
)
@example(frozenset(), [], "repr")
@example(frozenset({"B"}), [("open", "B"), ("open", "C"), ("envelope", 1)], "replace")
def test_built_broadcast_reads_equal_eager_sealing_and_seal_each_envelope_once(revoked, reads, last):
    """Whatever is read first, a built message's bytes are those of every
    envelope sealed at once, and it seals each cover index at most once:
    opens and lookups seal only the envelopes they read, and reading the
    whole message seals only the rest."""
    params, pool, rings = _LAZY
    secret = crypto.mac(SEED, [b"secret"])
    revoked = sorted(revoked)  # one insertion order, so one frozenset repr
    cover = kdc.cover_indices(params, revoked)
    keys = {j: kdc.envelope_key(pool.key(j), "A") for j in cover}
    eager = {j: crypto.seal(keys[j], secret) for j in cover}
    envelopes = tuple(eager[j] for j in cover)
    framed = crypto.frame_parts([b"broadcast-tag", *(n.encode() for n in revoked), *envelopes])
    ref = kdc.BroadcastMessage(frozenset(revoked), tuple(cover), envelopes, crypto.mac_framed(secret, framed))
    sealed, tagged = Counter(), []
    real_seal, real_mac = kdc.seal, kdc.mac_framed

    def seal(key, *rest):
        sealed[bytes(key)] += 1
        return real_seal(key, *rest)

    def mac_framed(key, data):
        tagged.append(key)
        return real_mac(key, data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kdc, "seal", seal)
        mp.setattr(kdc, "mac_framed", mac_framed)
        msg = kdc.build_broadcast(rings["A"], secret, revoked, params)
        read = set()
        for kind, arg in reads:
            if kind == "open":
                ring = rings[arg]
                usable = [j for j in ring.indices if j in eager]
                if not usable:
                    with pytest.raises(NoUsableIndex):
                        kdc.open_broadcast(ring, msg, "A", params)
                    continue
                assert kdc.open_broadcast(ring, msg, "A", params) == secret
                read.add(usable[0])  # an honest envelope opens at the first try
            elif arg in eager:
                assert msg.envelope(arg) == eager[arg]
                read.add(arg)
            else:
                with pytest.raises(KeyError):
                    msg.envelope(arg)
            assert sealed == Counter(keys[j] for j in read)
        assert not tagged  # honest opens MAC no tag
        if last == "envelopes":
            assert msg.envelopes == envelopes
        elif last == "tag":
            assert msg.tag == ref.tag
        elif last == "tag_input":
            assert msg.tag_input == framed
        elif last == "==":
            assert msg == ref and ref == msg
        elif last == "hash":
            assert hash(msg) == hash(ref)
        elif last == "repr":
            assert repr(msg) == repr(ref)
        else:
            copy = dataclasses.replace(msg)
            assert copy == ref and copy.envelopes is msg.envelopes
        assert sealed == Counter(keys.values())  # every envelope now, each once
        assert tagged in ([], [secret])
        assert (msg.revoked, msg.cover_indices, msg.envelopes, msg.tag) == dataclasses.astuple(ref)
        assert sealed == Counter(keys.values()) and tagged == [secret]


_EAGER_POOL = {j: crypto.mac(SEED, [b"pool", j.to_bytes(4, "big")]) for j in range(1, 65)}
_POOL_READ = st.one_of(st.integers(min_value=-2, max_value=67), st.sampled_from(_LAZY_NODES))


@settings(max_examples=150, deadline=None)
@given(
    st.frozensets(st.sampled_from(_LAZY_NODES[1:]), max_size=3),
    st.frozensets(st.integers(min_value=1, max_value=64)),
    st.lists(_POOL_READ, max_size=25),
)
@example(frozenset(), frozenset(), [1, 1, 0, 65, -1, "B", "B", 64])
def test_pool_keys_derived_on_first_read_once_per_pool(revoked, spoiled, reads):
    """A pool derives K_j, the eager rule's bytes, on its first read and
    never again; a bad index raises before any derivation; `setup` and
    `issue` derive none; and an open reads the receiver's own K_i once
    per index it tries, in its own order, and no other pool key.  The
    message is built by hand, under the eager keys, so its envelopes
    read no pool key; those at `spoiled` indices fail to open."""
    secret = crypto.mac(SEED, [b"secret"])
    revoked = sorted(revoked)
    cover = kdc.cover_indices(_LAZY[0], revoked)
    envelopes = tuple(
        bytes(40) if j in spoiled else crypto.seal(kdc.envelope_key(_EAGER_POOL[j], "A"), secret)
        for j in cover
    )
    tag = crypto.mac_framed(secret, kdc._tag_input(frozenset(revoked), envelopes))
    msg = kdc.BroadcastMessage(frozenset(revoked), tuple(cover), envelopes, tag)
    derived, looked_up = [], []  # pool indices MACed, and read through `KeyPool.key`
    real_mac, real_key = kdc.mac, kdc.KeyPool.key

    def mac(key, parts):
        if parts[0] == b"pool":
            derived.append(int.from_bytes(parts[1], "big"))
        return real_mac(key, parts)

    def key(pool, index):
        looked_up.append(index)
        return real_key(pool, index)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kdc, "mac", mac)
        mp.setattr(kdc.KeyPool, "key", key)
        params, pool, _ = kdc.setup(64, 8, SEED)
        center = kdc.Kdc(params, pool)
        rings = {n: center.issue(n) for n in _LAZY_NODES}
        assert not derived and not looked_up  # setup and issue derive and read none
        for read in reads:
            before = len(looked_up)
            if isinstance(read, str):  # an open by that node's ring
                ring = rings[read]
                usable = [i for i in ring.indices if i in cover]
                tried = usable[: next((p + 1 for p, i in enumerate(usable) if i not in spoiled), None)]
                if not usable:
                    with pytest.raises(NoUsableIndex):
                        kdc.open_broadcast(ring, msg, "A", params)
                elif tried[-1] in spoiled:
                    with pytest.raises(TagMismatch):
                        kdc.open_broadcast(ring, msg, "A", params)
                else:
                    assert kdc.open_broadcast(ring, msg, "A", params) == secret
                assert looked_up[before:] == tried
            elif 1 <= read <= 64:
                assert pool.key(read) == _EAGER_POOL[read]
            else:
                count = len(derived)
                with pytest.raises(BadParams):
                    pool.key(read)
                assert len(derived) == count
            assert sorted(derived) == sorted({j for j in looked_up if 1 <= j <= 64})
        assert pool.keys == tuple(_EAGER_POOL[j] for j in range(1, 65))
        assert sorted(derived) == list(range(1, 65))  # each K_j derived once
        assert kdc.setup(64, 8, SEED)[1].key(1) == _EAGER_POOL[1] and derived.count(1) == 2


def test_coverage_estimate_full_cover():
    assert kdc.coverage_estimate(64, 8, 0, 200, seed=1) == 1.0


def test_coverage_estimate_thresholds():
    assert kdc.coverage_estimate(64, 8, 1, 1000, seed=2) >= 0.99
    assert kdc.coverage_estimate(64, 8, 2, 1000, seed=3) >= 0.95


def test_coverage_near_exhaustion_matches_enumeration():
    # k=8, m=7: a single revoked node leaves exactly one free index, and a
    # random receiver holds it with probability C(7,6)/C(8,7) = 7/8.
    params, pool, _ = kdc.setup(8, 7, SEED)
    rng = random.Random(9)
    hits = trials = 0
    for t in range(4000):
        revoked = ["rev-%d" % t]
        try:
            cover = set(kdc.cover_indices(params, revoked))
        except EmptyCover:
            continue
        if len(cover) != 1:
            continue
        trials += 1
        if set(kdc.index_set(params, "rcv-%d" % rng.getrandbits(30))) & cover:
            hits += 1
    assert trials > 100
    p = 7 / 8
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 4 * sigma
