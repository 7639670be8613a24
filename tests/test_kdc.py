import dataclasses
import math
import random

import pytest

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
    assert a[1] == b[1]


def test_setup_rejects_bad_params():
    with pytest.raises(BadParams):
        kdc.setup(2, 2, SEED)
    with pytest.raises(BadParams):
        kdc.setup(0, 1, SEED)


def test_pool_keys_distinct():
    _, pool, _ = kdc.setup(64, 8, SEED)
    assert len(set(pool.keys)) == 64


def test_index_set_contract(small_kdc):
    params = small_kdc[0]
    a = kdc.index_set(params, "A")
    assert a == kdc.index_set(params, "A")
    assert len(a) == 8 == len(set(a))
    assert all(1 <= i <= 64 for i in a)


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


def test_issue_matches_construction(small_kdc):
    params, pool, _, center = small_kdc
    ring = center.issue("A")
    for j in range(1, params.k + 1):
        assert ring.encryption_secret(j) == crypto.hash_bytes(pool.key(j) + b"A")
    assert all(s in pool.keys for s in ring.decryption_secrets)
    assert [pool.key(i) for i in ring.indices] == ring.decryption_secrets


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
    bad_env[0] = crypto.SealedBox(first.nonce, bytes([first.body[0] ^ 1]) + first.body[1:], first.tag)
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
    env[pos] = crypto.SealedBox(env[pos].nonce, env[pos].body, bytes([env[pos].tag[0] ^ 1]) + env[pos].tag[1:])
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
    assert msg.tag.hex() == "b08a6e94e0b03795a8fc272830cb69c41475c17589c52130cd4cc6e24dc7b688"


def test_broadcast_reproducible(small_kdc):
    params, _, _, center = small_kdc
    a = center.issue("A")
    secret = crypto.mac(SEED, [b"secret"])
    assert kdc.build_broadcast(a, secret, ["B"], params) == kdc.build_broadcast(a, secret, ["B"], params)


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
