import hmac
import os
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secroute import crypto
from secroute.errors import AuthFailure

KEY = b"k" * 32
KEY2 = b"K" * 32


def test_hash_deterministic_and_width():
    data = os.urandom(1024)
    assert crypto.hash_bytes(data) == crypto.hash_bytes(data)
    assert len(crypto.hash_bytes(data)) == 32
    assert len(crypto.hash_bytes(b"x" * (1 << 20))) == 32


def test_hash_extension_changes_digest():
    rng = random.Random(7)
    for _ in range(1000):
        x = rng.randbytes(1024)
        assert crypto.hash_bytes(x) != crypto.hash_bytes(x + b"\x00")


def test_mac_part_boundaries_matter():
    assert crypto.mac(KEY, [b"x", b"y"]) != crypto.mac(KEY, [b"xy"])


def test_mac_deterministic():
    assert crypto.mac(KEY, [b"m"]) == crypto.mac(KEY, [b"m"])


def test_mac_key_separation():
    rng = random.Random(11)
    seen = set()
    for _ in range(1000):
        k1, k2 = rng.randbytes(32), rng.randbytes(32)
        d1, d2 = crypto.mac(k1, [b"m"]), crypto.mac(k2, [b"m"])
        assert d1 != d2
        seen.add(d1)
    assert len(seen) == 1000


def test_mac_requires_parts():
    with pytest.raises(ValueError):
        crypto.mac(KEY, [])


def test_mac_framing_no_collisions_over_random_splits():
    # Random corpus: same concatenation, different boundaries -> distinct MACs.
    rng = random.Random(3)
    seen = {}
    for _ in range(10_000):
        data = rng.randbytes(rng.randint(2, 40))
        cut = rng.randint(0, len(data))
        digest = crypto.mac(KEY, [data[:cut], data[cut:]])
        key = (data, cut)
        prev = seen.setdefault(digest, key)
        assert prev == key
    assert len(seen) == len(set(seen.values()))


def test_seal_round_trip():
    box = crypto.seal(KEY, b"hello")
    assert crypto.open_box(KEY, box) == b"hello"


def test_open_wrong_key_fails():
    box = crypto.seal(KEY, b"hello")
    with pytest.raises(AuthFailure):
        crypto.open_box(KEY2, box)


def test_bit_flip_anywhere_detected():
    plaintext = os.urandom(64 - 12 - 16)
    raw = crypto.seal(KEY, plaintext)
    for bit in range(len(raw) * 8):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthFailure):
            crypto.open_box(KEY, bytes(flipped))


def test_seal_reproducible():
    a = crypto.seal(KEY, b"payload")
    b = crypto.seal(KEY, b"payload")
    assert a == b


def test_seal_round_trip_with_aad():
    box = crypto.seal(KEY, b"hello", b"header")
    assert crypto.open_box(KEY, box, b"header") == b"hello"


def test_open_with_wrong_aad_fails():
    box = crypto.seal(KEY, b"hello", b"header")
    for aad in (b"", b"headeR", b"header\x00", b"heade"):
        with pytest.raises(AuthFailure):
            crypto.open_box(KEY, box, aad)
    with pytest.raises(AuthFailure):
        crypto.open_box(KEY, crypto.seal(KEY, b"hello"), b"header")


def test_empty_aad_box_pinned():
    """The bytes of a box sealed without associated data, as KDC envelopes,
    RREP bodies and REP codes are: the one nonce rule over an empty aad,
    then ciphertext and tag.  Omitting aad and passing b"" seal the same
    box."""
    want = "a9fd222a19c30d465988a3372bdb4e11c944a42bd98a87c6c2a74252ff3f760229"
    assert crypto.seal(KEY, b"hello").hex() == want
    assert crypto.seal(KEY, b"hello", b"").hex() == want


@pytest.mark.parametrize("aad", [b"", b"header"])
def test_nonce_is_the_documented_rule(aad):
    """nonce = HMAC-SHA256(key, b"box-nonce" || u32 len(aad) || aad || plaintext)[:12]."""
    plaintext = b"payload"
    nonce_input = b"box-nonce" + len(aad).to_bytes(4, "big") + aad + plaintext
    want = hmac.digest(KEY, nonce_input, "sha256")[:12]
    assert crypto.seal(KEY, plaintext, aad)[:12] == want


@settings(max_examples=300)
@given(st.binary(max_size=200), st.binary(max_size=4096))
@example(b"", b"")
@example(b"k" * 63, b"m")
@example(b"k" * 64, b"m")
@example(b"k" * 65, b"m")
@example(b"k" * 200, b"m" * 4096)
def test_mac_kernel_equals_hmac_digest(key, msg):
    """The MAC kernel is RFC 2104 HMAC-SHA256 for keys shorter than, equal
    to and longer than the 64-byte block, which hashes a long key first."""
    assert crypto.mac_framed(key, msg) == hmac.digest(key, msg, "sha256")


@settings(max_examples=200)
@given(st.binary(max_size=64), st.sampled_from([b"", b"header"]))
def test_open_arbitrary_bytes_raises_only_auth_failure(box, aad):
    """Any byte string, short, empty or full-length, fails to open with
    AuthFailure and nothing else."""
    with pytest.raises(AuthFailure):
        crypto.open_box(KEY, box, aad)


@settings(max_examples=200)
@given(st.binary(max_size=64), st.binary(max_size=64), st.binary(max_size=64))
def test_distinct_aad_distinct_nonce(plaintext, aad_a, aad_b):
    """Under one key and plaintext, different associated data never reuse
    a nonce (nonce reuse would leak the Poly1305 key)."""
    assume(aad_a != aad_b)
    assert crypto.seal(KEY, plaintext, aad_a)[:12] != crypto.seal(KEY, plaintext, aad_b)[:12]


def test_aad_and_plaintext_boundary_gives_distinct_nonces():
    """Moving bytes between aad and plaintext changes the nonce."""
    nonces = {crypto.seal(KEY, b"abcdef"[cut:], b"abcdef"[:cut])[:12] for cut in range(7)}
    assert len(nonces) == 7


def test_chain_basics():
    h0 = crypto.hash_bytes(b"anchor")
    assert crypto.chain(h0, 0) == h0
    assert crypto.chain(h0, 2) == crypto.hash_bytes(crypto.hash_bytes(h0))
    assert crypto.chain(crypto.chain(h0, 3), 2) == crypto.chain(h0, 5)


@settings(max_examples=50)
@given(st.binary(min_size=0, max_size=1024), st.binary(min_size=32, max_size=32))
def test_round_trip_property(plaintext, key):
    assert crypto.open_box(key, crypto.seal(key, plaintext)) == plaintext


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_chain_composition_property(i, j):
    h0 = crypto.hash_bytes(b"seed")
    assert crypto.chain(h0, i + j) == crypto.chain(crypto.chain(h0, i), j)


def _outcome(fn):
    """`fn()`'s value, or the type and text of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the two kinds must fail alike, too
        return type(exc), str(exc)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=130).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    st.lists(st.binary(max_size=80), min_size=1, max_size=4),
    st.binary(max_size=100),
    st.binary(max_size=16),
)
@example(b"", [b""], b"", b"")
@example(b"k" * 32, [b"m"], b"p", b"a")
@example(b"k" * 64, [b"m"], b"p", b"")
@example(b"k" * 65, [b"m"], b"p", b"")
@example(b"k" * 130, [b"m" * 80], b"p", b"a")
def test_key_type_gives_the_outputs_of_its_bytes(raw, parts, plaintext, aad):
    """A `Key` is its bytes to every reader, and every primitive gives under
    it what it gives under the plain bytes, on the use that builds its
    prepared state and on the uses after; a key of the wrong length for
    the AEAD fails alike."""
    key = crypto.Key(raw)
    assert key == raw and raw == key and hash(key) == hash(raw) and repr(key) == repr(raw)
    assert {raw: "found"}[key] == "found" and key + b"x" == raw + b"x" and key[1:] == raw[1:]
    framed = crypto.frame_parts(parts)
    box = crypto.seal(KEY, plaintext, aad) if len(raw) != crypto.KEY_LEN else crypto.seal(raw, plaintext, aad)
    tampered = box[:-1] + bytes([box[-1] ^ 1])
    for _ in range(2):
        assert crypto.mac(key, parts) == crypto.mac(raw, parts)
        assert crypto.mac_framed(key, framed) == crypto.mac_framed(raw, framed)
        assert _outcome(lambda: crypto.seal(key, plaintext, aad)) == _outcome(lambda: crypto.seal(raw, plaintext, aad))
        for b in (box, tampered, box[:27]):
            assert _outcome(lambda: crypto.open_box(key, b, aad)) == _outcome(lambda: crypto.open_box(raw, b, aad))
