"""Symmetric primitives: hashing, keyed MACs, authenticated sealing, hash chains.

Digests are plain 32-byte strings, and keys 32-byte strings, plain
`bytes` or `Key` (below).  Multi-part MAC input is
length-prefixed (4-byte big-endian length before each part) so part
boundaries are unambiguous.  Sealing is authenticated encryption with
associated data: any bit flip in the box, or in the associated data it
was sealed with, is detected on open.  A sealed box is plain bytes,
nonce (12) || ciphertext || tag (16), and every nonce is derived by one
rule from key, associated data and plaintext (see `seal`).

Every MAC and every nonce is HMAC-SHA256 (RFC 2104), computed by one
private kernel from a key's two pad states: the key, hashed first if
longer than the 64-byte block, is zero-padded to a block, XORed with the
ipad and opad bytes by `bytes.translate`, and hashed into copies of one
module-level SHA-256 object.  The kernel then hashes the message on
(copies of) the two pad states and returns `hmac.digest(key, msg,
"sha256")`.

A key that is used many times is a `Key`: plain bytes in every way that
can be seen (equality, hashing, slicing, concatenation, `repr`) that
also keep their own pad states and their own `ChaCha20Poly1305` object,
built the first time the key MACs or seals and kept for its lifetime.
`mac`, `mac_framed`, `seal` and `open_box` take either kind and return
the same bytes for both; for plain bytes they build that state per
call.  Nothing else holds it: a `Key`'s state dies with the key.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

from .errors import AuthFailure

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

DIGEST_LEN = 32
# A hop MAC travels as the leftmost 16 bytes of its HMAC-SHA256 output, as
# RFC 2104 section 5 allows and HMAC-SHA-256-128 (RFC 4868) does.
MAC_LEN = 16
KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16

_BLOCK = 64  # SHA-256 block size
_SHA256 = hashlib.sha256()  # empty state; the kernel hashes copies of it
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translate tables: XOR every byte
_OPAD = bytes(b ^ 0x5C for b in range(256))
_PART_LEN = struct.Struct(">I").pack  # a MAC part's length prefix


def _pad_states(key: bytes) -> tuple:
    """SHA-256 states that have hashed `key`'s inner and outer HMAC pads."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = _SHA256.copy()
    inner.update(key.translate(_IPAD))
    outer = _SHA256.copy()
    outer.update(key.translate(_OPAD))
    return inner, outer


class Key(bytes):
    """A long-lived key: its bytes, plus the HMAC pad states and the AEAD
    object the module's functions would otherwise build per call, each
    built on first use.  Equal to, and hashed as, its bytes; any slice or
    concatenation of it is plain bytes."""

    # Class-level None until the instance sets its own on first use.
    _pads = None  # (inner, outer) pad states
    _aead = None  # ChaCha20Poly1305 under this key


def _cipher(key: bytes) -> ChaCha20Poly1305:
    """`key`'s AEAD object: a Key's own, or one built for this call."""
    if not isinstance(key, Key):
        return ChaCha20Poly1305(key)
    aead = key._aead
    if aead is None:
        aead = key._aead = ChaCha20Poly1305(key)
    return aead


def hash_bytes(data: bytes) -> bytes:
    """One-way hash, fixed 32-byte output."""
    return hashlib.sha256(data).digest()


def frame_parts(parts: Sequence[bytes]) -> bytes:
    """The MAC input `mac` builds from its parts: each part after its
    4-byte big-endian length."""
    out = []
    for p in parts:
        out.append(_PART_LEN(len(p)))
        out.append(p)
    return b"".join(out)


def mac(key: bytes, parts: Sequence[bytes]) -> bytes:
    """Keyed MAC over an ordered list of parts.

    Depends on the key, every part, and the part boundaries: mac(k, [a, b])
    never equals mac(k, [a + b]) unless the lengths collide exactly.
    """
    if not parts:
        raise ValueError("mac requires at least one part")
    return _hmac_sha256(key, frame_parts(parts))


def mac_framed(key: bytes, framed: bytes) -> bytes:
    """Keyed MAC over input already framed by `frame_parts`.

    mac_framed(k, frame_parts(parts)) == mac(k, parts); use it to MAC the
    same framed parts under many keys without framing them again.
    """
    return _hmac_sha256(key, framed)


def _hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104; equals hmac.digest(key, msg, "sha256")."""
    if isinstance(key, Key):
        pads = key._pads
        if pads is None:
            pads = key._pads = _pad_states(key)
        inner, outer = pads[0].copy(), pads[1].copy()
    else:
        inner, outer = _pad_states(key)  # used once, so not copied
    inner.update(msg)
    outer.update(inner.digest())
    return outer.digest()


def seal(key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Authenticated encryption under a 32-byte key, binding `aad`.

    Returns nonce (12) || ciphertext || tag (16).  `aad` is authenticated
    but not carried in the box, so `open_box` must be given the same
    bytes.  The nonce is HMAC-SHA256(key, b"box-nonce" || u32 len(aad) ||
    aad || plaintext)[:12]: sealing is a pure function of its inputs, a
    repeated (key, aad, plaintext) leaks only equality, and the length
    prefix keeps distinct (aad, plaintext) pairs on distinct nonces.
    """
    nonce_input = b"box-nonce" + len(aad).to_bytes(4, "big") + aad + plaintext
    nonce = _hmac_sha256(key, nonce_input)[:NONCE_LEN]
    return nonce + _cipher(key).encrypt(nonce, plaintext, aad)


def open_box(key: bytes, box: bytes, aad: bytes = b"") -> bytes:
    """Inverse of seal; raises AuthFailure on a short box, wrong key,
    wrong aad or tampering."""
    if len(box) < NONCE_LEN + TAG_LEN:
        raise AuthFailure("sealed box too short")
    try:
        return _cipher(key).decrypt(box[:NONCE_LEN], box[NONCE_LEN:], aad)
    except InvalidTag:
        raise AuthFailure("seal verification failed") from None


def chain(h0: bytes, i: int) -> bytes:
    """i-fold hash application; chain(h0, 0) is h0 itself."""
    if i < 0:
        raise ValueError("chain count must be nonnegative")
    h = h0
    for _ in range(i):
        h = hash_bytes(h)
    return h
