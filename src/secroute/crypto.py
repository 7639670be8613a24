"""Symmetric primitives: hashing, keyed MACs, authenticated sealing, hash chains.

Digests and keys are plain 32-byte strings.  Multi-part MAC input is
length-prefixed (4-byte big-endian length before each part) so part
boundaries are unambiguous.  Sealing is authenticated encryption with
associated data: any bit flip in the box, or in the associated data it
was sealed with, is detected on open.  A sealed box is plain bytes,
nonce (12) || ciphertext || tag (16), and every nonce is derived by one
rule from key, associated data and plaintext (see `seal`).

Every MAC and every nonce is HMAC-SHA256 (RFC 2104), computed by one
private kernel: the key, hashed first if longer than the 64-byte block,
is zero-padded to a block and XORed with the ipad and opad bytes by
`bytes.translate`, and the inner and outer hashes are copies of one
module-level SHA-256 object, so a call pays for no per-call set-up
beyond two hashes.  Its output equals `hmac.digest(key, msg, "sha256")`.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

from .errors import AuthFailure

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

DIGEST_LEN = 32
KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16

_BLOCK = 64  # SHA-256 block size
_SHA256 = hashlib.sha256()  # empty state; the kernel hashes copies of it
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translate tables: XOR every byte
_OPAD = bytes(b ^ 0x5C for b in range(256))
_PART_LEN = struct.Struct(">I").pack  # a MAC part's length prefix


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
    return mac_framed(key, frame_parts(parts))


def mac_framed(key: bytes, framed: bytes) -> bytes:
    """Keyed MAC over input already framed by `frame_parts`.

    mac_framed(k, frame_parts(parts)) == mac(k, parts); use it to MAC the
    same framed parts under many keys without framing them again.
    """
    return _hmac_sha256(key, framed)


def _hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104; equals hmac.digest(key, msg, "sha256")."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = _SHA256.copy()
    inner.update(key.translate(_IPAD))
    inner.update(msg)
    outer = _SHA256.copy()
    outer.update(key.translate(_OPAD))
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
    return nonce + ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)


def open_box(key: bytes, box: bytes, aad: bytes = b"") -> bytes:
    """Inverse of seal; raises AuthFailure on a short box, wrong key,
    wrong aad or tampering."""
    if len(box) < NONCE_LEN + TAG_LEN:
        raise AuthFailure("sealed box too short")
    try:
        return ChaCha20Poly1305(key).decrypt(box[:NONCE_LEN], box[NONCE_LEN:], aad)
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
