"""Symmetric primitives: hashing, keyed MACs, authenticated sealing, hash chains.

Digests and keys are plain 32-byte strings.  Multi-part MAC input is
length-prefixed (4-byte big-endian length before each part) so part
boundaries are unambiguous.  Sealing is authenticated encryption: any
bit flip in the box is detected on open.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Sequence

from .errors import AuthFailure

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

DIGEST_LEN = 32
KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16


@dataclass(frozen=True)
class SealedBox:
    """Authenticated ciphertext: 12-byte nonce, body, 16-byte tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.body + self.tag

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SealedBox":
        if len(raw) < NONCE_LEN + TAG_LEN:
            raise AuthFailure("sealed box too short")
        return cls(raw[:NONCE_LEN], raw[NONCE_LEN:-TAG_LEN], raw[-TAG_LEN:])


def hash_bytes(data: bytes) -> bytes:
    """One-way hash, fixed 32-byte output."""
    return hashlib.sha256(data).digest()


def frame_parts(parts: Sequence[bytes]) -> bytes:
    """The MAC input `mac` builds from its parts: each part after its
    4-byte big-endian length."""
    out = bytearray()
    for p in parts:
        out += len(p).to_bytes(4, "big")
        out += p
    return bytes(out)


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
    return hmac.digest(key, framed, "sha256")


def seal(key: bytes, plaintext: bytes) -> SealedBox:
    """Authenticated encryption under a 32-byte key.

    The nonce is derived from key and plaintext, so sealing is a pure
    function of its inputs and runs reproduce byte-identical boxes.  A
    repeated (key, plaintext) pair yields the identical box, which leaks
    only equality; distinct plaintexts get distinct nonces.
    """
    nonce = hmac.digest(key, b"box-nonce" + plaintext, "sha256")[:NONCE_LEN]
    ct = ChaCha20Poly1305(key).encrypt(nonce, plaintext, b"")
    return SealedBox(nonce, ct[:-TAG_LEN], ct[-TAG_LEN:])


def open_box(key: bytes, box: SealedBox) -> bytes:
    """Inverse of seal; raises AuthFailure on wrong key or tampering."""
    try:
        return ChaCha20Poly1305(key).decrypt(box.nonce, box.body + box.tag, b"")
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
