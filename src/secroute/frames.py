"""Wire format for the four frame types.

Layout: 1-byte frame type (1=RREQ, 2=RREP, 3=REP, 4=SESSION), big-endian
fixed-width header fields, 2-byte length-prefixed variable sections, and
sealed boxes as nonce||ciphertext||tag.  See docs/wire-format.md for the
byte-layout tables.

Every frame names its round as `(s_addr, s_seqno)`: the source and the
source's sequence number for the discovery.  An RREQ carries it in the
clear header, and its seal binds the header, from the frame type through
`s_seqno`, as associated data: `seal_rreq_plaintext` (which `seal_rreq`
calls) and `open_rreq` are the only way its body is sealed and opened.
A receiver can thus read the round before opening anything, and a
rewritten header fails the open.  The cost fields after it are neither
sealed nor bound; they are a `cost.Totals`, of which only `hop_count` is
checked, against the sealed path and the hash chain.

Each run of fixed-width fields is packed and unpacked by one precompiled
`struct.Struct`.  Decoding walks an offset through the input and slices
text, paths, boxes and digests out at it; a decode succeeds only if the
offset ends exactly at the end of the input, so a section that runs past
the end is rejected as truncation.  decode_frame, RreqBody.from_bytes and
RrepBody.from_bytes raise MalformedFrame, and nothing else, on any byte
string they cannot parse: truncation, bad UTF-8, a sealed box shorter
than nonce plus tag, an opt-digest flag other than 0 or 1, an unknown
frame type, or trailing bytes.

An RREQ body's path is MAC'd as its wire section, `path_bytes(path)`.
`RreqBody.from_bytes` keeps that section as the slice of the plaintext
it was read from (`RreqBody.path_section`), and the two sections a
relay MACs next are derived from it rather than re-encoded:
`parent_path_bytes` drops the last id, for the check of the MAC laid
down two hops upstream, and `extend_path_bytes` appends the relay's
own, for its own MAC and its onward body.  In the same way `open_rreq`
gives the body's `RreqImmutable` the authenticated bytes it already
holds: `(s_addr, s_seqno)` as the bound header ends with them and
`(d_addr, max_hops)` as the plaintext begins with them.  The hop MACs
read those, and a relay's onward copy is spliced from them: its
plaintext is `rreq_plaintext` of the opened `(d_addr, max_hops)` bytes,
the extended section, the promoted MAC, its own MAC and the next chain
value, and `seal_rreq_plaintext` seals it under a header joined from the
relay's constant `rreq_header_prefix` and the round bytes it read.  No
onward `RreqBody` is built and nothing it opened is re-encoded.  An
instance built any other way, by `dataclasses.replace` included,
derives its own bytes on first read.

Every packet is a frozen dataclass, and the generated `__init__` of one
pays an `object.__setattr__` per field.  The RREQ hot path, which is
`decode_frame`, `RreqBody.from_bytes` and `seal_rreq_plaintext`, builds
its packets with the private `_frozen` instead, which gives a new
instance a ready attribute dict, the bytes the caller already holds for
the cached properties included.  `decode_frame` and `RreqBody.from_bytes`
each read an RREQ in one flat pass, the field readers inlined.  Such a
packet equals, hashes, prints, `dataclasses.replace`s and refuses
assignment exactly as one built by the constructor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from .cost import Totals
from .crypto import DIGEST_LEN, NONCE_LEN, TAG_LEN, open_box, seal
from .errors import MalformedFrame

FRAME_RREQ = 1
FRAME_RREP = 2
FRAME_REP = 3
FRAME_SESSION = 4

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_RREQ_TOTALS = struct.Struct(">Bddd")  # cost.Totals' fields
_TYPE_BYTE = {t: bytes((t,)) for t in (FRAME_RREQ, FRAME_RREP, FRAME_REP, FRAME_SESSION)}
_ABSENT, _PRESENT = b"\x00", b"\x01"  # opt-digest flags
_DECODE_ERRORS = (struct.error, UnicodeDecodeError)  # short fixed block, bad text
_new = object.__new__
_set = object.__setattr__


def _frozen(cls, attrs: dict):
    """An instance of the frozen dataclass `cls` whose attribute dict is
    `attrs`, a new dict: every field by name, and any cached property
    whose value the caller already holds.  See the module docstring."""
    obj = _new(cls)
    _set(obj, "__dict__", attrs)
    return obj


# -- encoding ----------------------------------------------------------


def _blob(b: bytes) -> bytes:
    if len(b) > 0xFFFF:
        raise MalformedFrame("section too long")
    return _U16.pack(len(b)) + b


def _text(s: str) -> bytes:
    return _blob(s.encode())


def path_bytes(path: Tuple[str, ...]) -> bytes:
    """A `path` section: u16 count, then each node id as `text`."""
    if len(path) > 0xFFFF:
        raise MalformedFrame("path too long")
    return b"".join([_U16.pack(len(path)), *map(_text, path)])


def extend_path_bytes(section: bytes, node: str) -> bytes:
    """`path_bytes(path + (node,))`, given `section == path_bytes(path)`."""
    count = _U16.unpack_from(section)[0] + 1
    if count > 0xFFFF:
        raise MalformedFrame("path too long")
    return b"".join([_U16.pack(count), section[2:], _text(node)])


def parent_path_bytes(section: bytes, path: Tuple[str, ...]) -> bytes:
    """`path_bytes(path[:-1])`, given `section == path_bytes(path)`."""
    if not path:
        return section
    return _U16.pack(len(path) - 1) + section[2 : len(section) - 2 - len(path[-1].encode())]


def _opt_digest(d: Optional[bytes]) -> Tuple[bytes, ...]:
    return (_ABSENT,) if d is None else (_PRESENT, d)


def _round_id_bytes(s_addr: str, s_seqno: int) -> bytes:
    """Round `(s_addr, s_seqno)`: the tail of an RREQ's clear header."""
    return _text(s_addr) + _U32.pack(s_seqno)


def _round_bytes(s_addr: str, s_seqno: int, d_addr: str) -> bytes:
    """The round block: round `(s_addr, s_seqno)` and its destination.  An
    RREP body, a REP and a SESSION frame each carry it, and an RREQ's
    immutable fields begin with it."""
    return _round_id_bytes(s_addr, s_seqno) + _text(d_addr)


# -- decoding ----------------------------------------------------------
#
# Each reader takes the offset of its field and returns the value and the
# offset just past it.  Readers do not compare offsets with len(raw);
# _done does, once, after the last field.


def _span_at(raw: bytes, off: int) -> Tuple[int, int]:
    """Start and end of the u16-length-prefixed section at `off`."""
    start = off + 2
    return start, start + _U16.unpack_from(raw, off)[0]


def _text_at(raw: bytes, off: int) -> Tuple[str, int]:
    start, end = _span_at(raw, off)
    return raw[start:end].decode(), end


def _path_at(raw: bytes, off: int) -> Tuple[Tuple[str, ...], int]:
    nodes = []
    end = off + 2
    for _ in range(_U16.unpack_from(raw, off)[0]):  # _text_at inlined
        start = end + 2
        end = start + _U16.unpack_from(raw, end)[0]
        nodes.append(raw[start:end].decode())
    return tuple(nodes), end


def _round_at(raw: bytes, off: int) -> Tuple[Tuple[str, int, str], int]:
    """The `_round_bytes` block at `off`, as its three values."""
    s_addr, off = _text_at(raw, off)
    (s_seqno,) = _U32.unpack_from(raw, off)
    d_addr, off = _text_at(raw, off + _U32.size)
    return (s_addr, s_seqno, d_addr), off


def _box_at(raw: bytes, off: int) -> Tuple[bytes, int]:
    start, end = _span_at(raw, off)
    if end - start < NONCE_LEN + TAG_LEN:
        raise MalformedFrame("sealed box too short")
    return raw[start:end], end


def _opt_digest_at(raw: bytes, off: int) -> Tuple[Optional[bytes], int]:
    flag = raw[off : off + 1]
    if flag == _ABSENT:
        return None, off + 1
    if flag != _PRESENT:
        raise MalformedFrame("opt-digest flag %d" % flag[0] if flag else "truncated")
    end = off + 1 + DIGEST_LEN
    return raw[off + 1 : end], end


def _done(raw: bytes, off: int) -> None:
    """Reject unless the readers stopped exactly at the end of `raw`."""
    if off != len(raw):
        raise MalformedFrame("truncated" if off > len(raw) else "trailing bytes")


# -- RREQ --------------------------------------------------------------


@dataclass(frozen=True)
class RreqImmutable:
    """Fields fixed for the whole discovery round."""

    s_addr: str
    s_seqno: int
    d_addr: str
    max_hops: int

    def to_bytes(self) -> bytes:
        return self._bytes

    # Each byte run is derived once per instance, on first read, unless
    # `open_rreq` stored the bytes it opened; `dataclasses.replace` builds
    # a new instance that derives its own.

    @cached_property
    def _bytes(self) -> bytes:
        return self._header_tail + self._body_head

    @cached_property
    def _header_tail(self) -> bytes:
        # (s_addr, s_seqno), as an RREQ's clear header ends with them
        return _round_id_bytes(self.s_addr, self.s_seqno)

    @cached_property
    def _body_head(self) -> bytes:
        # (d_addr, max_hops), as an RREQ body begins with them
        return _text(self.d_addr) + _U8.pack(self.max_hops)

    def round_id(self) -> Tuple[str, int]:
        return (self.s_addr, self.s_seqno)


@dataclass(frozen=True)
class RreqBody:
    """Plaintext inside an RREQ's sealed section.

    The round's `s_addr` and `s_seqno` travel in the frame's clear header,
    not in the plaintext, so `from_bytes` takes them from there; `rreq`
    still holds every immutable field, and `rreq.to_bytes()` is what the
    hop MACs and the hash-chain anchor cover.
    """

    rreq: RreqImmutable
    path: Tuple[str, ...]
    mac_prev: Optional[bytes]  # absent only at the origin
    mac_curr: bytes
    h: bytes  # hash-chain value, advanced once per hop

    @cached_property
    def path_section(self) -> bytes:
        # from_bytes stores the bytes it read here; a body built any other
        # way, `dataclasses.replace` included, encodes its own path on
        # first read.
        return path_bytes(self.path)

    def to_bytes(self) -> bytes:
        return rreq_plaintext(self.rreq, self.path_section, self.mac_prev, self.mac_curr, self.h)

    @classmethod
    def from_bytes(cls, raw: bytes, s_addr: str, s_seqno: int) -> "RreqBody":
        """The body `raw` encodes, of round `(s_addr, s_seqno)`; its `rreq`
        keeps the slice of `raw` that `(d_addr, max_hops)` was read from."""
        try:  # one flat pass: _text_at, _path_at and _opt_digest_at inlined
            off = 2 + _U16.unpack_from(raw)[0]
            d_addr = raw[2:off].decode()
            (max_hops,) = _U8.unpack_from(raw, off)
            path_at = off + _U8.size
            nodes = []
            off = path_at + 2
            u16_at = _U16.unpack_from
            for _ in range(u16_at(raw, path_at)[0]):
                start = off + 2
                off = start + u16_at(raw, off)[0]
                nodes.append(raw[start:off].decode())
        except _DECODE_ERRORS as exc:
            raise MalformedFrame(str(exc)) from None
        flag = raw[off : off + 1]
        if flag == _PRESENT:
            mac_at = off + 1 + DIGEST_LEN
            mac_prev = raw[off + 1 : mac_at]
        elif flag == _ABSENT:
            mac_at = off + 1
            mac_prev = None
        else:
            raise MalformedFrame("opt-digest flag %d" % flag[0] if flag else "truncated")
        mid, end = mac_at + DIGEST_LEN, mac_at + 2 * DIGEST_LEN
        _done(raw, end)
        rreq = _frozen(
            RreqImmutable,
            {"s_addr": s_addr, "s_seqno": s_seqno, "d_addr": d_addr, "max_hops": max_hops, "_body_head": raw[:path_at]},
        )
        return _frozen(
            cls,
            {
                "rreq": rreq,
                "path": tuple(nodes),
                "mac_prev": mac_prev,
                "mac_curr": raw[mac_at:mid],
                "h": raw[mid:end],
                "path_section": raw[path_at:off],
            },
        )


def rreq_plaintext(
    rreq: RreqImmutable, path_section: bytes, mac_prev: Optional[bytes], mac_curr: bytes, h: bytes
) -> bytes:
    """The plaintext of an `RreqBody` of these fields, `path_section` being
    `path_bytes` of its path: joined from the bytes given and `rreq`'s
    `(d_addr, max_hops)` bytes, with nothing encoded again."""
    return b"".join([rreq._body_head, path_section, *_opt_digest(mac_prev), mac_curr, h])


def rreq_header_prefix(sender_addr: str) -> bytes:
    """The first bytes of every RREQ `sender_addr` sends: the frame type
    and `sender_addr` as text.  Its round bytes follow them."""
    return _TYPE_BYTE[FRAME_RREQ] + _text(sender_addr)


@dataclass(frozen=True)
class RreqPacket:
    """An RREQ as it travels: the clear header and the sealed `RreqBody`.

    `header` is the frame's first bytes, from the frame type through
    `s_seqno`; the seal binds them as associated data, so a receiver can
    read the round id `(s_addr, s_seqno)` before opening the box and any
    rewrite of them fails the open.  The `mutable` path totals, which
    every relay advances, follow the header and are not bound.
    """

    sender_addr: str
    s_addr: str
    s_seqno: int
    mutable: Totals
    sealed: bytes

    @cached_property
    def header(self) -> bytes:
        # decode_frame and seal_rreq_plaintext store the bytes they hold
        # here; a packet built any other way derives them on first read.
        return rreq_header_prefix(self.sender_addr) + _round_id_bytes(self.s_addr, self.s_seqno)

    def round_id(self) -> Tuple[str, int]:
        return (self.s_addr, self.s_seqno)


def seal_rreq(key: bytes, sender_addr: str, mutable: Totals, body: RreqBody) -> RreqPacket:
    """An RREQ from `sender_addr` carrying `body` sealed under `key`."""
    return seal_rreq_plaintext(
        key, sender_addr, rreq_header_prefix(sender_addr), mutable, body.rreq, body.to_bytes()
    )


def seal_rreq_plaintext(
    key: bytes, sender_addr: str, prefix: bytes, mutable: Totals, rreq: RreqImmutable, plaintext: bytes
) -> RreqPacket:
    """An RREQ from `sender_addr` of round `rreq`, carrying `plaintext` (an
    `RreqBody`'s bytes, `rreq_plaintext`) sealed under `key`.  Its clear
    header, built once for both the seal and the encoding, is `prefix`,
    which is `rreq_header_prefix(sender_addr)`, then `rreq`'s round bytes."""
    header = prefix + rreq._header_tail
    return _frozen(
        RreqPacket,
        {
            "sender_addr": sender_addr,
            "s_addr": rreq.s_addr,
            "s_seqno": rreq.s_seqno,
            "mutable": mutable,
            "sealed": seal(key, plaintext, header),
            "header": header,
        },
    )


def open_rreq(key: bytes, pkt: RreqPacket) -> RreqBody:
    """The body `pkt` carries, sealed under `key`.

    Raises AuthFailure if the box or its bound header was altered or `key`
    is not the sealer's, and MalformedFrame if the plaintext does not
    parse.  The body's round is the header's, so the round a relay dedupes
    on is the round it forwards.  The body's `rreq` keeps, as its bytes,
    the header's `(s_addr, s_seqno)` and the plaintext's `(d_addr,
    max_hops)`, both as authenticated, so a relay re-encodes none of them.
    """
    header = pkt.header
    body = RreqBody.from_bytes(open_box(key, pkt.sealed, header), pkt.s_addr, pkt.s_seqno)
    round_id = header[3 + _U16.unpack_from(header, 1)[0] :]  # past the frame type and sender_addr
    attrs = vars(body.rreq)
    attrs["_header_tail"] = round_id
    attrs["_bytes"] = round_id + attrs["_body_head"]
    return body


# -- RREP --------------------------------------------------------------


@dataclass(frozen=True)
class RrepInfo:
    """Route reply contents: the round identity plus the selected path."""

    s_addr: str
    s_seqno: int
    d_addr: str
    route: Tuple[str, ...]  # intermediate nodes, source->destination order

    def to_bytes(self) -> bytes:
        return _round_bytes(self.s_addr, self.s_seqno, self.d_addr) + path_bytes(self.route)


@dataclass(frozen=True)
class RrepBody:
    rrep: RrepInfo
    q: bytes  # reverse-path hash chain value
    mac_prev: Optional[bytes]
    mac_curr: Optional[bytes]  # absent once no verifier is two hops ahead

    def to_bytes(self) -> bytes:
        return b"".join(
            [self.rrep.to_bytes(), self.q, *_opt_digest(self.mac_prev), *_opt_digest(self.mac_curr)]
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RrepBody":
        try:
            fields, off = _round_at(raw, 0)
            route, q_at = _path_at(raw, off)
        except _DECODE_ERRORS as exc:
            raise MalformedFrame(str(exc)) from None
        mac_prev, off = _opt_digest_at(raw, q_at + DIGEST_LEN)
        mac_curr, off = _opt_digest_at(raw, off)
        _done(raw, off)
        q = raw[q_at : q_at + DIGEST_LEN]
        return cls(RrepInfo(*fields, route), q, mac_prev, mac_curr)


@dataclass(frozen=True)
class RrepPacket:
    sender_addr: str
    sealed: bytes


# -- REP (route error) -------------------------------------------------


@dataclass(frozen=True)
class RepPacket:
    s_addr: str
    s_seqno: int
    d_addr: str
    sealed_code: bytes  # 1-byte error code under the reporter's key with the source
    reporter: str  # the node that found the break


# -- session -----------------------------------------------------------


@dataclass(frozen=True)
class SessionFrame:
    """Cloudlet (step 100) or its ack (step 101): the `seq`th cloudlet of
    round `(s_addr, s_seqno)` from `s_addr` to `d_addr`.  It names the
    round, not a route: each hop looks up the route it holds for it."""

    sender_addr: str
    step: int
    s_addr: str
    s_seqno: int
    d_addr: str
    seq: int


# -- top-level codec ---------------------------------------------------


def encode_frame(packet) -> bytes:
    if isinstance(packet, RreqPacket):
        return b"".join([packet.header, _RREQ_TOTALS.pack(*packet.mutable), _blob(packet.sealed)])
    if isinstance(packet, RrepPacket):
        return b"".join([_TYPE_BYTE[FRAME_RREP], _text(packet.sender_addr), _blob(packet.sealed)])
    if isinstance(packet, RepPacket):
        rnd = _round_bytes(packet.s_addr, packet.s_seqno, packet.d_addr)
        return b"".join([_TYPE_BYTE[FRAME_REP], rnd, _blob(packet.sealed_code), _text(packet.reporter)])
    if isinstance(packet, SessionFrame):
        rnd = _round_bytes(packet.s_addr, packet.s_seqno, packet.d_addr)
        return b"".join(
            [_TYPE_BYTE[FRAME_SESSION], _text(packet.sender_addr), _U8.pack(packet.step), rnd, _U32.pack(packet.seq)]
        )
    raise MalformedFrame("unknown packet type %r" % type(packet).__name__)


def decode_frame(raw: bytes):
    if not raw:
        raise MalformedFrame("empty")
    ftype = raw[0]
    try:
        if ftype == FRAME_RREQ:  # one flat pass: _text_at and _box_at inlined
            off = 3 + _U16.unpack_from(raw, 1)[0]
            sender = raw[3:off].decode()
            start = off + 2
            off = start + _U16.unpack_from(raw, off)[0]
            s_addr = raw[start:off].decode()
            (s_seqno,) = _U32.unpack_from(raw, off)
            header_end = off + _U32.size
            mutable = Totals._make(_RREQ_TOTALS.unpack_from(raw, header_end))
            start = header_end + _RREQ_TOTALS.size + 2
            off = start + _U16.unpack_from(raw, start - 2)[0]
            if off - start < NONCE_LEN + TAG_LEN:
                raise MalformedFrame("sealed box too short")
            pkt = _frozen(
                RreqPacket,
                {
                    "sender_addr": sender,
                    "s_addr": s_addr,
                    "s_seqno": s_seqno,
                    "mutable": mutable,
                    "sealed": raw[start:off],
                    "header": raw[:header_end],  # the bytes the seal binds, as read
                },
            )
        elif ftype == FRAME_RREP:
            sender, off = _text_at(raw, 1)
            sealed, off = _box_at(raw, off)
            pkt = RrepPacket(sender, sealed)
        elif ftype == FRAME_REP:
            fields, off = _round_at(raw, 1)
            sealed, off = _box_at(raw, off)
            reporter, off = _text_at(raw, off)
            pkt = RepPacket(*fields, sealed, reporter)
        elif ftype == FRAME_SESSION:
            sender, off = _text_at(raw, 1)
            (step,) = _U8.unpack_from(raw, off)
            fields, off = _round_at(raw, off + 1)
            (seq,) = _U32.unpack_from(raw, off)
            off += _U32.size
            pkt = SessionFrame(sender, step, *fields, seq)
        else:
            raise MalformedFrame("unknown frame type %d" % ftype)
    except _DECODE_ERRORS as exc:
        raise MalformedFrame(str(exc)) from None
    _done(raw, off)
    return pkt
