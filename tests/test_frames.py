import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secroute import cost, crypto, frames
from secroute.crypto import seal
from secroute.errors import AuthFailure, MalformedFrame

KEY = b"q" * 32


SAMPLE_TOTALS = cost.Totals(1, 4.25, 10.0, 2.0)


def sample_rreq():
    imm = frames.RreqImmutable("S", 7, "D", 16)
    body = frames.RreqBody(imm, ("A",), b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, SAMPLE_TOTALS)
    return frames.seal_rreq(KEY, body)


def sample_rrep():
    info = frames.RrepInfo("S", 7, "D", ("A", "B"))
    body = frames.RrepBody(info, b"\x04" * 32, None, b"\x05" * 16)
    return frames.RrepPacket(seal(KEY, body.to_bytes()))


def sample_rep():
    return frames.RepPacket("S", 7, "D", seal(KEY, b"\x01"), "B")


def sample_session():
    return frames.SessionFrame(100, "S", 7, "D", 1)


def body_from_bytes(like, raw):
    """Decode `raw` as a body of `like`'s type.  An RREQ body takes its
    round's source and seqno from `like`, as a receiver takes them from
    the frame's clear header."""
    if isinstance(like, frames.RreqBody):
        return frames.RreqBody.from_bytes(raw, like.rreq.s_addr, like.rreq.s_seqno)
    return type(like).from_bytes(raw)


@pytest.mark.parametrize("make", [sample_rreq, sample_rrep, sample_rep, sample_session])
def test_round_trip(make):
    pkt = make()
    assert frames.decode_frame(frames.encode_frame(pkt)) == pkt


def test_body_round_trips():
    pkt = sample_rreq()
    raw = frames.encode_frame(pkt)
    decoded = frames.decode_frame(raw)
    assert frames.encode_frame(decoded) == raw


def test_rreq_body_inner_round_trip():
    imm = frames.RreqImmutable("S", 1, "D", 8)
    body = frames.RreqBody(imm, (), None, b"\x09" * 16, b"\x0a" * 32, cost.Totals())
    assert frames.RreqBody.from_bytes(body.to_bytes(), "S", 1) == body


def test_sealed_rreq_opens_to_its_body():
    imm = frames.RreqImmutable("S", 7, "D", 16)
    body = frames.RreqBody(imm, ("A",), b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, SAMPLE_TOTALS)
    pkt = frames.decode_frame(frames.encode_frame(sample_rreq()))
    assert frames.open_rreq(KEY, pkt) == body
    assert pkt.round_id() == imm.round_id()


def test_sealed_rreq_under_another_round_rejected():
    """A body sealed for one round does not open under another round's
    header: the body names no round of its own, so the header it was sealed
    with is the only round it can belong to."""
    body = frames.RreqBody(frames.RreqImmutable("S", 4, "D", 16), (), None, b"\x02" * 16, b"\x03" * 32, cost.Totals())
    sealed = frames.seal_rreq(KEY, body)
    assert frames.open_rreq(KEY, sealed) == body
    for moved in (dataclasses.replace(sealed, s_seqno=3), dataclasses.replace(sealed, s_addr="T")):
        with pytest.raises(AuthFailure):
            frames.open_rreq(KEY, moved)


@pytest.mark.parametrize(
    "sender,source,path", [("A", "S", ("A",)), ("节点", "Nœud-é", ("A", "B", "C")), ("S", "S", ())]
)
def test_rreq_frame_length_matches_body_sealed_layout(sender, source, path):
    """An RREQ frame is its clear header and the box around its body
    plaintext, each as long as docs/wire-format.md lays it out; delivery
    times and trace sizes depend on these lengths.  It names no sender, so
    the hop that seals it, here under a key of its own, adds no bytes."""
    imm = frames.RreqImmutable(source, 7, "D", 16)
    totals = cost.Totals(len(path))
    body = frames.RreqBody(imm, path, None if not path else b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, totals)
    pkt = frames.seal_rreq(crypto.hash_bytes(sender.encode()), body)
    mac_prev = 1 if not path else 1 + 16
    # d_addr, max_hops, path, mac_prev, mac_curr (16) and h (32), then path_cost, bw and nd (8 each)
    plaintext = 2 + 1 + 1 + len(frames.path_bytes(path)) + mac_prev + 16 + 32 + 24
    header = 1 + 2 + len(source.encode()) + 4  # type, s_addr, s_seqno
    # then the box's length (2), nonce (12), plaintext and tag (16)
    assert len(frames.encode_frame(pkt)) == header + 2 + 12 + plaintext + 16


def test_rrep_body_inner_round_trip():
    info = frames.RrepInfo("S", 1, "D", ())
    body = frames.RrepBody(info, b"\x0b" * 32, b"\x0c" * 16, None)
    assert frames.RrepBody.from_bytes(body.to_bytes()) == body


def test_truncated_bytes_rejected():
    for raw in (frames.encode_frame(sample_rreq()), frames.encode_frame(sample_session())):
        for cut in range(len(raw)):
            with pytest.raises(MalformedFrame):
                frames.decode_frame(raw[:cut])


def test_unknown_frame_type_rejected():
    with pytest.raises(MalformedFrame):
        frames.decode_frame(b"\x09rest")


def test_empty_rejected():
    with pytest.raises(MalformedFrame):
        frames.decode_frame(b"")


def test_random_bytes_never_crash():
    rng = random.Random(17)
    decoded = 0
    for _ in range(10_000):
        raw = rng.randbytes(rng.randint(0, 200))
        try:
            frames.decode_frame(raw)
            decoded += 1
        except MalformedFrame:
            pass
    # Nearly all random strings are garbage; the point is no other error type.
    assert decoded < 100


def test_trailing_bytes_rejected():
    raw = frames.encode_frame(sample_session()) + b"\x00"
    with pytest.raises(MalformedFrame):
        frames.decode_frame(raw)


def mutate(rng, raw):
    """One random edit of raw: flip, overwrite, insert, delete or truncate."""
    data = bytearray(raw)
    op = rng.randrange(5)
    at = rng.randrange(len(data) + 1)
    if op == 0 and data:
        data[at % len(data)] ^= 1 << rng.randrange(8)
    elif op == 1 and data:
        data[at % len(data)] = rng.choice((0, 1, 0x7F, 0x80, 0xFF, rng.randrange(256)))
    elif op == 2:
        data[at:at] = rng.randbytes(rng.randint(1, 8))
    elif op == 3:
        del data[at : at + rng.randint(1, 8)]
    else:
        del data[at:]
    return bytes(data)


@pytest.mark.parametrize(
    "body",
    [
        frames.RreqBody(
            frames.RreqImmutable("S", 7, "D", 16), ("A", "B"), b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, SAMPLE_TOTALS
        ),
        frames.RreqBody(frames.RreqImmutable("S", 1, "D", 8), (), None, b"\x09" * 16, b"\x0a" * 32, cost.Totals()),
        frames.RrepBody(frames.RrepInfo("S", 7, "D", ("A", "B")), b"\x04" * 32, None, b"\x05" * 16),
        frames.RrepBody(frames.RrepInfo("S", 1, "D", ("C",)), b"\x0b" * 32, b"\x0c" * 16, None),
    ],
    ids=["rreq", "rreq-origin", "rrep", "rrep-last"],
)
def test_mutated_bodies_raise_only_malformed(body):
    rng = random.Random(23)
    raw = body.to_bytes()
    decoded = 0
    for _ in range(5_000):
        blob = raw
        for _ in range(rng.randint(1, 3)):
            blob = mutate(rng, blob)
        try:
            body_from_bytes(body, blob)
            decoded += 1
        except MalformedFrame:
            pass
    assert 0 < decoded < 5_000  # some edits keep the layout, most break it


# -- pinned wire bytes ---------------------------------------------------
#
# A round trip cannot catch an encoder and decoder that change the layout
# together; these bytes can.  Each is written out field by field from the
# tables in docs/wire-format.md: `text` "A" is 000141, `text` "S" 000153,
# `text` "D" 000144, and the box is its u16 length (30 = 001e), then its
# bytes.

BOX = b"\x11" * 12 + b"ct" + b"\x22" * 16
BOX_BLOB = "001e" + "11" * 12 + "6374" + "22" * 16
NON_ASCII_IMM = frames.RreqImmutable("Nœud-é", 0xFFFFFFFF, "D", 255)

GOLDEN = {
    "rreq": (frames.RreqPacket("S", 7, BOX), "01" "000153" "00000007" + BOX_BLOB),  # type, s_addr, s_seqno, sealed
    "rrep": (frames.RrepPacket(BOX), "02" + BOX_BLOB),  # type, sealed
    "rep": (
        frames.RepPacket("S", 7, "D", BOX, "B"),
        "03" "000153" "00000007" "000144"  # type, s_addr, s_seqno, d_addr
        + BOX_BLOB
        + "000142",  # reporter
    ),
    "session": (
        frames.SessionFrame(100, "S", 7, "D", 1),
        "04" "64" "000153" "00000007" "000144" "00000001",  # type, step, s_addr, s_seqno, d_addr, seq
    ),
}

GOLDEN_BODIES = {
    "rreq-body": (
        frames.RreqBody(
            NON_ASCII_IMM, ("A", "节点"), b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, cost.Totals(2, 4.25, 10.0, 2.0)
        ),
        "000144" "ff"  # d_addr, max_hops
        "0002" "000141" "0006e88a82e782b9"  # path ("A", "节点")
        "01" + "01" * 16 + "02" * 16 + "03" * 32  # mac_prev (present), mac_curr, h
        + "4011000000000000" "4024000000000000" "4000000000000000",  # path_cost, bw, nd
    ),
    "rrep-body": (
        frames.RrepBody(frames.RrepInfo("S", 7, "D", ("A", "B")), b"\x04" * 32, None, b"\x05" * 16),
        "000153" "00000007" "000144"  # s_addr, s_seqno, d_addr
        "0002" "000141" "000142"  # route
        + "04" * 32  # q
        + "00" "01" + "05" * 16,  # mac_prev (absent), mac_curr (present)
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_frame_bytes_pinned(name):
    pkt, hexed = GOLDEN[name]
    assert frames.encode_frame(pkt).hex() == hexed
    assert frames.decode_frame(bytes.fromhex(hexed)) == pkt


@pytest.mark.parametrize("name", GOLDEN_BODIES)
def test_body_bytes_pinned(name):
    body, hexed = GOLDEN_BODIES[name]
    assert body.to_bytes().hex() == hexed
    assert body_from_bytes(body, bytes.fromhex(hexed)) == body


def test_immutable_and_path_bytes_pinned():
    # s_addr "Nœud-é" (8 UTF-8 bytes), s_seqno, d_addr, max_hops
    assert NON_ASCII_IMM.to_bytes().hex() == "0008" "4ec59375642dc3a9" "ffffffff" "000144" "ff"
    assert frames.path_bytes(("A", "节点", "")).hex() == "00030001410006e88a82e782b90000"


def test_immutable_bytes_derived_once_per_instance():
    imm = frames.RreqImmutable("S", 1, "D", 8)
    assert imm.to_bytes() is imm.to_bytes()
    changed = dataclasses.replace(imm, s_seqno=9)
    assert changed.to_bytes() != imm.to_bytes()
    assert changed.to_bytes() == frames.RreqImmutable("S", 9, "D", 8).to_bytes()
    # An opened instance keeps the bytes it was read from; a replace of it,
    # as the rreq-field-tamper adversary makes, derives its own, and so do
    # the body and the clear header sealed around it.
    body = frames.open_rreq(KEY, frames.decode_frame(frames.encode_frame(sample_rreq())))
    opened = body.rreq
    assert opened.to_bytes() == frames.RreqImmutable("S", 7, "D", 16).to_bytes()
    for field, value, fresh in [
        ("max_hops", 17, frames.RreqImmutable("S", 7, "D", 17)),
        ("d_addr", "É", frames.RreqImmutable("S", 7, "É", 16)),
        ("s_addr", "", frames.RreqImmutable("", 7, "D", 16)),
        ("s_seqno", 9, frames.RreqImmutable("S", 9, "D", 16)),
    ]:
        lie = dataclasses.replace(opened, **{field: value})
        assert lie.to_bytes() == fresh.to_bytes() != opened.to_bytes()
        sealed = frames.seal_rreq(KEY, dataclasses.replace(body, rreq=lie))
        expect = frames.seal_rreq(KEY, dataclasses.replace(body, rreq=fresh))
        assert frames.encode_frame(sealed) == frames.encode_frame(expect)


# -- rejected inputs -------------------------------------------------------


def _rreq_body_raw(flag: int) -> bytes:
    imm = frames.RreqImmutable("S", 1, "D", 8)
    raw = frames.RreqBody(imm, ("A",), b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, SAMPLE_TOTALS).to_bytes()
    at = len(raw) - 1 - 16 - 16 - 32 - 24  # mac_prev's flag, then mac_prev, mac_curr, h and the totals
    assert raw[at] == 1
    return raw[:at] + bytes([flag]) + raw[at + 1 :]


def _rrep_body_raw(flag: int, which: int) -> bytes:
    info = frames.RrepInfo("S", 1, "D", ("A",))
    raw = frames.RrepBody(info, b"\x04" * 32, b"\x05" * 16, b"\x06" * 16).to_bytes()
    at = len(info.to_bytes()) + 32 + which * 17  # past q, then past mac_prev's flag and tag
    assert raw[at] == 1
    return raw[:at] + bytes([flag]) + raw[at + 1 :]


@pytest.mark.parametrize("flag", [2, 0x7F, 0x80, 0xFF])
def test_opt_digest_flag_other_than_0_or_1_rejected(flag):
    for decode, raw in [
        (_rreq_body_from_bytes, _rreq_body_raw(flag)),
        (frames.RrepBody.from_bytes, _rrep_body_raw(flag, 0)),
        (frames.RrepBody.from_bytes, _rrep_body_raw(flag, 1)),
    ]:
        with pytest.raises(MalformedFrame, match="opt-mac flag"):
            decode(raw)
    assert _rreq_body_from_bytes(_rreq_body_raw(1)).mac_prev == b"\x01" * 16


def _rreq_body_from_bytes(raw: bytes) -> frames.RreqBody:
    return frames.RreqBody.from_bytes(raw, "S", 1)


def _patched(raw: bytes, old: bytes, new: bytes) -> bytes:
    assert raw.count(old) == 1
    return raw.replace(old, new)


REJECTED = {
    "bad-utf8-text": (
        frames.decode_frame,
        _patched(frames.encode_frame(frames.SessionFrame(1, "AB", 1, "D", 0)), b"AB", b"\xc3\x28"),
    ),
    "bad-utf8-path": (
        frames.RrepBody.from_bytes,
        _patched(frames.RrepBody(frames.RrepInfo("S", 7, "D", ("Z",)), b"\x04" * 32, None, None).to_bytes(), b"Z", b"\xff"),
    ),
    "path-count-past-end": (frames.RrepBody.from_bytes, frames.RrepInfo("S", 7, "D", ()).to_bytes()[:-2] + b"\xff\xff"),
    "short-box": (
        frames.decode_frame,
        frames.encode_frame(frames.RrepPacket(b"\x11" * 12 + b"\x22" * 15)),
    ),
    "body-bad-utf8": (frames.RrepBody.from_bytes, b"\x00\x01\xff"),
    "rrep-body-trailing": (frames.RrepBody.from_bytes, GOLDEN_BODIES["rrep-body"][0].to_bytes() + b"\x00"),
    "rreq-body-trailing": (_rreq_body_from_bytes, GOLDEN_BODIES["rreq-body"][0].to_bytes() + b"\x00"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_inputs(name):
    decode, raw = REJECTED[name]
    with pytest.raises(MalformedFrame):
        decode(raw)


# -- properties --------------------------------------------------------------

ids = st.text(max_size=12)
u8 = st.integers(0, 0xFF)
u32 = st.integers(0, 0xFFFFFFFF)
f64 = st.floats(allow_nan=False)
digest = st.binary(min_size=32, max_size=32)
tag = st.binary(min_size=crypto.MAC_LEN, max_size=crypto.MAC_LEN)
paths = st.lists(ids, max_size=40).map(tuple)
LONG_PATH = tuple("N%d" % i for i in range(300))
boxes = st.binary(min_size=28, max_size=92)


def rreq_body(rreq, path, mac_prev, mac_curr, h, sent=(0.0, 0.0, 0.0)):
    """An RREQ body whose totals are `sent`, the path_cost, bw and nd it
    carries, with the hop count its path gives."""
    return frames.RreqBody(rreq, path, mac_prev, mac_curr, h, cost.Totals(len(path), *sent))


immutables = st.builds(frames.RreqImmutable, ids, u32, ids, u8)
rreq_bodies = st.builds(rreq_body, immutables, paths, st.none() | tag, tag, digest, st.tuples(f64, f64, f64))
infos = st.builds(frames.RrepInfo, ids, u32, ids, paths)
rrep_bodies = st.builds(frames.RrepBody, infos, digest, st.none() | tag, st.none() | tag)
packets = st.one_of(
    st.builds(frames.RreqPacket, ids, u32, boxes),
    st.builds(frames.RrepPacket, boxes),
    st.builds(frames.RepPacket, ids, u32, ids, boxes, ids),
    st.builds(frames.SessionFrame, u8, ids, u32, ids, u32),
)
bodies = rreq_bodies | rrep_bodies


@settings(max_examples=300)
@given(packets)
@example(frames.RepPacket("", 0xFFFFFFFF, "é", BOX, "节点"))
@example(frames.RreqPacket("Nœud", 0xFFFFFFFF, BOX))
def test_frame_round_trip_property(pkt):
    raw = frames.encode_frame(pkt)
    assert frames.decode_frame(raw) == pkt
    assert frames.encode_frame(frames.decode_frame(raw)) == raw
    if isinstance(pkt, frames.RreqPacket):
        # What the seal binds is the frame's prefix, as sent and as read.
        assert raw.startswith(pkt.header)
        assert frames.decode_frame(raw).header == pkt.header


@settings(max_examples=300)
@given(bodies)
@example(rreq_body(NON_ASCII_IMM, LONG_PATH, None, b"\x00" * 16, b"\xff" * 32, (-0.0, float("inf"), 1e-9)))
@example(frames.RrepBody(frames.RrepInfo("", 0xFFFFFFFF, "", LONG_PATH), b"\x00" * 32, None, None))
def test_body_round_trip_property(body):
    raw = body.to_bytes()
    assert body_from_bytes(body, raw) == body
    assert body_from_bytes(body, raw).to_bytes() == raw


@given(packets)
def test_every_strict_frame_prefix_rejected(pkt):
    raw = frames.encode_frame(pkt)
    for cut in range(len(raw)):
        with pytest.raises(MalformedFrame):
            frames.decode_frame(raw[:cut])


@given(bodies)
def test_every_strict_body_prefix_rejected(body):
    raw = body.to_bytes()
    for cut in range(len(raw)):
        with pytest.raises(MalformedFrame):
            body_from_bytes(body, raw[:cut])


LONG = "x" * 0x10000


@pytest.mark.parametrize(
    "encode",
    [
        lambda: frames.encode_frame(frames.RreqPacket(LONG, 1, BOX)),
        lambda: frames.encode_frame(frames.SessionFrame(1, "S", 1, LONG, 0)),  # the round it names
        lambda: frames.encode_frame(frames.RrepPacket(b"\x00" * 12 + b"\x00" * 0xFFF0 + b"\x22" * 16)),
        lambda: frames.RrepInfo("S", 1, "D", ("A", LONG)).to_bytes(),
        lambda: frames.RreqImmutable(LONG, 1, "D", 8).to_bytes(),
        lambda: frames.path_bytes(("A",) * 0x10000),
    ],
    ids=["text", "payload", "box", "path-entry", "immutable", "path-count"],
)
def test_oversized_section_rejected_on_encode(encode):
    with pytest.raises(MalformedFrame):
        encode()


# -- path sections derived from the bytes that arrived ------------------------

short_paths = st.lists(ids, max_size=20).map(tuple)


@settings(max_examples=300)
@given(immutables, short_paths, st.none() | tag, ids)
@example(NON_ASCII_IMM, (), None, "")
@example(NON_ASCII_IMM, ("",), b"\x01" * 16, "节点")
@example(NON_ASCII_IMM, ("Nœud-é", "", "节点"), None, "A")
@example(frames.RreqImmutable("节点", 0, "", 0), tuple("Nœud-%d" % k for k in range(6)), b"\x01" * 16, "é")
def test_derived_path_sections_equal_their_encodings(imm, path, mac_prev, node):
    """The sections a relay MACs, derived from the section it received,
    are the bytes `path_bytes` gives.  Every byte run the RREQ decoders
    store is the slice they read, and equals what the encoder gives for the
    same fields: the path section, the frame's clear header, the body's
    `(d_addr, max_hops)` and the round bytes `open_rreq` stores."""
    section = frames.path_bytes(path)
    assert frames.extend_path_bytes(section, node) == frames.path_bytes(path + (node,))
    assert frames.parent_path_bytes(section, path) == frames.path_bytes(path[:-1])
    body = rreq_body(imm, path, mac_prev, b"\x02" * 16, b"\x03" * 32)
    kept = frames.RreqBody.from_bytes(body.to_bytes(), imm.s_addr, imm.s_seqno)
    assert vars(kept)["path_section"] == section == frames.path_bytes(kept.path)
    encoded = dataclasses.replace(imm)  # derives its own bytes on first read
    assert vars(kept.rreq)["_body_head"] == encoded._body_head
    sealed = frames.seal_rreq(KEY, body).sealed
    raw = frames.encode_frame(frames.RreqPacket(imm.s_addr, imm.s_seqno, sealed))
    pkt = frames.decode_frame(raw)
    assert vars(pkt)["header"] == b"\x01" + encoded._header_tail == raw[: len(raw) - 2 - len(sealed)]
    assert frames.open_rreq(KEY, pkt).rreq.to_bytes() == encoded.to_bytes()


# -- packets the hot path builds without the generated __init__ ---------------


def rebuilt(value):
    """`value` rebuilt through the constructors: every frozen dataclass in
    it, nested ones included, comes from its generated `__init__`."""
    if dataclasses.is_dataclass(value):
        return type(value)(*(rebuilt(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return value


def assert_acts_as_constructed(pkt):
    twin = rebuilt(pkt)
    assert type(pkt) is type(twin)
    assert pkt == twin and twin == pkt and hash(pkt) == hash(twin) and repr(pkt) == repr(twin)
    assert dataclasses.replace(pkt) == twin and hash(dataclasses.replace(pkt)) == hash(twin)
    for f in dataclasses.fields(pkt):
        marker = object()
        changed = dataclasses.replace(pkt, **{f.name: marker})
        assert changed == dataclasses.replace(twin, **{f.name: marker}) != pkt
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pkt, f.name, getattr(twin, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(pkt, f.name)
    assert pkt == twin  # nothing above changed it


link_metrics = st.floats(min_value=1e-3, max_value=1e6)


@settings(max_examples=200)
@given(rreq_bodies, ids, link_metrics, link_metrics)
@example(rreq_body(NON_ASCII_IMM, LONG_PATH, None, b"\x00" * 16, b"\xff" * 32, (-0.0, 0.0, 0.0)), "", 1.0, 0.0)
def test_hot_path_packets_act_as_constructed(body, relay, link_bw, link_delay):
    """Every RREQ packet the hot path builds (sealed, decoded, opened and
    forwarded) equals, hashes, prints and `replace`s as the same values
    built by the constructors do, and refuses assignment."""
    sealed = frames.seal_rreq(KEY, body)
    decoded = frames.decode_frame(frames.encode_frame(sealed))
    opened = frames.open_rreq(KEY, decoded)
    advanced = cost.advance(opened.totals, link_bw, link_delay, cost.Weights(), False)
    new_path = opened.path + (relay,)
    h_new = crypto.hash_bytes(opened.h)
    section = frames.extend_path_bytes(opened.path_section, relay)
    plaintext = frames.rreq_plaintext(opened.rreq, section, opened.mac_curr, b"\x07" * 16, h_new, advanced)
    onward = frames.seal_rreq_plaintext(KEY, opened.rreq, plaintext)
    for pkt in (sealed, decoded, opened, opened.rreq, onward):
        assert_acts_as_constructed(pkt)
    assert type(opened.totals) is type(advanced) is cost.Totals
    # The spliced copy is the one sealed from a body built field by field.
    onward_body = frames.RreqBody(rebuilt(opened.rreq), new_path, opened.mac_curr, b"\x07" * 16, h_new, advanced)
    expected = frames.seal_rreq(KEY, onward_body)
    assert (onward, onward.header) == (expected, expected.header) and onward.header == decoded.header
    assert opened == body and decoded == sealed
    assert frames.open_rreq(KEY, onward) == onward_body
