import random

import pytest

from secroute import frames
from secroute.crypto import SealedBox, seal
from secroute.errors import MalformedFrame

KEY = b"q" * 32


def sample_rreq():
    imm = frames.RreqImmutable("S", 7, 3, "D", 0, 16)
    body = frames.RreqBody(imm, ("A",), b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)
    return frames.RreqPacket(
        sender_addr="A",
        sender_seqno=12,
        b_id=3,
        mutable=frames.RreqMutable(1, 4.25, 1, 10.0, 2.0),
        sealed=seal(KEY, body.to_bytes()),
    )


def sample_rrep():
    info = frames.RrepInfo("S", 7, "D", 0, ("A", "B"))
    body = frames.RrepBody(info, b"\x04" * 32, None, b"\x05" * 32)
    return frames.RrepPacket("D", 1, seal(KEY, body.to_bytes()))


def sample_rep():
    return frames.RepPacket("S", 7, "D", 0, seal(KEY, b"\x01"), ("A", "B"))


def sample_session():
    return frames.SessionFrame("B1", 100, b'{"seq": 1}')


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
    imm = frames.RreqImmutable("S", 1, 2, "D", 3, 8)
    body = frames.RreqBody(imm, (), None, b"\x09" * 32, b"\x0a" * 32)
    assert frames.RreqBody.from_bytes(body.to_bytes()) == body


def test_rrep_body_inner_round_trip():
    info = frames.RrepInfo("S", 1, "D", 2, ())
    body = frames.RrepBody(info, b"\x0b" * 32, b"\x0c" * 32, None)
    assert frames.RrepBody.from_bytes(body.to_bytes()) == body


def test_truncated_bytes_rejected():
    raw = frames.encode_frame(sample_rreq())
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
        frames.RreqBody(frames.RreqImmutable("S", 7, 3, "D", 0, 16), ("A", "B"), b"\x01" * 32, b"\x02" * 32, b"\x03" * 32),
        frames.RreqBody(frames.RreqImmutable("S", 1, 2, "D", 3, 8), (), None, b"\x09" * 32, b"\x0a" * 32),
        frames.RrepBody(frames.RrepInfo("S", 7, "D", 0, ("A", "B")), b"\x04" * 32, None, b"\x05" * 32),
        frames.RrepBody(frames.RrepInfo("S", 1, "D", 2, ("C",)), b"\x0b" * 32, b"\x0c" * 32, None),
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
            type(body).from_bytes(blob)
            decoded += 1
        except MalformedFrame:
            pass
    assert 0 < decoded < 5_000  # some edits keep the layout, most break it
