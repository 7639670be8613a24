"""Hop MACs travel as 16-byte tags (`crypto.MAC_LEN`): the leftmost 16
bytes of the HMAC-SHA256 output.  A MAC field of any other length does
not decode, a tag with any one byte changed fails the two-hop check at
every kind of hop that makes it, and an RREQ copy is as long as
docs/wire-format.md says."""

import dataclasses
import re
from pathlib import Path

import pytest

from secroute import frames, srdp
from secroute.cost import Totals
from secroute.crypto import MAC_LEN, mac, open_box, seal
from secroute.errors import MalformedFrame
from secroute.frames import RreqBody, RrepBody, RrepPacket, decode_frame, encode_frame, open_rreq
from secroute.harness import provision
from secroute.topology import load_topology

WIRE_FORMAT = Path(__file__).resolve().parent.parent / "docs" / "wire-format.md"

LINE = """
node S broker
node A relay
node B relay
node D coordinator
link S A 10 2
link A B 10 2
link B D 10 2
"""


def network(text):
    topo = load_topology(text)
    stores = provision(topo, 64, 8, seed=0)[0]
    return {n: srdp.SrdpNode(stores[n]) for n in topo.nodes}


def test_hop_macs_are_the_leftmost_bytes_of_the_full_mac():
    key = b"k" * 32
    rreq = frames.RreqImmutable("S", 1, "D", 16)
    section, h = frames.path_bytes(("A",)), b"\x03" * 32
    assert MAC_LEN == 16
    assert srdp.rreq_hop_mac(key, rreq, section, h) == mac(key, [rreq.to_bytes(), section, h])[:16]
    info = frames.RrepInfo("S", 1, "D", ("A", "B"))
    assert srdp.rrep_hop_mac(key, info, h) == mac(key, [info.to_bytes(), h])[:16]


# -- MAC fields of another length ----------------------------------------------

RREQ_BODY = RreqBody(frames.RreqImmutable("S", 7, "D", 16), ("A",), b"\x01" * 16, b"\x02" * 16, b"\x03" * 32, Totals(1))
RREP_BODY = RrepBody(frames.RrepInfo("S", 7, "D", ("A", "B")), b"\x04" * 32, b"\x05" * 16, b"\x06" * 16)


def resized(raw: bytes, tag: bytes, length: int) -> bytes:
    """`raw` with its one copy of `tag` written at `length` bytes; the
    filler is 0xAA, which no flag byte can be mistaken for."""
    assert raw.count(tag) == 1
    return raw.replace(tag, b"\xaa" * length)


@pytest.mark.parametrize("length", [15, 17, 32])
@pytest.mark.parametrize(
    "body, field",
    [(RREQ_BODY, "mac_prev"), (RREQ_BODY, "mac_curr"), (RREP_BODY, "mac_prev"), (RREP_BODY, "mac_curr")],
    ids=["rreq-mac_prev", "rreq-mac_curr", "rrep-mac_prev", "rrep-mac_curr"],
)
def test_mac_field_of_another_length_rejected(body, field, length):
    raw = resized(body.to_bytes(), getattr(body, field), length)
    with pytest.raises(MalformedFrame):
        if isinstance(body, RreqBody):
            RreqBody.from_bytes(raw, "S", 7)
        else:
            RrepBody.from_bytes(raw)


# -- one changed byte of mac_prev --------------------------------------------


def flipped(tag: bytes, i: int) -> bytes:
    return tag[:i] + bytes([tag[i] ^ 0x80]) + tag[i + 1 :]


def rewrapped_rreq(nodes, sender, pkt, **changes):
    """`pkt`, as `sender` sealed it, with its body's fields changed."""
    key = nodes[sender].keys.group_key
    body = dataclasses.replace(open_rreq(key, pkt), **changes)
    return frames.seal_rreq(key, body)


@pytest.mark.parametrize("at", ["relay", "destination"])
def test_any_changed_mac_prev_byte_fails_the_rreq_check(at):
    """On S-A-B-D, B checks the MAC S laid down (carried by A) and D the
    one A laid down (carried by B); changing any one of its 16 bytes is a
    TwoHopAuthFail there."""
    nodes = network(LINE)
    from_a = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    if at == "relay":
        sender, receiver, pkt = "A", "B", from_a
    else:
        sender, receiver, pkt = "B", "D", nodes["B"].process_rreq(from_a, "A", 10, 2)[1]
    tag = open_rreq(nodes[sender].keys.group_key, pkt).mac_prev
    assert len(tag) == MAC_LEN
    for i in range(MAC_LEN):
        fresh = network(LINE)[receiver]
        bad = rewrapped_rreq(nodes, sender, pkt, mac_prev=flipped(tag, i))
        assert fresh.process_rreq(decode_frame(encode_frame(bad)), sender, 10, 2) == ("drop", srdp.TWO_HOP_AUTH_FAIL)
        assert [r for r, _ in fresh.detections] == [srdp.TWO_HOP_AUTH_FAIL]
    kept = network(LINE)[receiver].process_rreq(pkt, sender, 10, 2)[0]
    assert kept == ("forward" if at == "relay" else "collected")


def test_any_changed_mac_prev_byte_fails_the_rrep_check():
    """D's reply to S over B and A: A checks the MAC D laid down for it,
    carried by B; changing any one of its 16 bytes is a TwoHopAuthFail."""
    nodes = network(LINE)
    pkt = nodes["A"].process_rreq(nodes["S"].originate_rreq("D"), "S", 10, 2)[1]
    pkt = nodes["B"].process_rreq(pkt, "A", 10, 2)[1]
    assert nodes["D"].process_rreq(pkt, "B", 10, 2)[0] == "collected"
    reply = nodes["D"].finalize_destination(("S", 1))
    from_b = nodes["B"].process_rrep(reply, "D")[1]
    key = nodes["B"].keys.group_key
    body = RrepBody.from_bytes(open_box(key, from_b.sealed))
    assert len(body.mac_prev) == MAC_LEN
    for i in range(MAC_LEN):
        bad = RrepPacket(seal(key, dataclasses.replace(body, mac_prev=flipped(body.mac_prev, i)).to_bytes()))
        fresh = network(LINE)["A"]
        assert fresh.process_rrep(bad, "B") == ("drop", srdp.TWO_HOP_AUTH_FAIL)
        assert [r for r, _ in fresh.detections] == [srdp.TWO_HOP_AUTH_FAIL]
    assert network(LINE)["A"].process_rrep(from_b, "B")[0] == "forward"


# -- the length docs/wire-format.md gives ----------------------------------------


def documented_rreq_length():
    """The base and the mac_prev bytes of the RREQ length formula in
    docs/wire-format.md."""
    text = " ".join(WIRE_FORMAT.read_text().split())
    found = re.search(
        r"`(\d+) \+ len\(s_addr\) \+ len\(d_addr\) \+ Σ \(2 \+ len\(id_i\)\)` bytes, plus (\d+) when k ≥ 1", text
    )
    assert found, "docs/wire-format.md states no RREQ length"
    return int(found.group(1)), int(found.group(2))


@pytest.mark.parametrize("k", range(6))
def test_rreq_copy_length_is_the_documented_one(k):
    """The copy the k-th relay of a line forwards (k = 0: the source's)
    is as long as the documented formula says, for ids of several
    lengths, non-ASCII ones included."""
    relays = ["R", "Nœud-é", "节点", "relay-three", "N4", "五"][:k]
    names = ["Src", *relays, "Dest-Ω"]
    text = "".join("node %s relay\n" % n for n in names)
    text += "".join("link %s %s 10 2\n" % pair for pair in zip(names, names[1:]))
    nodes = network(text)
    pkt = nodes["Src"].originate_rreq("Dest-Ω")
    for sender, relay in zip(names, relays):
        action = nodes[relay].process_rreq(decode_frame(encode_frame(pkt)), sender, 10, 2)
        assert action[0] == "forward"
        pkt = action[1]
    base, mac_prev = documented_rreq_length()
    expect = base + len("Src".encode()) + len("Dest-Ω".encode()) + sum(2 + len(r.encode()) for r in relays)
    assert len(encode_frame(pkt)) == expect + (mac_prev if k else 0)
    assert (base, mac_prev) == (115, MAC_LEN)
