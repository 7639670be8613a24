"""Insider fuzzing on the diamond.

After the diamond's honest run, one keyed node delivers frames of its own
making to the others: route requests and replies sealed under its own
group key, route errors whose code it seals under its own pairwise key
with the route's source, bound to the round and reporter they name, and
SESSION frames.  Names come from the topology plus ids nobody holds keys
for; round numbers and sequence numbers include 0 and u32 max; the sealed
path totals include NaN and +-inf.  Whatever it sends, `run_until`
returns, every drop names a known reason, and the same frames give the
same report bytes.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from secroute import srdp
from secroute.cost import Totals
from secroute.crypto import MAC_LEN, seal
from secroute.frames import (
    RepPacket,
    RreqBody,
    RreqImmutable,
    RrepBody,
    RrepInfo,
    RrepPacket,
    SessionFrame,
    encode_frame,
    open_rreq,
    rep_aad,
    seal_rreq,
)
from secroute.harness import STEP_ACK, STEP_CLOUDLET, Harness, emit_report
from test_harness import diamond_cfg

NODES = ("S", "A", "B", "C", "D")
KNOWN_DROPS = frozenset(
    (
        "MalformedFrame",
        srdp.DUPLICATE,
        srdp.HOP_LIMIT,
        srdp.TWO_HOP_AUTH_FAIL,
        srdp.SEAL_OPEN_FAIL,
        srdp.CHAIN_MISMATCH,
        srdp.NOT_ON_ROUTE,
        srdp.Q_CHAIN_MISMATCH,
        srdp.NO_PAIRWISE_KEY,
    )
)
U32_MAX = 0xFFFFFFFF

names = st.sampled_from(NODES + ("ghost", ""))
u32s = st.sampled_from((0, 1, 2, U32_MAX)) | st.integers(0, U32_MAX)
u8s = st.sampled_from((0, 1, 2, 16, 0xFF)) | st.integers(0, 0xFF)
clear_f64 = st.sampled_from((0.0, float("nan"), float("inf"), float("-inf"))) | st.floats()
digests = st.sampled_from((b"\x00" * 32,)) | st.binary(min_size=32, max_size=32)
tags = st.sampled_from((b"\x00" * MAC_LEN,)) | st.binary(min_size=MAC_LEN, max_size=MAC_LEN)
paths = st.lists(names, max_size=4).map(tuple)
totals = st.builds(Totals, u8s, clear_f64, clear_f64, clear_f64)
# A MAC field: absent, arbitrary bytes, or "keyed", laid down under the key
# the insider shares with the receiver, so the receiver's own check passes.
macs = st.none() | tags | st.just("keyed")

# Each spec is (kind, receiver, fields); `deliver` builds the frame with the
# insider's keys.  A request is broadcast, so it has no receiver.
specs = st.one_of(
    st.tuples(st.just("rreq-own"), st.none(), st.tuples(st.sampled_from(NODES), totals)),
    st.tuples(
        st.just("rreq"),
        st.none(),
        st.tuples(st.builds(RreqImmutable, names, u32s, names, u8s), paths, st.none() | tags, tags, digests, totals),
    ),
    st.tuples(st.just("rrep"), names, st.tuples(st.builds(RrepInfo, names, u32s, names, paths), digests, macs, macs)),
    st.tuples(st.just("rep"), names, st.tuples(names, u32s, names, u8s, names)),
    st.tuples(
        st.just("session"), names, st.tuples(st.sampled_from((STEP_CLOUDLET, STEP_ACK)) | u8s, names, u32s, names, u32s)
    ),
)


def deliver(h: Harness, insider: str, spec) -> None:
    """Send the frame `spec` describes from `insider`, then run to quiescence."""
    kind, to, fields = spec
    proto = h.protos[insider]
    keys = proto.keys
    if kind == "rreq-own":
        dest, totals = fields
        if dest == insider:
            return
        body = open_rreq(keys.group_key, proto.originate_rreq(dest))
        h.sim.broadcast(insider, encode_frame(seal_rreq(keys.group_key, dataclasses.replace(body, totals=totals))))
    elif kind == "rreq":
        imm, path, mac_prev, mac_curr, chain_h, totals = fields
        body = RreqBody(imm, path, mac_prev, mac_curr, chain_h, totals)
        h.sim.broadcast(insider, encode_frame(seal_rreq(keys.group_key, body)))
    elif kind == "rrep":
        info, q, mac_prev, mac_curr = fields
        key = keys.pairwise_key(to)
        mac_prev, mac_curr = (
            (srdp.rrep_hop_mac(key, info, q) if key else None) if m == "keyed" else m for m in (mac_prev, mac_curr)
        )
        body = RrepBody(info, q, mac_prev, mac_curr)
        h.sim.unicast(insider, to, encode_frame(RrepPacket(seal(keys.group_key, body.to_bytes()))))
    elif kind == "rep":
        s_addr, s_seqno, d_addr, code, reporter = fields
        key = keys.pairwise_key(s_addr) or b"\x00" * 32
        sealed = seal(key, bytes([code]), rep_aad(s_addr, s_seqno, d_addr, reporter))
        h.sim.unicast(insider, to, encode_frame(RepPacket(s_addr, s_seqno, d_addr, sealed, reporter)))
    else:
        h.sim.unicast(insider, to, encode_frame(SessionFrame(*fields)))
    h.sim.run_until()


def run_insider(insider: str, frames) -> Harness:
    h = Harness(diamond_cfg(cloudlets=2))
    h.run()
    for spec in frames:
        deliver(h, insider, spec)
    return h


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NODES), st.lists(specs, min_size=1, max_size=4))
@example("B", [("rreq-own", None, ("D", Totals(0, float("nan"), float("inf"), float("-inf"))))])
@example("A", [("rreq-own", None, ("D", Totals(1, float("-inf"), float("nan"), float("inf"))))])
@example("C", [("rrep", "S", (RrepInfo("S", U32_MAX, "D", ("C", "ghost")), b"\x00" * 32, "keyed", None))])
@example("B", [("rep", "A", ("S", 1, "D", srdp.LINK_BREAK, "B"))])
@example("A", [("session", "B", (STEP_CLOUDLET, "S", 1, "D", U32_MAX)), ("session", "S", (STEP_ACK, "S", 0, "D", 0))])
def test_insider_frames_never_crash_a_run(insider, frames):
    h = run_insider(insider, frames)
    reasons = {e["reason"] for e in h.sim.trace if e["ev"] == "drop"}
    assert reasons <= KNOWN_DROPS, reasons - KNOWN_DROPS
    report = emit_report(h._report())
    assert emit_report(run_insider(insider, frames)._report()) == report
