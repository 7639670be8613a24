"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public entry points from the outside: each
wrapped function is replaced in every `secroute` module namespace that
holds it (so `srdp.seal`, `kdc.seal` and `crypto.seal` all record), and
each wrapped method is replaced on its class.  A wrapper records one span
per call (id, name, start, end, parent span id, sample id), adds the
call's duration to its parent's child time, and books its self time, that
is its duration minus the time its wrapped children took.

Counts that a layer metric needs beyond calls and self time (bytes, drop
reasons, failures) are taken from the wrapped call's arguments, result or
exception.  Nothing inside the package changes: `uninstall` puts every
original object back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from secroute import cost, crypto, frames, harness, kdc, session, sim, srdp, topology
from secroute.errors import EmptyCover

PACKAGE_MODULES = (cost, crypto, frames, harness, kdc, session, sim, srdp, topology)

# Spans kept for the written trace; counts and self times cover every call.
SPAN_CAP = 100_000

FRAME_TYPES = {
    frames.RreqPacket: "rreq",
    frames.RrepPacket: "rrep",
    frames.RepPacket: "rep",
    frames.SessionFrame: "session",
}

DROP_REASONS = (
    srdp.DUPLICATE,
    srdp.HOP_LIMIT,
    srdp.TWO_HOP_AUTH_FAIL,
    srdp.SEAL_OPEN_FAIL,
    srdp.HOP_COUNT_MISMATCH,
    srdp.CHAIN_MISMATCH,
    srdp.NOT_ON_ROUTE,
    srdp.Q_CHAIN_MISMATCH,
)


# -- observers: (counts, args, result, exc) -> None ---------------------


def _mac_bytes(counts, args, result, exc):
    counts["crypto.mac.bytes"] += sum(len(p) for p in args[1])


def _open_fail(counts, args, result, exc):
    if exc is not None:
        counts["crypto.open_box.fail"] += 1


def _chain_steps(counts, args, result, exc):
    counts["crypto.chain.steps"] += args[1]


# harness.provision hands a two-hop secret over the pairwise channel when
# open_broadcast raises, and to every non-neighbour of a sender whose
# build_broadcast raises EmptyCover; the observers below count both kinds
# of delivery, so the fallback share covers every two-hop secret.


def _broadcast_opened(counts, args, result, exc):
    counts["kdc.twohop.deliveries"] += 1
    if exc is not None:
        counts["kdc.twohop.fallback"] += 1


def _empty_cover(counts, args, result, exc):
    if isinstance(exc, EmptyCover):
        counts["kdc.empty_cover.senders"] += 1
        counts["kdc.empty_cover.revoked"] += len(args[2])


def _provisioned(counts, args, result, exc):
    # Each sender without a cover served all nodes but itself and its
    # revoked neighbours pairwise.
    senders = counts.pop("kdc.empty_cover.senders", 0)
    skipped = senders * (len(args[0].nodes) - 1) - counts.pop("kdc.empty_cover.revoked", 0)
    counts["kdc.twohop.deliveries"] += skipped
    counts["kdc.twohop.fallback"] += skipped


def _encoded(counts, args, result, exc):
    if result is not None:
        kind = FRAME_TYPES[type(args[0])]
        counts["frames.encode.calls." + kind] += 1
        counts["frames.encode.bytes." + kind] += len(result)


def _malformed(counts, args, result, exc):
    if exc is not None:
        counts["frames.malformed"] += 1


def _srdp_drop(counts, args, result, exc):
    if result is not None and result[0] == "drop":
        counts["srdp.drop." + result[1]] += 1


def _rreq_action(counts, args, result, exc):
    _srdp_drop(counts, args, result, exc)
    if result is not None and result[0] in ("forward", "collected"):
        counts["srdp.rreq_useful"] += 1


def _handshake(counts, args, result, exc):
    counts["session.handshakes"] += 1
    if exc is not None:
        counts["session.fail"] += 1


def _queue_depth(counts, args, result, exc):
    depth = len(args[0]._queue)
    if depth > counts["sim.queue_hwm"]:
        counts["sim.queue_hwm"] = depth


Observer = Optional[Callable[[Dict[str, float], tuple, Any, Optional[BaseException]], None]]

# (owner, attribute, span name, observer).  A module owner means "this
# function, in every package namespace that imported it".
TARGETS: Tuple[Tuple[Any, str, str, Observer], ...] = (
    (crypto, "mac", "crypto.mac", _mac_bytes),
    (crypto, "seal", "crypto.seal", None),
    (crypto, "open_box", "crypto.open_box", _open_fail),
    (crypto, "hash_bytes", "crypto.hash", None),
    (crypto, "chain", "crypto.chain", _chain_steps),
    (kdc, "setup", "kdc.setup", None),
    (kdc, "index_set", "kdc.index_set", None),
    (kdc, "cover_indices", "kdc.cover_indices", None),
    (kdc, "build_broadcast", "kdc.build_broadcast", _empty_cover),
    (kdc, "open_broadcast", "kdc.open_broadcast", _broadcast_opened),
    (kdc.Kdc, "issue", "kdc.issue", None),
    (kdc.PairwiseKeyService, "pairwise_key", "kdc.pairwise_key", None),
    (topology.Topology, "rdn", "topology.rdn", None),
    (topology.Topology, "link", "topology.link", None),
    (sim.Simulator, "run_until", "sim.run_until", None),
    (sim.Simulator, "broadcast", "sim.broadcast", _queue_depth),
    (sim.Simulator, "unicast", "sim.unicast", _queue_depth),
    (sim.Simulator, "set_timer", "sim.set_timer", _queue_depth),
    (frames, "encode_frame", "frames.encode", _encoded),
    (frames, "decode_frame", "frames.decode", _malformed),
    (frames.RreqBody, "from_bytes", "frames.body_decode", None),
    (frames.RrepBody, "from_bytes", "frames.body_decode", None),
    (srdp.SrdpNode, "originate_rreq", "srdp.originate", None),
    (srdp.SrdpNode, "process_rreq", "srdp.process_rreq", _rreq_action),
    (srdp.SrdpNode, "process_rrep", "srdp.process_rrep", _srdp_drop),
    (srdp.SrdpNode, "finalize_destination", "srdp.finalize", None),
    (srdp.SrdpNode, "build_rep", "srdp.build_rep", None),
    (srdp.SrdpNode, "handle_rep", "srdp.handle_rep", None),
    (cost, "path_cost_step", "cost.path_cost_step", None),
    (cost, "selection_key", "cost.selection_key", None),
    (cost, "select_route", "cost.select_route", None),
    (cost, "aggregate", "cost.aggregate", None),
    (cost.CostMatrices, "from_topology", "cost.matrices", None),
    (session, "directory_refresh", "session.directory_refresh", None),
    (session, "run_bcec", "session.bcec", _handshake),
    (session, "run_ceccc", "session.ceccc", _handshake),
    (session, "run_bccc", "session.bccc", _handshake),
    (harness, "provision", "harness.provision", _provisioned),
    (harness, "emit_report", "harness.report", None),
    (harness.Harness, "_report", "harness.report", None),
    (harness.ProtocolBehavior, "on_frame", "harness.behavior", None),
    (harness.ProtocolBehavior, "on_timer", "harness.behavior", None),
)


class Tracer:
    def __init__(self):
        self.stack: List[List[float]] = []  # [span id, child seconds] per open span
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        self.sample: Any = None
        self.origin = time.perf_counter()
        self._next_id = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, observe: Observer = None) -> Callable:
        """Return `fn` wrapped so that every call records a span named `name`."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        calls, self_s, total_s, counts = self.calls, self.self_s, self.total_s, self.counts
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if observe is not None:
                    observe(counts, args, result, exc)
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent, tracer.sample))
                else:
                    tracer.spans_dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, observe))
                else:
                    new = self.wrap(raw, name, observe)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, observe)
            for module in PACKAGE_MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, t0, t1, parent, sample in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": t0 - self.origin,
                            "end": t1 - self.origin,
                            "parent": parent,
                            "sample": sample,
                        }
                    )
                    + "\n"
                )


def layer_metrics(snap: Dict[str, Dict[str, float]], sim_counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a tracer snapshot and
    the simulator counts the workload read from its traces."""
    calls, self_s, total_s, counts = snap["calls"], snap["self_s"], snap["total_s"], snap["counts"]

    def n(name: str) -> int:
        return calls.get(name, 0)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: Dict[str, Tuple[float, str]] = {
        "crypto.mac.calls": (n("crypto.mac"), "count"),
        "crypto.mac.bytes": (counts.get("crypto.mac.bytes", 0), "B"),
        "crypto.seal.calls": (n("crypto.seal"), "count"),
        "crypto.open_box.calls": (n("crypto.open_box"), "count"),
        "crypto.open_box.fail": (counts.get("crypto.open_box.fail", 0), "count"),
        "crypto.hash.calls": (n("crypto.hash"), "count"),
        "crypto.chain.steps": (counts.get("crypto.chain.steps", 0), "count"),
        "crypto.self_s": (layer_self("crypto"), "s"),
        "kdc.issue.calls": (n("kdc.issue"), "count"),
        "kdc.index_set.calls": (n("kdc.index_set"), "count"),
        "kdc.build_broadcast.calls": (n("kdc.build_broadcast"), "count"),
        "kdc.build_broadcast.self_s": (self_s.get("kdc.build_broadcast", 0.0), "s"),
        "kdc.open_broadcast.calls": (n("kdc.open_broadcast"), "count"),
        "kdc.open_broadcast.self_s": (self_s.get("kdc.open_broadcast", 0.0), "s"),
        "kdc.open_broadcast.fallback": (
            ratio(counts.get("kdc.twohop.fallback", 0), counts.get("kdc.twohop.deliveries", 0)),
            "ratio",
        ),
        "kdc.self_s": (layer_self("kdc"), "s"),
        "topology.rdn.calls": (n("topology.rdn"), "count"),
        "topology.rdn.self_s": (self_s.get("topology.rdn", 0.0), "s"),
        "topology.link.calls": (n("topology.link"), "count"),
        "topology.link.self_s": (self_s.get("topology.link", 0.0), "s"),
        "topology.self_s": (layer_self("topology"), "s"),
    }
    for key in ("events", "deliveries", "timers", "broadcasts", "unicasts", "suppressed"):
        out["sim." + key] = (sim_counts[key], "count")
    out["sim.loop.self_s"] = (self_s.get("sim.run_until", 0.0), "s")
    out["sim.deliveries_per_s"] = (ratio(sim_counts["deliveries"], total_s.get("sim.run_until", 0.0)), "1/s")
    out["sim.queue_hwm"] = (counts.get("sim.queue_hwm", 0), "count")
    out["sim.trace_entries"] = (sim_counts["trace_entries"], "count")
    out["sim.self_s"] = (layer_self("sim"), "s")
    for kind in FRAME_TYPES.values():
        out["frames.encode.calls." + kind] = (counts.get("frames.encode.calls." + kind, 0), "count")
        out["frames.encode.bytes." + kind] = (counts.get("frames.encode.bytes." + kind, 0), "B")
    out.update(
        {
            "frames.decode.calls": (n("frames.decode"), "count"),
            "frames.decode.self_s": (self_s.get("frames.decode", 0.0), "s"),
            "frames.body_decode.self_s": (self_s.get("frames.body_decode", 0.0), "s"),
            "frames.malformed": (counts.get("frames.malformed", 0), "count"),
            "frames.self_s": (layer_self("frames"), "s"),
            "srdp.originate.calls": (n("srdp.originate"), "count"),
            "srdp.process_rreq.calls": (n("srdp.process_rreq"), "count"),
            "srdp.process_rreq.self_s": (self_s.get("srdp.process_rreq", 0.0), "s"),
            "srdp.process_rrep.calls": (n("srdp.process_rrep"), "count"),
            "srdp.process_rrep.self_s": (self_s.get("srdp.process_rrep", 0.0), "s"),
            "srdp.finalize.calls": (n("srdp.finalize"), "count"),
            "srdp.rreq_useful_ratio": (
                ratio(counts.get("srdp.rreq_useful", 0), n("srdp.process_rreq")),
                "ratio",
            ),
        }
    )
    for reason in DROP_REASONS:
        out["srdp.drop." + reason] = (counts.get("srdp.drop." + reason, 0), "count")
    out.update(
        {
            "srdp.self_s": (layer_self("srdp"), "s"),
            "cost.path_cost_step.calls": (n("cost.path_cost_step"), "count"),
            "cost.selection_key.calls": (n("cost.selection_key"), "count"),
            "cost.aggregate.calls": (n("cost.aggregate"), "count"),
            "cost.self_s": (layer_self("cost"), "s"),
            "session.handshakes": (counts.get("session.handshakes", 0), "count"),
            "session.fail": (counts.get("session.fail", 0), "count"),
            "session.self_s": (layer_self("session"), "s"),
            "harness.provision.self_s": (self_s.get("harness.provision", 0.0), "s"),
            "harness.report.self_s": (self_s.get("harness.report", 0.0), "s"),
            "harness.behavior.self_s": (self_s.get("harness.behavior", 0.0), "s"),
            "harness.self_s": (layer_self("harness"), "s"),
        }
    )
    return out
