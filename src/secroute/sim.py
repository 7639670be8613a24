"""Deterministic discrete-event simulator.

Single-threaded event loop over a Topology: timed broadcast/unicast frame
delivery, per-node timers, scripted link breaks, and a full event trace.
The loop draws no random numbers: identical (topology, behavior script)
always reproduces the identical trace, and ties at equal timestamps break
FIFO by insertion order.

Pending events are kept per time: a dict maps each distinct pending time
to a FIFO (`deque`) of its events, and a heap holds each of those times
once.  The loop drains the earliest time's FIFO front to back; an event
scheduled for that same time while it drains joins the tail, so order is
"time ascending, FIFO among equal times" without a sequence number.  A
flood puts many events on few times, so a push costs a dict lookup and an
append, and the heap is touched only by a new time.  An event time is
never earlier than the clock: link delays are finite and nonnegative
(`Topology.add_link`), and so are timer delays (`set_timer`).

A broadcast and a unicast queue their copies by one loop (`_send`): a
copy per link that is up at the clock and a `suppress` entry for each
broken one.  A relay that forwards a flooded frame names the neighbour
it came from (`broadcast(node, frame, came_from)`), and no copy goes
back over that link, as link-state flooding skips the neighbour an
update came from (OSPF, RFC 2328 section 13.3): that neighbour sent the
flood itself, so the copy could only be a duplicate there.  Nothing is
queued or traced for the skipped link, not even a `suppress` when it is
broken.

The copies of one send carry one decode slot, so a behaviour that parses
frames can do it once per transmission: `Simulator.decoded(frame,
decode)`, asked during a delivery of `frame`, returns `decode(frame)` as
the send's first receiver to ask computed it.  Only queued copies hold
the slot, so the value is freed with the send's last delivery; equal
bytes sent twice decode twice, and a call outside a delivery of `frame`
decodes afresh and keeps nothing.  `decode` must be pure; a call that
raises is not kept.  A receiver may attach to the result only values
that are a pure function of it and of an object the receiver passes in,
remembered with that object, so that a later receiver passing the same
object may reuse them (as `frames.open_rreq` does with a key); nothing
else on it may change.  The simulator knows nothing of what it parses.

The trace is one list of plain tuples `(ev, t, *fields)`, `t` the clock
at the event.  Each kind has one field order (`TRACE_LAYOUT`):

    deliver    node, sender, size
    timer      node, tag                    tag is repr() of the timer's tag
    drop       node, reason
    send       node, kind, to, n, size      kind "broadcast" (to None) or
                                            "unicast"; n deliveries queued
    suppress   node, to                     a send over a broken link
    truncated  budget                       the event budget ran out

`Simulator.trace` copies the store into `TraceEntry` tuples that are also
read by field name (`e["size"]`, `e.get("to")`).  `trace_digest()` is the
SHA-256 hex digest of `json.dumps(store, check_circular=False)`: each
entry a JSON array in its layout's order, with `json`'s default
separators and ASCII escaping.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from .errors import UnknownLink, UnknownNode
from .topology import Link, Topology

MAX_EVENTS_DEFAULT = 1_000_000

TRACE_LAYOUT: Dict[str, Tuple[str, ...]] = {
    "deliver": ("node", "sender", "size"),
    "timer": ("node", "tag"),
    "drop": ("node", "reason"),
    "send": ("node", "kind", "to", "n", "size"),
    "suppress": ("node", "to"),
    "truncated": ("budget",),
}
_FIELD_INDEX = {ev: {name: i for i, name in enumerate(("ev", "t") + fields)} for ev, fields in TRACE_LAYOUT.items()}


class TraceEntry(tuple):
    """One trace entry, read by position or by its layout's field names."""

    __slots__ = ()

    def __getitem__(self, key):
        if isinstance(key, str):
            key = _FIELD_INDEX[tuple.__getitem__(self, 0)][key]
        return tuple.__getitem__(self, key)

    def get(self, key: str, default=None):
        i = _FIELD_INDEX[tuple.__getitem__(self, 0)].get(key)
        return default if i is None else tuple.__getitem__(self, i)


class NodeBehavior:
    """Per-node handler hooks; honest behaviors are pure given node state."""

    def on_frame(self, sim: "Simulator", node: str, sender: str, frame: bytes, clock) -> None:
        pass

    def on_timer(self, sim: "Simulator", node: str, tag: Any, clock) -> None:
        pass


class _Calendar:
    """Pending events: a FIFO of `(at, kind, payload)` per distinct time
    `at`, and a heap holding each of those times once.  Each event keeps
    its own `at`, so times equal in value but not in type (2 and 2.0)
    share a FIFO while the clock still shows each event's own value."""

    __slots__ = ("fifos", "times")

    def __init__(self) -> None:
        self.fifos: Dict[Any, Deque[Tuple[Any, str, tuple]]] = {}
        self.times: List[Any] = []

    def __len__(self) -> int:
        """Events queued; costs O(distinct pending times)."""
        return sum(map(len, self.fifos.values()))

    def push(self, at, kind: str, payload: tuple) -> None:
        fifo = self.fifos.get(at)
        if fifo is None:
            fifo = self.fifos[at] = deque()
            heapq.heappush(self.times, at)
        fifo.append((at, kind, payload))


class Simulator:
    def __init__(self, topo: Topology, seed: int = 0):
        """`seed` is accepted for callers that pass one; a run does not read it."""
        self.topo = topo
        self.clock = 0
        self.behaviors: Dict[str, NodeBehavior] = {}
        self._trace: List[tuple] = []  # (ev, t, *fields); see TRACE_LAYOUT
        self._queue = _Calendar()
        self._breaks: Dict[frozenset, Any] = {}  # link -> break time
        self._delivery: Optional[tuple] = None  # the payload of the delivery in hand

    def install(self, node: str, behavior: NodeBehavior) -> None:
        if node not in self.topo.nodes:
            raise UnknownNode(node)
        self.behaviors[node] = behavior

    @property
    def trace(self) -> List[TraceEntry]:
        """A new list of the trace's entries, each readable by field name."""
        return [TraceEntry(e) for e in self._trace]

    def trace_digest(self) -> str:
        """SHA-256 of the trace's JSON encoding; see the module docstring."""
        return hashlib.sha256(json.dumps(self._trace, check_circular=False).encode()).hexdigest()

    def log_drop(self, node: str, reason: str) -> None:
        self._trace.append(("drop", self.clock, node, reason))

    # -- scheduling ----------------------------------------------------

    def _link_up(self, a: str, b: str) -> bool:
        broken_at = self._breaks.get(frozenset((a, b)))
        return broken_at is None or self.clock < broken_at

    def broadcast(self, sender: str, frame: bytes, came_from: Optional[str] = None) -> int:
        """Schedule one delivery per unbroken adjacent link, except the link
        to `came_from`, the neighbour a forwarded copy arrived from, which
        gets no copy and no `suppress` entry; returns the fan-out."""
        if sender not in self.topo.nodes:
            raise UnknownNode(sender)
        sent = self._send(sender, self.topo.out_links(sender), frame, came_from)
        self._trace.append(("send", self.clock, sender, "broadcast", None, sent, len(frame)))
        return sent

    def unicast(self, sender: str, to: str, frame: bytes) -> bool:
        if sender not in self.topo.nodes:
            raise UnknownNode(sender)
        try:
            link = self.topo.link(sender, to)
        except UnknownLink:
            sent = 0
        else:
            sent = self._send(sender, ((to, link),), frame)
        self._trace.append(("send", self.clock, sender, "unicast", to, sent, len(frame)))
        return bool(sent)

    def _send(self, sender: str, links: Iterable[Tuple[str, Link]], frame: bytes, skip: Optional[str] = None) -> int:
        """Queue `frame` from `sender` over each `(to, link)` of `links` but
        the one to `skip`, tracing a suppression for each broken one;
        returns copies queued.  The copies share one decode slot."""
        clock, push, breaks = self.clock, self._queue.push, self._breaks
        bits = len(frame) * 8
        shared: List[Any] = []
        sent = 0
        for to, link in links:
            if to == skip:
                continue
            if breaks and not self._link_up(sender, to):
                self._trace.append(("suppress", clock, sender, to))
                continue
            tx = math.ceil(bits / (link.avl_bw * 1000.0))  # bw Mb/s = 1000 bits/ms
            push(clock + link.nw_delay + tx, "deliver", (sender, to, frame, shared))
            sent += 1
        return sent

    def decoded(self, frame: bytes, decode: Callable[[bytes], Any]) -> Any:
        """`decode(frame)`, computed once per send of the delivery in hand;
        see the module docstring."""
        delivery = self._delivery
        if delivery is None or delivery[2] is not frame:
            return decode(frame)
        shared = delivery[3]
        if not shared:
            shared.append(decode(frame))
        return shared[0]

    def set_timer(self, node: str, delay, tag: Any) -> None:
        """Fire `on_timer(tag)` at `node` after `delay`, finite and >= 0."""
        if not 0 <= delay < math.inf:
            raise ValueError("timer delay must be finite and nonnegative, got %r" % (delay,))
        self._queue.push(self.clock + delay, "timer", (node, tag))

    def break_link(self, a: str, b: str, at) -> None:
        key = frozenset((a, b))
        if key not in self.topo.links:
            raise UnknownLink("%s-%s" % (a, b))
        self._breaks[key] = at

    # -- event loop ----------------------------------------------------

    def run_until(self, max_events: int = MAX_EVENTS_DEFAULT) -> None:
        """Process events until quiescence or the budget.

        A truncation marker is traced if the budget runs out before
        quiescence; the events not run stay queued, and a later call
        resumes with them in order.
        """
        processed = 0
        fifos, times = self._queue.fifos, self._queue.times
        append, behaviors = self._trace.append, self.behaviors
        while times:
            time = times[0]
            fifo = fifos[time]
            while fifo:
                if processed >= max_events:
                    append(("truncated", self.clock, max_events))
                    return
                at, kind, payload = fifo.popleft()
                self.clock = at
                processed += 1
                if kind == "deliver":
                    sender, to, frame, _ = payload
                    append(("deliver", at, to, sender, len(frame)))
                    behavior = behaviors.get(to)
                    if behavior is not None:
                        self._delivery = payload
                        try:
                            behavior.on_frame(self, to, sender, frame, at)
                        finally:
                            self._delivery = None
                elif kind == "timer":
                    node, tag = payload
                    append(("timer", at, node, repr(tag)))
                    behavior = behaviors.get(node)
                    if behavior is not None:
                        behavior.on_timer(self, node, tag, at)
            del fifos[time]
            heapq.heappop(times)
