"""Deterministic discrete-event simulator.

Single-threaded event loop over a Topology: timed broadcast/unicast frame
delivery, per-node timers, scripted link breaks, and a full event trace.
The loop draws no random numbers: identical (topology, behavior script)
always reproduces the identical trace, and ties at equal timestamps break
FIFO by insertion order.

A broadcast hands every neighbour the same frame, so a behaviour that
parses frames can do it once per transmission: `Simulator.decoded(frame,
decode)` returns `decode(frame)`, computed at the first delivery and kept
while more deliveries of equal bytes are queued.  The memo is keyed by
the frame's bytes and each entry is dropped with that frame's last
pending delivery, so it holds only frames in flight and is empty at
quiescence.  `decode` must be pure and its result must not be changed by
a receiver; a call that raises is not kept.  The simulator knows nothing
of what `decode` parses.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Tuple

from .errors import UnknownLink, UnknownNode
from .topology import Link, Topology

MAX_EVENTS_DEFAULT = 1_000_000
_MISSING = object()


class NodeBehavior:
    """Per-node handler hooks; honest behaviors are pure given node state."""

    def on_frame(self, sim: "Simulator", node: str, sender: str, frame: bytes, clock) -> None:
        pass

    def on_timer(self, sim: "Simulator", node: str, tag: Any, clock) -> None:
        pass


class Simulator:
    def __init__(self, topo: Topology, seed: int = 0):
        """`seed` is accepted for callers that pass one; a run does not read it."""
        self.topo = topo
        self.clock = 0
        self.behaviors: Dict[str, NodeBehavior] = {}
        self.trace: List[Dict[str, Any]] = []
        self._queue: List[Tuple[Any, int, str, tuple]] = []
        self._seq = 0
        self._breaks: Dict[frozenset, Any] = {}  # link -> break time
        self._pending: Dict[bytes, int] = {}  # frame -> deliveries queued
        self._decoded: Dict[bytes, Any] = {}  # frame -> decode(frame), while queued

    def install(self, node: str, behavior: NodeBehavior) -> None:
        if node not in self.topo.nodes:
            raise UnknownNode(node)
        self.behaviors[node] = behavior

    def log(self, ev: str, **fields) -> None:
        entry = {"t": self.clock, "ev": ev}
        entry.update(fields)
        self.trace.append(entry)

    def log_drop(self, node: str, reason: str, **detail) -> None:
        self.trace.append({"t": self.clock, "ev": "drop", "node": node, "reason": reason, **detail})

    # -- scheduling ----------------------------------------------------

    def _push(self, at, kind: str, payload: tuple) -> None:
        heapq.heappush(self._queue, (at, self._seq, kind, payload))
        self._seq += 1

    def _link_up(self, a: str, b: str) -> bool:
        broken_at = self._breaks.get(frozenset((a, b)))
        return broken_at is None or self.clock < broken_at

    def broadcast(self, sender: str, frame: bytes) -> int:
        """Schedule one delivery per unbroken adjacent link; returns fan-out."""
        if sender not in self.topo.nodes:
            raise UnknownNode(sender)
        sent = 0
        for neighbor, link in self.topo.out_links(sender):
            sent += self._send_one(sender, neighbor, link, frame)
        self.log("send", node=sender, kind="broadcast", n=sent, size=len(frame))
        return sent

    def unicast(self, sender: str, to: str, frame: bytes) -> bool:
        if sender not in self.topo.nodes:
            raise UnknownNode(sender)
        try:
            link = self.topo.link(sender, to)
        except UnknownLink:
            self.log("send", node=sender, kind="unicast", to=to, n=0, size=len(frame))
            return False
        ok = bool(self._send_one(sender, to, link, frame))
        self.log("send", node=sender, kind="unicast", to=to, n=int(ok), size=len(frame))
        return ok

    def _send_one(self, sender: str, to: str, link: Link, frame: bytes) -> int:
        if self._breaks and not self._link_up(sender, to):
            self.log("suppress", node=sender, to=to)
            return 0
        tx = math.ceil(len(frame) * 8 / (link.avl_bw * 1000.0))  # bw Mb/s = 1000 bits/ms
        self._push(self.clock + link.nw_delay + tx, "deliver", (sender, to, frame))
        pending = self._pending
        pending[frame] = pending.get(frame, 0) + 1
        return 1

    def decoded(self, frame: bytes, decode: Callable[[bytes], Any]) -> Any:
        """`decode(frame)`, computed once while deliveries of `frame` are
        queued; see the module docstring."""
        value = self._decoded.get(frame, _MISSING)
        if value is _MISSING:
            value = decode(frame)
            if self._pending.get(frame, 0) > 1:  # another delivery will ask
                self._decoded[frame] = value
        return value

    def set_timer(self, node: str, delay, tag: Any) -> None:
        self._push(self.clock + delay, "timer", (node, tag))

    def break_link(self, a: str, b: str, at) -> None:
        key = frozenset((a, b))
        if key not in self.topo.links:
            raise UnknownLink("%s-%s" % (a, b))
        self._breaks[key] = at

    # -- event loop ----------------------------------------------------

    def run_until(self, max_events: int = MAX_EVENTS_DEFAULT):
        """Process events until quiescence or the budget.

        Returns the trace.  A truncation marker is appended if the budget
        runs out before quiescence.
        """
        processed = 0
        pending, decoded = self._pending, self._decoded
        while self._queue:
            if processed >= max_events:
                self.log("truncated", budget=max_events)
                break
            at, _, kind, payload = heapq.heappop(self._queue)
            self.clock = at
            processed += 1
            if kind == "deliver":
                sender, to, frame = payload
                self.log("deliver", node=to, sender=sender, size=len(frame))
                behavior = self.behaviors.get(to)
                if behavior is not None:
                    behavior.on_frame(self, to, sender, frame, self.clock)
                left = pending[frame] - 1
                if left:
                    pending[frame] = left
                else:
                    del pending[frame]
                    decoded.pop(frame, None)
            elif kind == "timer":
                node, tag = payload
                self.log("timer", node=node, tag=repr(tag))
                behavior = self.behaviors.get(node)
                if behavior is not None:
                    behavior.on_timer(self, node, tag, self.clock)
        return self.trace
