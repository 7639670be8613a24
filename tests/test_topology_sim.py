import heapq
import json
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secroute.errors import InvariantError, ParseError, UnknownLink, UnknownNode
from secroute.harness import random_topology, topology_to_text
from secroute.sim import NodeBehavior, Simulator
from secroute.topology import Topology, load_topology

LINE = """
# four node line
node S broker
node A relay
node B relay
node D coordinator
link S A 10 2
link A B 10 2
link B D 10 2
"""


def test_load_line_topology():
    topo = load_topology(LINE)
    assert len(topo.links) == 3
    assert topo.rdn("A") == {"S", "B"}
    assert topo.link("S", "A").avl_bw == 10
    assert topo.has_link("A", "S") and not topo.has_link("S", "B") and not topo.has_link("S", "S")
    assert not topo.has_link("X", "S")


def test_self_loop_rejected():
    with pytest.raises(InvariantError):
        load_topology("node S relay\nlink S S 10 2\n")


def test_duplicate_edge_rejected():
    with pytest.raises(InvariantError):
        load_topology("node S relay\nnode A relay\nlink S A 10 2\nlink A S 5 1\n")


@pytest.mark.parametrize("second", ["coordinator", "broker"])
def test_duplicate_node_rejected(second):
    # A second declaration would silently change the node's role.
    with pytest.raises(InvariantError):
        load_topology("node A broker\nnode B relay\nlink A B 10 2\nnode A %s\n" % second)


def test_empty_node_id_rejected():
    # The file loader splits on whitespace and cannot make one; the API can.
    with pytest.raises(InvariantError):
        Topology().add_node("")


@pytest.mark.parametrize("metrics", ["nan 2", "inf 2", "-inf 2", "10 nan", "10 inf", "0 2", "10 -1"])
def test_link_metrics_must_be_finite_and_in_range(metrics):
    with pytest.raises(InvariantError):
        load_topology("node S relay\nnode A relay\nlink S A %s\n" % metrics)


def test_unknown_node_in_link():
    with pytest.raises(InvariantError):
        load_topology("node S relay\nlink S X 10 2\n")


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        load_topology("node S relay\nfrobnicate\n")
    assert exc.value.line == 2


def test_rdn_unknown_node():
    topo = load_topology(LINE)
    with pytest.raises(UnknownNode):
        topo.rdn("nope")


def test_isolated_node_has_empty_rdn():
    topo = load_topology("node X relay\n")
    assert topo.rdn("X") == set()


def scanned_rdn(topo, node):
    return {other for key in topo.links if node in key for other in key - {node}}


@pytest.mark.parametrize("seed,n,p", [(1, 8, 0.4), (2, 30, 0.15), (3, 60, 0.06)])
def test_rdn_index_matches_link_scan(seed, n, p):
    """The adjacency index and the link table agree with a scan of the
    links: each link is one object under both endpoints, and each out-list
    is the node's neighbours in id order, rebuilt when a link is added."""
    topo = random_topology(seed, n, p)
    again = load_topology(topology_to_text(topo))
    for t in (topo, again):
        for key, link in t.links.items():
            a, b = key
            assert t.link(a, b) is t.link(b, a) is t.links[frozenset((a, b))]
        for node in t.nodes:
            assert t.rdn(node) == scanned_rdn(t, node)
            out = t.out_links(node)
            assert [m for m, _ in out] == sorted(t.rdn(node))
            assert all(link is t.link(node, m) for m, link in out)
    node = sorted(again.nodes)[0]
    before = again.out_links(node)
    again.add_node("~late", "relay")  # sorts after every N<i>
    again.add_link(node, "~late", 5, 1)
    assert again.out_links(node) == before + (("~late", again.link(node, "~late")),)
    assert again.out_links("~late") == ((node, again.link(node, "~late")),)


def test_rdn_returns_a_copy():
    topo = load_topology(LINE)
    topo.rdn("A").add("D")
    assert topo.rdn("A") == {"S", "B"}


def test_topology_built_only_through_add_methods():
    with pytest.raises(TypeError):
        Topology(links={frozenset(("S", "A")): None})


class Recorder(NodeBehavior):
    def __init__(self):
        self.got = []

    def on_frame(self, sim, node, sender, frame, clock):
        self.got.append((clock, node, sender, frame))


def test_delivery_time_arithmetic():
    # 1000 bits over (10 Mb/s, 2 ms): 2 + ceil(1000/10000) = 3 ms.
    topo = load_topology("node S relay\nnode A relay\nlink S A 10 2\n")
    sim = Simulator(topo)
    rec = Recorder()
    sim.install("A", rec)
    sim.broadcast("S", b"\x00" * 125)
    sim.run_until()
    assert rec.got[0][0] == 3


def test_broadcast_fan_out():
    text = "node C relay\n" + "".join("node S%d relay\n" % i for i in range(3))
    text += "".join("link C S%d 10 1\n" % i for i in range(3))
    topo = load_topology(text)
    sim = Simulator(topo)
    assert sim.broadcast("C", b"x") == 3


def test_no_delivery_to_non_neighbor():
    topo = load_topology(LINE)
    sim = Simulator(topo)
    rec = Recorder()
    sim.install("D", rec)
    sim.broadcast("S", b"x")
    sim.run_until()
    assert rec.got == []


def test_break_semantics():
    topo = load_topology("node S relay\nnode A relay\nlink S A 10 2\n")
    sim = Simulator(topo)
    rec = Recorder()
    sim.install("A", rec)
    sim.break_link("S", "A", 0)
    sim.broadcast("S", b"x")
    sim.run_until()
    assert rec.got == []


def test_in_flight_delivery_survives_break():
    topo = load_topology("node S relay\nnode A relay\nlink S A 10 2\n")
    sim = Simulator(topo)
    rec = Recorder()
    sim.install("A", rec)
    sim.broadcast("S", b"x")  # sent at t=0, arrives t=3
    sim.break_link("S", "A", 2)
    sim.run_until()
    assert len(rec.got) == 1


def test_send_after_break_suppressed():
    topo = load_topology("node S relay\nnode A relay\nlink S A 10 2\n")
    sim = Simulator(topo)
    rec = Recorder()
    sim.install("A", rec)
    sim.break_link("S", "A", 5)

    class LateSender(NodeBehavior):
        def on_timer(self, sim, node, tag, clock):
            sim.broadcast(node, b"x")

    sim.install("S", LateSender())
    sim.set_timer("S", 6, "go")
    sim.run_until()
    assert rec.got == []


def test_break_unknown_link():
    topo = load_topology(LINE)
    sim = Simulator(topo)
    with pytest.raises(UnknownLink):
        sim.break_link("S", "D", 0)


@pytest.mark.parametrize("delay", [-1, -0.5, float("nan"), float("inf")])
def test_timer_delay_must_be_finite_and_nonnegative(delay):
    sim = Simulator(load_topology(LINE))
    with pytest.raises(ValueError):
        sim.set_timer("S", delay, "go")
    assert len(sim._queue) == 0
    sim.run_until()
    assert sim.trace == []


def test_empty_queue_quiesces():
    topo = load_topology(LINE)
    sim = Simulator(topo)
    sim.run_until()
    assert sim.trace == [] and sim._trace == []


def test_trace_deterministic():
    def run():
        topo = load_topology(LINE)
        sim = Simulator(topo, seed=9)

        class Relay(NodeBehavior):
            def on_frame(self, sim, node, sender, frame, clock):
                if len(frame) < 40:
                    sim.broadcast(node, frame + b"!")

        for n in topo.nodes:
            sim.install(n, Relay())
        sim.broadcast("S", b"x")
        sim.run_until()
        return sim

    a, b = run(), run()
    assert a._trace == b._trace
    assert a.trace_digest() == b.trace_digest()


def test_event_budget_truncation():
    topo = load_topology("node A relay\nnode B relay\nlink A B 100 0\n")
    sim = Simulator(topo)

    class PingPong(NodeBehavior):
        def on_frame(self, sim, node, sender, frame, clock):
            sim.broadcast(node, frame)

    sim.install("A", PingPong())
    sim.install("B", PingPong())
    sim.broadcast("A", b"x" * 100)
    sim.run_until(max_events=500)
    assert sim.trace[-1]["ev"] == "truncated"
    assert sim._trace[-1] == ("truncated", sim.clock, 500)


# -- the decode slot -------------------------------------------------------------

STAR = "node C relay\n" + "".join("node S%d relay\nlink C S%d 10 1\n" % (i, i) for i in range(3))


class Decoding(NodeBehavior):
    """Records what `sim.decoded` hands each delivery."""

    def __init__(self, got, decode):
        self.got = got
        self.decode = decode

    def on_frame(self, sim, node, sender, frame, clock):
        try:
            self.got.append((node, frame, sim.decoded(frame, self.decode)))
        except ValueError as exc:
            self.got.append((node, frame, exc))


def decoding_sim(text, decode):
    topo = load_topology(text)
    sim = Simulator(topo)
    got = []
    for n in topo.nodes:
        sim.install(n, Decoding(got, decode))
    return sim, got


def test_broadcast_decoded_once_for_all_deliveries():
    calls = []

    def decode(frame):
        calls.append(frame)
        return [frame]  # a new object per call

    sim, got = decoding_sim(STAR, decode)
    assert sim.broadcast("C", b"frame") == 3
    sim.run_until()
    assert len(calls) == 1
    assert [n for n, _, _ in got] == ["S0", "S1", "S2"]
    assert all(value is got[0][2] for _, _, value in got)
    # The run is over: a call now is outside any delivery and decodes afresh.
    again = sim.decoded(got[0][1], decode)
    assert again == got[0][2] and again is not got[0][2] and len(calls) == 2


def test_failed_decode_is_not_memoized():
    """A decode that raises is not kept: the next receiver decodes again,
    and the first decode that succeeds is the one the rest share."""
    calls = []

    def decode(frame):
        calls.append(frame)
        if len(calls) == 1:
            raise ValueError("malformed")
        return [frame]

    sim, got = decoding_sim(STAR, decode)
    sim.broadcast("C", b"bad")
    sim.run_until()
    assert len(calls) == 2
    assert [type(value) for _, _, value in got] == [ValueError, list, list]
    assert got[1][2] is got[2][2]


def test_unicasts_and_equal_bytes_sent_twice_decode_alike():
    """A unicast, and equal bytes sent again as another object while the
    first copy is in flight (as a replaying node sends them), decode as
    the bytes say, once per send: the two broadcasts of equal bytes do not
    share a decode, and each is shared by its own three receivers."""
    calls = []

    def decode(frame):
        calls.append(frame)
        return [frame.decode()]

    sim, got = decoding_sim(STAR, decode)
    first = b"round-1"
    again = bytes(bytearray(first))
    assert again is not first
    sim.broadcast("C", first)
    sim.broadcast("C", again)
    sim.unicast("S0", "C", b"unicast")
    sim.run_until()
    assert sorted((n, value[0]) for n, _, value in got) == sorted(
        [("C", "unicast")] + [("S%d" % i, "round-1") for i in range(3)] * 2
    )
    assert len(calls) == 3
    rounds = Counter(id(value) for _, _, value in got if value == ["round-1"])
    assert sorted(rounds.values()) == [3, 3]


class Weak:
    """A decoded value a test can watch die."""

    def __init__(self, frame):
        self.frame = frame


class Watching(NodeBehavior):
    """Keeps only weak references to what `sim.decoded` hands each delivery."""

    def __init__(self, refs):
        self.refs = refs

    def on_frame(self, sim, node, sender, frame, clock):
        self.refs.append(weakref.ref(sim.decoded(frame, Weak)))


def test_memo_empty_after_truncated_run_resumes():
    """A decoded value lives while its send has copies queued, across a
    run cut by its budget, and is freed with the send's last delivery."""
    sim = Simulator(load_topology(STAR))
    refs = []
    for n in sim.topo.nodes:
        sim.install(n, Watching(refs))
    sim.broadcast("C", b"x")
    sim.run_until(max_events=1)
    assert len(refs) == 1 and refs[0]() is not None  # two copies still queued
    sim.run_until()
    assert len(refs) == 3 and all(ref() is None for ref in refs)


def test_decoded_outside_a_delivery_decodes_its_own_frame():
    """A call from a timer, from a test, or from a receiver asking about
    another frame gets that frame's own decode, kept nowhere, never the
    value of the delivery before it or in hand."""
    calls = []

    def decode(frame):
        calls.append(frame)
        return [frame]

    class Asking(NodeBehavior):
        def __init__(self):
            self.seen = []

        def on_frame(self, sim, node, sender, frame, clock):
            self.seen.append(sim.decoded(frame, decode))
            self.seen.append(sim.decoded(b"other", decode))
            sim.set_timer(node, 0, "tick")

        def on_timer(self, sim, node, tag, clock):
            self.seen.append(sim.decoded(b"timer", decode))

    sim = Simulator(load_topology(STAR))
    behavior = Asking()
    for n in sim.topo.nodes:
        sim.install(n, behavior)
    sim.broadcast("C", b"x")
    sim.run_until(max_events=1)
    assert behavior.seen == [[b"x"], [b"other"]]
    assert sim.decoded(b"direct", decode) == [b"direct"]
    assert sim.decoded(b"direct", decode) == [b"direct"] and calls.count(b"direct") == 2
    sim.run_until()
    assert [v for v in behavior.seen if v != [b"x"]] == [[b"other"]] * 3 + [[b"timer"]] * 3
    assert calls.count(b"x") == 1 and calls.count(b"other") == 3 and calls.count(b"timer") == 3


# -- the event queue ---------------------------------------------------------------


class HeapQueue:
    """The reference order: one heap of (time, insertion order, event)."""

    def __init__(self):
        self.heap = []
        self.seq = 0

    def __len__(self):
        return len(self.heap)

    def push(self, at, kind, payload):
        heapq.heappush(self.heap, (at, self.seq, kind, payload))
        self.seq += 1


class HeapSimulator(Simulator):
    """`Simulator` with the reference heap as its queue and a loop that pops
    it; sending and timers are the simulator's own."""

    def __init__(self, topo):
        super().__init__(topo)
        self._queue = HeapQueue()

    def run_until(self, max_events=1_000_000):
        processed = 0
        heap = self._queue.heap
        while heap:
            if processed >= max_events:
                self._trace.append(("truncated", self.clock, max_events))
                break
            at, _, kind, payload = heapq.heappop(heap)
            self.clock = at
            processed += 1
            if kind == "deliver":
                sender, to, frame, _ = payload
                self._trace.append(("deliver", at, to, sender, len(frame)))
                self._delivery = payload  # hands `decoded` the send's slot, as `Simulator.run_until` does
                self.behaviors[to].on_frame(self, to, sender, frame, at)
                self._delivery = None
            else:
                node, tag = payload
                self._trace.append(("timer", at, node, repr(tag)))
                self.behaviors[node].on_timer(self, node, tag, at)


QUEUE_NODES = ("A", "B", "C", "D")


def queued_copies(queue):
    """How many deliveries each `(sender, to)` has queued, in either queue."""
    if isinstance(queue, HeapQueue):
        events = [(kind, payload) for _, _, kind, payload in queue.heap]
    else:
        events = [(kind, payload) for fifo in queue.fifos.values() for _, kind, payload in fifo]
    return Counter(payload[:2] for kind, payload in events if kind == "deliver")


class Script:
    """Runs the k-th scripted action list at the k-th event any node
    handles, and checks after each send or timer that the queue's length
    is the number of events scheduled and not yet handled.  A forward is
    checked against the links it should use: every other node but the
    one it came from, and of those a broken link only traces `suppress`.
    Every receiver asks `sim.decoded` for its frame (`Script.decode`)."""

    def __init__(self, steps, brk=None):
        self.steps = steps
        self.brk = brk  # (frozenset of the broken link's nodes, time it breaks)
        self.handled = 0
        self.queued = 0
        self.fan_outs = []  # the copies each send queued
        self.decodes = 0
        self.got = []  # (frame, decoded value) per delivery

    def decode(self, frame):
        self.decodes += 1
        return [frame]  # a new object per call

    def check_decodes(self):
        """After a full run: one decode per send that reached anyone, each
        value handed to as many receivers as one send's copies, wrapping
        the frame each was handed with.  Sends of equal bytes are common
        here, and each decodes on its own."""
        reached = sorted(n for n in self.fan_outs if n)
        assert self.decodes == len(reached)
        assert sorted(Counter(id(value) for _, value in self.got).values()) == reached
        assert all(value[0] == frame for frame, value in self.got)

    def broken(self, sim, a, b):
        return self.brk is not None and frozenset((a, b)) == self.brk[0] and sim.clock >= self.brk[1]

    def forward(self, sim, node, frame, came_from):
        before, mark = queued_copies(sim._queue), len(sim._trace)
        sent = sim.broadcast(node, frame, came_from)
        targets = [to for to in QUEUE_NODES if to not in (node, came_from)]
        up = [to for to in targets if not self.broken(sim, node, to)]
        assert sent == len(up)
        assert queued_copies(sim._queue) == before + Counter((node, to) for to in up)
        assert sim._trace[mark:] == [("suppress", sim.clock, node, to) for to in targets if to not in up] + [
            ("send", sim.clock, node, "broadcast", None, len(up), len(frame))
        ]
        return sent

    def act(self, sim, node, actions):
        for action in actions:
            if action[0] == "timer":
                sim.set_timer(node, action[1], ("tag", self.handled))
                self.queued += 1
            else:
                if action[0] == "broadcast":
                    sent = sim.broadcast(node, b"m" * action[1])
                elif action[0] == "forward":
                    sent = self.forward(sim, node, b"f" * action[1], QUEUE_NODES[action[2]])
                else:
                    sent = int(sim.unicast(node, QUEUE_NODES[action[1]], b"u" * action[2]))
                self.fan_outs.append(sent)
                self.queued += sent
            assert len(sim._queue) == self.queued - self.handled

    def on_event(self, sim, node):
        step = self.steps[self.handled] if self.handled < len(self.steps) else []
        self.handled += 1
        self.act(sim, node, step)


class Scripted(NodeBehavior):
    def __init__(self, script):
        self.script = script

    def on_frame(self, sim, node, sender, frame, clock):
        assert clock == sim.clock
        self.script.got.append((frame, sim.decoded(frame, self.script.decode)))
        self.script.on_event(sim, node)

    def on_timer(self, sim, node, tag, clock):
        assert clock == sim.clock
        self.script.on_event(sim, node)


# Small delays and sizes put many events on few times: a 0-byte frame has
# tx 0, and a delay of 1 or 1.0 lands an int and a float time on one value.
frame_size = st.integers(min_value=0, max_value=3)
queue_actions = st.lists(
    st.one_of(
        st.tuples(st.just("broadcast"), frame_size),
        st.tuples(st.just("forward"), frame_size, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("unicast"), st.integers(min_value=0, max_value=3), frame_size),
        st.tuples(st.just("timer"), st.sampled_from([0, 0, 1, 1.0, 2, 0.5])),
    ),
    max_size=3,
)
link_metrics = st.tuples(st.sampled_from([0.008, 0.016, 1000]), st.sampled_from([0, 1, 1.0, 2]))


def scripted_sim(cls, links, brk, steps, start):
    topo = Topology()
    for n in QUEUE_NODES:
        topo.add_node(n)
    pairs = [(a, b) for i, a in enumerate(QUEUE_NODES) for b in QUEUE_NODES[i + 1 :]]
    for (a, b), (bw, delay) in zip(pairs, links):
        topo.add_link(a, b, bw, delay)
    sim = cls(topo)
    script = Script(steps, brk and (frozenset(pairs[brk[0]]), brk[1]))
    for n in QUEUE_NODES:
        sim.install(n, Scripted(script))
    if brk is not None:
        sim.break_link(*pairs[brk[0]], brk[1])
    for node, actions in start:
        script.act(sim, QUEUE_NODES[node], actions)
    return sim, script


@settings(max_examples=200, deadline=None)
@given(
    links=st.lists(link_metrics, min_size=6, max_size=6),
    brk=st.none() | st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from([0, 1, 2.5])),
    steps=st.lists(queue_actions, max_size=40),
    start=st.lists(st.tuples(st.integers(min_value=0, max_value=3), queue_actions), min_size=1, max_size=3),
    budget=st.none() | st.integers(min_value=0, max_value=60),
)
# Every link 0 ms and tx 0 for an empty frame: A's broadcast lands at t=0,
# and its first delivery schedules a zero-delay timer and an empty unicast
# for t=0 while t=0 drains; the budget cuts the run inside t=0.
@example(
    links=[(1000, 0)] * 6,
    brk=None,
    steps=[[("timer", 0), ("unicast", 2, 0), ("broadcast", 0)], [("timer", 0)]],
    start=[(0, [("broadcast", 0)])],
    budget=4,
)
# Int and float times of equal value (1 and 1.0) share one FIFO.
@example(
    links=[(1000, 1), (1000, 1.0), (1000, 1), (1000, 1.0), (1000, 1), (1000, 1.0)],
    brk=None,
    steps=[[("timer", 1)], [("timer", 1.0)]],
    start=[(0, [("broadcast", 0), ("timer", 1)]), (3, [("unicast", 1, 0)])],
    budget=None,
)
# A forward over a link broken at t=0 (A-B) sends no copy back and traces
# no suppression for it; one that skips another link still suppresses A-B.
@example(
    links=[(1000, 0)] * 6,
    brk=(0, 0),
    steps=[[("forward", 1, 0)]],
    start=[(0, [("forward", 1, 1), ("forward", 0, 2)])],
    budget=None,
)
def test_event_order_matches_reference_heap(links, brk, steps, start, budget):
    """Random broadcasts, forwards, unicasts and timers, many on equal
    times, run in the order of a (time, insertion order) heap, with the
    same trace bytes (a forward queues and traces nothing for the link it
    came from, see `Script.forward`):
    events scheduled for a time while it drains run after those already
    queued for it.  A run cut by the budget, even in the middle of a time,
    keeps the rest queued, and a second run resumes in that order.  Each
    send is decoded once for all of its receivers (`Script.check_decodes`)."""
    runs = [scripted_sim(cls, links, brk, steps, start) for cls in (Simulator, HeapSimulator)]
    sims = [sim for sim, _ in runs]
    if budget is not None:
        for sim in sims:
            sim.run_until(max_events=budget)
        assert json.dumps(sims[0]._trace) == json.dumps(sims[1]._trace)
        assert len(sims[0]._queue) == len(sims[1]._queue)
    for sim in sims:
        sim.run_until()
    assert json.dumps(sims[0]._trace) == json.dumps(sims[1]._trace)
    assert len(sims[0]._queue) == 0 and sims[0]._queue.times == []
    for _, script in runs:
        script.check_decodes()

