import pytest

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


def test_empty_queue_quiesces():
    topo = load_topology(LINE)
    sim = Simulator(topo)
    assert sim.run_until() == []


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
        return sim.run_until()

    assert run() == run()


def test_event_budget_truncation():
    topo = load_topology("node A relay\nnode B relay\nlink A B 100 0\n")
    sim = Simulator(topo)

    class PingPong(NodeBehavior):
        def on_frame(self, sim, node, sender, frame, clock):
            sim.broadcast(node, frame)

    sim.install("A", PingPong())
    sim.install("B", PingPong())
    sim.broadcast("A", b"x" * 100)
    trace = sim.run_until(max_events=500)
    assert trace[-1]["ev"] == "truncated"


# -- the decode memo -------------------------------------------------------------

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
    assert sim._decoded == {} and sim._pending == {}


def test_failed_decode_is_not_memoized():
    calls = []

    def decode(frame):
        calls.append(frame)
        raise ValueError("malformed")

    sim, got = decoding_sim(STAR, decode)
    sim.broadcast("C", b"bad")
    sim.run_until()
    assert len(calls) == 3
    assert all(isinstance(value, ValueError) for _, _, value in got)
    assert sim._decoded == {} and sim._pending == {}


def test_unicasts_and_equal_bytes_sent_twice_decode_alike():
    """A unicast, and equal bytes sent again as another object while the
    first copy is in flight (as a replaying node sends them), decode as
    the bytes say; the memo empties as their last delivery lands."""
    sim, got = decoding_sim(STAR, lambda frame: frame.decode())
    first = b"round-1"
    again = bytes(bytearray(first))
    assert again is not first
    sim.broadcast("C", first)
    sim.broadcast("C", again)
    sim.unicast("S0", "C", b"unicast")
    sim.run_until()
    assert sorted((n, value) for n, _, value in got) == sorted(
        [("C", "unicast")] + [("S%d" % i, "round-1") for i in range(3)] * 2
    )
    assert sim._decoded == {} and sim._pending == {}


def test_memo_empty_after_truncated_run_resumes():
    sim, got = decoding_sim(STAR, lambda frame: frame.decode())
    sim.broadcast("C", b"x")
    sim.run_until(max_events=1)
    assert len(got) == 1 and sim._pending == {b"x": 2}
    sim.run_until()
    assert len(got) == 3 and sim._decoded == {} and sim._pending == {}
