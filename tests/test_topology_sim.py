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
    topo = random_topology(seed, n, p)
    again = load_topology(topology_to_text(topo))
    for t in (topo, again):
        for node in t.nodes:
            assert t.rdn(node) == scanned_rdn(t, node)


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
