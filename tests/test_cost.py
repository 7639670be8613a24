import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secroute import cost
from secroute.cost import Mode, Totals, Weights
from secroute.errors import MissingEdge, NoCandidates, NonpositiveBandwidth
from secroute.harness import random_topology
from secroute.oracle import all_simple_paths, oracle_select, path_objectives
from secroute.topology import load_topology


def test_weights_for_mode_cases():
    base = Weights(1, 0.1, 1)
    assert cost.weights_for_mode(Mode.BW, base) == Weights(0, 0.1, 0)
    assert cost.weights_for_mode(Mode.HC_BW_ND, base) == Weights(1, 0.1, 1)
    assert cost.weights_for_mode(Mode.HC, Weights(2, 5, 7)) == Weights(2, 0, 0)
    assert cost.weights_for_mode(Mode.BW_ND, base) == Weights(0, 0.1, 1)


def test_path_cost_step_hop_only():
    assert cost.path_cost_step(0, 10, 5, Weights(1, 0, 0)) == 1


def test_path_cost_step_delay_only():
    assert cost.path_cost_step(0, 10, 7, Weights(0, 0, 1)) == 7


def test_path_cost_step_literal_arithmetic():
    # literal adds the raw bandwidth value: 1 + 0.1*10 + 2 = 4
    assert cost.path_cost_step(0, 10, 2, Weights(1, 0.1, 1), literal=True) == 4


def test_path_cost_step_reciprocal_default():
    got = cost.path_cost_step(0, 10, 2, Weights(1, 0.1, 1))
    assert got == pytest.approx(1 + 0.1 / 10 + 2)


def test_path_cost_step_rejects_bad_bandwidth():
    with pytest.raises(NonpositiveBandwidth):
        cost.path_cost_step(0, 0, 2, Weights())


TOPO = load_topology(
    "node S relay\nnode A relay\nnode D relay\n"
    "link S A 10 2\nlink A D 20 3\n"
)


def test_aggregate():
    matrices = cost.CostMatrices.from_topology(TOPO)
    w = Weights(1, 0.1, 1)
    t = cost.aggregate(["S", "A", "D"], matrices, w, False)
    assert t == Totals(2, cost.path_cost_step(cost.path_cost_step(0.0, 10, 2, w), 20, 3, w), 10, 5)
    assert cost.aggregate(["S", "A"], matrices, w, True) == Totals(1, 1 + 0.1 * 10 + 2, 10, 2)
    with pytest.raises(MissingEdge):
        cost.aggregate(["S", "D"], matrices, w, False)
    with pytest.raises(MissingEdge):
        cost.aggregate(["S"], matrices, w, False)


def test_advance_one_link():
    w = Weights(1, 0.1, 1)
    first = cost.advance(Totals(), 20, 3, w, False)
    assert first == Totals(1, cost.path_cost_step(0.0, 20, 3, w), 20, 3)
    second = cost.advance(first, 10, 2, w, False)
    assert second == Totals(2, cost.path_cost_step(first.path_cost, 10, 2, w), 10, 5)
    assert cost.advance(second, 50, 1, w, False).bw == 10  # the bottleneck stays
    assert first.hop_count == 1  # advance builds new totals; prev is untouched


@pytest.mark.parametrize("seed", range(6))
def test_aggregate_equals_oracle_objectives(seed):
    # Exact floats: bills are checked against oracle.path_objectives with ==.
    topo = random_topology(seed, n=8)
    matrices = cost.CostMatrices.from_topology(topo)
    paths = all_simple_paths(topo, "N0", "N7")
    for mode in Mode:
        w = cost.weights_for_mode(mode)
        for literal in (False, True):
            for p in paths:
                t = cost.aggregate(p, matrices, w, literal)
                assert (t.path_cost, t.hop_count, t.bw, t.nd) == path_objectives(topo, p, w, literal)


def test_products():
    assert cost.products(Totals(2, 0.0, 10, 5)) == (20, 50, 10, 100)
    assert cost.products(Totals(1, 0.0, 1, 1)) == (1, 1, 1, 1)
    assert cost.products(Totals(3, 0.0, 100, 15))[3] == 4500


def test_select_route_max_bw():
    cands = [
        (("A",), Totals(2, 1.0, 10, 5)),
        (("B",), Totals(2, 9.0, 100, 5)),
    ]
    assert cost.select_route(cands, Mode.BW) == ("B",)


def test_select_route_hc_tie_breaks_on_hbdp():
    cands = [
        (("A",), Totals(2, 1.0, 4, 5)),  # hbdp 40
        (("B",), Totals(2, 1.0, 9, 5)),  # hbdp 90
    ]
    assert cost.select_route(cands, Mode.HC) == ("B",)


def test_select_route_empty():
    with pytest.raises(NoCandidates):
        cost.select_route([], Mode.HC)


def test_select_route_deterministic():
    cands = [
        (("A",), Totals(2, 2.0, 4, 5)),
        (("B",), Totals(2, 2.0, 4, 5)),
    ]
    # full tie falls through to lexicographic path order
    assert cost.select_route(cands, Mode.HC) == ("A",)
    assert cost.select_route(cands, Mode.HC) == cost.select_route(cands, Mode.HC)


def _enumerated_candidates(topo, src, dst, mode, literal=False):
    w = cost.weights_for_mode(mode)
    matrices = cost.CostMatrices.from_topology(topo)
    return [(tuple(p[1:-1]), cost.aggregate(p, matrices, w, literal)) for p in all_simple_paths(topo, src, dst)]


@pytest.mark.parametrize("seed", range(20))
def test_select_route_matches_oracle(seed):
    topo = random_topology(seed, n=8)
    for mode in Mode:
        cands = _enumerated_candidates(topo, "N0", "N7", mode)
        chosen = cost.select_route(cands, mode)
        oracle_path, _ = oracle_select(topo, "N0", "N7", mode, cost.weights_for_mode(mode))
        assert tuple(chosen) == tuple(oracle_path[1:-1])


def test_bandwidth_scaling_argmax_invariance():
    topo = random_topology(4, n=8)
    cands = _enumerated_candidates(topo, "N0", "N7", Mode.BW)
    chosen = cost.select_route(cands, Mode.BW)
    scaled = [(p, t._replace(bw=t.bw * 37.0)) for p, t in cands]
    assert cost.select_route(scaled, Mode.BW) == chosen


totals = st.builds(
    Totals, st.integers(0, 0xFF), st.floats(0, 100), st.floats(0.1, 1000), st.floats(0, 100)
)


@settings(max_examples=100)
@given(totals, st.floats(min_value=0.1, max_value=1000), st.floats(min_value=0, max_value=100))
@example(Totals(0, -0.0, 0.0, 0.0), 1.0, 0.0)
@example(Totals(3, 7.5, 10.0, 4.0), 20.0, -0.0)
def test_cost_accumulation_monotone(prev, bw, delay):
    t = cost.advance(prev, bw, delay, Weights(1, 0.1, 1), False)
    assert t.hop_count == prev.hop_count + 1
    assert t.path_cost >= prev.path_cost and t.nd >= prev.nd
    assert t.bw == (bw if prev.hop_count == 0 else min(prev.bw, bw))

