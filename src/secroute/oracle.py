"""Exhaustive route-selection oracle.

Enumerates every simple path between two nodes and applies the same
objective and tie-break ladder as the online selector, but computed
directly from the edge tables rather than through the protocol path.
`harness.compare_oracle` uses it to check the route the protocol installs
on small topologies.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .cost import Mode, Weights
from .errors import NoCandidates, TooLarge
from .topology import Topology

ENUM_NODE_BUDGET = 12


def all_simple_paths(topo: Topology, src: str, dst: str, max_hops: int = 16) -> List[Tuple[str, ...]]:
    """Every simple src->dst node sequence, depth-first, sorted fan-out."""
    if len(topo.nodes) > ENUM_NODE_BUDGET:
        raise TooLarge("%d nodes exceeds enumeration budget" % len(topo.nodes))
    paths: List[Tuple[str, ...]] = []

    def walk(node: str, visited: Tuple[str, ...]) -> None:
        if len(visited) - 1 > max_hops:
            return
        if node == dst:
            paths.append(visited)
            return
        for nxt in sorted(topo.rdn(node)):
            if nxt not in visited:
                walk(nxt, visited + (nxt,))

    walk(src, (src,))
    return paths


def path_objectives(
    topo: Topology, path: Sequence[str], w: Weights, literal: bool
) -> Tuple[float, int, float, float]:
    """(cost, hop count, bottleneck bw, total delay) computed edge by edge."""
    cost = 0.0
    bws: List[float] = []
    delay = 0.0
    for a, b in zip(path, path[1:]):
        link = topo.link(a, b)
        bw_term = link.avl_bw if literal else 1.0 / link.avl_bw
        cost = cost + w.alpha * 1.0 + w.beta * bw_term + w.gamma * link.nw_delay
        bws.append(link.avl_bw)
        delay += link.nw_delay
    return cost, len(path) - 1, min(bws), delay


def oracle_key(topo: Topology, path: Sequence[str], mode: Mode, w: Weights, literal: bool) -> tuple:
    cost, hc, bw, nd = path_objectives(topo, path, w, literal)
    hbdp = hc * bw * nd
    bdp_ub = bw * nd
    if mode is Mode.HC:
        primary = hc
    elif mode is Mode.BW:
        primary = -bw
    elif mode is Mode.ND:
        primary = nd
    elif mode is Mode.HC_BW:
        primary = -(hc * bw)
    elif mode is Mode.BW_ND:
        primary = -(bw * nd)
    elif mode is Mode.HC_ND:
        primary = hc * nd
    else:
        primary = cost
    return (primary, -hbdp, -bdp_ub, tuple(path[1:-1]))


def oracle_select(
    topo: Topology,
    src: str,
    dst: str,
    mode: Mode,
    w: Weights,
    literal: bool = False,
    max_hops: int = 16,
) -> Tuple[Tuple[str, ...], tuple]:
    """Best full path and its tie-break tuple, by brute force."""
    paths = all_simple_paths(topo, src, dst, max_hops)
    if not paths:
        raise NoCandidates("no path %s -> %s" % (src, dst))
    best = min(paths, key=lambda p: oracle_key(topo, p, mode, w, literal))
    return best, oracle_key(topo, best, mode, w, literal)
