"""Multi-metric path cost and route selection.

Cost accumulates per link from hop count, bandwidth, and delay under
nonnegative weights.  A path's running totals (hop count, path cost,
bottleneck bandwidth, summed delay) are one `Totals` wherever they
appear: the request's sealed body, a destination's candidates and the
report.  `advance` is the one per-link rule: it carries them over one
more link.  Relays and the destination apply it to the totals they
opened, and `aggregate` folds it over a whole node sequence for reports;
no other code does this arithmetic (`oracle` keeps its own copy as the
cross-check).  Selection runs in one of seven modes, each keyed to
a single metric or metric product, with a fixed tie-break ladder:
primary objective, then maximum hop*bandwidth*delay product, then maximum
bandwidth-delay product, then lexicographically smallest path.  Its one
caller in the protocol is the destination, which ranks the requests it
collected by the run's mode (`srdp.SrdpNode.finalize_destination`).
Nothing here watches an installed route: per-hop acks, route errors
and rediscovery keep it alive (`harness`, `srdp`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, NamedTuple, Sequence, Tuple

from .errors import MissingEdge, NoCandidates, NonpositiveBandwidth


@dataclass(frozen=True)
class Weights:
    alpha: float = 1.0  # hop count
    beta: float = 0.1  # bandwidth
    gamma: float = 1.0  # delay


class Mode(enum.Enum):
    HC = "hc"
    BW = "bw"
    ND = "nd"
    HC_BW = "hc_bw"
    BW_ND = "bw_nd"
    HC_ND = "hc_nd"
    HC_BW_ND = "hc_bw_nd"


# Which weight components each mode keeps active.
_MODE_MASK = {
    Mode.HC: (True, False, False),
    Mode.BW: (False, True, False),
    Mode.ND: (False, False, True),
    Mode.HC_BW: (True, True, False),
    Mode.BW_ND: (False, True, True),
    Mode.HC_ND: (True, False, True),
    Mode.HC_BW_ND: (True, True, True),
}


def weights_for_mode(mode: Mode, base: Weights = Weights()) -> Weights:
    a, b, g = _MODE_MASK[mode]
    return Weights(
        alpha=base.alpha if a else 0.0,
        beta=base.beta if b else 0.0,
        gamma=base.gamma if g else 0.0,
    )


def path_cost_step(
    prev: float, link_bw: float, link_delay: float, w: Weights, literal: bool = False
) -> float:
    """One link's cost increment.

    By default the bandwidth term is the reciprocal 1/bw (in Mb/s), so
    minimizing cost prefers fast links.  With literal=True the bandwidth
    value itself is added, which penalizes fast links; kept for
    comparison runs.
    """
    if link_bw <= 0:
        raise NonpositiveBandwidth(str(link_bw))
    bw_term = link_bw if literal else 1.0 / link_bw
    return prev + w.alpha * 1.0 + w.beta * bw_term + w.gamma * link_delay


class Totals(NamedTuple):
    """A path's running totals; all zero before its first link.  An RREQ
    body carries them, sealed by the hop that advanced them last; its
    `hop_count` is the sealed path's length, which the destination checks
    against the hash chain, and the rest are taken on that hop's word."""

    hop_count: int = 0
    path_cost: float = 0.0
    bw: float = 0.0  # bottleneck so far, Mb/s; 0 before the first hop
    nd: float = 0.0  # summed delay so far, ms


def advance(prev: Totals, link_bw: float, link_delay: float, w: Weights, literal: bool) -> Totals:
    """`prev` carried over one more link.

    Cost grows by `path_cost_step`, hop_count by one, bw becomes the
    bottleneck (the link's own bandwidth on the first hop, when hop_count
    is still 0) and nd adds the link's delay.
    """
    hops, path_cost, bw, nd = prev
    return Totals(
        hops + 1,
        path_cost_step(path_cost, link_bw, link_delay, w, literal),
        link_bw if hops == 0 or link_bw < bw else bw,  # min(bw, link_bw) after the first hop
        nd + link_delay,
    )


@dataclass
class CostMatrices:
    """Per-edge bandwidth/delay tables over the topology's edges."""

    m_bw: Dict[FrozenSet[str], float]
    m_nd: Dict[FrozenSet[str], float]

    @classmethod
    def from_topology(cls, topo) -> "CostMatrices":
        m_bw, m_nd = {}, {}
        for key, link in topo.links.items():
            m_bw[key] = link.avl_bw
            m_nd[key] = link.nw_delay
        return cls(m_bw, m_nd)


def aggregate(path: Sequence[str], matrices: CostMatrices, w: Weights, literal: bool) -> Totals:
    """The totals of a whole node sequence, by `advance`."""
    if len(path) < 2:
        raise MissingEdge("path needs at least one edge")
    t = Totals()
    for a, b in zip(path, path[1:]):
        key = frozenset((a, b))
        if key not in matrices.m_bw:
            raise MissingEdge("%s-%s" % (a, b))
        t = advance(t, matrices.m_bw[key], matrices.m_nd[key], w, literal)
    return t


def products(t: Totals) -> Tuple[float, float, float, float]:
    """(hbp, bdp, hdp, hbdp) metric products for tie-breaking."""
    hbp = t.hop_count * t.bw
    bdp = t.bw * t.nd  # bottleneck bandwidth x end-to-end delay
    hdp = t.hop_count * t.nd
    hbdp = t.hop_count * t.bw * t.nd
    return hbp, bdp, hdp, hbdp


# A candidate route: its path and totals, as in `srdp.Candidate`.
Candidate = Tuple[Sequence[str], Totals]


def selection_key(candidate: Candidate, mode: Mode) -> tuple:
    """Sort key whose minimum is the selected candidate.

    Tuple order: primary objective, max HBDP, max BDP, lexicographic
    path.  Maximized quantities are negated.
    """
    path, t = candidate[0], candidate[1]
    hbp, bdp, hdp, hbdp = products(t)
    primary = {
        Mode.HC: t.hop_count,
        Mode.BW: -t.bw,
        Mode.ND: t.nd,
        Mode.HC_BW: -hbp,
        Mode.BW_ND: -bdp,
        Mode.HC_ND: hdp,
        Mode.HC_BW_ND: t.path_cost,
    }[mode]
    return (primary, -hbdp, -bdp, tuple(path))


def select_route(candidates: Sequence[Candidate], mode: Mode) -> Sequence[str]:
    if not candidates:
        raise NoCandidates()
    return min(candidates, key=lambda c: selection_key(c, mode))[0]

