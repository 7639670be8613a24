"""Weighted topology: nodes with roles, undirected links with bandwidth
and delay, and a line-oriented text loader.

Document format::

    # comment
    node <id> <broker|exchange|coordinator|relay>
    link <a> <b> <bw_mbps> <delay_ms>

A node or a link declared twice is an InvariantError: a second `node`
line would otherwise change the node's role.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from .errors import InvariantError, ParseError, UnknownLink, UnknownNode

ROLES = ("broker", "exchange", "coordinator", "relay")


@dataclass(frozen=True)
class Link:
    avl_bw: float  # Mb/s, finite and > 0
    nw_delay: float  # ms, finite and >= 0


class Topology:
    """Nodes by id with their roles, links by unordered node pair, and a
    link table that `add_node` and `add_link` keep in step with them: each
    `Link` indexed under both of its endpoints, and each node's
    (neighbour, link) out-list sorted by neighbour id.  An out-list is
    built when first read and again after a link is added at its node,
    so building a topology sorts nothing."""

    def __init__(self) -> None:
        self.nodes: Dict[str, str] = {}  # id -> role
        self.links: Dict[FrozenSet[str], Link] = {}
        self._adjacent: Dict[str, Dict[str, Link]] = {}  # node -> neighbour -> link
        self._out: Dict[str, Tuple[Tuple[str, Link], ...]] = {}  # built on read

    def add_node(self, node: str, role: str = "relay") -> None:
        if role not in ROLES:
            raise InvariantError("unknown role %r" % role)
        if not node:
            raise InvariantError("empty node id")
        if node in self.nodes:
            raise InvariantError("duplicate node %r" % node)
        self.nodes[node] = role
        self._adjacent[node] = {}

    def add_link(self, a: str, b: str, bw: float, delay: float) -> None:
        if a == b:
            raise InvariantError("self-loop at %r" % a)
        for n in (a, b):
            if n not in self.nodes:
                raise InvariantError("undeclared node %r" % n)
        key = frozenset((a, b))
        if key in self.links:
            raise InvariantError("duplicate link %s-%s" % (a, b))
        # NaN fails every comparison, so each check also rejects it.
        if not 0 < bw < math.inf:
            raise InvariantError("bandwidth must be positive and finite on %s-%s" % (a, b))
        if not 0 <= delay < math.inf:
            raise InvariantError("delay must be nonnegative and finite on %s-%s" % (a, b))
        link = self.links[key] = Link(avl_bw=bw, nw_delay=delay)
        self._adjacent[a][b] = self._adjacent[b][a] = link
        if self._out:
            self._out.pop(a, None)
            self._out.pop(b, None)

    def link(self, a: str, b: str) -> Link:
        try:
            return self._adjacent[a][b]
        except KeyError:
            raise UnknownLink("%s-%s" % (a, b)) from None

    def has_link(self, a: str, b: str) -> bool:
        return b in self._adjacent.get(a, ())

    def rdn(self, node: str) -> Set[str]:
        """One-hop neighborhood of a node (a copy the caller may change)."""
        try:
            return set(self._adjacent[node])
        except KeyError:
            raise UnknownNode(node) from None

    def out_links(self, node: str) -> Tuple[Tuple[str, Link], ...]:
        """`node`'s (neighbour, link) pairs, sorted by neighbour id."""
        out = self._out.get(node)
        if out is None:
            try:
                out = self._out[node] = tuple(sorted(self._adjacent[node].items()))
            except KeyError:
                raise UnknownNode(node) from None
        return out


def load_topology(text: str) -> Topology:
    topo = Topology()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 3:
                raise ParseError("expected 'node <id> <role>'", lineno)
            if parts[2] not in ROLES:
                raise ParseError("unknown role %r" % parts[2], lineno)
            topo.add_node(parts[1], parts[2])
        elif kind == "link":
            if len(parts) != 5:
                raise ParseError("expected 'link <a> <b> <bw> <delay>'", lineno)
            try:
                bw = float(parts[3])
                delay = float(parts[4])
            except ValueError:
                raise ParseError("bad numeric field", lineno) from None
            topo.add_link(parts[1], parts[2], bw, delay)
        else:
            raise ParseError("unknown directive %r" % kind, lineno)
    return topo
