"""Weighted topology: nodes with roles, undirected links with bandwidth
and delay, and a line-oriented text loader.

Document format::

    # comment
    node <id> <broker|exchange|coordinator|relay>
    link <a> <b> <bw_mbps> <delay_ms>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from .errors import InvariantError, ParseError, UnknownLink, UnknownNode

ROLES = ("broker", "exchange", "coordinator", "relay")


@dataclass(frozen=True)
class Link:
    avl_bw: float  # Mb/s, > 0
    nw_delay: float  # ms, >= 0


class Topology:
    """Nodes by id with their roles, links by unordered node pair, and an
    adjacency index that `add_node` and `add_link` keep in step with them."""

    def __init__(self) -> None:
        self.nodes: Dict[str, str] = {}  # id -> role
        self.links: Dict[FrozenSet[str], Link] = {}
        self._adjacent: Dict[str, Set[str]] = {}

    def add_node(self, node: str, role: str = "relay") -> None:
        if role not in ROLES:
            raise InvariantError("unknown role %r" % role)
        self.nodes[node] = role
        self._adjacent.setdefault(node, set())

    def add_link(self, a: str, b: str, bw: float, delay: float) -> None:
        if a == b:
            raise InvariantError("self-loop at %r" % a)
        for n in (a, b):
            if n not in self.nodes:
                raise InvariantError("undeclared node %r" % n)
        key = frozenset((a, b))
        if key in self.links:
            raise InvariantError("duplicate link %s-%s" % (a, b))
        if bw <= 0:
            raise InvariantError("bandwidth must be positive on %s-%s" % (a, b))
        if delay < 0:
            raise InvariantError("delay must be nonnegative on %s-%s" % (a, b))
        self.links[key] = Link(avl_bw=bw, nw_delay=delay)
        self._adjacent[a].add(b)
        self._adjacent[b].add(a)

    def link(self, a: str, b: str) -> Link:
        try:
            return self.links[frozenset((a, b))]
        except KeyError:
            raise UnknownLink("%s-%s" % (a, b)) from None

    def has_link(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.links

    def rdn(self, node: str) -> Set[str]:
        """One-hop neighborhood of a node (a copy the caller may change)."""
        try:
            return set(self._adjacent[node])
        except KeyError:
            raise UnknownNode(node) from None


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
