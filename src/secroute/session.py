"""Broker / cloud-exchange / cloud-coordinator handshakes, as their gates.

The three handshakes run in process, each as a straight line of checks:
the broker gets auth material, and its token on the SLA, once a cloud
with room in the exchange's directory offers the service; the
coordinator countersigns the SLA if it has a free datacenter, takes that
datacenter, and releases the broker's task token; the coordinator runs
a task only for a token that verifies, and bills the broker for it.
"Signatures" are MAC tokens under pairwise keys; everything stays
symmetric.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .crypto import hash_bytes, mac
from .errors import (
    BadSla,
    NoAvailability,
    NoMatchingCloud,
    TokenInvalid,
    UnknownCoordinator,
)
from .kdc import PairwiseKeyService


@dataclass(frozen=True)
class AuthToken:
    subject: str
    issuer: str
    purpose: str
    tag: bytes

    @classmethod
    def issue(cls, svc: PairwiseKeyService, issuer: str, subject: str, purpose: str) -> "AuthToken":
        key = svc.pairwise_key(issuer, subject)
        tag = mac(key, [b"auth-token", subject.encode(), issuer.encode(), purpose.encode()])
        return cls(subject, issuer, purpose, tag)

    def verify(self, svc: PairwiseKeyService) -> bool:
        good = AuthToken.issue(svc, self.issuer, self.subject, self.purpose)
        return hmac.compare_digest(good.tag, self.tag)


@dataclass
class SlaDocument:
    parties: Tuple[str, str]
    terms: str
    broker_token: Optional[AuthToken] = None
    coordinator_token: Optional[AuthToken] = None


@dataclass
class CloudRecord:
    services: Tuple[str, ...]
    free_datacenters: int
    cost_stat: float  # mean advertised usage cost
    sla_terms: str


@dataclass
class Coordinator:
    """A cloud's front node."""

    node: str
    services: Tuple[str, ...]
    free_datacenters: int
    cost_stat: float
    sla_terms: str
    tariff: float  # per unit of path cost
    registered_with: Optional[str] = None
    signed_slas: List[SlaDocument] = field(default_factory=list)


@dataclass
class Broker:
    node: str
    ledger: List[Tuple[str, float]] = field(default_factory=list)


@dataclass
class Exchange:
    node: str
    directory: Dict[str, CloudRecord] = field(default_factory=dict)  # by coordinator


def directory_refresh(coordinator: Coordinator, exchange: Exchange) -> None:
    """Coordinator pushes its current record into the exchange directory."""
    if coordinator.registered_with != exchange.node:
        raise UnknownCoordinator(coordinator.node)
    exchange.directory[coordinator.node] = CloudRecord(
        services=tuple(coordinator.services),
        free_datacenters=coordinator.free_datacenters,
        cost_stat=coordinator.cost_stat,
        sla_terms=coordinator.sla_terms,
    )


def run_bcec(
    broker: Broker,
    exchange: Exchange,
    svc: PairwiseKeyService,
    service: str,
) -> Tuple[str, SlaDocument, bytes]:
    """Broker <-> exchange: pick the cheapest cloud offering `service`
    whose directory record shows a free datacenter.

    Gates: some cloud in the directory offers the service
    (NoMatchingCloud) and one of those has room (NoAvailability).
    Returns (selected cloud, SLA carrying the broker's token, auth
    material the exchange derives for the broker under its key with the
    cloud).
    """
    matches = {c: r for c, r in exchange.directory.items() if service in r.services}
    if not matches:
        raise NoMatchingCloud(service)
    with_room = [(r.cost_stat, c) for c, r in matches.items() if r.free_datacenters >= 1]
    if not with_room:
        raise NoAvailability(service)
    cloud = min(with_room)[1]
    sla = SlaDocument(parties=(broker.node, cloud), terms=matches[cloud].sla_terms)
    sla.broker_token = AuthToken.issue(svc, broker.node, cloud, "sla")
    auth_material = mac(svc.pairwise_key(exchange.node, cloud), [b"cloud-auth-key", broker.node.encode()])
    return cloud, sla, auth_material


def run_ceccc(
    exchange: Exchange,
    coordinator: Coordinator,
    svc: PairwiseKeyService,
    sla: SlaDocument,
) -> Tuple[AuthToken, AuthToken]:
    """Exchange <-> coordinator: the coordinator countersigns the SLA.

    Gates: the SLA carries the broker's signature (BadSla) and the
    coordinator has a free datacenter (NoAvailability), which the SLA
    then takes.  Returns (`sla.coordinator_token`, the broker's token for
    `run_bccc`).
    """
    if sla.broker_token is None:
        raise BadSla("missing broker signature")
    if coordinator.free_datacenters < 1:
        raise NoAvailability(coordinator.node)
    coordinator.free_datacenters -= 1
    coordinator.signed_slas.append(sla)
    sla.coordinator_token = AuthToken.issue(svc, coordinator.node, exchange.node, "sla")
    broker_token = AuthToken.issue(svc, coordinator.node, sla.parties[0], "bccc")
    return sla.coordinator_token, broker_token


def run_bccc(
    broker: Broker,
    coordinator: Coordinator,
    svc: PairwiseKeyService,
    token: AuthToken,
    task: bytes,
    path_cost: float,
) -> Tuple[bytes, float]:
    """Broker <-> coordinator: authenticated task submission and billing.

    Gate: the token names this broker and coordinator, is for "bccc" and
    its MAC verifies (TokenInvalid); nothing is processed or billed
    otherwise.  The bill is the route's accumulated path cost times the
    coordinator's tariff, and goes into the broker's ledger.  Returns
    (task result, bill).
    """
    if (
        token.subject != broker.node
        or token.issuer != coordinator.node
        or token.purpose != "bccc"
        or not token.verify(svc)
    ):
        raise TokenInvalid("broker token rejected")
    cost = path_cost * coordinator.tariff
    broker.ledger.append((coordinator.node, cost))
    return hash_bytes(b"result" + task), cost  # the datacenter's result: a digest of the task
