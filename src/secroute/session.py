"""Broker / cloud-exchange / cloud-coordinator handshakes.

Three fixed-order message exchanges: the broker obtains auth material
from the exchange (gated on SLA signing), the exchange and a coordinator
swap sealed signature tokens, and the broker submits a task directly to
the coordinator (gated on token verification) and is billed for it.
"Signatures" are MAC tokens under pairwise keys; everything stays
symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .crypto import hash_bytes, mac, open_box, seal
from .errors import (
    AuthFailure,
    BadSla,
    NoAvailability,
    NoMatchingCloud,
    OutOfOrderMessage,
    SlaRefused,
    TokenInvalid,
    UnknownCoordinator,
)
from .kdc import PairwiseKeyService


@dataclass
class SessionState:
    """Step tracker for one handshake; messages must arrive in order."""

    name: str
    expected_step: int = 1
    transcript: List[Tuple[int, object]] = field(default_factory=list)
    session_key: Optional[bytes] = None
    done: bool = False

    def accept(self, step: int, payload=None) -> None:
        if self.done or step != self.expected_step:
            raise OutOfOrderMessage(
                "%s: got step %d, expected %d" % (self.name, step, self.expected_step)
            )
        self.transcript.append((step, payload))
        self.expected_step += 1


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
        key = svc.pairwise_key(self.issuer, self.subject)
        good = mac(key, [b"auth-token", self.subject.encode(), self.issuer.encode(), self.purpose.encode()])
        return good == self.tag


@dataclass
class SlaDocument:
    parties: Tuple[str, str]
    terms: str
    broker_token: Optional[AuthToken] = None
    coordinator_token: Optional[AuthToken] = None

    def fully_signed(self) -> bool:
        return self.broker_token is not None and self.coordinator_token is not None


@dataclass
class CloudRecord:
    cloud: str
    services: Tuple[str, ...]
    free_datacenters: int
    cost_stat: float  # mean advertised usage cost
    sla_terms: str
    tariff: float  # per unit of path cost
    refreshed_at: float = 0.0


@dataclass
class CloudDirectory:
    records: Dict[str, CloudRecord] = field(default_factory=dict)

    def matching(self, service: str) -> List[CloudRecord]:
        out = []
        for rec in self.records.values():
            if service in rec.services:
                out.append(rec)
        return out


@dataclass
class Coordinator:
    """A cloud's front node."""

    node: str
    services: Tuple[str, ...]
    free_datacenters: int
    cost_stat: float
    sla_terms: str
    tariff: float
    registered_with: Optional[str] = None
    signed_slas: List[SlaDocument] = field(default_factory=list)

    def process_task(self, task: bytes) -> bytes:
        # Simulated datacenter callback: result is a digest of the task.
        return hash_bytes(b"result" + task)


@dataclass
class Broker:
    node: str
    ledger: List[Tuple[str, float]] = field(default_factory=list)
    tokens: Dict[str, AuthToken] = field(default_factory=dict)  # cloud -> broker's token


@dataclass
class Exchange:
    node: str
    directory: CloudDirectory = field(default_factory=CloudDirectory)
    coordinator_tokens: Dict[str, AuthToken] = field(default_factory=dict)


def directory_refresh(coordinator: Coordinator, exchange: Exchange, now: float = 0.0) -> CloudDirectory:
    """Coordinator pushes its current record into the exchange directory."""
    if coordinator.registered_with != exchange.node:
        raise UnknownCoordinator(coordinator.node)
    exchange.directory.records[coordinator.node] = CloudRecord(
        cloud=coordinator.node,
        services=tuple(coordinator.services),
        free_datacenters=coordinator.free_datacenters,
        cost_stat=coordinator.cost_stat,
        sla_terms=coordinator.sla_terms,
        tariff=coordinator.tariff,
        refreshed_at=now,
    )
    return exchange.directory


def run_bcec(
    broker: Broker,
    exchange: Exchange,
    svc: PairwiseKeyService,
    service: str,
    sign_sla: bool = True,
) -> Tuple[str, SlaDocument, bytes]:
    """Broker <-> exchange handshake.

    Steps: availability query, statistics response, broker selection, SLA
    signing, secure link, auth-key request, sealed key delivery, link
    close.  Returns (selected cloud, signed SLA, auth-key material).
    """
    session = SessionState("bcec")
    session.accept(1, service)
    matches = exchange.directory.matching(service)
    if not matches:
        raise NoMatchingCloud(service)
    session.accept(2, [r.cloud for r in matches])
    chosen = min(matches, key=lambda r: (r.cost_stat, r.cloud))
    session.accept(3, chosen.cloud)
    if not sign_sla:
        raise SlaRefused(chosen.cloud)
    sla = SlaDocument(parties=(broker.node, chosen.cloud), terms=chosen.sla_terms)
    sla.broker_token = AuthToken.issue(svc, broker.node, chosen.cloud, "sla")
    session.accept(4, "sla-signed")
    link_key = mac(svc.pairwise_key(broker.node, exchange.node), [b"bcec-link", service.encode()])
    session.session_key = link_key
    session.accept(5, "link-up")
    session.accept(6, chosen.cloud)
    auth_material = mac(
        svc.pairwise_key(exchange.node, chosen.cloud), [b"cloud-auth-key", broker.node.encode()]
    )
    sealed = seal(link_key, auth_material)
    session.accept(7, "key-delivered")
    session.accept(8, "link-closed")
    session.done = True
    try:
        recovered = open_box(link_key, sealed)
    except AuthFailure:
        raise TokenInvalid("auth key delivery corrupted")
    return chosen.cloud, sla, recovered


def run_ceccc(
    exchange: Exchange,
    coordinator: Coordinator,
    svc: PairwiseKeyService,
    sla: SlaDocument,
) -> Tuple[AuthToken, AuthToken]:
    """Exchange <-> coordinator: trade sealed signature tokens over an SLA."""
    if sla.broker_token is None:
        raise BadSla("missing broker signature")
    # Steps 1-2 are the periodic directory refresh; the broker-triggered
    # part of the exchange-coordinator handshake starts at step 3.
    session = SessionState("ceccc", expected_step=3)
    session.accept(3, "broker-intro")
    if coordinator.free_datacenters < 1:
        raise NoAvailability(coordinator.node)
    session.accept(4, "availability-confirmed")
    session.accept(5, "sla-delivered")
    coordinator.signed_slas.append(sla)
    coord_token = AuthToken.issue(svc, coordinator.node, sla.parties[0], "bccc")
    sla.coordinator_token = AuthToken.issue(svc, coordinator.node, exchange.node, "sla")
    session.accept(6, "coordinator-signature")
    broker_token = AuthToken.issue(svc, coordinator.node, sla.parties[0], "bccc")
    exchange.coordinator_tokens[coordinator.node] = coord_token
    session.accept(7, "broker-signature-released")
    session.done = True
    return coord_token, broker_token


def run_bccc(
    broker: Broker,
    coordinator: Coordinator,
    svc: PairwiseKeyService,
    token: AuthToken,
    task: bytes,
    path_cost: float,
) -> Tuple[bytes, float]:
    """Broker <-> coordinator: authenticated task submission and billing.

    The token must verify before any task bytes move; cost is the route's
    accumulated path cost times the coordinator's tariff.
    """
    session = SessionState("bccc")
    session.accept(1, "service-request")
    session.accept(2, "auth-challenge")
    session.accept(3, token)
    if (
        token.subject != broker.node
        or token.issuer != coordinator.node
        or token.purpose != "bccc"
        or not token.verify(svc)
    ):
        raise TokenInvalid("broker token rejected")
    session.accept(4, "token-verified")
    task_key = mac(svc.pairwise_key(broker.node, coordinator.node), [b"bccc-task", token.tag])
    sealed_task = seal(task_key, task)
    session.accept(5, "task-delivered")
    plain_task = open_box(task_key, sealed_task)
    result = coordinator.process_task(plain_task)
    session.accept(6, "processed")
    cost = path_cost * coordinator.tariff
    sealed_result = seal(task_key, result)
    session.accept(7, "result-delivered")
    broker.ledger.append((coordinator.node, cost))
    session.accept(8, "paid")
    session.done = True
    return open_box(task_key, sealed_result), cost
