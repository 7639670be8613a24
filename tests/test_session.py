import pytest
from hypothesis import given, strategies as st

from secroute import session
from secroute.crypto import hash_bytes
from secroute.errors import (
    BadSla,
    NoAvailability,
    NoMatchingCloud,
    OutOfOrderMessage,
    SlaRefused,
    TokenInvalid,
    UnknownCoordinator,
)
from secroute.kdc import PairwiseKeyService


@pytest.fixture
def world():
    svc = PairwiseKeyService(b"m" * 32)
    broker = session.Broker("B1")
    exchange = session.Exchange("X1")
    coord = session.Coordinator(
        node="C1",
        services=("compute", "storage"),
        free_datacenters=3,
        cost_stat=2.0,
        sla_terms="standard",
        tariff=0.5,
        registered_with="X1",
    )
    session.directory_refresh(coord, exchange, now=0.0)
    return svc, broker, exchange, coord


def test_directory_refresh_requires_registration(world):
    svc, broker, exchange, coord = world
    rogue = session.Coordinator("C9", ("compute",), 1, 1.0, "std", 0.1, registered_with="X2")
    with pytest.raises(UnknownCoordinator):
        session.directory_refresh(rogue, exchange)


def test_directory_refresh_updates_record(world):
    svc, broker, exchange, coord = world
    coord.free_datacenters = 7
    session.directory_refresh(coord, exchange, now=500.0)
    rec = exchange.directory.records["C1"]
    assert rec.free_datacenters == 7
    assert rec.refreshed_at == 500.0


def test_bcec_happy_path(world):
    svc, broker, exchange, coord = world
    cloud, sla, auth = session.run_bcec(broker, exchange, svc, "compute")
    assert cloud == "C1"
    assert sla.parties == ("B1", "C1")
    assert sla.broker_token is not None and sla.broker_token.verify(svc)
    assert len(auth) == 32


def test_bcec_no_matching_cloud(world):
    svc, broker, exchange, coord = world
    with pytest.raises(NoMatchingCloud):
        session.run_bcec(broker, exchange, svc, "quantum")


def test_bcec_sla_refused(world):
    svc, broker, exchange, coord = world
    with pytest.raises(SlaRefused):
        session.run_bcec(broker, exchange, svc, "compute", sign_sla=False)


def test_bcec_picks_cheapest(world):
    svc, broker, exchange, coord = world
    cheap = session.Coordinator("C0", ("compute",), 2, 1.0, "std", 0.2, registered_with="X1")
    session.directory_refresh(cheap, exchange)
    cloud, _, _ = session.run_bcec(broker, exchange, svc, "compute")
    assert cloud == "C0"


def test_ceccc_happy_path(world):
    svc, broker, exchange, coord = world
    _, sla, _ = session.run_bcec(broker, exchange, svc, "compute")
    coord_token, broker_token = session.run_ceccc(exchange, coord, svc, sla)
    assert sla.fully_signed()
    assert sla in coord.signed_slas
    assert broker_token.subject == "B1" and broker_token.issuer == "C1"
    assert broker_token.verify(svc)
    assert exchange.coordinator_tokens["C1"].verify(svc)


def test_ceccc_rejects_unsigned_sla(world):
    svc, broker, exchange, coord = world
    with pytest.raises(BadSla):
        session.run_ceccc(exchange, coord, svc, session.SlaDocument(("B1", "C1"), "std"))


def test_ceccc_no_availability(world):
    svc, broker, exchange, coord = world
    _, sla, _ = session.run_bcec(broker, exchange, svc, "compute")
    coord.free_datacenters = 0
    with pytest.raises(NoAvailability):
        session.run_ceccc(exchange, coord, svc, sla)


def test_bccc_happy_path(world):
    svc, broker, exchange, coord = world
    _, sla, _ = session.run_bcec(broker, exchange, svc, "compute")
    _, broker_token = session.run_ceccc(exchange, coord, svc, sla)
    task = b"invert this matrix"
    result, cost = session.run_bccc(broker, coord, svc, broker_token, task, path_cost=6.0)
    assert result == hash_bytes(b"result" + task)
    assert cost == pytest.approx(6.0 * 0.5)
    assert broker.ledger == [("C1", cost)]


def test_bccc_forged_token_blocks_transfer(world):
    svc, broker, exchange, coord = world
    forged = session.AuthToken("B1", "C1", "bccc", b"\x00" * 32)
    with pytest.raises(TokenInvalid):
        session.run_bccc(broker, coord, svc, forged, b"task", 1.0)
    assert broker.ledger == []


def test_bccc_wrong_purpose_token(world):
    svc, broker, exchange, coord = world
    token = session.AuthToken.issue(svc, "C1", "B1", "sla")
    with pytest.raises(TokenInvalid):
        session.run_bccc(broker, coord, svc, token, b"task", 1.0)


def test_bccc_wrong_subject_token(world):
    svc, broker, exchange, coord = world
    token = session.AuthToken.issue(svc, "C1", "B2", "bccc")
    with pytest.raises(TokenInvalid):
        session.run_bccc(broker, coord, svc, token, b"task", 1.0)


def test_ledger_accumulates(world):
    svc, broker, exchange, coord = world
    _, sla, _ = session.run_bcec(broker, exchange, svc, "compute")
    _, token = session.run_ceccc(exchange, coord, svc, sla)
    total = 0.0
    for pc in (1.0, 2.0, 3.0):
        _, cost = session.run_bccc(broker, coord, svc, token, b"t", pc)
        total += cost
    assert sum(c for _, c in broker.ledger) == pytest.approx(total)
    assert total == pytest.approx((1 + 2 + 3) * 0.5)


def test_token_issue_verify_and_cross_party():
    svc = PairwiseKeyService(b"k" * 32)
    tok = session.AuthToken.issue(svc, "C1", "B1", "bccc")
    assert tok.verify(svc)
    other = PairwiseKeyService(b"j" * 32)
    assert not tok.verify(other)


def test_session_state_ordering_strict():
    s = session.SessionState("demo")
    s.accept(1)
    with pytest.raises(OutOfOrderMessage):
        s.accept(3)
    assert s.expected_step == 2  # failed accept must not advance
    s.accept(2)
    s.done = True
    with pytest.raises(OutOfOrderMessage):
        s.accept(3)


@given(st.permutations(list(range(1, 6))))
def test_session_state_only_identity_order_accepted(order):
    s = session.SessionState("perm")
    ok = True
    for step in order:
        try:
            s.accept(step)
        except OutOfOrderMessage:
            ok = False
            break
    if order == list(range(1, 6)):
        assert ok and s.expected_step == 6
    else:
        assert not ok
        # transcript holds exactly the in-order prefix that was accepted
        assert [st_ for st_, _ in s.transcript] == list(range(1, s.expected_step))
