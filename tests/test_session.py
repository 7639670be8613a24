import dataclasses

import pytest

from secroute import session
from secroute.crypto import hash_bytes
from secroute.errors import (
    BadSla,
    NoAvailability,
    NoMatchingCloud,
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
    session.directory_refresh(coord, exchange)
    return svc, broker, exchange, coord


def test_directory_refresh_requires_registration(world):
    svc, broker, exchange, coord = world
    rogue = session.Coordinator("C9", ("compute",), 1, 1.0, "std", 0.1, registered_with="X2")
    with pytest.raises(UnknownCoordinator):
        session.directory_refresh(rogue, exchange)


def test_directory_refresh_updates_record(world):
    svc, broker, exchange, coord = world
    coord.free_datacenters = 7
    session.directory_refresh(coord, exchange)
    rec = exchange.directory["C1"]
    assert rec.free_datacenters == 7


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
    assert sla.broker_token is not None and sla.coordinator_token is not None
    assert sla in coord.signed_slas
    assert broker_token.subject == "B1" and broker_token.issuer == "C1"
    assert broker_token.verify(svc)
    assert coord_token is sla.coordinator_token
    assert (coord_token.issuer, coord_token.subject, coord_token.purpose) == ("C1", "X1", "sla")
    assert coord_token.verify(svc)


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


def test_ceccc_takes_one_datacenter_per_sla(world):
    svc, broker, exchange, coord = world
    coord.free_datacenters = 1
    _, first, _ = session.run_bcec(broker, exchange, svc, "compute")
    session.run_ceccc(exchange, coord, svc, first)
    assert coord.free_datacenters == 0
    _, second, _ = session.run_bcec(broker, exchange, svc, "compute")
    with pytest.raises(NoAvailability):
        session.run_ceccc(exchange, coord, svc, second)
    assert coord.signed_slas == [first] and second.coordinator_token is None


def test_bcec_passes_over_full_cloud(world):
    svc, broker, exchange, coord = world
    cheap = session.Coordinator("C0", ("compute",), 1, 1.0, "std", 0.2, registered_with="X1")
    session.directory_refresh(cheap, exchange)
    _, sla, _ = session.run_bcec(broker, exchange, svc, "compute")
    assert sla.parties == ("B1", "C0")
    session.run_ceccc(exchange, cheap, svc, sla)
    session.directory_refresh(cheap, exchange)
    assert exchange.directory["C0"].free_datacenters == 0
    cloud, sla, _ = session.run_bcec(broker, exchange, svc, "compute")
    assert cloud == "C1" and sla.parties == ("B1", "C1")


def test_bcec_no_availability_when_every_offer_is_full(world):
    svc, broker, exchange, coord = world
    coord.free_datacenters = 0
    session.directory_refresh(coord, exchange)
    with pytest.raises(NoAvailability):
        session.run_bcec(broker, exchange, svc, "compute")


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


@pytest.mark.parametrize(
    "changes",
    [{"purpose": "sla"}, {"subject": "B2"}, {"issuer": "C2"}, {"issuer": "B1", "subject": "C1"}],
    ids=["purpose", "subject", "issuer", "swapped"],
)
def test_token_verify_binds_every_field(changes):
    # The pairwise key is symmetric; the MAC input orders the parties.
    svc = PairwiseKeyService(b"k" * 32)
    tok = session.AuthToken.issue(svc, "C1", "B1", "bccc")
    assert not dataclasses.replace(tok, **changes).verify(svc)


def test_token_issue_verify_and_cross_party():
    svc = PairwiseKeyService(b"k" * 32)
    tok = session.AuthToken.issue(svc, "C1", "B1", "bccc")
    assert tok.verify(svc)
    other = PairwiseKeyService(b"j" * 32)
    assert not tok.verify(other)


# The fixture world's handshake outputs, pinned: any change to a MAC input,
# a token's parties or purpose, or the task digest moves one of them.
GOLDEN_AUTH = "c6e72866e3a3455d9b797d258c7aa9c8769ce0e5dd3461e6a118864854af71ea"
GOLDEN_BROKER_TOKEN_TAG = "e2479edd5879e30cbe728e92ba26c730872cf42bd572a19dc72272d4c8b3784d"
GOLDEN_SLA_COORDINATOR_TAG = "476de3bed3e94d66b3e621ff8ce729a7bc54c322787d27563df234dc0fce5ded"
GOLDEN_RESULT = "b41a5a6811b2cf35b0b6c3389ebeb53dc25bbb12fa77ade775d0b8326a95e5bc"


def test_handshake_outputs_golden(world):
    svc, broker, exchange, coord = world
    _, sla, auth = session.run_bcec(broker, exchange, svc, "compute")
    assert auth.hex() == GOLDEN_AUTH
    _, broker_token = session.run_ceccc(exchange, coord, svc, sla)
    assert broker_token.tag.hex() == GOLDEN_BROKER_TOKEN_TAG
    assert sla.coordinator_token == session.AuthToken(
        "X1", "C1", "sla", bytes.fromhex(GOLDEN_SLA_COORDINATOR_TAG)
    )
    result, bill = session.run_bccc(broker, coord, svc, broker_token, b"invert this matrix", 6.0)
    assert result.hex() == GOLDEN_RESULT
    assert bill == 3.0
