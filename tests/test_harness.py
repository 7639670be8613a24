import json

import pytest

from secroute import cost as ecms
from secroute import oracle as oraclelib
from secroute.cli import main
from secroute.errors import TooLarge
from secroute.frames import SessionFrame, encode_frame
from secroute.harness import (
    STEP_ACK,
    STEP_CLOUDLET,
    Harness,
    ScenarioConfig,
    compare_oracle,
    emit_report,
    random_topology,
    run_scenario,
    topology_to_text,
)
from secroute.topology import Topology, load_topology

DIAMOND = """
node S broker
node A relay
node B relay
node C relay
node D coordinator
link S A 10 2
link A B 10 2
link B D 10 2
link S C 5 8
link C D 5 8
"""


def diamond_cfg(**kw):
    base = dict(topology_text=DIAMOND, source="S", dest="D", seed=3)
    base.update(kw)
    return ScenarioConfig(**base)


def test_honest_run_installs_route():
    report = run_scenario(diamond_cfg())
    assert report.chosen_route == ["S", "A", "B", "D"]
    assert report.detections == []
    assert report.rediscoveries == 0
    assert report.path_cost is not None and report.path_cost > 0


def test_run_deterministic_byte_identical():
    r1 = emit_report(run_scenario(diamond_cfg(cloudlets=3)))
    r2 = emit_report(run_scenario(diamond_cfg(cloudlets=3)))
    assert r1 == r2


def test_report_json_round_trip():
    report = run_scenario(diamond_cfg())
    blob = emit_report(report, "json")
    d = json.loads(blob)
    assert d == json.loads(json.dumps(report.to_dict()))
    assert d["config"]["mode"] == "hc_bw_nd"
    text = emit_report(report, "text").decode()
    assert "S -> A -> B -> D" in text
    assert report.trace_digest in text


def test_cloudlets_delivered_honest():
    report = run_scenario(diamond_cfg(cloudlets=5))
    assert report.cloudlets_delivered == 5


def test_link_break_triggers_rediscovery():
    # First run learns the install time so the break lands mid-transfer.
    probe = run_scenario(diamond_cfg(cloudlets=6))
    assert probe.cloudlets_delivered == 6
    report = run_scenario(
        diamond_cfg(cloudlets=6, link_break=("A", "B", 90.0))
    )
    assert report.rediscoveries >= 1
    assert report.cloudlets_delivered == 6
    assert ["S", "C", "D"] in report.routes_installed


MALFORMED_SESSION_PAYLOADS = {
    "bad-utf8": b"\xff\xfe",
    "no-route": b'{"seq": 1}',
    "not-object": b"[1]",
    "route-not-list": b'{"seq": 1, "route": 5}',
    "not-json": b"not json",
    "too-deep": b"[" * 50_000,
    "unknown-node": b'{"seq": 1, "route": ["S", "A", "ghost"]}',
}


@pytest.mark.parametrize("step", [STEP_CLOUDLET, STEP_ACK])
@pytest.mark.parametrize(
    "payload", MALFORMED_SESSION_PAYLOADS.values(), ids=MALFORMED_SESSION_PAYLOADS.keys()
)
def test_malformed_session_frame_is_dropped(step, payload):
    h = Harness(diamond_cfg())
    h.sim.unicast("S", "A", encode_frame(SessionFrame("S", step, payload)))
    trace = h.sim.run_until()
    drops = [e for e in trace if e["ev"] == "drop"]
    assert drops == [{"t": drops[0]["t"], "ev": "drop", "node": "A", "reason": "MalformedSession"}]


def test_compare_oracle_diamond():
    topo = load_topology(DIAMOND)
    diff = compare_oracle(topo, "S", "D")
    assert diff["all_match"]
    assert set(diff["modes"]) == {m.value for m in ecms.Mode}


def test_compare_oracle_random_graphs():
    for seed in range(4):
        topo = random_topology(seed)
        assert compare_oracle(topo, "N0", "N7")["all_match"], seed


def test_oracle_node_budget():
    topo = random_topology(0, n=13, edge_prob=0.6)
    with pytest.raises(TooLarge):
        oraclelib.all_simple_paths(topo, "N0", "N12", 16)


def test_random_topology_connected_and_seeded():
    t1 = random_topology(7)
    t2 = random_topology(7)
    assert topology_to_text(t1) == topology_to_text(t2)
    assert topology_to_text(t1) != topology_to_text(random_topology(8))
    # connectivity: the oracle can always find at least one path
    assert oraclelib.all_simple_paths(t1, "N0", "N7", 16)


def test_topology_text_round_trip():
    topo = random_topology(11)
    again = load_topology(topology_to_text(topo))
    assert topology_to_text(again) == topology_to_text(topo)


# -- CLI ---------------------------------------------------------------


@pytest.fixture
def topo_file(tmp_path):
    p = tmp_path / "net.topo"
    p.write_text(DIAMOND)
    return p


def test_cli_run_writes_report(topo_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--topology", str(topo_file), "--seed", "3", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["chosen_route"] == ["S", "A", "B", "D"]


def test_cli_run_stdout_text(topo_file, capsys):
    rc = main(["run", "--topology", str(topo_file), "--format", "text"])
    assert rc == 0
    assert "route: S -> A -> B -> D" in capsys.readouterr().out


def test_cli_run_detection_exit_zero(topo_file, capsys):
    rc = main(
        [
            "run",
            "--topology",
            str(topo_file),
            "--adversary",
            "B:path-insert",
            "--window",
            "200",
        ]
    )
    assert rc == 0  # detected, so no failure flag
    d = json.loads(capsys.readouterr().out)
    assert d["detections"]


def test_cli_run_missed_detection_exit_two(topo_file, tmp_path, monkeypatch, capsys):
    # An adversary off every S-D path tampers nothing, so nothing is
    # detected and the CLI must flag it.
    p = tmp_path / "island.topo"
    p.write_text(DIAMOND + "node E relay\nlink E D 1 1\n")
    rc = main(["run", "--topology", str(p), "--adversary", "E:path-insert"])
    assert rc == 2
    assert "detection expected but missed" in capsys.readouterr().err


def test_cli_bad_adversary_spec(topo_file, capsys):
    rc = main(["run", "--topology", str(topo_file), "--adversary", "nonsense"])
    assert rc == 1


def test_cli_missing_topology(tmp_path, capsys):
    with pytest.raises(OSError):
        main(["run", "--topology", str(tmp_path / "absent.topo")])


def test_cli_oracle_subcommand(topo_file, capsys):
    rc = main(["oracle", "--topology", str(topo_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("match") >= 7 and "MISMATCH" not in out


def test_cli_endpoint_defaults(topo_file, capsys):
    rc = main(["run", "--topology", str(topo_file)])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["config"]["source"] == "S" and d["config"]["dest"] == "D"
