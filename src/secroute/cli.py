"""Command line entry points.

`secroute run` executes one scenario and writes a report; `secroute
oracle` runs the protocol in every selection mode and checks the route it
installs against exhaustive enumeration.  Exit code
2 flags a scenario whose adversary should have been detected but was not,
so CI can gate on it.  Bad input, and a topology or report file that
cannot be read as text or written, exit 1 with one `error:` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cost as ecms
from .errors import ConfigError, SecrouteError
from .harness import (
    DETECTABLE_BEHAVIORS,
    ScenarioConfig,
    compare_oracle,
    emit_report,
    run_scenario,
)
from .topology import load_topology


def _pick_endpoints(topo, source, dest):
    if not topo.nodes:
        raise ConfigError("topology has no nodes")
    if source is None:
        brokers = [n for n, r in topo.nodes.items() if r == "broker"]
        source = brokers[0] if brokers else sorted(topo.nodes)[0]
    if dest is None:
        coords = [n for n, r in topo.nodes.items() if r == "coordinator"]
        dest = coords[0] if coords else sorted(topo.nodes)[-1]
    return source, dest


def _cmd_run(args) -> int:
    text = Path(args.topology).read_text()
    topo = load_topology(text)
    source, dest = _pick_endpoints(topo, args.source, args.dest)
    adversary = None
    if args.adversary:
        if ":" not in args.adversary:
            raise ConfigError("adversary spec %r is not NODE:BEHAVIOR" % args.adversary)
        node, behavior = args.adversary.split(":", 1)
        adversary = (node, behavior)
    config = ScenarioConfig(
        topology_text=text,
        source=source,
        dest=dest,
        mode=ecms.Mode(args.mode),
        seed=args.seed,
        adversary=adversary,
        collection_window=args.window,
        literal_cost=args.literal_cost,
        max_hops=args.max_hops,
    )
    report = run_scenario(config)
    out = emit_report(report, args.format)
    if args.out:
        Path(args.out).write_bytes(out)
    else:
        sys.stdout.write(out.decode())
    if adversary and adversary[1] in DETECTABLE_BEHAVIORS and not report.detections:
        print("detection expected but missed", file=sys.stderr)
        return 2
    return 0


def _route(nodes) -> str:
    return "-".join(nodes) if nodes else "none"


def _cmd_oracle(args) -> int:
    text = Path(args.topology).read_text()
    topo = load_topology(text)
    source, dest = _pick_endpoints(topo, args.source, args.dest)
    diff = compare_oracle(topo, source, dest)
    for mode, res in diff["modes"].items():
        print(
            "%s: %s, installed %s, best delivered %s, oracle %s"
            % (
                mode,
                "match" if res["match"] else "MISMATCH",
                _route(res["installed"]),
                _route(res["best_delivered"]),
                _route(res["oracle"]),
            )
        )
    return 0 if diff["all_match"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="secroute")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--topology", required=True)
    run_p.add_argument("--mode", default="hc_bw_nd", choices=[m.value for m in ecms.Mode])
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--source")
    run_p.add_argument("--dest")
    run_p.add_argument("--adversary", help="NODE:BEHAVIOR")
    run_p.add_argument("--literal-cost", action="store_true")
    run_p.add_argument("--window", type=float, default=50.0, help="collection window, ms")
    run_p.add_argument("--max-hops", type=int, default=16)
    run_p.add_argument("--out")
    run_p.add_argument("--format", default="json", choices=["json", "text"])
    run_p.set_defaults(func=_cmd_run)

    oracle_p = sub.add_parser("oracle", help="check the installed route against enumeration, per mode")
    oracle_p.add_argument("--topology", required=True)
    oracle_p.add_argument("--source")
    oracle_p.add_argument("--dest")
    oracle_p.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError and UnicodeDecodeError: a topology file that cannot be read
    # as text, or a report file that cannot be written.
    except (SecrouteError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
