"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, runs one sample
per `sample` call (the timed part), and reads what the sample did in
`examine` (untimed).  Sample `i` runs input `i % len(inputs)`, so the
first `len(inputs)` samples, the fixed pass, are the same on every run
with that seed; the simulated metrics, the per-layer counts and the
report digest come from the fixed pass only and repeat exactly.  Checks
that need the oracle wait in `Outcome.deferred` until `verify`, which runs
after the tracer is off.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from secroute import cost, harness, oracle, session, sim, srdp
from secroute.errors import SecrouteError
from secroute.harness import (
    ADVERSARY_BEHAVIORS,
    DETECTABLE_BEHAVIORS,
    Harness,
    ScenarioConfig,
    random_topology,
    topology_to_text,
)


@dataclass
class Outcome:
    """What one sample did."""

    attempted: int = 0  # scenarios or flows
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    honest: int = 0  # honest flows attempted
    found: int = 0  # honest flows that installed a route
    discoveries: int = 0  # routes installed
    discovery_ms: List[float] = field(default_factory=list)  # honest flows: origination -> install, sim ms
    cloudlets_sent: int = 0
    cloudlets_delivered: int = 0
    sim_counts: Counter = field(default_factory=Counter)  # fixed pass only
    report: bytes = b""  # fixed pass only
    deferred: List[Any] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def derive(*parts) -> int:
    """A 64-bit input seed from the workload seed and a position."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:8], "big")


def trace_counts(trace: List[Dict[str, Any]]) -> Counter:
    """Simulator work read from its trace; link bytes are size x fan-out of each send."""
    c: Counter = Counter()
    for e in trace:
        ev = e["ev"]
        if ev == "send":
            c["link_bytes"] += e["size"] * e["n"]
            c["broadcasts" if e["kind"] == "broadcast" else "unicasts"] += 1
        elif ev == "deliver":
            c["deliveries"] += 1
        elif ev == "timer":
            c["timers"] += 1
        elif ev == "suppress":
            c["suppressed"] += 1
    c["events"] = c["deliveries"] + c["timers"]
    c["trace_entries"] = len(trace)
    return c


def route_problem(topo, route, source: str, dest: str) -> Optional[str]:
    """None if `route` is a simple path over real links from source to dest."""
    if route[0] != source or route[-1] != dest:
        return "route %s has wrong endpoints" % "-".join(route)
    if len(set(route)) != len(route):
        return "route %s is not simple" % "-".join(route)
    for a, b in zip(route, route[1:]):
        if a not in topo.nodes or b not in topo.nodes or not topo.has_link(a, b):
            return "route %s uses missing link %s-%s" % ("-".join(route), a, b)
    return None


def bfs_dist(topo, start: str, skip: Optional[str] = None) -> Dict[str, int]:
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        x = frontier.popleft()
        for y in topo.nodes:
            if y != skip and y not in dist and topo.has_link(x, y):
                dist[y] = dist[x] + 1
                frontier.append(y)
    return dist


def adversary_node(topo, source: str, dest: str) -> Optional[str]:
    """Placement of tests/test_acceptance.py::tamper_scenarios: next to the
    destination, two or more hops from the source, reachable without
    crossing the destination."""
    full = bfs_dist(topo, source)
    detour = bfs_dist(topo, source, skip=dest)
    picks = sorted(
        n
        for n in topo.nodes
        if n not in (source, dest) and topo.has_link(n, dest) and full.get(n, 99) >= 2 and n in detour
    )
    return picks[0] if picks else None


# -- full scenarios ----------------------------------------------------


class TimedHarness(Harness):
    """Harness that also notes when the source first installs a route."""

    first_install: Optional[float] = None

    def on_route_installed(self, sim, node, route, clock) -> None:
        if self.first_install is None:
            self.first_install = clock
        super().on_route_installed(sim, node, route, clock)


def run_scenario(cfg: ScenarioConfig):
    h = TimedHarness(cfg)
    report = h.run()
    return h, report, harness.emit_report(report)


def examine_scenario(h: TimedHarness, report, blob: bytes, fixed: bool) -> Outcome:
    cfg = h.config
    o = Outcome(attempted=1, discoveries=len(report.routes_installed))
    problems = [route_problem(h.topo, r, cfg.source, cfg.dest) for r in report.routes_installed]
    if cfg.adversary is None:
        o.honest = 1
        o.found = int(bool(report.routes_installed))
        if not report.routes_installed:
            problems.append("honest flow installed no route")
    else:
        node, behavior = cfg.adversary
        if behavior in DETECTABLE_BEHAVIORS:
            if not report.detections:
                problems.append("%s at %s not detected" % (behavior, node))
            # The adversary forwards no honest copy of the round, so a route
            # through it carries its tampering.
            if any(node in r for r in report.routes_installed):
                problems.append("%s route through %s installed" % (behavior, node))
    o.cloudlets_sent = cfg.cloudlets
    o.cloudlets_delivered = report.cloudlets_delivered
    if cfg.cloudlets and cfg.link_break is None and cfg.adversary is None:
        if report.cloudlets_delivered != cfg.cloudlets:
            problems.append("%d/%d cloudlets delivered" % (report.cloudlets_delivered, cfg.cloudlets))
    problems = [p for p in problems if p]
    if problems:
        o.fail("; ".join(problems))
    if cfg.adversary is None and h.first_install is not None:
        o.discovery_ms.append(h.first_install)
    if fixed:
        o.sim_counts = trace_counts(h.sim.trace)
        o.report = blob
    return o


class ProvisionN250:
    """One sample is one full scenario, N0 -> N249, on a 250-node network."""

    name = "provision-n250"
    nodes = 250
    edge_prob = 0.021
    pool = 6

    def setup(self, seed: int) -> None:
        self.configs = []
        for j in range(self.pool):
            s = derive(self.name, seed, j)
            topo = random_topology(s, self.nodes, self.edge_prob)
            self.configs.append(
                ScenarioConfig(topology_text=topology_to_text(topo), source="N0", dest="N249", seed=s)
            )

    @property
    def fixed_samples(self) -> int:
        return len(self.configs)

    def sample(self, i: int, mark: Callable[[str], None]):
        return run_scenario(self.configs[i % len(self.configs)])

    def examine(self, i: int, raw, fixed: bool) -> Outcome:
        return examine_scenario(*raw, fixed)

    def verify(self, outcomes: List[Outcome]) -> Dict[str, float]:
        return {}


@dataclass
class SweepItem:
    block: SimpleNamespace
    cfg: Optional[ScenarioConfig]  # None: the block's link-break run, set up from its honest run
    mode: Optional[cost.Mode] = None  # set on the honest per-mode runs


class SweepN12:
    """Short full scenarios on 6-12 node networks: every mode, every
    scripted adversary, cloudlets, and a link break on the honest route."""

    name = "sweep-n12"
    blocks = 36
    cloudlets = 10

    def setup(self, seed: int) -> None:
        self.items: List[SweepItem] = []
        for j in range(self.blocks):
            n = 6 + j % 7
            s = derive(self.name, seed, j)
            topo = random_topology(s, n)
            block = SimpleNamespace(topo=topo, dest="N%d" % (n - 1), link_break=None)
            base = dict(topology_text=topology_to_text(topo), source="N0", dest=block.dest, seed=s)
            for mode in cost.Mode:
                cfg = ScenarioConfig(mode=mode, cloudlets=self.cloudlets, **base)
                self.items.append(SweepItem(block, cfg, mode))
            adversary = adversary_node(topo, "N0", block.dest)
            if adversary is not None:
                for behavior in ADVERSARY_BEHAVIORS:
                    cfg = ScenarioConfig(adversary=(adversary, behavior), collection_window=200, **base)
                    self.items.append(SweepItem(block, cfg))
            self.items.append(SweepItem(block, None))

    @property
    def fixed_samples(self) -> int:
        return len(self.items)

    def sample(self, i: int, mark: Callable[[str], None]):
        item = self.items[i % len(self.items)]
        return item, run_scenario(item.cfg or item.block.link_break)

    def examine(self, i: int, raw, fixed: bool) -> Outcome:
        item, (h, report, blob) = raw
        o = examine_scenario(h, report, blob, fixed)
        block = item.block
        if item.mode is cost.Mode.HC_BW_ND and block.link_break is None:
            # Break the honest route's first hop 5 ms after it is installed,
            # while the cloudlets are in flight.
            route = report.chosen_route
            brk = (route[0], route[1], h.first_install + 5.0) if route else None
            block.link_break = dataclasses.replace(h.config, link_break=brk)
        if fixed and item.mode is not None and report.chosen_route:
            o.deferred.append((block.topo, block.dest, item.mode, tuple(report.chosen_route)))
        return o

    def verify(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Share of honest per-mode runs whose route is the oracle's pick."""
        agree = total = 0
        for o in outcomes:
            for topo, dest, mode, route in o.deferred:
                best, _ = oracle.oracle_select(topo, "N0", dest, mode, cost.weights_for_mode(mode))
                total += 1
                agree += route == tuple(best)
        return {"oracle_agreement": agree / total if total else 0.0}


# -- many flows on provisioned networks --------------------------------


class FlowBook:
    """The harness hooks ProtocolBehavior calls, kept for many flows at once."""

    def __init__(self, net: sim.Simulator, window: float):
        self.sim = net
        self.config = SimpleNamespace(collection_window=window)
        self.events: Dict[str, int] = {}
        self.installed_at: Dict[Tuple[str, str], float] = {}

    def record_drop(self, node, reason, clock, proto) -> None:
        self.sim.log_drop(node, reason)

    def on_route_installed(self, sim, node, route, clock) -> None:
        self.installed_at.setdefault((node, route[-1]), clock)


class MultiflowN120:
    """Bursts of concurrent discoveries on a provisioned 120-node network,
    each installed route followed by the broker, exchange and coordinator
    handshakes, billed at the route's path cost.  Two networks per seed,
    batches alternating between them: a batch's work follows its
    network's size, and two networks halve that spread between seeds."""

    name = "multiflow-n120"
    nodes = 120
    edge_prob = 0.04
    networks = 2
    flows = 40
    batches = 4
    window = 50.0
    tariffs = (0.5, 0.75, 1.0, 1.25)
    exchange = "N%d" % (nodes // 2)

    def setup(self, seed: int) -> None:
        nets = []
        for k in range(self.networks):
            s = derive(self.name, seed, "net", k)
            topo = random_topology(s, self.nodes, self.edge_prob)
            # Key pool and cost weights are ScenarioConfig's defaults.
            stores, svc, _, _ = harness.provision(topo, ScenarioConfig.kdc_k, ScenarioConfig.kdc_m, s)
            nets.append(SimpleNamespace(topo=topo, stores=stores, svc=svc))
        self.weights = cost.weights_for_mode(ScenarioConfig.mode, ScenarioConfig.weights)
        self.inputs = []
        for b in range(self.batches):
            net = nets[b % len(nets)]
            endpoints = [n for n in net.topo.nodes if n != self.exchange]
            rng = random.Random(derive(self.name, seed, "batch", b))
            pairs: List[Tuple[str, str]] = []
            while len(pairs) < self.flows:
                pair = tuple(rng.sample(endpoints, 2))
                if pair not in pairs:
                    pairs.append(pair)
            self.inputs.append((net, pairs))

    @property
    def fixed_samples(self) -> int:
        return len(self.inputs)

    def sample(self, i: int, mark: Callable[[str], None]):
        net, pairs = self.inputs[i % len(self.inputs)]
        simulator = sim.Simulator(net.topo, seed=i)
        book = FlowBook(simulator, self.window)
        protos = {}
        for n in net.topo.nodes:
            protos[n] = srdp.SrdpNode(net.stores[n], weights=self.weights)
            simulator.install(n, harness.ProtocolBehavior(protos[n], book))
        for s, d in pairs:
            simulator.broadcast(s, harness.encode_frame(protos[s].originate_rreq(d)))
        simulator.run_until()
        flows = []
        for k, (s, d) in enumerate(pairs):
            route = protos[s].installed_routes.get(d)
            bill = tariff = None
            if route is not None:
                mark("%d.f%d" % (i, k))
                tariff = self.tariffs[k % len(self.tariffs)]
                try:
                    bill = self._handshake(net, s, d, route, tariff)
                except SecrouteError:
                    pass
            flows.append((s, d, route, tariff, bill))
        return net, simulator, protos, book, flows

    def _handshake(self, net, source: str, dest: str, route, tariff: float) -> float:
        c = 0.0
        for a, b in zip(route, route[1:]):
            link = net.topo.link(a, b)
            c = cost.path_cost_step(c, link.avl_bw, link.nw_delay, self.weights)
        broker = session.Broker(source)
        exchange = session.Exchange(self.exchange)
        coordinator = session.Coordinator(
            node=dest,
            services=("compute",),
            free_datacenters=1,
            cost_stat=1.0,
            sla_terms="flow",
            tariff=tariff,
            registered_with=self.exchange,
        )
        session.directory_refresh(coordinator, exchange)
        _, sla, _ = session.run_bcec(broker, exchange, net.svc, "compute")
        _, token = session.run_ceccc(exchange, coordinator, net.svc, sla)
        _, bill = session.run_bccc(broker, coordinator, net.svc, token, b"task", c)
        return bill

    def examine(self, i: int, raw, fixed: bool) -> Outcome:
        net, simulator, protos, book, flows = raw
        o = Outcome(attempted=len(flows), honest=len(flows), discoveries=len(book.installed_at))
        for s, d, route, tariff, bill in flows:
            if route is None:
                o.fail("%s->%s installed no route" % (s, d))
                continue
            o.found += 1
            o.discovery_ms.append(book.installed_at[(s, d)])
            problem = route_problem(net.topo, route, s, d)
            if problem or bill is None:
                o.fail(problem or "%s->%s handshake failed" % (s, d))
            else:
                o.deferred.append((net.topo, route, tariff, bill))
        if fixed:
            o.sim_counts = trace_counts(simulator.trace)
            digest = hashlib.sha256(json.dumps(simulator.trace, sort_keys=True, default=str).encode())
            o.report = json.dumps(
                {
                    "flows": [[s, d, list(r) if r else None, bill] for s, d, r, _, bill in flows],
                    "counters": {n: p.counters for n, p in protos.items() if p.counters},
                    "trace_digest": digest.hexdigest(),
                },
                sort_keys=True,
            ).encode()
        return o

    def verify(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Every bill must be the route's oracle path cost times the tariff."""
        for o in outcomes:
            for topo, route, tariff, bill in o.deferred:
                expect = oracle.path_objectives(topo, route, self.weights, False)[0] * tariff
                if bill != expect:
                    o.fail("bill %r for %s is not %r" % (bill, "-".join(route), expect))
        return {}


WORKLOADS = {w.name: w for w in (ProvisionN250, MultiflowN120, SweepN12)}
