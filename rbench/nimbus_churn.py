"""``nimbus-churn``: Nimbus scheduling rounds under topology churn.

A control-plane workload with no simulation.  A seeded stream submits
and kills micro and Yahoo topologies from four tenant classes through
weighted-DRF admission, and ``Nimbus.schedule_round`` runs on a
512-node, 8-rack cluster held near two-thirds of its CPU reserved
(about 150 live topologies).  The fill rounds are set-up; every later
round is one latency sample.  This is the regime the paper's "snappy"
scheduling requirement is about: the scheduler, its per-round state
rebuild and admission carry all the work.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from common import Checks, PassResult, assignment_rows
from speed import SpeedClock
from stats import quantile

RACKS = 8
NODES_PER_RACK = 64
#: Live topologies in steady state (fill target).
LIVE = 150
#: Fill rounds (set-up); each submits ``LIVE / FILL_ROUNDS`` topologies.
FILL_ROUNDS = 5
#: Topologies killed and submitted per measured round.
CHURN_PER_ROUND = 5
#: Measured rounds per pass: enough for ten samples beyond the p90.
ROUNDS = 100
INTERVAL_S = 10.0

TENANTS = (("gold", 3.0, 2), ("silver", 2.0, 1), ("bronze", 1.0, 0),
           ("free", 0.5, 0))
#: Submissions per tenant in each deck of 20 (gold 3, silver 5, ...).
TENANT_SHARE = {"gold": 3, "silver": 5, "bronze": 6, "free": 6}
KINDS = ("pageload", "processing", "linear", "diamond", "star")
PARALLELISM = (16, 20, 24)


def cluster():
    """512 nodes in 8 racks, the ``sched-scale`` probe's machines."""
    from repro.cluster.builders import uniform_cluster
    from repro.cluster.network import (
        DEFAULT_PROFILES,
        DistanceLevel,
        LinkProfile,
        NetworkTopography,
    )
    from repro.cluster.resources import ResourceVector

    profiles = dict(DEFAULT_PROFILES)
    profiles[DistanceLevel.INTER_RACK] = LinkProfile(
        distance=4.0, latency_ms=0.5, bandwidth_mbps=10_000.0
    )
    profiles[DistanceLevel.INTER_NODE] = LinkProfile(
        distance=1.0, latency_ms=0.1, bandwidth_mbps=1_000.0
    )
    return uniform_cluster(
        nodes_per_rack=NODES_PER_RACK,
        racks=RACKS,
        capacity=ResourceVector.of(
            memory_mb=16_384.0, cpu=800.0, bandwidth_mbps=1_000.0
        ),
        topography=NetworkTopography(profiles),
        name="nimbus-churn",
    )


class ChurnStream:
    """The seeded submission stream.

    Tenants and (kind, parallelism) shapes are dealt from shuffled decks
    so that every seed sees the same mix; the seed decides the order,
    which topologies depart and when inside a round each one arrives.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._tenants: List[str] = []
        self._shapes: List[Tuple[str, int]] = []
        self.count = 0

    def _deal(self, deck: List, fill) -> object:
        if not deck:
            deck.extend(fill())
            self.rng.shuffle(deck)
        return deck.pop()

    def next_topology(self):
        from repro.workloads.micro import (
            diamond_topology,
            linear_topology,
            star_topology,
        )
        from repro.workloads.yahoo import pageload_topology, processing_topology

        tenant = self._deal(
            self._tenants,
            lambda: [t for t, n in TENANT_SHARE.items() for _ in range(n)],
        )
        kind, parallelism = self._deal(
            self._shapes, lambda: [(k, p) for k in KINDS for p in PARALLELISM]
        )
        self.count += 1
        name = f"{tenant}-{kind}-{self.count}"
        if kind == "pageload":
            topology = pageload_topology(name)
        elif kind == "processing":
            topology = processing_topology(name)
        elif kind == "linear":
            topology = linear_topology("compute", parallelism=parallelism,
                                       name=name)
        elif kind == "diamond":
            topology = diamond_topology("compute", branches=3,
                                        parallelism=parallelism, name=name)
        else:
            topology = star_topology("compute", arms=3,
                                     arm_parallelism=parallelism, name=name)
        return tenant, topology


class _State:
    def __init__(self, seed: int):
        from repro.nimbus.config import StormConfig
        from repro.nimbus.nimbus import Nimbus
        from repro.nimbus.tenancy import TenancyController, Tenant
        from repro.scheduler.rstorm import RStormScheduler

        self.stream = ChurnStream(seed)
        self.cluster = cluster()
        self.nimbus = Nimbus(
            self.cluster,
            scheduler=RStormScheduler(),
            config=StormConfig({"nimbus.tenancy.enabled": True}),
        )
        self.tenancy = TenancyController(self.nimbus)
        for tenant_id, weight, priority in TENANTS:
            self.tenancy.register_tenant(Tenant(tenant_id, weight, priority))
        self.round = 0
        #: topology id -> simulated submission time, until placed
        self.waiting: Dict[str, float] = {}
        self.wait_s: List[float] = []
        self.submitted = 0
        self.failures = 0

    @property
    def now(self) -> float:
        return self.round * INTERVAL_S

    def submit(self, count: int) -> None:
        """``count`` submissions at seeded times inside the interval
        that ends at the round about to run."""
        start = self.now - INTERVAL_S
        times = sorted(
            start + self.stream.rng.random() * INTERVAL_S for _ in range(count)
        )
        for when in times:
            tenant, topology = self.stream.next_topology()
            self.tenancy.submit(topology, tenant)
            self.waiting[topology.topology_id] = when
            self.submitted += 1

    def kill(self, count: int) -> None:
        live = sorted(self.nimbus.assignments)
        for topology_id in self.stream.rng.sample(live, min(count, len(live))):
            self.nimbus.kill_topology(topology_id)

    def schedule(self) -> float:
        """One timed ``Nimbus.schedule_round``; returns raw host ms."""
        from repro.errors import SchedulingError

        started = time.perf_counter()
        try:
            self.nimbus.schedule_round(self.now)
        except SchedulingError:
            self.failures += 1
        elapsed = (time.perf_counter() - started) * 1e3
        for topology_id in list(self.waiting):
            if topology_id in self.nimbus.assignments:
                self.wait_s.append(self.now - self.waiting.pop(topology_id))
        self.round += 1
        return elapsed


class NimbusChurn:
    name = "nimbus-churn"

    def setup(self, seed: int, clock: SpeedClock) -> _State:
        state = _State(seed)
        for _ in range(FILL_ROUNDS):
            state.submit(LIVE // FILL_ROUNDS)
            state.schedule()
            clock.mark()
        state.wait_s.clear()
        state.submitted = len(state.waiting)
        return state

    def run_pass(self, state: _State, clock: SpeedClock) -> PassResult:
        nimbus = state.nimbus
        first_round = len(nimbus.rounds)
        first_record = len(state.tenancy.round_records)
        round_ms: List[float] = []
        scanned = 0
        for _ in range(ROUNDS):
            state.kill(CHURN_PER_ROUND)
            state.submit(CHURN_PER_ROUND)
            live = set(t.topology_id for t in nimbus.topologies)
            scanned += sum(
                len(a) for tid, a in nimbus.assignments.items() if tid in live
            )
            clock.mark()
            raw_ms = state.schedule()
            round_ms.append(raw_ms * clock.mark())
        state.measured = (first_round, first_record, scanned)
        return PassResult(
            outputs={}, sim={}, work={}, round_ms=round_ms,
            attempted=len(round_ms), failed=state.failures, state=state,
        )

    def finish(self, result: PassResult) -> None:
        """Outputs, sim metrics, work counts and the placement quality
        of the final placements (untimed)."""
        from repro.scheduler.quality import evaluate_assignment

        state = result.state
        nimbus = state.nimbus
        first_round, first_record, scanned = state.measured
        placed = sum(
            sum(r.newly_scheduled.values()) for r in nimbus.rounds[first_round:]
        )
        records = state.tenancy.round_records[first_record:]
        result.outputs.update(
            rounds=len(result.round_ms),
            failures=state.failures,
            live=len(nimbus.assignments),
            admitted=[len(r.admitted) for r in records],
            deferred=[len(r.deferred) for r in records],
            evicted=[len(r.evicted) for r in records],
            wait_s=sorted(state.wait_s),
            assignments=assignment_rows(nimbus.assignments),
        )
        outputs = result.outputs
        result.work.update({
            "scheduler.tasks_placed": placed,
            "sched_state.placements_scanned": scanned,
            "sched_state.rebuild_ratio": scanned / placed if placed else 0.0,
            "admission.admitted": sum(outputs["admitted"]),
            "admission.deferred": sum(outputs["deferred"]),
            "admission.evicted": sum(outputs["evicted"]),
        })
        distances = [
            evaluate_assignment(
                nimbus.topology(tid), assignment, nimbus.cluster
            ).mean_network_distance
            for tid, assignment in sorted(nimbus.assignments.items())
        ]
        result.sim.update(
            sim_tput_gain=1.0,
            sim_p50_s=quantile(state.wait_s, 50),
            sim_p99_s=quantile(state.wait_s, 99),
            sim_achieved=1.0 - len(state.waiting) / state.submitted,
            sched_netdist=sum(distances) / len(distances),
        )
        outputs["sim"] = dict(result.sim)

    def check(self, result: PassResult, checks: Checks) -> None:
        from repro.topology.task import task_label

        state = result.state
        nimbus = state.nimbus
        incomplete = [
            t.topology_id
            for t in nimbus.topologies
            if t.topology_id not in nimbus.assignments
            or not nimbus.assignments[t.topology_id].is_complete(t)
        ]
        checks.check("admitted topologies fully placed", not incomplete,
                     ", ".join(incomplete[:5]))
        over = [
            node.node_id
            for node in state.cluster.nodes
            for dim in node.schema.hard_names
            if node.available[dim] < -1e-9
        ]
        checks.check("no node exceeds hard capacity", not over,
                     ", ".join(over[:5]))
        placed: Dict[str, Dict[str, object]] = {}
        for topology in nimbus.topologies:
            assignment = nimbus.assignments.get(topology.topology_id)
            if assignment is None:
                continue
            for task in assignment.tasks:
                placed.setdefault(assignment.node_of(task), {})[
                    task_label(task)
                ] = topology.task_demand(task)
        mismatched = []
        for node in state.cluster.nodes:
            expected = placed.get(node.node_id, {})
            reserved = node.reservations
            if set(reserved) != set(expected) or any(
                reserved[label] != demand for label, demand in expected.items()
            ):
                mismatched.append(node.node_id)
                continue
            used = node.capacity - node.available
            total = None
            for demand in expected.values():
                total = demand if total is None else total + demand
            if total is not None and any(
                abs(used[dim] - total[dim]) > 1e-6 for dim in node.schema.names
            ):
                mismatched.append(node.node_id)
        checks.check("node reservations equal the sum of placements",
                     not mismatched, ", ".join(mismatched[:5]))
