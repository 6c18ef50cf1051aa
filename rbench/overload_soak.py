"""``overload-soak``: a long-horizon open-loop overload with every
control loop on.

A gold keyed linear topology (Zipf keys) and a free hotspot topology
share the Emulab testbed under Poisson arrivals at 1.5x nominal load,
protected by bounded queues, credit backpressure and priority shedding
with at-least-once replay.  A heartbeat detector, a Nimbus that
reschedules every 10 s with quarantine, and the elastic controller run
throughout; a busy node crashes and rejoins, and the inter-rack trunk
turns lossy for a while.  It is the only workload in which flow control,
traffic, faults/tracing and nimbus/elastic do real work.
"""

from __future__ import annotations

from typing import Dict

from common import Checks, PassResult, assignment_rows, round_percentiles
from speed import SpeedClock

#: Simulated horizon: the soak length the roadmap's robustness item
#: names (1-2k simulated seconds).
HORIZON_S = 1500.0
LOAD = 1.5
PARALLELISM = 6
QUEUE_CAPACITY = 32
GOLD, FREE = "gold-keyed", "free-hotspot"
CRASH_AT_S = 0.3 * HORIZON_S
REJOIN_AFTER_S = 60.0
LOSSY_AT_S = 0.55 * HORIZON_S
LOSSY_FOR_S = 120.0
NIMBUS_PERIOD_S = 10.0
#: The run is stepped in chunks of this many simulated seconds, with a
#: speed mark between chunks (stepping leaves the event order unchanged).
CHUNK_S = 50.0
#: Timed repeats of the initial scheduling round: one round type, so
#: more samples than paper-grid takes per unit (a hundred beyond p90).
ROUND_REPEATS = 1000


def submitted_topologies():
    from repro.experiments.overload import keyed_linear_topology
    from repro.workloads.micro import hotspot_topology

    return [
        keyed_linear_topology(PARALLELISM, name=GOLD),
        hotspot_topology(PARALLELISM, 2, name=FREE),
    ]


class _State:
    def __init__(self, seed: int):
        from repro.cluster.builders import emulab_testbed
        from repro.experiments.fault_recovery import crash_rejoin, lossy_link
        from repro.experiments.overload import BASE_RATE_TPS
        from repro.faults.injector import FaultInjector
        from repro.faults.monitor import RecoveryMonitor
        from repro.nimbus.config import StormConfig
        from repro.nimbus.elastic import ElasticController
        from repro.nimbus.failure_detector import HeartbeatFailureDetector
        from repro.nimbus.nimbus import Nimbus
        from repro.nimbus.supervisor import Supervisor
        from repro.nimbus.tenancy import TenancyController, Tenant
        from repro.nimbus.zookeeper import InMemoryZooKeeper
        from repro.scheduler.rstorm import RStormScheduler
        from repro.simulation.config import SimulationConfig
        from repro.simulation.flowcontrol import (
            FlowControlConfig,
            tenant_priorities,
        )
        from repro.simulation.runtime import SimulationRun
        from repro.traffic.arrivals import PoissonArrivals
        from repro.traffic.keys import ZipfKeys

        self.cluster = cluster = emulab_testbed()
        self.topologies = topologies = submitted_topologies()
        tenants = {
            "gold": Tenant("gold", weight=3.0, priority=2),
            "free": Tenant("free", weight=0.5, priority=0),
        }
        config = SimulationConfig(
            duration_s=HORIZON_S,
            warmup_s=20.0,
            arrival_process=PoissonArrivals(rate_tps=BASE_RATE_TPS * LOAD),
            arrival_keys=ZipfKeys(num_keys=64, exponent=1.4),
            arrival_seed=seed,
            at_least_once=True,
            max_retries=3,
            flow=FlowControlConfig(
                queue_capacity=QUEUE_CAPACITY,
                shedding="priority",
                priorities=tenant_priorities(
                    tenants, {GOLD: "gold", FREE: "free"}
                ),
            ),
        )
        zk = InMemoryZooKeeper()
        self.nimbus = nimbus = Nimbus(
            cluster,
            scheduler=RStormScheduler(),
            zk=zk,
            config=StormConfig({
                "nimbus.quarantine.enabled": True,
                "nimbus.elastic.enabled": True,
                "nimbus.tenancy.enabled": True,
            }),
        )
        self.tenancy = tenancy = TenancyController(nimbus)
        for tenant in tenants.values():
            tenancy.register_tenant(tenant)
        supervisors = []
        for node in cluster.nodes:
            supervisor = Supervisor(node, zk)
            nimbus.register_supervisor(supervisor)
            supervisors.append(supervisor)
        for topology, tenant in zip(topologies, ("gold", "free")):
            tenancy.submit(topology, tenant)
        nimbus.schedule_round()

        self.run = run = SimulationRun(
            cluster,
            [(t, nimbus.assignments[t.topology_id]) for t in topologies],
            config,
        )
        detector = HeartbeatFailureDetector(
            supervisors, heartbeat_interval_s=3.0, timeout_s=10.0
        )
        self.monitor = RecoveryMonitor()
        self.monitor.attach(run, detector=detector, nimbus=nimbus)
        detector.attach(run)
        self.scanned = 0
        self._count_scanned()
        nimbus.attach(run, interval_s=NIMBUS_PERIOD_S)
        # The elastic loop runs on the Nimbus period and is attached after
        # it, so at every shared instant Nimbus reconciles membership
        # first.  On its default 15 s period an elastic scale-up can land
        # between a node's death and the Nimbus round that releases the
        # dead node's reservations; it re-places those tasks without
        # releasing them, and a later placement on the rejoined node
        # raises ClusterStateError (see README, findings).
        self.elastic = ElasticController(nimbus)
        self.elastic.attach(run, interval_s=NIMBUS_PERIOD_S)
        assignments = dict(nimbus.assignments)
        schedule = crash_rejoin(
            CRASH_AT_S, CRASH_AT_S + REJOIN_AFTER_S
        )(cluster, assignments).merged_with(
            lossy_link(
                LOSSY_AT_S,
                LOSSY_AT_S + LOSSY_FOR_S,
                drop_probability=0.05,
                duplicate_probability=0.02,
                seed=seed,
            )(cluster, assignments)
        )
        self.injector = FaultInjector(
            schedule, detector=detector, tracer=self.monitor.tracer
        )
        self.injector.attach(run)
        self.report = None
        self.recovery: Dict[str, object] = {}

    def _count_scanned(self) -> None:
        """Count the live placements every periodic Nimbus round is
        handed (the state its scheduler rebuilds)."""
        nimbus = self.nimbus
        schedule_round = nimbus.schedule_round

        def counted(now: float = 0.0):
            live = set(t.topology_id for t in nimbus.topologies)
            self.scanned += sum(
                len(a) for tid, a in nimbus.assignments.items() if tid in live
            )
            return schedule_round(now)

        nimbus.schedule_round = counted


class OverloadSoak:
    name = "overload-soak"

    def setup(self, seed: int, clock: SpeedClock) -> _State:
        return _State(seed)

    def measure_rounds(self, seed: int, clock: SpeedClock):
        """The initial scheduling round of the two topologies on the
        testbed, timed on its own cluster."""
        from repro.cluster.builders import emulab_testbed
        from repro.scheduler.rstorm import RStormScheduler

        return round_percentiles(
            [(RStormScheduler(), submitted_topologies(), emulab_testbed)],
            clock,
            ROUND_REPEATS,
        )

    def run_pass(self, state: _State, clock: SpeedClock) -> PassResult:
        chunks = int(HORIZON_S // CHUNK_S)
        for k in range(1, chunks + 1):
            state.report = state.run.run(until=min(k * CHUNK_S, HORIZON_S))
            clock.mark()
        state.recovery = {
            tid: state.monitor.report(tid, state.report)
            for tid in (GOLD, FREE)
        }
        return PassResult(outputs={}, sim={}, work={}, state=state)

    def finish(self, result: PassResult) -> None:
        """Outputs, sim metrics and work counts of a finished pass
        (untimed)."""
        from repro.scheduler.quality import evaluate_assignment

        state = result.state
        report, run, nimbus = state.report, state.run, state.nimbus
        stats = report.stats
        topo_ids = (GOLD, FREE)
        per_topo = {}
        for tid in topo_ids:
            latency = report.e2e_latency(tid)
            per_topo[tid] = dict(
                offered=report.offered(tid),
                emitted=report.emitted(tid),
                acked=stats.acked_total(tid),
                throughput=report.average_throughput_per_window(tid),
                shed=report.shed(tid),
                failed=report.failed(tid),
                replayed=report.replayed(tid),
                exhausted=report.exhausted(tid),
                lost=report.lost(tid),
                duplicated=report.duplicated(tid),
                crashes=report.crashes(tid),
                e2e=[latency.count, latency.p50, latency.p99, latency.p999],
                faults_reported=len(state.recovery[tid].faults),
            )
        injected = [event.describe() for _, event in state.injector.injected]
        tracer = state.monitor.tracer
        rounds = nimbus.rounds[1:]
        placed = sum(sum(r.newly_scheduled.values()) for r in rounds)
        initial = nimbus.rounds[0].assignments
        distances = [
            evaluate_assignment(
                topology, initial[topology.topology_id], state.cluster
            ).mean_network_distance
            for topology in state.topologies
        ]
        offered = sum(per_topo[t]["offered"] for t in topo_ids)
        acked = sum(per_topo[t]["acked"] for t in topo_ids)
        emitted = sum(
            per_topo[t]["emitted"] + per_topo[t]["replayed"] for t in topo_ids
        )
        gold = report.e2e_latency(GOLD)
        result.sim.update(
            sim_tput_gain=1.0,
            sim_p50_s=gold.p50,
            sim_p99_s=gold.p99,
            sim_achieved=acked / offered,
            sched_netdist=sum(distances) / len(distances),
        )
        result.outputs.update(
            events=report.events_processed,
            topologies=per_topo,
            assignments=assignment_rows(nimbus.assignments),
            elastic=[d.as_dict() for d in state.elastic.decisions],
            injected=injected,
            nimbus_rounds=len(nimbus.rounds),
            scheduling_failures=len(nimbus.scheduling_failures),
            quarantined=len(nimbus.quarantine_events),
            trace_dropped=tracer.dropped,
            sim=dict(result.sim),
        )
        def total(key: str) -> int:
            return sum(per_topo[t][key] for t in topo_ids)

        result.work.update({
            "engine.events": report.events_processed,
            "runtime.tuples_emitted": total("emitted"),
            "runtime.tuples_acked": acked,
            "runtime.useful_ratio": acked / emitted,
            "network.bytes": sum(
                stats.nic_bytes(node.node_id) for node in state.cluster.nodes
            ),
            "network.lost": total("lost"),
            "network.duplicated": total("duplicated"),
            "flowcontrol.shed": total("shed"),
            "flowcontrol.credit_stalls": sum(
                report.credit_stall_total(t) for t in topo_ids
            ),
            "flowcontrol.throttled_s": sum(
                report.spout_throttled_s(t) for t in topo_ids
            ),
            "traffic.offered": offered,
            "traffic.arrivals_dropped": sum(
                report.arrivals_dropped(t) for t in topo_ids
            ),
            "faults.injected": len(injected),
            "faults.reported": per_topo[GOLD]["faults_reported"],
            "trace.events": len(tracer) + tracer.dropped,
            "trace.dropped": tracer.dropped,
            "delivery.replayed": total("replayed"),
            "delivery.exhausted": total("exhausted"),
            "admission.admitted": sum(
                len(r.admitted) for r in state.tenancy.round_records
            ),
            "admission.deferred": sum(
                len(r.deferred) for r in state.tenancy.round_records
            ),
            "admission.evicted": sum(
                len(r.evicted) for r in state.tenancy.round_records
            ),
            "elastic.decisions": len(state.elastic.decisions),
            "elastic.tasks_moved": state.elastic.tasks_moved,
            "scheduler.tasks_placed": placed,
            "sched_state.placements_scanned": state.scanned,
            "sched_state.rebuild_ratio": (
                state.scanned / placed if placed else 0.0
            ),
        })
        result.attempted = len(nimbus.rounds)
        result.failed = len(nimbus.scheduling_failures)

    def check(self, result: PassResult, checks: Checks) -> None:
        state = result.state
        audit = state.run.delivery_audit()
        for tid, row in sorted(audit.items()):
            resolved = (
                row["origins_acked"] + row["origins_exhausted"]
                + row["origins_shed"] + row["pending"]
                + row["replays_outstanding"]
            )
            checks.check(
                f"{tid}: delivery audit closes",
                row["origins_created"] == resolved,
                f"created {row['origins_created']} vs resolved {resolved}",
            )
            leaky = [
                f"{p}->{c}"
                for (p, c), ledger in state.run.flow_edges(tid).items()
                if not ledger.conserved()
            ]
            checks.check(f"{tid}: credit ledgers conserved", not leaky,
                         ", ".join(leaky))
            reported = len(state.recovery[tid].faults)
            injected = len(state.injector.injected)
            checks.check(
                f"{tid}: every injected fault in the recovery report",
                reported == injected,
                f"{reported} of {injected} faults reported; trace ring "
                f"dropped {state.monitor.tracer.dropped} events",
                known=_ring_eviction(state, reported),
            )


def _ring_eviction(state: _State, reported: int) -> str:
    """The known defect, if it alone explains missing faults: the
    recovery report is read from a bounded trace ring, which evicts the
    oldest events once full (ROADMAP item 2 replaces it).  It is the
    cause when the ring dropped events, every fault absent from the
    report was injected before the oldest event the ring kept, and the
    report lists exactly the faults whose ``inject`` events remain."""
    tracer = state.monitor.tracer
    if not tracer.dropped or not len(tracer):
        return ""
    oldest = tracer.events()[0].time
    kept = {event.detail for event in tracer.query(kind="inject")}
    missing = [
        at for at, event in state.injector.injected
        if event.describe() not in kept
    ]
    if not missing or reported != len(state.injector.injected) - len(missing):
        return ""
    if any(at > oldest for at in missing):
        return ""
    return (
        f"trace ring evicted {len(missing)} fault events "
        f"(oldest kept event at {oldest:.1f} s)"
    )
