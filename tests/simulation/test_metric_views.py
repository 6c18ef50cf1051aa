"""Golden digests over every metric view the reports read.

Four short runs cover the layers that write metrics: a closed-loop run
whose overloaded bolt crashes its worker once, at-least-once delivery
over a lossy link, open-loop Poisson arrivals, and flow control with
priority shedding and credit stalls.  For each run the test hashes a
canonical dump of the summary, every per-window series, the shed split,
crash counts, ack and end-to-end latency, the tenant rollup and the
elastic controller's three snapshots.  Any change to how a metric is
stored that alters a single number read back changes a digest.
"""

import hashlib
import json
import random

import pytest

from repro.cluster import emulab_testbed
from repro.cluster.node import WorkerSlot
from repro.scheduler.assignment import Assignment
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.export import report_as_dict
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.runtime import SimulationRun
from repro.topology.builder import TopologyBuilder
from repro.topology.component import ExecutionProfile
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import hotspot_topology, linear_topology
from tests.conftest import make_linear


def _scheduled(scheduler, topologies, cluster, config):
    assignments = scheduler.schedule(topologies, cluster)
    return SimulationRun(
        cluster, [(t, assignments[t.topology_id]) for t in topologies], config
    )


def crash_run():
    """Closed loop; an unthrottled spout overruns one slow bolt, whose
    worker crashes once on queue overflow and restarts."""
    builder = TopologyBuilder("overrun")
    builder.set_spout(
        "s", 2,
        profile=ExecutionProfile(
            cpu_ms_per_tuple=0.01, emit_batch_tuples=100, max_rate_tps=1350.0
        ),
    )
    builder.set_bolt(
        "slow", 1, profile=ExecutionProfile(cpu_ms_per_tuple=0.4)
    ).shuffle_grouping("s")
    builder.set_bolt(
        "sink", 2, profile=ExecutionProfile(cpu_ms_per_tuple=0.05)
    ).shuffle_grouping("slow")
    config = SimulationConfig(
        duration_s=40.0, warmup_s=5.0, batch_timeout_s=10.0,
        max_spout_pending=None,
        queue_overflow_batches=50,
    )
    return _scheduled(
        DefaultScheduler(), [builder.build()], emulab_testbed(), config
    )


def lossy_run():
    """At-least-once over a cross-rack link that loses and duplicates."""
    cluster = emulab_testbed()
    topology = make_linear(parallelism=1, stages=2)
    by_rack = {}
    for node in sorted(cluster.nodes, key=lambda n: n.node_id):
        by_rack.setdefault(node.rack_id, node)
    nodes = [by_rack[r] for r in sorted(by_rack)]
    mapping = {
        task: WorkerSlot(
            nodes[int(task.component.split("-")[1]) % len(nodes)].node_id,
            6700,
        )
        for task in topology.tasks
    }
    config = SimulationConfig(
        duration_s=40.0, warmup_s=5.0, batch_timeout_s=2.0,
        at_least_once=True, max_retries=2, replay_backoff_s=0.5,
    )
    run = SimulationRun(
        cluster, [(topology, Assignment(topology.topology_id, mapping))],
        config,
    )
    run.transfer.set_link_loss(
        "rack-0", "rack-1", 0.3, 0.2, rng=random.Random(11)
    )
    return run


def open_loop_run():
    config = SimulationConfig(
        duration_s=40.0, warmup_s=10.0,
        arrival_process=PoissonArrivals(rate_tps=250.0),
    )
    return _scheduled(
        RStormScheduler(), [linear_topology("compute")], emulab_testbed(),
        config,
    )


def flow_run():
    """1.5x overload on two tenants' hotspots; priority sheds free first."""
    topologies = [
        hotspot_topology(3, 1, "hotspot-gold"),
        hotspot_topology(3, 1, "hotspot-free"),
    ]
    flow = FlowControlConfig(
        queue_capacity=32,
        shedding="priority",
        priorities=(("hotspot-gold", 2), ("hotspot-free", 0)),
    )
    config = SimulationConfig(
        duration_s=40.0, warmup_s=10.0,
        arrival_process=PoissonArrivals(rate_tps=250.0), flow=flow,
    )
    return _scheduled(RStormScheduler(), topologies, emulab_testbed(), config)


def _keyed(mapping):
    """Tuple-keyed dict -> sorted [[key...], value] rows."""
    return sorted(
        [list(key) if isinstance(key, tuple) else [key], value]
        for key, value in mapping.items()
    )


def _elastic_snapshots(stats):
    """The three snapshots the elastic controller diffs per period,
    keyed (topology, component), node and (topology, component)."""
    if hasattr(stats, "snapshot"):
        return (
            stats.snapshot("processed"),
            stats.snapshot("busy"),
            stats.snapshot("shed", "topology", "component"),
        )
    # The per-metric snapshot methods these digests were recorded with.
    return (
        stats.processed_snapshot(),
        stats.busy_snapshot(),
        stats.shed_snapshot(),
    )


def canonical_views(run, report) -> str:
    tenant_of = {tid: tid.rsplit("-", 1)[-1] for tid in report.topology_ids}
    topologies = {}
    for tid in report.topology_ids:
        components = sorted(run.current_topology(tid).components)
        ack = report.ack_latency(tid)
        e2e = report.e2e_latency(tid)
        topologies[tid] = {
            "summary": report.summary()[tid],
            "throughput": report.throughput_series(tid),
            "components": {
                name: report.component_series(tid, name)
                for name in components
            },
            "effective": report.effective_throughput_series(tid),
            "offered": report.offered_series(tid),
            "shed": report.shed_series(tid),
            "shed_by_stage": report.shed_by_stage(tid),
            "crashes": report.crashes(tid),
            "ack_latency": [ack.count, ack.mean, ack.p50, ack.p99],
            "e2e_latency": [e2e.count, e2e.mean, e2e.p50, e2e.p99, e2e.p999],
        }
    processed, busy, shed = _elastic_snapshots(report.stats)
    dump = {
        "topologies": topologies,
        "tenant_summary": report.tenant_summary(tenant_of),
        "processed_snapshot": _keyed(processed),
        "busy_snapshot": _keyed(busy),
        "shed_snapshot": _keyed(shed),
    }
    return json.dumps(dump, sort_keys=True)


SCENARIOS = {
    "crash": crash_run,
    "lossy": lossy_run,
    "open-loop": open_loop_run,
    "flow": flow_run,
}

DIGESTS = {
    "crash": (
        "22d0c4c8f5de5b22fd46c0f0907798c7"
        "e90c6160cceb941a63ecf1f68b49109e"
    ),
    "lossy": (
        "f4d08deebe6bb00140ec41566ca42732"
        "2f56a8e12d541b534cf8f994be93713c"
    ),
    "open-loop": (
        "9d6352dfe84b62bb873dcac365321f84"
        "8d87f27c116eec467206c463e2375ffa"
    ),
    "flow": (
        "11970575eae0d693402fb246d44fb269"
        "c9e07ba1cc57a77755e27d7414a0ebe7"
    ),
}


def _run(name):
    random.seed(7)
    run = SCENARIOS[name]()
    return run, run.run()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_views_match_golden_digest(name):
    run, report = _run(name)
    digest = hashlib.sha256(canonical_views(run, report).encode()).hexdigest()
    assert digest == DIGESTS[name]


def test_scenarios_exercise_their_layers():
    _, crash = _run("crash")
    assert crash.crashes("overrun") == 1
    _, lossy = _run("lossy")
    tid = lossy.topology_ids[0]
    assert lossy.lost(tid) > 0 and lossy.duplicated(tid) > 0
    assert lossy.replayed(tid) > 0
    _, open_loop = _run("open-loop")
    assert open_loop.offered("linear-compute") > 0
    _, flow = _run("flow")
    assert flow.shed("hotspot-free") > flow.shed("hotspot-gold")
    assert flow.credit_stall_total("hotspot-gold") > 0


def test_killed_worker_drops_are_reported():
    """Batches routed to the crashed worker while it restarts are
    counted per topology and exported, but stay out of the summary."""
    _, report = _run("crash")
    assert report.dropped("overrun") == 270
    exported = report_as_dict(report)["topologies"]["overrun"]
    assert exported["dropped_batches"] == 270
    assert "dropped_batches" not in report.summary()["overrun"]
