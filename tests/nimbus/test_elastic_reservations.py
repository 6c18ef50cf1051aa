"""Elastic scale-up releases the reservations of tasks on a dead node.

A scale-up re-runs the scheduler, which re-places every task whose node
has died.  The dead node's reservations for those tasks must be
released, exactly as a Nimbus round does, or they outlive the node:

* ``work[3]`` (task id 5) starts alone on ``node-0-1``;
* ``node-0-1`` dies at 9 s, the elastic scale-up at 10 s lands before
  the next Nimbus round (15 s) and moves ``work[3]`` elsewhere;
* the node rejoins at 12 s;
* a load lull scales ``work`` down to one task, which drops task id 5;
* load returns and the scale-up re-adds id 5; R-Storm places it on
  ``node-0-1`` again.

Had the first scale-up kept the dead node's reservation, that last
placement would raise ``ClusterStateError`` (label already reserved)
and abort the run.  A scale-up must also leave the tasks other
topologies lost to a dead node for Nimbus to re-place.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.cluster import ResourceVector, single_rack_cluster
from repro.nimbus import ElasticController, Nimbus, StormConfig
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.topology import ExecutionProfile, TopologyBuilder
from repro.topology.task import task_label
from repro.traffic.arrivals import ArrivalProcess

VICTIM = "node-0-1"
HIGH_TPS = 1200.0
FAST = ExecutionProfile(
    cpu_ms_per_tuple=0.05, tuple_bytes=64, emit_batch_tuples=50
)
SLOW = ExecutionProfile(
    cpu_ms_per_tuple=1.0, tuple_bytes=64, emit_batch_tuples=50
)


@dataclass(frozen=True)
class PhasedArrivals(ArrivalProcess):
    """Evenly paced arrivals at a piecewise-constant rate:
    ``phases`` holds ``(start_s, rate_tps)`` pairs in time order."""

    phases: Tuple[Tuple[float, float], ...]

    def stream(self, rng, batch_tuples, source=None):
        ends = [start for start, _ in self.phases[1:]] + [float("inf")]
        for (start, rate), end in zip(self.phases, ends):
            step = batch_tuples / rate
            t = start + step
            while t < end:
                yield (t, batch_tuples, None)
                t += step

    def mean_rate_tps(self) -> float:
        return self.phases[0][1]


def elastic_topology():
    builder = TopologyBuilder("elastic")
    builder.set_spout("source", 1, profile=FAST).set_memory_load(
        256.0
    ).set_cpu_load(25.0)
    work = builder.set_bolt("work", 4, profile=SLOW)
    work.shuffle_grouping("source")
    work.set_memory_load(256.0).set_cpu_load(25.0)
    return builder.build()


def spout_only_topology():
    """Nothing for the elastic controller to scale."""
    builder = TopologyBuilder("static")
    builder.set_spout("solo", 2, profile=FAST).set_memory_load(
        256.0
    ).set_cpu_load(25.0)
    return builder.build()


def build(topologies, phases, duration_s):
    cluster = single_rack_cluster(
        4,
        capacity=ResourceVector.of(
            memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0
        ),
    )
    nimbus = Nimbus(
        cluster,
        scheduler=RStormScheduler(),
        config=StormConfig({
            "nimbus.elastic.enabled": True,
            "nimbus.elastic.interval.secs": 10.0,
            "nimbus.elastic.rebalance.enabled": False,
        }),
    )
    for topology in topologies:
        nimbus.submit_topology(topology)
    nimbus.schedule_round()
    run = SimulationRun(
        cluster,
        [(t, nimbus.assignments[t.topology_id]) for t in topologies],
        SimulationConfig(
            duration_s=duration_s,
            warmup_s=1.0,
            arrival_process=PhasedArrivals(phases),
        ),
    )
    # Nimbus rounds at 15 s, 30 s, ...; elastic ticks at 10 s, 20 s, ...
    nimbus.attach(run, interval_s=15.0)
    controller = ElasticController(nimbus)
    controller.attach(run)
    return cluster, nimbus, controller, run


def assert_reservations_match(cluster, nimbus):
    for node in cluster.nodes:
        placed = {
            task_label(task)
            for assignment in nimbus.assignments.values()
            for task in assignment.tasks
            if assignment.node_of(task) == node.node_id
        }
        assert set(node.reservations) == placed, node.node_id


class TestScaleUpAfterNodeDeath:
    def test_rejoined_node_takes_back_a_task_it_lost(self):
        topology = elastic_topology()
        cluster, nimbus, controller, run = build(
            [topology],
            ((0.0, HIGH_TPS), (20.0, 10.0), (80.0, HIGH_TPS)),
            duration_s=120.0,
        )
        [lost] = [
            task for task in topology.tasks
            if nimbus.assignments["elastic"].node_of(task) == VICTIM
        ]
        run.fail_node_at(9.0, VICTIM)
        run.recover_node_at(12.0, VICTIM)
        run.run()

        steps = [
            (d.time_s, d.action, d.to_parallelism)
            for d in controller.decisions
        ]
        # the scenario: scale-up while the victim is dead (and before
        # the 15 s Nimbus round), down to one task in the lull, back up
        assert steps[0] == (10.0, "scale-up", 7)
        assert (50.0, "scale-down", 1) in steps
        assert steps[-1][1] == "scale-up"
        assert nimbus.assignments["elastic"].node_of(lost) == VICTIM
        assert_reservations_match(cluster, nimbus)

    def test_other_topologies_lost_tasks_are_left_to_nimbus(self):
        """A scale-up must not place another topology's tasks: that
        placement would be discarded with its reservation held, and the
        next Nimbus round, placing the same tasks on the same node,
        would raise ``ClusterStateError``."""
        cluster, nimbus, controller, run = build(
            [elastic_topology(), spout_only_topology()],
            ((0.0, HIGH_TPS),),
            duration_s=30.0,
        )
        [victim] = nimbus.assignments["static"].nodes
        run.fail_node_at(9.0, victim)
        run.run()

        assert controller.decisions[0].time_s == 10.0
        assert controller.decisions[0].action == "scale-up"
        assert victim not in nimbus.assignments["static"].nodes
        assert_reservations_match(cluster, nimbus)
