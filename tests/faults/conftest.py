"""Shared helpers for the fault-injection tests."""

from __future__ import annotations

from types import SimpleNamespace

from repro.cluster import emulab_testbed
from repro.faults import FaultInjector, RecoveryMonitor
from repro.nimbus import (
    HeartbeatFailureDetector,
    InMemoryZooKeeper,
    Nimbus,
    Supervisor,
)
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from tests.conftest import make_linear


def build_chaos(
    schedule,
    cluster=None,
    topology=None,
    scheduler=None,
    duration_s=60.0,
    warmup_s=10.0,
    heartbeat_interval_s=2.0,
    heartbeat_timeout_s=6.0,
    scheduling_interval_s=5.0,
    monitor=None,
):
    """Stand up the full coordination plane around one fault schedule.

    Mirrors :meth:`repro.experiments.parallel.ChaosUnit.execute` but
    hands every component back so tests can poke at them.  Call
    ``ctx.run.run()`` to execute.
    """
    cluster = cluster if cluster is not None else emulab_testbed()
    topology = topology if topology is not None else make_linear()
    zk = InMemoryZooKeeper()
    nimbus = Nimbus(cluster, scheduler=scheduler or RStormScheduler(), zk=zk)
    supervisors = {}
    for node in cluster.nodes:
        supervisor = Supervisor(node, zk)
        nimbus.register_supervisor(supervisor)
        supervisors[node.node_id] = supervisor
    nimbus.submit_topology(topology)
    nimbus.schedule_round()
    run = SimulationRun(
        cluster,
        [(topology, nimbus.assignments[topology.topology_id])],
        SimulationConfig(duration_s=duration_s, warmup_s=warmup_s),
    )
    detector = HeartbeatFailureDetector(
        supervisors.values(),
        heartbeat_interval_s=heartbeat_interval_s,
        timeout_s=heartbeat_timeout_s,
    )
    monitor = monitor or RecoveryMonitor()
    monitor.attach(run, detector=detector, nimbus=nimbus)
    detector.attach(run)
    nimbus.attach(run, interval_s=scheduling_interval_s)
    injector = FaultInjector(schedule, detector=detector, tracer=monitor.tracer)
    injector.attach(run)
    return SimpleNamespace(
        cluster=cluster,
        topology=topology,
        nimbus=nimbus,
        supervisors=supervisors,
        detector=detector,
        monitor=monitor,
        injector=injector,
        run=run,
    )
