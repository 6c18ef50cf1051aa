"""Causal ordering of the recovery chain in the trace.

A node crash must appear in the trace as

    inject -> node_down -> expire -> reschedule -> migrate

with monotonically non-decreasing timestamps, because each stage is
caused by the previous one: the injector downs the node, the detector
expires its heartbeat session, Nimbus reschedules, the run migrates.
"""

import pickle

from repro.faults import FaultSchedule, NodeCrash
from tests.faults.conftest import build_chaos


def crashed_trace(duration_s=60.0):
    probe = build_chaos(FaultSchedule())
    victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
    ctx = build_chaos(
        FaultSchedule.of(NodeCrash(at=20.0, node_id=victim)),
        duration_s=duration_s,
    )
    report = ctx.run.run()
    return ctx, victim, report


class TestCausality:
    def test_recovery_chain_in_causal_order(self):
        ctx, victim, _ = crashed_trace()
        tracer = ctx.monitor.tracer
        [inject] = tracer.query(kind="inject")
        [down] = tracer.query(kind="node_down")
        [expire] = tracer.query(kind="expire")
        reschedules = tracer.query(kind="reschedule")
        migrates = tracer.query(kind="migrate")

        assert victim in inject.fault
        assert down.node == victim
        assert expire.node == victim
        assert reschedules and migrates

        assert inject.time <= down.time <= expire.time
        assert expire.time <= reschedules[0].time <= migrates[0].time

    def test_trace_timestamps_never_decrease(self):
        ctx, _, _ = crashed_trace()
        times = [event.time for event in ctx.monitor.tracer.events()]
        assert times == sorted(times)

    def test_reschedule_precedes_its_migration(self):
        ctx, _, _ = crashed_trace()
        tracer = ctx.monitor.tracer
        topo_id = ctx.topology.topology_id
        for reschedule in tracer.query(kind="reschedule", topology=topo_id):
            following = tracer.query(
                kind="migrate", topology=topo_id, since=reschedule.time
            )
            assert following, "every reschedule must be applied"


class TestPickling:
    def test_report_pickles_with_tracer_installed(self):
        ctx, _, report = crashed_trace()
        assert ctx.run.tracer is ctx.monitor.tracer
        clone = pickle.loads(pickle.dumps(report))
        assert clone.sunk(ctx.topology.topology_id) == report.sunk(
            ctx.topology.topology_id
        )

    def test_recovery_report_pickles_with_tracer_installed(self):
        ctx, _, report = crashed_trace()
        recovery = ctx.monitor.report(ctx.topology.topology_id, report)
        assert pickle.loads(pickle.dumps(recovery)) == recovery
