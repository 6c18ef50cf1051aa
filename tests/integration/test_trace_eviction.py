"""Recovery reports survive trace-ring eviction.

:class:`RecoveryMonitor` reads only control events (``inject``,
``expire``, ``reschedule``, ``migrate``, ``rescale``, ``replay``), and
the tracer keeps those outside its bounded ring.  A monitor whose ring is
far too small for a run's data-path events (emit, deliver, ack, ...)
must therefore report exactly what a default-capacity monitor reports.
"""

from repro.faults import FaultSchedule, NodeCrash, RecoveryMonitor
from repro.simulation.tracing import Tracer
from tests.faults.conftest import build_chaos
from tests.integration.test_elastic_recovery import build as build_elastic

SMALL_RING = 200


def _reports(ctx, report):
    tid = ctx.topology.topology_id
    return ctx.monitor.report(tid, report)


def _crash_run(monitor):
    probe = build_chaos(FaultSchedule())
    victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
    ctx = build_chaos(
        FaultSchedule.of(NodeCrash(at=20.0, node_id=victim, rejoin_at=45.0)),
        duration_s=90.0,
        monitor=monitor,
    )
    return ctx, ctx.run.run()


def _elastic_run(monitor):
    ctx = build_elastic(monitor=monitor)
    return ctx, ctx.run.run()


class TestNodeCrash:
    def test_small_ring_reports_like_default(self):
        small_ctx, small_report = _crash_run(
            RecoveryMonitor(Tracer(capacity=SMALL_RING))
        )
        full_ctx, full_report = _crash_run(RecoveryMonitor())
        assert small_ctx.monitor.tracer.dropped > 10 * SMALL_RING
        assert full_ctx.monitor.tracer.dropped == 0

        small = _reports(small_ctx, small_report)
        full = _reports(full_ctx, full_report)
        assert len(full.faults) == 1
        assert full.faults[0].detection_latency_s is not None
        assert full.fault_tasks_moved > 0
        assert small.to_json() == full.to_json()


class TestLossyLinkElastic:
    """Crashes plus a lossy trunk under at-least-once delivery with the
    elastic controller on: faults, the fault/elastic churn split and the
    replay drain time all come from control events."""

    def test_small_ring_reports_like_default(self):
        small_ctx, small_report = _elastic_run(
            RecoveryMonitor(Tracer(capacity=SMALL_RING))
        )
        full_ctx, full_report = _elastic_run(RecoveryMonitor())
        assert small_ctx.monitor.tracer.dropped > 10 * SMALL_RING
        assert full_ctx.monitor.tracer.dropped == 0

        small = _reports(small_ctx, small_report)
        full = _reports(full_ctx, full_report)
        assert len(full.faults) == 4
        assert full.fault_tasks_moved > 0
        assert full.elastic_tasks_moved > 0
        assert full.time_to_drain_s is not None
        assert small.to_json() == full.to_json()
