"""Tests for the event tracer."""

import pickle

import pytest

from repro.cluster import emulab_testbed
from repro.cluster.network import DistanceLevel
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.simulation.tracing import Tracer
from repro.topology.task import Task
from tests.conftest import make_linear


def traced_run(duration=15.0, capacity=100_000, fail_at=None):
    topology = make_linear(parallelism=2, stages=2)
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)["chain"]
    run = SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=duration, warmup_s=2.0),
    )
    tracer = Tracer(capacity=capacity)
    tracer.install(run)
    if fail_at is not None:
        run.fail_node_at(fail_at, assignment.nodes[0])
    report = run.run()
    return tracer, report


def short_run():
    topology = make_linear(parallelism=1, stages=2)
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)["chain"]
    return SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=5.0, warmup_s=1.0),
    )


class TestTracing:
    def test_records_emits_delivers_acks(self):
        tracer, _ = traced_run()
        counts = tracer.counts_by_kind()
        assert counts["emit"] > 0
        assert counts["deliver"] > 0
        assert counts["ack"] > 0

    def test_ack_count_matches_latency_samples(self):
        tracer, report = traced_run()
        assert tracer.counts_by_kind()["ack"] == report.ack_latency("chain").count

    def test_query_filters_by_kind_and_time(self):
        tracer, _ = traced_run()
        emits = tracer.query(kind="emit")
        assert all(e.kind == "emit" for e in emits)
        early = tracer.query(until=5.0)
        late = tracer.query(since=5.0)
        assert len(early) + len(late) >= len(tracer)

    def test_events_are_time_ordered(self):
        tracer, _ = traced_run()
        times = [e.time for e in tracer.events()]
        assert times == sorted(times)

    def test_node_failure_traced(self):
        # batch timeout is 30 s; run long enough for stranded batches to
        # expire after the 10 s failure
        tracer, _ = traced_run(duration=60.0, fail_at=10.0)
        downs = tracer.query(kind="node_down")
        assert len(downs) == 1
        assert downs[0].time == 10.0
        assert tracer.query(kind="fail")  # timed-out batches follow

    def test_ring_buffer_bounds_memory(self):
        tracer, _ = traced_run(capacity=100)
        assert len(tracer) == 100
        assert tracer.dropped > 0

    def test_double_install_rejected(self):
        run = short_run()
        tracer = Tracer()
        tracer.install(run)
        with pytest.raises(RuntimeError):
            tracer.install(run)

    def test_second_tracer_on_one_run_rejected(self):
        run = short_run()
        first = Tracer()
        first.install(run)
        with pytest.raises(RuntimeError):
            Tracer().install(run)
        assert run.tracer is first

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_str_rendering(self):
        tracer, _ = traced_run()
        text = str(tracer.events()[0])
        assert "s]" in text


SPOUT = Task("chain", "spout", 0, 0)
BOLT = Task("chain", "bolt-1", 1, 3)

#: one event per kind with the exact rendering earlier releases printed
#: (f-strings built at record time); the typed fields must reproduce it.
RENDERED = [
    (("emit", "chain", SPOUT, 10),
     "[    1.5000s] emit      chain chain/spout[0] batch=10"),
    (("deliver", "chain", 7, 10, BOLT, DistanceLevel.INTER_NODE),
     "[    1.5000s] deliver   chain root=7 tuples=10 -> chain/bolt-1[1]"
     " (INTER_NODE)"),
    (("ack", "chain", 12.3456),
     "[    1.5000s] ack       chain latency=12.346ms"),
    (("fail", "chain", 40), "[    1.5000s] fail      chain tuples=40"),
    (("crash", "chain", BOLT),
     "[    1.5000s] crash     chain chain/bolt-1[1] queue overflow"),
    (("migrate", "chain", 3, "elastic", 2),
     "[    1.5000s] migrate   chain onto 3 nodes, reason=elastic, moved=2"),
    (("node_down", "", "node-0-1"), "[    1.5000s] node_down  node-0-1"),
    (("node_up", "", "node-0-1"), "[    1.5000s] node_up    node-0-1"),
    (("inject", "", "node_crash(node-0-1)"),
     "[    1.5000s] inject     node_crash(node-0-1)"),
    (("expire", "", "node-0-1"), "[    1.5000s] expire     node-0-1"),
    (("reschedule", "chain"),
     "[    1.5000s] reschedule chain new assignment"),
    (("replay", "chain", 12, 7, 1, 10),
     "[    1.5000s] replay    chain root=12 origin=7 attempt=1 tuples=10"),
    (("rescale", "chain", 4, 9, 2, 1, 3),
     "[    1.5000s] rescale   chain onto 4 nodes, tasks=9, added=2,"
     " removed=1, moved=3"),
    (("stall", "chain", "spout", "bolt-1"),
     "[    1.5000s] stall     chain spout paused (spout -> bolt-1 edge over"
     " high watermark)"),
    (("resume", "chain", "spout", "bolt-1"),
     "[    1.5000s] resume    chain spout resumed (spout -> bolt-1 edge"
     " under low watermark)"),
    (("shed", "chain", "bolt-1", 10, "queue"),
     "[    1.5000s] shed      chain bolt-1 shed tuples=10 stage=queue"),
]


class TestTypedEvents:
    def test_every_kind_renders_as_before(self):
        assert sorted(args[0] for args, _ in RENDERED) == sorted(Tracer.KINDS)
        tracer = Tracer()
        for args, _ in RENDERED:
            tracer.record(1.5, *args)
        assert [str(e) for e in tracer.events()] == [t for _, t in RENDERED]

    def test_fields_are_typed_and_named(self):
        tracer = Tracer()
        tracer.record(2.0, "migrate", "chain", 3, "fault", 5)
        tracer.record(3.0, "rescale", "chain", 4, 9, 2, 1, 3)
        migrate, rescale = tracer.events()
        assert (migrate.nodes, migrate.reason, migrate.moved) == (3, "fault", 5)
        assert (rescale.added, rescale.removed, rescale.moved) == (2, 1, 3)
        with pytest.raises(AttributeError):
            migrate.added

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            Tracer().record(0.0, "bogus", "chain")

    def test_control_events_survive_ring_eviction(self):
        tracer = Tracer(capacity=2)
        tracer.record(0.0, "inject", "", "node_crash(node-0-1)")
        for i in range(5):
            tracer.record(1.0 + i, "fail", "chain", i)
        tracer.record(9.0, "migrate", "chain", 3, "fault", 5)
        tracer.record(9.5, "fail", "chain", 5)
        assert tracer.dropped == 4
        assert len(tracer) == 4
        assert [e.kind for e in tracer.events()] == [
            "inject", "fail", "migrate", "fail"
        ]
        assert [e.tuples for e in tracer.query(kind="fail")] == [4, 5]
        assert [e.moved for e in tracer.query(kind="migrate")] == [5]
        assert tracer.counts_by_kind() == {"inject": 1, "fail": 2, "migrate": 1}

    def test_events_pickle(self):
        tracer = Tracer()
        tracer.record(2.0, "migrate", "chain", 3, "fault", 5)
        [event] = tracer.events()
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event and clone.moved == 5
