"""Tests for the IScheduler contract and diagnostics wrapper."""

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler.aniello import AnielloOfflineScheduler
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, SchedulingRound, needs_scheduling
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from tests.conftest import make_linear

SCHEDULERS = [RStormScheduler, DefaultScheduler, AnielloOfflineScheduler]


class TestRunWrapper:
    def test_run_measures_latency_and_new_tasks(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=2, stages=2)
        round_info = RStormScheduler().run([topology], cluster)
        assert isinstance(round_info, SchedulingRound)
        assert round_info.scheduler == "r-storm"
        assert round_info.duration_s > 0
        assert round_info.newly_scheduled["chain"] == 4
        assert round_info.topologies == ["chain"]

    def test_run_counts_only_new_placements(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=2, stages=2)
        scheduler = RStormScheduler()
        first = scheduler.run([topology], cluster)
        second = scheduler.run(
            [topology], cluster, first.assignments
        )
        assert second.newly_scheduled["chain"] == 0

    def test_abstract_schedule_required(self):
        class Incomplete(IScheduler):
            pass

        with pytest.raises(TypeError):
            Incomplete()

    def test_round_repr_mentions_scheduler(self):
        cluster = emulab_testbed()
        round_info = RStormScheduler().run(
            [make_linear(parallelism=1, stages=2)], cluster
        )
        assert "r-storm" in repr(round_info)


class TestNeedsScheduling:
    def test_without_existing_every_topology_needs_scheduling(self):
        cluster = emulab_testbed()
        topologies = [make_linear("a"), make_linear("b")]
        assert list(needs_scheduling(topologies, cluster, None)) == ["a", "b"]
        assert list(needs_scheduling(topologies, cluster, {})) == ["a", "b"]

    def test_complete_assignment_on_alive_nodes_does_not(self):
        cluster = emulab_testbed()
        a, b = make_linear("a"), make_linear("b")
        existing = RStormScheduler().schedule([a], cluster)
        assert list(needs_scheduling([a, b], cluster, existing)) == ["b"]

    def test_missing_task_or_dead_node_does(self):
        cluster = emulab_testbed()
        a, b = make_linear("a"), make_linear("b")
        existing = RStormScheduler().schedule([a, b], cluster)
        partial = existing["a"].as_dict()
        del partial[a.tasks[0]]
        existing["a"] = Assignment("a", partial)
        cluster.fail_node(existing["b"].nodes[0])
        assert list(needs_scheduling([a, b], cluster, existing)) == ["a", "b"]


class TestCompleteAssignmentsPassThrough:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.name)
    def test_same_object_and_nothing_new(self, scheduler_cls):
        cluster = emulab_testbed()
        a, b = make_linear("a"), make_linear("b", parallelism=3)
        scheduler = scheduler_cls()
        first = scheduler.run([a], cluster)
        second = scheduler.run([a, b], cluster, first.assignments)
        assert second.assignments["a"] is first.assignments["a"]
        assert second.newly_scheduled == {"a": 0, "b": b.num_tasks}
        available = {n.node_id: n.available for n in cluster.nodes}
        third = scheduler.run([a, b], cluster, second.assignments)
        for tid in ("a", "b"):
            assert third.assignments[tid] is second.assignments[tid]
        assert third.newly_scheduled == {"a": 0, "b": 0}
        assert {n.node_id: n.available for n in cluster.nodes} == available
