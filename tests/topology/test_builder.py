"""Tests for the TopologyBuilder fluent API."""

import pytest

from repro.errors import TopologyValidationError
from repro.scheduler.ordering import TaskOrderingStrategy, ordered_tasks
from repro.topology.builder import TopologyBuilder
from repro.topology.grouping import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    LocalOrShuffleGrouping,
    ShuffleGrouping,
)


def minimal_builder():
    builder = TopologyBuilder("t")
    builder.set_spout("s", 2)
    return builder


class TestDeclaration:
    def test_empty_topology_id_rejected(self):
        with pytest.raises(TopologyValidationError):
            TopologyBuilder("")

    def test_duplicate_component_name_rejected(self):
        builder = minimal_builder()
        with pytest.raises(TopologyValidationError):
            builder.set_bolt("s", 1)

    def test_build_produces_validated_topology(self):
        builder = minimal_builder()
        builder.set_bolt("b", 3).shuffle_grouping("s")
        topology = builder.build()
        assert topology.topology_id == "t"
        assert topology.component("b").parallelism == 3

    def test_resource_api_on_declarers(self):
        builder = TopologyBuilder("t")
        spout = builder.set_spout("s", 1)
        spout.set_memory_load(1024.0).set_cpu_load(50.0).set_bandwidth_load(5.0)
        bolt = builder.set_bolt("b", 1)
        bolt.shuffle_grouping("s")
        bolt.set_memory_load(2048.0).set_cpu_load(75.0)
        topology = builder.build()
        assert topology.component("s").resource_demand().memory_mb == 1024.0
        assert topology.component("b").resource_demand().cpu == 75.0


class TestGroupingHelpers:
    @pytest.mark.parametrize(
        "method,expected",
        [
            ("shuffle_grouping", ShuffleGrouping),
            ("all_grouping", AllGrouping),
            ("global_grouping", GlobalGrouping),
            ("local_or_shuffle_grouping", LocalOrShuffleGrouping),
        ],
    )
    def test_grouping_methods(self, method, expected):
        builder = minimal_builder()
        bolt = builder.set_bolt("b", 1)
        getattr(bolt, method)("s")
        topology = builder.build()
        sub = topology.component("b").subscriptions[0]
        assert isinstance(sub.grouping, expected)

    def test_fields_grouping_records_fields(self):
        builder = minimal_builder()
        builder.set_bolt("b", 1).fields_grouping("s", fields=("word", "lang"))
        topology = builder.build()
        grouping = topology.component("b").subscriptions[0].grouping
        assert isinstance(grouping, FieldsGrouping)
        assert grouping.fields == ("word", "lang")

    def test_multiple_subscriptions(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s1", 1)
        builder.set_spout("s2", 1)
        bolt = builder.set_bolt("join", 1)
        bolt.shuffle_grouping("s1").shuffle_grouping("s2")
        topology = builder.build()
        assert len(topology.component("join").subscriptions) == 2

    def test_declarer_exposes_component(self):
        builder = TopologyBuilder("t")
        declarer = builder.set_spout("s", 4)
        assert declarer.component.name == "s"
        assert declarer.component.parallelism == 4


class TestBuildSnapshot:
    def test_builder_changes_after_build_do_not_reach_the_topology(self):
        builder = TopologyBuilder("t")
        spout = builder.set_spout("s", 2)
        spout.set_memory_load(256.0).set_cpu_load(20.0)
        bolt = builder.set_bolt("b", 3)
        bolt.shuffle_grouping("s").set_memory_load(128.0).set_cpu_load(10.0)
        topology = builder.build()
        task = topology.tasks_of("b")[0]
        demand = topology.task_demand(task)
        total = topology.total_demand()
        order = ordered_tasks(topology, TaskOrderingStrategy.BFS)

        bolt.set_memory_load(4096.0).set_cpu_load(400.0)
        spout.set_cpu_load(90.0)
        builder.set_bolt("late", 2).shuffle_grouping("b")
        bolt.component.parallelism = 7

        assert topology.task_demand(task) == demand
        assert topology.total_demand() == total
        assert ordered_tasks(topology, TaskOrderingStrategy.BFS) == order
        assert topology.component("b").parallelism == 3
        assert "late" not in topology.components
        rebuilt = builder.build()
        assert rebuilt.task_demand(rebuilt.tasks_of("b")[0]).cpu == 400.0
