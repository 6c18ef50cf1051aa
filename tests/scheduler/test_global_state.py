"""Tests for GlobalState — scheduling-time bookkeeping."""

import pytest

from repro.cluster import single_rack_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import InsufficientResourcesError, SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.global_state import GlobalState
from repro.topology.builder import TopologyBuilder
from repro.topology.task import task_label


@pytest.fixture
def cluster():
    return single_rack_cluster(
        3,
        capacity=ResourceVector.of(memory_mb=1024, cpu=100, bandwidth_mbps=100),
    )


@pytest.fixture
def topology():
    builder = TopologyBuilder("t")
    builder.set_spout("s", 2).set_memory_load(256.0).set_cpu_load(25.0)
    builder.set_bolt("b", 2).shuffle_grouping("s").set_memory_load(
        256.0
    ).set_cpu_load(25.0)
    return builder.build()


class TestPlacement:
    def test_place_reserves_resources(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        task = topology.tasks[0]
        state.place(task, node.slots[0], topology.task_demand(task))
        assert node.available.memory_mb == 768
        assert state.is_placed(task)
        assert state.node_of(task) == node.node_id

    def test_double_place_rejected(self, cluster, topology):
        state = GlobalState(cluster)
        task = topology.tasks[0]
        state.place(task, cluster.nodes[0].slots[0])
        with pytest.raises(SchedulingError):
            state.place(task, cluster.nodes[1].slots[0])

    def test_place_respects_hard_constraints(self, cluster, topology):
        state = GlobalState(cluster)
        task = topology.tasks[0]
        with pytest.raises(InsufficientResourcesError):
            state.place(
                task,
                cluster.nodes[0].slots[0],
                ResourceVector.of(memory_mb=9999),
            )
        assert not state.is_placed(task)

    def test_unplace_releases(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        task = topology.tasks[0]
        state.place(task, node.slots[0], topology.task_demand(task))
        state.unplace(task)
        assert node.available == node.capacity
        assert not state.is_placed(task)

    def test_unplace_unknown_rejected(self, cluster, topology):
        with pytest.raises(SchedulingError):
            GlobalState(cluster).unplace(topology.tasks[0])

    def test_unplace_topology(self, cluster, topology):
        state = GlobalState(cluster)
        for i, task in enumerate(topology.tasks):
            state.place(task, cluster.nodes[i % 3].slots[0])
        state.unplace_topology("t")
        assert state.placed_tasks() == []


class TestSlotSelection:
    def test_reuses_topologys_slot_on_node(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        first = state.slot_for_topology_on_node("t", node)
        state.place(topology.tasks[0], first)
        assert state.slot_for_topology_on_node("t", node) == first

    def test_prefers_free_slot_for_new_topology(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        slot_t = state.slot_for_topology_on_node("t", node)
        state.place(topology.tasks[0], slot_t)
        slot_other = state.slot_for_topology_on_node("other", node)
        assert slot_other != slot_t

    def test_shares_least_loaded_when_all_taken(self, cluster):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        # occupy every slot with a distinct topology
        builders = []
        for i, slot in enumerate(node.slots):
            builder = TopologyBuilder(f"t{i}")
            builder.set_spout("s", 1)
            topo = builder.build()
            state.place(topo.tasks[0], slot)
        chosen = state.slot_for_topology_on_node("newcomer", node)
        assert chosen in node.slots


class TestFromAssignments:
    def test_rebuild_reserves_existing(self, cluster, topology):
        assignment = Assignment(
            "t",
            {task: cluster.nodes[0].slots[0] for task in topology.tasks},
        )
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": assignment}
        )
        assert len(state.placed_tasks("t")) == 4
        assert cluster.nodes[0].available.memory_mb == 0

    def test_rebuild_skips_dead_nodes(self, cluster, topology):
        assignment = Assignment(
            "t",
            {task: cluster.nodes[0].slots[0] for task in topology.tasks},
        )
        cluster.fail_node(cluster.nodes[0].node_id)
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": assignment}
        )
        assert state.placed_tasks("t") == []

    def test_rebuild_is_idempotent_on_reservations(self, cluster, topology):
        assignment = Assignment(
            "t",
            {task: cluster.nodes[0].slots[0] for task in topology.tasks},
        )
        GlobalState.from_assignments(cluster, {"t": topology}, {"t": assignment})
        # second rebuild over the same cluster must not double-reserve
        GlobalState.from_assignments(cluster, {"t": topology}, {"t": assignment})
        assert cluster.nodes[0].available.memory_mb == 0

    def test_assignment_for_freezes_current_state(self, cluster, topology):
        state = GlobalState(cluster)
        for task in topology.tasks:
            state.place(task, cluster.nodes[0].slots[0])
        frozen = state.assignment_for("t")
        assert frozen.is_complete(topology)


class TestPerTopologyIndex:
    """Per-topology queries agree with a brute-force filter over every
    placement, through any sequence of rebuilds and (un)placements."""

    @staticmethod
    def check(state, topology_ids, slots):
        placed = state.placed_tasks()
        for tid in topology_ids:
            expected = {
                t: state.placement_of(t) for t in placed if t.topology_id == tid
            }
            assert state.assignment_for(tid).as_dict() == expected
            assert state.placed_tasks(tid) == sorted(expected)
        for slot in slots:
            assert state.slot_users(slot) == {
                t.topology_id for t in placed if state.placement_of(t) == slot
            }

    def test_random_operation_sequences(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def run(data):
            cluster = single_rack_cluster(
                3,
                capacity=ResourceVector.of(
                    memory_mb=1e6, cpu=1e6, bandwidth_mbps=1e6
                ),
                slots_per_node=2,
            )
            slots = [s for node in cluster.nodes for s in node.slots]
            topologies = {}
            for i in range(data.draw(st.integers(2, 4), label="topologies")):
                builder = TopologyBuilder(f"t{i}")
                builder.set_spout("s", data.draw(st.integers(1, 3)))
                bolt = builder.set_bolt("b", data.draw(st.integers(1, 3)))
                bolt.shuffle_grouping("s")
                topologies[f"t{i}"] = builder.build()
            tasks = [t for topo in topologies.values() for t in topo.tasks]
            state = GlobalState(cluster)
            for _ in range(data.draw(st.integers(1, 25), label="steps")):
                op = data.draw(
                    st.sampled_from(
                        ["rebuild", "place", "unplace", "unplace_topology"]
                    )
                )
                if op == "rebuild":
                    if data.draw(st.booleans(), label="fail a node"):
                        cluster.nodes[
                            data.draw(st.integers(0, len(cluster.nodes) - 1))
                        ].fail()
                    assignments = {
                        tid: Assignment(
                            tid,
                            {
                                t: data.draw(st.sampled_from(slots))
                                for t in data.draw(
                                    st.lists(
                                        st.sampled_from(topo.tasks),
                                        unique=True,
                                    )
                                )
                            },
                        )
                        for tid, topo in topologies.items()
                    }
                    state = GlobalState.from_assignments(
                        cluster, topologies, assignments
                    )
                elif op == "place":
                    unplaced = [t for t in tasks if not state.is_placed(t)]
                    if unplaced:
                        task = data.draw(st.sampled_from(unplaced))
                        state.place(task, data.draw(st.sampled_from(slots)))
                elif op == "unplace":
                    placed = state.placed_tasks()
                    if placed:
                        state.unplace(data.draw(st.sampled_from(placed)))
                else:
                    state.unplace_topology(
                        data.draw(st.sampled_from(sorted(topologies)))
                    )
                self.check(state, topologies, slots)

        run()
