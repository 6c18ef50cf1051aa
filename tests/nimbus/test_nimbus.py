"""Tests for the Nimbus master daemon."""

import pytest

from repro.cluster import emulab_testbed
from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import MembershipError, SchedulingError
from repro.nimbus.config import StormConfig
from repro.nimbus.elastic import ElasticController
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.supervisor import Supervisor
from repro.nimbus.zookeeper import InMemoryZooKeeper
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.task import task_label
from tests.conftest import make_linear


@pytest.fixture
def managed():
    """Cluster + nimbus + one supervisor per node, all registered."""
    cluster = emulab_testbed()
    zk = InMemoryZooKeeper()
    nimbus = Nimbus(cluster, scheduler=RStormScheduler(), zk=zk)
    supervisors = {}
    for node in cluster.nodes:
        supervisor = Supervisor(node, zk)
        nimbus.register_supervisor(supervisor)
        supervisors[node.node_id] = supervisor
    return cluster, nimbus, supervisors


class TestTopologyLifecycle:
    def test_submit_and_schedule(self, managed):
        _, nimbus, _ = managed
        topology = make_linear()
        nimbus.submit_topology(topology)
        round_info = nimbus.schedule_round()
        assert nimbus.assignments["chain"].is_complete(topology)
        assert round_info.newly_scheduled["chain"] == topology.num_tasks

    def test_duplicate_submission_rejected(self, managed):
        _, nimbus, _ = managed
        nimbus.submit_topology(make_linear())
        with pytest.raises(SchedulingError):
            nimbus.submit_topology(make_linear())

    def test_kill_releases_reservations(self, managed):
        cluster, nimbus, _ = managed
        nimbus.submit_topology(make_linear())
        nimbus.schedule_round()
        assert any(node.reservations for node in cluster.nodes)
        nimbus.kill_topology("chain")
        assert all(not node.reservations for node in cluster.nodes)
        assert "chain" not in nimbus.assignments

    def test_kill_unknown_rejected(self, managed):
        _, nimbus, _ = managed
        with pytest.raises(SchedulingError):
            nimbus.kill_topology("ghost")

    def test_submission_order_preserved(self, managed):
        _, nimbus, _ = managed
        nimbus.submit_topology(make_linear("a"))
        nimbus.submit_topology(make_linear("b"))
        assert [t.topology_id for t in nimbus.topologies] == ["a", "b"]

    def test_scheduling_is_idempotent(self, managed):
        _, nimbus, _ = managed
        nimbus.submit_topology(make_linear())
        nimbus.schedule_round()
        first = nimbus.assignments["chain"]
        nimbus.schedule_round()
        assert nimbus.assignments["chain"] == first


class TestMembership:
    def test_reconcile_marks_unregistered_nodes_dead(self, managed):
        cluster, nimbus, supervisors = managed
        supervisors["node-0-0"].crash()
        changed = nimbus.reconcile_membership()
        assert "node-0-0" in changed or not cluster.node("node-0-0").alive
        assert not cluster.node("node-0-0").alive

    def test_reconcile_revives_reregistered_nodes(self, managed):
        cluster, nimbus, supervisors = managed
        supervisors["node-0-0"].crash()
        nimbus.reconcile_membership()
        cluster.node("node-0-0").recover()  # machine rebooted...
        supervisors["node-0-0"].start()  # ...and the supervisor rejoined
        nimbus.reconcile_membership()
        assert cluster.node("node-0-0").alive

    def test_empty_registry_means_unmanaged(self):
        cluster = emulab_testbed()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        assert nimbus.reconcile_membership() == []
        assert all(node.alive for node in cluster.nodes)

    def test_register_supervisor_adds_unknown_node(self):
        from repro.cluster.node import Node
        from repro.cluster.resources import ResourceVector

        cluster = emulab_testbed()
        zk = InMemoryZooKeeper()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler(), zk=zk)
        extra = Node(
            "extra-1",
            "rack-0",
            ResourceVector.of(memory_mb=2048, cpu=100, bandwidth_mbps=100),
        )
        nimbus.register_supervisor(Supervisor(extra, zk))
        assert cluster.has_node("extra-1")

    def test_foreign_zookeeper_rejected(self, managed):
        cluster, nimbus, _ = managed
        from repro.cluster.node import Node
        from repro.cluster.resources import ResourceVector

        other_zk = InMemoryZooKeeper()
        extra = Node(
            "extra-1",
            "rack-0",
            ResourceVector.of(memory_mb=2048, cpu=100, bandwidth_mbps=100),
        )
        with pytest.raises(MembershipError):
            nimbus.register_supervisor(Supervisor(extra, other_zk))


class TestFailureRecovery:
    def test_round_after_failure_replaces_orphans(self, managed):
        cluster, nimbus, supervisors = managed
        topology = make_linear(parallelism=4, stages=3)
        nimbus.submit_topology(topology)
        nimbus.schedule_round()
        victim = nimbus.assignments["chain"].nodes[0]
        supervisors[victim].crash()
        nimbus.schedule_round()
        assignment = nimbus.assignments["chain"]
        assert assignment.is_complete(topology)
        assert victim not in assignment.nodes

    def test_dead_node_reservations_released(self, managed):
        cluster, nimbus, supervisors = managed
        topology = make_linear(parallelism=4, stages=3)
        nimbus.submit_topology(topology)
        nimbus.schedule_round()
        victim = nimbus.assignments["chain"].nodes[0]
        supervisors[victim].crash()
        nimbus.schedule_round()
        assert cluster.node(victim).reservations == {}


class TestFailedRound:
    def test_failed_round_leaves_no_reservations(self):
        """Topology "a" fits, "b" fits no node: the round raises, and
        must not leave "a"'s reservations behind, or the round after
        "b" is killed would reserve "a"'s tasks a second time."""
        cluster = small_cluster()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        a = make_linear("a", parallelism=4, stages=2)
        nimbus.submit_topology(a)
        nimbus.submit_topology(make_linear("b", memory_mb=99_999.0))
        with pytest.raises(SchedulingError):
            nimbus.schedule_round()
        assert nimbus.assignments == {}
        assert all(not node.reservations for node in cluster.nodes)
        nimbus.kill_topology("b")
        nimbus.schedule_round()
        assignment = nimbus.assignments["a"]
        assert assignment.is_complete(a)
        reserved = [
            (node.node_id, label)
            for node in cluster.nodes
            for label in node.reservations
        ]
        assert sorted(reserved) == sorted(
            (assignment.node_of(task), task_label(task)) for task in a.tasks
        )


def small_cluster():
    return uniform_cluster(
        nodes_per_rack=2,
        racks=2,
        capacity=ResourceVector.of(
            memory_mb=4096.0, cpu=400.0, bandwidth_mbps=100.0
        ),
    )


def assert_reservations_match(cluster, nimbus):
    """Every node holds exactly the reservations of its placements."""
    for node in cluster.nodes:
        placed = sorted(
            task_label(task)
            for assignment in nimbus.assignments.values()
            for task in assignment.tasks
            if assignment.node_of(task) == node.node_id
        )
        assert sorted(node.reservations) == placed, node.node_id


class TestDroppedPlacementsKeepReservations:
    """A placement on a dead or quarantined node keeps its reservation
    until a result that re-places the task is adopted.  Here the node
    comes back after a failed scheduling attempt, so the topology is
    complete again and its next round passes it through untouched: the
    node must still hold every reservation its placements imply."""

    @staticmethod
    def placed(config=None):
        cluster = small_cluster()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler(), config=config)
        nimbus.submit_topology(make_linear("a", parallelism=4, stages=2))
        nimbus.schedule_round(0.0)
        assignment = nimbus.assignments["a"]
        return cluster, nimbus, assignment, cluster.node(assignment.nodes[0])

    @staticmethod
    def fail_round(nimbus, now):
        nimbus.submit_topology(make_linear("b", memory_mb=99_999.0))
        with pytest.raises(SchedulingError):
            nimbus.schedule_round(now)
        nimbus.kill_topology("b")

    def test_crash_failed_round_rejoin(self):
        cluster, nimbus, before, victim = self.placed()
        victim.fail()
        self.fail_round(nimbus, 10.0)
        victim.recover()
        nimbus.schedule_round(20.0)
        assert nimbus.assignments["a"] is before
        assert_reservations_match(cluster, nimbus)

    def test_quarantine_failed_round_expiry(self):
        cluster, nimbus, before, victim = self.placed(
            StormConfig({"nimbus.quarantine.enabled": True})
        )
        # Quarantined while alive: masked dead for the failed round.
        nimbus.quarantined[victim.node_id] = 30.0
        self.fail_round(nimbus, 10.0)
        assert victim.alive
        nimbus.schedule_round(40.0)
        assert victim.node_id not in nimbus.quarantined
        assert nimbus.assignments["a"] is before
        assert_reservations_match(cluster, nimbus)

    def test_crash_failed_scale_up_rejoin(self):
        cluster, nimbus, before, victim = self.placed()
        controller = ElasticController(nimbus)
        victim.fail()
        # 60 more 256 MB tasks fit no 3 surviving 4 GB nodes; a refused
        # scale-up returns before it touches the simulation run.
        assert not controller._commit_scale(
            None, "a", "stage-1", 64, 0.0, 0, 10.0
        )
        assert controller.actions_failed
        victim.recover()
        nimbus.schedule_round(20.0)
        assert nimbus.assignments["a"] is before
        assert_reservations_match(cluster, nimbus)
