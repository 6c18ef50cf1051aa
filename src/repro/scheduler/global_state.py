"""GlobalState — scheduling-time bookkeeping (paper Section 5.1).

Nimbus is stateless across scheduler invocations, so R-Storm rebuilds a
``GlobalState`` from the cluster and the currently-live assignments on
every scheduling round.  It tracks:

* where every task of the topologies being scheduled is placed,
  globally and per topology,
* the resource reservations those placements imply on each node, and
* which worker slots are occupied by which topologies.

A round schedules only the topologies that need it (see
:func:`~repro.scheduler.base.needs_scheduling`), so only their
placements are indexed; every other live assignment contributes just
the slots it occupies, which slot selection shares out.  Node
reservations outlive the round (they sit on the cluster's nodes), so the
rebuild only reserves for a placement of a scheduled topology whose node
lacks its reservation.  A round's rebuild therefore costs the tasks of
the topologies it schedules plus one slot per other worker, never all
live placements.

All mutation of node availability during scheduling goes through this
class so a scheduling round can be reconciled or replayed atomically.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, WorkerSlot
from repro.errors import InsufficientResourcesError, SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.packed import PackedClusterState
from repro.topology.task import Task, task_label
from repro.topology.topology import Topology

__all__ = ["GlobalState"]


class GlobalState:
    """Mutable view of cluster placement state during scheduling."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        #: task -> slot for every placed task across all topologies
        self._placements: Dict[Task, WorkerSlot] = {}
        #: topology id -> {task: slot}, in the same insertion order as
        #: that topology's entries in ``_placements``
        self._by_topology: Dict[str, Dict[Task, WorkerSlot]] = {}
        #: slot -> topology ids using it
        self._slot_users: Dict[WorkerSlot, Set[str]] = {}
        #: lazily-built flat-array resource view (see :attr:`packed`)
        self._packed: Optional[PackedClusterState] = None

    @property
    def packed(self) -> PackedClusterState:
        """Flat per-dimension resource arrays over the alive nodes,
        built on first use — a round with nothing to place never builds
        it — and kept in sync by :meth:`place` / :meth:`unplace`.  Valid
        for the lifetime of this state object, i.e. one scheduling round
        (Nimbus rebuilds ``GlobalState`` every round, so liveness changes
        between rounds get a fresh view)."""
        if self._packed is None:
            self._packed = PackedClusterState(self.cluster)
        return self._packed

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignments(
        cls,
        cluster: Cluster,
        topologies: Mapping[str, Topology],
        assignments: Mapping[str, Assignment],
    ) -> "GlobalState":
        """Rebuild state from live assignments (the stateless-Nimbus
        path).  Placements on dead nodes are dropped — those tasks are the
        ones a new scheduling round must place again.

        Only the assignments of ``topologies`` (the topologies being
        scheduled) are indexed, and a placement of theirs whose node
        lacks its reservation is reserved again.  Every other assignment
        contributes only its slots on alive nodes to the slot users.
        Given every live topology, this is the full rebuild.
        """
        state = cls(cluster)
        placements = state._placements
        slot_users = state._slot_users
        alive = {node.node_id: node for node in cluster.alive_nodes}
        for topo_id, assignment in assignments.items():
            topology = topologies.get(topo_id)
            owner = assignment.topology_id
            if topology is None:
                for slot in assignment.slot_set:
                    if slot.node_id in alive:
                        slot_users.setdefault(slot, set()).add(owner)
                continue
            placed = state._by_topology.setdefault(owner, {})
            for task in assignment.tasks:
                slot = assignment.slot_of(task)
                node = alive.get(slot.node_id)
                if node is None:
                    continue
                label = task_label(task)
                if not node.has_reservation(label):
                    try:
                        node.reserve(label, topology.task_demand(task))
                    except InsufficientResourcesError:
                        # A previously valid placement can exceed hard
                        # budgets after capacity loss; keep the placement
                        # on the books without a reservation so the
                        # operator sees the over-commit in reports.
                        pass
                placements[task] = slot
                placed[task] = slot
                slot_users.setdefault(slot, set()).add(owner)
        return state

    # -- queries -------------------------------------------------------------

    def placement_of(self, task: Task) -> Optional[WorkerSlot]:
        return self._placements.get(task)

    def is_placed(self, task: Task) -> bool:
        return task in self._placements

    def placed_tasks(self, topology_id: Optional[str] = None) -> List[Task]:
        if topology_id is None:
            return sorted(self._placements)
        return sorted(self._by_topology.get(topology_id, ()))

    def node_of(self, task: Task) -> Optional[str]:
        slot = self._placements.get(task)
        return slot.node_id if slot else None

    def tasks_on_node(self, node_id: str) -> List[Task]:
        return sorted(
            t for t, s in self._placements.items() if s.node_id == node_id
        )

    def slot_users(self, slot: WorkerSlot) -> Set[str]:
        return set(self._slot_users.get(slot, set()))

    def assignment_for(self, topology_id: str) -> Assignment:
        """Freeze the current placements of one topology."""
        return Assignment(topology_id, self._by_topology.get(topology_id, {}))

    # -- slot selection ------------------------------------------------------

    def slot_for_topology_on_node(self, topology_id: str, node: Node) -> WorkerSlot:
        """Pick the worker slot a topology should use on ``node``.

        R-Storm packs all of a topology's tasks on a node into a single
        worker process (intra-process communication is the fastest level);
        this mirrors Apache Storm's Resource-Aware Scheduler, which
        collapses a topology's executors on a node into one worker.
        Preference order: the slot this topology already uses on the node,
        then a completely free slot, then the slot shared with the fewest
        other topologies.
        """
        for slot in node.slots:
            if topology_id in self._slot_users.get(slot, set()):
                return slot
        for slot in node.slots:
            if not self._slot_users.get(slot):
                return slot
        return min(node.slots, key=lambda s: (len(self._slot_users.get(s, set())), s))

    # -- mutation ------------------------------------------------------------

    def place(
        self,
        task: Task,
        slot: WorkerSlot,
        demand=None,
    ) -> None:
        """Place ``task`` on ``slot``, reserving ``demand`` on the node if
        given.

        Raises:
            SchedulingError: if the task is already placed.
            InsufficientResourcesError: if the reservation violates a hard
                constraint (the placement is not recorded in that case).
        """
        if task in self._placements:
            raise SchedulingError(f"task {task} is already placed")
        node = self.cluster.node(slot.node_id)
        if demand is not None:
            node.reserve(task_label(task), demand)
            if self._packed is not None:
                self._packed.refresh_node(node)
        self._placements[task] = slot
        self._by_topology.setdefault(task.topology_id, {})[task] = slot
        self._slot_users.setdefault(slot, set()).add(task.topology_id)

    def unplace(self, task: Task) -> None:
        """Remove a task's placement and release its reservation (if any)."""
        slot = self._placements.pop(task, None)
        if slot is None:
            raise SchedulingError(f"task {task} is not placed")
        node = self.cluster.node(slot.node_id)
        if node.has_reservation(task_label(task)):
            node.release(task_label(task))
            if self._packed is not None:
                self._packed.refresh_node(node)
        placed = self._by_topology[task.topology_id]
        del placed[task]
        if slot not in placed.values():
            users = self._slot_users.get(slot)
            if users:
                users.discard(task.topology_id)
                if not users:
                    del self._slot_users[slot]

    def unplace_topology(self, topology_id: str) -> None:
        for task in self.placed_tasks(topology_id):
            self.unplace(task)

    def __repr__(self) -> str:
        return (
            f"GlobalState(placements={len(self._placements)}, "
            f"slots={len(self._slot_users)})"
        )
