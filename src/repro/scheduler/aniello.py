"""Offline scheduler of Aniello, Baldoni & Querzoni (DEBS 2013).

The related-work baseline the paper compares its approach against: the
offline variant linearises the topology's components (it only supports
acyclic topologies — the limitation the paper calls out) and deals
executors of consecutive components to worker slots in round-robin
fashion, so *some* adjacent pairs co-locate, but no resource demand or
availability is consulted and anchoring/packing is absent.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.node import WorkerSlot
from repro.errors import SchedulingError, TopologyValidationError
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler
from repro.scheduler.default import interleaved_slots
from repro.scheduler.ordering import TaskOrderingStrategy, ordered_tasks
from repro.topology.task import Task
from repro.topology.topology import Topology

__all__ = ["AnielloOfflineScheduler"]


class AnielloOfflineScheduler(IScheduler):
    """Linearise components topologically, then round-robin tasks over a
    per-topology set of worker slots in linearised order.

    Unlike :class:`~repro.scheduler.default.DefaultScheduler`, consecutive
    tasks in the linearisation go to consecutive slots, so a chain of
    components partially folds onto the same workers; unlike R-Storm, no
    resource accounting or rack-locality anchoring happens.

    Args:
        workers_per_topology: Slots each topology spreads over (defaults
            to one per alive node, matching the paper's setup).
    """

    name = "aniello-offline"

    def __init__(self, workers_per_topology: Optional[int] = None):
        if workers_per_topology is not None and workers_per_topology < 1:
            raise ValueError("workers_per_topology must be >= 1")
        self.workers_per_topology = workers_per_topology

    def schedule(
        self,
        topologies: Sequence[Topology],
        cluster: Cluster,
        existing: Optional[Mapping[str, Assignment]] = None,
    ) -> Dict[str, Assignment]:
        existing = existing or {}
        slots = interleaved_slots(cluster)
        if not slots:
            raise SchedulingError(
                "no alive worker slots in the cluster",
                unassigned=[t for topo in topologies for t in topo.tasks],
            )
        cursor = 0
        alive = {n.node_id for n in cluster.alive_nodes}
        result: Dict[str, Assignment] = {}
        for topology in topologies:
            self._check_acyclic(topology)
            prior = existing.get(topology.topology_id)
            surviving: Dict[Task, WorkerSlot] = {}
            if prior is not None:
                for task, slot in prior.as_dict().items():
                    if slot.node_id in alive:
                        surviving[task] = slot
            order = ordered_tasks(topology, TaskOrderingStrategy.TOPOLOGICAL)
            missing = [t for t in order if t not in surviving]
            if not missing:
                # Complete: an assignment with every slot alive passes
                # through as the same object.
                if prior is not None and len(surviving) == len(prior):
                    result[topology.topology_id] = prior
                else:
                    result[topology.topology_id] = Assignment(
                        topology.topology_id, surviving
                    )
                continue
            num_workers = self.workers_per_topology or len(cluster.alive_nodes)
            num_workers = max(1, min(num_workers, len(slots)))
            chosen = [
                slots[(cursor + i) % len(slots)] for i in range(num_workers)
            ]
            cursor = (cursor + num_workers) % len(slots)
            mapping = dict(surviving)
            # Deal tasks in linearised order: task i of the linearisation
            # lands on worker i % W, so a producer at position p and its
            # consumer at position p+W collide on the same worker only by
            # accident — but consecutive tasks of *adjacent components*
            # (interleaved ordering) frequently land adjacently.
            for i, task in enumerate(missing):
                mapping[task] = chosen[i % len(chosen)]
            result[topology.topology_id] = Assignment(
                topology.topology_id, mapping
            )
        return result

    @staticmethod
    def _check_acyclic(topology: Topology) -> None:
        """The DEBS'13 offline scheduler only handles acyclic topologies;
        reject cyclic ones explicitly (R-Storm has no such limit)."""
        in_degree = {name: 0 for name in topology.components}
        for _, target, _ in topology.edges():
            in_degree[target] += 1
        queue = [n for n, d in in_degree.items() if d == 0]
        seen = 0
        while queue:
            name = queue.pop()
            seen += 1
            for target in topology.downstream_of(name):
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    queue.append(target)
        if seen != len(in_degree):
            raise TopologyValidationError(
                f"topology {topology.topology_id!r} is cyclic; the Aniello "
                "offline scheduler only supports acyclic topologies"
            )
