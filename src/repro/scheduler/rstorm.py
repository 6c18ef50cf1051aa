"""The R-Storm resource-aware scheduler (Algorithms 1, 3 and 4).

Scheduling proceeds in two phases per topology:

1. **Task selection** (Algorithm 3): BFS over components from the spouts,
   tasks interleaved round-robin across components, so communicating
   tasks are adjacent in the ordering.
2. **Node selection** (Algorithm 4): each task goes to the feasible node
   minimising a weighted Euclidean distance in resource space.  The first
   task anchors on the *ref node* — the node with the most available
   resources inside the rack with the most available resources — and
   every subsequent distance includes a network-distance term from the
   ref node, so tasks pack tightly on or around the anchor.

Hard constraints (memory) are never violated: nodes that cannot host a
task's memory demand are filtered out before the distance comparison.
Soft constraints (CPU, bandwidth) may be over-committed; minimising the
squared availability-demand gap simultaneously avoids both waste
(availability far above demand) and heavy over-commit (availability far
below demand).

Node selection is incremental, on the packed flat-array view of the
cluster (:class:`~repro.scheduler.packed.PackedClusterState`).  A node's
distance depends only on its own availability and capacity, the demand
and its network distance from the ref node, and one placement changes
one node's availability.  So once a topology's ref node is known, each
distinct demand tuple among its pending tasks classifies every alive
node once (hard-infeasible, uncommitted, or over-committing), computes
its distance once and keeps two lazy min-heaps of
``(distance, node id, index, version)``; after each placement only the
placed node is re-classified and re-pushed, and entries whose version is
not the node's current one are dropped when they reach a heap's head.
A topology costs O(distinct demands x nodes + tasks x log nodes) instead
of O(tasks x nodes).  The arithmetic performs bit-identical operations
in the same order as the per-vector formulation (kept as
:meth:`RStormScheduler.distance` and verified by the differential suite
in ``tests/scheduler/test_differential.py``), and the heap order
``(distance, node id)`` is the paper's minimum with ties broken by node
id, so assignments are byte-identical to the unpacked implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.resources import BANDWIDTH, ResourceSchema, ResourceVector
from repro.errors import SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, needs_scheduling
from repro.scheduler.global_state import GlobalState
from repro.scheduler.ordering import TaskOrderingStrategy, ordered_tasks
from repro.scheduler.packed import PackedClusterState
from repro.topology.task import Task
from repro.topology.topology import Topology

__all__ = ["DistanceWeights", "RStormScheduler"]

#: A node-selection heap entry: ``(distance, node id, index, version)``.
_Entry = Tuple[float, str, int, int]


@dataclass(frozen=True)
class DistanceWeights:
    """Weights of the node-selection distance (the paper's ``weight_m``,
    ``weight_c``, ``weight_b``).

    ``network`` weights the network-distance term that stands in for the
    bandwidth dimension; ``memory`` and ``cpu`` weight the squared
    availability-demand gaps.  With capacity-normalised gaps the defaults
    put all three terms on a comparable scale.
    """

    memory: float = 0.5
    cpu: float = 1.0
    network: float = 1.0

    def __post_init__(self) -> None:
        for name in ("memory", "cpu", "network"):
            if getattr(self, name) < 0:
                raise ValueError(f"distance weight {name!r} must be >= 0")


class RStormScheduler(IScheduler):
    """Resource-aware scheduler from the paper.

    Args:
        weights: Distance weights (see :class:`DistanceWeights`).
        ordering: Component linearisation strategy (BFS is the paper's;
            DFS/TOPOLOGICAL exist for ablations).
        normalise_gaps: Divide availability-demand gaps by node capacity
            before squaring, so megabytes and CPU points are comparable.
            Disabling this reproduces the naive unnormalised distance.
        use_network_distance: Include the ref-node network-distance term.
            Disabling it ablates the paper's locality optimisation.
        prefer_no_overcommit: Prefer nodes whose *soft* availability also
            covers the demand, over-committing soft resources only when no
            such node exists.  This mirrors how the production
            Resource-Aware Scheduler fills nodes to (not past) capacity
            while retaining the paper's soft-constraint semantics — soft
            budgets can still be exceeded when the cluster is tight.
        best_effort: If True, tasks with no feasible node are left
            unassigned (partial assignment) instead of raising
            :class:`~repro.errors.SchedulingError`.
    """

    name = "r-storm"

    def __init__(
        self,
        weights: DistanceWeights = DistanceWeights(),
        ordering: TaskOrderingStrategy = TaskOrderingStrategy.BFS,
        normalise_gaps: bool = True,
        use_network_distance: bool = True,
        prefer_no_overcommit: bool = True,
        best_effort: bool = False,
    ):
        self.weights = weights
        self.ordering = ordering
        self.normalise_gaps = normalise_gaps
        self.use_network_distance = use_network_distance
        self.prefer_no_overcommit = prefer_no_overcommit
        self.best_effort = best_effort
        #: (schema, weights) -> ((dim index, weight), ...) over the
        #: non-bandwidth dimensions, hoisted out of the distance loop.
        self._dim_weight_cache: Dict[
            Tuple[ResourceSchema, DistanceWeights],
            Tuple[Tuple[int, float], ...],
        ] = {}

    # -- IScheduler ---------------------------------------------------------

    def schedule(
        self,
        topologies: Sequence[Topology],
        cluster: Cluster,
        existing: Optional[Mapping[str, Assignment]] = None,
    ) -> Dict[str, Assignment]:
        existing = existing or {}
        needs = needs_scheduling(topologies, cluster, existing)
        state = GlobalState.from_assignments(cluster, needs, existing)
        result: Dict[str, Assignment] = {}
        placed: List[Task] = []
        try:
            for topology in topologies:
                topology_id = topology.topology_id
                if topology_id not in needs:
                    result[topology_id] = existing[topology_id]
                    continue
                placed += self._schedule_topology(topology, cluster, state)
                result[topology_id] = state.assignment_for(topology_id)
        except SchedulingError:
            # The failing topology has undone its own placements.  Nimbus
            # adopts nothing from a failed round, so undo the earlier
            # topologies' too, or their reservations would outlive it.
            for task in placed:
                state.unplace(task)
            raise
        return result

    # -- per-topology scheduling ----------------------------------------------

    def _schedule_topology(
        self, topology: Topology, cluster: Cluster, state: GlobalState
    ) -> List[Task]:
        """Place ``topology``'s unplaced tasks and return them."""
        pending = [
            task
            for task in ordered_tasks(topology, self.ordering)
            if not state.is_placed(task)
        ]
        if not pending:
            return []
        ref_node = self._initial_ref_node(topology, cluster, state)
        placed: List[Task] = []
        try:
            self._place_pending(topology, state, pending, ref_node, placed)
        except SchedulingError:
            # Assignment is atomic per topology (paper Section 4.1): undo
            # this topology's partial placements before propagating.
            for task in placed:
                state.unplace(task)
            raise
        return placed

    def _place_pending(
        self,
        topology: Topology,
        state: GlobalState,
        pending: List[Task],
        ref_node: Optional[Node],
        placed: List[Task],
    ) -> None:
        """Greedy node selection (Algorithm 4) over the packed cluster
        view, one lazy min-heap pair per distinct demand tuple."""
        view = state.packed
        demand_of: Dict[str, ResourceVector] = {}
        for task in pending:
            component = task.component
            if component not in demand_of:
                demand = topology.task_demand(task)
                view.check_schema(demand)
                demand_of[component] = demand

        avail = view.avail
        caps = view.caps
        nodes = view.nodes
        node_ids = view.node_ids
        hard = view.hard_dims
        dims = range(view.num_dims)
        indices = range(len(nodes))
        prefer = self.prefer_no_overcommit
        dim_weights = self._dim_weights(view.schema)
        w_net = self.weights.network
        use_net = self.use_network_distance
        normalise = self.normalise_gaps
        sqrt = math.sqrt
        topology_id = topology.topology_id
        net_row: List[float] = []
        #: Bumped on every placement; a heap entry is live only while
        #: its version is its node's current one.
        version = [0] * len(nodes)
        #: demand tuple -> (uncommitted heap, over-committing heap) of
        #: ``(distance, node id, index, version)`` entries.
        heaps: Dict[
            Tuple[float, ...], Tuple[List[_Entry], List[_Entry]]
        ] = {}

        def tier(i: int, dvals: Tuple[float, ...]) -> Optional[int]:
            """0 if node ``i``'s availability covers the demand in every
            dimension, 1 if only in the hard ones (or over-commit is not
            avoided), None if it violates a hard constraint."""
            for d in hard:
                if avail[d][i] < dvals[d]:
                    return None
            if prefer:
                for d in dims:
                    if avail[d][i] < dvals[d]:
                        return 1
                return 0
            return 1

        def entry(i: int, dvals: Tuple[float, ...]) -> _Entry:
            """The Distance procedure of Algorithm 4 for node ``i``."""
            total = 0.0
            for d, w in dim_weights:
                gap = avail[d][i] - dvals[d]
                if normalise:
                    cap = caps[d][i]
                    gap = gap / cap if cap > 0 else 0.0
                total += w * gap * gap
            if use_net:
                total += w_net * net_row[i]
            dist = sqrt(total if total > 0.0 else 0.0)
            return (dist, node_ids[i], i, version[i])

        for task in pending:
            demand = demand_of[task.component]
            dvals = demand.values
            best_i: Optional[int] = None
            if ref_node is None:
                pools: Tuple[List[int], List[int]] = ([], [])
                for i in indices:
                    level = tier(i, dvals)
                    if level is not None:
                        pools[level].append(i)
                pool = pools[0] or pools[1]
                if pool:
                    best_i = self._find_ref_index(view, pool)
            else:
                pair = heaps.get(dvals)
                if pair is None:
                    if not net_row:
                        net_row = view.dist_row(ref_node.node_id)
                    pair = ([], [])
                    for i in indices:
                        level = tier(i, dvals)
                        if level is not None:
                            pair[level].append(entry(i, dvals))
                    heapify(pair[0])
                    heapify(pair[1])
                    heaps[dvals] = pair
                for heap in pair:
                    while heap and heap[0][3] != version[heap[0][2]]:
                        heappop(heap)
                    if heap:
                        best_i = heap[0][2]
                        break
            if best_i is None:
                if self.best_effort:
                    continue
                raise SchedulingError(
                    f"no feasible node for task {task} "
                    f"(demand {demand!r}): every alive node violates a "
                    f"hard constraint",
                    unassigned=[
                        t for t in pending if not state.is_placed(t)
                    ],
                )
            node = nodes[best_i]
            if ref_node is None:
                ref_node = node
            slot = state.slot_for_topology_on_node(topology_id, node)
            state.place(task, slot, demand)
            placed.append(task)
            # Only the placed node's availability changed: re-file it
            # under every demand tuple seen so far.
            version[best_i] += 1
            for dv, pair in heaps.items():
                level = tier(best_i, dv)
                if level is not None:
                    heappush(pair[level], entry(best_i, dv))

    def _initial_ref_node(
        self, topology: Topology, cluster: Cluster, state: GlobalState
    ) -> Optional[Node]:
        """Resume anchoring for partially-scheduled topologies: the node
        already hosting the most of this topology's tasks.  Fresh
        topologies anchor lazily via :meth:`_find_ref_index` once the
        first task's feasible set is known."""
        counts: Dict[str, int] = {}
        for task in state.placed_tasks(topology.topology_id):
            node_id = state.node_of(task)
            if node_id is not None:
                counts[node_id] = counts.get(node_id, 0) + 1
        if not counts:
            return None
        best = max(sorted(counts), key=lambda n: counts[n])
        return cluster.node(best)

    # -- node selection (Algorithm 4) -----------------------------------------

    def _dim_weights(
        self, schema: Optional[ResourceSchema]
    ) -> Tuple[Tuple[int, float], ...]:
        """``(dimension index, weight)`` pairs over the non-bandwidth
        dimensions in schema order, computed once per (schema, weights).
        The lookup hashes the schema, so callers hoist it out of their
        per-node loops."""
        if schema is None:
            return ()
        key = (schema, self.weights)
        cached = self._dim_weight_cache.get(key)
        if cached is None:
            overrides = {
                "memory_mb": self.weights.memory,
                "cpu": self.weights.cpu,
            }
            cached = tuple(
                (d, overrides.get(dim.name, dim.default_weight))
                for d, dim in enumerate(schema.dimensions)
                if dim.name != BANDWIDTH
            )
            self._dim_weight_cache[key] = cached
        return cached

    @staticmethod
    def _find_ref_index(view: PackedClusterState, pool: List[int]) -> int:
        """The paper's lines 6-9 on the packed view: the most-available
        node inside the most-available rack (restricted to the feasible
        pool).

        "Most resources" compares absolute availability, with each
        dimension scaled by the cluster-wide maximum capacity so a
        megabyte-dominated sum does not drown the CPU dimension, and a
        big empty machine outranks a small empty one.  Node scores are
        cached on the view and invalidated incrementally on placement.

        ``pool`` is non-empty and every index in it lies in one rack
        row: :class:`Cluster` registers a node only together with its
        rack (``add_rack``/``add_node``) and ``remove_node`` drops it
        from both, so the search always finds a node.
        """
        scores = view.scores
        node_ids = view.node_ids
        racks = sorted(
            view.rack_rows,
            key=lambda row: (-sum(scores[i] for i in row[1]), row[0]),
        )
        rack_rank = {i: rank for rank, (_, row) in enumerate(racks) for i in row}
        return min(
            pool, key=lambda i: (rack_rank[i], -scores[i], node_ids[i])
        )

    def distance(
        self, node: Node, demand: ResourceVector, net_distance: float
    ) -> float:
        """The Distance procedure of Algorithm 4 — reference (unpacked)
        formulation.

        ``sqrt(w_m * gap_mem^2 + w_c * gap_cpu^2 + w_b * netdist(ref, node))``
        with gaps optionally normalised by node capacity.  Generalised
        schemas contribute every non-bandwidth dimension, weighted by the
        dimension's default weight (memory/cpu weights override the
        standard dimensions).

        The scheduling hot path (:meth:`_place_pending`) performs these
        operations in the same order over the packed arrays; this method
        remains the executable specification and the two are held
        identical by the differential test suite.

        Args:
            node: Candidate node (already hard-constraint feasible).
            demand: The task's declared demand vector.
            net_distance: Abstract network distance from the ref node to
                ``node`` (see :meth:`Cluster.node_distance`).
        """
        schema = node.available.schema
        if self.normalise_gaps:
            gaps = node.available.normalised_gap(demand, node.capacity)
        else:
            gaps = node.available.gap(demand)
        total = 0.0
        for dim in schema:
            if dim.name == BANDWIDTH:
                continue  # replaced by the network-distance term
            weight = {
                "memory_mb": self.weights.memory,
                "cpu": self.weights.cpu,
            }.get(dim.name, dim.default_weight)
            gap = gaps[dim.name]
            total += weight * gap * gap
        if self.use_network_distance:
            total += self.weights.network * net_distance
        return math.sqrt(max(0.0, total))
