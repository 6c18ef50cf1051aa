"""Nimbus rounds under topology churn with admission on.

A seeded stream kills and submits topologies on a 64-node, two-rack
cluster filled to its admission limit, so weighted-DRF admission admits,
defers and evicts.  A round schedules only the topologies that need it
and trusts the reservations the nodes kept from the round before, so the
round's bookkeeping is checked after each one against the from-scratch
rebuild: a node's reservations are exactly the demands placed on it (so
every reservation belongs to a live placement), a full
``GlobalState.from_assignments`` over every live topology reserves
nothing, every admitted topology is fully placed, and a killed
topology's reservations are all gone.  The final placements and
admission records are pinned by digest, so any change to the rebuild,
the per-topology placement index or the admission demand sums that
moves a single task or decision fails here.
"""

import hashlib
import json
import random

from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import ResourceVector
from repro.nimbus.config import StormConfig
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.tenancy import TenancyController, Tenant
from repro.scheduler.global_state import GlobalState
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.task import task_label
from repro.workloads.micro import (
    diamond_topology,
    linear_topology,
    star_topology,
)
from repro.workloads.yahoo import pageload_topology, processing_topology

SEED = 11
FILL = (14, 14, 14)
ROUNDS = 20
CHURN = 2
TENANTS = (("gold", 3.0, 2), ("silver", 2.0, 1), ("free", 1.0, 0))

#: sha256 of the final assignments and every round's admission record.
DIGEST = "18b9c49d65e6dbbc67daed0d58b5ab08248c6698f47a48c7f6e55810688e2eea"


def churn_topology(rng, count):
    kind = rng.choice(("pageload", "processing", "linear", "diamond", "star"))
    parallelism = rng.choice((12, 16, 20))
    name = f"{kind}-{count}"
    if kind == "pageload":
        return pageload_topology(name)
    if kind == "processing":
        return processing_topology(name)
    if kind == "linear":
        return linear_topology("compute", parallelism=parallelism, name=name)
    if kind == "diamond":
        return diamond_topology(
            "compute", branches=3, parallelism=parallelism, name=name
        )
    return star_topology(
        "compute", arms=3, arm_parallelism=parallelism, name=name
    )


def check_killed(nimbus, topology_id):
    prefix = f"{topology_id}:"
    for node in nimbus.cluster.nodes:
        assert not any(
            label.startswith(prefix) for label in node.reservations
        ), (topology_id, node.node_id)


def check_round(nimbus):
    reserved = {node.node_id: node.reservations for node in nimbus.cluster.nodes}
    GlobalState.from_assignments(
        nimbus.cluster,
        {t.topology_id: t for t in nimbus.topologies},
        nimbus.assignments,
    )
    for node in nimbus.cluster.nodes:
        assert node.reservations == reserved[node.node_id], node.node_id
    placed = {}
    for topology in nimbus.topologies:
        assignment = nimbus.assignments.get(topology.topology_id)
        assert assignment is not None and assignment.is_complete(topology), (
            topology.topology_id
        )
        for task in assignment.tasks:
            placed.setdefault(assignment.node_of(task), {})[
                task_label(task)
            ] = topology.task_demand(task)
    for node in nimbus.cluster.nodes:
        expected = placed.get(node.node_id, {})
        assert node.reservations == expected, node.node_id
        used = node.capacity - node.available
        total = node.schema.zero()
        for demand in expected.values():
            total = total + demand
        for dim in node.schema.names:
            assert abs(used[dim] - total[dim]) <= 1e-6, (node.node_id, dim)


def test_churn_rounds_keep_reservations_and_outputs():
    cluster = uniform_cluster(
        nodes_per_rack=32,
        racks=2,
        capacity=ResourceVector.of(
            memory_mb=16_384.0, cpu=800.0, bandwidth_mbps=1_000.0
        ),
    )
    nimbus = Nimbus(
        cluster,
        scheduler=RStormScheduler(),
        config=StormConfig({"nimbus.tenancy.enabled": True}),
    )
    tenancy = TenancyController(nimbus)
    for tenant_id, weight, priority in TENANTS:
        tenancy.register_tenant(Tenant(tenant_id, weight, priority))
    rng = random.Random(SEED)
    count = 0

    def submit(n):
        nonlocal count
        for _ in range(n):
            count += 1
            tenant = rng.choice(TENANTS)[0]
            tenancy.submit(churn_topology(rng, count), tenant)

    now = 0.0
    for n in FILL:
        submit(n)
        nimbus.schedule_round(now)
        check_round(nimbus)
        now += 10.0
    for _ in range(ROUNDS):
        live = sorted(nimbus.assignments)
        for topology_id in rng.sample(live, min(CHURN, len(live))):
            nimbus.kill_topology(topology_id)
            check_killed(nimbus, topology_id)
        submit(CHURN)
        nimbus.schedule_round(now)
        check_round(nimbus)
        now += 10.0

    rows = [
        [tid, task.task_id, assignment.node_of(task),
         assignment.slot_of(task).port]
        for tid, assignment in sorted(nimbus.assignments.items())
        for task in assignment.tasks
    ]
    records = [
        [list(r.admitted), list(r.deferred), list(r.evicted)]
        for r in tenancy.round_records
    ]
    blob = json.dumps([rows, records], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
