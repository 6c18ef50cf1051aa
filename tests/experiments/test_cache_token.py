"""Pinned cache tokens for every work-unit kind.

A unit's cache token decides both its result-cache key and its RNG seed
(``_seed_for``), so it must not drift when the units are refactored.
Each digest below is ``sha256(json(stable_token(unit.cache_token())))``
for one fixed instance per kind.
"""

import hashlib
import json

import pytest

from repro.cluster import ResourceVector, single_rack_cluster
from repro.cluster.builders import emulab_testbed
from repro.experiments.cache import stable_token
from repro.experiments.parallel import (
    ChaosUnit,
    ElasticUnit,
    ScheduleUnit,
    SimulationUnit,
    TenantUnit,
    spec,
)
from repro.faults import FaultSchedule, NodeCrash
from repro.nimbus.tenancy import Tenant
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import linear_topology

CONFIG = SimulationConfig(duration_s=30.0, warmup_s=10.0)
OPEN_LOOP = SimulationConfig(
    duration_s=30.0,
    warmup_s=10.0,
    arrival_process=PoissonArrivals(rate_tps=500.0),
    arrival_seed=3,
)
TOPOLOGIES = (spec(linear_topology, "compute"),)
SMALL_CLUSTER = spec(
    single_rack_cluster,
    3,
    capacity=ResourceVector.of(memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0),
)

UNITS = {
    "sim": SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=TOPOLOGIES,
        cluster=spec(emulab_testbed),
        config=CONFIG,
        interrack_uplink_mbps=250.0,
        trial=2,
        label="ignored",
    ),
    "schedule": ScheduleUnit(
        scheduler=spec(DefaultScheduler),
        topologies=TOPOLOGIES,
        cluster=spec(emulab_testbed),
        trial=1,
    ),
    "chaos": ChaosUnit(
        scheduler=spec(RStormScheduler),
        topologies=TOPOLOGIES,
        cluster=SMALL_CLUSTER,
        config=CONFIG,
        faults=spec(FaultSchedule.of, NodeCrash(at=15.0, node_id="node-0-0")),
        heartbeat_interval_s=2.0,
        scheduling_interval_s=5.0,
        quarantine=True,
    ),
    "elastic": ElasticUnit(
        scheduler=spec(RStormScheduler),
        topologies=TOPOLOGIES,
        cluster=spec(emulab_testbed),
        config=OPEN_LOOP,
        storm=(("nimbus.elastic.enabled", True),),
        trial=1,
    ),
    "tenants": TenantUnit(
        scheduler=spec(RStormScheduler),
        tenants=(Tenant("gold", weight=2.0, priority=1), Tenant("free")),
        submissions=(
            (0, "gold", spec(linear_topology, "compute")),
            (1, "free", spec(linear_topology, "network")),
        ),
        cluster=spec(emulab_testbed, nodes_per_rack=12),
        config=OPEN_LOOP,
        storm=(("nimbus.tenancy.enabled", True),),
        rounds=4,
    ),
}

PINNED = {
    "sim": (
        "41bcbbc345ce51d6f6ffde039c54ddc6"
        "2e62b5eabc4db1ca140c21395240ba44"
    ),
    "schedule": (
        "44518a8c6140f7ddd0b6adbc1037e253"
        "521d19fb321a5d0999c0454e6b069a02"
    ),
    "chaos": (
        "c56826c015e52af7efcb4854ec254904"
        "9f26e18e28e00bcf18c05b7b7e81d4b2"
    ),
    "elastic": (
        "6ca4c23daa456df1ca24b001a607b117"
        "3068588cc681892ee87ca7943253f34a"
    ),
    "tenants": (
        "786c043b92d3ff9b94ea6c0be8778149"
        "f00ca573a04f9a1060961d33df8da0cf"
    ),
}


def _digest(unit) -> str:
    token = json.dumps(stable_token(unit.cache_token()), sort_keys=True)
    return hashlib.sha256(token.encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_cache_token_pinned(kind):
    unit = UNITS[kind]
    assert unit.cache_token()[0] == kind
    assert _digest(unit) == PINNED[kind]


def test_label_excluded_from_token():
    unit = UNITS["sim"]
    relabeled = SimulationUnit(**{**unit.__dict__, "label": "other"})
    assert relabeled.cache_token() == unit.cache_token()
