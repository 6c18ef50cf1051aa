"""The paper's R^n generalisation: scheduling with a custom resource
schema (here: a hard GPU dimension alongside memory/CPU/bandwidth)."""

import pytest

from repro.cluster import Cluster, Node, Rack
from repro.cluster.resources import (
    ConstraintKind,
    ResourceDimension,
    ResourceSchema,
    ResourceVector,
)
from repro.errors import SchedulingError
from repro.nimbus.config import StormConfig
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.tenancy import TenancyController, Tenant
from repro.scheduler.quality import aggregate_node_load
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.builder import TopologyBuilder


@pytest.fixture
def gpu_schema():
    return ResourceSchema(
        [
            ResourceDimension("memory_mb", ConstraintKind.HARD, "MB"),
            ResourceDimension("cpu", ConstraintKind.SOFT, "points"),
            ResourceDimension("bandwidth_mbps", ConstraintKind.SOFT, "Mbps"),
            ResourceDimension("gpu", ConstraintKind.HARD, "devices"),
        ]
    )


@pytest.fixture
def gpu_cluster(gpu_schema):
    """Two GPU machines and two CPU-only machines in one rack."""
    nodes = []
    for i in range(2):
        nodes.append(
            Node(
                f"gpu-{i}",
                "rack-0",
                gpu_schema.vector(
                    memory_mb=4096, cpu=200, bandwidth_mbps=100, gpu=2
                ),
            )
        )
    for i in range(2):
        nodes.append(
            Node(
                f"cpu-{i}",
                "rack-0",
                gpu_schema.vector(
                    memory_mb=4096, cpu=200, bandwidth_mbps=100, gpu=0
                ),
            )
        )
    return Cluster([Rack("rack-0", nodes)])


def gpu_topology(gpu_schema, inference_gpus=1.0, inference_parallelism=2):
    builder = TopologyBuilder("ml-pipeline")
    spout = builder.set_spout("frames", 2)
    spout.component.set_resource_demand(
        gpu_schema.vector(memory_mb=512, cpu=25)
    )
    infer = builder.set_bolt("inference", inference_parallelism)
    infer.shuffle_grouping("frames")
    infer.component.set_resource_demand(
        gpu_schema.vector(memory_mb=1024, cpu=50, gpu=inference_gpus)
    )
    sink = builder.set_bolt("sink", 2)
    sink.shuffle_grouping("inference")
    sink.component.set_resource_demand(
        gpu_schema.vector(memory_mb=256, cpu=10)
    )
    return builder.build()


class TestGpuScheduling:
    def test_gpu_tasks_land_on_gpu_nodes(self, gpu_schema, gpu_cluster):
        topology = gpu_topology(gpu_schema)
        assignment = RStormScheduler().schedule([topology], gpu_cluster)[
            "ml-pipeline"
        ]
        assert assignment.is_complete(topology)
        for task in topology.tasks_of("inference"):
            assert assignment.node_of(task).startswith("gpu-")

    def test_gpu_budget_never_exceeded(self, gpu_schema, gpu_cluster):
        topology = gpu_topology(gpu_schema, inference_gpus=1.0,
                                inference_parallelism=4)
        assignment = RStormScheduler().schedule([topology], gpu_cluster)[
            "ml-pipeline"
        ]
        load = aggregate_node_load([(topology, assignment)])
        for node_id, demand in load.items():
            node = gpu_cluster.node(node_id)
            assert demand["gpu"] <= node.capacity["gpu"] + 1e-9

    def test_infeasible_gpu_demand_raises(self, gpu_schema, gpu_cluster):
        # 5 inference tasks x 1 GPU > the cluster's 4 GPUs
        topology = gpu_topology(gpu_schema, inference_parallelism=5)
        with pytest.raises(SchedulingError):
            RStormScheduler().schedule([topology], gpu_cluster)

    def test_non_gpu_tasks_fill_cpu_nodes_too(self, gpu_schema, gpu_cluster):
        topology = gpu_topology(gpu_schema)
        assignment = RStormScheduler().schedule([topology], gpu_cluster)[
            "ml-pipeline"
        ]
        # declared CPU totals push some non-GPU tasks onto the CPU nodes
        # or pack near the GPU anchor; either way every task is placed
        # without violating any hard dimension
        load = aggregate_node_load([(topology, assignment)])
        for node_id, demand in load.items():
            node = gpu_cluster.node(node_id)
            for dim in gpu_schema.hard_names:
                assert demand[dim] <= node.capacity[dim] + 1e-9

    def test_resident_memory_reads_custom_demand(self, gpu_schema):
        topology = gpu_topology(gpu_schema)
        inference = topology.component("inference")
        assert inference.resident_memory_mb == 1024.0


class TestGpuAdmission:
    """Weighted-DRF admission sums each topology's demand in its own
    schema, so a GPU topology goes through a tenancy-enabled round."""

    def test_total_demand_is_the_per_component_sum(self, gpu_schema):
        topology = gpu_topology(gpu_schema)
        # frames 2 x (512 MB, 25 cpu), inference 2 x (1024 MB, 50 cpu,
        # 1 gpu), sink 2 x (256 MB, 10 cpu)
        assert topology.total_demand() == gpu_schema.vector(
            memory_mb=3584, cpu=170, gpu=2
        )

    def test_tenancy_round_admits_and_places(self, gpu_schema, gpu_cluster):
        nimbus = Nimbus(
            gpu_cluster,
            scheduler=RStormScheduler(),
            config=StormConfig({"nimbus.tenancy.enabled": True}),
        )
        tenancy = TenancyController(nimbus)
        tenancy.register_tenant(Tenant("ml"))
        topology = gpu_topology(gpu_schema)
        tenancy.submit(topology, "ml")
        nimbus.schedule_round()
        assert tenancy.round_records[-1].admitted == ("ml-pipeline",)
        assignment = nimbus.assignments["ml-pipeline"]
        assert assignment.is_complete(topology)
        for task in topology.tasks_of("inference"):
            assert assignment.node_of(task).startswith("gpu-")
