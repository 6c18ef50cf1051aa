"""TopologyBuilder — the fluent construction API.

Mirrors Apache Storm's ``TopologyBuilder``/declarer pattern, including the
paper's resource-declaration calls (Section 5.2)::

    builder = TopologyBuilder("word-count")
    spout = builder.set_spout("words", parallelism=10)
    spout.set_memory_load(1024.0).set_cpu_load(50.0)
    counter = builder.set_bolt("count", parallelism=4)
    counter.fields_grouping("words", fields=("word",))
    topology = builder.build()
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import TopologyValidationError
from repro.topology.component import Bolt, Component, ExecutionProfile, Spout
from repro.topology.grouping import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    LocalOrShuffleGrouping,
    ShuffleGrouping,
)
from repro.topology.topology import Topology

__all__ = ["TopologyBuilder", "SpoutDeclarer", "BoltDeclarer"]


class SpoutDeclarer:
    """Fluent handle for configuring a declared spout."""

    def __init__(self, spout: Spout):
        self._spout = spout

    def set_memory_load(self, amount_mb: float) -> "SpoutDeclarer":
        self._spout.set_memory_load(amount_mb)
        return self

    def set_cpu_load(self, amount: float) -> "SpoutDeclarer":
        self._spout.set_cpu_load(amount)
        return self

    def set_bandwidth_load(self, amount_mbps: float) -> "SpoutDeclarer":
        self._spout.set_bandwidth_load(amount_mbps)
        return self

    def set_profile(self, profile: ExecutionProfile) -> "SpoutDeclarer":
        self._spout.set_profile(profile)
        return self

    @property
    def component(self) -> Spout:
        return self._spout


class BoltDeclarer:
    """Fluent handle for configuring a declared bolt and wiring its
    stream subscriptions."""

    def __init__(self, bolt: Bolt):
        self._bolt = bolt

    # -- resource API --------------------------------------------------------

    def set_memory_load(self, amount_mb: float) -> "BoltDeclarer":
        self._bolt.set_memory_load(amount_mb)
        return self

    def set_cpu_load(self, amount: float) -> "BoltDeclarer":
        self._bolt.set_cpu_load(amount)
        return self

    def set_bandwidth_load(self, amount_mbps: float) -> "BoltDeclarer":
        self._bolt.set_bandwidth_load(amount_mbps)
        return self

    def set_profile(self, profile: ExecutionProfile) -> "BoltDeclarer":
        self._bolt.set_profile(profile)
        return self

    # -- grouping API ------------------------------------------------------

    def grouping(self, source: str, grouping: Grouping) -> "BoltDeclarer":
        self._bolt.subscribe(source, grouping)
        return self

    def shuffle_grouping(self, source: str) -> "BoltDeclarer":
        return self.grouping(source, ShuffleGrouping())

    def fields_grouping(
        self, source: str, fields: Tuple[str, ...] = ("key",)
    ) -> "BoltDeclarer":
        return self.grouping(source, FieldsGrouping(tuple(fields)))

    def all_grouping(self, source: str) -> "BoltDeclarer":
        return self.grouping(source, AllGrouping())

    def global_grouping(self, source: str) -> "BoltDeclarer":
        return self.grouping(source, GlobalGrouping())

    def local_or_shuffle_grouping(self, source: str) -> "BoltDeclarer":
        return self.grouping(source, LocalOrShuffleGrouping())

    @property
    def component(self) -> Bolt:
        return self._bolt


class TopologyBuilder:
    """Declare spouts and bolts, then :meth:`build` a validated
    :class:`~repro.topology.topology.Topology`."""

    def __init__(self, topology_id: str):
        if not topology_id:
            raise TopologyValidationError("topology id must be non-empty")
        self.topology_id = topology_id
        self._components: Dict[str, Component] = {}

    def _check_fresh(self, name: str) -> None:
        if name in self._components:
            raise TopologyValidationError(
                f"duplicate component name {name!r} in topology "
                f"{self.topology_id!r}"
            )

    def set_spout(
        self,
        name: str,
        parallelism: int = 1,
        profile: Optional[ExecutionProfile] = None,
    ) -> SpoutDeclarer:
        """Declare a spout with the given parallelism hint."""
        self._check_fresh(name)
        spout = Spout(name, parallelism=parallelism, profile=profile)
        self._components[name] = spout
        return SpoutDeclarer(spout)

    def set_bolt(
        self,
        name: str,
        parallelism: int = 1,
        profile: Optional[ExecutionProfile] = None,
    ) -> BoltDeclarer:
        """Declare a bolt with the given parallelism hint."""
        self._check_fresh(name)
        bolt = Bolt(name, parallelism=parallelism, profile=profile)
        self._components[name] = bolt
        return BoltDeclarer(bolt)

    def build(self) -> Topology:
        """Validate and freeze the declared graph.  The topology holds
        copies of the declared components, so later changes through this
        builder or its declarers never reach it."""
        return Topology(
            self.topology_id,
            {name: comp.clone() for name, comp in self._components.items()},
        )
