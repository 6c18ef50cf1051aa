"""Parallel, cached execution of experiment work units.

The figure experiments decompose into independent *work units* — one
(scheduler, topology set, cluster, config, trial) combination each.
Units are declarative and picklable: they carry :class:`FactorySpec`
recipes (module-level callable + arguments) rather than live clusters or
topologies, so they can cross process boundaries and hash into stable
cache keys (:mod:`repro.experiments.cache`).

Three unit kinds cover the whole suite:

* :class:`SimulationUnit` — schedule then run the discrete-event
  simulator; returns a
  :class:`~repro.experiments.harness.SingleRunOutcome` (figs 8–13,
  ablations, weight sweep).
* :class:`ScheduleUnit` — schedule only, evaluate placement quality and
  the analytical flow-model prediction; returns a
  :class:`ScheduleOutcome` (scalability, scheduling overhead — the DES
  would take minutes per point at those scales).
* :class:`ChaosUnit` — a full coordination-plane run (ZooKeeper,
  supervisors, heartbeat failure detector, periodic Nimbus rescheduling)
  with a deterministic fault schedule injected; returns a
  :class:`ChaosOutcome` with per-topology recovery reports
  (``repro chaos``, the failure-recovery comparison).

:func:`run_units` executes a batch: cache hits return instantly, misses
fan out over a :class:`concurrent.futures.ProcessPoolExecutor` when
``jobs > 1`` (or run inline otherwise), and fresh results are written
back to the cache.  Each unit's execution deterministically seeds the
global :mod:`random` state from its cache key, so any stochastic
component behaves identically in-process, in a worker and on replay —
the contract the determinism regression tests pin down.

:class:`ExperimentContext` bundles the ``jobs``/cache policy and is what
the CLI threads into every experiment's ``run(..., context=...)``.
"""

from __future__ import annotations

import concurrent.futures
import random
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.analysis.flow import FlowModel
from repro.errors import ConfigError, SchedulingError
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.harness import SingleRunOutcome, run_scheduled
from repro.faults.chaos import ChaosGenerator
from repro.faults.injector import FaultInjector
from repro.faults.monitor import RecoveryMonitor, RecoveryReport
from repro.faults.schedule import FaultSchedule
from repro.nimbus.config import StormConfig
from repro.nimbus.elastic import ElasticController, ElasticDecision
from repro.nimbus.failure_detector import HeartbeatFailureDetector
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.supervisor import Supervisor
from repro.nimbus.tenancy import (
    AdmissionRoundRecord,
    TenancyController,
    Tenant,
)
from repro.nimbus.zookeeper import InMemoryZooKeeper
from repro.scheduler.admission import AdmissionDecision
from repro.scheduler.assignment import Assignment
from repro.scheduler.quality import ScheduleQuality, evaluate_assignment
from repro.simulation.config import SimulationConfig
from repro.simulation.report import SimulationReport
from repro.simulation.runtime import SimulationRun

__all__ = [
    "FactorySpec",
    "spec",
    "SimulationUnit",
    "ScheduleUnit",
    "ScheduleOutcome",
    "ChaosUnit",
    "ChaosOutcome",
    "ElasticUnit",
    "ElasticOutcome",
    "TenantUnit",
    "TenantOutcome",
    "run_units",
    "ExperimentContext",
]


@dataclass(frozen=True)
class FactorySpec:
    """A picklable recipe for building one object.

    ``fn`` must be an importable module-level callable (class or
    function); ``args``/``kwargs`` must be stable-tokenisable (see
    :func:`repro.experiments.cache.stable_token`).  Keeping recipes
    instead of instances is what lets units cross process boundaries and
    hash deterministically.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> Any:
        return self.fn(*self.args, **dict(self.kwargs))


def spec(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> FactorySpec:
    """Convenience constructor: ``spec(micro_topology, "linear", "compute")``."""
    return FactorySpec(fn, args, tuple(sorted(kwargs.items())))


def _seed_for(unit: Any) -> int:
    """Deterministic per-unit RNG seed derived from the cache key.

    Uses ``cache_token()`` (not the dataclass itself) so presentational
    fields like ``label`` cannot perturb the seed.
    """
    return int(cache_key(unit.cache_token())[:16], 16)


class _WorkUnit:
    """Base of every unit kind: the cache token is the unit's ``KIND``
    followed by each field that takes part in equality, in declaration
    order — so presentational fields (``compare=False``, e.g. ``label``)
    reach neither a cache key nor an RNG seed."""

    KIND: ClassVar[str]

    def cache_token(self) -> Any:
        return (self.KIND,) + tuple(
            getattr(self, f.name) for f in fields(self) if f.compare
        )


@dataclass(frozen=True)
class SimulationUnit(_WorkUnit):
    """One (scheduler, topology set, cluster, config, trial) DES run.

    ``trial`` distinguishes repeats of otherwise-identical work (each
    gets its own cache entry and RNG seed); ``label`` is presentational
    only and deliberately excluded from the cache key, so identical work
    shared between experiments (fig9 and fig10 simulate the exact same
    runs) hits the same entry.
    """

    KIND: ClassVar[str] = "sim"

    scheduler: FactorySpec
    topologies: Tuple[FactorySpec, ...]
    cluster: FactorySpec
    config: SimulationConfig
    interrack_uplink_mbps: Optional[float] = None
    trial: int = 0
    label: str = field(default="", compare=False)

    def execute(self) -> SingleRunOutcome:
        random.seed(_seed_for(self))
        return run_scheduled(
            self.scheduler.build(),
            [t.build() for t in self.topologies],
            self.cluster.build(),
            self.config,
            interrack_uplink_mbps=self.interrack_uplink_mbps,
        )


@dataclass(frozen=True)
class ScheduleOutcome:
    """Everything measured for one schedule-only unit."""

    scheduler: str
    assignments: Dict[str, Assignment]
    qualities: Dict[str, ScheduleQuality]
    scheduling_latency_s: float
    #: flow-model steady-state prediction, tuples/s per topology
    predicted_tps: Dict[str, float]


@dataclass(frozen=True)
class ScheduleUnit(_WorkUnit):
    """Schedule + evaluate + flow-model predict, without the DES.

    Used where simulation is unnecessary or unaffordable: the
    scheduling-overhead benchmark (latency only) and the scalability
    sweep (analytical throughput on clusters the DES would chew minutes
    on).  Cached latency figures are wall-clock measurements from the
    run that produced the entry.
    """

    KIND: ClassVar[str] = "schedule"

    scheduler: FactorySpec
    topologies: Tuple[FactorySpec, ...]
    cluster: FactorySpec
    config: Optional[SimulationConfig] = None
    interrack_uplink_mbps: Optional[float] = None
    trial: int = 0
    label: str = field(default="", compare=False)

    def execute(self) -> ScheduleOutcome:
        random.seed(_seed_for(self))
        scheduler = self.scheduler.build()
        topologies = [t.build() for t in self.topologies]
        cluster = self.cluster.build()
        round_info = scheduler.run(topologies, cluster)
        assignments = round_info.assignments
        placements = [
            (t, assignments[t.topology_id]) for t in topologies
        ]
        qualities = {}
        for topology in topologies:
            others = {
                t.topology_id: (t, assignments[t.topology_id])
                for t in topologies
                if t.topology_id != topology.topology_id
            }
            qualities[topology.topology_id] = evaluate_assignment(
                topology, assignments[topology.topology_id], cluster, others
            )
        flow = FlowModel(
            cluster,
            self.config,
            interrack_uplink_mbps=self.interrack_uplink_mbps,
        ).solve(placements)
        return ScheduleOutcome(
            scheduler=scheduler.name,
            assignments=assignments,
            qualities=qualities,
            scheduling_latency_s=round_info.duration_s,
            predicted_tps=dict(flow.topology_throughput_tps),
        )


@dataclass(frozen=True)
class ChaosOutcome:
    """Everything measured for one fault-injected coordination-plane run."""

    scheduler: str
    report: SimulationReport
    #: final (post-recovery) assignments, per topology
    assignments: Dict[str, Assignment]
    #: per-topology recovery metrics distilled from the causal trace
    recovery: Dict[str, RecoveryReport]
    #: ``(simulated time, description)`` of every fault actually injected
    injected: Tuple[Tuple[float, str], ...]
    #: ``(simulated time, error)`` of every infeasible scheduling round
    scheduling_failures: Tuple[Tuple[float, str], ...]
    #: ``(simulated time, node id)`` of every Nimbus quarantine decision
    quarantined: Tuple[Tuple[float, str], ...] = ()


@dataclass(frozen=True)
class ChaosUnit(_WorkUnit):
    """One fault-injected run of the full coordination plane.

    Unlike :class:`SimulationUnit`, which simulates a fixed placement,
    a chaos unit stands up ZooKeeper, one supervisor per node, a
    heartbeat failure detector and a periodically-rescheduling Nimbus,
    then injects a :class:`~repro.faults.schedule.FaultSchedule` and
    measures detection, rescheduling and throughput recovery.

    ``faults`` is a :class:`FactorySpec` whose built object may be:

    * a :class:`~repro.faults.schedule.FaultSchedule` — used as-is;
    * a :class:`~repro.faults.chaos.ChaosGenerator` — sampled against
      the built cluster;
    * any callable ``(cluster, assignments) -> FaultSchedule`` —
      placement-aware scenarios ("crash the busiest node") that can
      only be resolved after the initial scheduling round.

    All three are deterministic functions of the unit's fields, which is
    what keeps chaos outcomes cacheable.
    """

    KIND: ClassVar[str] = "chaos"

    scheduler: FactorySpec
    topologies: Tuple[FactorySpec, ...]
    cluster: FactorySpec
    config: SimulationConfig
    faults: FactorySpec
    heartbeat_interval_s: float = 3.0
    heartbeat_timeout_s: float = 10.0
    scheduling_interval_s: float = 10.0
    interrack_uplink_mbps: Optional[float] = None
    #: enable Nimbus flap-tracking/quarantine for this run
    quarantine: bool = False
    trial: int = 0
    label: str = field(default="", compare=False)

    def _resolve_faults(self, cluster, assignments) -> FaultSchedule:
        built = self.faults.build()
        if isinstance(built, FaultSchedule):
            return built
        if isinstance(built, ChaosGenerator):
            return built.generate(cluster)
        if callable(built):
            schedule = built(cluster, assignments)
            if not isinstance(schedule, FaultSchedule):
                raise ConfigError(
                    "fault scenario callable must return a FaultSchedule, "
                    f"got {type(schedule).__name__}"
                )
            return schedule
        raise ConfigError(
            "faults spec must build a FaultSchedule, a ChaosGenerator or "
            f"a scenario callable, got {type(built).__name__}"
        )

    def execute(self) -> ChaosOutcome:
        random.seed(_seed_for(self))
        scheduler = self.scheduler.build()
        topologies = [t.build() for t in self.topologies]
        cluster = self.cluster.build()

        zk = InMemoryZooKeeper()
        config = (
            StormConfig({"nimbus.quarantine.enabled": True})
            if self.quarantine
            else None
        )
        nimbus = Nimbus(cluster, scheduler=scheduler, zk=zk, config=config)
        supervisors = []
        for node in cluster.nodes:
            supervisor = Supervisor(node, zk)
            nimbus.register_supervisor(supervisor)
            supervisors.append(supervisor)
        for topology in topologies:
            nimbus.submit_topology(topology)
        nimbus.schedule_round()

        run = SimulationRun(
            cluster,
            [(t, nimbus.assignments[t.topology_id]) for t in topologies],
            self.config,
            interrack_uplink_mbps=self.interrack_uplink_mbps,
        )
        detector = HeartbeatFailureDetector(
            supervisors,
            heartbeat_interval_s=self.heartbeat_interval_s,
            timeout_s=self.heartbeat_timeout_s,
        )
        monitor = RecoveryMonitor()
        monitor.attach(run, detector=detector, nimbus=nimbus)
        detector.attach(run)
        nimbus.attach(run, interval_s=self.scheduling_interval_s)
        schedule = self._resolve_faults(cluster, dict(nimbus.assignments))
        injector = FaultInjector(
            schedule, detector=detector, tracer=monitor.tracer
        )
        injector.attach(run)

        report = run.run()
        recovery = {
            t.topology_id: monitor.report(t.topology_id, report)
            for t in topologies
        }
        return ChaosOutcome(
            scheduler=scheduler.name,
            report=report,
            assignments=dict(nimbus.assignments),
            recovery=recovery,
            injected=tuple(
                (time, event.describe()) for time, event in injector.injected
            ),
            scheduling_failures=tuple(nimbus.scheduling_failures),
            quarantined=tuple(nimbus.quarantine_events),
        )


@dataclass(frozen=True)
class ElasticOutcome:
    """Everything measured for one elastic-runtime run."""

    scheduler: str
    report: SimulationReport
    #: final (post-rescale) assignments, per topology
    assignments: Dict[str, Assignment]
    #: per-topology churn accounting distilled from the causal trace
    #: (fault- vs elastic-driven moves split by the monitor)
    recovery: Dict[str, RecoveryReport]
    #: every committed control action, in decision order
    decisions: Tuple[ElasticDecision, ...]
    #: total elastic churn (tasks moved + added + removed)
    tasks_moved: int
    #: ``(simulated time, message)`` of scale attempts the scheduler refused
    actions_failed: Tuple[Tuple[float, str], ...]
    #: topology -> component -> parallelism at end of run
    final_parallelism: Dict[str, Dict[str, int]]


@dataclass(frozen=True)
class ElasticUnit(_WorkUnit):
    """One run with the elastic control loop attached (or deliberately
    disabled — the static baselines use the same unit with
    ``nimbus.elastic.enabled`` left false, so both sides of the
    comparison take the identical code path).

    ``storm`` carries flat ``nimbus.elastic.*`` StormConfig overrides as
    a sorted tuple of ``(key, value)`` pairs, keeping the unit hashable
    and its cache key stable.
    """

    KIND: ClassVar[str] = "elastic"

    scheduler: FactorySpec
    topologies: Tuple[FactorySpec, ...]
    cluster: FactorySpec
    config: SimulationConfig
    #: flat StormConfig overrides, e.g. (("nimbus.elastic.enabled", True),)
    storm: Tuple[Tuple[str, Any], ...] = ()
    interrack_uplink_mbps: Optional[float] = None
    trial: int = 0
    label: str = field(default="", compare=False)

    def execute(self) -> ElasticOutcome:
        random.seed(_seed_for(self))
        scheduler = self.scheduler.build()
        topologies = [t.build() for t in self.topologies]
        cluster = self.cluster.build()

        storm_config = StormConfig(dict(self.storm)) if self.storm else None
        nimbus = Nimbus(cluster, scheduler=scheduler, config=storm_config)
        for topology in topologies:
            nimbus.submit_topology(topology)
        nimbus.schedule_round()

        run = SimulationRun(
            cluster,
            [(t, nimbus.assignments[t.topology_id]) for t in topologies],
            self.config,
            interrack_uplink_mbps=self.interrack_uplink_mbps,
        )
        monitor = RecoveryMonitor()
        monitor.attach(run)
        controller = ElasticController(nimbus)
        controller.attach(run)

        report = run.run()
        recovery = {
            t.topology_id: monitor.report(t.topology_id, report)
            for t in topologies
        }
        final_parallelism = {
            topology_id: {
                name: comp.parallelism
                for name, comp in sorted(
                    nimbus.topology(topology_id).components.items()
                )
            }
            for topology_id in sorted(nimbus.assignments)
        }
        return ElasticOutcome(
            scheduler=scheduler.name,
            report=report,
            assignments=dict(nimbus.assignments),
            recovery=recovery,
            decisions=tuple(controller.decisions),
            tasks_moved=controller.tasks_moved,
            actions_failed=tuple(controller.actions_failed),
            final_parallelism=final_parallelism,
        )


@dataclass(frozen=True)
class TenantOutcome:
    """Everything measured for one multi-tenant contention run."""

    scheduler: str
    report: SimulationReport
    #: final assignments of the admitted topologies
    assignments: Dict[str, Assignment]
    #: every admit/defer/evict verdict, in decision order
    decisions: Tuple[AdmissionDecision, ...]
    #: per-admission-round fairness records (shares, Jain index)
    round_records: Tuple[AdmissionRoundRecord, ...]
    #: topology ids admitted and simulated, in submission order
    admitted: Tuple[str, ...]
    #: topology ids still queued when the admission phase ended
    deferred: Tuple[str, ...]
    #: topologies evicted by priority preemption (churn)
    preemptions: int
    #: tasks those evictions displaced
    preempted_tasks: int
    #: outstanding credit balance per tenant
    credits: Dict[str, float]
    #: final weighted dominant share per tenant
    shares: Dict[str, float]
    #: Jain fairness index over the final dominant shares
    jain: float
    #: topology id -> owning tenant id, for per-tenant rollups
    owners: Dict[str, str]
    #: ``(simulated time, error)`` of every infeasible scheduling round
    scheduling_failures: Tuple[Tuple[float, str], ...]


@dataclass(frozen=True)
class TenantUnit(_WorkUnit):
    """One multi-tenant contention run: a staged submission schedule is
    pushed through weighted-DRF admission (credits, preemption) over
    ``rounds`` Nimbus scheduling rounds, then the admitted set runs in
    the DES under the unit's (typically open-loop) config.

    ``submissions`` is a tuple of ``(round, tenant_id, topology_spec)``:
    the topology is submitted through the tenancy controller just
    before admission round ``round`` (0-based), so staggered arrivals
    exercise credit accrual and preemption deterministically.  ``storm``
    carries flat ``nimbus.tenancy.*`` overrides the same way
    :class:`ElasticUnit` carries ``nimbus.elastic.*`` ones.
    """

    KIND: ClassVar[str] = "tenants"

    scheduler: FactorySpec
    tenants: Tuple[Tenant, ...]
    submissions: Tuple[Tuple[int, str, FactorySpec], ...]
    cluster: FactorySpec
    config: SimulationConfig
    #: flat StormConfig overrides, e.g. (("nimbus.tenancy.enabled", True),)
    storm: Tuple[Tuple[str, Any], ...] = ()
    rounds: int = 8
    scheduling_interval_s: float = 10.0
    interrack_uplink_mbps: Optional[float] = None
    trial: int = 0
    label: str = field(default="", compare=False)

    def execute(self) -> TenantOutcome:
        random.seed(_seed_for(self))
        scheduler = self.scheduler.build()
        cluster = self.cluster.build()
        storm_config = StormConfig(dict(self.storm)) if self.storm else None
        nimbus = Nimbus(cluster, scheduler=scheduler, config=storm_config)
        controller = TenancyController(nimbus)
        for tenant in self.tenants:
            controller.register_tenant(tenant)
        by_round: Dict[int, List[Tuple[str, FactorySpec]]] = {}
        for round_index, tenant_id, topology_spec in self.submissions:
            by_round.setdefault(round_index, []).append(
                (tenant_id, topology_spec)
            )
        for round_index in range(self.rounds):
            for tenant_id, topology_spec in by_round.get(round_index, ()):
                controller.submit(topology_spec.build(), tenant_id)
            try:
                nimbus.schedule_round(round_index * self.scheduling_interval_s)
            except SchedulingError as err:
                # Aggregate slack fit but per-node packing failed —
                # degraded-mode record, same contract as the chaos path.
                nimbus.scheduling_failures.append(
                    (round_index * self.scheduling_interval_s, str(err))
                )
        placed = [
            topology
            for topology in nimbus.topologies
            if topology.topology_id in nimbus.assignments
        ]
        run = SimulationRun(
            cluster,
            [(t, nimbus.assignments[t.topology_id]) for t in placed],
            self.config,
            interrack_uplink_mbps=self.interrack_uplink_mbps,
        )
        report = run.run()
        latest = (
            controller.round_records[-1]
            if controller.round_records
            else None
        )
        return TenantOutcome(
            scheduler=scheduler.name,
            report=report,
            assignments=dict(nimbus.assignments),
            decisions=tuple(controller.decisions),
            round_records=tuple(controller.round_records),
            admitted=tuple(t.topology_id for t in placed),
            deferred=tuple(controller.pending_ids),
            preemptions=controller.preemptions,
            preempted_tasks=controller.preempted_tasks,
            credits=dict(controller.credits),
            shares=dict(latest.shares) if latest else {},
            jain=latest.jain if latest else 1.0,
            owners=controller.owners(),
            scheduling_failures=tuple(nimbus.scheduling_failures),
        )


def _execute_unit(unit: Any) -> Any:
    """Module-level worker entry point (must be picklable by reference)."""
    return unit.execute()


def run_units(
    units: Sequence[Any],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Any]:
    """Execute ``units``, in input order, with caching and fan-out.

    Args:
        units: Work units exposing ``execute()`` and ``cache_token()``.
        jobs: Worker processes for cache misses.  ``1`` runs inline
            (no subprocesses at all); ``N > 1`` uses a process pool.
        cache: Optional :class:`ResultCache`; hits skip execution
            entirely and fresh results are stored back.

    Returns:
        One outcome per unit, aligned with the input order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    results: List[Any] = [None] * len(units)
    pending: List[int] = []
    keys: Dict[int, str] = {}
    for i, unit in enumerate(units):
        if cache is not None:
            key = cache_key(unit.cache_token())
            keys[i] = key
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
        pending.append(i)
    if pending:
        if jobs > 1 and len(pending) > 1:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))
            ) as pool:
                outcomes = list(
                    pool.map(
                        _execute_unit,
                        [units[i] for i in pending],
                        chunksize=1,
                    )
                )
        else:
            outcomes = [units[i].execute() for i in pending]
        for i, outcome in zip(pending, outcomes):
            results[i] = outcome
            if cache is not None:
                cache.put(keys[i], outcome)
    return results


@dataclass
class ExperimentContext:
    """Execution policy threaded through every experiment's ``run``.

    The default — sequential, uncached — reproduces the historical
    behaviour exactly, so library callers and tests that never mention a
    context are unaffected.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None

    def run(self, units: Sequence[Any]) -> List[Any]:
        return run_units(units, jobs=self.jobs, cache=self.cache)
