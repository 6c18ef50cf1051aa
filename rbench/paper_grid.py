"""``paper-grid``: the paper's closed-loop evaluation on the Emulab testbed.

The fig8 (network-bound), fig9 (compute-bound), fig12 (Yahoo) and fig13
(multi-topology) unit grids, R-Storm against default Storm, each run as
a ``SimulationUnit`` with ``trial=seed``.  This is what users of the
repository run; almost all of it is the default-path DES, so flow
control, traffic, faults and admission do no work here.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from common import Checks, PassResult, assignment_rows, round_percentiles
from speed import SpeedClock
from stats import geomean, quantile

#: Simulated seconds per unit.  Throughput is rate-bound, so the tables
#: keep the shape of the figures' 120 s runs at half the host time.
DURATION_S = 60.0
#: Each unit's simulation is stepped in chunks of this many simulated
#: seconds, with a speed mark between chunks.
CHUNK_S = 10.0
#: Timed repeats of each unit's scheduling round: twenty beyond the p90.
ROUND_REPEATS = 200


def grid_units(seed: int):
    """The four figure grids as ``SimulationUnit``s with ``trial=seed``."""
    from repro.cluster.builders import emulab_testbed
    from repro.experiments.fig9_compute_bound import compute_bound_units
    from repro.experiments.parallel import SimulationUnit, spec
    from repro.scheduler.default import DefaultScheduler
    from repro.scheduler.rstorm import RStormScheduler
    from repro.simulation.config import SimulationConfig
    from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS, micro_topology
    from repro.workloads.yahoo import (
        pageload_topology,
        processing_topology,
        yahoo_simulation_config,
    )

    schedulers = (("r-storm", RStormScheduler), ("default", DefaultScheduler))
    micro = SimulationConfig(
        duration_s=DURATION_S, warmup_s=min(20.0, DURATION_S / 4)
    )
    yahoo = yahoo_simulation_config(DURATION_S)
    units = [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(micro_topology, kind, "network"),),
            cluster=spec(emulab_testbed),
            config=micro,
            interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS,
            trial=seed,
            label=f"fig8:{kind}/{name}",
        )
        for kind in ("linear", "diamond", "star")
        for name, factory in schedulers
    ]
    units += [
        dataclasses.replace(unit, trial=seed)
        for unit in compute_bound_units(micro)
    ]
    units += [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(topology),),
            cluster=spec(emulab_testbed),
            config=yahoo,
            trial=seed,
            label=f"fig12:{topology.__name__}/{name}",
        )
        for topology in (pageload_topology, processing_topology)
        for name, factory in schedulers
    ]
    units += [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(processing_topology), spec(pageload_topology)),
            cluster=spec(emulab_testbed, nodes_per_rack=12),
            config=yahoo,
            trial=seed,
            label=f"fig13/{name}",
        )
        for name, factory in schedulers
    ]
    return units


class _CaptureRuns:
    """Collects the ``SimulationRun`` each unit builds, so the checks
    can read its delivery ledger after timing ends, and steps it in
    ``CHUNK_S`` chunks with a speed mark after each."""

    def __init__(self, clock: SpeedClock) -> None:
        from repro.simulation.runtime import SimulationRun

        self.cls = SimulationRun
        self.clock = clock
        self.runs: List[object] = []

    def __enter__(self) -> "_CaptureRuns":
        original = self.original = self.cls.__dict__["run"]
        runs, mark = self.runs, self.clock.mark

        def run(sim_run, until=None):
            runs.append(sim_run)
            horizon = sim_run.config.duration_s if until is None else until
            step = CHUNK_S
            while step < horizon:
                original(sim_run, step)
                mark()
                step += CHUNK_S
            return original(sim_run, horizon)

        self.cls.run = run
        return self

    def __exit__(self, *exc) -> None:
        self.cls.run = self.original


class PaperGrid:
    name = "paper-grid"

    def setup(self, seed: int, clock: SpeedClock):
        units = grid_units(seed)
        topologies = {u.label: [t.build() for t in u.topologies] for u in units}
        return units, topologies

    def measure_rounds(
        self, seed: int, clock: SpeedClock
    ) -> Tuple[float, float, int]:
        """Each unit's scheduling round, timed on its own cluster."""
        return round_percentiles([
            (
                unit.scheduler.build(),
                [t.build() for t in unit.topologies],
                unit.cluster.build,
            )
            for unit in grid_units(seed)
        ], clock, ROUND_REPEATS)

    def run_pass(self, state, clock: SpeedClock) -> PassResult:
        units, topologies = state
        outcomes = []
        with _CaptureRuns(clock) as capture:
            for unit in units:
                outcomes.append(unit.execute())
                clock.mark()
        return PassResult(
            outputs={}, sim={}, work={}, attempted=len(units),
            state=(units, outcomes, capture.runs, topologies),
        )

    def finish(self, result: PassResult) -> None:
        """Outputs, sim metrics and work counts of a finished pass
        (untimed)."""
        units, outcomes, runs, _ = result.state
        outputs: Dict[str, object] = {}
        work = dict(engine_events=0, tuples_emitted=0, tuples_acked=0,
                    network_bytes=0, tasks_placed=0)
        thr: Dict[Tuple[str, str], Dict[str, float]] = {}
        latencies: List[float] = []
        emitted = failed = 0
        netdist: List[float] = []
        for unit, outcome, run in zip(units, outcomes, runs):
            report = outcome.report
            group, scheduler = unit.label.rsplit("/", 1)
            per_topo = {}
            for tid in report.topology_ids:
                acks = report.stats.ack_latencies(tid)
                per_topo[tid] = dict(
                    throughput=outcome.throughput(tid),
                    emitted=report.emitted(tid),
                    sunk=report.sunk(tid),
                    failed=report.failed(tid),
                    crashes=report.crashes(tid),
                    acks=len(acks),
                    ack_p50=quantile(acks, 50) if acks else None,
                    ack_p99=quantile(acks, 99) if acks else None,
                )
                thr.setdefault((group, tid), {})[scheduler] = (
                    outcome.throughput(tid)
                )
                work["tuples_emitted"] += report.emitted(tid)
                work["tuples_acked"] += report.emitted(tid) - report.failed(tid)
                if scheduler == "r-storm":
                    latencies.extend(acks)
                    emitted += report.emitted(tid)
                    failed += report.failed(tid)
                    netdist.append(
                        outcome.qualities[tid].mean_network_distance
                    )
            outputs[unit.label] = dict(
                events=report.events_processed,
                topologies=per_topo,
                assignments=assignment_rows(outcome.assignments),
            )
            work["engine_events"] += report.events_processed
            work["network_bytes"] += sum(
                report.stats.nic_bytes(node.node_id)
                for node in run.cluster.nodes
            )
            work["tasks_placed"] += sum(
                len(a) for a in outcome.assignments.values()
            )
        gains = [v["r-storm"] / v["default"] for v in thr.values()]
        sim = dict(
            sim_tput_gain=geomean(gains),
            sim_p50_s=quantile(latencies, 50),
            sim_p99_s=quantile(latencies, 99),
            sim_achieved=(emitted - failed) / emitted,
            sched_netdist=sum(netdist) / len(netdist),
        )
        outputs["sim"] = sim
        result.outputs.update(outputs)
        result.sim.update(sim)
        result.work.update({
            "engine.events": work["engine_events"],
            "runtime.tuples_emitted": work["tuples_emitted"],
            "runtime.tuples_acked": work["tuples_acked"],
            "runtime.useful_ratio": work["tuples_acked"] / work["tuples_emitted"],
            "network.bytes": work["network_bytes"],
            "scheduler.tasks_placed": work["tasks_placed"],
        })

    def check(self, result: PassResult, checks: Checks) -> None:
        units, outcomes, runs, topologies = result.state
        for unit, outcome, run in zip(units, outcomes, runs):
            label = unit.label
            complete = all(
                outcome.assignments[t.topology_id].is_complete(t)
                for t in topologies[label]
            )
            checks.check(f"{label}: assignments complete", complete)
            if label.endswith("/r-storm"):
                violations = sum(
                    q.hard_violations for q in outcome.qualities.values()
                )
                checks.check(
                    f"{label}: within hard memory budgets",
                    violations == 0,
                    f"{violations} hard violations",
                )
            audit = run.delivery_audit()
            closed = all(
                row["spout_inflight"] == row["pending"]
                and min(row.values()) >= 0
                for row in audit.values()
            )
            checks.check(f"{label}: delivery ledger closes", closed, str(audit))
