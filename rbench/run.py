"""Repository benchmark: R-Storm's DES, scheduler and control plane.

Usage (from the repository root)::

    python3 rbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Workloads: ``paper-grid``, ``nimbus-churn``, ``overload-soak`` (see
``rbench/README.md``).  A run sets the workload up several times, then
repeats deterministic passes of it until ``--seconds`` are spent (at
least one), checks the outputs and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds
one untraced pass and reports per-layer self time, calls and work counts
from spans wrapped around each layer's public calls.  Details of every
run go to ``.rbench-out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import Checks
from spans import LAYERS, UNATTRIBUTED, SpanClock, diff, traced
from speed import SpeedClock
from stats import median, quantile, tail_quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A run sets the workload up at least this many times and for at least
#: ``SETUP_MIN_S`` seconds; ``setup_s`` is the median set-up.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5

#: name -> (unit, better) for every end-to-end metric.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p90": ("ms", "lower"),
    "sched_netdist": ("distance", "lower"),
    "sim_tput_gain": ("ratio", "higher"),
    "sim_achieved": ("ratio", "higher"),
    "checks_passed_share": ("ratio", "higher"),
}

#: Simulated latency quantiles, reported per layer: on overload-soak they
#: swing by a third from seed to seed (README, findings), too much for an
#: end-to-end bound.
SIM_LATENCY: Dict[str, str] = {"sim_p50_s": "sim_sec", "sim_p99_s": "sim_sec"}

#: Work counts every workload reports (zero where a layer does nothing).
WORK_UNITS: Dict[str, str] = {
    "engine.events": "count",
    "runtime.tuples_emitted": "count",
    "runtime.tuples_acked": "count",
    "runtime.useful_ratio": "ratio",
    "network.bytes": "bytes",
    "network.lost": "count",
    "network.duplicated": "count",
    "flowcontrol.shed": "count",
    "flowcontrol.credit_stalls": "count",
    "flowcontrol.throttled_s": "sim_sec",
    "traffic.offered": "count",
    "traffic.arrivals_dropped": "count",
    "faults.injected": "count",
    "faults.reported": "count",
    "trace.events": "count",
    "trace.dropped": "count",
    "delivery.replayed": "count",
    "delivery.exhausted": "count",
    "elastic.decisions": "count",
    "elastic.tasks_moved": "count",
    "scheduler.tasks_placed": "count",
    "sched_state.placements_scanned": "count",
    "sched_state.rebuild_ratio": "ratio",
    "admission.admitted": "count",
    "admission.deferred": "count",
    "admission.evicted": "count",
}


def per_layer_units() -> Dict[str, str]:
    """name -> unit for every per-layer metric, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["unattributed.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead"] = "ratio"
    units["host.cpu_s"] = "s"
    units.update(SIM_LATENCY)
    units.update(WORK_UNITS)
    return units


def workload(name: str):
    from nimbus_churn import NimbusChurn
    from overload_soak import OverloadSoak
    from paper_grid import PaperGrid

    return {
        cls.name: cls for cls in (PaperGrid, NimbusChurn, OverloadSoak)
    }[name]()


class Runner:
    """One benchmark run: set-ups, passes, checks, metrics."""

    def __init__(self, name: str, seed: int):
        self.work = workload(name)
        self.seed = seed
        self.checks = Checks()
        #: scaled (reference-second) and raw set-up and pass times
        self.setup_s: List[float] = []
        self.setup_raw: List[float] = []
        self.walls: List[float] = []
        self.walls_raw: List[float] = []
        self.cpu: List[float] = []
        self.results = []

    def setup(self):
        gc.collect()
        clock = SpeedClock()
        clock.start()
        state = self.work.setup(self.seed, clock)
        clock.mark()
        self.setup_s.append(clock.total)
        self.setup_raw.append(clock.raw)
        return state

    def one_pass(self, state):
        gc.collect()
        cpu = time.process_time()
        clock = SpeedClock()
        clock.start()
        result = self.work.run_pass(state, clock)
        clock.mark()
        self.cpu.append(time.process_time() - cpu)
        self.walls.append(clock.total)
        self.walls_raw.append(clock.raw)
        return result

    def passes(self, budget_s: float) -> List:
        """Passes until the next one would overrun ``budget_s``."""
        results = []
        started = time.perf_counter()
        while True:
            results.append(self.complete(self.one_pass(self.setup())))
            spent = time.perf_counter() - started
            if spent + self.walls_raw[-1] > budget_s:
                break
        digests = {r.digest for r in results}
        self.checks.check(
            "simulated outputs identical across passes", len(digests) == 1,
            f"{len(digests)} distinct digests",
        )
        return results

    def complete(self, result):
        """Outputs and checks of a finished pass; its live state is
        dropped so that later passes do not carry it."""
        self.work.finish(result)
        self.work.check(result, self.checks)
        result.state = None
        return result

    def end_to_end(self, rounds) -> Dict[str, float]:
        first = self.results[0]
        if rounds is None:
            samples = [ms for r in self.results for ms in r.round_ms]
            rounds = (quantile(samples, 50), tail_quantile(samples, 90),
                      len(samples))
        attempted = self.checks.attempted
        return {
            "wall_s": median(self.walls),
            "setup_s": median(self.setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "round_ms_p50": rounds[0],
            "round_ms_p90": rounds[1],
            "sched_netdist": first.sim["sched_netdist"],
            "sim_tput_gain": first.sim["sim_tput_gain"],
            "sim_achieved": first.sim["sim_achieved"],
            "checks_passed_share": (
                (attempted - len(self.checks.failed)) / attempted
            ),
        }


def plain_clock() -> SpeedClock:
    """An unscaled, started clock for traced passes and set-ups."""
    clock = SpeedClock(scaled=False)
    clock.start()
    return clock


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    runner = Runner(name, seed)
    while (
        len(runner.setup_s) < SETUP_REPEATS - 1
        or sum(runner.setup_s) < SETUP_MIN_S
    ):
        runner.setup()
    started = time.perf_counter()
    details: Dict = {"workload": name, "seed": seed, "trace": int(trace)}
    rounds = None
    if not trace:
        if hasattr(runner.work, "measure_rounds"):
            rounds = runner.work.measure_rounds(seed, SpeedClock())
        runner.results = runner.passes(seconds - (time.perf_counter() - started))
        metrics = runner.end_to_end(rounds)
        units = {k: v[0] for k, v in END_TO_END.items()}
    else:
        # One untraced pass for the digest and the overhead baseline,
        # then traced passes: spans are summed only over pass bodies.
        runner.results = [runner.complete(runner.one_pass(runner.setup()))]
        clock = SpanClock()
        instrumentation = traced(clock)
        self_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        calls = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0)
        traced_results = []
        try:
            while True:
                state = runner.work.setup(seed, plain_clock())
                gc.collect()
                before = clock.snapshot()
                result = runner.work.run_pass(state, plain_clock())
                span_s, span_calls = diff(clock.snapshot(), before)
                del state
                traced_results.append(runner.complete(result))
                for key, value in span_s.items():
                    self_s[key] += value
                for key, value in span_calls.items():
                    calls[key] += value
                if time.perf_counter() - started > seconds:
                    break
        finally:
            instrumentation.uninstall()
        untraced = runner.results[0].digest
        perturbed = [r.digest for r in traced_results if r.digest != untraced]
        runner.checks.check(
            "tracing leaves the simulated outputs unchanged", not perturbed,
            f"{len(perturbed)} traced passes differ",
        )
        n = len(traced_results)
        traced_wall = sum(self_s.values()) / n
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_s[layer] / n
            metrics[f"{layer}.calls"] = calls[layer] / n
        metrics["unattributed.self_s"] = self_s[UNATTRIBUTED] / n
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead"] = traced_wall / runner.walls_raw[0]
        metrics["host.cpu_s"] = runner.cpu[0]
        for key in SIM_LATENCY:
            metrics[key] = runner.results[0].sim[key]
        for key in WORK_UNITS:
            metrics[key] = runner.results[0].work.get(key, 0)
        units = per_layer_units()
        details["traced_passes"] = n
    failed_ops = sum(r.failed for r in runner.results)
    attempted_ops = sum(r.attempted for r in runner.results)
    details.update(
        passes=len(runner.results),
        walls_s=runner.walls,
        walls_raw_s=runner.walls_raw,
        setups_s=runner.setup_s,
        setups_raw_s=runner.setup_raw,
        digest=runner.results[0].digest,
        work=runner.results[0].work,
        sim=runner.results[0].sim,
        checks=[
            {"name": n, "ok": ok, "detail": d,
             "known_defect": runner.checks.known_defect(n)}
            for n, ok, d in runner.checks.results
        ],
        metrics=metrics,
    )
    write_details(details)
    return {
        "correct": not runner.checks.unexplained,
        "attempted": attempted_ops,
        "failed": failed_ops,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
        "_checks": runner.checks,
        "_digest": details["digest"],
    }


def write_details(details: Dict) -> None:
    out = Path.cwd() / ".rbench-out"
    out.mkdir(exist_ok=True)
    path = out / (
        f"{details['workload']}-seed{details['seed']}"
        f"-trace{details['trace']}.json"
    )
    path.write_text(json.dumps(details, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-grid", "nimbus-churn", "overload-soak"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"rbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    checks = result.pop("_checks")
    print(f"workload {args.workload} seed {args.seed} "
          f"digest {result.pop('_digest')}")
    for name, ok, detail in checks.results:
        if not ok:
            known = checks.known_defect(name)
            note = f" (known defect: {known})" if known else ""
            print(f"check FAILED{note}: {name}: {detail}")
    directions = {k: v[1] for k, v in END_TO_END.items()}
    for key, entry in result["metrics"].items():
        better = directions.get(key)
        suffix = f" ({better} is better)" if better else ""
        print(f"{key} = {entry['value']!r} {entry['unit']}{suffix}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
