"""Shared pieces of the three workloads: the check ledger, the output
digest, and the per-pass result every workload returns."""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from speed import SpeedClock
from stats import geomean, quantile, tail_quantile

#: Timed rounds run in batches of ``ROUND_BATCH``, each scaled by the
#: speed mark that closes it.
ROUND_BATCH = 20


class Checks:
    """Output checks of one run, counted into ``checks_passed_share``.

    A check repeated on later passes counts once, and fails if it
    failed on any pass, so the share does not depend on how many passes
    fit in the run.

    A failing check may name a known defect (``known``) when the
    workload has verified that this defect, and nothing else, explains
    the failure.  Such a failure still lowers the share and is printed,
    but is not among ``unexplained``, which alone makes a run incorrect.
    """

    def __init__(self) -> None:
        self._results: Dict[str, Tuple[bool, str, str]] = {}

    def check(
        self, name: str, ok: bool, detail: str = "", known: str = ""
    ) -> bool:
        ok = bool(ok)
        known = "" if ok else known
        previous = self._results.get(name)
        if (
            previous is None
            or (previous[0] and not ok)
            or (previous[2] and not ok and not known)
        ):
            self._results[name] = (ok, detail, known)
        return ok

    @property
    def results(self) -> List[Tuple[str, bool, str]]:
        return [(name, ok, d) for name, (ok, d, _) in self._results.items()]

    @property
    def attempted(self) -> int:
        return len(self._results)

    @property
    def failed(self) -> List[Tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]

    @property
    def unexplained(self) -> List[Tuple[str, bool, str]]:
        """Failed checks that no verified known defect explains."""
        return [
            (name, ok, d)
            for name, (ok, d, known) in self._results.items()
            if not ok and not known
        ]

    def known_defect(self, name: str) -> str:
        return self._results[name][2]


def digest(outputs: Any) -> str:
    """SHA-256 over a canonical JSON rendering of simulated outputs.
    Floats keep every digit (``repr``), so any drift shows."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def assignment_rows(assignments: Dict[str, Any]) -> Dict[str, List[str]]:
    """Final placements as sorted ``task@node:port`` strings."""
    return {
        topo_id: sorted(
            f"{task.component}/{task.instance}@{slot.node_id}:{slot.port}"
            for task, slot in assignment.as_dict().items()
        )
        for topo_id, assignment in sorted(assignments.items())
    }


def round_percentiles(
    rounds: Sequence[Tuple[Any, Sequence[Any], Callable[[], Any]]],
    clock: SpeedClock,
    repeats: int,
) -> Tuple[float, float, int]:
    """Time each ``(scheduler, topologies, cluster factory)`` round
    ``repeats`` times on one cluster, released before every repeat, in
    reference milliseconds (``clock`` scales each batch).
    Returns the geometric means over rounds of the per-round p50 and
    p90, and the number of rounds timed."""
    p50s, p90s = [], []
    # Older objects move out of the collector's reach, and each batch
    # starts from a clean young generation, so its collections fall at
    # the same points in every run.
    gc.collect()
    gc.freeze()
    try:
        clock.start()
        for scheduler, topologies, make_cluster in rounds:
            cluster = make_cluster()
            samples: List[float] = []
            for _ in range(repeats // ROUND_BATCH):
                raw = []
                gc.collect()
                for _ in range(ROUND_BATCH):
                    cluster.release_all()
                    started = time.perf_counter()
                    scheduler.run(topologies, cluster)
                    raw.append((time.perf_counter() - started) * 1e3)
                scale = clock.mark()
                samples.extend(ms * scale for ms in raw)
            p50s.append(quantile(samples, 50))
            p90s.append(tail_quantile(samples, 90))
    finally:
        gc.unfreeze()
    return geomean(p50s), geomean(p90s), repeats * len(p50s)


@dataclass
class PassResult:
    """What one deterministic pass of a workload produced.

    ``outputs`` is the simulated (host-independent) record that the
    digest covers; ``sim`` holds the workload's ``sim_*``-style
    end-to-end values and ``work`` its per-layer work counts, both
    derived from those outputs.
    """

    outputs: Dict[str, Any]
    sim: Dict[str, float]
    work: Dict[str, float]
    #: host milliseconds of every scheduling round this pass timed
    round_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: live objects the checks inspect after timing ends
    state: Optional[Any] = None

    @property
    def digest(self) -> str:
        return digest(self.outputs)
