"""StatisticServer — metrics collection (paper Section 5.1).

Everything a run measures is declared once, in :data:`COUNTERS`: metric
name -> (value type, label names).  Each counter is one dict keyed by
its finest labels only — the bare label value for one-label counters, a
tuple otherwise — and the runtime increments it in place.  Totals,
per-label splits, window series and snapshots are derived when read by
four generic views (``total``, ``by``, ``series``, ``snapshot``), never
recorded a second time.

Ack-latency samples and end-to-end latency digests
(:class:`TailDigest`) are the two stores that are not counters.
Derived report metrics (averages, rates, utilisation) live in
:class:`~repro.simulation.report.SimulationReport`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.traffic.percentiles import TailDigest

__all__ = ["COUNTERS", "StatisticServer"]

#: metric name -> (value type, label names).  ``window`` is the index of
#: the ``window_s``-second metrics window the event fell in.
COUNTERS: Dict[str, Tuple[type, Tuple[str, ...]]] = {
    # -- core (the paper's statistic server)
    "sink": (int, ("topology", "component", "window")),
    "processed": (int, ("topology", "component")),
    "emitted": (int, ("topology",)),
    "failed": (int, ("topology",)),
    "busy": (float, ("node",)),
    "nic_bytes": (int, ("node",)),
    "crashes": (int, ("topology", "component")),
    "dropped": (int, ("topology",)),
    # -- delivery semantics (at-least-once layer, message-loss faults)
    "replayed": (int, ("topology",)),
    "exhausted": (int, ("topology",)),
    "lost": (int, ("topology",)),
    "duplicated": (int, ("topology",)),
    "acked": (int, ("topology", "window")),
    # -- open-loop traffic
    "offered": (int, ("topology", "window")),
    "arrivals_dropped": (int, ("topology",)),
    # -- flow control
    "shed": (int, ("topology", "component", "stage", "window")),
    "credit_stalls": (int, ("topology",)),
    "spout_throttled_s": (float, ("topology",)),
}


class StatisticServer:
    """The metrics table of one simulation run.

    Attributes:
        counters: metric name -> its dict, as declared in :data:`COUNTERS`.
        ack_samples: topology -> ack latency samples (seconds).
        e2e_digests: topology -> end-to-end (arrival -> full ack)
            latency digest; a topology appears once an open-loop batch
            has fully acked.
    """

    def __init__(self, window_s: float = 10.0):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self.counters: Dict[str, Dict] = {
            name: defaultdict(kind) for name, (kind, _) in COUNTERS.items()
        }
        self.ack_samples: Dict[str, List[float]] = defaultdict(list)
        self.e2e_digests: Dict[str, TailDigest] = defaultdict(TailDigest)

    # -- generic views ------------------------------------------------------

    def total(self, name: str, *prefix: str):
        """Counter ``name`` summed over every entry whose leading labels
        equal ``prefix`` — usually a topology id (a node id for the
        node counters); a full label set reads one entry."""
        kind, labels = COUNTERS[name]
        counter = self.counters[name]
        if len(prefix) == len(labels):
            return counter.get(prefix if len(prefix) > 1 else prefix[0], kind())
        n = len(prefix)
        return sum(
            (value for key, value in counter.items() if key[:n] == prefix),
            kind(),
        )

    def by(self, name: str, topology: str, label: str) -> Dict:
        """One topology's counter ``name`` split by ``label``, sorted."""
        kind, labels = COUNTERS[name]
        at = labels.index(label)
        out: Dict = defaultdict(kind)
        for key, value in self.counters[name].items():
            if key[0] == topology:
                out[key[at]] += value
        return dict(sorted(out.items()))

    def series(
        self, name: str, topology: str, duration_s: float, **where: str
    ) -> List[Tuple[float, int]]:
        """(window_start_s, value) for every window of the run, empty
        windows included; ``where`` narrows to label values (e.g.
        ``component="sink"``)."""
        kind, labels = COUNTERS[name]
        at = labels.index("window")
        match = [(labels.index(label), value) for label, value in where.items()]
        per_window: Dict[int, int] = defaultdict(kind)
        for key, value in self.counters[name].items():
            if key[0] == topology and all(key[i] == v for i, v in match):
                per_window[key[at]] += value
        num_windows = int(math.ceil(duration_s / self.window_s))
        return [
            (w * self.window_s, per_window.get(w, kind()))
            for w in range(num_windows)
        ]

    def snapshot(self, name: str, *labels: str) -> Dict:
        """Copy of counter ``name`` summed down to ``labels`` (default:
        every label but ``window``) — the elastic controller diffs
        consecutive snapshots per control period."""
        kind, names = COUNTERS[name]
        keep = labels or tuple(label for label in names if label != "window")
        counter = self.counters[name]
        if keep == names:
            return dict(counter)
        # itemgetter yields the bare value for one label, a tuple for more.
        labels_of = itemgetter(*(names.index(label) for label in keep))
        out: Dict = defaultdict(kind)
        for key, value in counter.items():
            out[labels_of(key)] += value
        return dict(out)

    # -- views the benchmark reads ------------------------------------------

    def acked_total(self, topology_id: str) -> int:
        return self.total("acked", topology_id)

    def nic_bytes(self, node_id: str) -> int:
        return self.total("nic_bytes", node_id)

    def ack_latencies(self, topology_id: str) -> List[float]:
        return list(self.ack_samples.get(topology_id, ()))
