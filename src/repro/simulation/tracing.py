"""Structured event tracing for simulation runs.

An opt-in trace of what happened during a run — spout emissions, batch
deliveries, acks, failures, worker crashes, migrations.  Used for
debugging schedules, for recovery measurement
(:class:`~repro.faults.monitor.RecoveryMonitor`) and for tests that
assert on event causality rather than aggregate counters.

Usage::

    tracer = Tracer(capacity=50_000)
    run = SimulationRun(cluster, placements, config)
    tracer.install(run)
    run.run()
    for event in tracer.query(kind="crash"):
        print(event)

The tracer is the run's one event sink: :class:`SimulationRun` holds an
optional ``tracer`` slot (``None`` by default) and reports each traced
transition with ``tracer.record(time, kind, topology, *fields)`` where
it happens.  Events keep their fields typed (``event.moved``,
``event.reason``, ...); the human-readable ``detail`` is rendered on
demand from the per-kind table below.

Storage is split by volume.  Control kinds (faults, membership,
reschedules, migrations, rescales, replays, crashes) are rare and go to
an unbounded list, so recovery measurement never loses them.  The
high-volume data-path kinds go to a bounded ring of ``capacity`` events
so long runs cannot exhaust memory; :attr:`Tracer.dropped` counts the
ring's evictions.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

__all__ = ["TraceEvent", "Tracer"]


class _Kind(NamedTuple):
    #: control events are never evicted; the rest share the bounded ring
    control: bool
    #: names of the typed fields, in ``record`` order
    fields: Tuple[str, ...]
    #: ``str.format`` template of the event's ``detail``
    detail: str


_KINDS: Dict[str, _Kind] = {
    "emit": _Kind(False, ("task", "tuples"), "{task} batch={tuples}"),
    "deliver": _Kind(
        False,
        ("root", "tuples", "task", "level"),
        "root={root} tuples={tuples} -> {task} ({level.name})",
    ),
    "ack": _Kind(False, ("latency_ms",), "latency={latency_ms:.3f}ms"),
    "fail": _Kind(False, ("tuples",), "tuples={tuples}"),
    "crash": _Kind(True, ("task",), "{task} queue overflow"),
    "migrate": _Kind(
        True,
        ("nodes", "reason", "moved"),
        "onto {nodes} nodes, reason={reason}, moved={moved}",
    ),
    "node_down": _Kind(True, ("node",), "{node}"),
    "node_up": _Kind(True, ("node",), "{node}"),
    "inject": _Kind(True, ("fault",), "{fault}"),
    "expire": _Kind(True, ("node",), "{node}"),
    "reschedule": _Kind(True, (), "new assignment"),
    "replay": _Kind(
        True,
        ("root", "origin", "attempt", "tuples"),
        "root={root} origin={origin} attempt={attempt} tuples={tuples}",
    ),
    "rescale": _Kind(
        True,
        ("nodes", "tasks", "added", "removed", "moved"),
        "onto {nodes} nodes, tasks={tasks}, added={added}, removed={removed}, "
        "moved={moved}",
    ),
    "stall": _Kind(
        False,
        ("producer", "consumer"),
        "{producer} paused ({producer} -> {consumer} edge over high watermark)",
    ),
    "resume": _Kind(
        False,
        ("producer", "consumer"),
        "{producer} resumed ({producer} -> {consumer} edge under low watermark)",
    ),
    "shed": _Kind(
        False,
        ("component", "tuples", "stage"),
        "{component} shed tuples={tuples} stage={stage}",
    ),
}


class TraceEvent(tuple):
    """One traced occurrence, stored flat as
    ``(time, kind, topology, *fields)`` so a long trace costs one small
    tuple per event.

    Attributes:
        time: Simulated time in seconds.
        kind: One of :attr:`Tracer.KINDS`.
        topology: Topology id (empty for cluster-level events).

    The kind's typed fields follow, in record order, and are read by
    name: ``event.moved``, ``event.reason``, ...
    """

    __slots__ = ()

    time = property(itemgetter(0))
    kind = property(itemgetter(1))
    topology = property(itemgetter(2))

    def __getattr__(self, name: str) -> Any:
        spec = _KINDS.get(self[1])
        if spec is None or name not in spec.fields:
            raise AttributeError(name)
        return self[3 + spec.fields.index(name)]

    @property
    def detail(self) -> str:
        """Human-readable specifics (task, node, counts)."""
        spec = _KINDS[self[1]]
        return spec.detail.format_map(dict(zip(spec.fields, self[3:])))

    def __str__(self) -> str:
        return f"[{self.time:10.4f}s] {self.kind:9s} {self.topology} {self.detail}"


class Tracer:
    """Event sink attached to a :class:`SimulationRun`.

    Args:
        capacity: Size of the ring holding the high-volume kinds; the
            :attr:`CONTROL_KINDS` are kept in full.
    """

    KINDS: Tuple[str, ...] = tuple(_KINDS)
    CONTROL_KINDS = frozenset(k for k, spec in _KINDS.items() if spec.control)

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: (ring events recorded before it, event) per control event
        self._control: List[Tuple[int, TraceEvent]] = []
        #: ring evictions (control events are never evicted)
        self.dropped = 0

    def install(self, run) -> None:
        """Make this tracer ``run``'s event sink.

        Raises:
            RuntimeError: if the run already has a tracer.
        """
        if run.tracer is not None:
            raise RuntimeError("run already has a tracer installed")
        run.tracer = self

    def record(self, time: float, kind: str, topology: str, *fields) -> None:
        """Store one event; ``fields`` follow the kind's field names."""
        event = TraceEvent((time, kind, topology, *fields))
        ring = self._ring
        if _KINDS[kind].control:
            self._control.append((self.dropped + len(ring), event))
            return
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(event)

    # -- queries ------------------------------------------------------------------

    def _stored(self, kind: Optional[str] = None) -> Iterable[TraceEvent]:
        """Kept events in record order (one store when ``kind`` is set)."""
        if kind is None:
            return self._merged()
        if kind in self.CONTROL_KINDS:
            return [event for _, event in self._control]
        return self._ring

    def _merged(self) -> Iterator[TraceEvent]:
        control = self._control
        pending = 0
        for index, event in enumerate(self._ring, self.dropped):
            while pending < len(control) and control[pending][0] <= index:
                yield control[pending][1]
                pending += 1
            yield event
        for _, event in control[pending:]:
            yield event

    def __len__(self) -> int:
        return len(self._control) + len(self._ring)

    def events(self) -> List[TraceEvent]:
        return list(self._stored())

    def query(
        self,
        kind: Optional[str] = None,
        topology: Optional[str] = None,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> List[TraceEvent]:
        """Filter the trace by kind, topology and time window."""
        return [
            event
            for event in self._stored(kind)
            if (kind is None or event.kind == kind)
            and (topology is None or event.topology == topology)
            and since <= event.time <= until
        ]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._stored():
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
