"""Per-layer span accounting for the traced benchmark run.

The traced run wraps public calls into each layer of ``repro`` from the
outside (nothing under ``src/`` changes) and charges every instant of
host time to exactly one layer: the innermost open span, or
``unattributed`` when no span is open.  A span's self time is therefore
its inclusive time minus the time its child spans cover, and the self
times of all layers plus ``unattributed`` sum to the traced wall time by
construction (the attribution closure the benchmark checks).

Layers are named after modules (see ``README.md``).  The engine is split
from the layers it drives by wrapping every action handed to
``Simulator.schedule_at``/``schedule_after``: the handler runs in a span
of the layer whose module defined the action, so engine self time is
``Simulator.run`` minus the handler spans (plus the queue operations).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "engine",
    "runtime",
    "network",
    "metrics",
    "grouping",
    "flowcontrol",
    "traffic",
    "faults",
    "nimbus",
    "scheduler",
    "sched_state",
    "admission",
    "quality",
)

UNATTRIBUTED = "unattributed"

#: Module -> layer for event handlers (the action's defining module);
#: handlers from other ``repro`` modules count as runtime.
#: The tracer's closures in ``simulation.tracing`` wrap runtime
#: transitions and call the runtime originals, so a handler defined
#: there is runtime work; ``Tracer.record`` itself is the faults layer.
HANDLER_LAYERS: Dict[str, str] = {
    "repro.simulation.runtime": "runtime",
    "repro.simulation.tracing": "runtime",
    "repro.nimbus.nimbus": "nimbus",
    "repro.nimbus.elastic": "nimbus",
    "repro.nimbus.failure_detector": "nimbus",
    "repro.faults.injector": "faults",
}


class SpanClock:
    """Exclusive-time accounting over properly nested spans.

    ``enter(layer)`` closes the running segment of the current layer and
    opens one for ``layer``; ``exit()`` closes it and resumes the layer
    that was current before.  One clock read per boundary.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.self_s: Dict[str, float] = dict.fromkeys(
            LAYERS + (UNATTRIBUTED,), 0.0
        )
        self.calls: Dict[str, int] = dict.fromkeys(
            LAYERS + (UNATTRIBUTED,), 0
        )
        self._stack: List[str] = []
        self._current = UNATTRIBUTED
        self._since = clock()

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, layer: str) -> None:
        now = self._clock()
        self.self_s[self._current] += now - self._since
        self._stack.append(self._current)
        self._current = layer
        self._since = now
        self.calls[layer] += 1

    def exit(self) -> None:
        now = self._clock()
        self.self_s[self._current] += now - self._since
        self._current = self._stack.pop()
        self._since = now

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Close the running segment and copy the accumulators; the
        difference of two snapshots sums exactly to the time between
        them."""
        now = self._clock()
        self.self_s[self._current] += now - self._since
        self._since = now
        return dict(self.self_s), dict(self.calls)


def diff(
    later: Tuple[Dict[str, float], Dict[str, int]],
    earlier: Tuple[Dict[str, float], Dict[str, int]],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self time and calls between two snapshots."""
    return (
        {k: later[0][k] - earlier[0][k] for k in later[0]},
        {k: later[1][k] - earlier[1][k] for k in later[1]},
    )


# -- wrapping -------------------------------------------------------------


def _span(clock: SpanClock, layer: str, fn: Callable[..., Any]):
    enter, leave = clock.enter, clock.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _span_iter(clock: SpanClock, layer: str, fn: Callable[..., Iterator]):
    """Wrap a function returning an iterator so that each ``next`` on
    the result (the lazy work) is a span, not just the call."""
    enter, leave = clock.enter, clock.exit

    def spanned(inner: Iterator) -> Iterator:
        while True:
            enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                leave()
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            inner = fn(*args, **kwargs)
        finally:
            leave()
        return spanned(inner)

    return wrapper


class Instrumentation:
    """Installs span wrappers on ``repro``'s layer boundaries and
    removes them again (``uninstall`` restores every original)."""

    def __init__(self, clock: SpanClock):
        self.clock = clock
        self._restore: List[Tuple[Any, str, Any]] = []
        self._handler_layer: Dict[Any, str] = {}

    # -- primitives ---------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, layer: str, lazy=False) -> None:
        """Span every call of ``cls.name`` (plain, class or static)."""
        raw = cls.__dict__[name]
        make = _span_iter if lazy else _span
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(make(self.clock, layer, raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(make(self.clock, layer, raw.__func__)))
        else:
            self._set(cls, name, make(self.clock, layer, raw))

    def methods(self, cls: type, layer: str) -> None:
        """Span every public function defined on ``cls`` itself."""
        for name, raw in list(cls.__dict__.items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
                self.method(cls, name, layer)

    def function(self, module: str, name: str, layer: str) -> None:
        """Span a module-level function everywhere it was imported by
        name (``from m import f`` copies the reference)."""
        original = getattr(importlib.import_module(module), name)
        wrapper = _span(self.clock, layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, name, None) is original:
                self._set(mod, name, wrapper)

    def subclasses(self, base: type, name: str, layer: str, lazy=False) -> None:
        """Span ``name`` on ``base`` and every loaded subclass that
        defines its own."""
        seen = [base]
        while seen:
            cls = seen.pop()
            if name in cls.__dict__:
                self.method(cls, name, layer, lazy=lazy)
            seen.extend(cls.__subclasses__())

    # -- the engine ----------------------------------------------------

    def layer_of(self, action: Callable[..., Any]) -> str:
        key = getattr(action, "__func__", action)
        layer = self._handler_layer.get(key)
        if layer is None:
            module = getattr(action, "__module__", None) or ""
            layer = HANDLER_LAYERS.get(module)
            if layer is None:
                layer = "runtime" if module.startswith("repro.") else UNATTRIBUTED
            self._handler_layer[key] = layer
        return layer

    def engine(self) -> None:
        from repro.simulation.engine import Simulator

        clock = self.clock
        enter, leave = clock.enter, clock.exit
        layer_of = self.layer_of

        def handler(layer, action, *args):
            enter(layer)
            try:
                action(*args)
            finally:
                leave()

        schedule_at = Simulator.__dict__["schedule_at"]
        schedule_after = Simulator.__dict__["schedule_after"]

        def traced_at(sim, when, action, *args):
            enter("engine")
            try:
                schedule_at(sim, when, handler, layer_of(action), action, *args)
            finally:
                leave()

        def traced_after(sim, delay, action, *args):
            enter("engine")
            try:
                schedule_after(
                    sim, delay, handler, layer_of(action), action, *args
                )
            finally:
                leave()

        self._set(Simulator, "schedule_at", traced_at)
        self._set(Simulator, "schedule_after", traced_after)
        self.method(Simulator, "run", "engine")
        self.method(Simulator, "step", "engine")

    # -- all layers -------------------------------------------------------

    def install(self) -> "Instrumentation":
        from repro.faults.monitor import RecoveryMonitor
        from repro.nimbus.nimbus import Nimbus
        from repro.nimbus.supervisor import Supervisor
        from repro.nimbus.tenancy import TenancyController
        from repro.nimbus.zookeeper import InMemoryZooKeeper
        from repro.scheduler.base import IScheduler
        from repro.scheduler.global_state import GlobalState
        from repro.simulation.flowcontrol import (
            CreditLedger,
            SheddingPolicy,
            ShedLedger,
        )
        from repro.simulation.metrics import StatisticServer
        from repro.simulation.network import TransferModel
        from repro.simulation.report import SimulationReport
        from repro.simulation.runtime import SimulationRun
        from repro.simulation.tracing import Tracer
        from repro.topology.grouping import Grouping
        from repro.traffic.arrivals import ArrivalProcess
        from repro.traffic.keys import KeyGenerator
        from repro.traffic.percentiles import TailDigest

        self.engine()
        for name in ("__init__", "run", "report", "migrate", "rescale",
                     "component_backlog", "task_queue_depths",
                     "current_topology", "set_node_fault_factor",
                     "fail_node_at", "recover_node_at"):
            self.method(SimulationRun, name, "runtime")
        for name in ("transfer", "copies", "set_uplink_scale",
                     "set_link_loss", "clear_link_loss"):
            self.method(TransferModel, name, "network")
        self.methods(StatisticServer, "metrics")
        self.methods(SimulationReport, "metrics")
        self.subclasses(Grouping, "route", "grouping")
        self.method(CreditLedger, "send", "flowcontrol")
        self.method(CreditLedger, "drain", "flowcontrol")
        self.method(SheddingPolicy, "should_shed", "flowcontrol")
        self.method(ShedLedger, "record", "flowcontrol")
        self.subclasses(ArrivalProcess, "stream", "traffic", lazy=True)
        self.subclasses(KeyGenerator, "stream", "traffic", lazy=True)
        self.method(TailDigest, "add", "traffic")
        self.method(Tracer, "record", "faults")
        self.method(RecoveryMonitor, "report", "faults")
        for name in ("schedule_round", "submit_topology", "kill_topology",
                     "reconcile_membership"):
            self.method(Nimbus, name, "nimbus")
        self.methods(Supervisor, "nimbus")
        self.methods(InMemoryZooKeeper, "nimbus")
        self.method(IScheduler, "run", "scheduler")
        self.method(GlobalState, "from_assignments", "sched_state")
        self.method(GlobalState, "assignment_for", "sched_state")
        self.method(TenancyController, "admission_round", "admission")
        self.method(TenancyController, "submit", "admission")
        self.function("repro.scheduler.admission", "plan_admission", "admission")
        self.function("repro.scheduler.quality", "evaluate_assignment", "quality")
        self.function("repro.scheduler.quality", "aggregate_node_load", "quality")
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def traced(clock: Optional[SpanClock] = None) -> Instrumentation:
    """A fresh, installed instrumentation over ``clock``."""
    return Instrumentation(clock or SpanClock()).install()
