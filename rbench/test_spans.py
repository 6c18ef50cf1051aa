"""Span arithmetic: self time is inclusive time minus child spans, and
the layers plus ``unattributed`` always sum to the elapsed time.

Run with ``python3 -m pytest rbench``.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import LAYERS, UNATTRIBUTED, Instrumentation, SpanClock, diff  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_self_time_subtracts_children():
    fake = FakeClock()
    clock = SpanClock(fake)
    start = clock.snapshot()
    fake.now = 1.0
    clock.enter("engine")          # engine opens at 1
    fake.now = 3.0
    clock.enter("runtime")         # runtime opens at 3
    fake.now = 4.0
    clock.enter("metrics")         # metrics 4..4.5
    fake.now = 4.5
    clock.exit()
    fake.now = 7.0
    clock.exit()                   # runtime 3..7 inclusive 4, self 3.5
    fake.now = 8.0
    clock.exit()                   # engine 1..8 inclusive 7, self 3
    fake.now = 10.0
    self_s, calls = diff(clock.snapshot(), start)
    assert self_s["metrics"] == pytest.approx(0.5)
    assert self_s["runtime"] == pytest.approx(3.5)
    assert self_s["engine"] == pytest.approx(3.0)
    assert self_s[UNATTRIBUTED] == pytest.approx(3.0)
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert calls == {**dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0),
                     "engine": 1, "runtime": 1, "metrics": 1}


def test_reentering_a_layer_accumulates():
    fake = FakeClock()
    clock = SpanClock(fake)
    start = clock.snapshot()
    for _ in range(3):
        clock.enter("network")
        fake.now += 2.0
        clock.exit()
        fake.now += 1.0
    self_s, calls = diff(clock.snapshot(), start)
    assert self_s["network"] == pytest.approx(6.0)
    assert self_s[UNATTRIBUTED] == pytest.approx(3.0)
    assert calls["network"] == 3


def test_random_nesting_closes_exactly():
    rng = random.Random(7)
    fake = FakeClock()
    clock = SpanClock(fake)
    start = clock.snapshot()
    depth = 0
    for _ in range(2000):
        fake.now += rng.random()
        if depth and rng.random() < 0.5:
            clock.exit()
            depth -= 1
        else:
            clock.enter(rng.choice(LAYERS))
            depth += 1
    for _ in range(depth):
        fake.now += rng.random()
        clock.exit()
    self_s, _ = diff(clock.snapshot(), start)
    assert sum(self_s.values()) == pytest.approx(fake.now)
    assert all(value >= 0 for value in self_s.values())


def test_snapshot_window_excludes_time_outside_it():
    fake = FakeClock()
    clock = SpanClock(fake)
    clock.enter("scheduler")
    fake.now = 5.0                 # before the window
    before = clock.snapshot()
    fake.now = 6.0
    after = clock.snapshot()
    fake.now = 9.0                 # after the window
    clock.exit()
    self_s, _ = diff(after, before)
    assert self_s["scheduler"] == pytest.approx(1.0)
    assert sum(self_s.values()) == pytest.approx(1.0)


def test_exception_closes_the_span():
    fake = FakeClock()
    clock = SpanClock(fake)

    class Thing:
        def boom(self):
            fake.now += 1.0
            raise RuntimeError("boom")

    instrumentation = Instrumentation(clock)
    instrumentation.method(Thing, "boom", "faults")
    with pytest.raises(RuntimeError):
        Thing().boom()
    assert clock.depth == 0
    assert clock.self_s["faults"] == pytest.approx(1.0)
    instrumentation.uninstall()
    assert "boom" in Thing.__dict__ and not hasattr(Thing.boom, "__wrapped__")


def test_lazy_span_times_each_next():
    fake = FakeClock()
    clock = SpanClock(fake)

    class Source:
        def stream(self):
            for i in itertools.count():
                fake.now += 0.25
                yield i

    instrumentation = Instrumentation(clock)
    instrumentation.method(Source, "stream", "traffic", lazy=True)
    stream = Source().stream()
    fake.now += 1.0                # outside any span
    assert [next(stream) for _ in range(4)] == [0, 1, 2, 3]
    assert clock.self_s["traffic"] == pytest.approx(1.0)
    assert clock.calls["traffic"] == 5  # the call plus four nexts
    instrumentation.uninstall()


def test_instrumentation_restores_every_original():
    import repro.experiments.harness as harness
    from repro.scheduler.global_state import GlobalState
    from repro.scheduler.quality import evaluate_assignment
    from repro.simulation.engine import Simulator
    from repro.simulation.runtime import SimulationRun

    schedule_at = Simulator.__dict__["schedule_at"]
    run = SimulationRun.__dict__["run"]
    from_assignments = GlobalState.__dict__["from_assignments"]
    instrumentation = Instrumentation(SpanClock()).install()
    assert Simulator.__dict__["schedule_at"] is not schedule_at
    assert harness.evaluate_assignment is not evaluate_assignment
    instrumentation.uninstall()
    assert Simulator.__dict__["schedule_at"] is schedule_at
    assert SimulationRun.__dict__["run"] is run
    assert GlobalState.__dict__["from_assignments"] is from_assignments
    assert harness.evaluate_assignment is evaluate_assignment


def test_engine_split_attributes_handlers_to_their_layer():
    from repro.simulation.engine import Simulator

    fake = FakeClock()
    clock = SpanClock(fake)
    instrumentation = Instrumentation(clock)
    instrumentation.engine()
    try:
        sim = Simulator()
        fired = []

        def handler(tag):
            fake.now += 2.0
            fired.append(tag)

        sim.schedule_at(1.0, handler, "a")
        sim.schedule_after(2.0, handler, "b")
        sim.run(5.0)
    finally:
        instrumentation.uninstall()
    assert fired == ["a", "b"]
    # handlers defined outside ``repro`` are nobody's layer
    assert clock.self_s[UNATTRIBUTED] == pytest.approx(4.0)
    assert clock.calls["engine"] == 3
    assert sim.now == 5.0
