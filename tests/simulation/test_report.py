"""Tests for SimulationReport derived views."""

import pytest

from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import StatisticServer
from repro.simulation.report import LatencyStats, SimulationReport


def make_report(duration=60.0, warmup=10.0):
    config = SimulationConfig(duration_s=duration, warmup_s=warmup)
    stats = StatisticServer(config.window_s)
    return (
        SimulationReport(
            config=config,
            stats=stats,
            duration_s=duration,
            topology_ids=["t"],
            nodes_used={"t": ("n1", "n2")},
            node_cores={"n1": 1, "n2": 2},
        ),
        stats,
    )


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_percentiles(self):
        samples = [float(i) for i in range(1, 101)]
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 100
        assert stats.p50 == 50.0
        assert stats.p99 == 99.0
        assert stats.mean == pytest.approx(50.5)

    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.5])
        assert stats.p50 == stats.p99 == stats.mean == 0.5


class TestThroughputViews:
    def test_average_excludes_warmup(self):
        report, stats = make_report()
        stats.counters["sink"][("t", "s", 0)] += 999999  # warmup window
        stats.counters["sink"][("t", "s", 1)] += 100
        stats.counters["sink"][("t", "s", 2)] += 200
        stats.counters["sink"][("t", "s", 3)] += 300
        stats.counters["sink"][("t", "s", 4)] += 400
        stats.counters["sink"][("t", "s", 5)] += 500
        assert report.average_throughput_per_window("t") == pytest.approx(300.0)

    def test_average_tps(self):
        report, stats = make_report()
        stats.counters["sink"][("t", "s", 1)] += 1000
        avg_window = report.average_throughput_per_window("t")
        assert report.average_throughput_tps("t") == pytest.approx(
            avg_window / 10.0
        )

    def test_empty_topology_zero(self):
        report, _ = make_report()
        assert report.average_throughput_per_window("ghost") == 0.0


class TestCpuViews:
    def test_cpu_utilisation_accounts_cores(self):
        report, stats = make_report(duration=10.0, warmup=1.0)
        stats.counters["busy"]["n1"] += 5.0
        stats.counters["busy"]["n2"] += 5.0
        assert report.cpu_utilisation("n1") == pytest.approx(0.5)
        assert report.cpu_utilisation("n2") == pytest.approx(0.25)  # 2 cores

    def test_mean_cpu_utilisation_over_used_nodes(self):
        report, stats = make_report(duration=10.0, warmup=1.0)
        stats.counters["busy"]["n1"] += 10.0
        stats.counters["busy"]["n2"] += 0.0
        assert report.mean_cpu_utilisation() == pytest.approx(0.5)

    def test_mean_cpu_utilisation_explicit_nodes(self):
        report, stats = make_report(duration=10.0, warmup=1.0)
        stats.counters["busy"]["n1"] += 10.0
        assert report.mean_cpu_utilisation(["n1"]) == pytest.approx(1.0)

    def test_empty_node_list(self):
        report, _ = make_report()
        assert report.mean_cpu_utilisation([]) == 0.0


class TestSummary:
    def test_summary_contains_headline_numbers(self):
        report, stats = make_report()
        stats.counters["sink"][("t", "s", 1)] += 100
        stats.counters["emitted"]["t"] += 120
        summary = report.summary()
        assert "t" in summary
        assert summary["t"]["emitted"] == 120.0
        assert summary["t"]["nodes_used"] == 2.0
        assert "worker_crashes" in summary["t"]
