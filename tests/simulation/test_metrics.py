"""Tests for the StatisticServer's counter table and its views."""

import pickle

import pytest

from repro.simulation.metrics import COUNTERS, StatisticServer


class TestWindows:
    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StatisticServer(window_s=0.0)

    def test_sink_recording_buckets_by_window(self):
        stats = StatisticServer(window_s=10.0)
        stats.counters["sink"][("t", "sink", 0)] += 100
        stats.counters["sink"][("t", "sink", 1)] += 200
        series = stats.series("sink", "t", 30.0)
        assert series == [(0.0, 100), (10.0, 200), (20.0, 0)]

    def test_component_series_separate(self):
        stats = StatisticServer(window_s=10.0)
        stats.counters["sink"][("t", "a", 0)] += 10
        stats.counters["sink"][("t", "b", 0)] += 20
        assert stats.series("sink", "t", 10.0, component="a") == [(0.0, 10)]
        assert stats.series("sink", "t", 10.0, component="b") == [(0.0, 20)]
        assert stats.series("sink", "t", 10.0) == [(0.0, 30)]

    def test_sink_total(self):
        stats = StatisticServer()
        stats.counters["sink"][("t", "s", 0)] += 5
        stats.counters["sink"][("t", "s", 5)] += 7
        assert stats.total("sink", "t") == 12
        assert stats.total("sink", "other") == 0


class TestCounters:
    def test_every_counter_declared_once_and_allocated(self):
        stats = StatisticServer()
        assert set(stats.counters) == set(COUNTERS)
        for name, (kind, labels) in COUNTERS.items():
            assert labels[0] in ("topology", "node"), name
            assert stats.total(name, "nobody") == kind()

    def test_emitted_failed_processed(self):
        stats = StatisticServer()
        stats.counters["emitted"]["t"] += 100
        stats.counters["failed"]["t"] += 30
        stats.counters["processed"][("t", "bolt")] += 70
        assert stats.total("emitted", "t") == 100
        assert stats.total("failed", "t") == 30
        assert stats.total("processed", "t", "bolt") == 70
        assert stats.total("processed", "t") == 70

    def test_busy_accumulates(self):
        stats = StatisticServer()
        stats.counters["busy"]["n1"] += 0.5
        stats.counters["busy"]["n1"] += 0.25
        assert stats.total("busy", "n1") == 0.75
        assert stats.total("busy", "ghost") == 0.0
        assert isinstance(stats.total("busy", "ghost"), float)

    def test_nic_bytes(self):
        stats = StatisticServer()
        stats.counters["nic_bytes"]["n1"] += 1000
        stats.counters["nic_bytes"]["n1"] += 500
        assert stats.nic_bytes("n1") == 1500

    def test_ack_latencies_copied(self):
        stats = StatisticServer()
        stats.ack_samples["t"].append(0.01)
        samples = stats.ack_latencies("t")
        samples.append(99.0)
        assert stats.ack_latencies("t") == [0.01]

    def test_crashes_by_component(self):
        stats = StatisticServer()
        crashes = stats.counters["crashes"]
        crashes[("t", "bolt-a")] += 1
        crashes[("t", "bolt-a")] += 1
        crashes[("t", "bolt-b")] += 1
        crashes[("other", "x")] += 1
        assert stats.total("crashes", "t") == 3
        assert stats.by("crashes", "t", "component") == {
            "bolt-a": 2, "bolt-b": 1,
        }


class TestViews:
    def test_by_sorts_labels_and_sums_other_labels(self):
        stats = StatisticServer()
        shed = stats.counters["shed"]
        shed[("t", "bolt", "queue", 3)] += 5
        shed[("t", "spout", "ingress", 1)] += 2
        shed[("t", "bolt", "queue", 4)] += 1
        shed[("u", "bolt", "queue", 4)] += 9
        assert stats.by("shed", "t", "stage") == {"ingress": 2, "queue": 6}
        assert list(stats.by("shed", "t", "stage")) == ["ingress", "queue"]

    def test_snapshot_drops_window_by_default(self):
        stats = StatisticServer()
        stats.counters["acked"][("t", 0)] += 4
        stats.counters["acked"][("t", 2)] += 6
        assert stats.snapshot("acked") == {"t": 10}
        assert stats.acked_total("t") == 10

    def test_snapshot_projects_to_named_labels(self):
        stats = StatisticServer()
        shed = stats.counters["shed"]
        shed[("t", "bolt", "queue", 3)] += 5
        shed[("t", "bolt", "queue", 4)] += 1
        shed[("t", "spout", "ingress", 1)] += 2
        assert stats.snapshot("shed", "topology", "component") == {
            ("t", "bolt"): 6, ("t", "spout"): 2,
        }

    def test_snapshot_is_a_copy(self):
        stats = StatisticServer()
        stats.counters["busy"]["n1"] += 1.0
        snap = stats.snapshot("busy")
        stats.counters["busy"]["n1"] += 1.0
        assert snap == {"n1": 1.0}

    def test_reads_do_not_create_entries(self):
        stats = StatisticServer()
        stats.total("emitted", "t")
        stats.total("busy", "n1")
        stats.ack_latencies("t")
        assert not stats.counters["emitted"]
        assert not stats.counters["busy"]
        assert not stats.ack_samples

    def test_pickle_round_trip(self):
        stats = StatisticServer(window_s=5.0)
        stats.counters["sink"][("t", "s", 0)] += 3
        stats.e2e_digests["t"].add(0.25)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.total("sink", "t") == 3
        assert clone.e2e_digests["t"].count == 1
        assert clone.window_s == 5.0
