"""The percentile rule: a percentile is reported only with at least ten
samples beyond it.

Run with ``python3 -m pytest rbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import (  # noqa: E402
    geomean,
    median,
    quantile,
    samples_beyond,
    supported_percentile,
    tail_quantile,
)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_supported_percentile_needs_ten_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_strictly_greater_ranks():
    values = list(range(1, 101))
    p90 = quantile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == samples_beyond(100, 90) == 10


def test_tail_quantile_refuses_unsupported_percentiles():
    assert tail_quantile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        tail_quantile(list(range(99)), 90)
    with pytest.raises(ValueError):
        tail_quantile(list(range(500)), 99)


def test_quantile_is_nearest_rank():
    assert quantile([5, 1, 3], 50) == 3
    assert quantile([1, 2, 3, 4], 50) == 2
    assert quantile([1, 2, 3, 4], 100) == 4
    assert quantile([7], 0) == 7


def test_median_and_geomean():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    assert geomean([1, 4, 16]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    sys.path.insert(0, str(HERE.parent / "src"))
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == {
        "paper-grid", "nimbus-churn", "overload-soak"
    }
