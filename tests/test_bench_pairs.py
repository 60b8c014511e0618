import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "items_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def run(items, rss, raw, numpy_speed, correct=True, failed=0):
    """A run record as ``perfbench/run.py --trace 0`` writes it."""
    return {"result": {"correct": correct, "failed": failed,
                       "metrics": {"items_per_s": {"value": items},
                                   "peak_rss_mb": {"value": rss}}},
            "raw_items_per_s": raw, "raw_setup_s": raw / 1000,
            "pace_speed": {"python": 1.0, "numpy": numpy_speed}}


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0,
                                                                "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


def test_summary_holds_metrics_raw_figures_and_pace_speeds():
    runs = [run(100.0 + i, 50.0, 200.0 + 10 * i, 1.0 + 0.1 * i) for i in range(5)]
    out = bench_pairs.summary(runs, METRICS)
    assert set(out) == {"items_per_s", "peak_rss_mb", "raw_items_per_s", "raw_setup_s",
                        "pace_speed", "all_correct"}
    assert out["items_per_s"] == {"median": 102.0, "q1": 101.0, "q3": 103.0}
    assert out["peak_rss_mb"] == {"median": 50.0, "q1": 50.0, "q3": 50.0}
    assert out["raw_items_per_s"] == {"median": 220.0, "q1": 210.0, "q3": 230.0}
    assert out["raw_setup_s"]["median"] == pytest.approx(0.22)
    assert out["pace_speed"]["python"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert out["pace_speed"]["numpy"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3})
    assert out["all_correct"] is True
    assert bench_pairs.summary(runs + [run(1.0, 1.0, 1.0, 1.0, correct=False)],
                               METRICS)["all_correct"] is False
    assert bench_pairs.summary(runs + [run(1.0, 1.0, 1.0, 1.0, failed=1)],
                               METRICS)["all_correct"] is False


def test_pairs_won_follows_each_metrics_direction_and_counts_ties_for_neither():
    base = [run(100.0, 50.0, 200.0, 1.0) for _ in range(4)]
    change = [run(110.0, 49.0, 190.0, 1.0),  # faster scaled, smaller, slower raw
              run(90.0, 51.0, 210.0, 1.0),
              run(100.0, 50.0, 200.0, 1.0),  # a tie on everything
              run(101.0, 52.0, 201.0, 1.0)]
    assert bench_pairs.pairs_won(base, change, METRICS) == {
        "items_per_s": 2, "peak_rss_mb": 1, "raw_items_per_s": 2, "raw_setup_s": 1}
