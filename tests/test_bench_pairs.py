import importlib.util
import subprocess
import sys
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
            "pace_speed": {"python": 1.0, "numpy": numpy_speed},
            "rusage": {"minor_faults": int(raw) * 100, "user_s": raw / 100, "sys_s": rss / 100}}


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0,
                                                                "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


def test_summary_holds_metrics_raw_figures_and_pace_speeds():
    runs = [run(100.0 + i, 50.0, 200.0 + 10 * i, 1.0 + 0.1 * i) for i in range(5)]
    out = bench_pairs.summary(runs, METRICS)
    assert set(out) == {"items_per_s", "peak_rss_mb", "raw_items_per_s", "raw_setup_s",
                        "pace_speed", "rusage", "all_correct"}
    assert out["items_per_s"] == {"median": 102.0, "q1": 101.0, "q3": 103.0}
    assert out["peak_rss_mb"] == {"median": 50.0, "q1": 50.0, "q3": 50.0}
    assert out["raw_items_per_s"] == {"median": 220.0, "q1": 210.0, "q3": 230.0}
    assert out["raw_setup_s"]["median"] == pytest.approx(0.22)
    assert out["pace_speed"]["python"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert out["pace_speed"]["numpy"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3})
    assert out["rusage"]["minor_faults"] == {"median": 22000, "q1": 21000, "q3": 23000}
    assert out["rusage"]["user_s"] == pytest.approx({"median": 2.2, "q1": 2.1, "q3": 2.3})
    assert out["rusage"]["sys_s"] == pytest.approx({"median": 0.5, "q1": 0.5, "q3": 0.5})
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


def test_run_child_reports_the_childs_own_faults_and_cpu_time(tmp_path):
    # the child writes to each 4 kB page of 40 MB, kept off huge pages, and
    # spins for CPU time
    code = ("import mmap, time\nm = mmap.mmap(-1, 40_000_000)\nm.madvise(mmap.MADV_NOHUGEPAGE)\n"
            "for i in range(0, len(m), 4096): m[i] = 1\n"
            "end = time.process_time() + 0.2\nwhile time.process_time() < end: pass")
    usage = bench_pairs.run_child([sys.executable, "-c", code], tmp_path)
    assert set(usage) == {"minor_faults", "user_s", "sys_s"}
    assert usage["minor_faults"] > 9000
    assert usage["user_s"] + usage["sys_s"] >= 0.2
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.run_child([sys.executable, "-c", "raise SystemExit(3)"], tmp_path)
