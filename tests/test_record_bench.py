"""The summary of ``tools/record_bench.py`` on fixed input; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def result(op_cost, setup_s=0.3, peak_rss_mb=38.0, ok_rate=1.0, correct=True):
    values = {"op_cost": op_cost, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ok_rate": ok_rate}
    return {"correct": correct, "attempted": 5, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


@pytest.mark.parametrize("values, want", [
    ([5.0, 1.0, 4.0, 2.0, 3.0], {"median": 3.0, "q1": 2.0, "q3": 4.0}),
    ([4.0, 1.0, 3.0, 2.0], {"median": 2.5, "q1": 1.75, "q3": 3.25}),
    ([1.0, 2.0], {"median": 1.5, "q1": 1.25, "q3": 1.75}),
    ([7.0], {"median": 7.0, "q1": 7.0, "q3": 7.0}),
])
def test_quartiles(values, want):
    assert record_bench.quartiles(values) == want


def test_summarize_pairs_in_seed_order():
    runs = {
        "parent": [result(10.0), result(12.0), result(11.0), result(9.0), result(13.0)],
        "change": [result(4.0), result(5.0, setup_s=0.4), result(4.5), result(9.5), result(3.0)],
    }
    out = record_bench.summarize(runs)
    assert out["parent"]["op_cost"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert out["change"]["op_cost"] == {"median": 4.5, "q1": 4.0, "q3": 5.0}
    assert out["change"]["setup_s"]["median"] == 0.3
    assert out["change"]["ok_rate"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert out["op_cost_change_lower"] == "4/5"  # 9.5 > 9.0 in the fourth pair
    assert out["all_correct"]


def test_summarize_reports_an_incorrect_run():
    runs = {"parent": [result(1.0), result(1.0)], "change": [result(1.0), result(1.0, correct=False)]}
    out = record_bench.summarize(runs)
    assert not out["all_correct"]
    assert out["op_cost_change_lower"] == "0/2"
