"""``tools/bench_pairs.py``'s summary on synthetic runs: which direction is
better and each bound come from BENCHMARK.json's ``end_to_end`` list."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RULES = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def run(seed, side, rounds, run_s, ops_per_s, peak_rss_mb, trace=0, tag=""):
    values = {"run_s": run_s, "ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb}
    return {"workload": "query-mix", "seed": seed, "side": side, "trace": trace,
            "tag": tag, "first": True, "rounds": rounds,
            "result": {"metrics": {k: {"unit": "", "value": v}
                                   for k, v in values.items()}}}


def test_summary_reads_direction_and_bound_from_the_rules():
    runs = [
        run(1, "parent", 10, 2.0, 100.0, 40.0), run(1, "change", 12, 1.5, 120.0, 44.0),
        run(2, "parent", 10, 2.0, 100.0, 40.0), run(2, "change", 14, 1.6, 110.0, 45.0),
        run(3, "parent", 12, 2.2, 90.0, 40.0), run(3, "change", 16, 2.3, 80.0, 46.0),
        run(4, "change", 9, 9.0, 1.0, 99.0),  # no partner: left out
        run(1, "parent", 1, 9.0, 1.0, 99.0, trace=1),  # traced: left out
    ]
    table = bench_pairs.summarize(runs, RULES)["query-mix"]
    assert table["pairs"] == 3
    assert table["rounds"] == {"parent": 10, "change": 14}
    assert table["run_s"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.1}
    assert table["run_s"]["change_wins"] == 2
    assert table["run_s"]["worse_by"] == pytest.approx(-0.2)
    assert table["run_s"]["within_bound"] is True
    assert table["ops_per_s"]["change_wins"] == 2
    assert table["ops_per_s"]["worse_by"] == pytest.approx(-0.1)
    # lower is better: medians 40 -> 45 MB are 12.5 % worse, past the 0.1 bound
    assert table["peak_rss_mb"]["change_wins"] == 0
    assert table["peak_rss_mb"]["worse_by"] == pytest.approx(0.125)
    assert table["peak_rss_mb"]["within_bound"] is False


def test_summary_takes_the_flipped_rule():
    runs = [run(1, "parent", 1, 2.0, 100.0, 40.0), run(1, "change", 1, 1.0, 50.0, 40.0)]
    flipped = [dict(r, better="higher" if r["better"] == "lower" else "lower")
               for r in RULES]
    table = bench_pairs.summarize(runs, flipped)["query-mix"]
    assert table["run_s"]["worse_by"] == pytest.approx(0.5)
    assert table["run_s"]["within_bound"] is False
    assert table["ops_per_s"]["worse_by"] == pytest.approx(-0.5)


def test_every_declared_metric_has_a_direction_and_a_bound():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert all(m["better"] in ("lower", "higher") and m["bound"] > 0 for m in declared)
