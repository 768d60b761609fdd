"""The A/B script's verdict on synthetic runs, imported from tools/ by path."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_nine_wins_in_ten_pairs_with_separated_medians_is_a_gain():
    change = [p + 10 for p in PARENT]
    change[0] = 90.0
    assert ab_bench.verdict(PARENT, change, "higher", 0.2) == (9, "gain")


def test_six_wins_in_six_pairs_is_not_a_gain():
    parent = PARENT[:6]
    change = [p + 10 for p in parent]
    assert ab_bench.verdict(parent, change, "higher", 0.2) == (6, "within bound")


def test_a_median_worse_past_the_bound_is_worse():
    assert ab_bench.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.2) == (0, "worse")
    assert ab_bench.verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.2) == (0, "worse")
