"""The pure parts of ``tools/ab_bench.py``: the per-side outcomes and the per-metric report."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def result(metrics: dict[str, float], failed=0, attempted=4, correct=True) -> dict:
    """One ``bench/run.py`` result line, as the tool parses it."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value} for name, value in metrics.items()}}


def wins_line(lines: list[str], metric: str, offset: int = 2) -> str:
    """The summary line that follows ``metric``'s two quartile rows (``offset`` 3: the claim-rule line)."""
    at = next(i for i, line in enumerate(lines) if line.startswith(metric))
    return lines[at + offset]


def test_outcomes_sum_failures_and_count_incorrect_runs():
    runs = {
        "base": [result({}, failed=1), result({}, failed=2, correct=False)],
        "change": [result({}), result({})],
    }
    assert ab_bench.outcomes(runs) == [
        "base: 3/8 operations failed; 1/2 runs not correct",
        "change: 0/8 operations failed; 0/2 runs not correct",
    ]


def test_directions_are_read_from_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = ab_bench.lower_is_better(spec)
    assert set(directions) == {m["name"] for m in spec["end_to_end"]}
    assert directions["run_s"] and directions["peak_rss_mb"]
    assert not directions["subset_acc"]


def test_report_counts_wins_in_the_better_direction_and_ties_for_neither():
    directions = ab_bench.lower_is_better(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    base = [(1.0, 0.8), (1.0, 0.8), (1.0, 0.8), (1.0, 0.8)]
    change = [(0.5, 0.9), (2.0, 0.7), (1.0, 0.8), (0.5, 0.9)]  # a win, a loss, a tie, a win on both metrics
    runs = {
        side: [result({"run_s": r, "subset_acc": a}) for r, a in pairs]
        for side, pairs in (("base", base), ("change", change))
    }
    lines = ab_bench.report(runs, directions)
    assert wins_line(lines, "run_s").endswith("change won 2/4 pairs (lower is better)")
    assert wins_line(lines, "subset_acc").endswith("change won 2/4 pairs (higher is better)")
    assert "change/base median 0.7500" in wins_line(lines, "run_s")  # median of 0.5, 0.5, 1.0, 2.0
    flipped = ab_bench.report(runs, {name: not lower for name, lower in directions.items()})
    assert wins_line(flipped, "run_s").endswith("change won 1/4 pairs (higher is better)")


def test_report_of_identical_sides_counts_no_win():
    runs = {side: [result({"run_s": 0.1}) for _ in range(3)] for side in ("base", "change")}
    lines = ab_bench.report(runs, {"run_s": True})
    assert wins_line(lines, "run_s").endswith("change/base median 1.0000; change won 0/3 pairs (lower is better)")


def claim_line(base: list[float], change: list[float], lower: bool = True) -> str:
    runs = {side: [result({"run_s": v}) for v in values] for side, values in (("base", base), ("change", change))}
    return wins_line(ab_bench.report(runs, {"run_s": lower}), "run_s", offset=3).strip()


def test_claim_rule_needs_nine_wins_in_ten_and_a_gain_beyond_the_base_spread():
    base = [1.0, 1.1] * 5  # median 1.05, q1-q3 spread 0.1
    assert claim_line(base, [v - 0.2 for v in base]) == (
        "claim rule met: 10/10 pairs won (9 in 10 needed), median gain 0.2 against the base's q1-q3 spread 0.1")
    nine = [v - 0.2 for v in base[:9]] + [2.0]
    assert claim_line(base, nine).startswith("claim rule met: 9/10 pairs won")
    eight = [v - 0.2 for v in base[:8]] + [2.0, 2.0]
    assert claim_line(base, eight).startswith("claim rule not met: 8/10 pairs won")
    # every pair won, but by less than the base's own spread
    assert claim_line(base, [v - 0.05 for v in base]).startswith("claim rule not met: 10/10 pairs won")


def test_claim_rule_reads_the_better_direction():
    base = [1.0] * 10
    assert claim_line(base, [1.5] * 10, lower=False).startswith("claim rule met: 10/10")
    assert claim_line(base, [1.5] * 10, lower=True).startswith("claim rule not met: 0/10")
    assert claim_line(base, base).startswith("claim rule not met: 0/10")  # no gain beats a zero spread
