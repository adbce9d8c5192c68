"""The verdict rule of ``benchmarks/perf_pairs.py`` on synthetic samples."""

import pytest

from benchmarks.perf_pairs import parse_seeds, quartiles, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def shifted(samples, delta):
    return [x + delta for x in samples]


class TestVerdict:
    def test_gain_needs_nine_tenths_of_wins_and_a_gap_past_the_iqr(self):
        v = verdict(PARENT, shifted(PARENT, 10.0), "higher", 0.25)
        assert v.verdict == "gain"
        assert (v.wins, v.pairs) == (10, 10)
        assert v.change[0] == pytest.approx(v.parent[0] + 10.0)

    def test_lower_is_better_flips_the_sign(self):
        v = verdict(PARENT, shifted(PARENT, -10.0), "lower", 0.25)
        assert v.verdict == "gain"
        assert verdict(PARENT, shifted(PARENT, 10.0), "lower", 0.05).verdict == (
            "regression"
        )

    def test_eight_wins_in_ten_is_no_gain(self):
        change = shifted(PARENT, 10.0)
        change[0] = PARENT[0] - 1.0
        change[1] = PARENT[1]  # a tie counts for neither side
        v = verdict(PARENT, change, "higher", 0.25)
        assert v.wins == 8
        assert v.verdict == "within bound"

    def test_a_gap_inside_the_parent_iqr_is_no_gain(self):
        p_median, p_q1, p_q3 = quartiles(PARENT)
        v = verdict(PARENT, shifted(PARENT, (p_q3 - p_q1) / 2), "higher", 0.25)
        assert v.wins == 10
        assert v.verdict == "within bound"

    def test_worse_than_the_bound_is_a_regression(self):
        v = verdict(PARENT, shifted(PARENT, -30.0), "higher", 0.25)
        assert v.verdict == "regression"
        assert v.wins == 0

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50.0, 150.0, 100.0, 60.0, 140.0, 90.0]
        change = [140.0, 60.0, 95.0, 150.0, 55.0, 100.0]
        assert verdict(parent, change, "higher", 0.25).verdict == "unresolved"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [50.0, 60.0, 55.0, 58.0]
        change = [100.0, 150.0, 61.0, 120.0]
        v = verdict(parent, change, "higher", 0.1)
        assert v.verdict in ("gain", "within bound")
        assert v.verdict != "unresolved"

    def test_unpaired_samples_are_rejected(self):
        with pytest.raises(ValueError):
            verdict([1.0, 2.0], [1.0], "higher", 0.25)


def test_parse_seeds():
    assert parse_seeds("41-44") == [41, 42, 43, 44]
    assert parse_seeds("7") == [7]
