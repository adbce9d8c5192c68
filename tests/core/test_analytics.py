"""Savings/throughput analytics tests."""

import pytest

from repro.core.analytics import (
    RunTiming,
    compute_savings,
)
from repro.reads.library import LibraryType


def timing(acc, lib, actual, full, terminated):
    return RunTiming(
        accession=acc,
        library=lib,
        star_seconds_actual=actual,
        star_seconds_if_full=full,
        terminated=terminated,
    )


class TestRunTiming:
    def test_actual_exceeding_full_rejected(self):
        with pytest.raises(ValueError):
            timing("a", LibraryType.BULK_POLYA, 100, 50, True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            timing("a", LibraryType.BULK_POLYA, -1, 50, False)


class TestComputeSavings:
    def make(self):
        return compute_savings(
            [
                timing("a", LibraryType.BULK_POLYA, 3600, 3600, False),
                timing("b", LibraryType.BULK_POLYA, 3600, 3600, False),
                timing("c", LibraryType.SINGLE_CELL_3P, 360, 3600, True),
            ]
        )

    def test_totals(self):
        s = self.make()
        assert s.n_runs == 3
        assert s.n_terminated == 1
        assert s.total_hours_if_full == pytest.approx(3.0)
        assert s.total_hours_actual == pytest.approx(2.1)
        assert s.hours_saved == pytest.approx(0.9)
        assert s.saving_fraction == pytest.approx(0.3)
        assert s.terminated_fraction == pytest.approx(1 / 3)

    def test_library_attribution(self):
        s = self.make()
        assert s.terminated_libraries[LibraryType.SINGLE_CELL_3P] == 1
        assert s.terminated_libraries[LibraryType.BULK_POLYA] == 0
        assert s.all_terminated_single_cell()

    def test_bulk_termination_flagged(self):
        s = compute_savings(
            [timing("a", LibraryType.BULK_POLYA, 100, 1000, True)]
        )
        assert not s.all_terminated_single_cell()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_savings([])

    def test_text_report(self):
        text = self.make().to_text()
        assert "terminated early: 1" in text
        assert "30.0%" in text
        assert "single_cell_3p: 1" in text

