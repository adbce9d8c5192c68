"""Early-stopping savings analytics for the figures.

Turns per-run records (from the local pipeline, the cloud simulation, or
the offline corpus replay) into the aggregate quantities the paper
reports: total STAR hours, hours saved by early stopping, terminated-run
counts, and per-library breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reads.library import LibraryType
from repro.util.units import to_hours


@dataclass(frozen=True)
class RunTiming:
    """Minimal per-run input: what it cost and what it would have cost."""

    accession: str
    library: LibraryType
    star_seconds_actual: float
    star_seconds_if_full: float
    terminated: bool

    def __post_init__(self) -> None:
        if self.star_seconds_actual < 0 or self.star_seconds_if_full < 0:
            raise ValueError("negative run time")
        if self.star_seconds_actual > self.star_seconds_if_full + 1e-9:
            raise ValueError("actual time cannot exceed the full-run time")


@dataclass(frozen=True)
class EarlyStopSavings:
    """The Fig. 4 aggregate: who was terminated and what it saved."""

    n_runs: int
    n_terminated: int
    total_hours_if_full: float
    total_hours_actual: float
    terminated_libraries: dict[LibraryType, int]

    @property
    def hours_saved(self) -> float:
        return self.total_hours_if_full - self.total_hours_actual

    @property
    def saving_fraction(self) -> float:
        if self.total_hours_if_full <= 0:
            return 0.0
        return self.hours_saved / self.total_hours_if_full

    @property
    def terminated_fraction(self) -> float:
        return self.n_terminated / self.n_runs if self.n_runs else 0.0

    def all_terminated_single_cell(self) -> bool:
        """The paper's observation: terminated inputs were single-cell data."""
        return all(
            lib.is_single_cell or count == 0
            for lib, count in self.terminated_libraries.items()
        )

    def to_text(self) -> str:
        lines = [
            f"Runs: {self.n_runs}, terminated early: {self.n_terminated} "
            f"({100 * self.terminated_fraction:.1f}%)",
            f"Total STAR time without early stopping: "
            f"{self.total_hours_if_full:.1f} h",
            f"Total STAR time with early stopping:    "
            f"{self.total_hours_actual:.1f} h",
            f"Saved: {self.hours_saved:.1f} h "
            f"({100 * self.saving_fraction:.1f}%)",
        ]
        for lib, count in sorted(
            self.terminated_libraries.items(), key=lambda kv: kv[0].value
        ):
            if count:
                lines.append(f"  terminated {lib.value}: {count}")
        return "\n".join(lines)


def compute_savings(timings: list[RunTiming]) -> EarlyStopSavings:
    """Aggregate per-run timings into the Fig. 4 numbers."""
    if not timings:
        raise ValueError("no runs")
    terminated_by_lib: dict[LibraryType, int] = {lib: 0 for lib in LibraryType}
    for t in timings:
        if t.terminated:
            terminated_by_lib[t.library] += 1
    return EarlyStopSavings(
        n_runs=len(timings),
        n_terminated=sum(t.terminated for t in timings),
        total_hours_if_full=to_hours(sum(t.star_seconds_if_full for t in timings)),
        total_hours_actual=to_hours(sum(t.star_seconds_actual for t in timings)),
        terminated_libraries=terminated_by_lib,
    )
