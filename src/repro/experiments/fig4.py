"""Figure 4: time savings due to early stopping.

Follows the paper's methodology exactly: take the corpus's 1000 runs,
*replay* the early-stopping policy over each run's ``Log.progress.out``
stream (synthesized from its mapping trajectory), and tally where
termination would have happened and how much compute it makes unnecessary
(the figure's yellow bars).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.progress import ProgressRecord
from repro.core.analytics import EarlyStopSavings, RunTiming, compute_savings
from repro.core.early_stopping import EarlyStoppingPolicy, replay_policy
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.genome.ensembl import release_spec
from repro.perf.star_model import StarPerfModel
from repro.util.rng import derive_rng, ensure_rng
from repro.util.tables import Table
from repro.util.units import GIB


@dataclass(frozen=True)
class Fig4Row:
    """One run's replay outcome."""

    accession: str
    library: str
    fastq_bytes: float
    terminal_rate: float
    terminated: bool
    stop_fraction: float | None
    star_seconds_full: float
    star_seconds_actual: float

    @property
    def seconds_saved(self) -> float:
        """The yellow bar: compute that early stopping makes unnecessary."""
        return self.star_seconds_full - self.star_seconds_actual


@dataclass
class Fig4Result:
    """Replay results plus the aggregates §III-B quotes."""

    rows: list[Fig4Row]
    policy: EarlyStoppingPolicy

    @property
    def savings(self) -> EarlyStopSavings:
        from repro.reads.library import LibraryType

        timings = [
            RunTiming(
                accession=r.accession,
                library=LibraryType(r.library),
                star_seconds_actual=r.star_seconds_actual,
                star_seconds_if_full=r.star_seconds_full,
                terminated=r.terminated,
            )
            for r in self.rows
        ]
        return compute_savings(timings)

    @property
    def terminated_rows(self) -> list["Fig4Row"]:
        return [r for r in self.rows if r.terminated]

    @property
    def false_terminations(self) -> int:
        """Terminated runs that would actually have passed the final bar."""
        return sum(
            1
            for r in self.terminated_rows
            if r.terminal_rate >= self.policy.mapping_threshold
        )

    def to_table(self, *, max_rows: int = 40) -> str:
        table = Table(
            ["run", "library", "GiB", "final map%", "stopped at", "saved h"],
            title=(
                "Fig. 4 — early-stopping replay "
                f"(threshold {100 * self.policy.mapping_threshold:.0f}% "
                f"at {100 * self.policy.check_fraction:.0f}% of reads)"
            ),
        )
        for r in self.terminated_rows[:max_rows]:
            table.add_row(
                [
                    r.accession,
                    r.library,
                    f"{r.fastq_bytes / GIB:.0f}",
                    f"{100 * r.terminal_rate:.1f}",
                    f"{100 * (r.stop_fraction or 0):.0f}%",
                    f"{r.seconds_saved / 3600:.2f}",
                ]
            )
        return table.render() + "\n\n" + self.savings.to_text()


def run_fig4(
    *,
    spec: CorpusSpec | None = None,
    policy: EarlyStoppingPolicy | None = None,
    star_model: StarPerfModel | None = None,
    rng: int | None = 0,
) -> Fig4Result:
    """Regenerate Figure 4: corpus → progress replay → savings."""
    spec = spec or CorpusSpec()
    policy = policy or EarlyStoppingPolicy()
    model = star_model or StarPerfModel()
    root = ensure_rng(rng)
    jobs = generate_corpus(spec, star_model=model, rng=derive_rng(root, "corpus"))
    noise = derive_rng(root, "runtime-noise")
    release = release_spec(spec.release)

    rows: list[Fig4Row] = []
    for job in jobs:
        records: list[ProgressRecord] = job.trajectory.to_progress_records(
            total_reads=job.n_reads
        )
        terminated, at = replay_policy(policy, records)
        full = model.predict(
            job.fastq_bytes, release, spec.vcpus, rng=noise
        )
        if terminated and at is not None:
            stop_fraction = at.processed_fraction
            actual = full.setup_seconds + stop_fraction * full.full_scan_seconds
        else:
            stop_fraction = None
            actual = full.total_seconds
        rows.append(
            Fig4Row(
                accession=job.accession,
                library=job.library.value,
                fastq_bytes=job.fastq_bytes,
                terminal_rate=job.trajectory.terminal_rate,
                terminated=terminated,
                stop_fraction=stop_fraction,
                star_seconds_full=full.total_seconds,
                star_seconds_actual=actual,
            )
        )
    return Fig4Result(rows=rows, policy=policy)
