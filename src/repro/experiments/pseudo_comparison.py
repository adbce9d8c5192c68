"""EXT-PSEUDO: applicability of early stopping to other aligners.

The paper's conclusions: "other (pseudo)aligners should also provide the
current mapping rate value (e.g. Salmon does not)" and "further research
will measure applicability of those findings for other aligners".  This
experiment does that measurement on the reproduction, in two parts:

1. **Corpus level** (perf models): run the 1000-job corpus through four
   pipeline variants — STAR ± early stopping, pseudo-aligner as shipped
   (no progress stream ⇒ no early stopping), and a *hypothetical*
   progress-enabled pseudo-aligner.  Quantifies the compute the stock
   pseudo-aligner wastes on runs the atlas then rejects, and what adding
   a progress stream would recover.

2. **Mini level** (real tools): align the same bulk and single-cell
   samples with the real suffix-array aligner and the real k-mer
   pseudo-aligner; verify the *finding transfers* — the pseudo-aligner's
   final mapping rate separates the library classes just as STAR's does,
   so a progress stream would make the same early decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.pseudo import PseudoAligner, build_pseudo_index
from repro.align.star import StarAligner, StarParameters
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.genome.ensembl import EnsemblRelease, build_release_assembly, release_spec
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.perf.pseudo_model import PseudoPerfModel
from repro.perf.star_model import StarPerfModel
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator
from repro.util.rng import derive_rng, ensure_rng
from repro.util.tables import Table


@dataclass(frozen=True)
class VariantTotals:
    """One pipeline variant's corpus-level accounting."""

    name: str
    supports_early_stop: bool
    total_hours: float
    wasted_hours: float  # spent on runs the atlas ultimately rejects
    n_terminated: int

    @property
    def useful_hours(self) -> float:
        return self.total_hours - self.wasted_hours


@dataclass
class PseudoComparisonResult:
    """Corpus-level totals for the four variants."""

    variants: dict[str, VariantTotals]
    n_jobs: int
    policy: EarlyStoppingPolicy

    def variant(self, name: str) -> VariantTotals:
        return self.variants[name]

    @property
    def pseudo_waste_fraction(self) -> float:
        """Fraction of stock-pseudo compute spent on rejected runs."""
        stock = self.variant("pseudo-stock")
        return stock.wasted_hours / stock.total_hours

    @property
    def pseudo_recoverable_fraction(self) -> float:
        """Fraction of stock-pseudo time a progress stream would recover."""
        stock = self.variant("pseudo-stock")
        extended = self.variant("pseudo-with-progress")
        return (stock.total_hours - extended.total_hours) / stock.total_hours

    def to_table(self) -> str:
        table = Table(
            ["variant", "early stop", "total h", "wasted h", "terminated"],
            title=(
                f"Early stopping across aligners — {self.n_jobs} runs "
                f"(threshold {100 * self.policy.mapping_threshold:.0f}% "
                f"at {100 * self.policy.check_fraction:.0f}%)"
            ),
        )
        for v in self.variants.values():
            table.add_row(
                [
                    v.name,
                    "yes" if v.supports_early_stop else "NO",
                    f"{v.total_hours:.1f}",
                    f"{v.wasted_hours:.1f}",
                    v.n_terminated,
                ]
            )
        footer = (
            f"\nstock pseudo-aligner wastes "
            f"{100 * self.pseudo_waste_fraction:.1f}% of its compute on "
            f"runs the atlas rejects;\na progress stream would recover "
            f"{100 * self.pseudo_recoverable_fraction:.1f}% of its total time "
            "— the paper's conclusion, quantified."
        )
        return table.render() + footer


def run_pseudo_comparison(
    *,
    spec: CorpusSpec | None = None,
    policy: EarlyStoppingPolicy | None = None,
    rng: int | None = 0,
) -> PseudoComparisonResult:
    """Corpus-level comparison of the four pipeline variants."""
    spec = spec or CorpusSpec()
    policy = policy or EarlyStoppingPolicy()
    root = ensure_rng(rng)
    jobs = generate_corpus(spec, rng=derive_rng(root, "corpus"))
    star_model = StarPerfModel()
    pseudo_model = PseudoPerfModel(star_model=star_model)
    release = release_spec(spec.release)
    noise = derive_rng(root, "noise")

    totals = {
        "star-early-stop": [0.0, 0.0, 0],
        "star-no-early-stop": [0.0, 0.0, 0],
        "pseudo-stock": [0.0, 0.0, 0],
        "pseudo-with-progress": [0.0, 0.0, 0],
    }

    for job in jobs:
        # where would the policy stop this run, if it could see progress?
        stop_fraction = policy.abort_fraction(job.trajectory, n_snapshots=20)
        accepted = policy.accepts_final(job.trajectory.rate_at(1.0))

        star_full = star_model.predict(job.fastq_bytes, release, spec.vcpus, rng=noise)
        pseudo_full = pseudo_model.predict(job.fastq_bytes, spec.vcpus, rng=noise)

        def account(key: str, seconds: float, *, rejected: bool, terminated: bool):
            totals[key][0] += seconds / 3600.0
            if rejected:
                totals[key][1] += seconds / 3600.0
            if terminated:
                totals[key][2] += 1

        # STAR with early stopping: terminated runs pay only the prefix
        if stop_fraction is not None:
            seconds = star_full.setup_seconds + stop_fraction * star_full.full_scan_seconds
            account("star-early-stop", seconds, rejected=True, terminated=True)
        else:
            account("star-early-stop", star_full.total_seconds, rejected=not accepted,
                    terminated=False)
        # STAR without: everything runs to completion
        account("star-no-early-stop", star_full.total_seconds,
                rejected=stop_fraction is not None or not accepted, terminated=False)
        # stock pseudo-aligner: fast, but no progress -> no early stop
        account("pseudo-stock", pseudo_full.total_seconds,
                rejected=stop_fraction is not None or not accepted, terminated=False)
        # hypothetical progress-enabled pseudo-aligner
        if stop_fraction is not None:
            seconds = (
                pseudo_full.setup_seconds
                + stop_fraction * pseudo_full.full_scan_seconds
            )
            account("pseudo-with-progress", seconds, rejected=True, terminated=True)
        else:
            account("pseudo-with-progress", pseudo_full.total_seconds,
                    rejected=not accepted, terminated=False)

    variants = {
        name: VariantTotals(
            name=name,
            supports_early_stop=name in ("star-early-stop", "pseudo-with-progress"),
            total_hours=vals[0],
            wasted_hours=vals[1],
            n_terminated=vals[2],
        )
        for name, vals in totals.items()
    }
    return PseudoComparisonResult(variants=variants, n_jobs=len(jobs), policy=policy)


@dataclass
class TransferabilityResult:
    """Mini-level check that the finding transfers to the real pseudo-aligner."""

    star_bulk_rate: float
    star_sc_rate: float
    pseudo_bulk_rate: float
    pseudo_sc_rate: float
    threshold: float

    @property
    def star_separates(self) -> bool:
        return self.star_sc_rate < self.threshold < self.star_bulk_rate

    @property
    def pseudo_separates(self) -> bool:
        return self.pseudo_sc_rate < self.threshold < self.pseudo_bulk_rate

    def to_table(self) -> str:
        table = Table(
            ["aligner", "bulk mapped %", "single-cell mapped %", "separates @30%?"],
            title="Transferability: final mapping rates, real aligners",
        )
        table.add_row(
            ["STAR-like", f"{100 * self.star_bulk_rate:.1f}",
             f"{100 * self.star_sc_rate:.1f}", "yes" if self.star_separates else "NO"]
        )
        table.add_row(
            ["pseudo (Salmon-like)", f"{100 * self.pseudo_bulk_rate:.1f}",
             f"{100 * self.pseudo_sc_rate:.1f}",
             "yes" if self.pseudo_separates else "NO"]
        )
        return table.render()


def run_transferability(
    *,
    n_reads: int = 300,
    seed: int = 11,
    threshold: float = 0.30,
    cache_dir=None,
) -> TransferabilityResult:
    """Real-tool check: does the pseudo-aligner's rate separate classes too?"""
    rng = ensure_rng(seed)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(universe, EnsemblRelease.R111, rng=1)
    simulator = ReadSimulator(assembly, universe.annotation)
    bulk = simulator.simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=n_reads, read_length=80),
        rng=derive_rng(rng, "bulk"),
    )
    sc = simulator.simulate(
        SampleProfile(LibraryType.SINGLE_CELL_3P, n_reads=n_reads, read_length=80),
        rng=derive_rng(rng, "sc"),
    )

    from repro.align.cache import cached_genome_generate

    star = StarAligner(
        cached_genome_generate(assembly, universe.annotation, cache_dir=cache_dir),
        StarParameters(progress_every=1000),
    )
    pseudo = PseudoAligner(build_pseudo_index(assembly, universe.annotation))

    return TransferabilityResult(
        star_bulk_rate=star.run(bulk.records).mapped_fraction,
        star_sc_rate=star.run(sc.records).mapped_fraction,
        pseudo_bulk_rate=pseudo.run(bulk.records).mapped_fraction,
        pseudo_sc_rate=pseudo.run(sc.records).mapped_fraction,
        threshold=threshold,
    )
