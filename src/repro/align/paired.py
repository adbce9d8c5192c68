"""Paired-end alignment on top of the single-read STAR-like core.

STAR aligns mates jointly; this implementation takes the standard
two-phase approximation — align each mate with the single-read machinery,
then *pair* the placements: a proper pair has both mates on the same
contig, on opposite strands, in inward-facing (FR) orientation, with a
template length within configured bounds.  Pair-level classification and
GeneCounts count each *pair* once, as STAR does with ``--quantMode
GeneCounts`` on paired data.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.align.counts import GeneCounts
from repro.align.merge import RunAccumulator, in_process, merge_shards
from repro.align.progress import FinalLogStats, ProgressRecord
from repro.align.star import (
    ReadAlignment,
    AlignmentStatus,
    StarAligner,
)
from repro.genome.annotation import Strand
from repro.reads.fastq import FastqRecord
from repro.util.validation import check_positive


class PairStatus(enum.Enum):
    """Pair-level classification."""

    PROPER_PAIR = "proper_pair"  # both unique, FR orientation, TLEN in bounds
    DISCORDANT = "discordant"  # both mapped uniquely, geometry wrong
    ONE_MATE = "one_mate"  # exactly one mate mapped uniquely
    MULTIMAPPED = "multimapped"  # either mate multimapped (no unique pair)
    UNMAPPED = "unmapped"  # neither mate mapped

    @property
    def is_mapped(self) -> bool:
        """Counts toward the progress mapping rate (STAR counts pairs with
        at least a unique or multi placement)."""
        return self in (
            PairStatus.PROPER_PAIR,
            PairStatus.DISCORDANT,
            PairStatus.ONE_MATE,
            PairStatus.MULTIMAPPED,
        )


@dataclass(frozen=True)
class PairedParameters:
    """Pairing geometry (STAR option analogues)."""

    #: accepted template length range (``--alignMatesGapMax`` spirit)
    min_template: int = 50
    max_template: int = 2000
    progress_every: int = 500
    quant_gene_counts: bool = True

    def __post_init__(self) -> None:
        check_positive("min_template", self.min_template)
        if self.max_template < self.min_template:
            raise ValueError("max_template must be >= min_template")
        check_positive("progress_every", self.progress_every)


@dataclass(frozen=True)
class PairedOutcome:
    """Result of aligning one read pair."""

    pair_id: str
    status: PairStatus
    mate1: ReadAlignment
    mate2: ReadAlignment
    template_length: int | None = None

    @property
    def contig(self) -> str | None:
        if self.mate1.blocks:
            return self.mate1.blocks[0].contig
        if self.mate2.blocks:
            return self.mate2.blocks[0].contig
        return None


@dataclass
class PairedRunResult:
    """Whole-run output for a paired sample."""

    outcomes: list[PairedOutcome]
    progress: list[ProgressRecord]
    final: FinalLogStats
    gene_counts: GeneCounts | None
    aborted: bool

    @property
    def proper_pair_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return (
            sum(o.status is PairStatus.PROPER_PAIR for o in self.outcomes)
            / len(self.outcomes)
        )

    @property
    def mapped_fraction(self) -> float:
        return self.final.mapped_fraction

    def template_lengths(self) -> list[int]:
        """TLENs of proper pairs (insert-size distribution)."""
        return [
            o.template_length
            for o in self.outcomes
            if o.status is PairStatus.PROPER_PAIR and o.template_length
        ]


class PairedTally:
    """The ``Log.final.out`` counters of a paired-end run, per pair.

    The per-layout strategy a :class:`~repro.align.merge.RunAccumulator`
    merges paired shards with; :meth:`count` is the per-pair GeneCounts
    rule, shared by the run and the engine's shard helper.  STAR's paired
    log has no too-many-loci bucket or mismatch rate, so both stay 0.
    """

    result_type = PairedRunResult
    too_many_loci = 0
    mismatch_rate = 0.0

    def __init__(self) -> None:
        self.mapped_unique = 0
        self.mapped_multi = 0
        self.unmapped = 0
        self.spliced_reads = 0

    def add(
        self,
        shard: tuple[list[FastqRecord], list[FastqRecord]],
        outcomes: list[PairedOutcome],
        start: int,
        stop: int,
    ) -> None:
        """Count the pairs ``outcomes[start:stop]``."""
        for outcome in outcomes[start:stop]:
            if outcome.status is PairStatus.MULTIMAPPED:
                self.mapped_multi += 1
            elif outcome.status is PairStatus.UNMAPPED:
                self.unmapped += 1
            else:  # proper, one-mate and discordant pairs count as unique
                self.mapped_unique += 1
            if outcome.mate1.spliced or outcome.mate2.spliced:
                self.spliced_reads += 1

    @staticmethod
    def count(counts: GeneCounts, outcome: PairedOutcome) -> None:
        """GeneCounts bookkeeping for one pair: a proper pair counts its
        joint blocks once, a one-mate pair its unique mate's blocks."""
        if outcome.status is PairStatus.PROPER_PAIR:
            blocks = list(outcome.mate1.blocks) + list(outcome.mate2.blocks)
            counts.record_unique(blocks, outcome.mate1.strand)
        elif outcome.status is PairStatus.ONE_MATE:
            unique = (
                outcome.mate1
                if outcome.mate1.status is AlignmentStatus.UNIQUE
                else outcome.mate2
            )
            counts.record_unique(list(unique.blocks), unique.strand)
        elif outcome.status in (PairStatus.DISCORDANT, PairStatus.MULTIMAPPED):
            counts.record_multimapped()
        else:
            counts.record_unmapped()


def _span(outcome: ReadAlignment) -> tuple[int, int] | None:
    """(start, end) of an outcome's footprint on its contig."""
    if not outcome.blocks:
        return None
    return outcome.blocks[0].start, outcome.blocks[-1].end


class PairedStarAligner:
    """Paired-end façade over a single-read :class:`StarAligner`."""

    def __init__(
        self,
        aligner: StarAligner,
        parameters: PairedParameters | None = None,
    ) -> None:
        self.aligner = aligner
        self.parameters = parameters or PairedParameters()

    def classify_pair(
        self, m1: ReadAlignment, m2: ReadAlignment
    ) -> tuple[PairStatus, int | None]:
        """Pair two mate outcomes into a status and template length."""
        u1 = m1.status is AlignmentStatus.UNIQUE
        u2 = m2.status is AlignmentStatus.UNIQUE
        mapped1 = m1.status.is_mapped
        mapped2 = m2.status.is_mapped
        if not mapped1 and not mapped2:
            return PairStatus.UNMAPPED, None
        if u1 and u2:
            s1, s2 = _span(m1), _span(m2)
            same_contig = (
                m1.blocks[0].contig == m2.blocks[0].contig
            )
            opposite = (
                m1.strand is not None
                and m2.strand is not None
                and m1.strand is not m2.strand
            )
            if same_contig and opposite and s1 and s2:
                left, right = (s1, s2) if s1[0] <= s2[0] else (s2, s1)
                tlen = right[1] - left[0]
                # FR orientation: the leftmost mate must be the forward one
                forward_first = (
                    (m1.strand is Strand.FORWARD and s1[0] <= s2[0])
                    or (m2.strand is Strand.FORWARD and s2[0] <= s1[0])
                )
                if (
                    forward_first
                    and self.parameters.min_template
                    <= tlen
                    <= self.parameters.max_template
                ):
                    return PairStatus.PROPER_PAIR, tlen
            return PairStatus.DISCORDANT, None
        if (u1 and not mapped2) or (u2 and not mapped1):
            return PairStatus.ONE_MATE, None
        return PairStatus.MULTIMAPPED, None

    def align_pair(
        self, record1: FastqRecord, record2: FastqRecord
    ) -> PairedOutcome:
        """Align both mates and pair them."""
        m1 = self.aligner.align_read(record1)
        m2 = self.aligner.align_read(record2)
        return self._pair_outcome(record1, m1, m2)

    def _pair_batch(
        self, batch: tuple[list[FastqRecord], list[FastqRecord]]
    ) -> list[PairedOutcome]:
        """Align one shard's mate lists through the batch core, then pair
        them one pair at a time."""
        mates1 = self.aligner.align_batch(batch[0])
        mates2 = self.aligner.align_batch(batch[1])
        return [
            self._pair_outcome(r1, m1, m2)
            for r1, m1, m2 in zip(batch[0], mates1, mates2)
        ]

    def _pair_outcome(
        self, record1: FastqRecord, m1: ReadAlignment, m2: ReadAlignment
    ) -> PairedOutcome:
        """Pair two already-aligned mate outcomes."""
        status, tlen = self.classify_pair(m1, m2)
        pair_id = record1.read_id.rsplit("/", 1)[0]
        return PairedOutcome(
            pair_id=pair_id, status=status, mate1=m1, mate2=m2,
            template_length=tlen,
        )

    def _gene_counts(self) -> GeneCounts | None:
        """A fresh GeneCounts, or None when quantification is off."""
        annotation = self.aligner.index.annotation
        if self.parameters.quant_gene_counts and annotation is not None:
            return GeneCounts(annotation)
        return None

    def _accumulator(
        self,
        pairs_total: int,
        monitor: Callable[[ProgressRecord], bool] | None,
        clock: Callable[[], float],
    ) -> RunAccumulator:
        """Fresh paired-end run state for ``pairs_total`` pairs."""
        return RunAccumulator(
            PairedTally(),
            reads_total=pairs_total,
            progress_every=self.parameters.progress_every,
            counts=self._gene_counts(),
            monitor=monitor,
            clock=clock,
        )

    def run(
        self,
        mate1: list[FastqRecord],
        mate2: list[FastqRecord],
        *,
        monitor: Callable[[ProgressRecord], bool] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> PairedRunResult:
        """Align a paired sample with progress reporting and early abort.

        Progress counts *pairs*; the monitor hook and abort semantics match
        the single-end driver, so :class:`~repro.core.early_stopping.
        EarlyStopMonitor` plugs in unchanged.
        """
        if len(mate1) != len(mate2):
            raise ValueError("mate lists must have equal length")
        # same shards as the single-end driver: both mate lists go
        # through the batch core one shard at a time
        size = self.aligner._shard_reads()
        shards = (
            (mate1[start : start + size], mate2[start : start + size])
            for start in range(0, len(mate1), size)
        )
        return merge_shards(
            self._accumulator(len(mate1), monitor, clock),
            shards,
            in_process(lambda shard: (self._pair_batch(shard), None, None)),
        )
