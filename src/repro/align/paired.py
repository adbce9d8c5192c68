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

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.align.counts import GeneCounts, GeneCountsPartial, partial_from_blocks
from repro.align.merge import RunAccumulator, in_process, merge_shards
from repro.align.outcome import (
    DISCORDANT,
    FORWARD,
    MULTIMAPPED,
    ONE_MATE,
    PAIR_MULTIMAPPED,
    PAIR_UNMAPPED,
    PROPER_PAIR,
    UNIQUE,
    OutcomeBatch,
    PairedOutcome,
    PairedOutcomeBatch,
    PairStatus,
    pair_id_of,
)
from repro.align.progress import FinalLogStats, ProgressRecord
from repro.align.star import (
    ReadAlignment,
    AlignmentStatus,
    StarAligner,
)
from repro.genome.annotation import Annotation, Strand
from repro.reads.fastq import FastqRecord, ReadBatch
from repro.util.validation import check_positive


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


@dataclass
class PairedRunResult:
    """Whole-run output for a paired sample."""

    outcomes: PairedOutcomeBatch
    progress: list[ProgressRecord]
    final: FinalLogStats
    gene_counts: GeneCounts | None
    aborted: bool

    @property
    def proper_pair_fraction(self) -> float:
        if not len(self.outcomes):
            return 0.0
        proper = self.outcomes.status == PROPER_PAIR
        return int(np.count_nonzero(proper)) / len(self.outcomes)

    @property
    def mapped_fraction(self) -> float:
        return self.final.mapped_fraction

    def template_lengths(self) -> list[int]:
        """TLENs of proper pairs (insert-size distribution)."""
        tlen = self.outcomes.template_length
        return tlen[(self.outcomes.status == PROPER_PAIR) & (tlen > 0)].tolist()


class PairedTally:
    """The ``Log.final.out`` counters of a paired-end run, per pair.

    The per-layout strategy a :class:`~repro.align.merge.RunAccumulator`
    merges paired shards with: :meth:`add` counts a batch of pairs, and
    :meth:`gene_partial` is the per-pair GeneCounts rule, shared by the
    run and the engine's shard helper.  STAR's paired log has no
    too-many-loci bucket or mismatch rate, so both stay 0.
    """

    result_type = PairedRunResult
    batch_type = PairedOutcomeBatch
    too_many_loci = 0
    mismatch_rate = 0.0

    def __init__(self) -> None:
        self.mapped_unique = 0
        self.mapped_multi = 0
        self.unmapped = 0
        self.spliced_reads = 0

    def add(self, outcomes: PairedOutcomeBatch) -> None:
        """Count a batch of pairs."""
        buckets = np.bincount(outcomes.status, minlength=PAIR_UNMAPPED + 1).tolist()
        self.mapped_multi += buckets[PAIR_MULTIMAPPED]
        self.unmapped += buckets[PAIR_UNMAPPED]
        # proper, one-mate and discordant pairs count as unique
        self.mapped_unique += (
            len(outcomes) - buckets[PAIR_MULTIMAPPED] - buckets[PAIR_UNMAPPED]
        )
        self.spliced_reads += int(
            np.count_nonzero(outcomes.mate1.spliced | outcomes.mate2.spliced)
        )

    @staticmethod
    def gene_partial(
        annotation: Annotation, outcomes: PairedOutcomeBatch
    ) -> GeneCountsPartial:
        """GeneCounts of a batch of pairs: a proper pair counts both
        mates' blocks under mate 1's strand, a one-mate pair its unique
        mate's blocks; discordant and multimapped pairs count as
        multimapping."""
        status = outcomes.status
        mate1, mate2 = outcomes.mate1, outcomes.mate2
        proper = status == PROPER_PAIR
        one_mate = status == ONE_MATE
        by_mate1 = proper | (one_mate & (mate1.status == UNIQUE))
        by_mate2 = proper | (one_mate & (mate1.status != UNIQUE))
        strand = np.where(by_mate1, mate1.strand, mate2.strand)
        owner1, owner2 = mate1.block_owner(), mate2.block_owner()
        keep1, keep2 = by_mate1[owner1], by_mate2[owner2]

        def blocks(column: str) -> np.ndarray:
            return np.concatenate(
                [getattr(mate1, column)[keep1], getattr(mate2, column)[keep2]]
            )

        return partial_from_blocks(
            annotation,
            n_unmapped=np.count_nonzero(status == PAIR_UNMAPPED),
            n_multimapping=np.count_nonzero(
                (status == DISCORDANT) | (status == PAIR_MULTIMAPPED)
            ),
            assigned=proper | one_mate,
            forward=strand == FORWARD,
            owner=np.concatenate([owner1[keep1], owner2[keep2]]),
            contig_names=mate1.contig_names,
            contig=blocks("block_contig"),
            start=blocks("block_start"),
            end=blocks("block_end"),
        )


def _span(outcome: ReadAlignment) -> tuple[int, int] | None:
    """(start, end) of an outcome's footprint on its contig."""
    if not outcome.blocks:
        return None
    return outcome.blocks[0].start, outcome.blocks[-1].end


def _footprints(
    mates: OutcomeBatch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per read: first block start, last block end, first block contig,
    and whether the read has blocks at all (:func:`_span` over arrays)."""
    offsets = mates.block_offsets
    placed = offsets[1:] > offsets[:-1]
    if not mates.block_start.size:
        zero = np.zeros(placed.size, dtype=np.int64)
        return zero, zero, zero, placed
    first = np.minimum(offsets[:-1], offsets[-1] - 1)
    last = np.maximum(offsets[1:] - 1, 0)
    return (
        mates.block_start[first],
        mates.block_end[last],
        mates.block_contig[first],
        placed,
    )


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
        self,
        batch: tuple[list[FastqRecord], list[FastqRecord]]
        | tuple[ReadBatch, ReadBatch],
    ) -> PairedOutcomeBatch:
        """Align one shard's mates — two lists or two packed batches — and
        pair them: through the batch core and :meth:`_pair_mates`, or
        pair by pair on the per-read path."""
        if not self.aligner.parameters.batch_align:
            return PairedOutcomeBatch.of(
                [self.align_pair(r1, r2) for r1, r2 in zip(*batch)]
            )
        return self._pair_mates(
            self.aligner.align_batch(batch[0]), self.aligner.align_batch(batch[1])
        )

    def _pair_mates(
        self, mates1: OutcomeBatch, mates2: OutcomeBatch
    ) -> PairedOutcomeBatch:
        """Pair two mate batches by :meth:`classify_pair`'s rules, over
        arrays: FR orientation by first-block start, TLEN from the first
        start to the last end, the contig from the first block."""
        if mates1.contig_names != mates2.contig_names:
            raise ValueError("mates were aligned against different indexes")
        s1, s2 = mates1.status, mates2.status
        mapped1 = (s1 == UNIQUE) | (s1 == MULTIMAPPED)
        mapped2 = (s2 == UNIQUE) | (s2 == MULTIMAPPED)
        unique1, unique2 = s1 == UNIQUE, s2 == UNIQUE
        start1, end1, contig1, placed1 = _footprints(mates1)
        start2, end2, contig2, placed2 = _footprints(mates2)
        strand1, strand2 = mates1.strand, mates2.strand
        one_left = start1 <= start2
        tlen = np.where(one_left, end2 - start1, end1 - start2)
        proper = (
            unique1
            & unique2
            & placed1
            & placed2
            & (contig1 == contig2)
            & (strand1 != 0)
            & (strand2 != 0)
            & (strand1 != strand2)
            # FR orientation: the leftmost mate must be the forward one
            & (
                ((strand1 == FORWARD) & one_left)
                | ((strand2 == FORWARD) & (start2 <= start1))
            )
            & (self.parameters.min_template <= tlen)
            & (tlen <= self.parameters.max_template)
        )
        status = np.full(len(mates1), PAIR_MULTIMAPPED, dtype=np.int8)
        status[(unique1 & ~mapped2) | (unique2 & ~mapped1)] = ONE_MATE
        status[unique1 & unique2] = DISCORDANT
        status[proper] = PROPER_PAIR
        status[~mapped1 & ~mapped2] = PAIR_UNMAPPED
        return PairedOutcomeBatch(mates1, mates2, status, np.where(proper, tlen, -1))

    def _pair_outcome(
        self, record1: FastqRecord, m1: ReadAlignment, m2: ReadAlignment
    ) -> PairedOutcome:
        """Pair two already-aligned mate outcomes."""
        status, tlen = self.classify_pair(m1, m2)
        return PairedOutcome(
            pair_id=pair_id_of(record1.read_id), status=status, mate1=m1,
            mate2=m2, template_length=tlen,
        )

    def _counted_annotation(self) -> Annotation | None:
        """The annotation pairs are counted against, or None when
        quantification is off."""
        if self.parameters.quant_gene_counts:
            return self.aligner.index.annotation
        return None

    def _gene_counts(self) -> GeneCounts | None:
        """A fresh GeneCounts, or None when quantification is off."""
        annotation = self._counted_annotation()
        return GeneCounts(annotation) if annotation is not None else None

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
        mate1: list[FastqRecord] | ReadBatch,
        mate2: list[FastqRecord] | ReadBatch,
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
        mate1, mate2 = ReadBatch.of(mate1), ReadBatch.of(mate2)
        # same shards as the single-end driver, cut alike from both mates
        shards = zip(self.aligner._shards([mate1]), self.aligner._shards([mate2]))
        return merge_shards(
            self._accumulator(len(mate1), monitor, clock),
            shards,
            in_process(lambda shard: (self._pair_batch(shard), None, None)),
        )
