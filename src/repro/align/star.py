"""The STAR-like aligner driver.

Ties the pieces together the way STAR 2.7 does at the architectural level:
MMP seeding against the suffix-array index, mismatch-budgeted extension,
splice stitching, both-strand search, unique/multi/unmapped classification
with a multimapping cap, optional GeneCounts quantification, periodic
``Log.progress.out`` snapshots, and a monitor hook that can abort the run —
the integration point for the paper's early-stopping optimization.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.align.counts import GeneCounts, GeneCountsPartial, partial_from_blocks
from repro.align.extend import ScoringParams, ungapped_extend
from repro.align.index import GenomeIndex
from repro.align.merge import RunAccumulator, in_process, merge_shards
from repro.align.outcome import (
    FORWARD,
    MULTIMAPPED,
    TOO_MANY_LOCI,
    UNIQUE,
    UNMAPPED,
    AlignmentStatus,
    OutcomeBatch,
    ReadAlignment,
)
from repro.align.progress import (
    FinalLogStats,
    ProgressRecord,
    write_final_log,
    write_progress_log,
)
from repro.align.seeds import maximal_mappable_prefix
from repro.align.splice import (
    DEFAULT_MAX_INTRON,
    DEFAULT_MIN_INTRON,
    SplicedAlignment,
    stitch_spliced,
)
from repro.genome.alphabet import reverse_complement
from repro.genome.annotation import Annotation, Strand
from repro.genome.model import SequenceRegion
from repro.reads.fastq import FastqRecord, ReadBatch, cut_batches


@dataclass(frozen=True)
class StarParameters:
    """Run parameters (named after the corresponding STAR options)."""

    scoring: ScoringParams = field(default_factory=ScoringParams)
    #: ``--outFilterMultimapNmax``: more loci than this → too_many_loci
    multimap_nmax: int = 10
    #: cap on SA hits examined per seed (``--seedMultimapNmax`` spirit)
    seed_multimap_nmax: int = 50
    min_intron: int = DEFAULT_MIN_INTRON
    max_intron: int = DEFAULT_MAX_INTRON
    #: emit a progress record every N reads
    progress_every: int = 1000
    #: compute GeneCounts (``--quantMode GeneCounts``)
    quant_gene_counts: bool = True
    #: route reads through the vectorized batch core
    #: (:mod:`repro.align.batch`); the per-read path stays available as
    #: the reference oracle
    batch_align: bool = True
    #: reads per batch-core call inside :meth:`StarAligner.run`; each
    #: call has a fixed cost, which 1024 reads spread thinly
    align_batch_size: int = 1024

    def __post_init__(self) -> None:
        if self.multimap_nmax < 1:
            raise ValueError("multimap_nmax must be >= 1")
        if self.progress_every < 1:
            raise ValueError("progress_every must be >= 1")
        if self.align_batch_size < 1:
            raise ValueError("align_batch_size must be >= 1")


@dataclass(frozen=True)
class _Candidate:
    """Internal: one scored placement of one read orientation."""

    score: int
    genome_start: int
    mismatches: int
    blocks: tuple[tuple[int, int], ...]  # absolute (start, end) pairs
    spliced: bool


class RunAborted(Exception):
    """Raised internally when the monitor requests termination."""


@dataclass
class StarRunResult:
    """Everything a run produces (STAR's output directory, in-memory)."""

    outcomes: OutcomeBatch
    progress: list[ProgressRecord]
    final: FinalLogStats
    gene_counts: GeneCounts | None
    aborted: bool

    @property
    def mapped_fraction(self) -> float:
        return self.final.mapped_fraction

    def write_outputs(self, out_dir: Path | str) -> dict[str, Path]:
        """Write Log.progress.out, Log.final.out and ReadsPerGene.out.tab."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "progress": out_dir / "Log.progress.out",
            "final": out_dir / "Log.final.out",
        }
        write_progress_log(self.progress, paths["progress"])
        write_final_log(self.final, paths["final"])
        if self.gene_counts is not None:
            paths["counts"] = out_dir / "ReadsPerGene.out.tab"
            self.gene_counts.write_tab(paths["counts"])
        return paths

    def write_sam(
        self,
        records: list[FastqRecord],
        index: GenomeIndex,
        path: Path | str,
    ) -> int:
        """Write ``Aligned.out.sam`` for this run's outcomes.

        ``records`` must be the same reads the run aligned, in order; an
        aborted run accepts the full list and writes only the processed
        prefix.
        """
        from repro.align.sam import write_sam

        processed = records[: len(self.outcomes)]
        return write_sam(processed, self.outcomes, index, path)


class SingleEndTally:
    """The ``Log.final.out`` counters of a single-end run.

    The per-layout strategy a :class:`~repro.align.merge.RunAccumulator`
    merges single-end shards with: :meth:`add` counts a batch of
    outcomes, and :meth:`gene_partial` is the GeneCounts rule, shared by
    the run and the engine's shard helper.
    """

    result_type = StarRunResult
    batch_type = OutcomeBatch

    def __init__(self) -> None:
        self.mapped_unique = 0
        self.mapped_multi = 0
        self.too_many_loci = 0
        self.unmapped = 0
        self.spliced_reads = 0
        self.mismatch_bases = 0
        self.aligned_bases = 0

    def add(self, outcomes: OutcomeBatch) -> None:
        """Count a batch of outcomes."""
        status = outcomes.status
        buckets = np.bincount(status, minlength=UNMAPPED + 1).tolist()
        unique = status == UNIQUE
        self.mapped_unique += buckets[UNIQUE]
        self.mapped_multi += buckets[MULTIMAPPED]
        self.too_many_loci += buckets[TOO_MANY_LOCI]
        self.unmapped += buckets[UNMAPPED]
        self.spliced_reads += int(np.count_nonzero(outcomes.spliced & unique))
        self.mismatch_bases += int(outcomes.mismatches[unique].sum())
        self.aligned_bases += outcomes.aligned_bases(unique)

    @property
    def mismatch_rate(self) -> float:
        if not self.aligned_bases:
            return 0.0
        return self.mismatch_bases / self.aligned_bases

    @staticmethod
    def gene_partial(
        annotation: Annotation, outcomes: OutcomeBatch
    ) -> GeneCountsPartial:
        """GeneCounts of a batch: unique reads are assigned to genes by
        their blocks and strand, as in STAR; multimapped and
        too-many-loci reads count as multimapping."""
        status = outcomes.status
        unique = status == UNIQUE
        owner = outcomes.block_owner()
        counted = unique[owner]
        return partial_from_blocks(
            annotation,
            n_unmapped=np.count_nonzero(status == UNMAPPED),
            n_multimapping=np.count_nonzero(
                (status == MULTIMAPPED) | (status == TOO_MANY_LOCI)
            ),
            assigned=unique,
            forward=outcomes.strand == FORWARD,
            owner=owner[counted],
            contig_names=outcomes.contig_names,
            contig=outcomes.block_contig[counted],
            start=outcomes.block_start[counted],
            end=outcomes.block_end[counted],
        )


#: Monitor signature: receives each progress record, returns False to abort.
ProgressMonitorHook = Callable[[ProgressRecord], bool]


class StarAligner:
    """Spliced aligner over one :class:`~repro.align.index.GenomeIndex`."""

    def __init__(
        self, index: GenomeIndex, parameters: StarParameters | None = None
    ) -> None:
        self.index = index
        self.parameters = parameters or StarParameters()

    # -- single read ---------------------------------------------------------

    def align_read(self, record: FastqRecord) -> ReadAlignment:
        """Align one read on both strands; classify per STAR's rules."""
        fwd = record.sequence
        if fwd.size == 0:
            # zero-length reads (aggressive trimming, malformed FASTQ) can
            # never seed: skip the reverse complement and candidate search
            return ReadAlignment(record.read_id, AlignmentStatus.UNMAPPED)
        rev = reverse_complement(fwd)
        fwd_cands = self._align_oriented(fwd)
        rev_cands = self._align_oriented(rev)
        return self._classify(record.read_id, fwd_cands, rev_cands)

    def align_batch(self, records: list[FastqRecord] | ReadBatch) -> OutcomeBatch:
        """Align a batch of reads; uses the batch core when enabled.

        ``records`` is a packed :class:`~repro.reads.fastq.ReadBatch` or
        a list of records.  Dispatching whole batches amortizes per-read
        Python overhead into vectorized kernels (see
        :mod:`repro.align.batch`); results are bit-identical to mapping
        :meth:`align_read` over ``records``, which the per-read path does
        and wraps as a batch.
        """
        if self.parameters.batch_align:
            from repro.align.batch import align_read_batch

            return align_read_batch(self, records)
        return OutcomeBatch.of([self.align_read(record) for record in records])

    def _classify(
        self,
        read_id: str,
        fwd_cands: list[_Candidate],
        rev_cands: list[_Candidate],
    ) -> ReadAlignment:
        """Classify one read's candidate sets per STAR's rules."""
        if not fwd_cands and not rev_cands:
            return ReadAlignment(read_id, AlignmentStatus.UNMAPPED)
        if (
            len(fwd_cands) + len(rev_cands) == 1
            and self.parameters.multimap_nmax >= 1
        ):
            # one candidate: it is the best (and only) locus — skip the
            # general case's set/minimum machinery, which dominates
            # classification time on typical unique-hit workloads
            chosen = fwd_cands[0] if fwd_cands else rev_cands[0]
            if chosen.score < 0:
                return ReadAlignment(read_id, AlignmentStatus.UNMAPPED)
            strand = Strand.FORWARD if fwd_cands else Strand.REVERSE
            return self._finish(
                read_id, AlignmentStatus.UNIQUE, strand, chosen, 1
            )
        best_score = -1
        for cand in fwd_cands + rev_cands:
            best_score = max(best_score, cand.score)
        if best_score < 0:
            return ReadAlignment(read_id, AlignmentStatus.UNMAPPED)

        best_fwd = [c for c in fwd_cands if c.score == best_score]
        best_rev = [c for c in rev_cands if c.score == best_score]
        # distinct loci across both strands
        loci = {(c.genome_start, True) for c in best_fwd} | {
            (c.genome_start, False) for c in best_rev
        }
        n_loci = len(loci)
        if n_loci > self.parameters.multimap_nmax:
            return ReadAlignment(
                read_id, AlignmentStatus.TOO_MANY_LOCI, n_loci=n_loci
            )
        status = (
            AlignmentStatus.UNIQUE if n_loci == 1 else AlignmentStatus.MULTIMAPPED
        )
        chosen = min(
            best_fwd + best_rev, key=lambda c: (c.mismatches, c.genome_start)
        )
        strand = Strand.FORWARD if chosen in best_fwd else Strand.REVERSE
        return self._finish(read_id, status, strand, chosen, n_loci)

    def _finish(
        self,
        read_id: str,
        status: AlignmentStatus,
        strand: Strand,
        chosen: _Candidate,
        n_loci: int,
    ) -> ReadAlignment:
        """Materialize the chosen candidate into a ReadAlignment."""
        blocks = []
        for start, end in chosen.blocks:
            contig, local = self.index.to_contig_coords(start)
            blocks.append(SequenceRegion(contig, local, local + (end - start)))
        return ReadAlignment(
            read_id=read_id,
            status=status,
            strand=strand,
            score=chosen.score,
            n_loci=n_loci,
            mismatches=chosen.mismatches,
            blocks=tuple(blocks),
            spliced=chosen.spliced,
        )

    def _align_oriented(self, read: np.ndarray) -> list[_Candidate]:
        """All acceptable placements of one read orientation."""
        params = self.parameters
        scoring = params.scoring
        n = int(read.size)
        # one numpy->list conversion per orientation, shared by the prefix
        # seed and the error-bridge re-seed below
        read_list = read.tolist()
        seed = maximal_mappable_prefix(
            self.index, read, max_hits=params.seed_multimap_nmax,
            read_list=read_list,
        )
        candidates: list[_Candidate] = []
        if seed.length == 0:
            return candidates

        seen_starts: set[int] = set()
        for p in seed.positions:
            # Path 1: contiguous placement anchored at the seed position.
            ext = ungapped_extend(
                self.index, read, p, max_mismatches=scoring.max_mismatches
            )
            if ext.ok and scoring.accepts(ext.matched, ext.mismatches, n):
                if p not in seen_starts:
                    seen_starts.add(p)
                    candidates.append(
                        _Candidate(
                            score=scoring.score(ext.matched, ext.mismatches),
                            genome_start=p,
                            mismatches=ext.mismatches,
                            blocks=((p, p + n),),
                            spliced=False,
                        )
                    )
                continue
            # Path 2: spliced placement — prefix here, remainder after an intron.
            if seed.length < n:
                spliced = stitch_spliced(
                    self.index,
                    read,
                    seed.length,
                    p,
                    scoring=scoring,
                    min_intron=params.min_intron,
                    max_intron=params.max_intron,
                )
                if spliced is not None and scoring.accepts(
                    spliced.aligned_length - spliced.mismatches,
                    spliced.mismatches,
                    n,
                ):
                    candidates.append(self._spliced_candidate(spliced, scoring))

        # Path 3: error bridge — a mismatch near the read start truncates the
        # prefix seed; re-seed one base past it and back-project the start.
        if not candidates and 0 < seed.length < n:
            bridge_start = seed.length + 1
            if n - bridge_start >= 12:
                second = maximal_mappable_prefix(
                    self.index,
                    read,
                    read_start=bridge_start,
                    max_hits=params.seed_multimap_nmax,
                    read_list=read_list,
                )
                for q in second.positions:
                    p = q - bridge_start
                    if p < 0 or p in seen_starts:
                        continue
                    ext = ungapped_extend(
                        self.index, read, p, max_mismatches=scoring.max_mismatches
                    )
                    if ext.ok and scoring.accepts(ext.matched, ext.mismatches, n):
                        seen_starts.add(p)
                        candidates.append(
                            _Candidate(
                                score=scoring.score(ext.matched, ext.mismatches),
                                genome_start=p,
                                mismatches=ext.mismatches,
                                blocks=((p, p + n),),
                                spliced=False,
                            )
                        )
        return candidates

    def _spliced_candidate(
        self, spliced: SplicedAlignment, scoring: ScoringParams
    ) -> _Candidate:
        matched = spliced.aligned_length - spliced.mismatches
        return _Candidate(
            score=scoring.score(matched, spliced.mismatches),
            genome_start=spliced.genome_start,
            mismatches=spliced.mismatches,
            blocks=tuple(
                (s.genome_start, s.genome_start + s.length) for s in spliced.segments
            ),
            spliced=True,
        )

    # -- whole run -------------------------------------------------------------

    def _shards(self, batches: Iterable[ReadBatch]) -> Iterator:
        """In-process shards of a batch feed: ``align_batch_size``-read
        batches for the batch core, or one-record lists on the per-read
        path (an early stop then wastes no alignment, and no batch is
        built per read)."""
        if self.parameters.batch_align:
            return cut_batches(batches, self.parameters.align_batch_size)
        return ([record] for batch in batches for record in batch)

    def _counted_annotation(self) -> Annotation | None:
        """The annotation reads are counted against, or None when
        quantification is off."""
        if self.parameters.quant_gene_counts:
            return self.index.annotation
        return None

    def _gene_counts(self) -> GeneCounts | None:
        """A fresh GeneCounts, or None when quantification is off."""
        annotation = self._counted_annotation()
        return GeneCounts(annotation) if annotation is not None else None

    def _accumulator(
        self,
        reads_total: int,
        monitor: ProgressMonitorHook | None,
        clock: Callable[[], float],
    ) -> RunAccumulator:
        """Fresh single-end run state for ``reads_total`` reads."""
        return RunAccumulator(
            SingleEndTally(),
            reads_total=reads_total,
            progress_every=self.parameters.progress_every,
            counts=self._gene_counts(),
            monitor=monitor,
            clock=clock,
        )

    def run(
        self,
        records: list[FastqRecord] | ReadBatch | Iterable[ReadBatch],
        *,
        reads_total: int | None = None,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> StarRunResult:
        """Align a sample's reads, reporting progress and honouring a monitor.

        ``monitor`` receives every :class:`ProgressRecord`; returning False
        aborts the run (the early-stopping integration point).  Partial
        results are still classified, logged, and (if ``out_dir`` is given)
        written out — matching how the paper's pipeline salvages statistics
        from terminated runs.

        ``records`` is a record list or a batch.  When ``reads_total`` is
        given, it is instead a lazy feed of batches (e.g. a streamed chunk
        feed): reads are pulled one shard at a time as the merge consumes
        them — at most one shard past the read where the monitor stops the
        run — with byte-identical results.
        """
        if reads_total is None:
            records = [ReadBatch.of(records)]
            reads_total = len(records[0])
        # in process there is nothing to ship: shards carry no GeneCounts
        # partial, and the run counts their outcomes itself
        result = merge_shards(
            self._accumulator(reads_total, monitor, clock),
            self._shards(records),
            in_process(lambda shard: (self.align_batch(shard), None, None)),
        )
        if out_dir is not None:
            result.write_outputs(out_dir)
        return result
