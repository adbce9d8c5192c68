"""One merge loop for every way an accession's alignment can run.

Serial, engine and FaaS runs cut an accession's reads into shards and
differ only in *where* a shard is aligned: in this process, in a pool
worker or in a simulated function.  A shard aligned elsewhere comes back
as ``(outcome batch, GeneCounts partial, seed-stat delta)`` from the
pure helpers the engine's workers run (``_align_records`` /
``_align_pairs`` in :mod:`repro.align.engine`); a shard aligned in
process has nothing to ship, so it carries no partial and the run
counts its outcomes.

:class:`RunAccumulator` is the state STAR keeps while it maps — outcomes,
a ``Log.progress.out`` record every ``progress_every`` reads, the
monitor that may stop the run (the paper's early stopping, §III-B),
GeneCounts and ``Log.final.out`` — and :func:`merge_shards` feeds it
shard results strictly in read order, so the monitor sees the same
records, and stops on the same read, on every backend.  Outcomes stay
batches throughout (:mod:`repro.align.outcome`): the tallies and the
GeneCounts rule run over one progress window's arrays at a time.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.align.counts import GeneCounts, GeneCountsPartial
from repro.align.outcome import OutcomeBatch, PairedOutcomeBatch
from repro.align.progress import FinalLogStats, ProgressRecord

__all__ = ["RunAccumulator", "in_process", "merge_shards"]

#: one aligned shard: an outcome batch, GeneCounts partial and seed-stat
#: delta (both None in process; the partial also when quantification is
#: off)
ShardResult = tuple[
    OutcomeBatch | PairedOutcomeBatch, GeneCountsPartial | None, dict | None
]


class RunAccumulator:
    """One run's merge state, fed shard results in read order.

    ``tally`` is the layout strategy (:class:`~repro.align.star.
    SingleEndTally` or :class:`~repro.align.paired.PairedTally`): it
    keeps the ``Log.final.out`` counters, owns the GeneCounts rule and
    names the batch and result types.  ``counts`` is None when
    quantification is off.

    Merged outcomes collect in a window until the next progress record
    (or the end of the run); closing the window tallies it, and counts
    the genes of every read no shard partial covers, in one pass over
    its arrays.  The per-read path merges one-read shards, so this keeps
    its array work at one conversion per window.
    """

    def __init__(
        self,
        tally: Any,
        *,
        reads_total: int,
        progress_every: int,
        counts: GeneCounts | None,
        monitor: Callable[[ProgressRecord], bool] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.tally = tally
        self.reads_total = reads_total
        self.progress_every = progress_every
        self.counts = counts
        self.monitor = monitor
        self.clock = clock
        self.reads_merged = 0
        self.progress: list[ProgressRecord] = []
        self.aborted = False
        self.started = clock()
        self._windows: list = []  # tallied windows, in read order
        self._window: list = []  # batches merged since the last window closed
        self._uncounted: list = []  # those of them no partial covers

    def merge(self, outcomes: Any, partial: GeneCountsPartial | None) -> bool:
        """Merge one shard's outcome batch; False once the monitor stopped
        the run.

        Outcomes merge up to the first progress record the monitor
        rejects.  GeneCounts take the shard's partial when the whole
        shard merged; otherwise — a shard without a partial, or one the
        monitor cut short — they count just the merged outcomes, so an
        early-stopped run counts every read it processed exactly once.
        """
        n = len(outcomes)
        uncounted = self.counts is not None and partial is None
        done = 0
        while done < n:
            # merge up to the next progress boundary, and report there
            gap = self.progress_every - self.reads_merged % self.progress_every
            stop = min(n, done + gap)
            piece = outcomes if stop - done == n else outcomes[done:stop]
            self._window.append(piece)
            if uncounted:
                self._uncounted.append(piece)
            self.reads_merged += stop - done
            at_boundary = stop - done == gap
            done = stop
            if at_boundary:
                self._close_window()
                if not self._report(self._snapshot()):
                    break
        if self.counts is not None and partial is not None:
            if done == n:
                self.counts.merge_partial(partial)
            else:
                self._count(outcomes[:done])
        return not self.aborted

    def _close_window(self) -> None:
        """Tally the window's outcomes and count the genes no partial did."""
        if not self._window:
            return
        window = self.tally.batch_type.concat(self._window)
        self.tally.add(window)
        self._windows.append(window)
        if self._uncounted:
            same = len(self._uncounted) == len(self._window)
            self._count(window if same else window.concat(self._uncounted))
        self._window, self._uncounted = [], []

    def _count(self, outcomes: Any) -> None:
        self.counts.merge_partial(
            self.tally.gene_partial(self.counts.annotation, outcomes)
        )

    def finish(self) -> Any:
        """Close the run: last progress record, ``Log.final.out``, result."""
        self._close_window()
        closing = self._snapshot()
        # STAR writes a last progress line at completion
        if not self.progress or self.progress[-1].reads_processed != self.reads_merged:
            self._report(closing)
        tally = self.tally
        final = FinalLogStats(
            reads_total=self.reads_total,
            reads_processed=self.reads_merged,
            mapped_unique=tally.mapped_unique,
            mapped_multi=tally.mapped_multi,
            too_many_loci=tally.too_many_loci,
            unmapped=tally.unmapped,
            mismatch_rate=tally.mismatch_rate,
            spliced_reads=tally.spliced_reads,
            elapsed_seconds=max(0.0, self.clock() - self.started),
            aborted=self.aborted,
        )
        return tally.result_type(
            outcomes=tally.batch_type.concat(self._windows),
            progress=self.progress,
            final=final,
            gene_counts=self.counts,
            aborted=self.aborted,
        )

    def _snapshot(self) -> ProgressRecord:
        return ProgressRecord(
            elapsed_seconds=max(0.0, self.clock() - self.started),
            reads_processed=self.reads_merged,
            reads_total=self.reads_total,
            mapped_unique=self.tally.mapped_unique,
            mapped_multi=self.tally.mapped_multi,
        )

    def _report(self, record: ProgressRecord) -> bool:
        """Log ``record``; a monitor may stop a run that is still going."""
        self.progress.append(record)
        if not self.aborted and self.monitor is not None:
            self.aborted = not self.monitor(record)
        return not self.aborted


def in_process(
    align_shard: Callable[[Any], ShardResult],
) -> Callable[[Iterable], Iterator[tuple[Any, ShardResult]]]:
    """A :func:`merge_shards` source that runs ``align_shard`` in this
    process, one shard at a time as the merge pulls it — so an early
    stop leaves every later shard unread and unaligned."""
    return lambda shards: ((shard, align_shard(shard)) for shard in shards)


def merge_shards(
    run: RunAccumulator,
    shards: Iterable,
    source: Callable[[Iterable], Iterator[tuple[Any, ShardResult]]],
    *,
    spans: list[tuple[int, int]] | None = None,
    checkpoint: Any = None,
    on_result: Callable[[ShardResult], None] | None = None,
) -> Any:
    """Merge every shard's result into ``run`` in read order; return the result.

    ``source`` maps shards (lazy unless a checkpoint is given) to
    ``(shard, result)`` pairs in order.  It may run ahead, as the engine's
    dispatch window does, and is closed when the merge stops.  With a
    ``checkpoint`` (:class:`repro.core.replication.ShardCheckpointer`)
    and the read ``spans`` of the shards, journaled shards are merged
    from it and each live shard merged in full before any abort is
    recorded — never one the monitor cut short.  ``on_result`` sees
    every result before it merges.
    """
    if checkpoint is None:
        live = source(shards)
        ordered = ((None, result, True) for _, result in live)
    else:
        shards = list(shards)
        cached = [checkpoint.load(start, end) for start, end in spans]
        live = source(s for s, hit in zip(shards, cached) if hit is None)

        def interleave():
            for span, hit in zip(spans, cached):
                if hit is not None:
                    yield span, hit, False
                else:
                    yield span, next(live)[1], True

        ordered = interleave()
    try:
        for span, result, fresh in ordered:
            if on_result is not None:
                on_result(result)
            outcomes, partial, seed_stats = result
            if not run.merge(outcomes, partial):
                break
            if fresh and checkpoint is not None:
                checkpoint.record(span[0], span[1], outcomes, partial, seed_stats)
    finally:
        # close now, not at garbage collection: the engine's dispatch
        # window releases its pool bookkeeping when its stream closes
        live.close()
    return run.finish()
