"""One aligner-backend interface over the three ways a run can execute.

The pipeline used to branch inline over serial single-end
(:class:`~repro.align.star.StarAligner`), serial paired
(:class:`~repro.align.paired.PairedStarAligner`), and the shared-memory
engine (:class:`~repro.align.engine.ParallelStarAligner`) — three call
shapes to wrap every time a cross-cutting concern (retries, fault
injection, timing) touched the STAR step.  :class:`AlignerBackend`
collapses them to a single ``align(reads) -> AlignmentOutcome`` surface,
every backend serves both library layouts, and :func:`resolve_backend`
is the one place that knows which concrete backend a given accession
should use.

Every backend cuts an accession into shards, aligns each through the
batch core (:mod:`repro.align.batch`, when ``StarParameters.batch_align``
is on) and merges the results through one loop,
:func:`~repro.align.merge.merge_shards`.  The backends differ only in
where a shard is aligned: in process, or — through the pure
``_align_records`` / ``_align_pairs`` helpers — in an engine worker or a
function.

Reads reach every backend as a :class:`ReadChunkStream`: a feed of
:class:`~repro.reads.fastq.ReadBatch` chunks with the read total known
up front.  A materialized accession is a feed of one chunk; a streamed
one (fed from the SRA container as it downloads) is a feed of many, so
alignment starts before the download finishes.  Every backend cuts its
shards from batches with one cutter
(:func:`~repro.reads.fastq.cut_batches`).  Single-end serial and engine
runs consume the feed lazily; paired, FaaS and checkpointed engine runs
join it first (mates interleave in the container, functions need whole
request payloads, and the checkpoint schedule is positional).
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.align.engine import (
    _align_pairs,
    _align_records,
    _cut_shards,
    _shard_bounds,
    _shard_size,
)
from repro.align.merge import in_process, merge_shards
from repro.align.outcome import encode_outcomes
from repro.align.paired import PairedStarAligner
from repro.align.suffix_array import SeedSearchStats
from repro.cloud.faas import (
    ExecutionCapExceeded,
    FaasService,
    FunctionCrashed,
    PayloadTooLarge,
    TooManyRequests,
)
from repro.reads.fastq import FastqRecord, ReadBatch

if TYPE_CHECKING:
    from repro.align.engine import ParallelStarAligner
    from repro.align.outcome import AlignmentOutcome
    from repro.align.star import ProgressMonitorHook, StarAligner

__all__ = [
    "AlignerBackend",
    "BACKEND_CHOICES",
    "EngineBackend",
    "FaasAlignerBackend",
    "ReadChunkStream",
    "SerialAlignerBackend",
    "resolve_backend",
]

#: valid values for the pipeline-level backend-selection knob
BACKEND_CHOICES = ("auto", "serial", "engine", "faas")

#: the function a :class:`FaasAlignerBackend` invokes, created with the
#: service's default memory size and cold start when absent
_FUNCTION_NAME = "star-align"

#: concurrent invocations a :class:`FaasAlignerBackend` sizes shards for
_PARALLELISM = 8


@dataclass
class ReadChunkStream:
    """One accession's reads as a chunk feed with a known total.

    ``chunks`` yields :class:`~repro.reads.fastq.ReadBatch` chunks for
    single-end accessions or ``(mate1, mate2)`` batch pairs for paired
    ones; ``reads_total`` comes from the SRA container header, so
    progress records (and therefore early-stopping decisions) are
    identical to a fully-materialized run even though reads arrive
    incrementally.  :meth:`of` builds the materialized case, a feed of
    one chunk.

    A feed whose ``chunks`` is an iterator (a live download) is
    single-use: the bytes behind consumed chunks are gone, so a second
    read — an align retry after consumption began — fails loudly instead
    of aligning an exhausted feed.
    """

    chunks: Iterable
    reads_total: int
    paired: bool = False
    _started: bool = field(default=False, init=False, repr=False)

    @classmethod
    def of(
        cls,
        reads: list[FastqRecord] | ReadBatch,
        mate2: list[FastqRecord] | ReadBatch | None = None,
    ) -> ReadChunkStream:
        """A materialized accession: single-end reads, or both mates
        (record lists are packed into batches)."""
        reads = ReadBatch.of(reads)
        if mate2 is None:
            return cls([reads], len(reads))
        if len(mate2) != len(reads):
            raise ValueError("mate lists must have equal length")
        return cls([(reads, ReadBatch.of(mate2))], len(reads), paired=True)

    def __len__(self) -> int:
        return self.reads_total

    def _feed(self) -> Iterator:
        """Start one read of the feed (every align attempt starts here)."""
        chunks = iter(self.chunks)
        if chunks is self.chunks:
            if self._started:
                raise RuntimeError(
                    "streamed reads were already consumed; a mid-stream "
                    "alignment cannot be retried"
                )
            self._started = True
        return chunks

    def records(self) -> Iterator[ReadBatch]:
        """The single-end feed's batches, pulled lazily."""
        if self.paired:
            raise ValueError("records() is single-end only; use materialize()")
        yield from self._feed()

    def materialize(self) -> tuple[ReadBatch, ReadBatch | None]:
        """Drain the feed: ``(reads, None)``, or ``(mate1, mate2)``."""
        if not self.paired:
            return ReadBatch.concat(self.records()), None
        chunks = list(self._feed())
        mate1 = ReadBatch.concat(c[0] for c in chunks)
        return mate1, ReadBatch.concat(c[1] for c in chunks)


@runtime_checkable
class AlignerBackend(Protocol):
    """Anything that can run one accession's alignment end to end."""

    #: short label used in failure records and reports
    name: str

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        """Align ``reads``; honour the monitor's abort, write outputs if asked.

        ``checkpoint`` is an optional shard checkpointer (see
        :class:`repro.core.replication.ShardCheckpointer`); backends
        without shard-level recovery accept and ignore it — alignment
        results never depend on it.
        """
        ...


class SerialAlignerBackend:
    """In-process alignment via :class:`StarAligner`, or a
    :class:`PairedStarAligner` over it for paired reads.

    ``out_dir`` applies to single-end runs: paired runs keep their
    results in memory, as the pipeline always has.
    """

    name = "serial"

    def __init__(self, aligner: StarAligner) -> None:
        self.aligner = aligner
        self.paired_aligner = PairedStarAligner(aligner)

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        if reads.paired:
            return self.paired_aligner.run(*reads.materialize(), monitor=monitor)
        return self.aligner.run(
            reads.records(),
            reads_total=reads.reads_total,
            monitor=monitor,
            out_dir=out_dir,
        )


class EngineBackend:
    """Shared-memory multi-process alignment via :class:`ParallelStarAligner`.

    Handles both library layouts — the engine already exposes matching
    ``run`` / ``run_paired`` entry points.  Single-end reads reach the
    engine as a lazy feed of batches, cut into shards as the merge pulls
    them (an early stop cuts nothing past it); paired and checkpointed
    runs join the feed first.
    """

    name = "engine"

    def __init__(self, engine: ParallelStarAligner) -> None:
        self.engine = engine

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        if reads.paired:
            mate1, mate2 = reads.materialize()
            return self.engine.run_paired(
                mate1, mate2, monitor=monitor, checkpoint=checkpoint
            )
        return self.engine.run(
            reads.records(),
            reads_total=reads.reads_total,
            monitor=monitor,
            out_dir=out_dir,
            checkpoint=checkpoint,
        )


class FaasAlignerBackend:
    """Serverless scatter-gather alignment over short-lived functions.

    The authors' follow-up paper replaces long-lived workers with FaaS:
    one accession's reads are joined into one
    :class:`~repro.reads.fastq.ReadBatch` (one per mate), sharded along
    the engine's ``_shard_bounds`` schedule as slices of it, and each
    shard becomes one function invocation against a simulated
    :class:`~repro.cloud.faas.FaasService`.
    The *function body* is the same pure batch helper a pool worker runs
    (``_align_records`` / ``_align_pairs``), and the gather side is the
    ordered shard merge every backend shares
    (:func:`~repro.align.merge.merge_shards`) — so results are
    byte-identical to the serial and engine backends.

    What the service can throw, the backend absorbs:

    * retryable failures (:class:`TooManyRequests` throttles,
      :class:`FunctionCrashed` sandbox deaths) re-invoke the same shard
      under the per-invocation :class:`~repro.core.resilience.RetryPolicy`,
      with backoff spent on the backend's *virtual* clock;
    * structural failures (:class:`ExecutionCapExceeded` timeouts,
      :class:`PayloadTooLarge` requests/responses) split the shard in
      two and re-invoke both halves, merging sub-results so the original
      schedule bounds — and therefore shard-checkpoint keys — are
      preserved.

    Payloads are measured, not estimated: a request is the packed
    shard's :attr:`~repro.reads.fastq.ReadBatch.nbytes` (both mates when
    paired), a response the outcome codec's encoded bytes
    (:func:`~repro.align.outcome.encode_outcomes`, the form an
    ``align.shard`` checkpoint journals).  Shards are pre-sized from the
    batch-core cost model (the engine's sizing rule) *and* the request
    limit, so splits are the exception; ``checkpoint`` compatibility
    means a resumed batch skips every shard a previous invocation round
    completed.

    Durations are modeled (``seconds_per_read``), never wall-clock, so
    cap and billing behaviour is deterministic; the virtual clock also
    drives the warm-container pool, which persists across accessions
    when the pipeline reuses one backend instance.
    """

    name = "faas"

    def __init__(
        self,
        aligner: StarAligner,
        *,
        service: FaasService | None = None,
        batch_size: int | None = None,
        seconds_per_read: float = 2e-4,
    ) -> None:
        if seconds_per_read <= 0:
            raise ValueError("seconds_per_read must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.aligner = aligner
        self.paired_aligner = PairedStarAligner(aligner)
        self.service = service if service is not None else FaasService()
        try:
            self.function = self.service.function(_FUNCTION_NAME)
        except KeyError:
            self.function = self.service.create_function(_FUNCTION_NAME)
        # local import: repro.core imports this module at package init
        from repro.core.resilience import RetryPolicy

        #: per-invocation retries of throttles and crashed sandboxes
        self.retry = RetryPolicy(
            max_attempts=4, base_delay=0.5, max_delay=30.0, jitter=0.0
        )
        self.batch_size = batch_size
        self.seconds_per_read = seconds_per_read
        #: virtual service time (advanced by modeled durations + backoff)
        self.virtual_now = 0.0
        self.cap_reshards = 0
        self.payload_reshards = 0
        self.throttle_retries = 0
        self.crash_retries = 0

    # -- plumbing ------------------------------------------------------------

    @property
    def limits(self):
        return self.function.limits

    def shard_size(self, reads: ReadBatch, mate2: ReadBatch | None = None) -> int:
        """Reads per invocation: the engine's cost-model size, capped by
        what fits the request-payload limit at the batch's mean packed
        bytes per read (both mates when paired).

        Payload size is known exactly up front, so oversized requests
        are prevented here rather than discovered by a 413.  Execution
        *time* is data-dependent (the service discovers cap overruns at
        run time), so the cap deliberately does not clamp the schedule —
        overruns surface as :class:`ExecutionCapExceeded` and are
        re-sharded, which is the ``cap_reshards`` metric the campaign
        reports.
        """
        n = len(reads)
        base = _shard_size(
            n, _PARALLELISM, self.batch_size, self.aligner.parameters.batch_align
        )
        if not n:
            return base
        total_bytes = reads.nbytes
        if mate2 is not None:
            total_bytes += mate2.nbytes
        avg = max(1.0, total_bytes / n)
        by_payload = max(1, int(self.limits.max_request_bytes / avg))
        return max(1, min(base, by_payload))

    def faas_summary(self) -> dict:
        """Counters for reports: invocation mix, re-shards, billing."""
        fn = self.function
        bill = fn.bill()
        return {
            "invocations": fn.invocations,
            "cold_starts": fn.cold_starts,
            "warm_starts": fn.warm_starts,
            "cold_start_share": fn.cold_start_share,
            "throttle_retries": self.throttle_retries,
            "crash_retries": self.crash_retries,
            "cap_reshards": self.cap_reshards,
            "payload_reshards": self.payload_reshards,
            "gb_seconds": bill.gb_seconds,
            "billed_usd": bill.total_usd,
        }

    # -- scatter side --------------------------------------------------------

    def _execute_shard(self, payload, *, paired: bool):
        """Run one shard through one (or more) function invocations.

        Returns the worker-tuple ``(outcomes, partial, seed_stats)`` —
        exactly what a pool worker would have produced for this shard,
        whatever combination of retries and splits it took to get there.
        """
        request_bytes = (
            payload[0].nbytes + payload[1].nbytes if paired else payload.nbytes
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                invocation = self.function.invoke(request_bytes, now=self.virtual_now)
            except PayloadTooLarge:
                self.payload_reshards += 1
                return self._split_shard(payload, paired=paired)
            except TooManyRequests:
                if not self.retry.should_retry(attempt):
                    raise
                self.throttle_retries += 1
                self.virtual_now += self.retry.delay_for(attempt)
                continue
            # the function body: the same pure helpers a pool worker runs,
            # so the shard result is byte-identical wherever it executes
            if paired:
                value = _align_pairs(self.paired_aligner, payload)
                n_reads = len(payload[0])
            else:
                value = _align_records(self.aligner, payload)
                n_reads = len(payload)
            duration = n_reads * self.seconds_per_read
            self.virtual_now += invocation.cold_start_seconds + min(
                duration, self.limits.max_execution_seconds
            )
            response = json.dumps(encode_outcomes(value[0]), separators=(",", ":"))
            try:
                self.function.complete(
                    invocation, duration, len(response), now=self.virtual_now
                )
            except FunctionCrashed:
                if not self.retry.should_retry(attempt):
                    raise
                self.crash_retries += 1
                self.virtual_now += self.retry.delay_for(attempt)
                continue
            except ExecutionCapExceeded:
                self.cap_reshards += 1
                return self._split_shard(payload, paired=paired)
            except PayloadTooLarge:
                # the response could not leave the function: halve the work
                self.payload_reshards += 1
                return self._split_shard(payload, paired=paired)
            return value

    def _split_shard(self, payload, *, paired: bool):
        n = len(payload[0]) if paired else len(payload)
        if n <= 1:
            raise  # single read still over a limit: surface the limit error
        mid = n // 2
        if paired:
            left = (payload[0][:mid], payload[1][:mid])
            right = (payload[0][mid:], payload[1][mid:])
        else:
            left, right = payload[:mid], payload[mid:]
        return self._merge_values(
            self._execute_shard(left, paired=paired),
            self._execute_shard(right, paired=paired),
        )

    def _merge_values(self, a, b):
        """Fold two sub-shard worker tuples into one shard tuple."""
        a_out, a_partial, a_stats = a
        b_out, b_partial, b_stats = b
        # both halves ran under one configuration: both carry a partial,
        # or quantification is off and neither does
        partial = None if a_partial is None else a_partial + b_partial
        stats = SeedSearchStats()
        stats.merge(a_stats)
        stats.merge(b_stats)
        return a_out + b_out, partial, stats.as_dict()

    # -- gather side ---------------------------------------------------------

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        mate1, mate2 = reads.materialize()
        n = len(mate1)
        size = self.shard_size(mate1, mate2)
        if mate2 is not None:
            run = self.paired_aligner._accumulator(n, monitor, time.monotonic)
            shards = zip(_cut_shards([mate1], size), _cut_shards([mate2], size))
        else:
            run = self.aligner._accumulator(n, monitor, time.monotonic)
            shards = _cut_shards([mate1], size)
        result = merge_shards(
            run,
            shards,
            in_process(functools.partial(self._execute_shard, paired=reads.paired)),
            spans=_shard_bounds(n, size),
            checkpoint=checkpoint,
        )
        if out_dir is not None and not reads.paired:
            result.write_outputs(out_dir)
        return result


def resolve_backend(
    aligner: StarAligner,
    engine: ParallelStarAligner | None = None,
    *,
    requested: str | None = None,
    faas: FaasAlignerBackend | None = None,
) -> AlignerBackend:
    """Pick the backend for one accession.

    ``requested`` pins an execution substrate: ``"serial"`` runs
    in-process even when a live engine exists, ``"engine"`` demands the
    worker pool (ValueError without one), ``"faas"`` routes through
    ``faas`` — a pipeline-cached :class:`FaasAlignerBackend`, built fresh
    here when none is supplied (warm containers then do not persist
    across accessions).  Under ``"auto"`` (the default) a live ``engine``
    wins; otherwise the run stays in process.  Every backend serves both
    library layouts.
    """
    if requested is None:
        requested = "auto"
    if requested not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of {BACKEND_CHOICES}"
        )
    if requested == "faas":
        return faas if faas is not None else FaasAlignerBackend(aligner)
    if requested == "engine":
        if engine is None:
            raise ValueError(
                'backend="engine" needs a live engine (workers > 1)'
            )
        return EngineBackend(engine)
    if requested == "auto" and engine is not None:
        return EngineBackend(engine)
    return SerialAlignerBackend(aligner)
