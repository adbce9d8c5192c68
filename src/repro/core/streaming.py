"""The streaming read source of ``run_batch``.

Sequential batches run ``prefetch → fasterq-dump → align`` to completion
per accession, so the network idles while STAR runs and the CPU idles
while bytes move.  ``BatchOptions(streaming=True)`` changes where an
accession's reads come from, not how the batch runs: the same lane loop
takes each batch position in turn, but the position's body aligns a
:class:`~repro.align.backend.ReadChunkStream` fed by
:class:`StreamedReads` instead of running prefetch and fasterq-dump:

* a single **downloader thread** pulls batch positions in submission
  order, streaming each ``.sra`` container through
  :class:`~repro.reads.stream.SraStream` — bytes decompress into FASTQ
  record chunks as they arrive — and pushes chunks into a bounded
  per-position queue (the backpressure window);
* each **lane** aligns its position from that live queue while the
  downloader already streams the next one (admission bounds the
  downloader to the positions being aligned plus ``prefetch_depth``);
* early stopping (or a drain deadline) aborting an alignment **cancels
  its in-flight download** at the next chunk boundary — the un-moved
  remainder is reported as ``download_bytes_saved`` on the result and
  in :class:`~repro.core.stages.PipelineHealth`.

Results are byte-identical to the sequential path: chunk boundaries
never affect alignment outcomes, record parsing matches the reads the
sequential ``fasterq-dump`` step frames exactly, retry jitter draws from
the same per-accession stream in the same step order, and journal
records interchange freely (execution shape is not fingerprinted).  The
one documented divergence: an accession whose download was cancelled
mid-stream reports the *partial* ``fastq_bytes`` actually decoded —
that is the point of cancelling.

Failure semantics match the sequential harness: prefetch faults retry
under the same policy inside the downloader (each attempt reopens the
stream), ``fasterq_dump`` faults are checked before the first chunk is
handed over, and an ``align`` fault fires before any chunk is consumed
so transient align faults retry safely.  A failure *after* chunks were
consumed cannot be retried (the bytes are gone): the feed refuses a
second read, so the retry fails the step instead of aligning nothing.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.align.backend import ReadChunkStream
from repro.core.resilience import StepFailed, run_with_retry
from repro.core.stages import AlignStage, StageContext
from repro.reads.stream import SraStream
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.core.journal import RunJournal
    from repro.core.pipeline import BatchOptions, PipelineResult, StepHarness

__all__ = ["StreamedReads"]

#: poll interval for the bounded queues and coordination events; short
#: enough that cancellation feels immediate, long enough to stay cheap
_POLL_SECONDS = 0.05


@dataclass
class _Handle:
    """Shared per-position state between the downloader and a lane."""

    accession: str
    #: bounded chunk queue: ("chunk", payload) | ("done", None) | ("error", exc)
    items: queue.Queue
    #: per-accession jitter stream, shared with the lane's align retries
    #: so draw order matches the sequential path exactly
    rng: Any
    #: lane → downloader: stop moving bytes for this position
    cancel: threading.Event = field(default_factory=threading.Event)
    #: downloader → lane: header parsed (or ``error`` set)
    meta: threading.Event = field(default_factory=threading.Event)
    #: downloader → lane: this position's download work is over
    finished: threading.Event = field(default_factory=threading.Event)
    #: the live stream (set just before ``meta``)
    stream: SraStream | None = None
    #: prefetch/dump step failure, raised in the lane (before meta)
    error: StepFailed | None = None
    #: retries spent by the downloader on this accession's steps
    retries: int = 0
    #: wall seconds the downloader spent on this accession
    download_seconds: float = 0.0
    #: seconds the downloader sat blocked on a full chunk queue
    stall_seconds: float = 0.0


class StreamedReads:
    """One streamed batch's reads, keyed by batch position (see module doc).

    ``pending`` lists the ``(position, accession)`` pairs the batch will
    run; ``lanes`` is how many positions align at once.  :meth:`open`
    starts the downloader, :meth:`run` runs one position through the
    pipeline's harness with its streamed body and retry rng, and
    :meth:`close` stops the downloader and joins it.
    """

    def __init__(
        self,
        pipeline,
        options: BatchOptions,
        pending: list[tuple[int, str]],
        lanes: int,
    ) -> None:
        self.pipeline = pipeline
        self.options = options
        self._handles = {
            position: _Handle(
                accession,
                queue.Queue(maxsize=options.buffer_chunks),
                derive_rng(pipeline.config.retry_seed, f"retry:{accession}"),
            )
            for position, accession in pending
        }
        #: admits the positions being aligned plus ``prefetch_depth``
        #: lookahead downloads; released as each lane finishes one
        self._admission = threading.Semaphore(lanes + options.prefetch_depth)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._download_all, name="stream-downloader", daemon=True
        )

    def open(self) -> StreamedReads:
        """Start the downloader; returns ``self``."""
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the downloader and join it.

        Positions a lane ran were released by :meth:`run`; positions
        never run (a drain, or an error escaping the batch) stop at the
        next chunk boundary, their downloads cancelled.
        """
        self._stop.set()
        self._admission.release()  # wake a downloader awaiting admission
        self._thread.join(timeout=30.0)

    def run(self, position: int, journal: RunJournal | None) -> PipelineResult:
        """Run one position under the pipeline's harness, then release it.

        The release (cancel, drain the queue, admit the next download)
        also runs when the harness raises before the body, so the
        downloader never blocks on a queue that no lane reads.
        """
        handle = self._handles[position]
        try:
            return self.pipeline._run_guarded(
                handle.accession,
                journal,
                functools.partial(self._consume, handle),
                rng=handle.rng,
            )
        finally:
            self._release(handle)

    @staticmethod
    def _cancel(handle: _Handle) -> None:
        """Stop moving bytes for ``handle`` at the next chunk boundary."""
        handle.cancel.set()
        if handle.stream is not None:
            handle.stream.cancel()

    def _release(self, handle: _Handle) -> None:
        """Cancel a handle, drain its queue, and admit the next download."""
        self._cancel(handle)
        while True:
            try:
                handle.items.get_nowait()
            except queue.Empty:
                break
        self._admission.release()

    # -- downloader side -----------------------------------------------------

    def _download_all(self) -> None:
        for handle in self._handles.values():
            self._admission.acquire()
            if self._stop.is_set():
                return
            self._download_one(handle)

    def _download_one(self, handle: _Handle) -> None:
        pipeline = self.pipeline
        cfg = pipeline.config
        options = self.options
        started = time.monotonic()

        def on_retry(step, attempt, exc, delay):
            handle.retries += 1
            pipeline.retry_ledger.record(step)

        def open_stream() -> SraStream:
            # same fault point as the sequential prefetch(); each retry
            # reopens the stream so attempts are independent
            if cfg.fault_plan is not None:
                cfg.fault_plan.check("prefetch", handle.accession)
            return SraStream(
                pipeline.repository,
                handle.accession,
                chunk_bytes=options.download_chunk_bytes,
                chunk_reads=options.chunk_reads,
            ).open()

        def dump_check() -> None:
            # decode happens inline while streaming, but the scripted
            # fault point (and its retry accounting) must keep working
            if cfg.fault_plan is not None:
                cfg.fault_plan.check("fasterq_dump", handle.accession)

        retried = functools.partial(
            run_with_retry,
            policy=cfg.retry,
            key=handle.accession,
            rng=handle.rng,
            on_retry=on_retry,
        )
        try:
            try:
                stream = retried(open_stream, step="prefetch")
                retried(dump_check, step="fasterq_dump")
            except StepFailed as exc:
                handle.error = exc
                handle.meta.set()
                return
            handle.stream = stream
            handle.meta.set()
            try:
                for chunk in stream.chunks():
                    if not self._put(handle, ("chunk", chunk)):
                        stream.cancel()
                        return
                self._put(handle, ("done", None))
            except Exception as exc:  # decode/transfer failure mid-stream
                self._put(handle, ("error", exc))
        finally:
            handle.download_seconds = time.monotonic() - started
            stream = handle.stream
            if stream is not None:
                pipeline.stage_health.stage("prefetch").record(
                    items=1,
                    units=stream.bytes_downloaded,
                    busy=max(
                        0.0, handle.download_seconds - handle.stall_seconds
                    ),
                    stall=handle.stall_seconds,
                )
                pipeline.stage_health.record_stream(
                    bytes_total=stream.total_bytes,
                    bytes_saved=stream.bytes_saved,
                    cancelled=stream.cancelled,
                )
            handle.finished.set()

    def _put(self, handle: _Handle, item: tuple) -> bool:
        """Enqueue with backpressure; False when cancelled/stopped."""
        metrics = self.pipeline.stage_health.stage("prefetch")
        while True:
            if handle.cancel.is_set() or self._stop.is_set():
                return False
            try:
                metrics.sample_queue(handle.items.qsize())
                handle.items.put(item, timeout=_POLL_SECONDS)
                return True
            except queue.Full:
                handle.stall_seconds += _POLL_SECONDS

    # -- lane side -----------------------------------------------------------

    def _consume(self, handle: _Handle, harness: StepHarness) -> StageContext:
        """A streamed position's body: what differs from ``_run_steps``
        is waiting on the handle and settling the download accounting."""
        pipeline = self.pipeline
        self._await_meta(handle)
        harness.retries["n"] += handle.retries
        if handle.error is not None:
            handle.finished.wait()
            harness.timings["prefetch"] += handle.download_seconds
            raise handle.error
        stream = handle.stream
        state = harness.state
        state["streamed"] = True
        state["paired"] = stream.paired
        state["download_bytes_total"] = stream.total_bytes
        ctx = StageContext(
            pipeline=pipeline,
            accession=handle.accession,
            work=harness.work,
            state=state,
            paired=stream.paired,
            reads=ReadChunkStream(
                self._chunks(handle), stream.n_reads, stream.paired
            ),
            # early stop / drain: stop moving bytes at the next boundary
            on_align_abort=lambda record: self._cancel(handle),
        )
        pipeline._run_steps(harness, ctx, [AlignStage()])
        handle.finished.wait()
        state["fastq_bytes"] = stream.fastq_bytes
        state["download_bytes_saved"] = stream.bytes_saved
        harness.timings["prefetch"] += handle.download_seconds
        pipeline.stage_health.stage("align").record(units=stream.records_out)
        return ctx

    def _await_meta(self, handle: _Handle) -> None:
        while not handle.meta.wait(_POLL_SECONDS):
            if not self._thread.is_alive():
                raise RuntimeError(
                    "stream downloader died before metadata for "
                    f"{handle.accession!r}"
                )

    def _chunks(self, handle: _Handle):
        """Generator bridging the chunk queue into the align stage."""
        metrics = self.pipeline.stage_health.stage("align")
        stalled = 0.0
        try:
            while True:
                try:
                    kind, payload = handle.items.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    if handle.finished.is_set() and handle.items.empty():
                        return  # cancelled: downloader exited early
                    stalled += _POLL_SECONDS
                    continue
                if kind == "chunk":
                    metrics.sample_queue(handle.items.qsize())
                    yield payload
                elif kind == "error":
                    raise payload
                else:  # "done"
                    return
        finally:
            metrics.record(stall=stalled)
