"""Shared-memory parallel alignment engine.

The paper's instance architecture (§II, Fig. 2) keeps one copy of the
STAR index in ``/dev/shm`` and fans alignment work out to every core.
This module reproduces both levers for the in-process aligner:

* :class:`SharedIndexBlocks` publishes a :class:`~repro.align.index.
  GenomeIndex`'s big arrays — the genome (1 byte/base), the suffix
  array (8 bytes/base), the sorted suffix keys (4 bytes/base) and the
  prefix jump table — into POSIX shared memory once.  Worker processes
  *attach* to the blocks and wrap them in zero-copy numpy views instead
  of each receiving a ~13 byte/base pickle or rebuilding the keys;

* :class:`ParallelStarAligner` shards a read stream into batches,
  dispatches them to a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` as packed
  :class:`~repro.reads.fastq.ReadBatch` arrays (ids, base codes, Phred
  scores, offsets — no per-read objects to pickle or rebuild), and
  merges the per-batch results **deterministically in read order**
  through the same
  :func:`~repro.align.merge.merge_shards` loop serial runs use, so the merged
  :class:`~repro.align.star.StarRunResult` is identical to what the
  serial :class:`~repro.align.star.StarAligner` produces — outcomes,
  progress snapshots, final stats, and gene counts alike.

The early-stopping contract survives parallelism: the monitor hook sees
merged :class:`~repro.align.progress.ProgressRecord` values in read
order at exactly the serial cadence, and an abort stops the merge at the
same read the serial loop would have stopped at, cancels every batch not
yet dispatched, and abandons the (bounded) in-flight window.

A dead worker surfaces as the executor's ``BrokenProcessPool`` and
nothing else: the engine replaces the broken pool once and sends the
shards it lost to the replacement, so outputs never depend on what
failed.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import signal
import threading
import time
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import connection, shared_memory
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.align.counts import GeneCountsPartial
from repro.align.index import GenomeIndex
from repro.align.merge import merge_shards
from repro.align.outcome import OutcomeBatch, PairedOutcomeBatch
from repro.align.paired import (
    PairedParameters,
    PairedRunResult,
    PairedStarAligner,
    PairedTally,
)
from repro.align.star import (
    ProgressMonitorHook,
    SingleEndTally,
    StarAligner,
    StarParameters,
    StarRunResult,
)
from repro.align.suffix_array import PrefixJumpTable, SeedSearchStats
from repro.genome.annotation import Annotation
from repro.reads.fastq import FastqRecord, ReadBatch, cut_batches

__all__ = [
    "EngineHealth",
    "ParallelStarAligner",
    "SharedIndexBlocks",
    "SharedIndexSpec",
    "attach_shared_index",
]


# --------------------------------------------------------------------------
# shared-memory publication
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedIndexSpec:
    """Everything a worker needs to reconstruct the index.

    The block names point at the shared-memory copies of the big
    arrays; the remaining fields (contig table, annotation, sjdb) are
    small and travel with the spec itself.
    """

    genome_block: str
    suffix_block: str
    #: the sorted suffix keys (int32, one per SA entry)
    keys_block: str
    n_bases: int
    assembly_name: str
    names: list[str]
    offsets: np.ndarray
    annotation: Annotation | None
    sjdb: set[tuple[str, int, int]]
    #: prefix jump table, published alongside genome/SA so workers never
    #: rebuild it; ``None`` when the index was built without one
    jump_block: str | None = None
    jump_length: int = 0


def attach_shared_index(spec: SharedIndexSpec) -> tuple[GenomeIndex, list]:
    """Attach to published blocks and build a zero-copy :class:`GenomeIndex`.

    Returns the index plus the block handles, which the caller must keep
    alive for as long as the index is used (the numpy views borrow their
    buffers).

    Attaching re-registers the block names with the resource tracker.
    Pool workers share their parent's tracker process, where registration
    is idempotent (a set), so the parent's single ``unlink`` on shutdown
    leaves the tracker clean — no "leaked shared_memory" warnings and no
    per-worker unregister gymnastics.
    """
    genome_shm = shared_memory.SharedMemory(name=spec.genome_block)
    suffix_shm = shared_memory.SharedMemory(name=spec.suffix_block)
    keys_shm = shared_memory.SharedMemory(name=spec.keys_block)
    genome = np.ndarray((spec.n_bases,), dtype=np.uint8, buffer=genome_shm.buf)
    suffix = np.ndarray((spec.n_bases,), dtype=np.int64, buffer=suffix_shm.buf)
    keys = np.ndarray((spec.n_bases,), dtype=np.int32, buffer=keys_shm.buf)
    handles = [genome_shm, suffix_shm, keys_shm]
    jump_table = None
    if spec.jump_block is not None:
        jump_shm = shared_memory.SharedMemory(name=spec.jump_block)
        entries = 6**spec.jump_length + 1
        bounds = np.ndarray((entries,), dtype=np.int64, buffer=jump_shm.buf)
        jump_table = PrefixJumpTable(spec.jump_length, bounds)
        handles.append(jump_shm)
    index = GenomeIndex(
        assembly_name=spec.assembly_name,
        genome=genome,
        suffix_array=suffix,
        offsets=spec.offsets,
        names=list(spec.names),
        annotation=spec.annotation,
        sjdb=spec.sjdb,
        jump_table=jump_table,
        # the publisher decides whether a table exists; a worker must not
        # quietly rebuild one the parent chose to omit
        auto_jump_table=False,
        suffix_keys=keys,
    )
    return index, handles


class SharedIndexBlocks:
    """Owner of the shared-memory copies of one index's big arrays.

    Create in the parent, hand :attr:`spec` to workers, and call
    :meth:`close` (or rely on the garbage-collection finalizer) to
    release the segments.  Closing is idempotent.
    """

    def __init__(self, index: GenomeIndex) -> None:
        genome = np.ascontiguousarray(index.genome, dtype=np.uint8)
        suffix = np.ascontiguousarray(index.suffix_array, dtype=np.int64)
        if index.jump_table is None and index.auto_jump_table and index.n_bases:
            index.jump_table = PrefixJumpTable.build(genome, suffix)
        keys = np.ascontiguousarray(index.sorted_keys(), dtype=np.int32)
        self._shms = [_publish(genome), _publish(suffix), _publish(keys)]
        genome_shm, suffix_shm, keys_shm = self._shms
        jump_block = None
        jump_length = 0
        if index.jump_table is not None:
            bounds = np.ascontiguousarray(index.jump_table.bounds, dtype=np.int64)
            jump_shm = _publish(bounds)
            self._shms.append(jump_shm)
            jump_block = jump_shm.name
            jump_length = index.jump_table.length
        self.spec = SharedIndexSpec(
            genome_block=genome_shm.name,
            suffix_block=suffix_shm.name,
            keys_block=keys_shm.name,
            n_bases=index.n_bases,
            assembly_name=index.assembly_name,
            names=list(index.names),
            offsets=np.asarray(index.offsets, dtype=np.int64).copy(),
            annotation=index.annotation,
            sjdb=index.sjdb,
            jump_block=jump_block,
            jump_length=jump_length,
        )
        self._finalizer = weakref.finalize(self, _release_blocks, *self._shms)

    @property
    def nbytes(self) -> int:
        """Bytes resident in shared memory."""
        return sum(shm.size for shm in self._shms)

    def close(self) -> None:
        """Release every segment (close + unlink); safe to call twice."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive


def _publish(array: np.ndarray) -> shared_memory.SharedMemory:
    """A new shared-memory block holding a copy of ``array``.

    shared_memory rejects zero-sized segments; a degenerate empty index
    still gets valid (1-byte) blocks and n_bases=0 views.
    """
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)[:] = array
    return shm


def _release_blocks(*blocks: shared_memory.SharedMemory) -> None:
    for shm in blocks:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

#: Per-worker state, populated by :func:`_init_worker`.  Module-global so
#: batch functions dispatched through the pool can reach it.
_WORKER: dict = {}


def _init_worker(
    spec: SharedIndexSpec,
    parameters: StarParameters,
    paired_parameters: PairedParameters,
) -> None:
    index, handles = attach_shared_index(spec)
    aligner = StarAligner(index, parameters)
    # Build the search context now (bytes genome + zero-copy SA view):
    # paying it at init keeps the first batch's latency flat.
    index.search_context  # noqa: B018 - intentional warm-up
    _WORKER["aligner"] = aligner
    _WORKER["paired"] = PairedStarAligner(aligner, paired_parameters)
    _WORKER["handles"] = handles


def _align_records(
    aligner: StarAligner, reads: ReadBatch
) -> tuple[OutcomeBatch, GeneCountsPartial | None, dict]:
    """Align one single-end batch with a given aligner (pure; no globals).

    Shared by pool workers, the parent's serial fallback and FaaS
    functions, so a batch produces identical results wherever it runs.
    The outcome batch and its GeneCounts partial are what cross the
    process boundary (and go into a shard checkpoint); the third element
    is this batch's seed-search counter delta (see
    :class:`~repro.align.suffix_array.SeedSearchStats`), which the
    engine folds into :attr:`EngineHealth.seed_search`.
    """
    stats = aligner.index.search_context.stats
    before = stats.snapshot()
    # align_batch routes through the vectorized batch core when the
    # parameters enable it (the per-read loop otherwise) — either way the
    # outcomes are bit-identical, so workers and the parent's serial
    # fallback stay interchangeable.
    outcomes = aligner.align_batch(reads)
    annotation = aligner._counted_annotation()
    partial = (
        SingleEndTally.gene_partial(annotation, outcomes)
        if annotation is not None
        else None
    )
    return outcomes, partial, stats.since(before)


def _align_pairs(
    paired: PairedStarAligner,
    batch: tuple[ReadBatch, ReadBatch],
) -> tuple[PairedOutcomeBatch, GeneCountsPartial | None, dict]:
    """Align one paired batch with a given paired aligner (pure; no globals)."""
    stats = paired.aligner.index.search_context.stats
    before = stats.snapshot()
    outcomes = paired._pair_batch(batch)
    annotation = paired._counted_annotation()
    partial = (
        PairedTally.gene_partial(annotation, outcomes)
        if annotation is not None
        else None
    )
    return outcomes, partial, stats.since(before)


def _align_batch(
    reads: ReadBatch,
) -> tuple[OutcomeBatch, GeneCountsPartial | None, dict]:
    """Pool entry point: align one single-end batch with the worker aligner."""
    return _align_records(_WORKER["aligner"], reads)


def _align_batch_paired(
    batch: tuple[ReadBatch, ReadBatch],
) -> tuple[PairedOutcomeBatch, GeneCountsPartial | None, dict]:
    """Pool entry point: align one paired batch with the worker aligner."""
    return _align_pairs(_WORKER["paired"], batch)


def _shard_size(
    n_reads: int, lanes: int, batch_size: int | None, batch_align: bool
) -> int:
    """Reads per shard for a run of ``n_reads`` spread over ``lanes``
    (engine workers, or concurrent FaaS invocations).

    An explicit ``batch_size`` wins.  The per-read path keeps 64-read
    shards: per-read cost dominates, so shard size is latency-neutral.
    The batch core amortizes its per-call numpy overhead over the whole
    shard, so shards are as large as load balancing allows — two per
    lane bounds the tail straggler at half a lane's share — clamped to
    [64, 1024] so tiny runs still reach every lane and huge runs still
    checkpoint at a useful cadence.
    """
    if batch_size is not None:
        return batch_size
    if not batch_align:
        return 64
    per_lane = -(-n_reads // (2 * lanes))  # ceil division
    return max(64, min(1024, per_lane))


def _tail_floor(shard: int) -> int:
    """Minimum size worth dispatching as its own final shard."""
    return max(1, shard // 4)


def _shard_bounds(total: int, shard: int) -> list[tuple[int, int]]:
    """Slice bounds for ``total`` reads in ``shard``-sized pieces.

    A degenerate tail (shorter than a quarter shard) is merged into the
    previous shard instead of being dispatched on its own — streaming
    produces arbitrary tail chunks, and a near-empty final dispatch
    costs a full worker round-trip for a handful of reads.  Results are
    unaffected: merging only moves a batch boundary, and outcomes are
    batch-boundary invariant.
    """
    bounds = [
        (start, min(start + shard, total)) for start in range(0, total, shard)
    ]
    if len(bounds) >= 2 and bounds[-1][1] - bounds[-1][0] < _tail_floor(shard):
        start, end = bounds.pop()
        prev_start, _ = bounds.pop()
        bounds.append((prev_start, end))
    return bounds


def _cut_shards(batches: Iterable[ReadBatch], shard: int) -> Iterator[ReadBatch]:
    """Shards of a batch feed, cut lazily by :func:`_shard_bounds`' rule."""
    return cut_batches(batches, shard, floor=_tail_floor(shard))


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------

#: pools a shard is sent to: one that broke this many is computed in the
#: parent instead
_MAX_DISPATCHES = 3
#: seconds a pool's manager thread gets to act on a dead worker or a
#: shutdown before the engine acts for it (see :meth:`ParallelStarAligner.
#: _finished` and :func:`_shut_down`)
_MANAGER_GRACE = 0.5


@dataclass
class EngineHealth:
    """Failure/recovery accounting for one engine's lifetime.

    A worker death breaks the whole pool: ``pool_restarts`` counts the
    broken pools replaced.  ``redispatched_batches`` counts shards re-sent
    to a replacement and ``serial_fallback_batches`` shards computed in
    the parent.
    """

    redispatched_batches: int = 0
    serial_fallback_batches: int = 0
    pool_restarts: int = 0
    #: aggregated seed-search counters (jump-table hits, binary-search
    #: steps saved, fallback-depth histogram) across every batch merged by
    #: this engine, wherever the batch ran
    seed_search: SeedSearchStats = field(default_factory=SeedSearchStats)


#: sentinel for an exhausted payload stream in _ordered_results
_NO_PAYLOAD = object()


class _Sent(NamedTuple):
    """One shard in the merge window, kept so it can be sent again."""

    payload: object
    future: Future
    #: the pool computing it; None when the parent computed it
    pool: ProcessPoolExecutor | None
    dispatches: int


def _computed(future: Future) -> bool:
    """The future holds its shard's result."""
    return future.done() and not future.cancelled() and future.exception() is None


def _lost_worker(pool: ProcessPoolExecutor) -> bool:
    """A worker of ``pool`` has exited, or the pool is shut down."""
    processes = pool._processes
    if processes is None:
        return True
    return bool(connection.wait([p.sentinel for p in list(processes.values())], 0))


def _shut_down(pool: ProcessPoolExecutor) -> threading.Thread | None:
    """Shut ``pool`` down now: cancel the shards it has not started and
    kill its workers.  Returns its manager thread, for the caller to join.

    A run still waiting on one of its shards sees it fail and computes it
    elsewhere.  The kill is what makes shutdown safe after a worker died
    unnoticed: an idle worker waits for a task holding the call queue's
    read lock, so once it is SIGKILLed there the others never read their
    shutdown sentinels, and the manager would join them forever.

    Two pipe ends this process holds can still keep the manager from
    ever returning; closing them gives it EOF or EPIPE:

    * the result pipe's write end.  A worker killed half-way through
      writing a result leaves the manager waiting in ``recv`` for the
      rest, and this process never writes there;
    * the call queue's read end, on CPython before 3.11.7 and 3.12.1
      (gh-94777).  A worker that dies while the feeder thread writes a
      payload bigger than a pipe buffer leaves that write blocked for
      good, and the manager joins the feeder.  It is closed only when the
      manager outlives :data:`_MANAGER_GRACE`, where the feeder is stuck:
      an earlier close would make the feeder print a broken-pipe
      traceback for the shutdown sentinels it still writes.

    Workers forked later would inherit both ends and keep the pipes open,
    so a replacement pool is forked only after this returns.
    """
    manager = pool._executor_manager_thread
    reader, writer = pool._call_queue._reader, pool._result_queue._writer
    workers = list(pool._processes.values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.kill()
    writer.close()
    if manager is not None:
        manager.join(_MANAGER_GRACE)
        if manager.is_alive():
            reader.close()
    return manager


class ParallelStarAligner:
    """Multiprocess drop-in for :class:`~repro.align.star.StarAligner.run`.

    The engine owns a :class:`SharedIndexBlocks` publication and a
    persistent :class:`~concurrent.futures.ProcessPoolExecutor`; both are
    created lazily on the first :meth:`run` (or eagerly via
    :meth:`start`/``with``) and reused across runs, mirroring the paper's
    load-index-once-per-instance design.

    A task carries one shard of ``batch_size`` reads as a packed
    :class:`~repro.reads.fastq.ReadBatch` (a pair of them when paired):
    a materialized accession is packed once and cut into slices, a lazy
    feed is packed shard by shard, and re-dispatch and the parent's
    serial fallback reuse the same payload.  The index is never re-sent.
    ``batch_size=None`` (the default) sizes shards from the batch-core
    cost model (see :func:`_shard_size`).  Results are
    merged strictly in read order by :func:`~repro.align.merge.
    merge_shards`, so outputs — including the ``Log.progress.out``
    cadence the early-stopping monitor consumes — are identical to a
    serial run's.  At most ``2 × workers`` shards are in flight per run;
    when the monitor aborts, shards not yet dispatched are never cut and
    the in-flight ones are cancelled or discarded.

    A worker death breaks the pool: every shard on it fails with
    :class:`~concurrent.futures.process.BrokenProcessPool` (or, when the
    pool's manager thread is stuck, stays pending past a grace), the
    first run to see that replaces the pool, and each run sends its
    failed shards to the replacement.  A shard that broke
    ``_MAX_DISPATCHES`` pools, or one sent after :meth:`close`, is
    computed in the parent by the same pure helper, so the merged output
    never depends on what failed.
    """

    def __init__(
        self,
        index: GenomeIndex,
        parameters: StarParameters | None = None,
        *,
        workers: int = 2,
        batch_size: int | None = None,
        paired_parameters: PairedParameters | None = None,
        mp_context: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.index = index
        self.parameters = parameters or StarParameters()
        self.paired_parameters = paired_parameters or PairedParameters()
        self.workers = workers
        self.batch_size = batch_size
        self.mp_context = mp_context
        self.health = EngineHealth()
        self._blocks: SharedIndexBlocks | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._local: StarAligner | None = None
        self._local_paired: PairedStarAligner | None = None
        #: guards the pool and the blocks, and counts active runs
        self._dispatch_lock = threading.Lock()
        self._active_runs = 0

    # -- lifecycle -----------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        """A worker pool attached to the already-published blocks."""
        return ProcessPoolExecutor(
            self.workers,
            mp_context=mp.get_context(self.mp_context),
            initializer=_init_worker,
            initargs=(self._blocks.spec, self.parameters, self.paired_parameters),
        )

    def start(self) -> "ParallelStarAligner":
        """Publish the index and start the worker pool (idempotent)."""
        with self._dispatch_lock:
            if self._pool is None:
                self._blocks = SharedIndexBlocks(self.index)
                self._pool = self._new_pool()
                # an executor starts its workers at its first submit: a
                # no-op task starts them now, not in the first run
                self._pool.submit(int)
        return self

    def close(self) -> None:
        """Shut the pool down and release the shared-memory blocks now;
        a run still merging computes its remaining shards in the parent."""
        self.drain(timeout=0)

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: wait for active runs, then shut the pool
        down and release the shared-memory blocks.

        The pipeline's drain path (SIGTERM / spot notice) calls this so
        in-flight alignments finish merging before the pool and the
        shared-memory publication go away.  Returns True when every run
        finished within ``timeout`` seconds (or no run was active);
        False when the deadline expired and the pool was shut down with
        work still in flight — those runs compute whatever shards remain
        in the parent, so they still complete correctly.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._dispatch_lock:
                idle = self._active_runs == 0
                if idle or (deadline is not None and time.monotonic() >= deadline):
                    pool, blocks = self._pool, self._blocks
                    self._pool = self._blocks = None
                    break
            time.sleep(0.005)
        manager = None if pool is None else _shut_down(pool)
        if manager is not None:
            manager.join()
        if blocks is not None:
            blocks.close()
        return idle

    def __enter__(self) -> "ParallelStarAligner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def shared_bytes(self) -> int:
        """Bytes currently published to shared memory (0 when stopped)."""
        return self._blocks.nbytes if self._blocks is not None else 0

    # -- fault injection / introspection ---------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the current pool's live workers (empty when stopped)."""
        processes = getattr(self._pool, "_processes", None) or {}
        return [p.pid for p in list(processes.values()) if p.is_alive()]

    def kill_worker(self, index: int = 0) -> int:
        """SIGKILL one live worker (chaos testing); returns its pid.

        The pool breaks; the runs with shards on it send them to a
        replacement and keep going — callers observe nothing but latency.
        """
        pids = self.start().worker_pids()
        if not pids:
            raise RuntimeError("no live workers to kill")
        pid = pids[index % len(pids)]
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- dispatch ------------------------------------------------------------

    def _local_aligner(self) -> StarAligner:
        """The parent-process serial aligner used for fallback batches."""
        if self._local is None:
            self._local = StarAligner(self.index, self.parameters)
        return self._local

    def _local_paired_aligner(self) -> PairedStarAligner:
        if self._local_paired is None:
            self._local_paired = PairedStarAligner(
                self._local_aligner(), self.paired_parameters
            )
        return self._local_paired

    def _local_equivalent(self, fn: Callable) -> Callable:
        """The in-parent function computing exactly what ``fn`` computes
        in a worker — same pure batch helper, different aligner instance,
        byte-identical results."""
        if fn is _align_batch:
            return lambda payload: _align_records(self._local_aligner(), payload)
        return lambda payload: _align_pairs(self._local_paired_aligner(), payload)

    def _replace(self, broken: ProcessPoolExecutor) -> None:
        """Swap a broken pool for a fresh one.

        Every run with shards on ``broken`` sees it fail; the first to get
        here while it is still the current pool replaces it.  The blocks
        outlive the pool, so the index is never re-published.  The broken
        pool's pipe ends are closed under the lock, before any submit can
        fork the replacement's workers; its manager is joined after.
        """
        with self._dispatch_lock:
            if broken is not self._pool:
                return
            self._pool = self._new_pool()
            self.health.pool_restarts += 1
            manager = _shut_down(broken)
        if manager is not None:
            manager.join()

    def _send(
        self, fn: Callable, local_fn: Callable, payload, dispatches: int = 1
    ) -> _Sent:
        """Submit one shard to the current pool, or compute it in the
        parent when the engine is closed or the shard has broken
        ``_MAX_DISPATCHES`` pools."""
        while True:
            with self._dispatch_lock:
                pool = self._pool
                if pool is None or dispatches > _MAX_DISPATCHES:
                    self.health.serial_fallback_batches += 1
                    break
                try:
                    future = pool.submit(fn, payload)
                except BrokenProcessPool:
                    # broken before any run saw a shard fail, e.g. by a
                    # worker killed while idle
                    pass
                else:
                    if dispatches > 1:
                        self.health.redispatched_batches += 1
                    return _Sent(payload, future, pool, dispatches)
            self._replace(pool)
        future = Future()
        future.set_result(local_fn(payload))
        return _Sent(payload, future, None, dispatches)

    def _finished(self, sent: _Sent) -> bool:
        """Wait for a shard; False when its pool broke before computing it.

        The executor fails a broken pool's shards with
        :class:`~concurrent.futures.process.BrokenProcessPool`, unless its
        manager thread is stuck: a worker killed half-way through writing
        a result leaves the manager waiting for the rest.  So a shard still
        pending :data:`_MANAGER_GRACE` after its pool lost a worker, or
        stopped being the current pool, counts as lost too.
        """
        future = sent.future
        stalled = False
        while not wait([future], _MANAGER_GRACE).done:
            if stalled:
                return False
            stalled = sent.pool is not self._pool or _lost_worker(sent.pool)
        return _computed(future) or (
            not future.cancelled()
            and not isinstance(future.exception(), BrokenProcessPool)
            and sent.pool is self._pool
        )

    def _head_result(
        self, fn: Callable, local_fn: Callable, window: "deque[_Sent]"
    ):
        """The oldest shard's result.  When its pool broke (or was shut
        down), every shard of the window that a retired pool did not
        compute is sent again."""
        while True:
            head = window[0]
            if head.pool is None or self._finished(head):
                return head.future.result()
            self._replace(head.pool)
            for i, sent in enumerate(window):
                retired = sent.pool is not None and sent.pool is not self._pool
                if retired and not _computed(sent.future):
                    sent.future.cancel()
                    window[i] = self._send(
                        fn, local_fn, sent.payload, sent.dispatches + 1
                    )

    def _ordered_results(self, fn: Callable, payloads: Iterable) -> Iterator:
        """Yield ``(payload, fn(payload))`` pairs in payload order.

        ``payloads`` may be any iterable — including a live stream whose
        next item is not available yet; dispatch simply blocks pulling it
        while already-submitted shards keep crunching in the pool (this
        is the engine end of the streaming pipeline's backpressure).
        Keeps at most ``2 × workers`` shards in flight.  If the caller
        stops consuming (early abort), the remaining payloads are never
        pulled and the in-flight shards are cancelled where they have not
        started — the pool stays usable for subsequent runs.  A broken
        pool's shards are sent again (see :meth:`_head_result`), so the
        stream of results is identical no matter what failed.
        """
        self.start()
        local_fn = self._local_equivalent(fn)
        with self._dispatch_lock:
            self._active_runs += 1
        window: deque[_Sent] = deque()
        try:
            feed = iter(payloads)
            exhausted = False
            while True:
                while not exhausted and len(window) < 2 * self.workers:
                    payload = next(feed, _NO_PAYLOAD)
                    if payload is _NO_PAYLOAD:
                        exhausted = True
                    else:
                        window.append(self._send(fn, local_fn, payload))
                if not window:
                    break
                value = self._head_result(fn, local_fn, window)
                yield window.popleft().payload, value
        finally:
            for sent in window:
                sent.future.cancel()
            with self._dispatch_lock:
                self._active_runs -= 1

    def _note_shard(self, result) -> None:
        """Fold one merged shard's seed-search delta into the health."""
        self.health.seed_search.merge(result[2])

    # -- single-end ------------------------------------------------------------

    def run(
        self,
        records: list[FastqRecord] | ReadBatch | Iterable[ReadBatch],
        *,
        reads_total: int | None = None,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> StarRunResult:
        """Parallel equivalent of :meth:`StarAligner.run` (same signature).

        ``records`` may be a lazy feed of batches (e.g. a streamed chunk
        feed) when ``reads_total`` is given — shards are cut from it as
        they become available and results stay byte-identical to the list
        path.

        ``checkpoint`` (a :class:`repro.core.replication.
        ShardCheckpointer`) turns on shard-level recovery: shards whose
        outcomes the journal already holds are merged from the
        checkpoint instead of re-aligned, and each fully merged live
        shard is journaled as it lands.  The merged result is
        byte-identical to an uncheckpointed run — checkpointing only
        decides *where outcomes come from*, never what they are.
        Requires materialized reads (the shard schedule is positional),
        so a lazy feed is joined up front when a checkpoint is given.
        """
        feed = [ReadBatch.of(records)] if reads_total is None else records
        if checkpoint is not None:
            feed = [ReadBatch.concat(feed)]
        if reads_total is None or checkpoint is not None:
            reads_total = len(feed[0])
        run = self._local_aligner()._accumulator(reads_total, monitor, clock)
        shard = _shard_size(
            reads_total, self.workers, self.batch_size, self.parameters.batch_align
        )
        result = merge_shards(
            run,
            _cut_shards(feed, shard),
            functools.partial(self._ordered_results, _align_batch),
            spans=None if checkpoint is None else _shard_bounds(reads_total, shard),
            checkpoint=checkpoint,
            on_result=self._note_shard,
        )
        if out_dir is not None:
            result.write_outputs(out_dir)
        return result

    # -- paired-end --------------------------------------------------------------

    def run_paired(
        self,
        mate1: list[FastqRecord] | ReadBatch,
        mate2: list[FastqRecord] | ReadBatch,
        *,
        monitor: ProgressMonitorHook | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> PairedRunResult:
        """Parallel equivalent of :meth:`PairedStarAligner.run`.

        ``checkpoint`` has the same contract as in :meth:`run`: paired
        shards already in the journal are merged from it instead of
        re-aligned, and each fully merged live shard is journaled as it
        lands (the payload codec round-trips paired outcome batches —
        see :mod:`repro.align.outcome`).  A shard is one slice of each
        mate's batch.
        """
        if len(mate1) != len(mate2):
            raise ValueError("mate lists must have equal length")
        mate1, mate2 = ReadBatch.of(mate1), ReadBatch.of(mate2)
        run = self._local_paired_aligner()._accumulator(len(mate1), monitor, clock)
        shard = _shard_size(
            len(mate1), self.workers, self.batch_size, self.parameters.batch_align
        )
        return merge_shards(
            run,
            zip(_cut_shards([mate1], shard), _cut_shards([mate2], shard)),
            functools.partial(self._ordered_results, _align_batch_paired),
            spans=_shard_bounds(len(mate1), shard),
            checkpoint=checkpoint,
            on_result=self._note_shard,
        )
