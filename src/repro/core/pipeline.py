"""The Transcriptomics Atlas pipeline (Fig. 1), over the real local toolchain.

Four steps per SRA accession:

1. ``prefetch`` — download the ``.sra`` container from the repository;
2. ``fasterq-dump`` — convert it to FASTQ (paired archives split into
   ``_1``/``_2`` files, detected from the container magic as the real
   tool does);
3. STAR alignment with ``--quantMode GeneCounts`` — monitored by the
   early-stopping policy; executed through whichever
   :class:`~repro.align.backend.AlignerBackend` fits the accession;
4. DESeq2 count normalization — per-sample counts are collected and
   normalized jointly with median-of-ratios once the batch completes.

Every step runs under the :mod:`repro.core.resilience` layer: transient
failures are retried with backoff, permanent ones produce a
:class:`~repro.core.resilience.FailureRecord` on a ``FAILED`` result
instead of aborting the batch — one result per accession, always, in
submission order.

The steps themselves are :class:`~repro.core.stages.Stage` objects (see
:mod:`repro.core.stages`); this module supplies the harness around them
— retries, journaling, timing, drain — and the one
:class:`BatchOptions`-driven batch loop.  Streaming
(``BatchOptions(streaming=True)``, see :mod:`repro.core.streaming`)
changes only where each accession's reads come from.

This class is the *local* (workstation/HPC) embodiment the paper's
conclusions mention; :mod:`repro.core.atlas` embeds the same step
structure in the cloud simulation.
"""

from __future__ import annotations

import contextlib
import enum
import signal as signal_module
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.align.engine import ParallelStarAligner
from repro.align.outcome import AlignmentOutcome
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import (
    JournalIncompatible,
    ReplayedOutcome,
    RunJournal,
    config_fingerprint,
    final_stats_from_payload,
    final_stats_to_payload,
)
from repro.core.resilience import (
    FailureRecord,
    FaultPlan,
    RetryLedger,
    RetryPolicy,
    StepFailed,
    run_with_retry,
)
from repro.core.stages import (
    Deseq2Stage,
    PipelineHealth,
    Stage,
    StageContext,
    default_stages,
)
from repro.quant.matrix import CountMatrix
from repro.reads.sra import SraRepository
from repro.reads.trim import TrimConfig, TrimStats
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.align.star import StarAligner


class RunStatus(enum.Enum):
    """Terminal status of one accession's pipeline run."""

    ACCEPTED = "accepted"
    REJECTED_EARLY = "rejected_early"  # aborted by the monitor
    REJECTED_FINAL = "rejected_final"  # completed but below the acceptance bar
    FAILED = "failed"  # a step exhausted its retry policy
    DRAINED = "drained"  # aborted by a graceful drain; re-run on resume

    @property
    def produced_counts(self) -> bool:
        return self is RunStatus.ACCEPTED

    @property
    def terminal(self) -> bool:
        """False only for DRAINED: the run must be re-executed to finish."""
        return self is not RunStatus.DRAINED


@dataclass(frozen=True)
class StepTiming:
    """Wall-clock seconds per pipeline step (retries included)."""

    prefetch: float
    fasterq_dump: float
    star: float

    @property
    def total(self) -> float:
        return self.prefetch + self.fasterq_dump + self.star


@dataclass
class PipelineResult:
    """Everything one accession's run produced."""

    accession: str
    status: RunStatus
    timing: StepTiming
    #: the run-level result (None only when ``status is FAILED``)
    star_result: AlignmentOutcome | None
    fastq_bytes: int
    counts: dict[str, int] | None = None
    trim_stats: TrimStats | None = None
    paired: bool = False
    #: populated when ``status is FAILED``: which step died, and how
    failure: FailureRecord | None = None
    #: retries spent across this accession's steps
    retries: int = 0
    #: True when this result was replayed from a run journal instead of
    #: executed (``star_result`` is then a lightweight ReplayedOutcome)
    resumed: bool = False
    #: True when the reads came from a download stream (``streaming``)
    streamed: bool = False
    #: archive size in bytes (what a full download would move)
    download_bytes_total: int = 0
    #: bytes a cancelled mid-stream download avoided moving (early stop
    #: or drain while streaming; always 0 on the sequential path)
    download_bytes_saved: int = 0

    @property
    def mapped_fraction(self) -> float:
        if self.star_result is None:
            return 0.0
        return self.star_result.mapped_fraction


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline-level options."""

    early_stopping: EarlyStoppingPolicy | None = field(
        default_factory=EarlyStoppingPolicy
    )
    #: atlas acceptance bar on the final mapping rate, applied whether or
    #: not early stopping is on (None disables filtering)
    acceptance_threshold: float | None = 0.30
    #: strandedness column of ReadsPerGene.out.tab used for the atlas
    counts_column: str = "unstranded"
    #: keep STAR output files on disk under the workspace
    write_outputs: bool = True
    #: optional QC trimming between fasterq-dump and STAR
    trim: "TrimConfig | None" = None
    #: alignment worker processes; >1 routes the STAR step through the
    #: shared-memory :class:`~repro.align.engine.ParallelStarAligner`
    #: (the index is published to shared memory once per pipeline and
    #: reused across accessions, as the paper's instances do)
    workers: int = 1
    #: reads per batch dispatched to an alignment worker; None lets the
    #: engine size shards from its batch-core cost model (see
    #: :class:`~repro.align.engine.ParallelStarAligner`)
    align_batch_size: int | None = None
    #: seconds of no-progress after a worker loss before the engine
    #: declares its pool wedged and degrades to serial (then rebuilds it)
    engine_stall_timeout: float = 5.0
    #: after a drain request, seconds in-flight accessions may keep
    #: running before their alignment is aborted (status DRAINED); 0
    #: aborts at the next progress checkpoint
    drain_deadline: float = 30.0
    #: retry/backoff/deadline policy applied to every step
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(base_delay=0.05, max_delay=2.0)
    )
    #: scripted fault injection (chaos testing); None = no faults
    fault_plan: FaultPlan | None = None
    #: seed for the per-accession backoff-jitter streams
    retry_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.align_batch_size is not None and self.align_batch_size < 1:
            raise ValueError("align_batch_size must be >= 1")
        if self.drain_deadline < 0:
            raise ValueError("drain_deadline must be >= 0")


@dataclass(frozen=True)
class BatchOptions:
    """Everything that shapes one ``run_batch`` call.

    Consolidates the former kwarg pile (``journal=``, ``resume=``,
    ``max_parallel=``, drain deadline, align batch size) into one
    validated bundle.  None of these affect *outputs* (they are
    execution shape, deliberately excluded from the journal's config
    fingerprint) — a batch run with any options resumes a journal
    written with any other.
    """

    #: accessions processed concurrently (lanes of the batch loop)
    max_parallel: int = 1
    #: path or RunJournal making the batch crash-consistent
    journal: RunJournal | Path | str | None = None
    #: replay the journal's terminal records instead of re-running them
    resume: bool = False
    #: feed each accession's reads from a download stream, overlapping
    #: download/decode with alignment
    streaming: bool = False
    #: accessions downloaded ahead of the ones being aligned (streaming)
    prefetch_depth: int = 1
    #: FASTQ records per streamed chunk handed to the align stage
    chunk_reads: int = 256
    #: bounded inter-stage queue length, in chunks (the backpressure
    #: window between the downloader and the align stage)
    buffer_chunks: int = 32
    #: bytes per download chunk (cancellation granularity)
    download_chunk_bytes: int = 65536
    #: per-batch override of ``PipelineConfig.drain_deadline`` (None
    #: keeps the config value)
    drain_deadline: float | None = None
    #: per-batch override of ``PipelineConfig.align_batch_size``; only
    #: effective before the engine is first created
    align_batch_size: int | None = None
    #: journal completed read shards inside the align step so resume
    #: re-dispatches only unfinished shards (requires ``journal``;
    #: engine and faas runs, single-end *and* paired, streamed or not —
    #: serial runs align normally).  Execution shape, like everything
    #: here: results are byte-identical either way.
    shard_checkpoints: bool = False
    #: alignment backend for the batch: one of
    #: :data:`~repro.align.backend.BACKEND_CHOICES` — ``"auto"`` (the
    #: config-driven default), ``"serial"``, ``"engine"`` (requires
    #: ``PipelineConfig.workers > 1``), or ``"faas"`` (shards each
    #: accession across simulated function invocations; see
    #: :class:`~repro.align.backend.FaasAlignerBackend`).  None means
    #: ``"auto"``.  Execution shape: byte-identical outputs either way.
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.backend is not None:
            from repro.align.backend import BACKEND_CHOICES

            if self.backend not in BACKEND_CHOICES:
                raise ValueError(
                    f"backend must be one of {BACKEND_CHOICES}, "
                    f"got {self.backend!r}"
                )
        if self.shard_checkpoints and self.journal is None:
            raise ValueError("shard_checkpoints requires a journal")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.chunk_reads < 1:
            raise ValueError("chunk_reads must be >= 1")
        if self.buffer_chunks < 1:
            raise ValueError("buffer_chunks must be >= 1")
        if self.download_chunk_bytes < 1:
            raise ValueError("download_chunk_bytes must be >= 1")
        if self.drain_deadline is not None and self.drain_deadline < 0:
            raise ValueError("drain_deadline must be >= 0")
        if self.align_batch_size is not None and self.align_batch_size < 1:
            raise ValueError("align_batch_size must be >= 1")


@dataclass
class StepHarness:
    """The retry/journal/timing plumbing handed to a stage-executing body.

    ``attempt(step_key, timing_key, fn)`` runs ``fn`` under the retry
    policy, accumulates wall clock into ``timings[timing_key]``, journals
    the step-done record, and feeds the stage-health counters.  Every
    accession's body goes through ``attempt``, streamed or not, so
    failure semantics are identical.
    """

    accession: str
    work: Path
    attempt: Callable
    state: dict
    timings: dict
    retries: dict
    journal: RunJournal | None
    rng: np.random.Generator

    def result(self, status: RunStatus, **fields) -> PipelineResult:
        """This accession's result: ``fields`` plus the harness accounting."""
        state = self.state
        return PipelineResult(
            accession=self.accession,
            status=status,
            timing=StepTiming(**self.timings),
            fastq_bytes=state["fastq_bytes"],
            paired=state["paired"],
            retries=self.retries["n"],
            streamed=bool(state.get("streamed", False)),
            download_bytes_total=int(state.get("download_bytes_total", 0)),
            download_bytes_saved=int(state.get("download_bytes_saved", 0)),
            **fields,
        )


class TranscriptomicsAtlasPipeline:
    """Runs accessions end to end against a repository and an aligner."""

    def __init__(
        self,
        repository: SraRepository,
        aligner: StarAligner,
        workspace: Path | str,
        *,
        config: PipelineConfig | None = None,
    ) -> None:
        self.repository = repository
        self.aligner = aligner
        self.workspace = Path(workspace)
        self.workspace.mkdir(parents=True, exist_ok=True)
        self.config = config or PipelineConfig()
        self.results: list[PipelineResult] = []
        self.retry_ledger = RetryLedger()
        #: per-stage throughput/stall/queue counters (streaming populates
        #: the queue/stall figures; every shape feeds busy seconds)
        self.stage_health = PipelineHealth()
        self._engine: ParallelStarAligner | None = None
        self._engine_lock = threading.Lock()
        self._results_lock = threading.Lock()
        self._drain = threading.Event()
        self._drain_deadline_at: float | None = None
        #: per-batch overrides installed by run_batch from BatchOptions
        self._drain_deadline_base: float | None = None
        self._align_batch_override: int | None = None
        self._backend_override: str | None = None
        #: the serverless backend, created on first use and kept for the
        #: pipeline's lifetime so warm containers persist across
        #: accessions (the FaaS analogue of the engine's shared index)
        self._faas_backend = None
        #: shard-checkpoint state for the current batch:
        #: (journal, replayed align_shards by accession, fingerprint)
        self._shard_ckpt_state: tuple | None = None
        #: checkpointers created this batch (for rework accounting)
        self._shard_ckpts: list = []
        #: chaos hook: called as (accession, start, end) after each shard
        #: checkpoint lands in the journal
        self._shard_record_hook: Callable[[str, int, int], None] | None = None

    # -- parallel engine lifecycle -------------------------------------------

    def _get_engine(self) -> ParallelStarAligner | None:
        """The shared alignment engine (None when ``config.workers == 1``).

        Created on first use and kept for the pipeline's lifetime so the
        shared-memory index publication and worker pool are paid once,
        not per accession.  Thread-safe for parallel ``run_batch``.
        """
        if self.config.workers <= 1:
            return None
        with self._engine_lock:
            if self._engine is None:
                batch_size = (
                    self._align_batch_override
                    if self._align_batch_override is not None
                    else self.config.align_batch_size
                )
                self._engine = ParallelStarAligner(
                    self.aligner.index,
                    self.aligner.parameters,
                    workers=self.config.workers,
                    batch_size=batch_size,
                    stall_timeout=self.config.engine_stall_timeout,
                ).start()
            return self._engine

    def _get_faas_backend(self):
        """The shared serverless backend (``BatchOptions(backend="faas")``).

        Created on first use and kept for the pipeline's lifetime so the
        simulated warm-container pool carries across accessions — the
        FaaS analogue of keeping the engine's shared-memory index alive.
        Thread-safe for parallel ``run_batch``.
        """
        with self._engine_lock:
            if self._faas_backend is None:
                from repro.align.backend import FaasAlignerBackend

                batch_size = (
                    self._align_batch_override
                    if self._align_batch_override is not None
                    else self.config.align_batch_size
                )
                self._faas_backend = FaasAlignerBackend(
                    self.aligner,
                    batch_size=batch_size,
                )
            return self._faas_backend

    def close(self) -> None:
        """Release the worker pool and shared-memory blocks (idempotent)."""
        with self._engine_lock:
            if self._engine is not None:
                self._engine.close()
                self._engine = None

    # -- graceful drain ------------------------------------------------------

    @property
    def draining(self) -> bool:
        """A drain has been requested (SIGTERM, spot notice, operator)."""
        return self._drain.is_set()

    def request_drain(self, *, deadline: float | None = None) -> None:
        """Stop admitting new accessions; bound in-flight work.

        Batch loops stop picking up accessions immediately.  Accessions
        already executing keep running for ``deadline`` seconds (default
        ``config.drain_deadline``), after which their alignment is
        aborted at the next progress checkpoint and the result is marked
        ``DRAINED`` — journaled as non-terminal, so a resumed run
        re-executes it from scratch.  Idempotent; safe from signal
        handlers and other threads.
        """
        if not self._drain.is_set():
            if deadline is not None:
                budget = deadline
            elif self._drain_deadline_base is not None:
                budget = self._drain_deadline_base
            else:
                budget = self.config.drain_deadline
            self._drain_deadline_at = time.monotonic() + budget
            self._drain.set()

    def _drain_expired(self) -> bool:
        return (
            self._drain.is_set()
            and self._drain_deadline_at is not None
            and time.monotonic() >= self._drain_deadline_at
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Request a drain and tear the engine down once runs finish.

        Returns True when the engine wound down within ``timeout``
        (always True when no engine was running); False when the
        deadline expired and the pool was torn down hard.
        """
        self.request_drain(deadline=timeout)
        with self._engine_lock:
            engine, self._engine = self._engine, None
        if engine is not None:
            return engine.drain(timeout)
        return True

    def __enter__(self) -> "TranscriptomicsAtlasPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single accession --------------------------------------------------

    def run_accession(self, accession: str) -> PipelineResult:
        """Execute all four steps for one accession."""
        result = self._execute_accession(accession)
        with self._results_lock:
            self.results.append(result)
        return result

    def _execute_accession(
        self, accession: str, journal: RunJournal | None = None
    ) -> PipelineResult:
        """All four steps, without touching shared pipeline state.

        Never raises: a step that exhausts its retry policy (or any
        unexpected internal error) is converted to a ``FAILED`` result
        carrying a :class:`FailureRecord`, so batch runs keep every
        other accession's work.

        With a ``journal``, every state transition is durably appended
        *before* the pipeline moves on: ``started`` ahead of the first
        step, ``step-done`` after each step's retries settle, and a
        terminal ``completed``/``failed`` (or non-terminal ``drained``)
        record carrying everything resume needs to replay the result.
        """
        return self._run_guarded(accession, journal, self._run_steps)

    def _run_guarded(
        self,
        accession: str,
        journal: RunJournal | None,
        body: Callable[[StepHarness], StageContext],
        *,
        rng: np.random.Generator | None = None,
    ) -> PipelineResult:
        """Run ``body`` under the retry/journal/failure harness, then classify.

        Builds the :class:`StepHarness` (workspace dir, timing buckets,
        retry accounting, the per-accession jitter rng — callers that
        pre-draw from the stream, like the streaming downloader, pass
        their ``rng`` in) and converts any escaped :class:`StepFailed`
        or unexpected exception into a ``FAILED`` result.  Every
        accession executes through here, streamed or not.
        """
        cfg = self.config
        work = self.workspace / accession
        work.mkdir(parents=True, exist_ok=True)
        if rng is None:
            rng = derive_rng(cfg.retry_seed, f"retry:{accession}")
        timings = {"prefetch": 0.0, "fasterq_dump": 0.0, "star": 0.0}
        retries = {"n": 0}
        state = {"paired": False, "fastq_bytes": 0}

        def on_retry(step: str, attempt: int, exc: BaseException, delay: float):
            retries["n"] += 1
            self.retry_ledger.record(step)

        def attempt(step: str, timing_key: str, fn):
            started = time.monotonic()
            try:
                value = run_with_retry(
                    fn,
                    policy=cfg.retry,
                    step=step,
                    key=accession,
                    rng=rng,
                    on_retry=on_retry,
                )
            finally:
                elapsed = time.monotonic() - started
                timings[timing_key] += elapsed
                self.stage_health.stage(step).record(items=1, busy=elapsed)
            if journal is not None:
                journal.record_step_done(accession, step)
            return value

        harness = StepHarness(
            accession=accession,
            work=work,
            attempt=attempt,
            state=state,
            timings=timings,
            retries=retries,
            journal=journal,
            rng=rng,
        )
        if journal is not None:
            journal.record_started(accession)
        try:
            result = self._classify(body(harness), harness)
            self._journal_terminal(journal, result)
            return result
        except StepFailed as exc:
            failure = exc.record
        except Exception as exc:  # defensive: isolate unexpected errors too
            failure = FailureRecord(
                step="internal",
                key=accession,
                attempts=1,
                elapsed_seconds=0.0,
                error=repr(exc),
                error_chain=[repr(exc)],
            )
        result = harness.result(RunStatus.FAILED, star_result=None, failure=failure)
        self._journal_terminal(journal, result)
        return result

    @staticmethod
    def _journal_terminal(
        journal: RunJournal | None, result: PipelineResult
    ) -> None:
        if journal is None:
            return
        if result.status is RunStatus.DRAINED:
            journal.record_drained(result.accession)
        elif result.status is RunStatus.FAILED:
            journal.record_failed(result.accession, _result_payload(result))
        else:
            journal.record_completed(result.accession, _result_payload(result))

    def _accession_stages(self) -> list[Stage]:
        """The per-accession stage DAG (override point for subclasses)."""
        return default_stages()

    def _run_steps(
        self,
        harness: StepHarness,
        ctx: StageContext | None = None,
        stages: list[Stage] | None = None,
    ) -> StageContext:
        """The happy path: run the stage DAG in order under the harness.

        A streamed accession passes a context already carrying its read
        feed, and the align stage alone.
        """
        if ctx is None:
            ctx = StageContext(
                pipeline=self,
                accession=harness.accession,
                work=harness.work,
                state=harness.state,
            )
        for stage in self._accession_stages() if stages is None else stages:
            stage.prepare(ctx)
            harness.attempt(
                stage.step_key,
                stage.timing_key,
                lambda stage=stage: stage.run(ctx),
            )
        return ctx

    def _classify(
        self, ctx: StageContext, harness: StepHarness
    ) -> PipelineResult:
        """Terminal status + result assembly for a completed stage run."""
        cfg = self.config
        star_result = ctx.star_result
        if ctx.drain_hit:
            status = RunStatus.DRAINED
        elif star_result.aborted:
            status = RunStatus.REJECTED_EARLY
        elif (
            cfg.acceptance_threshold is not None
            and star_result.mapped_fraction < cfg.acceptance_threshold
        ):
            status = RunStatus.REJECTED_FINAL
        else:
            status = RunStatus.ACCEPTED

        counts = None
        if status.produced_counts and star_result.gene_counts is not None:
            counts = star_result.gene_counts.column_vector(cfg.counts_column)

        return harness.result(
            status,
            star_result=star_result,
            counts=counts,
            trim_stats=ctx.trim_stats,
        )

    def run_batch(
        self,
        accessions: list[str],
        options: BatchOptions | None = None,
    ) -> list[PipelineResult]:
        """Run several accessions (one instance's view).

        Execution shape is configured through ``options`` (a
        :class:`BatchOptions`; the defaults when omitted).

        One loop runs every batch: ``min(max_parallel, pending)`` lanes
        (one runs inline on the caller's thread, more use a thread pool)
        each take the next batch position from a shared cursor.  The
        prefetch/dump steps are I/O-shaped and the alignment step hands
        its CPU work to the engine's worker *processes*, so threads only
        coordinate.  ``streaming=True`` changes only where reads come
        from: the next accession's download streams into a bounded chunk
        queue while the current one aligns (see
        :mod:`repro.core.streaming`) — with byte-identical results.  A
        failure is a ``FAILED`` result, never an exception, so one
        accession cannot drop another's work; the returned list and
        ``self.results`` keep submission order regardless of completion
        order, so downstream count matrices are reproducible.

        ``journal`` (a path or :class:`RunJournal`) makes the batch
        crash-consistent: every accession's step transitions are durably
        appended before execution proceeds.  With ``resume=True`` the
        journal is replayed first — accessions with a terminal record
        are *not* re-run; their results are reconstructed from the
        journal (``resumed=True``) and interleaved at their submission
        positions, so an interrupted batch resumed from its journal
        returns byte-identical per-accession outcomes and count
        matrices versus an uninterrupted run.  A journal written by a
        pipeline whose output-affecting config differs raises
        :class:`~repro.core.journal.JournalIncompatible`.  Execution
        shape is *not* fingerprinted: streamed and sequential runs
        resume each other's journals freely.

        Under a drain request (:meth:`request_drain`), accessions not
        yet started are skipped — the returned list then covers only
        replayed, finished, and ``DRAINED`` work, and the journal holds
        everything a resume needs to complete the batch.
        """
        if options is None:
            options = BatchOptions()
        run_journal: RunJournal | None = None
        if options.journal is not None:
            run_journal = (
                options.journal
                if isinstance(options.journal, RunJournal)
                else RunJournal(options.journal)
            )
        replayed: dict[str, PipelineResult] = {}
        replayed_shards: dict[str, dict] = {}
        fingerprint = config_fingerprint(self.config)
        if run_journal is not None:
            if options.resume:
                replay = run_journal.replay()
                if replay.n_records and replay.fingerprint != fingerprint:
                    raise JournalIncompatible(
                        str(replay.fingerprint), fingerprint
                    )
                wanted = set(accessions)
                for acc, record in replay.terminal.items():
                    if acc in wanted:
                        replayed[acc] = _result_from_payload(
                            acc, record["result"]
                        )
                replayed_shards = replay.align_shards
            run_journal.record_batch_start(list(accessions), fingerprint)

        self._drain_deadline_base = options.drain_deadline
        self._align_batch_override = options.align_batch_size
        self._backend_override = options.backend
        self._shard_ckpts = []
        self._shard_ckpt_state = (
            (run_journal, replayed_shards, fingerprint)
            if options.shard_checkpoints and run_journal is not None
            else None
        )

        pending = [
            (position, accession)
            for position, accession in enumerate(accessions)
            if accession not in replayed
        ]
        results_map = {
            position: replayed[accession]
            for position, accession in enumerate(accessions)
            if accession in replayed
        }
        lanes = min(options.max_parallel, len(pending))
        source = None
        if options.streaming:
            if self.config.trim is not None:
                raise ValueError(
                    "streaming does not support read trimming: records are "
                    "consumed as they arrive, before the full set exists"
                )
            from repro.core.streaming import StreamedReads

            source = StreamedReads(self, options, pending, lanes).open()
        cursor = iter(pending)
        lock = threading.Lock()

        def lane() -> None:
            while not self._drain.is_set():
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                position, accession = item
                result = (
                    self._run_guarded(accession, run_journal, self._run_steps)
                    if source is None
                    else source.run(position, run_journal)
                )
                with lock:
                    results_map[position] = result

        try:
            if lanes <= 1:
                lane()
            else:
                with ThreadPoolExecutor(max_workers=lanes) as pool:
                    for future in [pool.submit(lane) for _ in range(lanes)]:
                        future.result()
        finally:
            if source is not None:
                source.close()

        results = [results_map[p] for p in sorted(results_map)]
        with self._results_lock:
            self.results.extend(results)
        self._collect_journal_garbage(
            run_journal,
            accessions,
            {accessions[p]: result for p, result in results_map.items()},
        )
        return results

    @staticmethod
    def _collect_journal_garbage(
        run_journal: RunJournal | None,
        accessions: list[str],
        results_map: dict[str, PipelineResult],
    ) -> None:
        """Drop the journal's replica prefix once the batch is terminal.

        A replicated journal (see
        :class:`~repro.core.replication.ReplicatedJournal`) keeps
        segment/tail/manifest objects in S3 so a successor instance can
        adopt an interrupted batch.  Once every requested accession has
        a *terminal* result there is nothing left to adopt — the replica
        is garbage, and at atlas scale (thousands of journals) leaking
        it is a real storage bill.  The local journal file is untouched:
        it remains the durable record of the run.  No-op for plain
        journals, incomplete batches, and drained runs.
        """
        collect = getattr(run_journal, "collect_garbage", None)
        if collect is None:
            return
        done = all(
            a in results_map and results_map[a].status.terminal
            for a in accessions
        )
        if done:
            collect()

    def _shard_checkpointer(self, accession: str):
        """Build the align-shard checkpointer for one accession.

        None unless the current batch enabled ``shard_checkpoints`` —
        :class:`~repro.core.stages.AlignStage` calls this per attempt so
        a retried alignment reuses shards the failed attempt already
        journaled (the cached dict is shared across attempts).
        """
        if self._shard_ckpt_state is None:
            return None
        from repro.core.replication import ShardCheckpointer

        run_journal, shards, fingerprint = self._shard_ckpt_state
        ckpt = ShardCheckpointer(
            run_journal,
            accession,
            fingerprint,
            shards.setdefault(accession, {}),
        )
        hook = self._shard_record_hook
        if hook is not None:
            ckpt.on_record = lambda s, e, acc=accession: hook(acc, s, e)
        self._shard_ckpts.append(ckpt)
        return ckpt

    def shard_checkpoint_summary(self) -> dict[str, int]:
        """Rework accounting for the last batch: shards replayed from the
        journal (``hits``) vs aligned and checkpointed (``recorded``)."""
        return {
            "hits": sum(c.hits for c in self._shard_ckpts),
            "recorded": sum(c.recorded for c in self._shard_ckpts),
        }

    # -- step 4: joint normalization -----------------------------------------

    def build_count_matrix(self) -> CountMatrix:
        """Assemble accepted runs' GeneCounts into a gene × sample matrix."""
        columns = {
            r.accession: r.counts
            for r in self.results
            if r.status.produced_counts and r.counts is not None
        }
        if not columns:
            raise ValueError("no accepted runs with counts to normalize")
        return CountMatrix.from_columns(columns)

    def normalize(self) -> tuple[CountMatrix, np.ndarray, np.ndarray]:
        """DESeq2 step: returns (matrix, size_factors, normalized_counts)."""
        return Deseq2Stage().run(self)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Run-status tally, plus the total retry count across all steps."""
        tally = {status.value: 0 for status in RunStatus}
        for r in self.results:
            tally[r.status.value] += 1
        tally["retries"] = self.retry_ledger.total
        return tally

    def retries_by_step(self) -> dict[str, int]:
        """Retry counts bucketed by step name (prefetch/fasterq_dump/align)."""
        return self.retry_ledger.by_step()


# --------------------------------------------------------------------------
# journal payloads
# --------------------------------------------------------------------------


def _result_payload(result: PipelineResult) -> dict:
    """The JSON-safe commit record for one terminal result.

    Holds everything a resumed batch needs to replay the result without
    re-running it: status, the count column (what the count matrix
    consumes), the ``Log.final.out`` statistics, timings, and — for
    FAILED results — the failure record.  Per-read outcomes and progress
    snapshots are deliberately not journaled (bulky, and nothing
    downstream of a terminal accession reads them).
    """
    final = result.star_result.final if result.star_result is not None else None
    failure = result.failure
    return {
        "status": result.status.value,
        "counts": result.counts,
        "paired": result.paired,
        "fastq_bytes": result.fastq_bytes,
        "retries": result.retries,
        "streamed": result.streamed,
        "download_bytes_total": result.download_bytes_total,
        "download_bytes_saved": result.download_bytes_saved,
        "timing": {
            "prefetch": result.timing.prefetch,
            "fasterq_dump": result.timing.fasterq_dump,
            "star": result.timing.star,
        },
        "final": final_stats_to_payload(final) if final is not None else None,
        "aborted": (
            result.star_result.aborted
            if result.star_result is not None
            else False
        ),
        "failure": (
            {
                "step": failure.step,
                "key": failure.key,
                "attempts": failure.attempts,
                "elapsed_seconds": failure.elapsed_seconds,
                "error": failure.error,
                "error_chain": list(failure.error_chain),
                "permanent": failure.permanent,
            }
            if failure is not None
            else None
        ),
    }


def _result_from_payload(accession: str, payload: dict) -> PipelineResult:
    """Rebuild a replayed :class:`PipelineResult` from its commit record."""
    final_payload = payload.get("final")
    star_result = (
        ReplayedOutcome(
            final=final_stats_from_payload(final_payload),
            aborted=bool(payload.get("aborted", False)),
        )
        if final_payload is not None
        else None
    )
    failure_payload = payload.get("failure")
    failure = (
        FailureRecord(**failure_payload) if failure_payload is not None else None
    )
    timing = payload.get("timing") or {}
    return PipelineResult(
        accession=accession,
        status=RunStatus(payload["status"]),
        timing=StepTiming(
            prefetch=float(timing.get("prefetch", 0.0)),
            fasterq_dump=float(timing.get("fasterq_dump", 0.0)),
            star=float(timing.get("star", 0.0)),
        ),
        star_result=star_result,
        fastq_bytes=int(payload.get("fastq_bytes", 0)),
        counts=payload.get("counts"),
        paired=bool(payload.get("paired", False)),
        failure=failure,
        retries=int(payload.get("retries", 0)),
        resumed=True,
        streamed=bool(payload.get("streamed", False)),
        download_bytes_total=int(payload.get("download_bytes_total", 0)),
        download_bytes_saved=int(payload.get("download_bytes_saved", 0)),
    )


# --------------------------------------------------------------------------
# signal-driven drain
# --------------------------------------------------------------------------


@contextlib.contextmanager
def drain_on_signals(
    pipeline: TranscriptomicsAtlasPipeline,
    *,
    signals: tuple[int, ...] = (signal_module.SIGTERM, signal_module.SIGINT),
    deadline: float | None = None,
):
    """Install handlers that convert SIGTERM/SIGINT into a graceful drain.

    The first signal requests a drain (stop admitting accessions, bound
    in-flight work by the deadline, flush the journal as each accession
    commits); a second signal restores abortive behaviour by raising
    :class:`KeyboardInterrupt`.  On exit the previous handlers are
    restored and the engine is wound down if a drain was requested —
    mirroring how the paper's workers treat the spot two-minute notice.

    No-op outside the main thread (Python only delivers signals there).
    """
    fired = {"count": 0}

    def handler(signum, frame) -> None:
        fired["count"] += 1
        if fired["count"] > 1:
            raise KeyboardInterrupt
        pipeline.request_drain(deadline=deadline)

    previous: dict[int, object] = {}
    try:
        for sig in signals:
            previous[sig] = signal_module.signal(sig, handler)
    except ValueError:  # not the main thread: leave handlers untouched
        for sig, old in previous.items():
            signal_module.signal(sig, old)
        previous = {}
    try:
        yield pipeline
    finally:
        for sig, old in previous.items():
            signal_module.signal(sig, old)
        if pipeline.draining:
            pipeline.drain(deadline)
