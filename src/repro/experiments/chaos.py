"""Chaos harness: the resilience layer under a scripted fault plan.

Runs a laptop-scale batch through the *real* four-step pipeline while a
:class:`~repro.core.resilience.FaultPlan` injects failures — transient
prefetch/dump faults that retries absorb, one permanent failure that
becomes a ``FAILED`` result, and (with ``workers > 1``) an engine-worker
SIGKILL mid-campaign — then verifies the central guarantee: every
accession that survived produced output identical to a fault-free serial
run, and the batch returned one result per accession in submission
order.

This is the executable form of the acceptance scenario in the README's
"Failure semantics & fault injection" section; ``python -m repro chaos``
prints its table.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.align.cache import cached_genome_generate
from repro.align.star import StarAligner, StarParameters
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    PipelineResult,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.resilience import FaultPlan, RetryPolicy
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator
from repro.reads.sra import SraArchive, SraRepository
from repro.util.rng import derive_rng, ensure_rng
from repro.util.tables import Table


@dataclass(frozen=True)
class ChaosSpec:
    """Parameters of one chaos run."""

    n_accessions: int = 12
    n_reads: int = 120
    read_length: int = 80
    #: alignment worker processes (>1 also exercises engine recovery)
    workers: int = 2
    #: accessions run concurrently through ``run_batch``
    max_parallel: int = 4
    seed: int = 0
    #: fault plan text (``step:key:kind[*times]``, comma-separated);
    #: None → the default scripted scenario built by :func:`default_plan`
    fault_plan_text: str | None = None
    #: short wedge-detection window so the engine-kill scenario degrades
    #: (and recovers) within laptop-scale run times
    engine_stall_timeout: float = 1.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.05
        )
    )
    #: route index construction through an IndexCache rooted here
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")

    @property
    def accessions(self) -> list[str]:
        return [f"SRR9100{i:03d}" for i in range(1, self.n_accessions + 1)]


def default_plan(accessions: list[str], *, workers: int) -> FaultPlan:
    """The canonical scripted scenario over a batch of accessions.

    Two transient prefetch faults on one accession (recovered by the
    third attempt), one transient fasterq-dump fault on another, one
    *permanent* prefetch failure (the batch's single FAILED result), and
    — when the engine is on — a worker SIGKILL right before a
    mid-campaign alignment.
    """
    text = (
        f"prefetch:{accessions[1]}:transient*2,"
        f"fasterq_dump:{accessions[3]}:transient*1,"
        f"prefetch:{accessions[-2]}:permanent"
    )
    if workers > 1:
        text += f",engine_worker:{accessions[5]}:transient*1"
    return FaultPlan.parse(text)


@dataclass
class ChaosResult:
    """Everything the chaos run observed."""

    results: list[PipelineResult]
    reference: list[PipelineResult]
    summary: dict[str, int]
    retries_by_step: dict[str, int]
    plan_description: str
    faults_injected: dict[str, int]
    #: submission order preserved in the returned result list
    order_preserved: bool
    #: every non-FAILED result identical to the fault-free serial run
    outputs_identical: bool

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if r.status is RunStatus.FAILED)

    @property
    def passed(self) -> bool:
        return self.order_preserved and self.outputs_identical

    def to_table(self) -> str:
        table = Table(
            ["accession", "status", "retries", "failed step", "mapped %"],
            title="Chaos run — scripted faults vs fault-free reference",
        )
        for r in self.results:
            table.add_row(
                [
                    r.accession,
                    r.status.value,
                    r.retries,
                    r.failure.step if r.failure is not None else "-",
                    f"{100 * r.mapped_fraction:.1f}"
                    if r.status is not RunStatus.FAILED
                    else "-",
                ]
            )
        lines = [
            table.render(),
            f"plan: {self.plan_description}",
            f"faults injected: {self.faults_injected}",
            f"retries by step: {self.retries_by_step}",
            f"summary: {self.summary}",
            f"order preserved: {self.order_preserved}  "
            f"outputs identical to fault-free serial run: "
            f"{self.outputs_identical}",
        ]
        return "\n".join(lines)


def _comparable(result: PipelineResult) -> tuple:
    """The output surface that must be identical across execution modes
    (wall-clock timings excluded — everything else must match): the
    :func:`_resume_comparable` surface plus the live GeneCounts column."""
    counts = result.star_result.gene_counts if result.star_result else None
    return (
        *_resume_comparable(result),
        None if counts is None else counts.column_vector("unstranded"),
    )


def run_chaos(spec: ChaosSpec | None = None) -> ChaosResult:
    """Execute the chaos scenario and validate the resilience guarantees."""
    spec = spec or ChaosSpec()
    rng = ensure_rng(spec.seed)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    index = cached_genome_generate(
        assembly, universe.annotation, cache_dir=spec.cache_dir
    )
    aligner = StarAligner(index, StarParameters(progress_every=50))
    simulator = ReadSimulator(assembly, universe.annotation)

    accessions = spec.accessions
    repo = SraRepository()
    for i, acc in enumerate(accessions):
        # one single-cell library in the mix so the early-stopping path
        # (REJECTED_EARLY) is exercised alongside the fault paths
        library = (
            LibraryType.SINGLE_CELL_3P if i == 0 else LibraryType.BULK_POLYA
        )
        sample = simulator.simulate(
            SampleProfile(
                library=library,
                n_reads=spec.n_reads,
                read_length=spec.read_length,
            ),
            rng=900 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, library, sample.records))

    plan = (
        FaultPlan.parse(spec.fault_plan_text)
        if spec.fault_plan_text is not None
        else default_plan(accessions, workers=spec.workers)
    )

    def make_config(**overrides) -> PipelineConfig:
        base = dict(
            early_stopping=EarlyStoppingPolicy(min_reads=20),
            write_outputs=False,
            retry=spec.retry,
            engine_stall_timeout=spec.engine_stall_timeout,
        )
        base.update(overrides)
        return PipelineConfig(**base)

    with TemporaryDirectory(prefix="chaos-") as tmp:
        tmp_path = Path(tmp)
        with TranscriptomicsAtlasPipeline(
            repo,
            aligner,
            tmp_path / "faulted",
            config=make_config(workers=spec.workers, fault_plan=plan),
        ) as pipeline:
            results = pipeline.run_batch(
                accessions, BatchOptions(max_parallel=spec.max_parallel)
            )
            # the engine pool must stay usable after worker kills: run one
            # more accession through the same pipeline before closing
            post = pipeline.run_accession(accessions[0])
            summary = pipeline.summary()
            retries_by_step = pipeline.retries_by_step()

        reference_pipeline = TranscriptomicsAtlasPipeline(
            repo, aligner, tmp_path / "reference", config=make_config()
        )
        reference = reference_pipeline.run_batch(accessions)

    order_preserved = [r.accession for r in results] == accessions
    outputs_identical = all(
        _comparable(r) == _comparable(ref)
        for r, ref in zip(results, reference)
        if r.status is not RunStatus.FAILED
    ) and _comparable(post) == _comparable(reference[0])

    return ChaosResult(
        results=results,
        reference=reference,
        summary=summary,
        retries_by_step=retries_by_step,
        plan_description=plan.describe(),
        faults_injected=plan.injected,
        order_preserved=order_preserved,
        outputs_identical=outputs_identical,
    )


def build_demo_inputs(
    n_accessions: int,
    *,
    n_reads: int = 100,
    read_length: int = 80,
    seed: int = 0,
    prefix: str = "SRR9300",
    cache_dir: Path | None = None,
) -> tuple[StarAligner, SraRepository, list[str]]:
    """Deterministic laptop-scale aligner + SRA repository.

    Shared by ``python -m repro pipeline`` and tests that need a real
    four-step pipeline without inventing their own synthetic corpus.
    ``cache_dir`` makes repeated builds (e.g. the resume scenario's
    victim + resume + reference runs) mmap-load one cached index.
    """
    rng = ensure_rng(seed)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    index = cached_genome_generate(
        assembly, universe.annotation, cache_dir=cache_dir
    )
    aligner = StarAligner(index, StarParameters(progress_every=50))
    simulator = ReadSimulator(assembly, universe.annotation)
    accessions = [f"{prefix}{i:03d}" for i in range(1, n_accessions + 1)]
    repo = SraRepository()
    for i, acc in enumerate(accessions):
        sample = simulator.simulate(
            SampleProfile(
                library=LibraryType.BULK_POLYA,
                n_reads=n_reads,
                read_length=read_length,
            ),
            rng=2400 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    return aligner, repo, accessions


# --------------------------------------------------------------------------
# kill-mid-batch → resume
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResumeChaosSpec:
    """Parameters of the kill-mid-batch → resume scenario."""

    n_accessions: int = 5
    n_reads: int = 100
    read_length: int = 80
    seed: int = 0
    #: retry backoff injected on the second accession; this is the window
    #: in which the victim process is SIGKILLed, so it must comfortably
    #: exceed the parent's journal polling latency
    stall_seconds: float = 2.0
    #: give up if the victim never journals a terminal record (a completed
    #: first accession) within this wall-clock budget
    kill_timeout: float = 120.0
    #: journal location; None → inside the scenario's temp directory
    journal_path: Path | None = None
    #: route index construction through an IndexCache rooted here
    cache_dir: Path | None = None
    #: run the victim and the resumed batch through the streaming DAG;
    #: the reference stays sequential, so the scenario additionally
    #: proves kill-mid-stream safety and journal shape interchange
    streaming: bool = False

    def __post_init__(self) -> None:
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")
        if self.stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive")

    @property
    def accessions(self) -> list[str]:
        return [f"SRR9200{i:03d}" for i in range(1, self.n_accessions + 1)]


@dataclass
class ResumeChaosResult:
    """Everything the kill-and-resume scenario observed."""

    results: list[PipelineResult]
    reference: list[PipelineResult]
    #: accessions whose terminal record survived the SIGKILL
    completed_before_kill: list[str]
    #: accessions replayed from the journal (not re-run) on resume
    replayed: list[str]
    #: accessions the resumed batch actually re-executed
    reexecuted: list[str]
    #: the post-kill journal ended in a torn (partial) final line
    torn_tail: bool
    #: per-accession outcomes identical to the uninterrupted run
    outputs_identical: bool
    #: count matrix identical to the uninterrupted run
    matrix_identical: bool
    #: resume skipped exactly the accessions completed before the kill
    replay_exact: bool

    @property
    def passed(self) -> bool:
        return (
            bool(self.completed_before_kill)
            and self.outputs_identical
            and self.matrix_identical
            and self.replay_exact
        )

    def to_table(self) -> str:
        replayed = set(self.replayed)
        table = Table(
            ["accession", "status", "source", "mapped %"],
            title="Resume chaos — SIGKILL mid-batch, resumed from journal",
        )
        for r in self.results:
            table.add_row(
                [
                    r.accession,
                    r.status.value,
                    "journal" if r.accession in replayed else "re-run",
                    f"{100 * r.mapped_fraction:.1f}"
                    if r.status is not RunStatus.FAILED
                    else "-",
                ]
            )
        lines = [
            table.render(),
            f"completed before kill: {self.completed_before_kill}",
            f"torn tail after kill: {self.torn_tail}",
            f"replay exact: {self.replay_exact}  "
            f"outputs identical: {self.outputs_identical}  "
            f"count matrix identical: {self.matrix_identical}",
        ]
        return "\n".join(lines)


def _resume_comparable(result: PipelineResult) -> tuple:
    """Output surface comparable between live and journal-replayed results.

    Unlike :func:`_comparable` this omits the full ``GeneCounts`` object
    (the journal persists only the count *column* the matrix needs) — the
    per-gene counts are still covered via ``result.counts``.
    """
    final = result.star_result.final if result.star_result else None
    return (
        result.accession,
        result.status,
        result.counts,
        result.paired,
        None
        if final is None
        else (
            final.reads_processed,
            final.mapped_unique,
            final.mapped_multi,
            final.unmapped,
            final.aborted,
        ),
    )


def _check_against_reference(
    resumed: TranscriptomicsAtlasPipeline,
    results: list[PipelineResult],
    reference_pipeline: TranscriptomicsAtlasPipeline,
    accessions: list[str],
) -> tuple[list[PipelineResult], bool, bool]:
    """Run the uninterrupted reference batch and hold the resumed one to
    it: (reference results, outputs identical, count matrix identical)."""
    reference = reference_pipeline.run_batch(accessions, BatchOptions())
    matrix = resumed.build_count_matrix()
    ref_matrix = reference_pipeline.build_count_matrix()
    outputs = len(results) == len(reference) and all(
        _resume_comparable(r) == _resume_comparable(ref)
        for r, ref in zip(results, reference)
    )
    counts = (
        matrix.gene_ids == ref_matrix.gene_ids
        and matrix.sample_ids == ref_matrix.sample_ids
        and bool((matrix.counts == ref_matrix.counts).all())
    )
    return reference, outputs, counts


def _victim_shards(
    pipeline: TranscriptomicsAtlasPipeline, accession: str
) -> tuple[int, int]:
    """(shards served from the journal, shards re-aligned) for the
    resumed run of ``accession``."""
    ckpt = {c.accession: c for c in pipeline._shard_ckpts}.get(accession)
    return (0, 0) if ckpt is None else (ckpt.hits, ckpt.recorded)


def _fork(body: Callable[[], None]) -> int:
    """Run ``body`` in a forked child and return the child's pid.

    The child leaves through ``os._exit`` — status 0 when ``body``
    returns, 1 when it raises — so pytest/atexit machinery inherited
    from the parent never runs twice.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            body()
            code = 0
        finally:
            os._exit(code)
    return pid


def _die_after_shards(victim: str, n: int) -> Callable[[str, int, int], None]:
    """A shard-checkpoint hook that SIGKILLs this process, and any engine
    workers it forked, once ``n`` shards of ``victim`` are journaled."""
    seen = {"n": 0}

    def hook(accession: str, start: int, end: int) -> None:
        if accession != victim:
            return
        seen["n"] += 1
        if seen["n"] >= n:
            for proc in multiprocessing.active_children():
                if proc.pid is not None:
                    os.kill(proc.pid, signal.SIGKILL)
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def _await_self_kill(pid: int, timeout: float, who: str, where: str) -> None:
    """Wait for child ``pid`` to SIGKILL itself within ``timeout`` seconds.

    A child still alive at the deadline is killed and reported; one
    that exits normally means its kill hook never fired.
    """
    deadline = time.monotonic() + timeout
    status = None
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise RuntimeError(f"{who} still alive after {timeout}s")
    if not (os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL):
        raise RuntimeError(
            f"{who} exited instead of dying {where} "
            f"(wait status {status}); the kill hook never fired"
        )


def run_resume_chaos(spec: ResumeChaosSpec | None = None) -> ResumeChaosResult:
    """Kill a journaled batch mid-flight, resume it, compare to fault-free.

    A child process runs the batch with a journal; a scripted transient
    fault puts the *second* accession into retry backoff for
    ``stall_seconds``, giving the parent a deterministic window — after
    the first accession's ``completed`` record is durably on disk — to
    SIGKILL the child.  The parent then resumes the same batch from the
    journal in-process and checks the central guarantee: the resumed
    batch replays exactly the completed accessions, re-executes the
    rest, and its per-accession outcomes and count matrix are identical
    to an uninterrupted run.
    """
    spec = spec or ResumeChaosSpec()
    rng = ensure_rng(spec.seed)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    index = cached_genome_generate(
        assembly, universe.annotation, cache_dir=spec.cache_dir
    )
    aligner = StarAligner(index, StarParameters(progress_every=50))
    simulator = ReadSimulator(assembly, universe.annotation)

    accessions = spec.accessions
    repo = SraRepository()
    for i, acc in enumerate(accessions):
        sample = simulator.simulate(
            SampleProfile(
                library=LibraryType.BULK_POLYA,
                n_reads=spec.n_reads,
                read_length=spec.read_length,
            ),
            rng=1700 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))

    # two transient faults on the second accession → two backoff sleeps of
    # stall_seconds each: the kill window.  The plan text is part of the
    # config fingerprint, so victim / resume / reference all share it.
    plan_text = f"prefetch:{accessions[1]}:transient*2"

    def make_config() -> PipelineConfig:
        return PipelineConfig(
            early_stopping=EarlyStoppingPolicy(min_reads=20),
            write_outputs=False,
            retry=RetryPolicy(
                max_attempts=3,
                base_delay=spec.stall_seconds,
                max_delay=spec.stall_seconds,
            ),
            fault_plan=FaultPlan.parse(plan_text),
        )

    with TemporaryDirectory(prefix="resume-chaos-") as tmp:
        tmp_path = Path(tmp)
        journal_path = spec.journal_path or (tmp_path / "batch.jsonl")
        # the journal is this scenario's artifact: start it fresh so a
        # re-run (e.g. `repro chaos --resume --journal X` twice) doesn't
        # replay a previous invocation's terminal records
        journal_path.unlink(missing_ok=True)

        def victim() -> None:
            # run the journaled batch until the parent SIGKILLs us
            pipeline = TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / "victim", config=make_config()
            )
            pipeline.run_batch(
                accessions,
                BatchOptions(streaming=spec.streaming, journal=journal_path),
            )

        pid = _fork(victim)
        try:
            completed_before: list[str] = []
            deadline = time.monotonic() + spec.kill_timeout
            while time.monotonic() < deadline:
                replay = RunJournal(journal_path).replay()
                if replay.terminal:
                    completed_before = sorted(replay.terminal)
                    break
                time.sleep(0.02)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if not completed_before:
            raise RuntimeError(
                "victim never journaled a terminal record within "
                f"{spec.kill_timeout}s"
            )

        post_kill = RunJournal(journal_path).replay()

        resumed = TranscriptomicsAtlasPipeline(
            repo, aligner, tmp_path / "resumed", config=make_config()
        )
        results = resumed.run_batch(
            accessions,
            BatchOptions(
                streaming=spec.streaming, journal=journal_path, resume=True
            ),
        )
        reference, outputs_identical, matrix_identical = _check_against_reference(
            resumed,
            results,
            TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / "reference", config=make_config()
            ),
            accessions,
        )

    replayed = [r.accession for r in results if r.resumed]
    reexecuted = [r.accession for r in results if not r.resumed]
    return ResumeChaosResult(
        results=results,
        reference=reference,
        completed_before_kill=completed_before,
        replayed=replayed,
        reexecuted=reexecuted,
        torn_tail=post_kill.torn_tail,
        outputs_identical=outputs_identical,
        matrix_identical=matrix_identical,
        replay_exact=sorted(replayed) == completed_before,
    )


# --------------------------------------------------------------------------
# kill the whole instance → adopt via S3
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KillInstanceSpec:
    """Parameters of the kill-instance → S3 adoption scenario."""

    n_accessions: int = 2
    n_reads: int = 600
    read_length: int = 60
    #: engine worker processes (shard checkpointing needs the engine)
    workers: int = 2
    #: reads per engine shard (controls checkpoint granularity)
    align_batch_size: int = 64
    #: SIGKILL instance A after this many shard checkpoints of the
    #: victim accession have reached S3
    kill_after_shards: int = 3
    #: instance A's lease TTL; instance B waits it out before adopting
    lease_ttl: float = 1.0
    #: give up if instance A never dies within this wall-clock budget
    kill_timeout: float = 180.0
    seed: int = 0
    #: route index construction through an IndexCache rooted here
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")
        if self.kill_after_shards < 1:
            raise ValueError("kill_after_shards must be >= 1")

    @property
    def accessions(self) -> list[str]:
        return [f"SRR9400{i:03d}" for i in range(1, self.n_accessions + 1)]

    @property
    def victim_accession(self) -> str:
        """The accession instance A dies inside (the second one, so the
        first proves whole-accession replay alongside shard adoption)."""
        return self.accessions[1]


@dataclass
class KillInstanceResult:
    """Everything the kill-instance scenario observed."""

    results: list[PipelineResult]
    reference: list[PipelineResult]
    #: accessions whose terminal record was in S3 when instance A died
    completed_before_kill: list[str]
    #: accessions instance B replayed wholesale from the journal
    replayed: list[str]
    #: the accession instance B adopted mid-alignment
    adopted_accession: str
    #: victim-accession shards merged from S3 checkpoints / re-aligned
    shards_replayed: int
    shards_realigned: int
    #: fencing token instance B adopted with (A held token 1)
    adopter_token: int
    #: instance A's late, fenced-out publish raised FencedOut
    stale_publish_rejected: bool
    #: per-accession outcomes identical to the uninterrupted reference
    outputs_identical: bool
    #: count matrix identical to the uninterrupted reference
    matrix_identical: bool

    @property
    def total_shards(self) -> int:
        return self.shards_replayed + self.shards_realigned

    @property
    def rework_bounded(self) -> bool:
        """Instance B re-aligned strictly fewer shards than the accession
        has — the adoption recovered work instead of restarting."""
        return self.shards_replayed > 0 and (
            self.shards_realigned < self.total_shards
        )

    @property
    def passed(self) -> bool:
        return (
            self.rework_bounded
            and self.stale_publish_rejected
            and self.adopter_token > 1
            and self.outputs_identical
            and self.matrix_identical
        )

    def to_table(self) -> str:
        replayed = set(self.replayed)
        table = Table(
            ["accession", "status", "source", "mapped %"],
            title="Kill-instance chaos — instance A SIGKILLed, "
            "instance B adopted via S3",
        )
        for r in self.results:
            source = (
                "journal"
                if r.accession in replayed
                else (
                    f"adopted ({self.shards_replayed}/{self.total_shards} "
                    "shards from S3)"
                    if r.accession == self.adopted_accession
                    else "re-run"
                )
            )
            table.add_row(
                [
                    r.accession,
                    r.status.value,
                    source,
                    f"{100 * r.mapped_fraction:.1f}"
                    if r.status is not RunStatus.FAILED
                    else "-",
                ]
            )
        lines = [
            table.render(),
            f"completed before kill: {self.completed_before_kill}",
            f"adopted {self.adopted_accession} with fencing token "
            f"{self.adopter_token}; stale holder's publish rejected: "
            f"{self.stale_publish_rejected}",
            f"rework bounded: {self.rework_bounded} "
            f"({self.shards_realigned} of {self.total_shards} shards "
            "re-aligned)",
            f"outputs identical: {self.outputs_identical}  "
            f"count matrix identical: {self.matrix_identical}",
        ]
        return "\n".join(lines)


def run_kill_instance_chaos(
    spec: KillInstanceSpec | None = None,
) -> KillInstanceResult:
    """SIGKILL a worker *instance* mid-batch; a second instance adopts.

    Instance A (a forked child, standing in for a spot instance) runs a
    journaled batch with shard checkpoints, replicating every append to
    a durable-rooted S3 bucket under a fencing-token lease.  A hook on
    the shard-checkpoint path SIGKILLs the whole process — engine pool
    and all — after ``kill_after_shards`` checkpoints of the second
    accession, so the death lands mid-alignment, deterministically.

    Instance B (the parent, a different "instance": different process,
    different working directory, no access to A's local journal) waits
    out A's lease, adopts with a bumped fencing token, reconstructs the
    journal from S3 segments, and resumes: completed accessions replay
    wholesale, the victim accession re-dispatches only its unfinished
    shards.  The scenario then proves A's late publish is fenced out and
    the final results are byte-identical to an uninterrupted reference.
    """
    from repro.cloud.s3 import S3Service
    from repro.core.replication import (
        BatchLease,
        FencedOut,
        LeaseHeld,
        ReplicatedJournal,
        reconstruct_journal,
    )

    spec = spec or KillInstanceSpec()
    accessions = spec.accessions
    victim_acc = spec.victim_accession

    def make_config() -> PipelineConfig:
        return PipelineConfig(
            workers=spec.workers,
            align_batch_size=spec.align_batch_size,
            write_outputs=False,
        )

    with TemporaryDirectory(prefix="kill-instance-") as tmp:
        tmp_path = Path(tmp)
        aligner, repo, _ = build_demo_inputs(
            spec.n_accessions,
            n_reads=spec.n_reads,
            read_length=spec.read_length,
            seed=spec.seed,
            prefix="SRR9400",
            cache_dir=spec.cache_dir,
        )
        # the durable root IS the simulated S3's cross-instance storage:
        # both "instances" see it, neither survives without it
        s3_root = tmp_path / "s3"
        prefix = "batch"
        lease_key = f"{prefix}/lease"

        def instance_a() -> None:
            # journaled + replicated batch, then die mid-shard
            bucket = S3Service(root=s3_root).create_bucket("atlas-journal")
            BatchLease.acquire(
                bucket, lease_key, "instance-a", now=time.time(), ttl=spec.lease_ttl
            )
            journal = ReplicatedJournal(
                tmp_path / "a" / "journal.jsonl", bucket, prefix
            )
            pipeline = TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / "a", config=make_config()
            )
            # the deterministic "spot kill": the whole instance — engine
            # pool included — vanishes with the checkpoint durably in S3
            pipeline._shard_record_hook = _die_after_shards(
                victim_acc, spec.kill_after_shards
            )
            pipeline.run_batch(
                accessions, BatchOptions(journal=journal, shard_checkpoints=True)
            )

        _await_self_kill(
            _fork(instance_a), spec.kill_timeout, "instance A", "mid-shard"
        )

        # instance B: fresh process state, fresh bucket handle over the
        # same durable root — A's local journal file is NOT used
        bucket = S3Service(root=s3_root).create_bucket("atlas-journal")
        lease = None
        while lease is None:
            try:
                lease = BatchLease.acquire(
                    bucket,
                    lease_key,
                    "instance-b",
                    now=time.time(),
                    ttl=max(spec.lease_ttl, 60.0),
                )
            except LeaseHeld:
                time.sleep(0.05)  # A's lease has not expired yet

        journal_b_path = tmp_path / "b" / "journal.jsonl"
        reconstruct_journal(bucket, prefix, journal_b_path)
        pre_resume = RunJournal(journal_b_path).replay()
        completed_before = sorted(pre_resume.terminal)

        journal_b = ReplicatedJournal(journal_b_path, bucket, prefix)
        resumed = TranscriptomicsAtlasPipeline(
            repo, aligner, tmp_path / "b", config=make_config()
        )
        results = resumed.run_batch(
            accessions,
            BatchOptions(
                journal=journal_b, resume=True, shard_checkpoints=True
            ),
        )
        shards_replayed, shards_realigned = _victim_shards(resumed, victim_acc)

        # instance A wakes up (simulated): its stale token-1 lease handle
        # must be fenced out at publish time
        results_bucket = S3Service(root=s3_root).create_bucket(
            "atlas-results"
        )
        stale = BatchLease(bucket, lease_key, "instance-a", 1, 0.0)
        try:
            stale.publish(
                results_bucket, "late/result", 1.0, now=time.time()
            )
            stale_publish_rejected = False
        except FencedOut:
            stale_publish_rejected = True
        # ... while the live adopter's token still publishes fine
        lease.publish(results_bucket, "adopted/result", 1.0, now=time.time())
        lease.release(now=time.time())

        reference, outputs_identical, matrix_identical = _check_against_reference(
            resumed,
            results,
            TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / "reference", config=make_config()
            ),
            accessions,
        )

    replayed = [r.accession for r in results if r.resumed]
    return KillInstanceResult(
        results=results,
        reference=reference,
        completed_before_kill=completed_before,
        replayed=replayed,
        adopted_accession=victim_acc,
        shards_replayed=shards_replayed,
        shards_realigned=shards_realigned,
        adopter_token=lease.token,
        stale_publish_rejected=stale_publish_rejected,
        outputs_identical=outputs_identical,
        matrix_identical=matrix_identical,
    )


# --------------------------------------------------------------------------
# kill functions mid-shard → scatter-gather adoption
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaasChaosSpec:
    """Parameters of the serverless kill-functions-mid-shard scenario."""

    n_accessions: int = 2
    n_reads: int = 600
    read_length: int = 60
    #: reads per function invocation (controls checkpoint granularity)
    align_batch_size: int = 64
    #: SIGKILL the driver after this many shard checkpoints of the
    #: victim accession are durably journaled
    kill_after_shards: int = 3
    #: function crashes armed on the *adopting* run — live invocations
    #: die mid-shard and the backend's retries must absorb them
    function_failures: int = 2
    #: give up if the driver never dies within this wall-clock budget
    kill_timeout: float = 120.0
    seed: int = 0
    #: route index construction through an IndexCache rooted here
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")
        if self.kill_after_shards < 1:
            raise ValueError("kill_after_shards must be >= 1")

    @property
    def victim_accession(self) -> str:
        """The accession the driver dies inside (the second, so the
        first proves whole-accession replay alongside shard adoption)."""
        return f"SRR9500{2:03d}"


@dataclass
class FaasChaosResult:
    """Everything the serverless chaos scenario observed."""

    results: list[PipelineResult]
    reference: list[PipelineResult]
    #: accessions whose terminal record survived the driver kill
    completed_before_kill: list[str]
    #: accessions the resumed driver replayed wholesale from the journal
    replayed: list[str]
    #: the accession whose shards were adopted mid-scatter
    adopted_accession: str
    #: victim shards merged from checkpoints / re-invoked as functions
    shards_adopted: int
    shards_realigned: int
    #: function crashes injected into (and absorbed by) the adopting run
    function_kills_absorbed: int
    #: the adopting run's FaaS service counters (invocations, crashes…)
    faas_summary: dict
    #: per-accession outcomes identical to the uninterrupted reference
    outputs_identical: bool
    #: count matrix identical to the uninterrupted reference
    matrix_identical: bool

    @property
    def total_shards(self) -> int:
        return self.shards_adopted + self.shards_realigned

    @property
    def rework_bounded(self) -> bool:
        """The adoption re-invoked strictly fewer shards than the
        accession has — checkpointed scatter work was recovered."""
        return self.shards_adopted > 0 and (
            self.shards_realigned < self.total_shards
        )

    @property
    def passed(self) -> bool:
        return (
            bool(self.completed_before_kill)
            and self.rework_bounded
            and self.function_kills_absorbed > 0
            and self.outputs_identical
            and self.matrix_identical
        )

    def to_table(self) -> str:
        replayed = set(self.replayed)
        table = Table(
            ["accession", "status", "source", "mapped %"],
            title="FaaS chaos — driver killed mid-scatter, functions "
            "killed mid-shard on adoption",
        )
        for r in self.results:
            source = (
                "journal"
                if r.accession in replayed
                else (
                    f"adopted ({self.shards_adopted}/{self.total_shards} "
                    "shards from checkpoints)"
                    if r.accession == self.adopted_accession
                    else "re-run"
                )
            )
            table.add_row(
                [
                    r.accession,
                    r.status.value,
                    source,
                    f"{100 * r.mapped_fraction:.1f}"
                    if r.status is not RunStatus.FAILED
                    else "-",
                ]
            )
        lines = [
            table.render(),
            f"completed before driver kill: {self.completed_before_kill}",
            f"rework bounded: {self.rework_bounded} "
            f"({self.shards_realigned} of {self.total_shards} victim "
            "shards re-invoked)",
            f"function crashes absorbed on adoption: "
            f"{self.function_kills_absorbed}",
            f"faas: {self.faas_summary}",
            f"outputs identical: {self.outputs_identical}  "
            f"count matrix identical: {self.matrix_identical}",
        ]
        return "\n".join(lines)


def run_faas_chaos(spec: FaasChaosSpec | None = None) -> FaasChaosResult:
    """Kill the serverless driver mid-scatter, then kill live functions.

    A forked child drives a journaled ``backend="faas"`` batch with
    shard checkpoints and SIGKILLs itself after ``kill_after_shards``
    checkpoints of the second accession — mid-scatter, with the dead
    driver's partial work durable in the journal.  The parent resumes
    the batch on a fresh driver whose FaaS function is armed to crash
    the next ``function_failures`` invocations (functions killed
    mid-shard, live), and proves the central guarantee: adopted shards
    are merged byte-identically — results and count matrix match an
    uninterrupted serial reference exactly.
    """
    spec = spec or FaasChaosSpec()

    def make_config() -> PipelineConfig:
        return PipelineConfig(
            align_batch_size=spec.align_batch_size,
            write_outputs=False,
        )

    with TemporaryDirectory(prefix="faas-chaos-") as tmp:
        tmp_path = Path(tmp)
        aligner, repo, accessions = build_demo_inputs(
            spec.n_accessions,
            n_reads=spec.n_reads,
            read_length=spec.read_length,
            seed=spec.seed,
            prefix="SRR9500",
            cache_dir=spec.cache_dir,
        )
        victim_acc = spec.victim_accession
        journal_path = tmp_path / "batch.jsonl"

        def doomed_driver() -> None:
            # scatter until the kill hook fires
            pipeline = TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / "victim", config=make_config()
            )
            pipeline._shard_record_hook = _die_after_shards(
                victim_acc, spec.kill_after_shards
            )
            pipeline.run_batch(
                accessions,
                BatchOptions(
                    backend="faas", journal=journal_path, shard_checkpoints=True
                ),
            )

        _await_self_kill(
            _fork(doomed_driver), spec.kill_timeout, "faas driver", "mid-scatter"
        )

        pre_resume = RunJournal(journal_path).replay()
        completed_before = sorted(pre_resume.terminal)

        # the adopting driver: resume the scatter, with live function
        # kills armed so retries are exercised during the adoption too
        resumed = TranscriptomicsAtlasPipeline(
            repo, aligner, tmp_path / "adopter", config=make_config()
        )
        backend = resumed._get_faas_backend()
        backend.function.fail_next(spec.function_failures)
        results = resumed.run_batch(
            accessions,
            BatchOptions(
                backend="faas",
                journal=journal_path,
                resume=True,
                shard_checkpoints=True,
            ),
        )
        shards_adopted, shards_realigned = _victim_shards(resumed, victim_acc)
        reference, outputs_identical, matrix_identical = _check_against_reference(
            resumed,
            results,
            TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / "reference", config=make_config()
            ),
            accessions,
        )

    replayed = [r.accession for r in results if r.resumed]
    return FaasChaosResult(
        results=results,
        reference=reference,
        completed_before_kill=completed_before,
        replayed=replayed,
        adopted_accession=victim_acc,
        shards_adopted=shards_adopted,
        shards_realigned=shards_realigned,
        function_kills_absorbed=backend.crash_retries,
        faas_summary=backend.faas_summary(),
        outputs_identical=outputs_identical,
        matrix_identical=matrix_identical,
    )
