"""Chaos harness: the resilience layer under injected faults and kills.

Two scenarios run a laptop-scale batch through the *real* four-step
pipeline and hold it to an uninterrupted reference run:

* :func:`run_chaos` — a :class:`~repro.core.resilience.FaultPlan`
  injects failures: transient prefetch/dump faults that retries absorb,
  one permanent failure that becomes a ``FAILED`` result, and (with
  ``workers > 1``) an engine-worker SIGKILL mid-campaign.  Every
  accession that survived must produce output identical to a fault-free
  serial run, and the batch must return one result per accession in
  submission order.

* :func:`run_kill_chaos` — a forked victim runs the batch with a journal
  that SIGKILLs the victim, engine workers included, right after a
  chosen record is durable; the parent resumes the batch from that
  journal and must replay exactly what had completed, re-align only the
  unfinished shards, and match the reference byte for byte.  A preset
  (:data:`KILL_PRESETS`) picks the backend, the journal kind and the
  kill point: ``resume`` (a local journal, killed at the first commit),
  ``kill-instance`` (a journal mirrored to S3 under a fenced
  :class:`~repro.core.replication.BatchLease`, killed mid-alignment on
  the engine) and ``faas`` (killed mid-scatter, then live function
  crashes on the successor).

This is the executable form of the acceptance scenarios in the README's
"Failure semantics & fault injection" and "Durability" sections;
``python -m repro chaos`` prints their tables.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import NamedTuple

from repro.align.cache import cached_genome_generate
from repro.align.star import StarAligner, StarParameters
from repro.cloud.s3 import S3Bucket, S3Service
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import TERMINAL_RECORD_TYPES, RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    PipelineResult,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.replication import (
    BatchLease,
    FencedOut,
    LeaseHeld,
    ReplicatedJournal,
    reconstruct_journal,
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
                    _mapped(r),
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


def _mapped(result: PipelineResult) -> str:
    """The table's mapped-% cell."""
    if result.status is RunStatus.FAILED:
        return "-"
    return f"{100 * result.mapped_fraction:.1f}"


def _comparable(result: PipelineResult) -> tuple:
    """The output surface that must be identical across execution modes
    (wall-clock timings excluded — everything else must match): the
    :func:`_resume_comparable` surface plus the live GeneCounts column."""
    counts = result.star_result.gene_counts if result.star_result else None
    return (
        *_resume_comparable(result),
        None if counts is None else counts.column_vector("unstranded"),
    )


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


def run_chaos(spec: ChaosSpec | None = None) -> ChaosResult:
    """Execute the chaos scenario and validate the resilience guarantees."""
    spec = spec or ChaosSpec()
    aligner, repo, accessions = build_demo_inputs(
        spec.n_accessions,
        n_reads=spec.n_reads,
        read_length=spec.read_length,
        seed=spec.seed,
        prefix="SRR9100",
        cache_dir=spec.cache_dir,
    )
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
    """Deterministic laptop-scale aligner + SRA repository of bulk
    poly-A libraries.

    Shared by ``python -m repro pipeline``, the chaos scenarios and
    tests that need a real four-step pipeline without inventing their
    own synthetic corpus.  ``cache_dir`` makes repeated builds
    mmap-load one cached index.
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
# kill → resume from the journal
# --------------------------------------------------------------------------

#: reads per accession and per shard: 600 reads make 10 shards of 64
KILL_READS = 600
SHARD_READS = 64
#: the shard presets' victim dies right after this many shard checkpoints
KILL_AFTER_SHARDS = 3
#: function crashes armed on the faas preset's successor
FUNCTION_FAILURES = 2
#: the victim's lease TTL on a replicated journal (the successor waits
#: it out before adopting)
LEASE_TTL = 1.0
#: a victim still alive after this many seconds never reached its kill point
KILL_TIMEOUT = 180.0
_LEASE_KEY = "batch/lease"


class KillPreset(NamedTuple):
    """What a kill preset sets: the backend, the journal kind, the kill point."""

    #: alignment backend of the victim and of its successor
    backend: str
    #: the journal is mirrored to S3 under a BatchLease and the successor
    #: is another instance, rebuilding it from S3; otherwise the journal
    #: is a local file the restarted successor reads back
    replicated: bool
    #: the kill point: the victim dies right after the ``kill_after``-th
    #: journal record of one of ``kill_records`` for the accession at
    #: index ``victim`` is durable
    kill_records: frozenset[str]
    victim: int
    kill_after: int


_SHARD_RECORD = frozenset({"align.shard"})

#: the kill presets, by CLI name
KILL_PRESETS = {
    # the first accession's commit: it replays whole, the rest re-run
    "resume": KillPreset("serial", False, TERMINAL_RECORD_TYPES, 0, 1),
    # the second accession's 3rd of 10 shard checkpoints: the victim dies
    # mid-alignment (the first accession proves whole-accession replay
    # alongside shard adoption)
    "kill-instance": KillPreset(
        "engine", True, _SHARD_RECORD, 1, KILL_AFTER_SHARDS
    ),
    "faas": KillPreset("faas", False, _SHARD_RECORD, 1, KILL_AFTER_SHARDS),
}


@dataclass(frozen=True)
class KillSpec:
    """Parameters of one kill-and-resume run (see :func:`run_kill_chaos`)."""

    #: a :data:`KILL_PRESETS` name
    preset: str = "resume"
    n_accessions: int = 2
    seed: int = 0
    #: victim and successor feed their reads through the streaming DAG;
    #: the reference stays sequential, so a pass also proves streamed and
    #: sequential journals interchange
    streaming: bool = False
    #: the successor's journal; None → inside the run's temp directory
    journal_path: Path | None = None

    def __post_init__(self) -> None:
        if self.preset not in KILL_PRESETS:
            raise ValueError(
                f"preset must be one of {sorted(KILL_PRESETS)}, "
                f"got {self.preset!r}"
            )
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")

    @property
    def accessions(self) -> list[str]:
        return [f"SRR9200{i:03d}" for i in range(1, self.n_accessions + 1)]

    @property
    def victim_accession(self) -> str:
        """The accession whose journal record kills the victim."""
        return self.accessions[KILL_PRESETS[self.preset].victim]


@dataclass
class KillResult:
    """Everything one kill-and-resume run observed."""

    spec: KillSpec
    results: list[PipelineResult]
    reference: list[PipelineResult]
    #: accessions whose terminal record survived the SIGKILL
    completed_before_kill: list[str]
    #: the victim accession's shards merged from checkpoints / re-aligned
    shards_replayed: int
    shards_realigned: int
    #: per-accession outcomes identical to the uninterrupted reference
    outputs_identical: bool
    #: count matrix identical to the uninterrupted reference
    matrix_identical: bool
    #: replicated journal only: the successor's fencing token (the victim
    #: held 1), and whether the victim's late publish was refused
    adopter_token: int | None = None
    stale_publish_rejected: bool | None = None
    #: faas backend only: the successor's FaaS counters
    faas_summary: dict | None = None

    @property
    def replayed(self) -> list[str]:
        """Accessions the successor replayed from the journal."""
        return [r.accession for r in self.results if r.resumed]

    @property
    def reexecuted(self) -> list[str]:
        """Accessions the successor ran again."""
        return [r.accession for r in self.results if not r.resumed]

    @property
    def replay_exact(self) -> bool:
        """Resume skipped exactly the accessions completed before the kill."""
        return sorted(self.replayed) == self.completed_before_kill

    @property
    def total_shards(self) -> int:
        return self.shards_replayed + self.shards_realigned

    @property
    def rework_bounded(self) -> bool:
        """The successor re-aligned strictly fewer of the victim
        accession's shards than it has: adoption recovered work."""
        return 0 < self.shards_replayed and (
            self.shards_realigned < self.total_shards
        )

    @property
    def function_kills_absorbed(self) -> int | None:
        """Function crashes the successor's FaaS retries absorbed."""
        if self.faas_summary is None:
            return None
        return self.faas_summary["crash_retries"]

    @property
    def checks(self) -> dict[str, bool]:
        """The guarantees this run is held to, one row each; the shard,
        lease and function rows apply only to presets that have them."""
        preset = KILL_PRESETS[self.spec.preset]
        rows = {
            "killed mid-batch": (
                0 < len(self.completed_before_kill) < len(self.results)
            ),
            "replay exact": self.replay_exact,
        }
        if preset.kill_records == _SHARD_RECORD:
            rows["rework bounded"] = self.rework_bounded
        if preset.replicated:
            rows["adopted with a bumped fencing token"] = (
                self.adopter_token is not None and self.adopter_token > 1
            )
            rows["stale holder's publish rejected"] = bool(
                self.stale_publish_rejected
            )
        if preset.backend == "faas":
            rows["function crashes absorbed"] = (
                self.function_kills_absorbed == FUNCTION_FAILURES
            )
        rows["outputs identical"] = self.outputs_identical
        rows["count matrix identical"] = self.matrix_identical
        return rows

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_table(self) -> str:
        preset = KILL_PRESETS[self.spec.preset]
        journal = "S3-replicated" if preset.replicated else "local"
        table = Table(
            ["accession", "status", "source", "mapped %"],
            title=f"Kill chaos ({self.spec.preset}) — {preset.backend} "
            f"victim SIGKILLed, resumed from its {journal} journal",
        )
        replayed = set(self.replayed)
        for r in self.results:
            source = "re-run"
            if r.accession in replayed:
                source = "journal"
            elif r.accession == self.spec.victim_accession and (
                self.shards_replayed
            ):
                source = (
                    f"adopted ({self.shards_replayed}/{self.total_shards} "
                    "shards from checkpoints)"
                )
            table.add_row([r.accession, r.status.value, source, _mapped(r)])
        lines = [
            table.render(),
            f"completed before kill: {self.completed_before_kill}",
        ]
        if self.adopter_token is not None:
            lines.append(f"adopted with fencing token {self.adopter_token}")
        if self.faas_summary is not None:
            lines.append(f"faas: {self.faas_summary}")
        lines.extend(f"{name}: {ok}" for name, ok in self.checks.items())
        return "\n".join(lines)


def _arm_kill(
    journal: RunJournal,
    preset: KillPreset,
    victim: str,
    pipeline: TranscriptomicsAtlasPipeline,
) -> None:
    """Make ``journal`` SIGKILL this process right after the preset's
    kill-point record is durable (in S3 too, when the journal is
    replicated).

    The engine's workers die first.  An instance's ``/dev/shm`` dies
    with the instance, so ``pipeline``'s engine then unlinks its index
    blocks, which also unregisters them: no resource tracker is left to
    report them as leaked.
    """
    durable = journal._after_append
    seen = 0

    def after_append(line: str, record: dict) -> None:
        nonlocal seen
        durable(line, record)
        if record["t"] in preset.kill_records and record.get("acc") == victim:
            seen += 1
            if seen == preset.kill_after:
                for proc in multiprocessing.active_children():
                    os.kill(proc.pid, signal.SIGKILL)
                engine = pipeline._engine
                if engine is not None and engine._blocks is not None:
                    engine._blocks.close()
                os.kill(os.getpid(), signal.SIGKILL)

    journal._after_append = after_append


def _run_to_death(body: Callable[[], None]) -> None:
    """Run ``body`` in a forked child and wait for it to SIGKILL itself.

    The child leaves through ``os._exit`` — status 0 when ``body``
    returns, 1 when it raises — so pytest/atexit machinery inherited
    from the parent never runs twice; either status means the kill
    point was never reached.  So does a child still alive after
    :data:`KILL_TIMEOUT` seconds, which is killed first.

    The child tracks its shared memory with a resource tracker of its
    own, as it does when the parent never started one: should the child
    die with blocks still linked, the tracker unlinks them once the child
    and its engine workers are dead, where the parent's would keep them
    until the parent exits.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            tracker = resource_tracker._resource_tracker
            if tracker._fd is not None:
                os.close(tracker._fd)
            tracker._fd = tracker._pid = None
            body()
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + KILL_TIMEOUT
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise RuntimeError(f"victim still alive after {KILL_TIMEOUT}s")
        time.sleep(0.02)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not (os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL):
        raise RuntimeError(
            f"victim exited (wait status {status}) before its kill point"
        )


def _acquire_lease(bucket: S3Bucket, holder: str, ttl: float) -> BatchLease:
    """Take the batch lease, waiting out a live holder's TTL."""
    while True:
        try:
            return BatchLease.acquire(
                bucket, _LEASE_KEY, holder, now=time.time(), ttl=ttl
            )
        except LeaseHeld:
            time.sleep(0.05)


def run_kill_chaos(spec: KillSpec | None = None) -> KillResult:
    """Kill a journaled batch mid-flight, resume it, compare to fault-free.

    A forked victim runs the batch on the preset's backend with shard
    checkpoints, its journal armed by :func:`_arm_kill` to SIGKILL it at
    the preset's kill point.  The parent is the successor: it resumes
    the batch from that journal alone — on a replicated journal it first
    waits out the victim's lease, adopts with a bumped fencing token and
    rebuilds the journal from S3; on the faas backend its function is
    armed to crash live invocations.  The resumed batch must replay
    exactly the accessions completed before the kill, re-align only the
    victim's unfinished shards, and produce per-accession outcomes and a
    count matrix identical to an uninterrupted serial reference; on a
    replicated journal the victim's late publish must be fenced out.
    """
    spec = spec or KillSpec()
    preset = KILL_PRESETS[spec.preset]
    accessions = spec.accessions
    victim = spec.victim_accession
    aligner, repo, _ = build_demo_inputs(
        spec.n_accessions,
        n_reads=KILL_READS,
        read_length=60,
        seed=spec.seed,
        prefix="SRR9200",
    )

    def make_pipeline(workspace: Path, backend: str):
        config = PipelineConfig(
            workers=2 if backend == "engine" else 1,
            align_batch_size=SHARD_READS,
            write_outputs=False,
        )
        return TranscriptomicsAtlasPipeline(
            repo, aligner, workspace, config=config
        )

    def options(journal: RunJournal, resume: bool) -> BatchOptions:
        return BatchOptions(
            backend=preset.backend,
            journal=journal,
            resume=resume,
            streaming=spec.streaming,
            shard_checkpoints=True,
        )

    with TemporaryDirectory(prefix="kill-chaos-") as tmp:
        tmp_path = Path(tmp)
        journal_path = spec.journal_path or (tmp_path / "batch.jsonl")
        # the journal is this scenario's artifact: start it fresh so a
        # re-run (e.g. `repro chaos --resume --journal X` twice) doesn't
        # replay a previous invocation's terminal records
        journal_path.unlink(missing_ok=True)
        # the durable root IS the simulated S3's cross-instance storage;
        # each instance opens its own handle onto it
        s3_root = tmp_path / "s3"

        def victim_run() -> None:
            if preset.replicated:
                bucket = S3Service(root=s3_root).create_bucket("journal")
                _acquire_lease(bucket, "victim", LEASE_TTL)
                journal = ReplicatedJournal(
                    tmp_path / "victim.jsonl", bucket, "batch"
                )
            else:
                journal = RunJournal(journal_path)
            pipeline = make_pipeline(tmp_path / "victim", preset.backend)
            _arm_kill(journal, preset, victim, pipeline)
            pipeline.run_batch(accessions, options(journal, resume=False))

        _run_to_death(victim_run)

        lease = None
        if preset.replicated:
            # another instance: no access to the victim's local journal;
            # its lease outlasts the resume, so the token stays current
            bucket = S3Service(root=s3_root).create_bucket("journal")
            lease = _acquire_lease(bucket, "successor", 60.0)
            reconstruct_journal(bucket, "batch", journal_path)
            journal = ReplicatedJournal(journal_path, bucket, "batch")
        else:
            journal = RunJournal(journal_path)
        completed_before = sorted(journal.replay().terminal)

        successor = make_pipeline(tmp_path / "successor", preset.backend)
        faas = None
        if preset.backend == "faas":
            faas = successor._get_faas_backend()
            faas.function.fail_next(FUNCTION_FAILURES)
        with journal, successor:
            results = successor.run_batch(
                accessions, options(journal, resume=True)
            )
        ckpt = {c.accession: c for c in successor._shard_ckpts}.get(victim)

        stale_publish_rejected = None
        if lease is not None:
            # the victim wakes up (simulated): its token-1 handle must be
            # fenced out, while the adopter's token still publishes
            results_bucket = S3Service(root=s3_root).create_bucket("results")
            stale = BatchLease(lease.bucket, _LEASE_KEY, "victim", 1, 0.0)
            try:
                stale.publish(results_bucket, "late", 1.0, now=time.time())
                stale_publish_rejected = False
            except FencedOut:
                stale_publish_rejected = True
            lease.publish(results_bucket, "adopted", 1.0, now=time.time())
            lease.release(now=time.time())

        reference_pipeline = make_pipeline(tmp_path / "reference", "serial")
        reference = reference_pipeline.run_batch(accessions)
        matrix = successor.build_count_matrix()
        ref_matrix = reference_pipeline.build_count_matrix()

    return KillResult(
        spec=spec,
        results=results,
        reference=reference,
        completed_before_kill=completed_before,
        shards_replayed=ckpt.hits if ckpt is not None else 0,
        shards_realigned=ckpt.recorded if ckpt is not None else 0,
        outputs_identical=[_resume_comparable(r) for r in results]
        == [_resume_comparable(r) for r in reference],
        matrix_identical=(
            matrix.gene_ids == ref_matrix.gene_ids
            and matrix.sample_ids == ref_matrix.sample_ids
            and bool((matrix.counts == ref_matrix.counts).all())
        ),
        adopter_token=lease.token if lease is not None else None,
        stale_publish_rejected=stale_publish_rejected,
        faas_summary=faas.faas_summary() if faas is not None else None,
    )
