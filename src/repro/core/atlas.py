"""Cloud orchestration of the Transcriptomics Atlas (Fig. 2), and the
campaign core every capacity provider shares.

The core is what an accession's outcome depends on, whatever runs it:
:class:`AtlasConfig` (release, policy, models, seed),
:func:`simulate_star_step` (the one place a job's early stop, status and
STAR time are resolved), :class:`JobRecord` and :class:`CampaignReport`.
The providers add only how capacity is bought and scheduled:
:func:`run_atlas` here (an AutoScalingGroup draining SQS),
:func:`~repro.core.faas_atlas.run_faas_atlas` (scatter-gather functions)
and :func:`~repro.core.hpc.run_hpc` (a fixed FIFO cluster).

``run_atlas`` wires the pipeline into the DES substrate: an SQS queue is
seeded with one message per SRA run, an AutoScalingGroup launches worker
instances (on-demand or spot), each instance's init phase downloads the
STAR index from S3 and loads it into shared memory, and each message is
processed through prefetch → fasterq-dump → STAR (with the early-stopping
monitor watching synthesized progress) → normalization + result upload.

Timing comes from the calibrated models in :mod:`repro.perf`; alignment
*behaviour* (what the monitor sees, when it fires) comes from each job's
mapping-rate trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.agent import StageMark, WorkerAgent
from repro.cloud.autoscaling import AutoScalingGroup, ScalingPolicy
from repro.cloud.cost import CostAccountant, CostReport
from repro.cloud.ec2 import (
    Ec2Service,
    InstanceMarket,
    InstanceType,
    SpotModel,
    cheapest_fitting,
    instance_type,
)
from repro.cloud.events import Simulation, Timeout
from repro.cloud.s3 import S3Service
from repro.cloud.sqs import SqsQueue
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.pipeline import RunStatus
from repro.core.resilience import FaultPlan, RetryPolicy
from repro.core.trajectory import MappingTrajectory
from repro.genome.ensembl import EnsemblRelease, release_spec
from repro.perf.index_model import IndexModel
from repro.perf.star_model import StarPerfModel, StarRuntimeBreakdown
from repro.perf.transfer import TransferModel
from repro.reads.library import LibraryType
from repro.util.rng import derive_rng, ensure_rng


@dataclass(frozen=True)
class AtlasJob:
    """One SRA run to process (an SQS message body)."""

    accession: str
    sra_bytes: float
    fastq_bytes: float
    n_reads: int
    library: LibraryType
    trajectory: MappingTrajectory

    @property
    def terminal_mapping_rate(self) -> float:
        return self.trajectory.terminal_rate


@dataclass(frozen=True)
class AtlasConfig:
    """Everything that defines one atlas campaign."""

    release: EnsemblRelease = EnsemblRelease.R111
    #: pinned instance type name; None → right-size from the index footprint
    instance_name: str | None = None
    market: InstanceMarket = InstanceMarket.ON_DEMAND
    scaling: ScalingPolicy = field(default_factory=ScalingPolicy)
    early_stopping: EarlyStoppingPolicy | None = field(
        default_factory=EarlyStoppingPolicy
    )
    #: the atlas acceptance bar on the FINAL mapping rate — applied whether
    #: or not early stopping is enabled (early stopping merely applies the
    #: same bar sooner); None disables filtering entirely
    acceptance_threshold: float | None = 0.30
    star_model: StarPerfModel = field(default_factory=StarPerfModel)
    index_model: IndexModel = field(default_factory=IndexModel)
    transfer_model: TransferModel = field(default_factory=TransferModel)
    spot_model: SpotModel = field(default_factory=SpotModel)
    #: per-job fixed normalization/bookkeeping time (DESeq2 step), seconds
    normalize_seconds: float = 30.0
    #: uploaded result size per job (gene counts + logs), bytes
    result_bytes: float = 2e6
    visibility_timeout: float = 4 * 3600.0
    #: SQS redrive bound: a job interrupted this many times is dead-lettered
    max_receive_count: int = 10
    #: sample queue-depth/fleet metrics every N seconds (None = off)
    metrics_period: float | None = None
    #: trajectory checkpoints the monitor sees per run
    n_progress_snapshots: int = 20
    memory_overhead_bytes: float = 6e9
    #: per-job retry policy — the same type the local pipeline uses;
    #: backoff delays are spent as simulated time on the worker
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(base_delay=30.0, max_delay=600.0)
    )
    #: scripted fault injection (prefetch / fasterq_dump / s3_* steps)
    fault_plan: FaultPlan | None = None
    #: workers react to the 120 s spot notice by aborting the in-flight job
    #: and releasing its message immediately (False = work until the kill
    #: and rely on the visibility timeout, the pre-drain behaviour)
    drain_on_warning: bool = True
    #: stream each job: prefetch + fasterq-dump proceed concurrently with
    #: STAR (job wall time is the max of transfer and alignment, not the
    #: sum), and an early-stopping abort cancels the in-flight download —
    #: the un-transferred bytes land in :attr:`JobRecord.download_bytes_saved`
    streaming: bool = False
    #: replicate per-job align progress to an S3 "atlas-journal" bucket
    #: (checkpoint objects + a fencing-token lease per accession) so a
    #: redelivered job is *adopted* mid-STAR instead of restarted — see
    #: :mod:`repro.core.replication`.  Non-streaming jobs only: streamed
    #: jobs overlap transfer with STAR, so there is no resumable STAR
    #: tail to credit.
    replicate_journal: bool = False
    #: lease time-to-live, seconds; holders renew at every checkpoint
    lease_ttl: float = 900.0
    seed: int = 0

    def resolve_instance(self) -> InstanceType:
        """Pinned type, or the cheapest one whose RAM fits the index."""
        if self.instance_name is not None:
            return instance_type(self.instance_name)
        spec = release_spec(self.release)
        memory = self.index_model.memory_required_bytes(
            spec, overhead=self.memory_overhead_bytes
        )
        return cheapest_fitting(memory, family="r6a", min_vcpus=8)


@dataclass
class JobRecord:
    """Outcome of one job inside a campaign, under any provider."""

    accession: str
    status: RunStatus
    library: LibraryType
    started_at: float
    finished_at: float
    star_seconds: float
    star_seconds_if_full: float
    stop_fraction: float | None
    instance_id: str
    #: retries this job consumed before its terminal status
    retries: int = 0
    #: repr of the final error for FAILED jobs, else empty
    failure: str = ""
    #: processed by the streaming pipeline (stage-overlapped)
    streamed: bool = False
    #: SRA bytes never transferred because an early-stopping abort
    #: cancelled the in-flight download (streaming mode only)
    download_bytes_saved: float = 0.0
    #: this record's instance resumed a dead holder's STAR progress from
    #: the S3-replicated journal (``replicate_journal`` mode)
    adopted: bool = False
    #: STAR seconds the adoption skipped (work already checkpointed)
    star_seconds_recovered: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class CampaignReport:
    """What every provider reports: one record per job, and the makespan."""

    jobs: list[JobRecord]
    makespan_seconds: float

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_terminated(self) -> int:
        return sum(1 for j in self.jobs if j.status is RunStatus.REJECTED_EARLY)

    @property
    def n_failed(self) -> int:
        return sum(1 for j in self.jobs if j.status is RunStatus.FAILED)

    @property
    def star_hours_actual(self) -> float:
        return sum(j.star_seconds for j in self.jobs) / 3600.0

    @property
    def star_hours_if_full(self) -> float:
        return sum(j.star_seconds_if_full for j in self.jobs) / 3600.0

    @property
    def star_hours_saved(self) -> float:
        return self.star_hours_if_full - self.star_hours_actual

    @property
    def throughput_jobs_per_hour(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.n_jobs / (self.makespan_seconds / 3600.0)


@dataclass
class AtlasRunReport(CampaignReport):
    """Campaign-level results of the ASG fleet."""

    cost: CostReport
    instance: InstanceType
    peak_fleet: int
    mean_utilization: float
    init_overhead_seconds: float
    queue_redeliveries: int
    dead_lettered: int = 0
    #: interrupted jobs drained gracefully inside the 120 s warning window
    jobs_drained: int = 0
    #: busy seconds thrown away by spot interruptions (work redone elsewhere)
    work_lost_seconds: float = 0.0
    #: visibility-timeout seconds saved by drains releasing messages early
    work_saved_seconds: float = 0.0
    #: redelivered jobs resumed from S3 journal checkpoints (adoption)
    jobs_adopted: int = 0
    #: simulated STAR seconds adoption recovered instead of redoing
    work_recovered_seconds: float = 0.0
    #: CloudWatch-style time series (when config.metrics_period is set)
    metrics: dict = field(default_factory=dict)
    #: fleet-wide simulated seconds per stage (StageMark accounting)
    stage_seconds: dict = field(default_factory=dict)

    @property
    def download_bytes_saved(self) -> float:
        """SRA bytes never transferred thanks to streamed early stops."""
        return sum(j.download_bytes_saved for j in self.jobs)

    @property
    def total_retries(self) -> int:
        return sum(j.retries for j in self.jobs)

    @property
    def total_usd(self) -> float:
        return self.cost.total_usd


@dataclass(frozen=True)
class StarStep:
    """One job's STAR step, resolved against its trajectory and the policy."""

    #: the run to completion on the provider's vCPUs, noise included
    full: StarRuntimeBreakdown
    #: processed fraction at which early stopping aborted the run
    stop_fraction: float | None
    status: RunStatus

    @property
    def seconds(self) -> float:
        """The step's cost: the full run, or its setup and scanned prefix."""
        if self.stop_fraction is None:
            return self.full.total_seconds
        return (
            self.full.setup_seconds
            + self.stop_fraction * self.full.full_scan_seconds
        )


def simulate_star_step(
    job: AtlasJob,
    config: AtlasConfig,
    vcpus: int,
    rng: np.random.Generator,
) -> StarStep:
    """Resolve one job's STAR step against the trajectory + policy.

    The only place a campaign decides whether a job is stopped early,
    rejected at the end or accepted, so an accession ends alike under
    every provider.  The run-to-run noise draw is shared between the
    actual and the counterfactual full run so savings are measured on
    the same sample.
    """
    full = config.star_model.predict(
        job.fastq_bytes, release_spec(config.release), vcpus, rng=rng
    )
    stop_fraction = (
        None
        if config.early_stopping is None
        else config.early_stopping.abort_fraction(
            job.trajectory, config.n_progress_snapshots
        )
    )
    if stop_fraction is not None:
        status = RunStatus.REJECTED_EARLY
    elif (
        config.acceptance_threshold is not None
        and job.trajectory.rate_at(1.0) < config.acceptance_threshold
    ):
        status = RunStatus.REJECTED_FINAL
    else:
        status = RunStatus.ACCEPTED
    return StarStep(full=full, stop_fraction=stop_fraction, status=status)


def job_rngs(
    rng: np.random.Generator, jobs: list[AtlasJob]
) -> dict[str, np.random.Generator]:
    """Each accession's noise stream, derived from the campaign's "jobs"."""
    root = derive_rng(rng, "jobs")
    return {job.accession: derive_rng(root, job.accession) for job in jobs}


def overlap_schedule(
    transfer_seconds: float,
    star_seconds: float,
    stop_fraction: float | None,
) -> tuple[float, float]:
    """Wall time and transferred fraction for one streamed job.

    Download + decode proceed concurrently with STAR, so the job's wall
    time is the max of the two — but STAR can finish no earlier than the
    transfer of the portion it consumes (the whole file for a full run,
    ``stop_fraction`` of it for an early-stopped one).  An abort cancels
    the remainder of the transfer; the un-transferred fraction is the
    streamed download saving.

    Returns ``(elapsed_seconds, transferred_fraction)``.
    """
    if stop_fraction is None:
        return max(transfer_seconds, star_seconds), 1.0
    elapsed = max(star_seconds, stop_fraction * transfer_seconds)
    if transfer_seconds <= 0:
        return elapsed, 1.0
    return elapsed, min(1.0, elapsed / transfer_seconds)


def run_atlas(jobs: list[AtlasJob], config: AtlasConfig) -> AtlasRunReport:
    """Simulate a full atlas campaign and return the report."""
    if not jobs:
        raise ValueError("no jobs to run")
    rng = ensure_rng(config.seed)
    sim = Simulation()
    ec2 = Ec2Service(
        sim, spot_model=config.spot_model, rng=derive_rng(rng, "spot")
    )
    s3 = S3Service()
    itype = config.resolve_instance()
    spec = release_spec(config.release)
    index_bytes = config.index_model.index_bytes(spec)

    index_bucket = s3.create_bucket("atlas-index")
    index_key = f"star-index-r{spec.release}.tar"
    index_bucket.put(index_key, index_bytes, now=0.0)
    results_bucket = s3.create_bucket("atlas-results")
    journal_bucket = (
        s3.create_bucket("atlas-journal") if config.replicate_journal else None
    )

    dead_letter = SqsQueue(sim, name="sra-ids-dlq", visibility_timeout=3600.0)
    queue = SqsQueue(
        sim,
        name="sra-ids",
        visibility_timeout=config.visibility_timeout,
        max_receive_count=config.max_receive_count,
        dead_letter=dead_letter,
    )
    queue.send_batch(list(jobs))

    records: list[JobRecord] = []
    transfer = config.transfer_model
    index_model = config.index_model
    init_overhead = transfer.s3_download_seconds(index_bytes) + (
        index_model.shm_load_seconds(spec)
    )
    job_seeds = job_rngs(rng, jobs)
    # derived after "spot"/"jobs" so enabling retries never perturbs the
    # spot-interruption or per-job noise streams of an existing campaign
    retry_rng = derive_rng(rng, "retries")
    fault_plan = config.fault_plan

    def check_fault(step: str, key: str) -> None:
        if fault_plan is not None:
            fault_plan.check(step, key)

    # started_at spans every attempt of a message, not just the last one:
    # retry backoff and failed attempts are real simulated time the job cost
    first_started: dict[str, float] = {}

    # instance_id → the BatchLease it currently holds (replicate_journal
    # mode): a graceful spot drain releases the lease alongside the SQS
    # message, so the adopter starts immediately instead of waiting out
    # the lease TTL — the spot-drain handoff
    held_leases: dict = {}

    def on_drain(agent: WorkerAgent, message) -> None:
        lease = held_leases.pop(agent.instance.instance_id, None)
        if lease is not None:
            from repro.core.replication import FencedOut

            try:
                lease.release(now=sim.now)
            except FencedOut:
                pass  # someone already fenced us out; nothing to hand over

    def init_work(agent: WorkerAgent):
        check_fault("s3_download", agent.instance.instance_id)
        index_bucket.get(index_key)
        yield Timeout(transfer.s3_download_seconds(index_bytes))
        yield Timeout(index_model.shm_load_seconds(spec))

    def process_message(agent: WorkerAgent, message):
        job: AtlasJob = message.body
        started = first_started.setdefault(message.message_id, sim.now)
        download_bytes_saved = 0.0
        lease = None
        adopted = False
        star_recovered = 0.0
        if config.streaming:
            # both transfer steps stream, so their faults surface before
            # any alignment work — mirroring the local streamed pipeline
            check_fault("prefetch", job.accession)
            check_fault("fasterq_dump", job.accession)
            step = simulate_star_step(
                job, config, itype.vcpus, job_seeds[job.accession]
            )
            transfer_seconds = transfer.prefetch_seconds(
                job.sra_bytes
            ) + transfer.fasterq_dump_seconds(job.fastq_bytes)
            elapsed, transferred = overlap_schedule(
                transfer_seconds, step.seconds, step.stop_fraction
            )
            yield StageMark("stream")
            yield Timeout(elapsed)
            download_bytes_saved = job.sra_bytes * (1.0 - transferred)
        else:
            check_fault("prefetch", job.accession)
            yield StageMark("prefetch")
            yield Timeout(transfer.prefetch_seconds(job.sra_bytes))
            check_fault("fasterq_dump", job.accession)
            yield StageMark("fasterq_dump")
            yield Timeout(transfer.fasterq_dump_seconds(job.fastq_bytes))
            step = simulate_star_step(
                job, config, itype.vcpus, job_seeds[job.accession]
            )
            actual = step.seconds
            yield StageMark("star")
            if journal_bucket is None:
                yield Timeout(actual)
            else:
                # adoption path: the STAR step runs as checkpointed chunks
                # under a fencing-token lease, so a redelivery after
                # instance loss resumes from the dead holder's last
                # checkpoint instead of second 0
                from repro.core.replication import BatchLease, LeaseHeld

                lease_key = f"{job.accession}/lease"
                ckpt_key = f"{job.accession}/checkpoint"
                while lease is None:
                    try:
                        lease = BatchLease.acquire(
                            journal_bucket,
                            lease_key,
                            agent.instance.instance_id,
                            now=sim.now,
                            ttl=config.lease_ttl,
                        )
                    except LeaseHeld as held:
                        # a previous holder's lease is still live (e.g. a
                        # drained message came back before expiry): wait
                        # it out rather than split-brain the job
                        yield Timeout(max(held.expires_at - sim.now, 1.0))
                held_leases[agent.instance.instance_id] = lease
                n = max(1, config.n_progress_snapshots)
                chunks_done = 0
                existing = journal_bucket.head(ckpt_key)
                if existing is not None and existing.payload:
                    chunks_done = min(int(existing.payload["chunks"]), n)
                    if chunks_done > 0:
                        adopted = True
                        star_recovered = actual * chunks_done / n
                        agent.stats.jobs_adopted += 1
                        agent.stats.work_recovered_seconds += star_recovered
                for i in range(chunks_done, n):
                    yield Timeout(actual / n)
                    # checkpoint + heartbeat: zero simulated time (the
                    # put piggybacks on progress the worker made anyway)
                    journal_bucket.put(
                        ckpt_key,
                        64,
                        now=sim.now,
                        payload={"chunks": i + 1},
                    )
                    lease.renew(now=sim.now, ttl=config.lease_ttl)
        if step.status is RunStatus.ACCEPTED:
            yield StageMark("normalize")
            yield Timeout(config.normalize_seconds)
            check_fault("s3_upload", job.accession)
            yield StageMark("s3_upload")
            yield Timeout(transfer.s3_upload_seconds(config.result_bytes))
            if lease is not None:
                # token-checked publish: a stale holder fenced out by an
                # adopter raises here and never lands its result
                lease.publish(
                    results_bucket,
                    f"{job.accession}/ReadsPerGene.out.tab",
                    config.result_bytes,
                    now=sim.now,
                )
            else:
                results_bucket.put(
                    f"{job.accession}/ReadsPerGene.out.tab",
                    config.result_bytes,
                    now=sim.now,
                )
        if lease is not None:
            journal_bucket.delete(f"{job.accession}/checkpoint")
            lease.release(now=sim.now)
            held_leases.pop(agent.instance.instance_id, None)
        record = JobRecord(
            accession=job.accession,
            status=step.status,
            library=job.library,
            started_at=started,
            finished_at=sim.now,
            star_seconds=step.seconds,
            star_seconds_if_full=step.full.total_seconds,
            stop_fraction=step.stop_fraction,
            instance_id=agent.instance.instance_id,
            retries=agent.current_attempt - 1,
            streamed=config.streaming,
            download_bytes_saved=download_bytes_saved,
            adopted=adopted,
            star_seconds_recovered=star_recovered,
        )
        first_started.pop(message.message_id, None)
        records.append(record)
        return record

    def on_failure(agent: WorkerAgent, message, exc: BaseException) -> None:
        """Retry budget exhausted (or permanent fault): keep a FAILED record
        so the report still has one row per submitted accession."""
        job: AtlasJob = message.body
        records.append(
            JobRecord(
                accession=job.accession,
                status=RunStatus.FAILED,
                library=job.library,
                started_at=first_started.pop(message.message_id, sim.now),
                finished_at=sim.now,
                star_seconds=0.0,
                star_seconds_if_full=0.0,
                stop_fraction=None,
                instance_id=agent.instance.instance_id,
                retries=agent.current_attempt - 1,
                failure=repr(exc),
            )
        )

    def make_agent(asg: AutoScalingGroup, instance) -> WorkerAgent:
        return WorkerAgent(
            sim,
            instance,
            queue,
            init_work=init_work,
            process_message=process_message,
            on_stop=lambda a: ec2.terminate(a.instance),
            retry=config.retry,
            retry_rng=retry_rng,
            on_failure=on_failure,
            drain_on_warning=config.drain_on_warning,
            on_drain=on_drain if config.replicate_journal else None,
        )

    asg = AutoScalingGroup(
        sim,
        ec2,
        queue,
        itype=itype,
        market=config.market,
        policy=config.scaling,
        make_agent=make_agent,
    )

    collector = None
    if config.metrics_period is not None:
        from repro.cloud.metrics import MetricsCollector

        collector = MetricsCollector(sim, period=config.metrics_period)
        collector.register("queue_depth", lambda: queue.approximate_depth)
        collector.register("in_flight", lambda: queue.inflight_count)
        collector.register("fleet_running", lambda: len(ec2.running()))
        collector.register("jobs_done", lambda: len(records))

        def campaign():
            yield sim.process(asg.controller(), name="asg-controller")
            collector.stop()

        sim.process(collector.run(), name="metrics")
        sim.process(campaign(), name="campaign")
    else:
        sim.process(asg.controller(), name="asg-controller")
    sim.run()

    # Deduplicate redelivered jobs: keep the first completed record per
    # accession (at-least-once delivery can process a job twice when a spot
    # interruption strikes after most of the work was done).
    seen: dict[str, JobRecord] = {}
    for record in records:
        seen.setdefault(record.accession, record)
    final_records = [seen[j.accession] for j in jobs if j.accession in seen]

    makespan = max((r.finished_at for r in final_records), default=sim.now)
    buckets = [index_bucket, results_bucket]
    if journal_bucket is not None:
        buckets.append(journal_bucket)
    cost = CostAccountant(config.spot_model).full_report(
        ec2.instances, buckets, sim.now
    )
    return AtlasRunReport(
        jobs=final_records,
        makespan_seconds=makespan,
        cost=cost,
        instance=itype,
        peak_fleet=asg.peak_fleet_size(),
        mean_utilization=asg.mean_utilization(),
        init_overhead_seconds=init_overhead,
        # a drain-released message is a redelivery too — it just comes back
        # immediately instead of after the visibility timeout
        queue_redeliveries=queue.total_expired_visibility + queue.total_released,
        dead_lettered=queue.total_dead_lettered,
        jobs_drained=sum(a.stats.jobs_drained for a in asg.agents),
        work_lost_seconds=sum(a.stats.work_lost_seconds for a in asg.agents),
        work_saved_seconds=sum(a.stats.work_saved_seconds for a in asg.agents),
        jobs_adopted=sum(a.stats.jobs_adopted for a in asg.agents),
        work_recovered_seconds=sum(
            a.stats.work_recovered_seconds for a in asg.agents
        ),
        metrics=collector.series if collector is not None else {},
        stage_seconds=_merge_stage_seconds(asg.agents),
    )


def _merge_stage_seconds(agents) -> dict:
    totals: dict[str, float] = {}
    for agent in agents:
        for stage, seconds in agent.stats.stage_seconds.items():
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals
