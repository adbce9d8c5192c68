"""Serverless (FaaS) embodiment of the atlas campaign — the third axis.

:func:`~repro.core.atlas.run_atlas` models the paper's Fig. 2
architecture: an AutoScalingGroup of big-memory instances draining an
SQS queue.  This module models the *serverless* alternative the paper's
conclusions gesture at — scatter-gather over short-lived function
invocations — so the two can be compared on the same accession set:

* a driver splits each run's reads into shards sized to a target
  duration (amortizing cold starts against the 15-minute execution cap),
  fans them out as function invocations, and gathers the partial counts;
* the :class:`~repro.cloud.faas.FaasService` is authoritative for
  admission and settlement: cold vs warm starts from its keep-alive
  container pool, per-GB-second + per-request billing, and the execution
  cap.  Shards whose *actual* duration (run-to-run noise included)
  overruns the cap are killed at the cap, billed in full, and
  re-scattered in halves — the ``cap_reshards`` axis;
* early stopping is decided from the job's mapping-rate trajectory by
  :func:`~repro.core.atlas.simulate_star_step`, as under the ASG and HPC
  providers; the driver queues only the prefix of reads the policy scans
  before it aborts, so an aborted run bills only that prefix.

Modeling assumptions, stated once: reads are already staged in S3 (both
architectures share that ingestion cost, so it cancels out of the
comparison); the STAR index is baked into the function image as a
memory-mapped layer whose attach time is part of the cold start; and
function CPU scales with configured memory at the usual ~1 vCPU per
1769 MB.

``hybrid`` routes each job by size — small runs to functions, large
runs to the instance fleet — capturing the regime where per-request
overhead and the execution cap make pure FaaS lose to instances on big
single-cell archives while still winning on small bulk runs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.faas import (
    ExecutionCapExceeded,
    FaasBill,
    FaasLimits,
    FaasService,
)
from repro.core.atlas import (
    AtlasConfig,
    AtlasJob,
    AtlasRunReport,
    CampaignReport,
    JobRecord,
    job_rngs,
    run_atlas,
    simulate_star_step,
)
from repro.core.pipeline import RunStatus
from repro.genome.ensembl import release_spec
from repro.util.rng import ensure_rng, mean_one_lognormal
from repro.util.validation import check_positive

__all__ = [
    "ARCHITECTURES",
    "ArchitectureComparison",
    "ArchitecturePoint",
    "FaasAtlasConfig",
    "FaasAtlasReport",
    "compare_architectures",
    "run_faas_atlas",
]

#: the architecture axis the CLI exposes
ARCHITECTURES = ("asg", "faas", "hybrid")

#: AWS Lambda allocates CPU proportionally to memory at this rate
_MEMORY_MB_PER_VCPU = 1769.0


@dataclass(frozen=True)
class FaasAtlasConfig:
    """The serverless side of the architecture comparison."""

    #: function memory (drives both the GB-second rate and the vCPU share)
    memory_mb: int = 10240
    #: cold start: runtime init + attaching the baked-in index layer
    cold_start_seconds: float = 30.0
    limits: FaasLimits = field(default_factory=FaasLimits)
    #: driver-side target duration per shard — comfortably under the cap,
    #: but close enough that run-to-run noise pushes the tail over it
    shard_seconds_target: float = 720.0
    #: fixed per-invocation overhead (payload decode, S3 ranged GET)
    invoke_overhead_seconds: float = 2.0
    #: request payload: an S3 span reference, not the reads themselves
    request_bytes: int = 1024
    #: response payload per shard (the partial count vector)
    response_bytes: int = 512 * 1024
    #: per-shard lognormal duration noise on top of the job's own draw
    shard_noise_sigma: float = 0.10
    function_name: str = "star-align"

    def __post_init__(self) -> None:
        check_positive("memory_mb", self.memory_mb)
        check_positive("shard_seconds_target", self.shard_seconds_target)
        if self.shard_seconds_target > self.limits.max_execution_seconds:
            raise ValueError(
                "shard_seconds_target must not exceed the execution cap"
            )

    @property
    def vcpus(self) -> int:
        return max(1, int(self.memory_mb // _MEMORY_MB_PER_VCPU))


@dataclass
class FaasAtlasReport(CampaignReport):
    """Campaign-level results of the serverless embodiment."""

    bill: FaasBill
    invocations: int
    cold_starts: int
    warm_starts: int
    cold_start_share: float
    cap_reshards: int
    peak_concurrency: int
    #: billed function compute seconds across the campaign
    function_seconds: float

    @property
    def total_usd(self) -> float:
        return self.bill.total_usd


def run_faas_atlas(
    jobs: list[AtlasJob],
    config: AtlasConfig,
    faas: FaasAtlasConfig | None = None,
) -> FaasAtlasReport:
    """Run the accession set through the scatter-gather FaaS architecture.

    Deterministic given ``config.seed``.  The scheduler is a simple
    list-scheduling simulation: up to ``limits.max_concurrency`` shards
    run at once, each shard occupying a concurrency slot for its cold
    start plus its (cap-clamped) duration; completions are settled
    against the service in time order, so the warm-pool and billing
    accounting see the same schedule the makespan is computed from.
    """
    if not jobs:
        raise ValueError("no jobs to run")
    faas = faas or FaasAtlasConfig()
    service = FaasService(limits=faas.limits)
    fn = service.create_function(
        faas.function_name,
        memory_mb=faas.memory_mb,
        cold_start_seconds=faas.cold_start_seconds,
    )
    rngs = job_rngs(ensure_rng(config.seed), jobs)
    cap = faas.limits.max_execution_seconds
    # driver-side expectation (no noise): what shard sizing is based on
    expected_throughput = config.star_model.throughput(
        release_spec(config.release), faas.vcpus
    )

    # one concurrency slot per allowed in-flight invocation; each entry
    # is the time the slot frees up
    slots = [0.0] * faas.limits.max_concurrency
    heapq.heapify(slots)

    # (job_index, lo_read, n_reads, not_before) work items; splits
    # re-enter at the front so a cap-overrun job finishes before new jobs
    # fan out, and start no earlier than the kill that re-scattered them
    pending: deque[tuple[int, int, int, float]] = deque()
    job_state: list[dict] = []
    for idx, job in enumerate(jobs):
        rng = rngs[job.accession]
        # the job's whole scan on one function, run-to-run noise included;
        # a shard runs its share of the reads of that scan
        step = simulate_star_step(job, config, faas.vcpus, rng)
        scan_seconds = step.full.scan_seconds
        n_reads = max(1, job.n_reads)
        bytes_per_read = max(1.0, job.fastq_bytes / n_reads)
        shard_reads = max(
            1,
            int(faas.shard_seconds_target / (bytes_per_read / expected_throughput)),
        )
        reads_to_scan = (
            n_reads
            if step.stop_fraction is None
            else max(1, math.ceil(step.stop_fraction * n_reads))
        )
        n_shards_full = math.ceil(n_reads / shard_reads)
        job_state.append(
            {
                "rng": rng,
                "status": step.status,
                "stop_fraction": step.stop_fraction,
                "seconds_per_read": scan_seconds / n_reads,
                "started_at": None,
                "finish": 0.0,
                "billed": 0.0,
                "failure": "",
                "full_seconds": (
                    scan_seconds + n_shards_full * faas.invoke_overhead_seconds
                ),
            }
        )
        for lo in range(0, reads_to_scan, shard_reads):
            pending.append((idx, lo, min(shard_reads, reads_to_scan - lo), 0.0))

    # deferred completions: settled against the service once the clock
    # (the next shard's start time) has passed their end time, so the
    # warm pool never sees a container returned "from the future"
    active: list[tuple[float, int, object, float, int, int, int]] = []
    cap_reshards = 0
    peak_concurrency = 0
    tiebreak = 0

    def settle(inv, duration: float, idx: int, lo: int, n: int, t_end: float):
        nonlocal cap_reshards
        state = job_state[idx]
        try:
            fn.complete(inv, duration, faas.response_bytes, now=t_end)
        except ExecutionCapExceeded:
            cap_reshards += 1
            if n <= 1:
                state["status"] = RunStatus.FAILED
                state["failure"] = (
                    "ExecutionCapExceeded: a single-read shard exceeds "
                    "the execution cap"
                )
            else:
                half = n // 2
                pending.appendleft((idx, lo + half, n - half, t_end))
                pending.appendleft((idx, lo, half, t_end))
        state["billed"] += min(duration, cap)
        state["finish"] = max(state["finish"], t_end)

    def settle_due(limit: float) -> None:
        while active and active[0][0] <= limit:
            t_end, _, inv, duration, idx, lo, n = heapq.heappop(active)
            settle(inv, duration, idx, lo, n, t_end)

    while pending or active:
        if not pending:
            # settle only the earliest completion: it may re-scatter a
            # killed shard, which must start before any later completion
            # returns its container to the pool
            settle_due(active[0][0])
            continue
        idx, lo, n, not_before = pending.popleft()
        state = job_state[idx]
        if state["status"] is RunStatus.FAILED:
            continue  # a sibling shard already failed the job
        t0 = max(heapq.heappop(slots), not_before)
        settle_due(t0)
        invocation = fn.invoke(faas.request_bytes, now=t0)
        shard_noise = mean_one_lognormal(state["rng"], faas.shard_noise_sigma)
        duration = (
            faas.invoke_overhead_seconds
            + n * state["seconds_per_read"] * shard_noise
        )
        t_end = t0 + invocation.cold_start_seconds + min(duration, cap)
        if state["started_at"] is None:
            state["started_at"] = t0
        tiebreak += 1
        heapq.heappush(
            active, (t_end, tiebreak, invocation, duration, idx, lo, n)
        )
        heapq.heappush(slots, t_end)
        peak_concurrency = max(peak_concurrency, len(active))

    records: list[JobRecord] = []
    makespan = 0.0
    for job, state in zip(jobs, job_state):
        finished_at = state["finish"]
        if state["status"] is RunStatus.ACCEPTED:
            finished_at += config.normalize_seconds
        makespan = max(makespan, finished_at)
        records.append(
            JobRecord(
                accession=job.accession,
                status=state["status"],
                library=job.library,
                started_at=float(state["started_at"] or 0.0),
                finished_at=finished_at,
                star_seconds=state["billed"],
                star_seconds_if_full=state["full_seconds"],
                stop_fraction=state["stop_fraction"],
                instance_id=f"faas:{fn.name}",
                failure=state["failure"],
            )
        )

    return FaasAtlasReport(
        jobs=records,
        makespan_seconds=makespan,
        bill=service.bill(),
        invocations=fn.invocations,
        cold_starts=fn.cold_starts,
        warm_starts=fn.warm_starts,
        cold_start_share=fn.cold_start_share,
        cap_reshards=cap_reshards,
        peak_concurrency=peak_concurrency,
        function_seconds=fn.billed_seconds,
    )


# --------------------------------------------------------------------------
# the architecture comparison
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ArchitecturePoint:
    """One architecture's campaign summary over the shared accession set."""

    architecture: str
    n_jobs: int
    cost_usd: float
    makespan_seconds: float
    cold_start_share: float
    cap_reshards: int
    n_faas_jobs: int
    n_asg_jobs: int
    n_terminated: int
    n_failed: int

    @property
    def cost_per_accession_usd(self) -> float:
        if self.n_jobs == 0:
            return 0.0
        return self.cost_usd / self.n_jobs

    @property
    def makespan_hours(self) -> float:
        return self.makespan_seconds / 3600.0


@dataclass
class ArchitectureComparison:
    """Cost/makespan across architectures for one accession set."""

    points: list[ArchitecturePoint]
    #: hybrid routing bound: jobs with at most this many reads go to FaaS
    hybrid_read_threshold: int

    def point(self, architecture: str) -> ArchitecturePoint:
        for p in self.points:
            if p.architecture == architecture:
                return p
        raise KeyError(architecture)

    def to_table(self) -> str:
        from repro.util.tables import Table

        table = Table(
            [
                "architecture",
                "jobs (faas/asg)",
                "cost ($)",
                "$/accession",
                "makespan (h)",
                "cold-start share",
                "cap re-shards",
                "terminated",
                "failed",
            ],
            title="Architecture comparison — same accession set",
        )
        for p in self.points:
            table.add_row(
                [
                    p.architecture,
                    f"{p.n_jobs} ({p.n_faas_jobs}/{p.n_asg_jobs})",
                    f"{p.cost_usd:.2f}",
                    f"{p.cost_per_accession_usd:.4f}",
                    f"{p.makespan_hours:.2f}",
                    f"{p.cold_start_share:.3f}",
                    p.cap_reshards,
                    p.n_terminated,
                    p.n_failed,
                ]
            )
        return table.render()


def compare_architectures(
    jobs: list[AtlasJob],
    config: AtlasConfig,
    *,
    architectures: tuple[str, ...] = ARCHITECTURES,
    faas: FaasAtlasConfig | None = None,
    hybrid_read_threshold: int | None = None,
) -> ArchitectureComparison:
    """Run the same accession set under each requested architecture.

    ``hybrid_read_threshold`` defaults to the corpus median read count:
    the half of the corpus made of small runs goes to functions, the
    big half to the instance fleet.
    """
    unknown = set(architectures) - set(ARCHITECTURES)
    if unknown:
        raise ValueError(
            f"unknown architectures {sorted(unknown)}; "
            f"choose from {ARCHITECTURES}"
        )
    if not jobs:
        raise ValueError("no jobs to run")
    faas = faas or FaasAtlasConfig()
    if hybrid_read_threshold is None:
        hybrid_read_threshold = int(np.median([j.n_reads for j in jobs]))

    runners = {
        "faas": lambda routed: run_faas_atlas(routed, config, faas),
        "asg": lambda routed: run_atlas(routed, config),
    }
    # each architecture routes every job to one provider; hybrid splits
    # the set by size
    routes = {
        "asg": {"asg": jobs},
        "faas": {"faas": jobs},
        "hybrid": {
            "faas": [j for j in jobs if j.n_reads <= hybrid_read_threshold],
            "asg": [j for j in jobs if j.n_reads > hybrid_read_threshold],
        },
    }
    points = []
    for arch in architectures:
        reports = {
            provider: runners[provider](routed)
            for provider, routed in routes[arch].items()
            if routed
        }
        points.append(_point(arch, routes[arch], reports))
    return ArchitectureComparison(
        points=points, hybrid_read_threshold=hybrid_read_threshold
    )


def _point(
    architecture: str,
    routed: dict[str, list[AtlasJob]],
    reports: dict[str, AtlasRunReport | FaasAtlasReport],
) -> ArchitecturePoint:
    """One architecture's summary, merged from its providers' reports."""
    functions = reports.get("faas")
    return ArchitecturePoint(
        architecture=architecture,
        n_jobs=sum(len(js) for js in routed.values()),
        cost_usd=sum(r.total_usd for r in reports.values()),
        makespan_seconds=max(r.makespan_seconds for r in reports.values()),
        cold_start_share=functions.cold_start_share if functions else 0.0,
        cap_reshards=functions.cap_reshards if functions else 0,
        n_faas_jobs=len(routed.get("faas", ())),
        n_asg_jobs=len(routed.get("asg", ())),
        n_terminated=sum(r.n_terminated for r in reports.values()),
        n_failed=sum(r.n_failed for r in reports.values()),
    )
