"""HPC / workstation mode (paper conclusions: "Those insights are
applicable outside the cloud environment (HPC or workstations)").

Runs the same campaign on a *fixed-size* cluster — a SLURM-like FIFO
scheduler over homogeneous nodes, no elasticity, no per-second billing —
and measures what the two optimizations buy there: node-hours (the HPC
accounting unit) and makespan, instead of dollars.

A provider of the campaign core in :mod:`repro.core.atlas`: release,
policy, models and seed come from the campaign's
:class:`~repro.core.atlas.AtlasConfig` and every STAR step is resolved by
:func:`~repro.core.atlas.simulate_star_step`, so cloud-vs-HPC comparisons
are apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.events import Simulation, Timeout
from repro.core.atlas import (
    AtlasConfig,
    AtlasJob,
    CampaignReport,
    JobRecord,
    job_rngs,
    simulate_star_step,
)
from repro.core.pipeline import RunStatus
from repro.genome.ensembl import release_spec
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class HpcConfig:
    """The fixed cluster's shape; the campaign itself is an AtlasConfig."""

    n_nodes: int = 8
    vcpus_per_node: int = 16
    #: nodes keep the index resident in shared memory; it is loaded once
    #: per node at campaign start (STAR's --genomeLoad LoadAndKeep)
    shared_memory_index: bool = True

    def __post_init__(self) -> None:
        check_positive("n_nodes", self.n_nodes)
        check_positive("vcpus_per_node", self.vcpus_per_node)


@dataclass
class HpcRunReport(CampaignReport):
    """Campaign-level results on the fixed cluster."""

    node_hours: float
    n_nodes: int
    index_load_seconds: float


def run_hpc(
    jobs: list[AtlasJob],
    config: AtlasConfig,
    cluster: HpcConfig | None = None,
) -> HpcRunReport:
    """Run a campaign on the fixed cluster (FIFO dispatch, one job/node).

    Each node loads the STAR index into shared memory once, then drains
    the shared FIFO queue.  Timing reuses the cloud mode's models; the
    SRA download happens from the site's mirror at NCBI rates.  The
    instance and fleet fields of ``config`` play no part here.
    """
    if not jobs:
        raise ValueError("no jobs to run")
    cluster = cluster or HpcConfig()
    job_seeds = job_rngs(ensure_rng(config.seed), jobs)

    sim = Simulation()
    queue: list[AtlasJob] = list(jobs)
    records: list[JobRecord] = []
    spec = release_spec(config.release)
    transfer = config.transfer_model
    index_load = (
        config.index_model.shm_load_seconds(spec)
        if cluster.shared_memory_index
        else 0.0
    )

    def node_worker(node_id: int):
        if index_load:
            yield Timeout(index_load)
        while queue:
            job = queue.pop(0)
            started = sim.now
            yield Timeout(transfer.prefetch_seconds(job.sra_bytes))
            yield Timeout(transfer.fasterq_dump_seconds(job.fastq_bytes))
            if not cluster.shared_memory_index:
                yield Timeout(config.index_model.shm_load_seconds(spec))
            step = simulate_star_step(
                job, config, cluster.vcpus_per_node, job_seeds[job.accession]
            )
            yield Timeout(step.seconds)
            if step.status is RunStatus.ACCEPTED:
                yield Timeout(config.normalize_seconds)
            records.append(
                JobRecord(
                    accession=job.accession,
                    status=step.status,
                    library=job.library,
                    started_at=started,
                    finished_at=sim.now,
                    star_seconds=step.seconds,
                    star_seconds_if_full=step.full.total_seconds,
                    stop_fraction=step.stop_fraction,
                    instance_id=f"node-{node_id}",
                )
            )

    for node_id in range(cluster.n_nodes):
        sim.process(node_worker(node_id), name=f"node-{node_id}")
    sim.run()

    return HpcRunReport(
        jobs=records,
        makespan_seconds=sim.now,
        node_hours=cluster.n_nodes * sim.now / 3600.0,
        n_nodes=cluster.n_nodes,
        index_load_seconds=index_load,
    )
