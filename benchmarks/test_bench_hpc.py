"""EXT-HPC bench: the optimizations off the cloud.

"Those insights are applicable outside the cloud environment (HPC or
workstations)." — runs the corpus on a fixed SLURM-like cluster and
quantifies both optimizations in node-hours/makespan terms, the HPC
accounting units.
"""

from dataclasses import replace

from repro.core.atlas import AtlasConfig
from repro.core.hpc import HpcConfig, run_hpc
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.genome.ensembl import EnsemblRelease
from repro.util.tables import Table


def run_hpc_grid(n_jobs: int = 120, seed: int = 0):
    jobs = generate_corpus(CorpusSpec(n_runs=n_jobs), rng=seed)
    base = AtlasConfig(seed=seed)
    cluster = HpcConfig(n_nodes=8, vcpus_per_node=16)
    variants = {
        "r111 + early-stop": base,
        "r111, no early-stop": replace(base, early_stopping=None),
        "r108 + early-stop": replace(base, release=EnsemblRelease.R108),
        "r108, no early-stop": replace(
            base, release=EnsemblRelease.R108, early_stopping=None
        ),
    }
    return {name: run_hpc(jobs, cfg, cluster) for name, cfg in variants.items()}


def test_bench_hpc(once):
    reports = once(run_hpc_grid)

    table = Table(
        ["variant", "makespan h", "node-hours", "STAR h", "terminated", "jobs/h"],
        title="HPC mode — fixed 8-node cluster (EXT-HPC)",
    )
    for name, r in reports.items():
        table.add_row(
            [
                name,
                f"{r.makespan_seconds / 3600:.2f}",
                f"{r.node_hours:.1f}",
                f"{r.star_hours_actual:.1f}",
                r.n_terminated,
                f"{r.throughput_jobs_per_hour:.1f}",
            ]
        )
    print()
    print(table.render())

    base = reports["r111 + early-stop"]
    no_es = reports["r111, no early-stop"]
    r108 = reports["r108 + early-stop"]

    # early stopping saves STAR hours (and therefore node-hours) on a
    # fixed cluster, same as in the cloud
    saving = 1 - base.star_hours_actual / no_es.star_hours_actual
    assert 0.10 < saving < 0.30
    assert base.node_hours < no_es.node_hours

    # release switch dominates: ~an order of magnitude in makespan
    assert r108.makespan_seconds > 5 * base.makespan_seconds

    # both optimizations compound
    worst = reports["r108, no early-stop"]
    assert worst.node_hours > 8 * base.node_hours
    assert base.n_terminated > 0
    assert no_es.n_terminated == 0
