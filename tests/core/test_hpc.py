"""HPC mode tests — the optimizations off the cloud."""

from dataclasses import replace

import pytest

from repro.core.atlas import AtlasConfig
from repro.core.hpc import HpcConfig, run_hpc
from repro.core.pipeline import RunStatus
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.genome.ensembl import EnsemblRelease


@pytest.fixture(scope="module")
def jobs():
    return generate_corpus(CorpusSpec(n_runs=60), rng=2)


@pytest.fixture(scope="module")
def base_config():
    return AtlasConfig(seed=3)


@pytest.fixture(scope="module")
def cluster():
    return HpcConfig(n_nodes=4, vcpus_per_node=16)


@pytest.fixture(scope="module")
def report(jobs, base_config, cluster):
    return run_hpc(jobs, base_config, cluster)


class TestBasics:
    def test_all_jobs_run(self, report, jobs):
        assert report.n_jobs == len(jobs)
        assert len({j.accession for j in report.jobs}) == len(jobs)

    def test_single_cell_terminated(self, report):
        terminated = [j for j in report.jobs if j.status is RunStatus.REJECTED_EARLY]
        assert len(terminated) >= 1

    def test_node_hours_accounting(self, report, cluster):
        assert report.node_hours == pytest.approx(
            cluster.n_nodes * report.makespan_seconds / 3600.0
        )

    def test_jobs_spread_over_nodes(self, report, cluster):
        assert len({j.instance_id for j in report.jobs}) == cluster.n_nodes

    def test_deterministic(self, jobs, base_config, cluster):
        a = run_hpc(jobs, base_config, cluster)
        b = run_hpc(jobs, base_config, cluster)
        assert a.makespan_seconds == b.makespan_seconds

    def test_empty_jobs_rejected(self, base_config, cluster):
        with pytest.raises(ValueError):
            run_hpc([], base_config, cluster)


class TestOptimizationsTransfer:
    def test_early_stopping_cuts_makespan_on_fixed_cluster(
        self, jobs, base_config, cluster
    ):
        with_es = run_hpc(jobs, base_config, cluster)
        without = run_hpc(jobs, replace(base_config, early_stopping=None), cluster)
        assert with_es.star_hours_actual < without.star_hours_actual
        assert with_es.makespan_seconds < without.makespan_seconds

    def test_r111_index_cuts_makespan(self, jobs, base_config, cluster):
        r111 = run_hpc(jobs, base_config, cluster)
        r108 = run_hpc(
            jobs, replace(base_config, release=EnsemblRelease.R108), cluster
        )
        assert r108.makespan_seconds > 5 * r111.makespan_seconds
        assert r108.index_load_seconds > 2 * r111.index_load_seconds

    def test_shared_memory_index_amortizes_load(self, jobs, base_config, cluster):
        shared = run_hpc(jobs, base_config, cluster)
        reload_each = run_hpc(
            jobs, base_config, replace(cluster, shared_memory_index=False)
        )
        assert shared.makespan_seconds < reload_each.makespan_seconds

    def test_more_nodes_shorter_makespan(self, jobs, base_config, cluster):
        small = run_hpc(jobs, base_config, replace(cluster, n_nodes=2))
        large = run_hpc(jobs, base_config, replace(cluster, n_nodes=8))
        assert large.makespan_seconds < small.makespan_seconds
        # but node-hours stay ~flat (same work + idle tails)
        assert large.node_hours == pytest.approx(small.node_hours, rel=0.35)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            HpcConfig(n_nodes=0)
