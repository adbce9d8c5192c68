"""Serverless campaign provider: scheduling, routing and failure paths."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cloud.faas import FaasFunction, FaasLimits
from repro.core.atlas import AtlasConfig, AtlasJob
from repro.core.faas_atlas import compare_architectures, run_faas_atlas
from repro.core.pipeline import RunStatus
from repro.experiments.corpus import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def paper_scale_jobs():
    return generate_corpus(CorpusSpec(n_runs=20), rng=0)


def oversized(job: AtlasJob) -> AtlasJob:
    """One read whose scan alone overruns the execution cap."""
    return replace(job, accession="SRR_OVERSIZED", n_reads=1, fastq_bytes=2e11)


@pytest.fixture
def service_log(monkeypatch):
    """Every invocation start and settlement the service sees, in order."""
    log: list[tuple[str, float]] = []
    invoke, complete = FaasFunction.invoke, FaasFunction.complete

    def recording_invoke(self, request_bytes, *, now):
        log.append(("invoke", now))
        return invoke(self, request_bytes, now=now)

    def recording_complete(self, invocation, duration, response_bytes, *, now):
        killed = duration > self.limits.max_execution_seconds
        log.append(("kill" if killed else "complete", now))
        return complete(self, invocation, duration, response_bytes, now=now)

    monkeypatch.setattr(FaasFunction, "invoke", recording_invoke)
    monkeypatch.setattr(FaasFunction, "complete", recording_complete)
    return log


class TestCapReshardSchedule:
    def test_no_invocation_starts_before_the_kill_that_rescattered_it(
        self, paper_scale_jobs, service_log
    ):
        report = run_faas_atlas(paper_scale_jobs, AtlasConfig(seed=0))
        assert report.cap_reshards > 0
        kills = [i for i, (kind, _) in enumerate(service_log) if kind == "kill"]
        assert kills
        for i in kills:
            killed_at = service_log[i][1]
            later_starts = [
                t for kind, t in service_log[i + 1 :] if kind == "invoke"
            ]
            assert later_starts, "a killed shard's reads were not re-scattered"
            assert min(later_starts) >= killed_at

    def test_pool_never_sees_a_container_returned_from_the_future(
        self, paper_scale_jobs, service_log
    ):
        run_faas_atlas(paper_scale_jobs, AtlasConfig(seed=0))
        settled_until = 0.0
        for kind, t in service_log:
            if kind == "invoke":
                assert t >= settled_until
            else:
                settled_until = max(settled_until, t)


class TestFinishTimes:
    """DESeq2 normalization runs for accepted jobs only, as under ASG/HPC."""

    @pytest.mark.parametrize(
        "status", [RunStatus.ACCEPTED, RunStatus.REJECTED_EARLY, RunStatus.FAILED]
    )
    def test_finish_is_the_last_shard_end_plus_normalization_if_accepted(
        self, paper_scale_jobs, service_log, status
    ):
        if status is RunStatus.FAILED:
            job = oversized(paper_scale_jobs[0])
        elif status is RunStatus.REJECTED_EARLY:
            job = next(j for j in paper_scale_jobs if j.library.is_single_cell)
        else:
            job = paper_scale_jobs[0]
        config = AtlasConfig(seed=0)
        (record,) = run_faas_atlas([job], config).jobs
        assert record.status is status
        last_shard_end = max(t for kind, t in service_log if kind != "invoke")
        normalize = config.normalize_seconds if status is RunStatus.ACCEPTED else 0.0
        assert record.finished_at == last_shard_end + normalize


class TestDeterminism:
    def test_same_seed_same_report(self, paper_scale_jobs):
        a = run_faas_atlas(paper_scale_jobs, AtlasConfig(seed=0))
        b = run_faas_atlas(paper_scale_jobs, AtlasConfig(seed=0))
        assert a == b

    def test_seed_moves_the_noise_not_the_statuses(self, paper_scale_jobs):
        a = run_faas_atlas(paper_scale_jobs, AtlasConfig(seed=0))
        b = run_faas_atlas(paper_scale_jobs, AtlasConfig(seed=1))
        assert [j.status for j in a.jobs] == [j.status for j in b.jobs]
        assert [j.star_seconds for j in a.jobs] != [j.star_seconds for j in b.jobs]


class TestExecutionCap:
    def test_single_read_shard_over_the_cap_fails_the_job(self, paper_scale_jobs):
        report = run_faas_atlas(
            [paper_scale_jobs[1], oversized(paper_scale_jobs[0])],
            AtlasConfig(seed=0),
        )
        records = {j.accession: j for j in report.jobs}
        failed = records["SRR_OVERSIZED"]
        assert failed.status is RunStatus.FAILED
        assert "ExecutionCapExceeded" in failed.failure
        assert failed.star_seconds == FaasLimits().max_execution_seconds
        assert records[paper_scale_jobs[1].accession].status is RunStatus.ACCEPTED
        assert report.n_failed == 1


class TestCompareArchitectures:
    def test_hybrid_routes_every_job_once_at_the_median(self, paper_scale_jobs):
        comparison = compare_architectures(
            paper_scale_jobs, AtlasConfig(seed=0), architectures=("hybrid",)
        )
        median = int(np.median([j.n_reads for j in paper_scale_jobs]))
        assert comparison.hybrid_read_threshold == median
        point = comparison.point("hybrid")
        assert point.n_faas_jobs + point.n_asg_jobs == point.n_jobs
        assert point.n_jobs == len(paper_scale_jobs)
        assert point.n_faas_jobs == sum(j.n_reads <= median for j in paper_scale_jobs)

    def test_unknown_architecture_rejected(self, paper_scale_jobs):
        with pytest.raises(ValueError, match="unknown architectures"):
            compare_architectures(
                paper_scale_jobs, AtlasConfig(), architectures=("asg", "lambda")
            )
