"""Pipeline failure-isolation tests: retries, FAILED results, ordering."""

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.resilience import FaultPlan, RetryPolicy
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository

ACCESSIONS = ["SRR2000001", "SRR2000002", "SRR2000003", "SRR2000004"]

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(ACCESSIONS):
        profile = SampleProfile(
            LibraryType.BULK_POLYA, n_reads=120, read_length=80
        )
        sample = simulator.simulate(profile, rng=500 + i, read_id_prefix=acc)
        repo.deposit(SraArchive(acc, profile.library, sample.records))
    return repo


def make_pipeline(repository, aligner, tmp_path, **config_overrides):
    config_overrides.setdefault(
        "early_stopping", EarlyStoppingPolicy(min_reads=20)
    )
    config_overrides.setdefault("retry", FAST_RETRY)
    config_overrides.setdefault("write_outputs", False)
    return TranscriptomicsAtlasPipeline(
        repository,
        aligner,
        tmp_path,
        config=PipelineConfig(**config_overrides),
    )


class TestTransientRecovery:
    def test_retried_accession_matches_fault_free(
        self, repository, aligner_r111, tmp_path
    ):
        faulted = make_pipeline(
            repository,
            aligner_r111,
            tmp_path / "faulted",
            fault_plan=FaultPlan.parse(
                "prefetch:SRR2000001:transient*2,"
                "fasterq_dump:SRR2000002:transient*1"
            ),
        )
        clean = make_pipeline(repository, aligner_r111, tmp_path / "clean")

        got = faulted.run_batch(ACCESSIONS[:2])
        want = clean.run_batch(ACCESSIONS[:2])
        for g, w in zip(got, want):
            assert g.status is RunStatus.ACCEPTED
            assert g.counts == w.counts
            assert (
                g.star_result.final.mapped_unique
                == w.star_result.final.mapped_unique
            )
        assert got[0].retries == 2
        assert got[1].retries == 1
        assert faulted.summary()["retries"] == 3
        assert faulted.retries_by_step() == {
            "prefetch": 2,
            "fasterq_dump": 1,
        }


class TestPermanentFailure:
    def test_failed_result_with_record(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(
            repository,
            aligner_r111,
            tmp_path,
            fault_plan=FaultPlan.parse("prefetch:SRR2000001:permanent"),
        )
        result = pipeline.run_accession("SRR2000001")
        assert result.status is RunStatus.FAILED
        assert result.failure is not None
        assert result.failure.step == "prefetch"
        assert result.failure.attempts == 1  # permanent: no retries wasted
        assert result.failure.permanent
        assert result.failure.error_chain
        assert result.star_result is None
        assert result.counts is None
        assert result.mapped_fraction == 0.0
        assert pipeline.summary()["failed"] == 1

    def test_exhausted_transient_becomes_failed(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(
            repository,
            aligner_r111,
            tmp_path,
            fault_plan=FaultPlan.parse("fasterq_dump:SRR2000001:transient*99"),
        )
        result = pipeline.run_accession("SRR2000001")
        assert result.status is RunStatus.FAILED
        assert result.failure.step == "fasterq_dump"
        assert result.failure.attempts == FAST_RETRY.max_attempts
        assert not result.failure.permanent

    def test_missing_accession_fails_not_raises(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path)
        result = pipeline.run_accession("SRR_NO_SUCH")
        assert result.status is RunStatus.FAILED
        assert result.failure is not None


class TestBatchIsolation:
    def test_one_failure_does_not_poison_the_batch(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(
            repository,
            aligner_r111,
            tmp_path,
            fault_plan=FaultPlan.parse("prefetch:SRR2000002:permanent"),
        )
        results = pipeline.run_batch(ACCESSIONS, BatchOptions(max_parallel=3))
        # one result per accession, in submission order, always
        assert [r.accession for r in results] == ACCESSIONS
        assert [r.status for r in results] == [
            RunStatus.ACCEPTED,
            RunStatus.FAILED,
            RunStatus.ACCEPTED,
            RunStatus.ACCEPTED,
        ]
        assert pipeline.results == results

    def test_failures_excluded_from_normalize(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(
            repository,
            aligner_r111,
            tmp_path,
            fault_plan=FaultPlan.parse("prefetch:SRR2000002:permanent"),
        )
        pipeline.run_batch(ACCESSIONS)
        matrix, _, _ = pipeline.normalize()
        assert matrix.n_samples == len(ACCESSIONS) - 1
