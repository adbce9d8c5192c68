"""Local four-step pipeline tests over the real toolchain."""

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    profiles = {
        "SRR1000001": SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
        "SRR1000002": SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
        "SRR1000003": SampleProfile(LibraryType.SINGLE_CELL_3P, n_reads=200, read_length=80),
    }
    for i, (acc, profile) in enumerate(profiles.items()):
        sample = simulator.simulate(profile, rng=300 + i, read_id_prefix=acc)
        repo.deposit(SraArchive(acc, profile.library, sample.records))
    return repo


@pytest.fixture
def pipeline(repository, aligner_r111, tmp_path):
    return TranscriptomicsAtlasPipeline(
        repository,
        aligner_r111,
        tmp_path,
        config=PipelineConfig(early_stopping=EarlyStoppingPolicy(min_reads=20)),
    )


class TestSingleRun:
    def test_bulk_accepted_with_counts(self, pipeline):
        result = pipeline.run_accession("SRR1000001")
        assert result.status is RunStatus.ACCEPTED
        assert result.mapped_fraction > 0.5
        assert result.counts is not None
        assert sum(result.counts.values()) > 0
        assert result.fastq_bytes > 0

    def test_single_cell_rejected_early(self, pipeline):
        result = pipeline.run_accession("SRR1000003")
        assert result.status is RunStatus.REJECTED_EARLY
        assert result.star_result.aborted
        assert result.counts is None
        # aborted before finishing: far fewer reads processed than total
        assert result.star_result.final.reads_processed < 200

    def test_outputs_on_disk(self, pipeline, tmp_path):
        pipeline.run_accession("SRR1000001")
        star_dir = tmp_path / "SRR1000001" / "star"
        assert (star_dir / "Log.progress.out").exists()
        assert (star_dir / "Log.final.out").exists()
        assert (star_dir / "ReadsPerGene.out.tab").exists()
        assert (tmp_path / "SRR1000001" / "SRR1000001" / "SRR1000001.sra").exists()
        assert (tmp_path / "SRR1000001" / "SRR1000001.fastq").exists()

    def test_timing_positive(self, pipeline):
        result = pipeline.run_accession("SRR1000002")
        assert result.timing.prefetch >= 0
        assert result.timing.star > 0
        assert result.timing.total == pytest.approx(
            result.timing.prefetch + result.timing.fasterq_dump + result.timing.star
        )

    def test_no_early_stopping_still_filters_at_end(
        self, repository, aligner_r111, tmp_path
    ):
        """Disabling the optimization must not disable the acceptance bar:
        the single-cell run completes (wasting compute) but is still
        rejected at the final check — exactly the waste §III-B removes."""
        pipeline = TranscriptomicsAtlasPipeline(
            repository, aligner_r111, tmp_path,
            config=PipelineConfig(early_stopping=None),
        )
        result = pipeline.run_accession("SRR1000003")
        assert result.status is RunStatus.REJECTED_FINAL
        assert result.star_result.final.reads_processed == 200

    def test_no_filtering_at_all(self, repository, aligner_r111, tmp_path):
        pipeline = TranscriptomicsAtlasPipeline(
            repository, aligner_r111, tmp_path,
            config=PipelineConfig(early_stopping=None, acceptance_threshold=None),
        )
        result = pipeline.run_accession("SRR1000003")
        assert result.status is RunStatus.ACCEPTED
        assert result.counts is not None


class TestBatchAndNormalize:
    def test_batch_summary(self, pipeline):
        pipeline.run_batch(["SRR1000001", "SRR1000002", "SRR1000003"])
        summary = pipeline.summary()
        assert summary["accepted"] == 2
        assert summary["rejected_early"] == 1

    def test_normalize_over_accepted(self, pipeline):
        pipeline.run_batch(["SRR1000001", "SRR1000002", "SRR1000003"])
        matrix, factors, normalized = pipeline.normalize()
        assert matrix.n_samples == 2  # single-cell excluded
        assert factors.shape == (2,)
        assert (factors > 0).all()
        assert normalized.shape == matrix.counts.shape

    def test_normalize_without_accepted_raises(self, repository, aligner_r111, tmp_path):
        pipeline = TranscriptomicsAtlasPipeline(repository, aligner_r111, tmp_path)
        with pytest.raises(ValueError):
            pipeline.normalize()


class TestRejectedFinal:
    def test_borderline_run_rejected_at_final_check(
        self, repository, aligner_r111, tmp_path
    ):
        """An acceptance bar above the bulk mapping rate, with a monitor
        that never fires mid-run, rejects at the final check."""
        pipeline = TranscriptomicsAtlasPipeline(
            repository, aligner_r111, tmp_path,
            config=PipelineConfig(
                early_stopping=EarlyStoppingPolicy(
                    mapping_threshold=0.999, check_fraction=1.0, min_reads=10**9
                ),
                acceptance_threshold=0.999,
            ),
        )
        result = pipeline.run_accession("SRR1000001")
        assert result.status is RunStatus.REJECTED_FINAL
        assert not result.star_result.aborted
        assert result.counts is None


class TestTrimmingStep:
    def test_trim_stats_recorded(self, repository, aligner_r111, tmp_path):
        from repro.reads.trim import TrimConfig

        pipeline = TranscriptomicsAtlasPipeline(
            repository, aligner_r111, tmp_path,
            config=PipelineConfig(
                early_stopping=EarlyStoppingPolicy(min_reads=20),
                trim=TrimConfig(min_length=20),
            ),
        )
        result = pipeline.run_accession("SRR1000001")
        assert result.trim_stats is not None
        assert result.trim_stats.reads_in == 200
        assert result.status is RunStatus.ACCEPTED

    def test_no_trim_by_default(self, pipeline):
        result = pipeline.run_accession("SRR1000002")
        assert result.trim_stats is None


class TestPairedAccession:
    def test_paired_archive_detected_and_processed(
        self, repository, aligner_r111, simulator, tmp_path
    ):
        from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired

        sample = simulate_paired(
            simulator,
            PairedProfile(
                LibraryType.BULK_POLYA, n_pairs=120, read_length=70,
                insert_mean=250,
            ),
            rng=40,
            read_id_prefix="SRRPE900",
        )
        repo = SraRepository()
        archive = PairedSraArchive(
            "SRRPE900", LibraryType.BULK_POLYA, sample.mate1, sample.mate2
        )
        blob = archive.to_bytes()
        repo._blobs["SRRPE900"] = blob  # deposit paired blob directly

        pipeline = TranscriptomicsAtlasPipeline(
            repo, aligner_r111, tmp_path,
            config=PipelineConfig(early_stopping=EarlyStoppingPolicy(min_reads=20)),
        )
        result = pipeline.run_accession("SRRPE900")
        assert result.paired
        assert result.status is RunStatus.ACCEPTED
        assert result.counts is not None
        assert (tmp_path / "SRRPE900" / "SRRPE900_1.fastq").exists()
        assert (tmp_path / "SRRPE900" / "SRRPE900_2.fastq").exists()
        # fastq_bytes covers both mate files
        total = sum(
            (tmp_path / "SRRPE900" / f"SRRPE900_{i}.fastq").stat().st_size
            for i in (1, 2)
        )
        assert result.fastq_bytes == total

    def test_paired_single_cell_aborted(
        self, aligner_r111, simulator, tmp_path
    ):
        from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired

        sample = simulate_paired(
            simulator,
            PairedProfile(
                LibraryType.SINGLE_CELL_3P, n_pairs=200, read_length=70,
                insert_mean=250,
            ),
            rng=41,
            read_id_prefix="SRRPE901",
        )
        repo = SraRepository()
        repo._blobs["SRRPE901"] = PairedSraArchive(
            "SRRPE901", LibraryType.SINGLE_CELL_3P, sample.mate1, sample.mate2
        ).to_bytes()
        pipeline = TranscriptomicsAtlasPipeline(
            repo, aligner_r111, tmp_path,
            config=PipelineConfig(early_stopping=EarlyStoppingPolicy(min_reads=20)),
        )
        result = pipeline.run_accession("SRRPE901")
        assert result.paired
        assert result.status is RunStatus.REJECTED_EARLY


class TestParallelPipeline:
    ACCESSIONS = ["SRR1000001", "SRR1000002", "SRR1000003"]

    def test_workers_config_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(workers=0)
        with pytest.raises(ValueError):
            PipelineConfig(align_batch_size=0)

    def test_parallel_matches_serial(
        self, repository, aligner_r111, tmp_path
    ):
        serial = TranscriptomicsAtlasPipeline(
            repository,
            aligner_r111,
            tmp_path / "serial",
            config=PipelineConfig(early_stopping=EarlyStoppingPolicy(min_reads=20)),
        )
        serial_results = serial.run_batch(self.ACCESSIONS)

        with TranscriptomicsAtlasPipeline(
            repository,
            aligner_r111,
            tmp_path / "par",
            config=PipelineConfig(
                early_stopping=EarlyStoppingPolicy(min_reads=20), workers=2
            ),
        ) as parallel:
            par_results = parallel.run_batch(
                self.ACCESSIONS, BatchOptions(max_parallel=2)
            )

        assert [r.accession for r in par_results] == self.ACCESSIONS
        assert parallel.results == par_results  # submission order kept
        for s, p in zip(serial_results, par_results):
            assert p.status is s.status
            assert p.counts == s.counts
            assert p.star_result.outcomes == s.star_result.outcomes
            assert (
                p.star_result.final.mapped_unique
                == s.star_result.final.mapped_unique
            )

    def test_engine_shared_across_accessions_and_closed(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = TranscriptomicsAtlasPipeline(
            repository,
            aligner_r111,
            tmp_path,
            config=PipelineConfig(
                early_stopping=EarlyStoppingPolicy(min_reads=20), workers=2
            ),
        )
        pipeline.run_accession("SRR1000001")
        engine = pipeline._engine
        assert engine is not None and engine.shared_bytes > 0
        pipeline.run_accession("SRR1000002")
        assert pipeline._engine is engine  # one publication per pipeline
        pipeline.close()
        assert pipeline._engine is None
        assert engine.shared_bytes == 0
        pipeline.close()  # idempotent
