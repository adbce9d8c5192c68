"""BatchOptions consolidation: validation, no deprecation warnings, drain deadline."""

import time

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository

ACCESSIONS = ["SRROPT001", "SRROPT002"]


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(ACCESSIONS):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=150, read_length=80),
            rng=700 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    return repo


def make_pipeline(repository, aligner, workspace, **config):
    return TranscriptomicsAtlasPipeline(
        repository,
        aligner,
        workspace,
        config=PipelineConfig(
            early_stopping=EarlyStoppingPolicy(min_reads=20),
            write_outputs=False,
            **config,
        ),
    )


class TestValidation:
    def test_defaults_are_valid(self):
        options = BatchOptions()
        assert options.max_parallel == 1
        assert not options.streaming

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_parallel": 0},
            {"prefetch_depth": -1},
            {"chunk_reads": 0},
            {"buffer_chunks": 0},
            {"download_chunk_bytes": 0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            BatchOptions(**kwargs)

    def test_shard_checkpoints_require_a_journal(self, tmp_path):
        with pytest.raises(ValueError, match="journal"):
            BatchOptions(shard_checkpoints=True)
        BatchOptions(
            shard_checkpoints=True, journal=tmp_path / "j.jsonl"
        )  # fine

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BatchOptions().max_parallel = 2


class TestDeprecatedKwargs:
    def test_options_alone_does_not_warn(
        self, repository, aligner_r111, tmp_path, recwarn
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path)
        pipeline.run_batch(ACCESSIONS[:1], BatchOptions())
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]


class TestPerBatchOverrides:
    def test_config_deadline_feeds_request_drain(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(
            repository, aligner_r111, tmp_path, drain_deadline=123.0
        )
        pipeline.request_drain()
        assert pipeline._drain_deadline_at > time.monotonic() + 60
        assert not pipeline._drain_expired()

    def test_explicit_deadline_still_wins(
        self, repository, aligner_r111, tmp_path
    ):
        """``request_drain(deadline=)`` beats ``PipelineConfig.drain_deadline``."""
        pipeline = make_pipeline(
            repository, aligner_r111, tmp_path, drain_deadline=500.0
        )
        pipeline.request_drain(deadline=0.0)
        assert pipeline._drain_expired()
