"""Reads stay batches from the FASTQ framer to the shard.

A ``run_batch`` builds no :class:`FastqRecord` on the serial, engine,
FaaS or streamed path, for either library layout: framed blocks become
:class:`~repro.reads.fastq.ReadBatch` arrays, and every backend cuts its
shards from them.  (Trimming builds records by design: the trimmer works
read by read.)
"""

import pytest

from repro.align.star import StarAligner, StarParameters
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.reads.fastq import FastqRecord
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired
from repro.reads.sra import SraArchive, SraRepository

SE = "SRRFORM01"
PE = "SRRFORM02"


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    sample = simulator.simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
        rng=61,
        read_id_prefix=SE,
    )
    repo.deposit(SraArchive(SE, LibraryType.BULK_POLYA, sample.records))
    paired = simulate_paired(
        simulator,
        PairedProfile(LibraryType.BULK_POLYA, n_pairs=80, read_length=60),
        rng=62,
    )
    repo._blobs[PE] = PairedSraArchive(
        PE, LibraryType.BULK_POLYA, paired.mate1, paired.mate2
    ).to_bytes()
    return repo


@pytest.fixture
def records_built(monkeypatch):
    """Every FastqRecord built while the test runs, by either constructor."""
    built = []
    init = FastqRecord.__init__
    framed = FastqRecord._framed.__func__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("read_id"))
        init(self, *args, **kwargs)

    def counting_framed(cls, read_id, sequence, qualities):
        built.append(read_id)
        return framed(cls, read_id, sequence, qualities)

    monkeypatch.setattr(FastqRecord, "__init__", counting_init)
    monkeypatch.setattr(FastqRecord, "_framed", classmethod(counting_framed))
    return built


@pytest.mark.parametrize(
    "workers, options",
    [
        (1, BatchOptions()),
        (2, BatchOptions()),
        (1, BatchOptions(backend="faas")),
        (1, BatchOptions(streaming=True, chunk_reads=32)),
        (2, BatchOptions(streaming=True, chunk_reads=32)),
    ],
    ids=["serial", "engine", "faas", "streamed", "streamed-engine"],
)
def test_run_batch_builds_no_records(
    repository, index_r111, tmp_path, records_built, workers, options
):
    aligner = StarAligner(
        index_r111, StarParameters(progress_every=50, align_batch_size=64)
    )
    pipeline = TranscriptomicsAtlasPipeline(
        repository,
        aligner,
        tmp_path,
        config=PipelineConfig(workers=workers, early_stopping=None),
    )
    with pipeline:
        results = pipeline.run_batch([SE, PE], options)
    assert [r.star_result.final.reads_processed for r in results] == [200, 80]
    assert [r.paired for r in results] == [False, True]
    assert records_built == []
