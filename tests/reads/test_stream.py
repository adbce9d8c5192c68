"""Streaming reads layer: chunk API, incremental SRA parsing, throttling."""

import numpy as np
import pytest

from repro.reads.fastq import FastqRecord, ReadBatch, cut_batches, iter_fastq
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired
from repro.reads.sra import SraArchive, SraRepository, fasterq_dump, prefetch
from repro.reads.stream import SraStream, ThrottledRepository

SE = "SRRSTREAM1"
PE = "SRRSTREAM2"


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    sample = simulator.simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=150, read_length=80),
        rng=11,
        read_id_prefix=SE,
    )
    repo.deposit(SraArchive(SE, LibraryType.BULK_POLYA, sample.records))
    paired = simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA,
            n_pairs=60,
            read_length=60,
            insert_mean=200,
            insert_sd=25,
        ),
        rng=12,
    )
    repo._blobs[PE] = PairedSraArchive(
        PE, LibraryType.BULK_POLYA, paired.mate1, paired.mate2
    ).to_bytes()
    return repo


def records_equal(a, b) -> bool:
    return (
        a.read_id == b.read_id
        and np.array_equal(a.sequence, b.sequence)
        and np.array_equal(a.qualities, b.qualities)
    )


def numbered(n: int) -> ReadBatch:
    return ReadBatch.of(
        FastqRecord.from_strings(str(i), "ACGT", "IIII") for i in range(n)
    )


class TestIterChunks:
    """The one cutter re-chunks a feed of batches (stream chunks, shards)."""

    def test_rechunks_with_short_tail(self):
        reads = numbered(10)
        chunks = list(cut_batches([reads[:3], reads[3:]], 4))
        assert [c.read_ids for c in chunks] == [
            ["0", "1", "2", "3"], ["4", "5", "6", "7"], ["8", "9"]
        ]

    def test_empty_iterable(self):
        assert list(cut_batches([], 4)) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(cut_batches([numbered(1)], 0))


class TestSraStreamSingleEnd:
    def test_header_metadata(self, repository):
        stream = SraStream(repository, SE).open()
        assert not stream.paired
        assert stream.n_reads == 150
        assert stream.library is LibraryType.BULK_POLYA
        assert stream.total_bytes == repository.archive_bytes(SE)

    def test_records_match_fasterq_dump(self, repository, tmp_path):
        """Streamed decode ≡ prefetch → fasterq-dump, both the reads the
        dump hands over and the file read back with iter_fastq."""
        sra = prefetch(repository, SE, tmp_path)
        fastq, dumped = fasterq_dump(sra, tmp_path)
        sequential = [r for batch in iter_fastq(fastq) for r in batch]
        stream = SraStream(repository, SE, chunk_bytes=512, chunk_reads=16)
        streamed = [r for chunk in stream.chunks() for r in chunk]
        assert len(streamed) == len(sequential) == len(dumped)
        assert all(records_equal(a, b) for a, b in zip(streamed, sequential))
        assert all(records_equal(a, b) for a, b in zip(streamed, dumped))

    def test_fastq_bytes_match_on_disk_size(self, repository, tmp_path):
        sra = prefetch(repository, SE, tmp_path)
        fastq, _ = fasterq_dump(sra, tmp_path)
        stream = SraStream(repository, SE, chunk_bytes=777)
        for _ in stream.chunks():
            pass
        assert stream.fastq_bytes == fastq.stat().st_size
        assert stream.bytes_downloaded == stream.total_bytes
        assert stream.bytes_saved == 0

    def test_chunk_sizes_respected(self, repository):
        stream = SraStream(repository, SE, chunk_reads=40)
        sizes = [len(chunk) for chunk in stream.chunks()]
        assert sizes == [40, 40, 40, 30]

    def test_cancel_saves_bytes(self, repository):
        stream = SraStream(repository, SE, chunk_bytes=256, chunk_reads=16)
        feed = stream.chunks()
        next(feed)  # consume one chunk, then stop
        stream.cancel()
        remaining = list(feed)
        assert remaining == [] or all(len(c) for c in remaining)
        assert stream.bytes_saved > 0
        assert stream.bytes_downloaded < stream.total_bytes
        assert stream.cancelled

    def test_validation_errors(self, repository):
        with pytest.raises(ValueError):
            SraStream(repository, SE, chunk_bytes=0)
        with pytest.raises(ValueError):
            SraStream(repository, SE, chunk_reads=0)

    def test_bad_magic_rejected(self):
        repo = SraRepository()
        repo._blobs["BAD"] = b"NOPE" + b"\x00" * 64
        with pytest.raises(ValueError, match="bad magic"):
            SraStream(repo, "BAD").open()

    def test_truncated_archive_rejected(self, repository):
        blob = repository.fetch_bytes(SE)
        repo = SraRepository()
        repo._blobs["TRUNC"] = blob[: len(blob) // 2]
        stream = SraStream(repo, "TRUNC").open()
        with pytest.raises(ValueError):
            for _ in stream.chunks():
                pass

    def test_missing_accession_raises(self, repository):
        with pytest.raises(KeyError):
            SraStream(repository, "SRRNOPE").open()


class TestSraStreamPaired:
    def test_mate_chunks_match_archive(self, repository):
        archive = PairedSraArchive.from_bytes(repository.fetch_bytes(PE))
        stream = SraStream(repository, PE, chunk_bytes=512, chunk_reads=16)
        mate1, mate2 = [], []
        for chunk1, chunk2 in stream.chunks():
            mate1.extend(chunk1)
            mate2.extend(chunk2)
        assert stream.paired
        assert stream.n_reads == 60
        assert len(mate1) == len(mate2) == 60
        assert all(records_equal(a, b) for a, b in zip(mate1, archive.mate1))
        assert all(records_equal(a, b) for a, b in zip(mate2, archive.mate2))

    def test_chunks_keep_mates_in_lockstep(self, repository):
        stream = SraStream(repository, PE, chunk_reads=25)
        for chunk1, chunk2 in stream.chunks():
            assert len(chunk1) == len(chunk2)
            for r1, r2 in zip(chunk1, chunk2):
                assert r1.read_id[:-2] == r2.read_id[:-2]


class TestThrottledRepository:
    def test_transfer_time_charged_per_chunk(self, repository):
        sleeps = []
        throttled = ThrottledRepository(
            repository,
            bandwidth_bytes_per_s=1e6,
            latency_seconds=0.5,
            sleep=sleeps.append,
        )
        chunks = list(throttled.fetch_chunks(SE, 1024))
        total = sum(len(c) for c in chunks)
        assert total == repository.archive_bytes(SE)
        assert sleeps[0] == 0.5  # latency up front
        assert sum(sleeps[1:]) == pytest.approx(total / 1e6)

    def test_fetch_bytes_charges_whole_transfer(self, repository):
        sleeps = []
        throttled = ThrottledRepository(
            repository, bandwidth_bytes_per_s=1e6, sleep=sleeps.append
        )
        blob = throttled.fetch_bytes(SE)
        assert sleeps == [pytest.approx(len(blob) / 1e6)]

    def test_metadata_free(self, repository):
        sleeps = []
        throttled = ThrottledRepository(
            repository, bandwidth_bytes_per_s=1.0, sleep=sleeps.append
        )
        assert throttled.archive_bytes(SE) == repository.archive_bytes(SE)
        assert SE in throttled
        assert sleeps == []

    def test_validation(self, repository):
        with pytest.raises(ValueError):
            ThrottledRepository(repository, bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            ThrottledRepository(repository, latency_seconds=-1)
