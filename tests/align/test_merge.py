"""The shared merge loop's invariants, held once for every backend.

:mod:`repro.align.merge` owns the rules that used to be copied into
each backend's run loop.  These tests pin the two that the early
stopping path depends on: a shard the monitor cut short is never
checkpointed (so a drained accession resumes from whole shards only),
and the serial driver reads no more than one shard past the read where
the monitor stopped it (so a streamed download can be cancelled early).
"""

from dataclasses import replace

import pytest

from repro.align.backend import (
    EngineBackend,
    FaasAlignerBackend,
    ReadChunkStream,
    SerialAlignerBackend,
)
from repro.align.engine import ParallelStarAligner
from repro.align.star import StarAligner, StarParameters
from repro.core.journal import RunJournal
from repro.core.replication import ShardCheckpointer
from repro.reads.fastq import ReadBatch

FINGERPRINT = "fp-merge"
ACCESSION = "SRRMERGE1"
SHARD = 64


def stop_after(n_reads):
    """A monitor that stops the run at the first progress record with
    ``n_reads`` reads processed."""
    return lambda record: record.reads_processed < n_reads


@pytest.fixture(scope="module")
def engine(aligner_r111):
    eng = ParallelStarAligner(
        aligner_r111.index, aligner_r111.parameters, workers=2, batch_size=SHARD
    ).start()
    yield eng
    eng.close()


@pytest.fixture
def build(aligner_r111, engine):
    def build(name):
        if name == "engine":
            return EngineBackend(engine)
        return FaasAlignerBackend(aligner_r111, batch_size=SHARD)

    return build


def without_clock(record):
    return replace(record, elapsed_seconds=0.0)


def journaled_spans(journal):
    """The shard spans ``journal`` holds for the accession, in append order."""
    return list(journal.replay().align_shards.get(ACCESSION, {}))


def align_checkpointed(backend, records, journal, *, monitor=None, cached=None):
    """Run ``backend`` with a journal checkpointer; return the result,
    the checkpointer and the spans it recorded, in order."""
    ckpt = ShardCheckpointer(journal, ACCESSION, FINGERPRINT, cached=cached)
    before = len(journaled_spans(journal))
    result = backend.align(
        ReadChunkStream.of(records), monitor=monitor, checkpoint=ckpt
    )
    return result, ckpt, journaled_spans(journal)[before:]


@pytest.mark.parametrize("backend_name", ("engine", "faas"))
class TestCutShortShards:
    """250 reads in 64-read shards — (0,64) (64,128) (128,192) (192,250)
    — with a progress record every 50 reads."""

    def test_only_whole_shards_are_checkpointed(
        self, backend_name, build, aligner_r111, bulk_sample, tmp_path
    ):
        records = bulk_sample.records
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            # the stop at read 150 lands inside shard (128,192)
            cut, _, recorded = align_checkpointed(
                build(backend_name), records, journal, monitor=stop_after(150)
            )
        assert cut.aborted
        assert len(cut.outcomes) == 150
        assert recorded == [(0, 64), (64, 128)]

        # the drained accession resumes from those two shards alone
        cached = RunJournal(path).replay().align_shards[ACCESSION]
        assert sorted(cached) == recorded
        with RunJournal(path) as journal:
            got, resumed, realigned = align_checkpointed(
                build(backend_name), records, journal, cached=cached
            )
        assert resumed.hits == 2
        assert realigned == [(128, 192), (192, 250)]

        want = SerialAlignerBackend(aligner_r111).align(ReadChunkStream.of(records))
        assert not got.aborted
        assert got.outcomes == want.outcomes
        assert got.gene_counts == want.gene_counts
        assert [without_clock(p) for p in got.progress] == [
            without_clock(p) for p in want.progress
        ]
        assert without_clock(got.final) == without_clock(want.final)

    def test_shard_ending_on_the_stop_is_not_checkpointed(
        self, backend_name, build, bulk_sample, tmp_path
    ):
        """The stop lands on the last read of shard (192,250): the shard
        merges whole, but the run has stopped, so it is not recorded."""
        records = bulk_sample.records
        with RunJournal(tmp_path / "run.journal") as journal:
            cut, _, recorded = align_checkpointed(
                build(backend_name), records, journal, monitor=stop_after(250)
            )
        assert cut.aborted
        assert len(cut.outcomes) == len(records) == 250
        assert recorded == [(0, 64), (64, 128), (128, 192)]


class TestSerialReadAhead:
    @pytest.mark.parametrize("batch_align", [True, False])
    def test_pulls_at_most_one_shard_past_the_stop(
        self, index_r111, bulk_sample, batch_align
    ):
        parameters = StarParameters(
            progress_every=25, align_batch_size=40, batch_align=batch_align
        )
        aligner = StarAligner(index_r111, parameters)
        records = bulk_sample.records
        pulled = []

        def feed():
            reads = ReadBatch.of(records)
            for i in range(len(reads)):
                pulled.append(i)
                yield reads[i : i + 1]

        result = aligner.run(
            feed(), reads_total=len(records), monitor=stop_after(75)
        )
        assert result.aborted
        assert len(result.outcomes) == 75
        shard = parameters.align_batch_size if batch_align else 1
        assert 75 <= len(pulled) < 75 + shard
        # the lazy feed and the list path stop on the same read
        listed = aligner.run(records, monitor=stop_after(75))
        assert result.outcomes == listed.outcomes
        assert result.gene_counts == listed.gene_counts
