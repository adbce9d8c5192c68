"""FASTQ record and I/O tests, with a property-based round-trip."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genome.alphabet import encode
from repro.reads.fastq import (
    FastqRecord,
    MAX_PHRED,
    ReadBatch,
    fastq_byte_size,
    iter_fastq,
    read_fastq,
    write_fastq,
)


def record(read_id="r1", seq="ACGT", quals=(30, 31, 32, 33)) -> FastqRecord:
    return FastqRecord(read_id, encode(seq), np.array(quals, dtype=np.uint8))


record_strategy = st.builds(
    lambda rid, pairs: FastqRecord(
        rid,
        encode("".join(p[0] for p in pairs)),
        np.array([p[1] for p in pairs], dtype=np.uint8),
    ),
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20
    ),
    st.lists(
        st.tuples(
            st.sampled_from("ACGTN"), st.integers(min_value=0, max_value=MAX_PHRED)
        ),
        min_size=1,
        max_size=60,
    ),
)


class TestRecord:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FastqRecord("r", encode("ACG"), np.array([30], dtype=np.uint8))

    def test_quality_string_phred33(self):
        r = record(quals=(0, 40, 10, 33))
        assert r.quality_str == "!I+B"

    def test_from_strings_roundtrip(self):
        r = record()
        back = FastqRecord.from_strings(r.read_id, r.sequence_str, r.quality_str)
        assert back.sequence_str == r.sequence_str
        assert np.array_equal(back.qualities, r.qualities)

    def test_from_strings_rejects_bad_quality(self):
        with pytest.raises(ValueError):
            FastqRecord.from_strings("r", "AC", "A\x1f")

    def test_mean_quality(self):
        assert record(quals=(10, 20, 30, 40)).mean_quality == pytest.approx(25.0)

    def test_mean_quality_empty(self):
        r = FastqRecord("r", encode(""), np.array([], dtype=np.uint8))
        assert r.mean_quality == 0.0


class TestFileIO:
    def test_roundtrip(self, tmp_path):
        records = [record("a", "ACGT"), record("b", "GGNN")]
        path = tmp_path / "x.fastq"
        assert write_fastq(records, path) == 2
        back = read_fastq(path)
        assert [r.read_id for r in back] == ["a", "b"]
        assert back[1].sequence_str == "GGNN"

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "x.fastq.gz"
        write_fastq([record()], path)
        assert read_fastq(path)[0].sequence_str == "ACGT"

    def test_streaming_matches_eager(self, tmp_path):
        records = [record(f"r{i}", "ACGT") for i in range(10)]
        path = tmp_path / "s.fastq"
        write_fastq(records, path)
        streamed = [r.read_id for batch in iter_fastq(path) for r in batch]
        assert streamed == [r.read_id for r in records]

    def test_read_id_truncated_at_whitespace(self, tmp_path):
        path = tmp_path / "w.fastq"
        path.write_text("@read1 extra info\nACGT\n+\nIIII\n")
        assert read_fastq(path)[0].read_id == "read1"

    @pytest.mark.parametrize(
        "content",
        [
            "ACGT\n+\nIIII\n",  # missing @ header
            "@r\nACGT\nIIII\nIIII\n",  # missing + separator
            "@r\nACGT\n+\nIII\n",  # length mismatch
        ],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.fastq"
        path.write_text(content)
        with pytest.raises(ValueError):
            read_fastq(path)

    @given(st.lists(record_strategy, min_size=1, max_size=10))
    def test_property_roundtrip(self, records):
        import io

        buf = io.StringIO()
        for r in records:
            buf.write(f"@{r.read_id}\n{r.sequence_str}\n+\n{r.quality_str}\n")
        text = buf.getvalue()
        lines = text.splitlines()
        parsed = [
            FastqRecord.from_strings(lines[i][1:].split()[0], lines[i + 1], lines[i + 3])
            for i in range(0, len(lines), 4)
        ]
        for original, back in zip(records, parsed):
            assert back.read_id == original.read_id.split()[0]
            assert back.sequence_str == original.sequence_str
            assert np.array_equal(back.qualities, original.qualities)


class TestByteSize:
    def test_matches_written_file(self, tmp_path):
        records = [record("abc", "ACGTACGT", (30,) * 8), record("z", "AC", (1, 2))]
        path = tmp_path / "sz.fastq"
        write_fastq(records, path)
        assert fastq_byte_size(records) == path.stat().st_size


def same_reads(got, want) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(
        a.read_id == b.read_id
        and np.array_equal(a.sequence, b.sequence)
        and np.array_equal(a.qualities, b.qualities)
        for a, b in zip(got, want)
    )


class TestReadBatch:
    records = [
        record("a", "ACGT", (30, 31, 32, 33)),
        record("bb", "", ()),
        record("c c", "NNA", (2, 3, 4)),
        record("d", "T", (40,)),
    ]

    @given(st.lists(record_strategy, max_size=12))
    def test_round_trip_against_the_records(self, records):
        batch = ReadBatch.of(records)
        assert len(batch) == len(records)
        assert same_reads(batch, records)
        assert same_reads([batch[i] for i in range(len(records))], records)
        assert batch.lengths.tolist() == [r.length for r in records]

    def test_of_a_batch_is_the_batch(self):
        batch = ReadBatch.of(self.records)
        assert ReadBatch.of(batch) is batch

    def test_slices_are_views_with_rebased_offsets(self):
        batch = ReadBatch.of(self.records)
        part = batch[1:4]
        assert part.offsets.tolist() == [0, 0, 3, 4]
        assert np.shares_memory(part.sequence, batch.sequence)
        assert np.shares_memory(part.qualities, batch.qualities)
        assert same_reads(part, self.records[1:4])
        assert same_reads(part[1:], self.records[2:4])
        assert same_reads(batch[::2], self.records[::2])
        assert same_reads(batch[-2:], self.records[-2:])
        assert len(batch[3:1]) == 0
        # a record is a view too
        assert np.shares_memory(batch[-1].sequence, batch.sequence)
        with pytest.raises(IndexError):
            batch[4]

    @given(
        st.lists(record_strategy, max_size=12),
        st.integers(-4, 4).filter(bool),
        st.integers(-14, 14) | st.none(),
        st.integers(-14, 14) | st.none(),
    )
    def test_strided_slices_gather_their_reads(self, records, step, start, stop):
        """Mates of an interleaved batch (``[0::2]``, ``[1::2]``), any
        other stride, and reversed order; zero-length reads included."""
        batch = ReadBatch.of(records)
        part = batch[start:stop:step]
        assert same_reads(part, records[start:stop:step])
        assert part.offsets[0] == 0 and part.offsets[-1] == part.sequence.size

    def test_empty_batch(self):
        batch = ReadBatch.of([])
        assert len(batch) == 0
        assert list(batch) == []
        assert batch.offsets.tolist() == [0]
        assert batch.sequence.dtype == np.uint8 and batch.sequence.size == 0
        assert batch.nbytes == batch.offsets.nbytes
        assert len(ReadBatch.of(self.records)[2:2]) == 0

    def test_zero_length_reads_keep_their_place(self):
        batch = ReadBatch.of([record("e1", "", ()), *self.records, record("e2", "", ())])
        assert batch.lengths.tolist() == [0, 4, 0, 3, 1, 0]
        assert [r.read_id for r in batch] == ["e1", "a", "bb", "c c", "d", "e2"]
        assert batch[2].length == 0

    def test_pickle_round_trip_of_a_slice(self):
        batch = ReadBatch.of(self.records)
        part = batch[2:]
        back = pickle.loads(pickle.dumps(part))
        assert same_reads(back, self.records[2:])
        assert back.offsets.tolist() == [0, 3, 4]
        # only the slice's own bases travel, not its parent's
        assert back.sequence.size == 4

    def test_nbytes_is_exact(self):
        batch = ReadBatch.of(self.records + [record("é", "A", (9,))])
        ids = len("abbc cdé".encode())
        assert batch.nbytes == ids + 2 * 9 + 8 * 6

    def test_inconsistent_arrays_rejected(self):
        seq = encode("ACGT")
        quals = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            ReadBatch(["a"], seq, quals[:3], [0, 4])
        with pytest.raises(ValueError):
            ReadBatch(["a", "b"], seq, quals, [0, 4])
        with pytest.raises(ValueError):
            ReadBatch(["a", "b", "c"], seq, quals, [0, 3, 2, 4])
