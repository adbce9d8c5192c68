"""The FASTQ codec on every entry point, against the ``from_strings`` oracle.

Random records carry ids with spaces and lowercase/IUPAC bases.  Each
entry point — FASTQ files (plain and gzipped), both archive parsers,
``fasterq-dump`` and the chunked stream — must give exactly the records
``FastqRecord.from_strings`` builds from the same text fields, whatever
the block and chunk sizes.
"""

import contextlib
import gzip
import json
import signal
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reads.fastq as fastq_module
import repro.reads.sra as sra_module
from repro.reads.fastq import (
    FastqFramer,
    FastqRecord,
    MAX_PHRED,
    ReadBatch,
    iter_fastq,
    read_fastq,
    write_fastq,
)
from repro.reads.paired import PairedSraArchive, fasterq_dump_paired
from repro.reads.sra import PayloadDecoder, SraArchive, SraRepository, fasterq_dump
from repro.reads.stream import SraStream

# ids: printable ASCII with inner spaces; at least one visible character
id_chars = st.characters(min_codepoint=32, max_codepoint=126)
read_ids = st.text(alphabet=id_chars, min_size=1, max_size=16).filter(str.strip)
bases = st.sampled_from("ACGTNacgtnRYKMSWBDHV.-")


@st.composite
def fields(draw):
    """(id, sequence, quality) text fields of one record."""
    length = draw(st.integers(min_value=0, max_value=40))
    seq = "".join(draw(st.lists(bases, min_size=length, max_size=length)))
    quals = draw(
        st.lists(
            st.integers(min_value=0, max_value=MAX_PHRED),
            min_size=length,
            max_size=length,
        )
    )
    return draw(read_ids), seq, "".join(chr(q + 33) for q in quals)


records_fields = st.lists(fields(), min_size=1, max_size=25)
# headers whose words any byte ``str.split()`` splits on separates, with
# whitespace before the first word too; at least one word
spaced_ids = st.text(
    alphabet=st.sampled_from([*"ab1._=", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]),
    min_size=1,
    max_size=20,
).filter(lambda rid: rid.split())
block_sizes = st.sampled_from([1, 7, 64, 333, 4096])


def fastq_text(items, line_end="\n", plus="") -> bytes:
    return "".join(
        f"@{rid}{line_end}{seq}{line_end}+{plus}{line_end}{qual}{line_end}"
        for rid, seq, qual in items
    ).encode("ascii")


def reference(items, *, whole_ids: bool) -> list[FastqRecord]:
    return [
        FastqRecord.from_strings(rid if whole_ids else rid.split()[0], seq, qual)
        for rid, seq, qual in items
    ]


def archive_blob(magic: bytes, header: dict, text: bytes) -> bytes:
    blob = json.dumps(header).encode("ascii")
    return magic + struct.pack("<HI", 1, len(blob)) + blob + zlib.compress(text, 6)


def single_blob(items, line_end="\n", plus="") -> bytes:
    header = {"accession": "SRRC1", "library": "bulk_polya", "n_reads": len(items)}
    return archive_blob(b"SRAR", header, fastq_text(items, line_end, plus))


def paired_blob(items, line_end="\n", plus="") -> bytes:
    header = {"accession": "SRRC2", "library": "bulk_polya", "n_pairs": len(items) // 2}
    return archive_blob(b"SRAP", header, fastq_text(items, line_end, plus))


def same_batch(a: ReadBatch, b: ReadBatch) -> bool:
    """Equal ids, base codes, Phred scores and offsets."""
    return a.read_ids == b.read_ids and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("sequence", "qualities", "offsets")
    )


def same(a: list[FastqRecord], b: list[FastqRecord]) -> bool:
    return len(a) == len(b) and all(
        x.read_id == y.read_id
        and np.array_equal(x.sequence, y.sequence)
        and np.array_equal(x.qualities, y.qualities)
        for x, y in zip(a, b)
    )


@contextlib.contextmanager
def within(seconds: int):
    """Fail instead of hanging when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def small_blocks(size: int):
    """Frame and inflate ``size`` bytes at a time inside the context."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastq_module, "BLOCK_BYTES", size)
        mp.setattr(sra_module, "BLOCK_BYTES", size)
        yield


class TestFramer:
    @given(records_fields, st.lists(st.integers(0, 10_000), max_size=8), st.booleans())
    def test_any_split_points(self, items, cuts, crlf):
        text = fastq_text(items, "\r\n" if crlf else "\n")
        bounds = sorted({0, len(text), *(c % (len(text) + 1) for c in cuts)})
        framer = FastqFramer("t")
        blocks = []
        for a, b in zip(bounds, bounds[1:]):
            blocks.extend(framer.feed(text[a:b]))
        blocks.extend(framer.finish())
        got = [r for block in blocks for r in block.batch()]
        assert same(got, reference(items, whole_ids=False))

    def test_missing_final_line_feed_accepted(self):
        framer = FastqFramer("t")
        blocks = [*framer.feed(b"@r1\nACGT\n+\nIIII"), *framer.finish()]
        (record,) = [r for b in blocks for r in b.batch()]
        assert record.read_id == "r1" and record.quality_str == "IIII"

    @pytest.mark.parametrize(
        "text, problem",
        [
            (b"r1\nACGT\n+\nIIII\n", "'@' header"),
            (b"@r1\nACGT\nIIII\nIIII\n", "separator"),
            (b"@r1\nACGT\n+\nIII\n", "length"),
            (b"@r1\nACGT\n+\nII I\n", "Phred"),
            (b"@r1\nAC\xc3\x89T\n+\nIIIII\n", "ASCII"),
            (b"@ \nACGT\n+\nIIII\n", "empty read id"),
            (b"@r1\nACGT\n+\nIIII\n@r2\nAC\n", "truncated"),
        ],
    )
    def test_malformed_rejected(self, text, problem):
        framer = FastqFramer("t")
        with pytest.raises(ValueError, match=problem):
            for block in [*framer.feed(text), *framer.finish()]:
                block.batch()


class TestFileEntryPoint:
    @settings(max_examples=40, deadline=None)
    @given(records_fields, block_sizes, st.booleans())
    def test_iter_fastq_matches_oracle(self, tmp_path_factory, items, size, gz):
        path = tmp_path_factory.mktemp("fq") / ("r.fastq.gz" if gz else "r.fastq")
        text = fastq_text(items)
        if gz:
            with gzip.open(path, "wb") as fh:
                fh.write(text)
        else:
            path.write_bytes(text)
        with small_blocks(size):
            got = [r for batch in iter_fastq(path) for r in batch]
        assert same(got, reference(items, whole_ids=False))

    def test_iter_fastq_is_lazy(self, tmp_path):
        """The first record comes out before the reader reaches the end
        of a file several blocks long (whose last record is malformed)."""
        n = 4 * fastq_module.BLOCK_BYTES // 200  # records of 208+ bytes
        good = fastq_text([(f"r{i}", "ACGT" * 25, "I" * 100) for i in range(n)])
        assert len(good) > 3 * fastq_module.BLOCK_BYTES
        path = tmp_path / "long.fastq"
        path.write_bytes(good + b"@bad\nACGT\n+\nIII\n")
        reader = iter_fastq(path)
        assert next(reader).read_ids[0] == "r0"
        with pytest.raises(ValueError, match="length"):
            list(reader)


class TestArchiveEntryPoints:
    @settings(max_examples=40, deadline=None)
    @given(records_fields, block_sizes)
    def test_from_bytes_keeps_whole_ids(self, items, size):
        with small_blocks(size):
            archive = SraArchive.from_bytes(single_blob(items))
        assert same(archive.records, reference(items, whole_ids=True))

    @settings(max_examples=40, deadline=None)
    @given(records_fields.filter(lambda items: len(items) % 2 == 0), block_sizes)
    def test_paired_from_bytes_splits_mates(self, items, size):
        with small_blocks(size):
            archive = PairedSraArchive.from_bytes(paired_blob(items))
        expected = reference(items, whole_ids=True)
        assert same(archive.mate1, expected[0::2])
        assert same(archive.mate2, expected[1::2])

    @settings(max_examples=40, deadline=None)
    @given(records_fields, block_sizes, st.booleans(), st.sampled_from(["", " c"]))
    def test_fasterq_dump_is_the_writer(
        self, tmp_path_factory, items, size, crlf, plus
    ):
        """The dump writes what ``write_fastq`` renders and returns what
        ``read_fastq`` reads back: CRLFs, text after '+', IUPAC bases and
        id comments included."""
        tmp = tmp_path_factory.mktemp("dump")
        sra = tmp / "SRRC1.sra"
        sra.write_bytes(single_blob(items, "\r\n" if crlf else "\n", plus))
        with small_blocks(size):
            dumped, reads = fasterq_dump(sra, tmp / "out")
        expected = tmp / "expected.fastq"
        write_fastq(reference(items, whole_ids=True), expected)
        assert dumped.read_bytes() == expected.read_bytes()
        assert same_batch(reads, read_fastq(dumped))

    @settings(max_examples=25, deadline=None)
    @given(
        records_fields.filter(lambda items: len(items) % 2 == 0),
        block_sizes,
        st.booleans(),
        st.sampled_from(["", " c"]),
    )
    def test_fasterq_dump_paired_splits_by_parity(
        self, tmp_path_factory, items, size, crlf, plus
    ):
        tmp = tmp_path_factory.mktemp("dump")
        sra = tmp / "SRRC2.sra"
        sra.write_bytes(paired_blob(items, "\r\n" if crlf else "\n", plus))
        with small_blocks(size):
            paths, mates = fasterq_dump_paired(sra, tmp / "out")
        expected = reference(items, whole_ids=True)
        for path, reads, records in zip(paths, mates, (expected[0::2], expected[1::2])):
            write_fastq(records, tmp / "expected.fastq")
            assert path.read_bytes() == (tmp / "expected.fastq").read_bytes()
            assert same_batch(reads, read_fastq(path))

    def test_dumped_reads_span_real_blocks(self, tmp_path):
        """At the real block size too, both layouts, over several blocks."""
        items = [
            (f"{rid} len=100", seq.lower() if i % 3 else seq, qual)
            for i, (rid, seq, qual) in enumerate(items_over(2))
        ]
        items = items[: len(items) // 2 * 2]
        (tmp_path / "SRRC1.sra").write_bytes(single_blob(items, "\r\n", "c"))
        (tmp_path / "SRRC2.sra").write_bytes(paired_blob(items, "\r\n", "c"))
        path, reads = fasterq_dump(tmp_path / "SRRC1.sra", tmp_path / "out")
        assert path.stat().st_size > 2 * fastq_module.BLOCK_BYTES
        assert same_batch(reads, read_fastq(path))
        assert reads.read_ids[1] == "r1"
        paths, mates = fasterq_dump_paired(tmp_path / "SRRC2.sra", tmp_path / "out")
        for path, reads in zip(paths, mates):
            assert same_batch(reads, read_fastq(path))
        assert len(mates[0]) == len(mates[1]) == len(items) // 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(spaced_ids, min_size=1, max_size=30), block_sizes, st.booleans())
    def test_dumped_ids_cut_at_any_whitespace(
        self, tmp_path_factory, ids, size, paired
    ):
        """Tabs, vertical tabs, form feeds and the separator controls cut
        an id as a space does, wherever they fall in the header."""
        ids = ids[: len(ids) // 2 * 2] if paired else ids
        items = [(rid, "ACGT"[: i % 5], "IIII"[: i % 5]) for i, rid in enumerate(ids)]
        tmp = tmp_path_factory.mktemp("dump")
        sra = tmp / "SRRC1.sra"
        sra.write_bytes((paired_blob if paired else single_blob)(items))
        with small_blocks(size):
            if paired:
                paths, mates = fasterq_dump_paired(sra, tmp / "out")
            else:
                path, reads = fasterq_dump(sra, tmp / "out")
                paths, mates = [path], [reads]
        cut = [rid.split()[0] for rid in ids]
        for k, (path, reads) in enumerate(zip(paths, mates)):
            assert reads.read_ids == cut[k :: len(paths)]
            assert same_batch(reads, read_fastq(path))

    def test_sra_style_headers(self, tmp_path):
        """``SRR… N length=100`` comments after a space or a tab, over
        several real blocks: the dump returns what ``read_fastq`` reads
        back, the accession-and-spot word alone."""
        sep = (" ", "\t")
        items = [
            (f"SRR770001.{i}{sep[i % 2]}{i}{sep[i % 3 == 0]}length=100", *record)
            for i, (_, *record) in enumerate(items_over(2))
        ]
        (tmp_path / "SRRC1.sra").write_bytes(single_blob(items))
        path, reads = fasterq_dump(tmp_path / "SRRC1.sra", tmp_path / "out")
        assert path.stat().st_size > 2 * fastq_module.BLOCK_BYTES
        assert reads.read_ids == [f"SRR770001.{i}" for i in range(len(items))]
        assert same_batch(reads, read_fastq(path))

    @pytest.mark.parametrize("header", [" ", "\t", " \t\x0b "])
    def test_empty_id_names_its_record(self, tmp_path, header):
        items = [(f"r{i} length=4", "ACGT", "IIII") for i in range(6)]
        items[4] = (header, "ACGT", "IIII")
        sra = tmp_path / "SRRC1.sra"
        sra.write_bytes(single_blob(items))
        with pytest.raises(ValueError, match="record 5: empty read id"):
            fasterq_dump(sra, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_dump_leaves_no_output(self, tmp_path):
        sra = tmp_path / "SRRC1.sra"
        sra.write_bytes(single_blob([("r1", "ACGT", "IIII"), ("r2", "AC", "I")]))
        with pytest.raises(ValueError, match="length"):
            fasterq_dump(sra, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []


class TestStreamEntryPoint:
    @settings(max_examples=40, deadline=None)
    @given(
        records_fields,
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=1, max_value=30),
        block_sizes,
    )
    def test_chunks_match_oracle(
        self, tmp_path_factory, items, chunk_bytes, chunk_reads, size
    ):
        repo = SraRepository()
        repo._blobs["SRRC1"] = single_blob(items)
        stream = SraStream(
            repo, "SRRC1", chunk_bytes=chunk_bytes, chunk_reads=chunk_reads
        )
        with small_blocks(size):
            chunks = list(stream.chunks())
        assert all(0 < len(chunk) <= chunk_reads for chunk in chunks)
        assert same([r for c in chunks for r in c], reference(items, whole_ids=False))
        tmp = tmp_path_factory.mktemp("dump")
        sra = tmp / "SRRC1.sra"
        sra.write_bytes(repo.fetch_bytes("SRRC1"))
        assert stream.fastq_bytes == fasterq_dump(sra, tmp)[0].stat().st_size

    @settings(max_examples=25, deadline=None)
    @given(
        records_fields.filter(lambda items: len(items) % 2 == 0),
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=1, max_value=30),
    )
    def test_paired_chunks_match_oracle(self, items, chunk_bytes, chunk_reads):
        repo = SraRepository()
        repo._blobs["SRRC2"] = paired_blob(items)
        stream = SraStream(
            repo, "SRRC2", chunk_bytes=chunk_bytes, chunk_reads=chunk_reads
        )
        mate1, mate2 = [], []
        for chunk1, chunk2 in stream.chunks():
            mate1.extend(chunk1)
            mate2.extend(chunk2)
        expected = reference(items, whole_ids=False)
        assert same(mate1, expected[0::2])
        assert same(mate2, expected[1::2])


def long_items(n: int = 400) -> list[tuple[str, str, str]]:
    """``n`` records of 100 random bases, 208 or more bytes of text each."""
    rng = np.random.default_rng(5)
    return [
        (
            f"r{i}",
            "".join(rng.choice(list("ACGT"), 100)),
            "".join(chr(33 + q) for q in rng.integers(2, 41, 100)),
        )
        for i in range(n)
    ]


def items_over(blocks: int) -> list[tuple[str, str, str]]:
    """Records whose text is more than ``blocks`` framing blocks long."""
    return long_items(blocks * fastq_module.BLOCK_BYTES // 200)


class TestPayloadBounds:
    """Bytes after the end of the zlib stream are rejected on every path,
    and inflating never hands zlib more than one block of input."""

    def test_dumps_reject_trailing_bytes(self, tmp_path):
        items = items_over(2)
        assert len(fastq_text(items)) > 2 * fastq_module.BLOCK_BYTES
        single = tmp_path / "SRRC1.sra"
        single.write_bytes(single_blob(items) + b"x")
        paired = tmp_path / "SRRC2.sra"
        paired.write_bytes(paired_blob(items) + b"x")
        with within(30):
            with pytest.raises(ValueError, match="trailing bytes"):
                fasterq_dump(single, tmp_path / "out")
            with pytest.raises(ValueError, match="trailing bytes"):
                fasterq_dump_paired(paired, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_archive_parsers_reject_trailing_bytes(self):
        with within(30):
            with pytest.raises(ValueError, match="trailing bytes"):
                SraArchive.from_bytes(single_blob(long_items()) + b"x")
            with pytest.raises(ValueError, match="trailing bytes"):
                PairedSraArchive.from_bytes(paired_blob(long_items()) + b"x")

    @pytest.mark.parametrize("chunk_bytes", [512, 64 * 1024, None])
    @pytest.mark.parametrize("blob", [single_blob, paired_blob])
    def test_stream_rejects_trailing_bytes(self, blob, chunk_bytes):
        good = blob(long_items())
        repo = SraRepository()
        repo._blobs["SRRC"] = good + b"x"
        # None: the trailing byte arrives alone, after the stream has ended
        stream = SraStream(repo, "SRRC", chunk_bytes=chunk_bytes or len(good))
        with within(30), pytest.raises(ValueError, match="trailing bytes"):
            list(stream.chunks())

    def test_inflate_input_is_bounded(self):
        items = items_over(3)
        _, payload = sra_module.unpack_archive(
            single_blob(items), sra_module.MAGIC_SINGLE
        )
        assert len(payload) > fastq_module.BLOCK_BYTES
        decoder = PayloadDecoder("SRRC1", paired=False)
        decoder._inflater = inflater = RecordingInflater()
        blocks = [*decoder.feed(payload), *decoder.finish()]
        assert sum(block.n_records for block in blocks) == len(items)
        assert max(inflater.fed) <= fastq_module.BLOCK_BYTES


class RecordingInflater:
    """A zlib inflater that records the input size of each call."""

    def __init__(self) -> None:
        self._inner = zlib.decompressobj()
        self.fed: list[int] = []

    def decompress(self, data, max_length):
        self.fed.append(len(data))
        return self._inner.decompress(data, max_length)

    def __getattr__(self, name):
        return getattr(self._inner, name)
