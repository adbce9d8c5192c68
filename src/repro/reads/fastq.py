"""FASTQ records and the one codec every read path uses.

The text format — ``@id`` / sequence / ``+`` / Sanger (Phred+33)
qualities — is read and written here and nowhere else:

* :class:`FastqFramer` takes FASTQ text in byte blocks of any size (file
  reads, inflated SRA payload, downloaded chunks) and frames complete
  records with numpy, at most :data:`BLOCK_BYTES` of text per step: line
  feeds, the ``@``/``+``, length and Phred+33 checks, and base codes
  through the alphabet LUT.  A partial record at the end of a block
  carries over to the next.
* Each framed :class:`FastqBlock` gives one :class:`ReadBatch`, or — for
  ``fasterq-dump`` — its text in dumped form beside that batch, so the
  dumped reads are framed once, without building any per-read object.
* :func:`render_fastq` is the one writer.

:class:`ReadBatch` holds many reads as a struct of arrays — ids,
concatenated base codes and Phred scores, offsets — the one form reads
take from the framer to the batch core and across a process boundary.
:func:`cut_batches` cuts a feed of batches into batches of a fixed size:
stream chunks and alignment shards.  A :class:`FastqRecord` is built
only where a caller indexes or iterates a batch.

Line ends are ``\\n`` or ``\\r\\n``; the text must be ASCII.  A missing
``@`` or ``+``, unequal sequence and quality lengths, a quality below
Phred+33 or a truncated final record raise :class:`ValueError`.  Read ids
follow the entry point: archives keep the whole header line, FASTQ files
and streams cut it at the first whitespace, and so do the reads
``fasterq-dump`` hands to the align stage.  STAR and ``fasterq-dump``
both stream, and so does :func:`iter_fastq`.
"""

from __future__ import annotations

import gzip
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.genome.alphabet import decode, decode_bytes, encode

PHRED_OFFSET = 33
MAX_PHRED = 41

#: most FASTQ text one vectorized step frames or renders; it bounds the
#: per-block temporaries, which are uint8 or bool per byte of text, and
#: spreads each step's fixed numpy cost over about a thousand 100-base
#: records
BLOCK_BYTES = 256 * 1024

_LF, _CR, _AT, _PLUS = b"\n\r@+"
#: the bytes ``str.split()`` splits on, all at most a space (32): where a
#: FASTQ reader's read id ends
_SPACE = np.array([chr(c).isspace() for c in range(256)])
#: what a cut read id keeps of its header: the whitespace before the first
#: word no, the word yes, the rest no, the line feed yes
_CUT_SPANS = np.array([False, True, False, True])

# What each byte of framed text is.  Every line is four spans — marker,
# content, optional CR, LF — and a record's four lines give the spans
# below.  A header's LF counts as id text so that ids split on it; CRs
# and anything after the '+' are dropped from the dumped form.
_ID, _SEQ, _QUAL, _KEEP, _DROP = range(5)
_RECORD_SPANS = np.array(
    [
        *(_KEEP, _ID, _DROP, _ID),  # @ id \r \n
        *(_KEEP, _SEQ, _DROP, _KEEP),  # sequence
        *(_KEEP, _DROP, _DROP, _KEEP),  # + anything
        *(_KEEP, _QUAL, _DROP, _KEEP),  # qualities
    ],
    dtype=np.uint8,
)
#: marker length of each line: the header's '@' and the separator's '+'
_MARKERS = np.array([1, 0, 1, 0], dtype=np.int64)

# The record template the writer fills; bytes 0-2 stand for the fields.
_FILL_ID, _FILL_SEQ, _FILL_QUAL = 0, 1, 2
_TEMPLATE = np.frombuffer(b"@\x00\n\x01\n+\n\x02\n", dtype=np.uint8)


def _join(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate contiguous uint8 arrays while holding the GIL.

    numpy releases the GIL for any copy over 500 elements; a streaming
    downloader thread that joins chunks then waits to take it back from
    the busy align thread at every join (``mixed_stream`` read 7% fewer
    reads/s on 2 vCPUs with ``np.concatenate`` here).  ``bytearray.join``
    keeps it below 1 MiB and gives a writable buffer.
    """
    return np.frombuffer(bytearray().join(arrays), dtype=np.uint8)


@dataclass
class FastqRecord:
    """One read: identifier, encoded sequence, numeric Phred qualities."""

    read_id: str
    sequence: np.ndarray  # uint8 base codes
    qualities: np.ndarray  # uint8 Phred scores (not ASCII)

    def __post_init__(self) -> None:
        self.sequence = np.asarray(self.sequence, dtype=np.uint8)
        self.qualities = np.asarray(self.qualities, dtype=np.uint8)
        if self.sequence.shape != self.qualities.shape:
            raise ValueError(
                f"read {self.read_id}: sequence length {self.sequence.size} != "
                f"quality length {self.qualities.size}"
            )

    @property
    def length(self) -> int:
        return int(self.sequence.size)

    @property
    def sequence_str(self) -> str:
        return decode(self.sequence)

    @property
    def quality_str(self) -> str:
        return (self.qualities + PHRED_OFFSET).tobytes().decode("ascii")

    @property
    def mean_quality(self) -> float:
        return float(self.qualities.mean()) if self.qualities.size else 0.0

    @classmethod
    def _framed(cls, read_id: str, sequence: np.ndarray, qualities: np.ndarray):
        """A record from arrays the codec has already validated: uint8,
        equal lengths (skips ``__post_init__``, the codec's hot path)."""
        record = cls.__new__(cls)
        record.read_id = read_id
        record.sequence = sequence
        record.qualities = qualities
        return record

    @classmethod
    def from_strings(cls, read_id: str, sequence: str, quality: str) -> "FastqRecord":
        """Build a record from FASTQ text fields."""
        q = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
        if (q < PHRED_OFFSET).any():
            raise ValueError(f"read {read_id}: quality characters below Phred+33 range")
        return cls(read_id, encode(sequence), (q - PHRED_OFFSET).astype(np.uint8))


class ReadBatch(Sequence):
    """Consecutive reads as a struct of arrays.

    Read ``i`` is ``read_ids[i]`` with base codes
    ``sequence[offsets[i] : offsets[i + 1]]`` and the Phred scores at the
    same positions of ``qualities``; ``offsets`` runs from 0 to the
    arrays' length.  A contiguous slice is a view: its arrays share this
    batch's memory and its offsets are rebased to 0, so pickling a slice
    writes only its own reads.  Indexing and iteration give
    :class:`FastqRecord` views.
    """

    __slots__ = ("read_ids", "sequence", "qualities", "offsets")

    def __init__(
        self,
        read_ids: list[str],
        sequence: np.ndarray,
        qualities: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.read_ids = read_ids
        self.sequence = np.ascontiguousarray(sequence, dtype=np.uint8)
        self.qualities = np.ascontiguousarray(qualities, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if self.sequence.shape != self.qualities.shape:
            raise ValueError("base and quality arrays differ in length")
        if (
            self.offsets.shape != (len(read_ids) + 1,)
            or self.offsets[0] != 0
            or self.offsets[-1] != self.sequence.size
            or (np.diff(self.offsets) < 0).any()
        ):
            raise ValueError(
                "offsets must rise from 0 to the bases' length, one per read plus one"
            )

    @classmethod
    def of(cls, records: Iterable[FastqRecord]) -> "ReadBatch":
        """Pack ``records`` into one batch; a batch is returned as it is."""
        if isinstance(records, ReadBatch):
            return records
        records = list(records)
        lengths = np.fromiter(
            (r.sequence.size for r in records), np.int64, len(records)
        )
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if not records:
            sequence = qualities = np.zeros(0, dtype=np.uint8)
        else:
            sequence = np.concatenate([r.sequence for r in records])
            qualities = np.concatenate([r.qualities for r in records])
        return cls([r.read_id for r in records], sequence, qualities, offsets)

    @classmethod
    def concat(cls, batches: Iterable["ReadBatch"]) -> "ReadBatch":
        """Join ``batches`` end to end; a lone batch is returned as it is."""
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        shifts = np.cumsum([0] + [b.sequence.size for b in batches])
        return cls(
            [read_id for batch in batches for read_id in batch.read_ids],
            _join([b.sequence for b in batches]),
            _join([b.qualities for b in batches]),
            np.concatenate(
                [[0], *(b.offsets[1:] + s for b, s in zip(batches, shifts))]
            ),
        )

    @property
    def lengths(self) -> np.ndarray:
        """Read length per read."""
        return np.diff(self.offsets)

    @property
    def nbytes(self) -> int:
        """Exact size of the packed reads: id text (UTF-8), base codes,
        Phred scores and offsets."""
        return (
            len("".join(self.read_ids).encode())
            + self.sequence.nbytes
            + self.qualities.nbytes
            + self.offsets.nbytes
        )

    def __len__(self) -> int:
        return len(self.read_ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step < 0:
                return ReadBatch.of([self[i] for i in range(start, stop, step)])
            if step != 1:
                # a strided slice (one mate of an interleaved batch) gathers
                # its reads' bases through a per-base mask of its rows
                lengths = self.lengths
                picked = np.zeros(len(self), dtype=bool)
                picked[key] = True
                keep = np.repeat(picked, lengths)
                offsets = np.zeros(int(picked.sum()) + 1, dtype=np.int64)
                np.cumsum(lengths[key], out=offsets[1:])
                ids, seq, qual = self.read_ids[key], self.sequence, self.qualities
                return ReadBatch(ids, seq[keep], qual[keep], offsets)
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            return ReadBatch(
                self.read_ids[start:stop],
                self.sequence[lo:hi],
                self.qualities[lo:hi],
                self.offsets[start : stop + 1] - lo,
            )
        n = len(self)
        i = key + n if key < 0 else key
        if not 0 <= i < n:
            raise IndexError("read index out of range")
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return FastqRecord._framed(
            self.read_ids[i], self.sequence[lo:hi], self.qualities[lo:hi]
        )

    def __iter__(self) -> Iterator[FastqRecord]:
        bounds = self.offsets.tolist()
        for read_id, lo, hi in zip(self.read_ids, bounds, bounds[1:]):
            yield FastqRecord._framed(
                read_id, self.sequence[lo:hi], self.qualities[lo:hi]
            )

    def __repr__(self) -> str:
        return f"ReadBatch(<{len(self)} reads>)"


@dataclass
class FastqBlock:
    """Whole records framed from one block of FASTQ text.

    Built by :class:`FastqFramer`, which has validated every record.
    """

    #: the block's text (whole records only), writable
    text: np.ndarray
    #: per byte of ``text``: what it is (``_ID``, ``_SEQ``, ``_QUAL``,
    #: ``_KEEP`` or ``_DROP``)
    kind: np.ndarray
    #: per record: header length after the '@', sequence length, and the
    #: record's length in ``text``
    id_len: np.ndarray
    seq_len: np.ndarray
    raw_len: np.ndarray
    #: True when ``text`` has nothing to drop: no CR, nothing after a '+'
    dumped_form: bool
    #: the input's name and the block's first record number in it, for
    #: error messages
    source: str
    first: int

    @property
    def n_records(self) -> int:
        return int(self.seq_len.size)

    @property
    def dumped_bytes(self) -> int:
        """Size of the block's records as ``fasterq-dump`` writes them."""
        return int(self.id_len.sum() + 2 * self.seq_len.sum()) + 6 * self.n_records

    def _read_ids(self, *, whole: bool) -> list[str]:
        """Each record's header after the '@': whole, or its first word as
        ``str.split()`` finds it (an id left empty then raises)."""
        raw = self.text[self.kind == _ID]
        if not whole:
            raw = self._first_words(raw)
        ids = raw.tobytes().decode("ascii").split("\n")
        ids.pop()
        return ids

    def _first_words(self, raw: np.ndarray) -> np.ndarray:
        """``raw``, the headers each ending in its line feed, cut to each
        header's first run of non-whitespace and its line feed."""
        low = np.flatnonzero(raw <= 32)
        gaps = low[_SPACE.take(raw[low])]  # every line feed among them
        if gaps.size == self.n_records and self.id_len.all():
            return raw
        ends = np.cumsum(self.id_len + 1) - 1
        heads = ends - self.id_len
        # a word starts after the last gap of each run of gaps (a gap
        # before the text stands in for the previous line feed); the last
        # start, past the text, means no word
        runs = np.concatenate([[-1], gaps])
        words = runs[np.append(np.flatnonzero(np.diff(runs) != 1), gaps.size)] + 1
        begin = words[np.searchsorted(words, heads)]
        empty = np.flatnonzero(begin > ends)
        if empty.size:
            number = self.first + int(empty[0]) + 1
            raise ValueError(f"{self.source}: record {number}: empty read id")
        end = gaps[np.searchsorted(gaps, begin)]
        spans = np.stack([begin - heads, end - begin, ends - end, np.ones_like(end)])
        keep = np.repeat(np.tile(_CUT_SPANS, self.n_records), spans.T.ravel())
        return raw[keep]

    def batch(self, *, whole_ids: bool = False) -> ReadBatch:
        """The block's records as one batch of base codes and Phred scores."""
        offsets = np.zeros(self.n_records + 1, dtype=np.int64)
        np.cumsum(self.seq_len, out=offsets[1:])
        return ReadBatch(
            self._read_ids(whole=whole_ids),
            encode(self.text[self.kind == _SEQ]),
            self.text[self.kind == _QUAL] - np.uint8(PHRED_OFFSET),
            offsets,
        )

    def dump(self, *, mates: bool = False) -> list[tuple[np.ndarray, ReadBatch]]:
        """The block as ``fasterq-dump`` writes it: per output, the text —
        bases normalised to ``ACGTN`` (in place), CRs and anything after
        a '+' dropped — and its reads, ids cut at the first whitespace as
        :func:`iter_fastq` reads the text back.  With ``mates``, two
        outputs: even and odd records."""
        reads = self.batch()
        self.text[self.kind == _SEQ] = decode_bytes(reads.sequence)
        if not mates:
            text = self.text if self.dumped_form else self.text[self.kind != _DROP]
            return [(text, reads)]
        keep = self.kind != _DROP
        parity = (np.arange(self.n_records) & 1).astype(np.uint8)
        second = np.repeat(parity, self.raw_len).view(bool)
        return [
            (self.text[keep & ~second], reads[0::2]),
            (self.text[keep & second], reads[1::2]),
        ]


class FastqFramer:
    """Frames FASTQ text fed as byte blocks of any size (see module doc).

    ``group`` records are framed as a unit, so a block never splits the
    mates of a mate-interleaved payload (``group=2``).  ``source`` names
    the input in error messages.
    """

    def __init__(self, source: str, *, group: int = 1) -> None:
        self.source = source
        self._lines = 4 * group
        self._carry = b""
        #: records framed so far
        self.n_records = 0

    def feed(self, data: bytes) -> Iterator[FastqBlock]:
        """Blocks of the records ``data`` completes; the rest carries over."""
        view = memoryview(data)
        for start in range(0, len(view), BLOCK_BYTES):
            block = self._frame(view[start : start + BLOCK_BYTES])
            if block is not None:
                yield block

    def finish(self) -> Iterator[FastqBlock]:
        """Frame what is left at the end of the input.

        The final line may lack its line feed; text short of a whole
        record (or group) raises :class:`ValueError`.
        """
        if self._carry and not self._carry.endswith(b"\n"):
            block = self._frame(b"\n")
            if block is not None:
                yield block
        if self._carry:
            raise ValueError(
                f"{self.source}: truncated FASTQ: the text ends inside a record"
            )

    def _frame(self, piece) -> FastqBlock | None:
        buf = bytearray(self._carry)
        buf += piece
        text = np.frombuffer(buf, dtype=np.uint8)
        lf = np.flatnonzero(text == _LF)
        n_lines = lf.size - lf.size % self._lines
        if not n_lines:
            self._carry = bytes(buf)
            return None
        end = int(lf[n_lines - 1]) + 1
        self._carry = bytes(buf[end:])
        block = self._validate(text[:end], lf[:n_lines])
        self.n_records += block.n_records
        return block

    def _fail(self, record: int, problem: str) -> ValueError:
        number = self.n_records + record + 1
        return ValueError(f"{self.source}: record {number}: {problem}")

    def _validate(self, text: np.ndarray, lf: np.ndarray) -> FastqBlock:
        if int(text.max()) > 127:
            raise ValueError(f"{self.source}: FASTQ text is not ASCII")
        starts = np.empty_like(lf)
        starts[0] = 0
        starts[1:] = lf[:-1] + 1
        cr = (lf > starts) & (text[lf - 1] == _CR)
        ends = lf - cr
        head, seq, plus, qual = starts.reshape(-1, 4).T
        head_end, seq_end, plus_end, qual_end = ends.reshape(-1, 4).T
        bad = np.flatnonzero((head_end == head) | (text[head] != _AT))
        if bad.size:
            i = int(bad[0])
            line = text[head[i] : head_end[i]].tobytes()
            raise self._fail(i, f"expected '@' header, got {line!r}")
        bad = np.flatnonzero((plus_end == plus) | (text[plus] != _PLUS))
        if bad.size:
            i = int(bad[0])
            line = text[plus[i] : plus_end[i]].tobytes()
            raise self._fail(i, f"expected '+' separator, got {line!r}")
        seq_len = seq_end - seq
        bad = np.flatnonzero(seq_len != qual_end - qual)
        if bad.size:
            raise self._fail(int(bad[0]), "sequence/quality length mismatch")
        n = seq_len.size
        markers = np.tile(_MARKERS, n)
        content = ends - starts - markers
        spans = np.stack([markers, content, cr, np.ones_like(lf)], axis=1)
        kind = np.repeat(np.tile(_RECORD_SPANS, n), spans.ravel())
        low = np.flatnonzero((text < PHRED_OFFSET) & (kind == _QUAL))
        if low.size:
            i = int(np.searchsorted(head, low[0], side="right")) - 1
            raise self._fail(i, "quality characters below Phred+33 range")
        return FastqBlock(
            text=text,
            kind=kind,
            id_len=head_end - head - 1,
            seq_len=seq_len,
            raw_len=lf[3::4] + 1 - head,
            dumped_form=not (cr.any() or (plus_end - plus > 1).any()),
            source=self.source,
            first=self.n_records,
        )


def _open_binary(path: Path | str, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


def iter_fastq(path: Path | str) -> Iterator[ReadBatch]:
    """Stream a FASTQ file (gzipped if ``.gz``) as one batch per framed
    block of text; read ids end at the first whitespace."""
    framer = FastqFramer(str(path))
    with _open_binary(path, "r") as fh:
        while data := fh.read(BLOCK_BYTES):
            for block in framer.feed(data):
                yield block.batch()
    for block in framer.finish():
        yield block.batch()


def read_fastq(path: Path | str) -> ReadBatch:
    """Eagerly read a whole FASTQ file into one batch."""
    return ReadBatch.concat(iter_fastq(path))


def cut_batches(
    batches: Iterable[ReadBatch], size: int, *, floor: int = 0
) -> Iterator[ReadBatch]:
    """Cut a feed of batches into batches of ``size`` reads, in order.

    A cut batch is a slice of one fed batch, or the join of pieces of
    several.  A last batch shorter than ``floor`` reads joins the one
    before it; until ``floor`` more reads have arrived, a full batch is
    held back for that, so the feed is pulled at most one cut batch
    ahead of what has been yielded.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    held = None  # a full batch a short last one may still join
    pieces: list[ReadBatch] = []
    filled = 0
    for batch in batches:
        start = 0
        while start < len(batch):
            take = min(size - filled, len(batch) - start)
            pieces.append(batch[start : start + take])
            start += take
            filled += take
            if filled == size:
                if held is not None:
                    yield held
                held, pieces, filled = ReadBatch.concat(pieces), [], 0
            if held is not None and filled >= floor:
                yield held
                held = None
    if held is not None:
        pieces.insert(0, held)
    if pieces:
        yield ReadBatch.concat(pieces)


def _render(records: list[FastqRecord]) -> np.ndarray:
    n = len(records)
    ids = "".join(rec.read_id for rec in records).encode("ascii")
    id_len = np.fromiter((len(rec.read_id) for rec in records), np.int64, n)
    seq_len = np.fromiter((rec.sequence.size for rec in records), np.int64, n)
    seq = np.concatenate([rec.sequence for rec in records])
    qual = np.concatenate([rec.qualities for rec in records])
    if qual.size and int(qual.max()) > 127 - PHRED_OFFSET:
        raise ValueError("quality above the Phred+33 ASCII range")
    ones = np.ones(n, dtype=np.int64)
    spans = np.stack(
        [ones, id_len, ones, seq_len, ones, ones, ones, seq_len, ones], axis=1
    )
    text = np.repeat(np.tile(_TEMPLATE, n), spans.ravel())
    is_id, is_seq, is_qual = text == _FILL_ID, text == _FILL_SEQ, text == _FILL_QUAL
    text[is_id] = np.frombuffer(ids, dtype=np.uint8)
    text[is_seq] = decode_bytes(seq)
    text[is_qual] = qual + np.uint8(PHRED_OFFSET)
    return text


def render_fastq(records: Iterable[FastqRecord]) -> Iterator[np.ndarray]:
    """FASTQ text of ``records``, rendered about :data:`BLOCK_BYTES` at a
    time as uint8 arrays: the one place the format is written."""
    batch: list[FastqRecord] = []
    size = 0
    for rec in records:
        batch.append(rec)
        size += len(rec.read_id) + 2 * rec.sequence.size + 6
        if size >= BLOCK_BYTES:
            yield _render(batch)
            batch, size = [], 0
    if batch:
        yield _render(batch)


def write_fastq(records: Iterable[FastqRecord], path: Path | str) -> int:
    """Write records to a (gzipped if ``.gz``) FASTQ file; returns the count."""
    records = list(records)
    with _open_binary(path, "w") as fh:
        for text in render_fastq(records):
            fh.write(text)
    return len(records)


def fastq_byte_size(records: Iterable[FastqRecord]) -> int:
    """Exact uncompressed FASTQ byte size of ``records`` without writing them."""
    return sum(len(rec.read_id) + 2 * rec.length + 6 for rec in records)
