"""Chunked streaming over SRA containers: the reads side of the DAG.

The streaming pipeline overlaps download, decompression, and alignment
instead of running ``prefetch → fasterq-dump → align`` to completion one
step at a time.  This module supplies the reads-layer machinery:

* :func:`iter_chunks` — re-chunks any iterable (the serial aligner's
  batch-core feed);
* :class:`SraStream` — an incremental parser that turns a *byte-chunk*
  download of an ``.sra`` container into FASTQ record chunks as they
  decompress, with mid-stream cancellation (the early-stopping hook that
  saves download bytes, not just align seconds) and exact byte
  accounting;
* :class:`ThrottledRepository` — a repository wrapper that simulates
  network transfer time, used by the stream benchmark and tests to make
  the overlap measurable.

Chunk boundaries never affect results: the batch alignment core is
boundary-independent, so a streamed run is byte-identical to the
sequential path no matter how the bytes arrived.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator
from typing import TypeVar

from repro.reads.fastq import FastqBlock, FastqRecord
from repro.reads.library import LibraryType
from repro.reads.sra import (
    MAGIC_PAIRED,
    MAGIC_SINGLE,
    PREFIX_BYTES,
    PayloadDecoder,
    SraRepository,
    payload_offset,
    unpack_archive,
)

T = TypeVar("T")

#: default records per streamed chunk (the unit the align stage consumes)
DEFAULT_CHUNK_READS = 256
#: default bytes per download chunk (the unit the prefetch stage moves)
DEFAULT_CHUNK_BYTES = 64 * 1024


def iter_chunks(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Re-chunk any iterable into lists of ``size`` items (last may be short)."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    it = iter(items)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


class ThrottledRepository:
    """A repository wrapper that charges simulated transfer time.

    ``fetch_bytes`` (the sequential ``prefetch`` path) sleeps the whole
    transfer up front; ``fetch_chunks`` (the streamed path) sleeps per
    chunk — so a cancelled stream genuinely avoids the un-downloaded
    remainder, and overlap against align time is measurable in wall
    clock.  ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        repository: SraRepository,
        *,
        bandwidth_bytes_per_s: float = 10e6,
        latency_seconds: float = 0.0,
        sleep=time.sleep,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")
        self.repository = repository
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.latency_seconds = latency_seconds
        self.sleep = sleep

    def transfer_seconds(self, n_bytes: int) -> float:
        """Simulated seconds to move ``n_bytes`` (excluding latency)."""
        return n_bytes / self.bandwidth_bytes_per_s

    def fetch_bytes(self, accession: str) -> bytes:
        """Whole-archive fetch, paying the full transfer time up front."""
        blob = self.repository.fetch_bytes(accession)
        self.sleep(self.latency_seconds + self.transfer_seconds(len(blob)))
        return blob

    def fetch_chunks(
        self, accession: str, chunk_bytes: int = DEFAULT_CHUNK_BYTES
    ) -> Iterator[bytes]:
        """Chunked fetch, paying transfer time per chunk as it streams."""
        blob = self.repository.fetch_bytes(accession)
        if self.latency_seconds:
            self.sleep(self.latency_seconds)
        for start in range(0, len(blob), chunk_bytes):
            chunk = blob[start : start + chunk_bytes]
            self.sleep(self.transfer_seconds(len(chunk)))
            yield chunk

    def archive_bytes(self, accession: str) -> int:
        """Archive size (a metadata query — no transfer time charged)."""
        return len(self.repository.fetch_bytes(accession))

    def accessions(self) -> list[str]:
        """Delegate to the wrapped repository."""
        return self.repository.accessions()

    def deposit(self, archive):
        """Delegate to the wrapped repository."""
        return self.repository.deposit(archive)

    def __contains__(self, accession: str) -> bool:
        return accession in self.repository


class SraStream:
    """Incrementally download and parse one accession's ``.sra`` archive.

    Call :meth:`open` to pull bytes until the container header is parsed
    (``paired``/``n_reads``/``library`` become available — the align
    stage needs the read total before the payload finishes), then
    iterate :meth:`chunks`: each item is a ``list[FastqRecord]`` for
    single-end archives or a ``(mate1, mate2)`` list pair for paired
    ones.  Records come from the same codec as the sequential
    ``fasterq-dump → iter_fastq`` path (read ids cut at the first
    whitespace), and ``fastq_bytes`` accumulates the exact size the
    dumped FASTQ file(s) would have had on disk, for the text decoded so
    far.

    :meth:`cancel` stops the download at the next chunk boundary;
    ``bytes_saved`` then reports what never moved — the quantity the
    early-stopping report claims.
    """

    def __init__(
        self,
        repository,
        accession: str,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        chunk_reads: int = DEFAULT_CHUNK_READS,
    ) -> None:
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if chunk_reads < 1:
            raise ValueError("chunk_reads must be >= 1")
        self.repository = repository
        self.accession = accession
        self.chunk_bytes = chunk_bytes
        self.chunk_reads = chunk_reads
        #: set by :meth:`open`
        self.paired = False
        self.n_reads = 0  # reads (single-end) or pairs (paired)
        self.library: LibraryType | None = None
        self.total_bytes = 0
        #: running accounting
        self.bytes_downloaded = 0
        self.fastq_bytes = 0
        self.records_out = 0
        self.cancelled = False
        self._finished = False
        self._byte_iter: Iterator[bytes] | None = None
        self._decoder: PayloadDecoder | None = None
        #: decoded records (mate 1 when paired) and mate 2, not yet handed out
        self._ready: list[FastqRecord] = []
        self._ready2: list[FastqRecord] = []

    # -- byte side -----------------------------------------------------------

    def _open_byte_iter(self) -> Iterator[bytes]:
        repo = self.repository
        if hasattr(repo, "fetch_chunks"):
            return iter(repo.fetch_chunks(self.accession, self.chunk_bytes))
        blob = repo.fetch_bytes(self.accession)
        return (
            blob[i : i + self.chunk_bytes]
            for i in range(0, len(blob), self.chunk_bytes)
        )

    def _archive_bytes(self) -> int:
        repo = self.repository
        if hasattr(repo, "archive_bytes"):
            return int(repo.archive_bytes(self.accession))
        return len(repo.fetch_bytes(self.accession))

    @property
    def bytes_saved(self) -> int:
        """Bytes the cancellation avoided downloading (0 while streaming)."""
        if not (self.cancelled or self._finished):
            return 0
        return max(0, self.total_bytes - self.bytes_downloaded)

    def cancel(self) -> None:
        """Stop downloading at the next chunk boundary (idempotent)."""
        self.cancelled = True

    # -- header --------------------------------------------------------------

    def open(self) -> "SraStream":
        """Fetch and parse the container header; returns ``self``.

        Raises the same :class:`ValueError` family as the eager
        :class:`~repro.reads.sra.SraArchive` parser on bad magic or an
        unsupported version, so failure semantics match the sequential
        ``fasterq-dump`` step.
        """
        self.total_bytes = self._archive_bytes()
        self._byte_iter = self._open_byte_iter()
        buffer = b""
        while len(buffer) < PREFIX_BYTES:
            buffer += self._next_bytes()
        self.paired = buffer[:4] == MAGIC_PAIRED
        magic = MAGIC_PAIRED if self.paired else MAGIC_SINGLE
        while len(buffer) < payload_offset(buffer, magic):
            buffer += self._next_bytes()
        header, payload = unpack_archive(buffer, magic)
        self.library = LibraryType(header["library"])
        self.n_reads = int(
            header["n_pairs"] if self.paired else header["n_reads"]
        )
        self._decoder = PayloadDecoder(self.accession, paired=self.paired)
        self._ingest(self._decoder.feed(payload))
        return self

    def _next_bytes(self) -> bytes:
        assert self._byte_iter is not None
        chunk = next(self._byte_iter, None)
        if chunk is None:
            raise ValueError(
                f"truncated SRA archive for {self.accession!r}"
            )
        self.bytes_downloaded += len(chunk)
        return chunk

    # -- payload -------------------------------------------------------------

    def _ingest(self, blocks: Iterable[FastqBlock]) -> None:
        """Queue the records of freshly decoded blocks."""
        for block in blocks:
            self.fastq_bytes += block.dumped_bytes
            records = block.records()
            if self.paired:
                # paired payloads interleave mates: mate 1 first
                self._ready.extend(records[0::2])
                self._ready2.extend(records[1::2])
            else:
                self._ready.extend(records)

    def _take_records(self, n: int):
        """Hand out the next ``n`` queued reads (or pairs)."""
        records = self._ready[:n]
        del self._ready[:n]
        self.records_out += len(records)
        if not self.paired:
            return records
        mate2 = self._ready2[:n]
        del self._ready2[:n]
        return records, mate2

    def chunks(self) -> Iterator:
        """Yield record chunks as payload bytes arrive (see class doc)."""
        if self._byte_iter is None:
            self.open()
        while True:
            while len(self._ready) >= self.chunk_reads:
                yield self._take_records(self.chunk_reads)
            if self.cancelled:
                return
            chunk = next(self._byte_iter, None)
            if chunk is None:
                break
            self.bytes_downloaded += len(chunk)
            self._ingest(self._decoder.feed(chunk))
        # end of stream: flush the inflater and validate framing
        self._ingest(self._decoder.finish())
        while self._ready:
            yield self._take_records(self.chunk_reads)
        self._finished = True
        if not self.cancelled and self.records_out != self.n_reads:
            raise ValueError(
                f"corrupt SRA archive: header says {self.n_reads} "
                f"{'pairs' if self.paired else 'reads'}, payload has "
                f"{self.records_out}"
            )
