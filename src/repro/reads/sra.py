"""Mock SRA container format, repository, and the two NCBI tools.

The real pipeline's first two steps are ``prefetch`` (download ``.sra``)
and ``fasterq-dump`` (convert to FASTQ).  NCBI is unreachable here, so this
module defines a self-contained ``.sra`` container with the same tool
interface and round-trip guarantees:

* :class:`SraArchive` — header (accession, library type, read geometry)
  plus a zlib-compressed FASTQ payload;
* :class:`SraRepository` — an accession-keyed store playing the role of
  the NCBI repository (backed by a directory or kept in memory);
* :func:`prefetch` / :func:`fasterq_dump` — the tool front-ends used by
  :class:`repro.core.pipeline.TranscriptomicsAtlasPipeline`;
  ``fasterq_dump`` also hands back the reads it framed, so the align
  step never parses the FASTQ it wrote.
"""

from __future__ import annotations

import contextlib
import json
import struct
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.reads.fastq import (
    BLOCK_BYTES,
    FastqBlock,
    FastqFramer,
    FastqRecord,
    ReadBatch,
    fastq_byte_size,
    read_fastq,
    render_fastq,
)
from repro.reads.library import LibraryType, SraRunMetadata

if TYPE_CHECKING:
    from repro.core.resilience import FaultPlan

#: magic of a single-end and of a mate-interleaved paired archive
MAGIC_SINGLE = b"SRAR"
MAGIC_PAIRED = b"SRAP"
_KIND = {MAGIC_SINGLE: "an SRA archive", MAGIC_PAIRED: "a paired SRA archive"}
_VERSION = 1
_PREFIX = struct.Struct("<HI")
#: bytes of magic, version and header length that open every archive
PREFIX_BYTES = 4 + _PREFIX.size


def pack_archive(magic: bytes, header: dict, records: Iterable[FastqRecord]) -> bytes:
    """Serialize: MAGIC | version | header-length | header-json | zlib(fastq)."""
    blob = json.dumps(header).encode("ascii")
    deflate = zlib.compressobj(level=6)
    parts = [magic, _PREFIX.pack(_VERSION, len(blob)), blob]
    parts.extend(deflate.compress(text) for text in render_fastq(records))
    parts.append(deflate.flush())
    return b"".join(parts)


def payload_offset(data: bytes, magic: bytes) -> int:
    """Where the payload of an archive starts, read from its first
    :data:`PREFIX_BYTES`; validates magic and version."""
    if data[:4] != magic:
        raise ValueError(f"not {_KIND[magic]} (bad magic)")
    version, header_len = _PREFIX.unpack_from(data, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported SRA archive version {version}")
    return PREFIX_BYTES + header_len


def unpack_archive(data: bytes, magic: bytes) -> tuple[dict, memoryview]:
    """(header, compressed payload) of a serialized archive, validating
    magic, version and library."""
    end = payload_offset(data, magic)
    header = json.loads(data[PREFIX_BYTES:end])
    LibraryType(header["library"])  # raises ValueError on an unknown library
    return header, memoryview(data)[end:]


class PayloadDecoder:
    """Inflates an archive payload fed as compressed chunks and frames its
    FASTQ text, at most :data:`~repro.reads.fastq.BLOCK_BYTES` of text
    per step.  ``paired`` payloads interleave mates, so whole pairs are
    framed together."""

    def __init__(self, source: str, *, paired: bool) -> None:
        self.source = source
        self._inflater = zlib.decompressobj()
        self._framer = FastqFramer(source, group=2 if paired else 1)

    def _inflate(self, data) -> bytes:
        try:
            return self._inflater.decompress(data, BLOCK_BYTES)
        except zlib.error as exc:
            raise ValueError(f"{self.source}: corrupt SRA payload ({exc})") from exc

    def feed(self, data) -> Iterator[FastqBlock]:
        """Blocks of the records this compressed chunk completes; raises
        on bytes past the end of the payload.  The chunk is inflated
        :data:`~repro.reads.fastq.BLOCK_BYTES` at a time, so zlib's copy
        of the unconsumed input stays bounded whatever its size."""
        view = memoryview(data)
        for start in range(0, len(view), BLOCK_BYTES):
            piece = view[start : start + BLOCK_BYTES]
            while piece and not self._inflater.eof:
                yield from self._framer.feed(self._inflate(piece))
                piece = self._inflater.unconsumed_tail
            # past the end of the stream zlib stops consuming input
            if piece or self._inflater.unused_data:
                raise ValueError(f"{self.source}: trailing bytes after SRA payload")

    def finish(self) -> Iterator[FastqBlock]:
        """The rest, once every chunk is fed; raises on a truncated payload."""
        yield from self._framer.feed(self._inflater.flush())
        if not self._inflater.eof:
            raise ValueError(f"{self.source}: truncated SRA payload")
        yield from self._framer.finish()


def decode_payload(payload, source: str, *, paired: bool) -> Iterator[FastqBlock]:
    """Framed blocks of a whole compressed payload."""
    decoder = PayloadDecoder(source, paired=paired)
    yield from decoder.feed(payload)
    yield from decoder.finish()


def decode_reads(payload, source: str, *, paired: bool) -> ReadBatch:
    """A whole compressed payload as one batch; archives keep whole ids."""
    return ReadBatch.concat(
        block.batch(whole_ids=True)
        for block in decode_payload(payload, source, paired=paired)
    )


def dump_payload(
    payload, source: str, paths: list[Path], expected: int
) -> list[ReadBatch]:
    """``fasterq-dump``'s body: inflate, frame and validate, normalise
    bases, write.  One path takes every record; two split the mates of an
    interleaved payload by record parity.  ``expected`` is the header's
    count of reads (or pairs).  On failure no output is left.

    Returns the reads written, one batch per path, with ids cut at the
    first whitespace: what :func:`~repro.reads.fastq.read_fastq` reads
    back from each file, framed once.
    """
    paired = len(paths) == 2
    framed: list[list[ReadBatch]] = [[] for _ in paths]
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "wb")) for path in paths]
            for block in decode_payload(payload, source, paired=paired):
                for fh, batches, (text, reads) in zip(
                    files, framed, block.dump(mates=paired)
                ):
                    fh.write(text)
                    batches.append(reads)
        found = sum(map(len, framed[0]))
        if found != expected:
            raise ValueError(
                f"corrupt SRA archive: header says {expected} "
                f"{'pairs' if paired else 'reads'}, payload has {found}"
            )
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    return [ReadBatch.concat(batches) for batches in framed]


@dataclass
class SraArchive:
    """One SRA run: metadata header + compressed read payload."""

    accession: str
    library: LibraryType
    #: a record list, or a batch when parsed from bytes
    records: Sequence[FastqRecord]

    @property
    def n_reads(self) -> int:
        return len(self.records)

    @property
    def read_length(self) -> int:
        return self.records[0].length if self.records else 0

    def to_bytes(self) -> bytes:
        """Serialize: MAGIC | version | header-length | header-json | zlib(fastq)."""
        header = {
            "accession": self.accession,
            "library": self.library.value,
            "n_reads": self.n_reads,
            "read_length": self.read_length,
        }
        return pack_archive(MAGIC_SINGLE, header, self.records)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SraArchive":
        """Parse a serialized archive, validating magic and version."""
        header, payload = unpack_archive(data, MAGIC_SINGLE)
        archive = cls(
            accession=header["accession"],
            library=LibraryType(header["library"]),
            records=decode_reads(payload, header["accession"], paired=False),
        )
        if archive.n_reads != header["n_reads"]:
            raise ValueError(
                f"corrupt SRA archive: header says {header['n_reads']} reads, "
                f"payload has {archive.n_reads}"
            )
        return archive

    def metadata(self, *, tissue: str = "unknown") -> SraRunMetadata:
        """Derive the repository catalog entry for this archive."""
        return self._catalog_entry(len(self.to_bytes()), tissue)

    def _catalog_entry(self, sra_bytes: int, tissue: str = "unknown") -> SraRunMetadata:
        return SraRunMetadata(
            accession=self.accession,
            library=self.library,
            n_reads=self.n_reads,
            read_length=self.read_length,
            sra_bytes=sra_bytes,
            fastq_bytes=fastq_byte_size(self.records),
            tissue=tissue,
        )


class SraRepository:
    """Accession-keyed archive store standing in for the NCBI SRA.

    In-memory by default; pass ``root`` to persist archives as
    ``<root>/<accession>.sra`` files.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._blobs: dict[str, bytes] = {}
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def deposit(self, archive: SraArchive) -> SraRunMetadata:
        """Store an archive; returns its catalog metadata."""
        blob = archive.to_bytes()
        if self.root is not None:
            (self.root / f"{archive.accession}.sra").write_bytes(blob)
        else:
            self._blobs[archive.accession] = blob
        return archive._catalog_entry(len(blob))

    def accessions(self) -> list[str]:
        """All deposited accessions, sorted."""
        if self.root is not None:
            return sorted(p.stem for p in self.root.glob("*.sra"))
        return sorted(self._blobs)

    def fetch_bytes(self, accession: str) -> bytes:
        """Raw archive bytes for ``accession``; KeyError when absent."""
        if self.root is not None:
            path = self.root / f"{accession}.sra"
            if not path.exists():
                raise KeyError(f"accession {accession!r} not in repository")
            return path.read_bytes()
        if accession not in self._blobs:
            raise KeyError(f"accession {accession!r} not in repository")
        return self._blobs[accession]

    def fetch_chunks(self, accession: str, chunk_bytes: int = 65536):
        """Raw archive bytes as an iterator of chunks (the streaming path).

        The base implementation slices :meth:`fetch_bytes`; wrappers that
        model transfer time (:class:`~repro.reads.stream.ThrottledRepository`)
        override this to charge per chunk so cancellation saves real time.
        """
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        blob = self.fetch_bytes(accession)
        return (
            blob[i : i + chunk_bytes] for i in range(0, len(blob), chunk_bytes)
        )

    def archive_bytes(self, accession: str) -> int:
        """Size of the stored archive in bytes (a metadata query)."""
        if self.root is not None:
            path = self.root / f"{accession}.sra"
            if not path.exists():
                raise KeyError(f"accession {accession!r} not in repository")
            return path.stat().st_size
        return len(self.fetch_bytes(accession))

    def __contains__(self, accession: str) -> bool:
        try:
            self.fetch_bytes(accession)
        except KeyError:
            return False
        return True


def prefetch(
    repository: SraRepository,
    accession: str,
    dest_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> Path:
    """Download an SRA container to ``dest_dir`` (pipeline step 1).

    Mirrors the NCBI tool's layout: ``<dest>/<accession>/<accession>.sra``.
    ``fault_plan`` lets the resilience harness script download failures
    (the real tool's most failure-prone step) before any bytes move.
    """
    if fault_plan is not None:
        fault_plan.check("prefetch", accession)
    dest = Path(dest_dir) / accession
    dest.mkdir(parents=True, exist_ok=True)
    out = dest / f"{accession}.sra"
    out.write_bytes(repository.fetch_bytes(accession))
    return out


def fasterq_dump(
    sra_path: Path | str,
    out_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> tuple[Path, ReadBatch]:
    """Convert an SRA container to FASTQ (pipeline step 2).

    Returns the path of the produced ``<accession>.fastq`` file and the
    reads written to it (see :func:`dump_payload`).
    """
    sra_path = Path(sra_path)
    if fault_plan is not None:
        fault_plan.check("fasterq_dump", sra_path.stem)
    header, payload = unpack_archive(sra_path.read_bytes(), MAGIC_SINGLE)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{header['accession']}.fastq"
    (reads,) = dump_payload(payload, header["accession"], [out], header["n_reads"])
    return out, reads


def load_archive(sra_path: Path | str) -> SraArchive:
    """Parse an on-disk ``.sra`` file into an :class:`SraArchive`."""
    return SraArchive.from_bytes(Path(sra_path).read_bytes())


def archive_from_fastq(
    accession: str, fastq_path: Path | str, library: LibraryType
) -> SraArchive:
    """Package an existing FASTQ file back into an archive (test utility)."""
    return SraArchive(accession, library, read_fastq(fastq_path))
