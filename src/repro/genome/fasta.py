"""FASTA reading and writing for :class:`~repro.genome.model.Assembly`.

Writes Ensembl-style headers carrying the assembly level in the
description field (``>1 dna:chromosome ...``), and parses them back, so a
round-trip preserves the level information the release model depends on.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

from repro.genome.alphabet import decode, encode
from repro.genome.model import Assembly, AssemblyLevel, Contig

_LEVEL_TOKEN = {
    AssemblyLevel.CHROMOSOME: "chromosome",
    AssemblyLevel.UNLOCALIZED: "unlocalized",
    AssemblyLevel.UNPLACED: "unplaced",
    AssemblyLevel.ALT: "alt",
}
_TOKEN_LEVEL = {v: k for k, v in _LEVEL_TOKEN.items()}

_LINE_WIDTH = 60  # Ensembl FASTA wraps at 60 columns


def _open_text(path: Path | str, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_fasta(assembly: Assembly, path: Path | str) -> None:
    """Write an assembly as (optionally gzipped) Ensembl-style FASTA."""
    with _open_text(path, "w") as fh:
        _write_fasta_stream(assembly, fh)


def fasta_bytes(assembly: Assembly) -> bytes:
    """Render an assembly to in-memory FASTA bytes (used by the mock S3)."""
    buf = io.StringIO()
    _write_fasta_stream(assembly, buf)
    return buf.getvalue().encode("ascii")


def _write_fasta_stream(assembly: Assembly, fh) -> None:
    for contig in assembly:
        token = _LEVEL_TOKEN[contig.level]
        fh.write(f">{contig.name} dna:{token} {assembly.name}:{contig.name}:1:{contig.length}:1\n")
        text = decode(contig.sequence)
        for start in range(0, len(text), _LINE_WIDTH):
            fh.write(text[start : start + _LINE_WIDTH])
            fh.write("\n")


def read_fasta(path: Path | str, *, name: str | None = None) -> Assembly:
    """Parse a FASTA file into an :class:`Assembly`.

    Headers without a ``dna:<level>`` token default to CHROMOSOME; this
    accepts both our own output and plain third-party FASTA.
    """
    path = Path(path)
    contigs: list[Contig] = []
    current_name: str | None = None
    current_level = AssemblyLevel.CHROMOSOME
    chunks: list[str] = []

    def flush() -> None:
        if current_name is None:
            return
        sequence = encode("".join(chunks))
        contigs.append(Contig(current_name, sequence, current_level))

    with _open_text(path, "r") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                flush()
                chunks = []
                header = line[1:].split()
                current_name = header[0]
                current_level = AssemblyLevel.CHROMOSOME
                for token in header[1:]:
                    if token.startswith("dna:"):
                        current_level = _TOKEN_LEVEL.get(
                            token[4:], AssemblyLevel.CHROMOSOME
                        )
            else:
                if current_name is None:
                    raise ValueError(f"{path}: sequence data before first header")
                chunks.append(line)
    flush()
    return Assembly(name=name or path.stem, contigs=contigs)


def read_fasta_bytes(data: bytes, *, name: str = "assembly") -> Assembly:
    """Parse in-memory FASTA bytes (counterpart of :func:`fasta_bytes`)."""
    contigs: list[Contig] = []
    current_name: str | None = None
    current_level = AssemblyLevel.CHROMOSOME
    chunks: list[str] = []

    def flush() -> None:
        if current_name is None:
            return
        contigs.append(Contig(current_name, encode("".join(chunks)), current_level))

    for raw in data.decode("ascii").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            chunks = []
            header = line[1:].split()
            current_name = header[0]
            current_level = AssemblyLevel.CHROMOSOME
            for token in header[1:]:
                if token.startswith("dna:"):
                    current_level = _TOKEN_LEVEL.get(token[4:], AssemblyLevel.CHROMOSOME)
        else:
            chunks.append(line)
    flush()
    return Assembly(name=name, contigs=contigs)
