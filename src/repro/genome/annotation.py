"""Gene annotation model: genes, transcripts, exons, strand.

This is the minimum structure STAR's ``--quantMode GeneCounts`` needs:
gene extents for read-to-gene assignment and exon chains for the read
simulator and the splice-junction database (``sjdb``).
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.genome.alphabet import reverse_complement
from repro.genome.model import Assembly, SequenceRegion


class Strand(enum.Enum):
    """Genomic strand of a feature."""

    FORWARD = "+"
    REVERSE = "-"

    @property
    def sign(self) -> int:
        return 1 if self is Strand.FORWARD else -1


@dataclass(frozen=True)
class Exon:
    """One exon: a region plus its ordinal within the transcript."""

    region: SequenceRegion
    number: int

    @property
    def length(self) -> int:
        return self.region.length


@dataclass
class Transcript:
    """An ordered exon chain on one contig and strand.

    Exons are stored in genomic coordinate order regardless of strand;
    ``spliced_length`` and sequence extraction handle orientation.
    """

    transcript_id: str
    gene_id: str
    contig: str
    strand: Strand
    exons: list[Exon] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.exons:
            raise ValueError(f"transcript {self.transcript_id} has no exons")
        for exon in self.exons:
            if exon.region.contig != self.contig:
                raise ValueError(
                    f"exon on {exon.region.contig} in transcript on {self.contig}"
                )
        ordered = sorted(self.exons, key=lambda e: e.region.start)
        for a, b in zip(ordered, ordered[1:]):
            if a.region.end > b.region.start:
                raise ValueError(
                    f"overlapping exons in transcript {self.transcript_id}"
                )
        self.exons = ordered

    @property
    def start(self) -> int:
        return self.exons[0].region.start

    @property
    def end(self) -> int:
        return self.exons[-1].region.end

    @property
    def spliced_length(self) -> int:
        """Length of the mature (intron-less) transcript."""
        return sum(e.length for e in self.exons)

    @property
    def introns(self) -> list[SequenceRegion]:
        """Intron intervals between consecutive exons (genomic order)."""
        out: list[SequenceRegion] = []
        for a, b in zip(self.exons, self.exons[1:]):
            out.append(SequenceRegion(self.contig, a.region.end, b.region.start))
        return out

    @property
    def junctions(self) -> list[tuple[int, int]]:
        """Splice junctions as (donor_end, acceptor_start) genomic pairs."""
        return [(i.start, i.end) for i in self.introns]

    def spliced_sequence(self, assembly: Assembly) -> np.ndarray:
        """Extract the mature transcript sequence in 5'→3' orientation."""
        parts = [assembly.fetch(e.region) for e in self.exons]
        seq = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
        if self.strand is Strand.REVERSE:
            seq = reverse_complement(seq)
        return seq

    def genomic_position(self, transcript_offset: int) -> int:
        """Map a 0-based offset on the mature transcript to a genomic position.

        Accounts for strand: offset 0 is the transcript's 5' end.
        """
        if not 0 <= transcript_offset < self.spliced_length:
            raise IndexError(
                f"offset {transcript_offset} outside transcript of length "
                f"{self.spliced_length}"
            )
        if self.strand is Strand.FORWARD:
            remaining = transcript_offset
            for exon in self.exons:
                if remaining < exon.length:
                    return exon.region.start + remaining
                remaining -= exon.length
        else:
            remaining = transcript_offset
            for exon in reversed(self.exons):
                if remaining < exon.length:
                    return exon.region.end - 1 - remaining
                remaining -= exon.length
        raise AssertionError("unreachable: offset validated above")


@dataclass
class Gene:
    """A gene: named extent plus its transcripts."""

    gene_id: str
    name: str
    contig: str
    strand: Strand
    transcripts: list[Transcript] = field(default_factory=list)

    def __post_init__(self) -> None:
        for t in self.transcripts:
            if t.gene_id != self.gene_id:
                raise ValueError(
                    f"transcript {t.transcript_id} belongs to {t.gene_id}, "
                    f"not {self.gene_id}"
                )

    @property
    def start(self) -> int:
        return min(t.start for t in self.transcripts)

    @property
    def end(self) -> int:
        return max(t.end for t in self.transcripts)

    @property
    def region(self) -> SequenceRegion:
        return SequenceRegion(self.contig, self.start, self.end)


class _GeneIndex:
    """Per-contig interval index over gene extents.

    Genes are sorted by start (ties in annotation order) beside the
    running maximum of their ends, so a query bisects to the candidates
    that start before the region ends and whose prefix reaches past its
    start.  A query costs O(log G + m + k log k) for k hits (sorted back
    to annotation order), where m counts the genes nested in the
    earliest-starting hit that end before the region starts: m is 0 when
    no gene nests in another, but one gene spanning a whole contig makes
    every query on it O(G).
    """

    def __init__(self, genes: list[Gene]) -> None:
        self._position = {gene.gene_id: i for i, gene in enumerate(genes)}
        rows: dict[str, list[tuple[int, int, int]]] = {}
        for position, gene in enumerate(genes):
            if gene.transcripts:  # a gene without transcripts has no extent
                rows.setdefault(gene.contig, []).append(
                    (gene.start, position, gene.end)
                )
        #: contig -> (starts, running max of ends, ends, genes), in start order
        self._contigs: dict[str, tuple[list, list, list, list[Gene]]] = {}
        for contig, entries in rows.items():
            entries.sort()
            starts, positions, ends = (list(col) for col in zip(*entries))
            reach = list(itertools.accumulate(ends, max))
            by_start = [genes[i] for i in positions]
            self._contigs[contig] = (starts, reach, ends, by_start)

    def overlapping(self, region: SequenceRegion) -> list[Gene]:
        """Genes overlapping ``region``, in annotation order."""
        entry = self._contigs.get(region.contig)
        if entry is None:
            return []
        starts, reach, ends, genes = entry
        # overlap: gene.start < region.end and region.start < gene.end
        start = region.start
        hits = []
        for k in range(bisect_right(reach, start), bisect_left(starts, region.end)):
            if ends[k] > start:
                hits.append(genes[k])
        if len(hits) > 1:
            hits.sort(key=lambda gene: self._position[gene.gene_id])
        return hits


@dataclass
class Annotation:
    """All genes of an assembly, with index structures for assignment.

    The gene interval index is built on the first overlap query, so the
    gene list must not change after that.
    """

    genes: list[Gene] = field(default_factory=list)
    _index: _GeneIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ids = [g.gene_id for g in self.genes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate gene ids in annotation")

    def __len__(self) -> int:
        return len(self.genes)

    def __iter__(self):
        return iter(self.genes)

    @property
    def gene_ids(self) -> list[str]:
        return [g.gene_id for g in self.genes]

    @property
    def transcripts(self) -> list[Transcript]:
        return [t for g in self.genes for t in g.transcripts]

    def gene(self, gene_id: str) -> Gene:
        for g in self.genes:
            if g.gene_id == gene_id:
                return g
        raise KeyError(f"no gene {gene_id!r}")

    def genes_on(self, contig: str) -> list[Gene]:
        """Genes on one contig, sorted by start coordinate."""
        return sorted(
            (g for g in self.genes if g.contig == contig), key=lambda g: g.start
        )

    def assign_position(self, contig: str, position: int) -> Gene | None:
        """Return the gene whose extent covers (contig, position), if any.

        Where gene extents overlap, the first (lowest-start) match wins —
        matching STAR's "ambiguous counts to neither" is handled one level
        up in :mod:`repro.align.counts`, which needs *all* hits.
        """
        for g in self.genes_on(contig):
            if g.start <= position < g.end:
                return g
        return None

    def overlapping_genes(self, region: SequenceRegion) -> list[Gene]:
        """All genes whose extent overlaps ``region``, in annotation order."""
        if self._index is None:
            self._index = _GeneIndex(self.genes)
        return self._index.overlapping(region)

    def splice_junctions(self) -> list[tuple[str, int, int]]:
        """The annotated junction database: (contig, donor_end, acceptor_start).

        Deduplicated and sorted — this is what STAR calls the ``sjdb``.
        """
        seen: set[tuple[str, int, int]] = set()
        for t in self.transcripts:
            for start, end in t.junctions:
                seen.add((t.contig, start, end))
        return sorted(seen)
