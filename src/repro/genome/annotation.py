"""Gene annotation model: genes, transcripts, exons, strand.

This is the minimum structure STAR's ``--quantMode GeneCounts`` needs:
gene extents for read-to-gene assignment and exon chains for the read
simulator and the splice-junction database (``sjdb``).
"""

from __future__ import annotations

import enum
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


#: key stride per contig in the gene index: contig rank * _SPAN + coordinate
#: keeps every contig's keys in its own range (contigs stay below 2**40 bp)
_SPAN = 1 << 40


class _GeneIndex:
    """Interval index over gene extents, held as arrays.

    Genes with an extent are sorted by (contig, start, annotation
    position).  Each contig's genes own one key range, ``rank * _SPAN +
    coordinate``, so one sorted array of start keys and one of the
    running maximum of end keys serve every contig: a region's
    candidates are the genes that start before it ends and whose prefix
    reaches past its start, and a candidate overlaps when its own end
    does.  :meth:`overlapping` answers one region; :meth:`overlap_pairs`
    answers a whole batch of blocks with the same arrays.  A query costs
    O(log G + m + k log k) for k hits (sorted back to annotation order),
    where m counts the genes nested in the earliest-starting hit that end
    before the region starts: m is 0 when no gene nests in another, but
    one gene spanning a whole contig makes every query on it O(G).
    """

    def __init__(self, genes: list[Gene]) -> None:
        self.genes = genes
        self.gene_ids = [gene.gene_id for gene in genes]
        #: per annotation position: the gene lies on the forward strand
        self.forward = np.array(
            [gene.strand is Strand.FORWARD for gene in genes], dtype=bool
        )
        # a gene without transcripts has no extent
        placed = [(p, g) for p, g in enumerate(genes) if g.transcripts]
        self._rank = {
            contig: rank
            for rank, contig in enumerate(dict.fromkeys(g.contig for _, g in placed))
        }
        rows = sorted((self._rank[g.contig], g.start, p, g.end) for p, g in placed)
        rank, start, position, end = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        self._start_key = rank * _SPAN + start
        # contigs are sorted by rank and ends stay below _SPAN, so the
        # global running maximum is each contig's own running maximum
        self._reach_key = np.maximum.accumulate(rank * _SPAN + end)
        self._end = end
        self._position = position

    def overlapping(self, region: SequenceRegion) -> list[Gene]:
        """Genes overlapping ``region``, in annotation order."""
        rank = self._rank.get(region.contig)
        if rank is None:
            return []
        start = rank * _SPAN + min(region.start, _SPAN - 1)
        end = rank * _SPAN + min(region.end, _SPAN - 1)
        lo = int(np.searchsorted(self._reach_key, start, "right"))
        hi = int(np.searchsorted(self._start_key, end, "left"))
        # overlap: gene.start < region.end and region.start < gene.end
        hits = self._position[lo:hi][self._end[lo:hi] > region.start]
        return [self.genes[p] for p in np.sort(hits).tolist()]

    def overlap_pairs(
        self,
        contig_names: tuple[str, ...],
        contig: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every (block, gene) overlap among blocks ``[start, end)`` on
        ``contig_names[contig]``: block indices and annotation positions."""
        ranks = np.array(
            [self._rank.get(name, -1) for name in contig_names], dtype=np.int64
        )
        rank = ranks[contig] if contig.size else contig
        base = rank * _SPAN
        lo = np.searchsorted(
            self._reach_key, base + np.minimum(start, _SPAN - 1), "right"
        )
        hi = np.searchsorted(self._start_key, base + np.minimum(end, _SPAN - 1), "left")
        width = np.where(rank >= 0, np.maximum(hi - lo, 0), 0)
        block = np.repeat(np.arange(width.size), width)
        first = np.cumsum(width) - width
        k = np.repeat(lo, width) + np.arange(block.size) - np.repeat(first, width)
        hit = self._end[k] > start[block]
        return block[hit], self._position[k[hit]]


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

    @property
    def gene_index(self) -> _GeneIndex:
        """The gene interval index (built on first use)."""
        if self._index is None:
            self._index = _GeneIndex(self.genes)
        return self._index

    def overlapping_genes(self, region: SequenceRegion) -> list[Gene]:
        """All genes whose extent overlaps ``region``, in annotation order."""
        return self.gene_index.overlapping(region)

    def splice_junctions(self) -> list[tuple[str, int, int]]:
        """The annotated junction database: (contig, donor_end, acceptor_start).

        Deduplicated and sorted — this is what STAR calls the ``sjdb``.
        """
        seen: set[tuple[str, int, int]] = set()
        for t in self.transcripts:
            for start, end in t.junctions:
                seen.add((t.contig, start, end))
        return sorted(seen)
