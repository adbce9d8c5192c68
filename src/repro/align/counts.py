"""``--quantMode GeneCounts`` — per-gene read counting.

Reproduces STAR's ``ReadsPerGene.out.tab``: four special rows
(``N_unmapped``, ``N_multimapping``, ``N_noFeature``, ``N_ambiguous``)
followed by one row per gene, with three count columns for the three
strandedness conventions (unstranded, stranded-forward, stranded-reverse).
Only uniquely mapped reads are assigned to genes, as in STAR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.genome.annotation import Annotation, Gene, Strand
from repro.genome.model import SequenceRegion

#: Column order of ReadsPerGene.out.tab after the gene id.
STRAND_COLUMNS = ("unstranded", "forward", "reverse")

_SPECIAL_ROWS = ("N_unmapped", "N_multimapping", "N_noFeature", "N_ambiguous")


@dataclass(frozen=True)
class GeneCountsPartial:
    """Compact, annotation-free snapshot of one batch's gene counts.

    Worker processes in :mod:`repro.align.engine` count their batch locally
    and ship this partial back (only non-zero genes) instead of the whole
    :class:`GeneCounts`, whose ``annotation`` would be re-pickled per batch.
    Merging partials batch-by-batch in read order reproduces exactly the
    counts a serial run accumulates.
    """

    n_unmapped: int
    n_multimapping: int
    n_no_feature: dict[str, int]
    n_ambiguous: dict[str, int]
    gene_counts: dict[str, dict[str, int]]

    def __add__(self, other: "GeneCountsPartial") -> "GeneCountsPartial":
        """The partial of two batches' reads together."""
        genes = {g: dict(row) for g, row in self.gene_counts.items()}
        for gene_id, row in other.gene_counts.items():
            mine = genes.setdefault(gene_id, dict.fromkeys(row, 0))
            for c, n in row.items():
                mine[c] = mine.get(c, 0) + n
        return GeneCountsPartial(
            n_unmapped=self.n_unmapped + other.n_unmapped,
            n_multimapping=self.n_multimapping + other.n_multimapping,
            n_no_feature=_sum_columns(self.n_no_feature, other.n_no_feature),
            n_ambiguous=_sum_columns(self.n_ambiguous, other.n_ambiguous),
            gene_counts=genes,
        )


def _sum_columns(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    return {c: a.get(c, 0) + b.get(c, 0) for c in dict.fromkeys([*a, *b])}


def partial_from_blocks(
    annotation: Annotation,
    *,
    n_unmapped: int,
    n_multimapping: int,
    assigned: np.ndarray,
    forward: np.ndarray,
    owner: np.ndarray,
    contig_names: tuple[str, ...],
    contig: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> GeneCountsPartial:
    """GeneCounts of many reads at once: :meth:`GeneCounts.record_unique`
    over arrays.

    ``assigned`` marks the reads to assign to genes and ``forward`` their
    strand; block ``b`` (``contig_names[contig[b]]``, ``[start[b],
    end[b])``) belongs to read ``owner[b]``.  A gene matches a read when
    any of its blocks overlaps the gene's extent; each strand column then
    resolves the read to one gene, ``N_noFeature`` or ``N_ambiguous``.
    Every count is a Python int, so the partial JSON-encodes.
    """
    index = annotation.gene_index
    n_genes = len(index.gene_ids)
    block, gene = index.overlap_pairs(contig_names, contig, start, end)
    # one (read, gene) pair per gene a read overlaps, however many blocks do
    pairs = np.unique(owner[block] * max(n_genes, 1) + gene)
    read, gene = np.divmod(pairs, max(n_genes, 1))
    same = index.forward[gene] == forward[read]
    no_feature: dict[str, int] = {}
    ambiguous: dict[str, int] = {}
    per_gene = np.zeros((len(STRAND_COLUMNS), n_genes), dtype=np.int64)
    for row, (column, match) in enumerate(
        zip(STRAND_COLUMNS, (np.ones_like(same), same, ~same))
    ):
        genes_of = np.bincount(read[match], minlength=assigned.size)
        no_feature[column] = int(np.count_nonzero(assigned & (genes_of == 0)))
        ambiguous[column] = int(np.count_nonzero(genes_of > 1))
        single = genes_of[read[match]] == 1
        per_gene[row] = np.bincount(gene[match][single], minlength=n_genes)
    ids = index.gene_ids
    return GeneCountsPartial(
        n_unmapped=int(n_unmapped),
        n_multimapping=int(n_multimapping),
        n_no_feature=no_feature,
        n_ambiguous=ambiguous,
        gene_counts={
            ids[g]: dict(zip(STRAND_COLUMNS, per_gene[:, g].tolist()))
            for g in np.flatnonzero(per_gene.any(axis=0)).tolist()
        },
    )


@dataclass
class GeneCounts:
    """Accumulator for gene-level counts over one alignment run."""

    annotation: Annotation
    n_unmapped: int = 0
    n_multimapping: int = 0
    #: per-strandedness convention: noFeature/ambiguous and per-gene counts
    n_no_feature: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in STRAND_COLUMNS}
    )
    n_ambiguous: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in STRAND_COLUMNS}
    )
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for gene_id in self.annotation.gene_ids:
            self.counts.setdefault(gene_id, {c: 0 for c in STRAND_COLUMNS})

    # -- accumulation ------------------------------------------------------

    def record_unmapped(self) -> None:
        self.n_unmapped += 1

    def record_multimapped(self) -> None:
        self.n_multimapping += 1

    def record_unique(
        self, blocks: list[SequenceRegion], read_strand: Strand
    ) -> None:
        """Assign one uniquely mapped read given its exonic blocks.

        A gene matches when any block overlaps its extent.  For the two
        stranded conventions the gene must additionally lie on the matching
        strand (forward = read strand equals gene strand; reverse =
        opposite, as for dUTP protocols).
        """
        overlapping: list[Gene] = []
        seen: set[str] = set()
        for block in blocks:
            for gene in self.annotation.overlapping_genes(block):
                if gene.gene_id not in seen:
                    seen.add(gene.gene_id)
                    overlapping.append(gene)
        self._tally("unstranded", overlapping)
        same = [g for g in overlapping if g.strand is read_strand]
        opposite = [g for g in overlapping if g.strand is not read_strand]
        self._tally("forward", same)
        self._tally("reverse", opposite)

    def _tally(self, column: str, genes: list[Gene]) -> None:
        if not genes:
            self.n_no_feature[column] += 1
        elif len(genes) > 1:
            self.n_ambiguous[column] += 1
        else:
            self.counts[genes[0].gene_id][column] += 1

    # -- partials (parallel engine) ------------------------------------------

    def to_partial(self) -> GeneCountsPartial:
        """Extract the non-zero state as an annotation-free partial."""
        return GeneCountsPartial(
            n_unmapped=self.n_unmapped,
            n_multimapping=self.n_multimapping,
            n_no_feature=dict(self.n_no_feature),
            n_ambiguous=dict(self.n_ambiguous),
            gene_counts={
                gene_id: dict(row)
                for gene_id, row in self.counts.items()
                if any(row[c] for c in STRAND_COLUMNS)
            },
        )

    def merge_partial(self, partial: GeneCountsPartial) -> None:
        """Add one batch's partial into this accumulator."""
        self.n_unmapped += partial.n_unmapped
        self.n_multimapping += partial.n_multimapping
        for c in STRAND_COLUMNS:
            self.n_no_feature[c] += partial.n_no_feature[c]
            self.n_ambiguous[c] += partial.n_ambiguous[c]
        for gene_id, row in partial.gene_counts.items():
            mine = self.counts[gene_id]
            for c in STRAND_COLUMNS:
                mine[c] += row[c]

    # -- reporting -----------------------------------------------------------

    def total_assigned(self, column: str = "unstranded") -> int:
        """Reads assigned to exactly one gene under ``column``."""
        return sum(c[column] for c in self.counts.values())

    def column_vector(self, column: str = "unstranded") -> dict[str, int]:
        """Gene id → count for one strandedness convention."""
        return {g: c[column] for g, c in self.counts.items()}

    def to_tab(self) -> str:
        """Render as ``ReadsPerGene.out.tab`` text."""
        lines = [
            "\t".join(
                [
                    "N_unmapped",
                    str(self.n_unmapped),
                    str(self.n_unmapped),
                    str(self.n_unmapped),
                ]
            ),
            "\t".join(
                [
                    "N_multimapping",
                    str(self.n_multimapping),
                    str(self.n_multimapping),
                    str(self.n_multimapping),
                ]
            ),
            "\t".join(
                ["N_noFeature"] + [str(self.n_no_feature[c]) for c in STRAND_COLUMNS]
            ),
            "\t".join(
                ["N_ambiguous"] + [str(self.n_ambiguous[c]) for c in STRAND_COLUMNS]
            ),
        ]
        for gene_id in self.annotation.gene_ids:
            row = self.counts[gene_id]
            lines.append(
                "\t".join([gene_id] + [str(row[c]) for c in STRAND_COLUMNS])
            )
        return "\n".join(lines) + "\n"

    def write_tab(self, path: Path | str) -> None:
        """Write ``ReadsPerGene.out.tab``."""
        Path(path).write_text(self.to_tab())


def read_counts_tab(path: Path | str) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Parse a ``ReadsPerGene.out.tab`` file.

    Returns ``(specials, genes)`` where ``specials`` maps the N_* rows to
    their unstranded value and ``genes`` maps gene id to the three-column
    count list.
    """
    specials: dict[str, int] = {}
    genes: dict[str, list[int]] = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"malformed counts line: {line!r}")
        name, values = fields[0], [int(v) for v in fields[1:]]
        if name in _SPECIAL_ROWS:
            specials[name] = values[0]
        else:
            genes[name] = values
    return specials, genes
