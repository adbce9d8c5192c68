"""Splice-aware two-segment stitching.

When a read spans an exon-exon junction, its maximal mappable prefix ends
exactly at the junction (the rest of the read continues at the acceptor
site, possibly megabases downstream).  STAR stitches the prefix seed and a
seed for the remainder into one spliced alignment when the implied intron
is plausible: same contig, length within bounds, and either a canonical
``GT..AG`` motif or membership in the annotated junction database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.extend import ScoringParams, ungapped_extend
from repro.align.index import GenomeIndex
from repro.align.seeds import maximal_mappable_prefix
from repro.genome.alphabet import BASE_A, BASE_G, BASE_T

#: STAR defaults: ``--alignIntronMin 21``, ``--alignIntronMax`` ~ 1e6 shrunk
#: to mini-genome scale (intron model in repro.genome.synth uses ~300 bp).
DEFAULT_MIN_INTRON = 21
DEFAULT_MAX_INTRON = 100_000

#: hits of the remainder seed a spliced stitch tries as acceptors
REMAINDER_MAX_HITS = 20


@dataclass(frozen=True)
class SplicedSegment:
    """One exonic block of a spliced alignment."""

    genome_start: int
    read_start: int
    length: int


@dataclass(frozen=True)
class SplicedAlignment:
    """A two-block spliced placement of a read."""

    segments: tuple[SplicedSegment, SplicedSegment]
    intron_start: int
    intron_end: int
    mismatches: int
    canonical: bool
    annotated: bool

    @property
    def genome_start(self) -> int:
        return self.segments[0].genome_start

    @property
    def genome_end(self) -> int:
        last = self.segments[1]
        return last.genome_start + last.length

    @property
    def intron_length(self) -> int:
        return self.intron_end - self.intron_start

    @property
    def aligned_length(self) -> int:
        return sum(s.length for s in self.segments)


def is_canonical_motif(index: GenomeIndex, intron_start: int, intron_end: int) -> bool:
    """True when the intron starts with GT and ends with AG (forward strand)."""
    genome = index.genome
    if intron_start + 2 > genome.size or intron_end - 2 < 0:
        return False
    donor = genome[intron_start : intron_start + 2]
    acceptor = genome[intron_end - 2 : intron_end]
    return (
        donor[0] == BASE_G
        and donor[1] == BASE_T
        and acceptor[0] == BASE_A
        and acceptor[1] == BASE_G
    )


def stitch_spliced(
    index: GenomeIndex,
    read: np.ndarray,
    prefix_length: int,
    prefix_position: int,
    *,
    scoring: ScoringParams,
    min_intron: int = DEFAULT_MIN_INTRON,
    max_intron: int = DEFAULT_MAX_INTRON,
    max_candidates: int = REMAINDER_MAX_HITS,
) -> SplicedAlignment | None:
    """Try to stitch ``read`` as prefix@prefix_position + spliced remainder.

    The prefix ``read[:prefix_length]`` is assumed placed (exactly) at
    ``prefix_position``.  Searches occurrences of the remainder downstream
    on the same contig within intron bounds, verifies the remainder with
    the scoring mismatch budget, and validates the junction (canonical
    motif or sjdb).  Returns the best candidate by (fewest mismatches,
    shortest intron), or None.
    """
    n = int(read.size)
    remainder_start = prefix_length
    remainder = read[remainder_start:]
    if remainder.size == 0 or prefix_length == 0:
        return None

    donor = prefix_position + prefix_length  # first intron base, absolute
    seed = maximal_mappable_prefix(
        index, read, read_start=remainder_start, max_hits=max_candidates
    )
    if seed.length == 0:
        return None

    best: SplicedAlignment | None = None
    for q in seed.positions:
        # remainder seed hit at q means acceptor (first exonic base) is q
        intron_len = q - donor
        if not min_intron <= intron_len <= max_intron:
            continue
        if index.contig_of(q) != index.contig_of(prefix_position):
            continue
        ext = ungapped_extend(
            index, remainder, q, max_mismatches=scoring.max_mismatches
        )
        if not ext.ok:
            continue
        canonical = is_canonical_motif(index, donor, q)
        annotated = index.is_annotated_junction(donor, q)
        if not canonical and not annotated:
            continue
        candidate = SplicedAlignment(
            segments=(
                SplicedSegment(prefix_position, 0, prefix_length),
                SplicedSegment(q, remainder_start, n - remainder_start),
            ),
            intron_start=donor,
            intron_end=q,
            mismatches=ext.mismatches,
            canonical=canonical,
            annotated=annotated,
        )
        if best is None or (candidate.mismatches, candidate.intron_length) < (
            best.mismatches,
            best.intron_length,
        ):
            best = candidate
    return best
