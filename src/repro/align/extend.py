"""Mismatch-budgeted ungapped extension and alignment scoring.

After seeding, candidate placements are verified by direct comparison
against the genome with a mismatch budget — the local-alignment score
model is STAR's default (match +1, mismatch −1) without indels, which is
sufficient for the substitution-only error model of our read simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.index import GenomeIndex
from repro.genome.alphabet import BASE_N

#: width of the first comparison chunk of the batch extension: a spurious
#: candidate usually passes the mismatch budget within a few columns
#: (90% within 8 on the perfbench workloads), so the opening chunk stays
#: narrow and later chunks double for the rows still within budget
_FIRST_CHUNK = 8

#: widest comparison chunk; bounds the (rows x columns) gather however
#: long a segment is
_MAX_CHUNK = 256


@dataclass(frozen=True)
class ScoringParams:
    """Alignment scoring and acceptance thresholds (STAR-flavoured defaults)."""

    match_score: int = 1
    mismatch_penalty: int = 1
    #: maximum mismatches accepted in a full-read placement
    max_mismatches: int = 4
    #: minimum fraction of the read that must be matched for acceptance
    #: (STAR's ``--outFilterMatchNminOverLread``, default 0.66)
    min_matched_fraction: float = 0.66

    def score(self, matched: int, mismatched: int) -> int:
        """Alignment score for the given match/mismatch counts."""
        return matched * self.match_score - mismatched * self.mismatch_penalty

    def accepts(self, matched: int, mismatched: int, read_length: int) -> bool:
        """Acceptance test for a candidate placement."""
        return (
            mismatched <= self.max_mismatches
            and matched >= self.min_matched_fraction * read_length
        )


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of placing a read segment at one genome position."""

    genome_start: int
    length: int
    mismatches: int
    ok: bool

    @property
    def matched(self) -> int:
        return self.length - self.mismatches


def batch_ungapped_extend(
    index: GenomeIndex,
    bases: np.ndarray,
    seg_offsets: np.ndarray,
    seg_lengths: np.ndarray,
    genome_starts: np.ndarray,
    *,
    max_mismatches: int,
    verified_prefix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mismatch-budgeted :func:`ungapped_extend` over many (segment, position) pairs.

    ``bases`` is a packed pool of uint8 base codes; pair ``i`` compares
    ``bases[seg_offsets[i] : seg_offsets[i] + seg_lengths[i]]`` against
    the genome at ``genome_starts[i]``.  Returns ``(mismatches, ok)``
    arrays:

    * ``ok[i]`` is exactly what :func:`ungapped_extend` reports for the
      same pair, including the zero-length ``ok=True`` convention;
    * ``mismatches[i]`` is that function's count whenever it is within
      ``max_mismatches``, some count above ``max_mismatches`` when the
      pair is over the budget, and the segment length when the segment
      crosses a contig boundary or runs off the genome.

    Pairs that fail the span checks never reach the comparison.  The
    others are compared in column chunks gathered from the search
    context's resident genome: the first chunk is :data:`_FIRST_CHUNK`
    columns wide, each next one twice as wide up to :data:`_MAX_CHUNK`,
    and a pair retires as soon as its count passes the budget or its
    segment ends.  A spurious seed hit is thus dropped after a few
    columns instead of being compared over the whole segment, as STAR's
    ``extendAlign`` drops a candidate past its mismatch limit.

    The always-mismatch rule for ``N`` is folded into the comparison by
    remapping read-side ``N`` (code 4) to the out-of-alphabet code 5:
    genome ``N`` stays 4, so any pairing that involves an ``N`` on either
    side compares unequal without the two extra equality passes.

    ``verified_prefix[i]`` (optional) asserts that the first that-many
    columns of pair ``i`` are known mismatch-free — the caller's seed
    already matched them symbol-for-symbol — so the comparison starts
    there; the span checks still cover the full segment extent.  N-free
    MMP prefixes qualify (an ``N``/``N`` pairing advances the seed walk
    but counts as an extension mismatch, so prefixes containing read
    ``N`` must pass 0).
    """
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    seg_lengths = np.asarray(seg_lengths, dtype=np.int64)
    genome_starts = np.asarray(genome_starts, dtype=np.int64)
    n_pairs = int(seg_offsets.size)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    n_bases = index.n_bases
    offsets = np.asarray(index.offsets, dtype=np.int64)
    in_genome = (
        (seg_lengths > 0)
        & (genome_starts >= 0)
        & (genome_starts + seg_lengths <= n_bases)
    )
    # contig containment: same searchsorted that contig_of performs, done
    # once for the whole batch (clip keeps out-of-range starts indexable;
    # their in_genome=False already forces span failure)
    contig = np.searchsorted(offsets, genome_starts, side="right") - 1
    contig = np.clip(contig, 0, len(offsets) - 2)
    ok_span = in_genome & (genome_starts + seg_lengths <= offsets[contig + 1])

    mismatches = np.where(ok_span, 0, seg_lengths)
    skip = (
        np.zeros(n_pairs, dtype=np.int64)
        if verified_prefix is None
        else np.asarray(verified_prefix, dtype=np.int64)
    )
    # one row per pair still to compare, compacted as rows retire
    rows = np.flatnonzero(ok_span & (seg_lengths > skip))
    g_at = genome_starts[rows] + skip[rows]
    r_at = seg_offsets[rows] + skip[rows]
    left = seg_lengths[rows] - skip[rows]
    count = np.zeros(rows.size, dtype=np.int64)
    # the read pool is batch-sized, so it alone is padded (no chunk reads
    # past its end) and copied for the N remap; the genome is gathered in
    # place through clamped indices (a clamped column lies past its row's
    # segment end, so it is masked)
    pool = np.zeros(bases.size + _MAX_CHUNK, dtype=np.uint8)
    np.add(bases, bases == BASE_N, out=pool[: bases.size], casting="unsafe")
    genome = index.search_context.genome_arr
    last = genome.size - 1
    chunk = _FIRST_CHUNK
    while rows.size:
        cols = np.arange(chunk, dtype=np.int64)
        g = genome[np.minimum(g_at[:, None] + cols, last)]
        diff = (g != pool[r_at[:, None] + cols]) & (cols < left[:, None])
        count += np.count_nonzero(diff, axis=1)
        left -= chunk
        going = (left > 0) & (count <= max_mismatches)
        mismatches[rows[~going]] = count[~going]
        rows, count, left = rows[going], count[going], left[going]
        g_at, r_at = g_at[going] + chunk, r_at[going] + chunk
        chunk = min(2 * chunk, _MAX_CHUNK)
    ok = (seg_lengths == 0) | (ok_span & (mismatches <= max_mismatches))
    return mismatches, ok


def ungapped_extend(
    index: GenomeIndex,
    read_segment: np.ndarray,
    genome_start: int,
    *,
    max_mismatches: int,
) -> ExtensionResult:
    """Compare ``read_segment`` against the genome at ``genome_start``.

    Fails (``ok=False``) when the segment would cross a contig boundary or
    run off the genome, or when mismatches exceed the budget.  ``N`` bases
    on either side always count as mismatches (STAR treats genome N the
    same way).
    """
    seg = np.asarray(read_segment, dtype=np.uint8)
    length = int(seg.size)
    if length == 0:
        return ExtensionResult(genome_start, 0, 0, ok=True)
    if not index.span_within_contig(genome_start, length):
        return ExtensionResult(genome_start, length, length, ok=False)
    window = index.genome[genome_start : genome_start + length]
    diff = (window != seg) | (window == BASE_N) | (seg == BASE_N)
    mismatches = int(diff.sum())
    return ExtensionResult(
        genome_start=genome_start,
        length=length,
        mismatches=mismatches,
        ok=mismatches <= max_mismatches,
    )
