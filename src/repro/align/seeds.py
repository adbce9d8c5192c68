"""Maximal Mappable Prefix (MMP) seed search.

STAR's core operation (Dobin et al. 2013, §2.1): for a read position, find
the longest read prefix that exactly matches somewhere in the genome, along
with all genome positions where that prefix occurs.  Repeating the search
from the first unmapped base gives the sequential seed decomposition that
spliced stitching works on.

The search runs in three regimes, each bit-identical to the plain
one-symbol-at-a-time interval narrowing (see the equivalence suite in
``tests/align/test_seeds.py``):

1. the first L symbols resolve through the index's
   :class:`~repro.align.suffix_array.PrefixJumpTable` — one O(1) lookup
   per symbol instead of two binary searches, and the walk stops at the
   exact depth where the interval would empty, preserving early-stop
   decisions;
2. past depth L, :meth:`SearchContext.extend` narrows with binary
   searches as before;
3. once the interval holds a single suffix, the remaining match length
   is the longest common extension of read and genome there, computed
   with chunked ``bytes`` comparison instead of per-symbol searches.

This module is the *per-read* search and the reference oracle;
:func:`repro.align.batch.batch_mmp` resolves a whole read batch at once,
the first ten symbols of every query through the index's sorted suffix
keys and the rest through vectorized forms of regimes 2 and 3.  The two
are contractually interchangeable: identical seeds *and* identical
:class:`~repro.align.suffix_array.SeedSearchStats` counter deltas
(``batch_queries`` aside, which only the batch path increments), the
batch path deriving its table, narrowing and LCE counts in closed form.
``tests/align/test_seed_parity.py`` asserts both on the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.index import GenomeIndex

#: chunk width for the single-suffix common-extension scan; a mismatch is
#: located with at most one chunk compare + one short linear scan
_LCE_CHUNK = 32


@dataclass(frozen=True)
class SeedHit:
    """One MMP result: read span ``[read_start, read_start+length)`` and hits.

    ``positions`` are absolute genome positions of the exact matches,
    truncated to ``max_hits`` by the caller's request (``n_hits`` keeps the
    true count for multimapper accounting).
    """

    read_start: int
    length: int
    positions: tuple[int, ...]
    n_hits: int

    @property
    def read_end(self) -> int:
        return self.read_start + self.length


def _common_extension(
    genome: bytes, gpos: int, read_bytes: bytes, rpos: int, limit: int
) -> int:
    """Length of the common prefix of ``genome[gpos:]`` and ``read_bytes[rpos:]``
    within ``limit`` symbols, via memcmp-speed slice comparisons."""
    if limit <= 0:
        return 0
    if genome[gpos : gpos + limit] == read_bytes[rpos : rpos + limit]:
        return limit
    matched = 0
    while True:
        chunk = min(_LCE_CHUNK, limit - matched)
        if (
            genome[gpos + matched : gpos + matched + chunk]
            == read_bytes[rpos + matched : rpos + matched + chunk]
        ):
            matched += chunk
            continue
        end = matched + chunk
        while matched < end and genome[gpos + matched] == read_bytes[rpos + matched]:
            matched += 1
        return matched


def maximal_mappable_prefix(
    index: GenomeIndex,
    read: np.ndarray,
    *,
    read_start: int = 0,
    max_hits: int = 50,
    read_list: list[int] | None = None,
) -> SeedHit:
    """Longest exact match of ``read[read_start:]`` prefixes in the genome.

    Walks the suffix-array interval and keeps the last non-empty one;
    returns a zero-length hit when even the first symbol does not occur.
    Uses the index's precomputed
    :class:`~repro.align.suffix_array.SearchContext` — jump table, then
    binary narrowing, then single-suffix byte comparison (see module
    docstring) — the aligner's measured hot path.

    ``read_list`` lets callers that re-seed the same read repeatedly (the
    aligner queries each orientation up to twice) pay the numpy→list
    conversion once instead of per call.
    """
    ctx = index.search_context
    if read_list is None:
        read_list = read.tolist()
    n = len(read_list)
    stats = ctx.stats
    stats.queries += 1
    lo, hi = 0, ctx.n
    depth = 0
    dead = False

    jump_length = ctx.jump_length
    if jump_length and hi:
        bounds = ctx.jump_bounds
        strides = ctx.jump_strides
        remaining = n - read_start
        limit = jump_length if remaining >= jump_length else remaining
        code = 0
        while depth < limit:
            code = code * 6 + read_list[read_start + depth] + 1
            stride = strides[depth + 1]
            base = code * stride
            nlo = bounds[base]
            nhi = bounds[base + stride]
            if nlo >= nhi:
                dead = True
                break
            lo, hi = nlo, nhi
            depth += 1
        stats.binary_steps_saved += 2 * depth
        if dead:
            stats.table_fallbacks += 1
            stats.fallback_depths[depth] = stats.fallback_depths.get(depth, 0) + 1
        else:
            stats.table_hits += 1

    if not dead:
        genome = ctx.genome_bytes
        sa = ctx.sa_view
        extend = ctx.extend
        while read_start + depth < n:
            if hi - lo == 1:
                # single candidate: the rest of the MMP is the longest
                # common extension of read and genome at that suffix
                pos = sa[lo] + depth
                start = read_start + depth
                matched = _common_extension(
                    genome,
                    pos,
                    bytes(read_list),
                    start,
                    min(n - start, ctx.n - pos),
                )
                depth += matched
                stats.lce_skips += matched
                break
            symbol = read_list[read_start + depth]
            nlo, nhi = extend(lo, hi, depth, symbol)
            stats.extend_steps += 1
            if nlo >= nhi:
                break
            lo, hi = nlo, nhi
            depth += 1

    if depth == 0:
        return SeedHit(read_start=read_start, length=0, positions=(), n_hits=0)
    n_hits = hi - lo
    # one slice materializes every shown position; sorting is skipped for
    # the common unique-hit case
    shown = ctx.sa_view[lo : min(hi, lo + max_hits)].tolist()
    if len(shown) > 1:
        shown.sort()
    return SeedHit(
        read_start=read_start,
        length=depth,
        positions=tuple(shown),
        n_hits=int(n_hits),
    )


def seed_decomposition(
    index: GenomeIndex,
    read: np.ndarray,
    *,
    max_seeds: int = 8,
    max_hits: int = 50,
) -> list[SeedHit]:
    """Sequential MMP decomposition of a whole read.

    Each seed starts where the previous maximal prefix ended; unmatchable
    single bases are skipped with a length-0 sentinel consumed as 1 base,
    mirroring STAR's behaviour on sequencing errors at seed boundaries.
    """
    seeds: list[SeedHit] = []
    pos = 0
    n = int(read.size)
    read_list = read.tolist()
    while pos < n and len(seeds) < max_seeds:
        seed = maximal_mappable_prefix(
            index, read, read_start=pos, max_hits=max_hits, read_list=read_list
        )
        seeds.append(seed)
        pos += seed.length if seed.length > 0 else 1
    return seeds
