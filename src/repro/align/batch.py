"""Structure-of-arrays batch alignment core.

The per-read driver in :mod:`repro.align.star` walks one read at a time:
a Python loop per MMP symbol, one numpy round-trip per candidate
extension, a fresh remainder seed per spliced-stitch attempt.  Profiling
shows that loop — not process fan-out — dominates alignment time, the
same observation that led SNAP (Zaharia et al., arXiv 1111.5572) to
restructure seeding around O(1) hash lookups instead of per-symbol
narrowing.

This module drives whole *batches* of reads through the identical
decision procedure with the per-symbol work hoisted into numpy:

* :class:`PackedReadBatch` packs a :class:`~repro.reads.fastq.ReadBatch`
  (both orientations) into contiguous arrays — base codes, per-segment
  offsets and lengths — the structure-of-arrays layout every kernel
  below gathers from;
* :func:`batch_mmp` resolves all MMP queries at once, in four regimes:
  the first ten symbols against the index's sorted suffix keys (one
  ``searchsorted`` for the insertion point, an XOR with the two
  neighbouring keys for the longest match, two more for its SA
  interval, every per-read counter in closed form); then, for the lanes
  still live at depth ten, lock-step vectorized binary narrowing of
  wide intervals, a closed-form per-suffix scan of narrow ones, and a
  batched compare-and-argmax longest-common-extension scan once
  intervals hold a single suffix;
* :func:`repro.align.extend.batch_ungapped_extend` verifies every
  candidate placement of the batch under the mismatch budget: chunked
  comparisons against the resident genome from which a candidate
  retires as soon as it is over the budget, as STAR's ``extendAlign``
  drops it, so spurious multimapping hits cost a few columns each;
* spliced stitching reuses one batched remainder seed per (read,
  orientation) where the serial path re-derives it per candidate
  position — same deterministic result, computed once;
* classification groups every accepted placement by read and applies
  the per-read rules with reductions, emitting one
  :class:`~repro.align.outcome.OutcomeBatch` — no per-candidate or
  per-read Python objects.

Every kernel is bit-identical to its per-read counterpart (the per-read
path is retained as the reference oracle; see
``tests/align/test_batch.py``): seed walks stop at the same depth with
the same :class:`~repro.align.suffix_array.SeedSearchStats` deltas
(``tests/align/test_seed_parity.py``), extensions accept the same
placements, stitching and the error bridge pick the same candidates,
and classification reaches the same status, loci, strand and blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.align.extend import batch_ungapped_extend
from repro.align.outcome import (
    FORWARD,
    MULTIMAPPED,
    REVERSE,
    TOO_MANY_LOCI,
    UNIQUE,
    UNMAPPED,
    OutcomeBatch,
)
from repro.align.splice import REMAINDER_MAX_HITS
from repro.align.suffix_array import (
    SUFFIX_KEY_LENGTH,
    key_intervals,
    pack_query_keys,
    shared_key_symbols,
)
from repro.genome.alphabet import BASE_A, BASE_G, BASE_N, BASE_T, complement
from repro.reads.fastq import ReadBatch

if TYPE_CHECKING:
    from repro.align.star import StarAligner
    from repro.reads.fastq import FastqRecord

__all__ = ["PackedReadBatch", "align_read_batch", "batch_mmp"]

#: column width of one batched longest-common-extension gather
_LCE_CHUNK = 64

#: width of the first LCE gather; most rows of a multi-suffix interval
#: mismatch within a symbol or two, so the opening chunk stays narrow
_LCE_FIRST_CHUNK = 4

#: SA intervals at most this wide resolve by a closed-form per-suffix LCE
#: scan; wider ones narrow per level with a lock-step binary search first
_SCAN_WIDTH = 8

#: after this many lock-step narrowing levels the scan threshold relaxes
#: to ``_LATE_SCAN_WIDTH``: a low-complexity lane (think poly-A) can stay
#: hundreds of suffixes wide for dozens of symbols, and each extra level
#: costs the whole batch a full bisection pass, while the closed-form
#: scan handles any width at one LCE row per suffix
_NARROW_LEVELS = 4
_LATE_SCAN_WIDTH = 512


# --------------------------------------------------------------------------
# packing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedReadBatch:
    """One batch of reads packed into structure-of-arrays form.

    Segment ``i`` of ``n_reads`` forward reads lives at
    ``bases[offsets[i] : offsets[i] + lengths[i]]``; segment
    ``n_reads + i`` is the reverse complement of read ``i``.  Keeping
    both orientations in one pool lets every kernel run once over
    ``2 * n_reads`` queries instead of twice over ``n_reads``.
    """

    bases: np.ndarray  # uint8 base codes, all segments concatenated
    offsets: np.ndarray  # int64, n_segments + 1 segment boundaries
    lengths: np.ndarray  # int64, n_segments
    n_reads: int

    @property
    def n_segments(self) -> int:
        return int(self.lengths.size)

    @classmethod
    def pack(cls, reads: ReadBatch) -> "PackedReadBatch":
        """Pack the non-empty reads of ``reads``, then their reverse
        complements.

        A zero-length read holds no bases, so the batch's concatenated
        base codes are already the forward pool; a length mask drops
        such reads from the segment table.
        """
        fwd = reads.sequence
        read_lengths = reads.lengths
        fwd_lengths = read_lengths[read_lengths > 0]
        n_reads = int(fwd_lengths.size)
        lengths = np.concatenate([fwd_lengths, fwd_lengths])
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # the complemented reversed pool holds every read's reverse
        # complement, last read first; one gather puts them in read order
        rc = complement(fwd[::-1])
        ends = offsets[1 : n_reads + 1]
        back = np.repeat(fwd.size - ends - offsets[:n_reads], fwd_lengths)
        back += np.arange(fwd.size, dtype=np.int64)
        bases = np.concatenate([fwd, rc[back]])
        return cls(bases=bases, offsets=offsets, lengths=lengths, n_reads=n_reads)


# --------------------------------------------------------------------------
# batched MMP search
# --------------------------------------------------------------------------


def batch_mmp(
    ctx,
    bases: np.ndarray,
    qoff: np.ndarray,
    qlen: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal-mappable-prefix walk for a whole query set at once.

    Query ``i`` searches ``bases[qoff[i] : qoff[i] + qlen[i]]``; returns
    ``(depth, lo, hi)`` arrays matching what
    :func:`repro.align.seeds.maximal_mappable_prefix` computes per query
    — same final depth, same SA interval — and advances
    ``ctx.stats`` by the same counter deltas the per-read walk would.

    The first :data:`~repro.align.suffix_array.SUFFIX_KEY_LENGTH`
    symbols resolve against the context's sorted suffix keys: one
    ``searchsorted`` finds each query's insertion point, the highest set
    bit of the XOR with the two neighbouring keys gives the longest match
    M, and one more ``searchsorted`` pass gives M's SA interval.  Every
    counter of the per-read walk up to that depth follows in closed form
    from M and the second-best match S (see :func:`_key_walk_counters`).
    Only lanes that match all ten symbols and have more to read go on to
    lock-step bisection, the closed-form scan and the LCE regime.
    """
    if ctx.jump_length > SUFFIX_KEY_LENGTH:
        # the closed-form table counters assume the walk leaves the table
        # within the keys (a table this deep needs > 8.7 G bases)
        raise ValueError(
            f"jump table of depth {ctx.jump_length} is deeper than the "
            f"{SUFFIX_KEY_LENGTH}-symbol suffix keys"
        )
    qoff = np.asarray(qoff, dtype=np.int64)
    qlen = np.asarray(qlen, dtype=np.int64)
    n_queries = int(qoff.size)
    stats = ctx.stats
    stats.queries += n_queries
    stats.batch_queries += n_queries
    if n_queries == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none.copy(), none.copy()

    # -- regime 1: the first ten symbols against the sorted suffix keys ----
    keys = ctx.keys
    span = np.minimum(qlen, SUFFIX_KEY_LENGTH)
    qkey = pack_query_keys(bases, qoff, span)
    at = np.searchsorted(keys, qkey)
    best = np.maximum(
        shared_key_symbols(keys, qkey, at - 1), shared_key_symbols(keys, qkey, at)
    )
    depth = np.clip(best, 0, span).astype(np.int64)
    lo, hi = key_intervals(keys, qkey, depth)
    past = (depth == SUFFIX_KEY_LENGTH) & (qlen > SUFFIX_KEY_LENGTH)
    _key_walk_counters(ctx, qkey, qlen, depth, lo, hi, past)

    # -- regime 2: lock-step binary narrowing of wide intervals --------------
    genome = ctx.genome_arr
    sa = ctx.sa_arr
    n = ctx.n
    active = past
    lce_idx: list[np.ndarray] = []
    level_count = 0
    while True:
        single = active & (hi - lo == 1)
        if single.any():
            lce_idx.append(np.nonzero(single)[0])
            active &= ~single
        width_cap = _SCAN_WIDTH if level_count < _NARROW_LEVELS else _LATE_SCAN_WIDTH
        wide = np.nonzero(active & (hi - lo > width_cap))[0]
        if wide.size == 0:
            break
        level_count += 1
        d = depth[wide]
        sym = bases[qoff[wide] + d].astype(np.int64)
        # the depth-d symbols of an SA interval are sorted, so the lower
        # bound (first symbol >= sym, i.e. ch < sym sends the probe
        # right) and the upper bound (first symbol > sym, i.e.
        # ch < sym + 1) bisect the same [lo, hi) concurrently — one fused
        # loop instead of two sequential ones
        d2 = np.concatenate([d, d])
        sym2 = np.concatenate([sym, sym + 1])
        a = np.concatenate([lo[wide], lo[wide]])
        b = np.concatenate([hi[wide], hi[wide]])
        while True:
            open_ = a < b
            if not open_.any():
                break
            mid = (a + b) >> 1
            # mid and pos are never negative, so np.minimum (one ufunc)
            # keeps closed lanes indexable; gather as int64 before
            # substituting the -1 past-end sentinel
            pos = sa[np.minimum(mid, n - 1)] + d2
            ch = np.where(
                pos < n, genome[np.minimum(pos, n - 1)].astype(np.int64), -1
            )
            go_right = open_ & (ch < sym2)
            a = np.where(go_right, mid + 1, a)
            b = np.where(open_ & ~go_right, mid, b)
        new_lo = a[: wide.size]
        new_hi = a[wide.size :]
        stats.extend_steps += int(wide.size)
        emptied = new_lo >= new_hi
        active[wide[emptied]] = False
        kept = wide[~emptied]
        lo[kept] = new_lo[~emptied]
        hi[kept] = new_hi[~emptied]
        depth[kept] += 1
        active &= depth < qlen

    # -- regime 2b: closed-form narrowing of scan-width intervals -----------
    # For an interval of at most _SCAN_WIDTH suffixes, one per-suffix LCE
    # pass decides everything the per-symbol loop would: a suffix survives
    # narrowing to relative depth t iff its LCE with the query is >= t, so
    # the final depth is the maximum LCE M (suffixes achieving it stay a
    # contiguous SA run), and the serial counters fall out of M and the
    # second-largest LCE S: a tied maximum narrows (and counts an extend
    # step) per level until the interval empties at M, while a unique
    # maximum narrows to a single suffix at S+1 and fast-forwards the
    # remaining M-S-1 symbols through the LCE shortcut.
    scan = np.nonzero(active)[0]
    single_idx = (
        np.concatenate(lce_idx) if lce_idx else np.zeros(0, dtype=np.int64)
    )
    n_rows = 0
    m_all = np.zeros(0, dtype=np.int64)
    if scan.size or single_idx.size:
        # one fused LCE call covers both the scan rows and the narrowed
        # singles — the second call's fixed chunk-loop cost is pure waste
        lanes = np.concatenate([np.repeat(scan, hi[scan] - lo[scan]), single_idx])
        if scan.size:
            w = hi[scan] - lo[scan]
            n_rows = int(w.sum())
            within = np.arange(n_rows, dtype=np.int64) - np.repeat(
                np.cumsum(w) - w, w
            )
        else:
            within = np.zeros(0, dtype=np.int64)
        sa_at = np.concatenate([within, np.zeros(single_idx.size, dtype=np.int64)])
        pos = sa[lo[lanes] + sa_at] + depth[lanes]
        roff = qoff[lanes] + depth[lanes]
        limit = np.minimum(qlen[lanes] - depth[lanes], n - pos)
        m_all = _batched_lce(genome, bases, pos, roff, limit)
    if scan.size:
        w = hi[scan] - lo[scan]
        starts = np.zeros(scan.size, dtype=np.int64)
        np.cumsum(w[:-1], out=starts[1:])
        row_idx = np.arange(n_rows, dtype=np.int64)
        m = m_all[:n_rows]
        lane_max = np.maximum.reduceat(m, starts)
        # second-largest (with multiplicity): mask one argmax row out
        first_max = np.minimum.reduceat(
            np.where(m == lane_max[np.repeat(
                np.arange(scan.size), w)], row_idx, n_rows), starts,
        )
        masked = m.copy()
        masked[first_max] = -1
        lane_2nd = np.maximum.reduceat(masked, starts)
        remaining = qlen[scan] - depth[scan]
        tie = lane_2nd == lane_max
        stats.extend_steps += int(
            np.where(tie, lane_max + (lane_max < remaining), lane_2nd + 1).sum()
        )
        stats.lce_skips += int(
            np.where(tie, 0, lane_max - lane_2nd - 1).sum()
        )
        # surviving interval: the contiguous block of suffixes with LCE == M
        # (for M == 0 that is the whole interval, i.e. the failed first
        # narrowing step leaves lo/hi untouched, exactly like the serial
        # break)
        ge = m >= lane_max[np.repeat(np.arange(scan.size), w)]
        n_ge = np.add.reduceat(ge.astype(np.int64), starts)
        first_ge = (
            np.minimum.reduceat(np.where(ge, row_idx, n_rows), starts) - starts
        )
        lo[scan] += first_ge
        hi[scan] = lo[scan] + n_ge
        depth[scan] += lane_max

    # -- regime 3: batched longest-common-extension -------------------------
    if single_idx.size:
        matched = m_all[n_rows:]
        depth[single_idx] += matched
        stats.lce_skips += int(matched.sum())

    return depth, lo, hi


def _key_walk_counters(ctx, qkey, qlen, depth, lo, hi, past) -> None:
    """Advance ``ctx.stats`` by what the per-read walk counts up to ``depth``.

    ``depth`` is each query's longest match M among the keys and
    ``[lo, hi)`` its SA interval; ``past`` marks lanes that matched all
    ten symbols and keep searching, whose later counters the deeper
    regimes add.  Narrowing keeps every suffix whose match is at least
    the depth, so the interval stays at two or more suffixes up to the
    second-best match S (S = M when M's interval is wider than one) and
    holds M's suffix alone after it.  With L' = min(L, qlen) for a jump
    table of depth L, the per-read walk therefore:

    * resolves min(M, L') symbols in the table and dies there iff M < L';
    * on a tie, narrows once per level from L' to M, plus a failing step
      when the query goes on (and does not, for a ``past`` lane);
    * on a unique best, narrows from L' to S + 1 and fast-forwards the
      rest by longest common extension.
    """
    stats = ctx.stats
    keys = ctx.keys
    # an empty index has no table to walk, as in the per-read search
    table = ctx.jump_length if ctx.n else 0
    reach = np.minimum(qlen, table)
    searched = np.ones(depth.size, dtype=bool)
    if table:
        dead = depth < reach
        n_dead = int(dead.sum())
        stats.binary_steps_saved += 2 * int(np.minimum(depth, reach).sum())
        stats.table_fallbacks += n_dead
        stats.table_hits += depth.size - n_dead
        if n_dead:
            for d, count in enumerate(np.bincount(depth[dead])):
                if count:
                    stats.fallback_depths[d] = (
                        stats.fallback_depths.get(d, 0) + int(count)
                    )
        searched = ~dead
    unique = np.flatnonzero((hi - lo == 1) & searched)
    tie = np.flatnonzero((hi - lo != 1) & searched)
    m, r = depth[tie], reach[tie]
    stats.extend_steps += int((m - r + ((m < qlen[tie]) & ~past[tie])).sum())
    m, r, q = depth[unique], reach[unique], qkey[unique]
    second = np.maximum(
        shared_key_symbols(keys, q, lo[unique] - 1),
        shared_key_symbols(keys, q, hi[unique]),
    )
    single_from = np.maximum(second + 1, r)
    stats.extend_steps += int((single_from - r).sum())
    stats.lce_skips += int((m - single_from).sum())


def _batched_lce(
    genome: np.ndarray,
    bases: np.ndarray,
    pos: np.ndarray,
    roff: np.ndarray,
    limit: np.ndarray,
) -> np.ndarray:
    """Longest common extension per (genome position, query position) row.

    Compares ``genome[pos[i]:]`` against ``bases[roff[i]:]`` up to
    ``limit[i]`` symbols, via chunked 2-D gathers with the first mismatch
    located by ``argmax`` over the comparison — the batch counterpart of
    :func:`repro.align.seeds._common_extension`.  Chunk widths grow
    geometrically: over a multi-suffix interval most rows mismatch within
    a symbol or two, so narrow early chunks avoid gathering 60+ columns a
    first-symbol mismatch would throw away, while the few long-extension
    rows still finish in O(log) passes.
    """
    n = genome.size
    matched = np.zeros(pos.size, dtype=np.int64)
    live = limit > 0
    chunk = _LCE_FIRST_CHUNK
    first = True
    while True:
        rows = np.nonzero(live)[0]
        if rows.size == 0:
            return matched
        cols = np.arange(chunk, dtype=np.int64)
        # on the first pass every matched[] is zero; skipping the adds
        # saves two full-width passes over the largest row set
        base_g = pos[rows, None] if first else pos[rows, None] + matched[rows, None]
        base_r = roff[rows, None] if first else roff[rows, None] + matched[rows, None]
        lim = limit[rows, None] if first else limit[rows, None] - matched[rows, None]
        g = genome[np.minimum(base_g + cols, n - 1)]
        r = bases[np.minimum(base_r + cols, bases.size - 1)]
        bad = (g != r) | (cols >= lim)
        stopped = bad.any(axis=1)
        first_bad = bad.argmax(axis=1)
        matched[rows] += np.where(stopped, first_bad, chunk)
        live[rows] = ~stopped & (matched[rows] < limit[rows])
        chunk = min(chunk * 2, _LCE_CHUNK)
        first = False


def _gather_positions(
    ctx, seed_len: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_hits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Genome positions of every resolved interval, per SeedHit rules.

    Returns ``(counts, starts, positions)``: interval ``q`` owns
    ``positions[starts[q] : starts[q + 1]]`` — the first ``max_hits``
    suffix-array entries of its interval, sorted ascending, exactly what
    the per-read path materializes one ``SeedHit.positions`` at a time.
    """
    counts = np.where(seed_len > 0, np.minimum(hi - lo, max_hits), 0)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])
    if total == 0:
        return counts, starts, np.zeros(0, dtype=np.int64)
    at = np.repeat(lo - starts[:-1], counts)
    at += np.arange(total, dtype=np.int64)
    # the per-read path sorts each hit list; one sort of an interval-major
    # (interval, position) int64 key sorts them all
    bits = _hit_key_bits(ctx.n, counts.size)
    key = np.repeat(np.arange(counts.size, dtype=np.int64) << bits, counts)
    key |= ctx.sa_arr[at]
    key.sort()
    return counts, starts, key & ((1 << bits) - 1)


def _hit_key_bits(n_bases: int, n_intervals: int) -> int:
    """Low bits a genome position takes in a packed (interval, position)
    sort key: enough for any position of an ``n_bases`` genome.

    Raises :class:`ValueError` when interval ids up to ``n_intervals``
    do not fit in the 63 bits left of a non-negative int64.
    """
    bits = int(n_bases).bit_length()
    if n_intervals > 1 << (63 - bits):
        raise ValueError(
            f"{n_intervals} seed intervals do not fit in an int64 sort key "
            f"beside {bits}-bit positions"
        )
    return bits


# --------------------------------------------------------------------------
# batch driver
# --------------------------------------------------------------------------


def _n_free(n_at: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Whether ``bases[start[i] : start[i] + length[i]]`` holds no N, given
    the sorted positions ``n_at`` of the pool's N bases."""
    before = np.searchsorted(n_at, start)
    return np.searchsorted(n_at, start + length) == before


def _contigs_of(index, positions: np.ndarray) -> np.ndarray:
    """Vectorized contig ordinal per absolute genome position."""
    offsets = np.asarray(index.offsets, dtype=np.int64)
    return np.searchsorted(offsets, positions, side="right") - 1


def _batch_stitch(
    index,
    ctx,
    params,
    cand_q_arr: np.ndarray,
    cand_pos_arr: np.ndarray,
    cand_contig: np.ndarray,
    ext_accepts: np.ndarray,
    seed_len: np.ndarray,
    stitch_q: np.ndarray,
    r_counts: np.ndarray,
    r_starts: np.ndarray,
    r_pos: np.ndarray,
    rem_contig: np.ndarray,
    rem_mm: np.ndarray,
    rem_ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best spliced stitch per failing candidate, resolved in one pass.

    Mirrors :func:`repro.align.splice.stitch_spliced`'s candidate loop —
    same filters, same (mismatches, intron length) tie-break — over the
    cross product of every failing candidate position and its segment's
    batch-precomputed remainder hits.  Returns per-candidate arrays of
    winning mismatch counts (-1 when no stitch exists) and acceptors.
    The serial loop is first-wins on ties, but a tied key means equal
    mismatches and equal intron length, which pins the same acceptor, so
    a plain minimum reproduces it.
    """
    n_cand = int(cand_q_arr.size)
    best_mm = np.full(n_cand, -1, dtype=np.int64)
    best_acc = np.zeros(n_cand, dtype=np.int64)
    if not r_pos.size:
        return best_mm, best_acc
    seg_rcount = np.zeros(int(seed_len.size), dtype=np.int64)
    seg_rcount[stitch_q] = r_counts
    seg_rstart = np.zeros(int(seed_len.size), dtype=np.int64)
    seg_rstart[stitch_q] = r_starts[:-1]
    k_idx = np.nonzero(~ext_accepts & (seg_rcount[cand_q_arr] > 0))[0]
    if not k_idx.size:
        return best_mm, best_acc

    kc = seg_rcount[cand_q_arr[k_idx]]  # remainder hits per candidate
    pstart = np.zeros(k_idx.size, dtype=np.int64)
    np.cumsum(kc[:-1], out=pstart[1:])
    n_pairs = int(kc.sum())
    pair_k = np.repeat(k_idx, kc)
    within = np.arange(n_pairs, dtype=np.int64) - np.repeat(pstart, kc)
    pair_j = np.repeat(seg_rstart[cand_q_arr[k_idx]], kc) + within

    donor_k = cand_pos_arr[k_idx] + seed_len[cand_q_arr[k_idx]]
    donor = np.repeat(donor_k, kc)
    acceptor = r_pos[pair_j]
    intron = acceptor - donor
    valid = (
        (intron >= params.min_intron)
        & (intron <= params.max_intron)
        & (rem_contig[pair_j] == cand_contig[pair_k])
        & rem_ok[pair_j]
    )
    genome = ctx.genome_arr
    gn = genome.size
    # is_canonical_motif, gathered: GT at the donor, AG before the
    # acceptor, out-of-range windows rejected (clamps keep the dead
    # lanes' gathers in bounds; donor/acceptor are never negative)
    canonical = (
        valid
        & (donor + 2 <= gn)
        & (acceptor - 2 >= 0)
        & (genome[np.minimum(donor, gn - 1)] == BASE_G)
        & (genome[np.minimum(donor + 1, gn - 1)] == BASE_T)
        & (genome[np.maximum(acceptor - 2, 0)] == BASE_A)
        & (genome[np.maximum(acceptor - 1, 0)] == BASE_G)
    )
    # the serial path consults the sjdb only when the motif test fails
    need_sjdb = np.nonzero(valid & ~canonical)[0]
    ok = canonical
    if need_sjdb.size:
        ok = canonical.copy()
        ok[need_sjdb] = index.annotated_junctions(donor[need_sjdb], acceptor[need_sjdb])

    # lexicographic (mismatches, intron length) minimum per candidate via
    # one packed int64 key; intron <= max_intron < 2**32 keeps it exact
    key = np.where(
        ok,
        rem_mm[pair_j] * (np.int64(1) << 32) + intron,
        np.int64(1) << 62,
    )
    best_key = np.minimum.reduceat(key, pstart)
    has = best_key < (np.int64(1) << 62)
    best_mm[k_idx[has]] = (best_key >> 32)[has]
    best_acc[k_idx[has]] = donor_k[has] + (
        best_key & ((np.int64(1) << 32) - 1)
    )[has]
    return best_mm, best_acc


def align_read_batch(
    aligner: "StarAligner", reads: ReadBatch | list["FastqRecord"]
) -> OutcomeBatch:
    """Align a batch of reads through the vectorized core.

    ``reads`` is a :class:`~repro.reads.fastq.ReadBatch`, or a list of
    records packed into one here.  Returns one
    :class:`~repro.align.outcome.OutcomeBatch` row per read, in order;
    row ``i`` equals what ``aligner.align_read`` produces for read ``i``.
    """
    reads = ReadBatch.of(reads)
    index = aligner.index
    params = aligner.parameters
    # zero-length reads can never seed (same early return as align_read)
    live = np.flatnonzero(reads.lengths)
    placed = _Placements.empty()
    if live.size:
        placed = _place_reads(index, index.search_context, params, reads)
    return _outcomes_of(index, params, reads.read_ids, live, placed)


@dataclass(frozen=True)
class _Placements:
    """Every accepted placement of a batch's reads, in candidate order.

    ``segment`` is the packed segment (read ``i`` forward, or ``n_live +
    i`` reverse) each placement belongs to; a spliced placement's second
    block starts at ``acceptor`` after a ``seed_length``-base first
    block.
    """

    n_live: int
    lengths: np.ndarray  # read length per live read
    segment: np.ndarray
    start: np.ndarray
    score: np.ndarray
    mismatches: np.ndarray
    spliced: np.ndarray
    seed_length: np.ndarray
    acceptor: np.ndarray

    @classmethod
    def empty(cls) -> "_Placements":
        none = np.zeros(0, dtype=np.int64)
        return cls(0, none, none, none, none, none, none.astype(bool), none, none)


def _place_reads(index, ctx, params, reads: ReadBatch) -> _Placements:
    """Seed, extend, stitch and error-bridge both orientations of every
    non-empty read of a batch."""
    scoring = params.scoring
    batch = PackedReadBatch.pack(reads)
    bases = batch.bases
    offsets = batch.offsets[:-1]
    lengths = batch.lengths
    n_segments = batch.n_segments
    n_live = batch.n_reads

    # -- round 1: prefix seeds for every orientation ------------------------
    depth, lo, hi = batch_mmp(ctx, bases, offsets, lengths)
    seed_len = depth

    counts, _, cand_pos_arr = _gather_positions(
        ctx, seed_len, lo, hi, params.seed_multimap_nmax
    )
    cand_q_arr = np.repeat(np.arange(n_segments, dtype=np.int64), counts)

    # read-N positions: extension may skip a seed-verified prefix only when
    # it is N-free (an N/N pair advances the seed walk yet counts as an
    # extension mismatch)
    n_at = np.flatnonzero(bases == BASE_N)
    seed_skip = np.where(_n_free(n_at, offsets, seed_len), seed_len, 0)

    ext_mm, ext_ok = batch_ungapped_extend(
        index,
        bases,
        offsets[cand_q_arr],
        lengths[cand_q_arr],
        cand_pos_arr,
        max_mismatches=scoring.max_mismatches,
        verified_prefix=seed_skip[cand_q_arr],
    )
    cand_len = lengths[cand_q_arr]
    min_frac = scoring.min_matched_fraction
    match_s = scoring.match_score
    mis_p = scoring.mismatch_penalty
    ext_accepts = ext_ok & ((cand_len - ext_mm) >= min_frac * cand_len)
    cand_contig = _contigs_of(index, cand_pos_arr)

    # -- round 2: one remainder seed per segment that needs stitching -------
    needs_stitch = np.zeros(n_segments, dtype=bool)
    needs_stitch[cand_q_arr[~ext_accepts]] = True
    stitch_q = np.flatnonzero(needs_stitch & (seed_len < lengths))
    # per-candidate stitch winners: mismatches (-1 = none) and acceptor
    stitch_mm = np.full(cand_q_arr.size, -1, dtype=np.int64)
    stitch_acc = np.zeros(cand_q_arr.size, dtype=np.int64)
    if stitch_q.size:
        rem_depth, rem_lo, rem_hi = batch_mmp(
            ctx,
            bases,
            offsets[stitch_q] + seed_len[stitch_q],
            lengths[stitch_q] - seed_len[stitch_q],
        )
        # stitch_spliced seeds the remainder with its own hit cap, not
        # seed_multimap_nmax
        r_counts, r_starts, r_pos = _gather_positions(
            ctx, rem_depth, rem_lo, rem_hi, REMAINDER_MAX_HITS
        )
        rq_arr = np.repeat(stitch_q, r_counts)
        rem_off = offsets[stitch_q] + seed_len[stitch_q]
        rem_free = _n_free(n_at, rem_off, rem_depth)
        rem_skip = np.repeat(np.where(rem_free, rem_depth, 0), r_counts)
        rem_mm, rem_ok = batch_ungapped_extend(
            index,
            bases,
            offsets[rq_arr] + seed_len[rq_arr],
            lengths[rq_arr] - seed_len[rq_arr],
            r_pos,
            max_mismatches=scoring.max_mismatches,
            verified_prefix=rem_skip,
        )
        rem_contig = _contigs_of(index, r_pos)
        stitch_mm, stitch_acc = _batch_stitch(
            index,
            ctx,
            params,
            cand_q_arr,
            cand_pos_arr,
            cand_contig,
            ext_accepts,
            seed_len,
            stitch_q,
            r_counts,
            r_starts,
            r_pos,
            rem_contig,
            rem_mm,
            rem_ok,
        )

    # -- pass A: a contiguous placement, else the segment's best stitch -----
    # (hit positions are distinct within a segment, so the serial path's
    # seen-set never rejects one)
    stitch_keeps = (
        ~ext_accepts
        & (stitch_mm >= 0)
        & (stitch_mm <= scoring.max_mismatches)
        & ((cand_len - stitch_mm) >= min_frac * cand_len)
    )
    keep = ext_accepts | stitch_keeps
    a_mm = np.where(ext_accepts, ext_mm, stitch_mm)[keep]
    a_len = cand_len[keep]
    a_seg = cand_q_arr[keep]

    # -- round 3: error-bridge re-seed for candidate-less orientations ------
    has_cand = np.zeros(n_segments, dtype=bool)
    has_cand[a_seg] = True
    bq_arr = np.flatnonzero(
        ~has_cand
        & (seed_len > 0)
        & (seed_len < lengths)
        & (lengths - (seed_len + 1) >= 12)
    )
    b_seg = b_place = b_mm = b_len = np.zeros(0, dtype=np.int64)
    if bq_arr.size:
        bridge_starts = seed_len[bq_arr] + 1
        b_depth, b_lo, b_hi = batch_mmp(
            ctx,
            bases,
            offsets[bq_arr] + bridge_starts,
            lengths[bq_arr] - bridge_starts,
        )
        b_counts, _, b_hits = _gather_positions(
            ctx, b_depth, b_lo, b_hi, params.seed_multimap_nmax
        )
        bq_flat = np.repeat(bq_arr, b_counts)
        b_place = b_hits - (seed_len[bq_flat] + 1)
        b_mm, b_ok = batch_ungapped_extend(
            index,
            bases,
            offsets[bq_flat],
            lengths[bq_flat],
            b_place,
            max_mismatches=scoring.max_mismatches,
        )
        b_len = lengths[bq_flat]
        # the bridge only runs when pass A accepted nothing, so the serial
        # path's seen-set is empty on entry and bridge hits are distinct —
        # only the off-genome placement guard has effect
        b_keep = (b_place >= 0) & b_ok & ((b_len - b_mm) >= min_frac * b_len)
        b_seg, b_place, b_mm, b_len = (
            arr[b_keep] for arr in (bq_flat, b_place, b_mm, b_len)
        )

    mismatches = np.concatenate([a_mm, b_mm])
    matched = np.concatenate([a_len, b_len]) - mismatches
    return _Placements(
        n_live=n_live,
        lengths=lengths[:n_live],
        segment=np.concatenate([a_seg, b_seg]),
        start=np.concatenate([cand_pos_arr[keep], b_place]),
        score=matched * match_s - mismatches * mis_p,
        mismatches=mismatches,
        spliced=np.concatenate([stitch_keeps[keep], np.zeros(b_seg.size, bool)]),
        seed_length=seed_len[np.concatenate([a_seg, b_seg])],
        acceptor=np.concatenate([stitch_acc[keep], np.zeros(b_seg.size, np.int64)]),
    )


def _outcomes_of(
    index, params, read_ids: list[str], live: np.ndarray, placed: _Placements
) -> OutcomeBatch:
    """Classify every read from its placements, by the per-read rules.

    A read without a placement, or whose best score is below 0, is
    unmapped.  Its loci are the distinct (start, strand) pairs among the
    best-score placements — placements are distinct per orientation, so
    counting them counts loci — and more than ``multimap_nmax`` loci is
    too_many_loci.  Otherwise the chosen placement is the first minimum
    of (mismatches, start) in forward-then-reverse order, and it alone
    sets the strand, score and blocks.
    """
    n = len(read_ids)
    status = np.full(n, UNMAPPED, dtype=np.int8)
    strand = np.zeros(n, dtype=np.int8)
    score = np.zeros(n, dtype=np.int64)
    n_loci = np.zeros(n, dtype=np.int64)
    mismatches = np.zeros(n, dtype=np.int64)
    spliced = np.zeros(n, dtype=bool)
    n_blocks = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    starts = ends = np.zeros(0, dtype=np.int64)

    n_live = placed.n_live
    reverse = placed.segment >= n_live
    live_read = placed.segment - np.where(reverse, n_live, 0)
    # group placements by read, forward before reverse, candidate order kept
    order = np.argsort(2 * live_read + reverse, kind="stable")
    if order.size:
        read = live_read[order]
        first = np.flatnonzero(np.concatenate([[True], read[1:] != read[:-1]]))
        group = np.repeat(np.arange(first.size), np.diff(np.append(first, read.size)))
        cand_score = placed.score[order]
        best = np.maximum.reduceat(cand_score, first)
        is_best = cand_score == best[group]
        loci = np.bincount(group[is_best], minlength=first.size)
        # first minimum of (mismatches, start) among the best placements,
        # packed in one int64 key (genome positions stay below 2**40)
        key = np.where(
            is_best,
            (placed.mismatches[order] << 40) + placed.start[order],
            np.iinfo(np.int64).max,
        )
        lowest = np.minimum.reduceat(key, first)
        at = np.where(key == lowest[group], np.arange(read.size), read.size)
        chosen = order[np.minimum.reduceat(at, first)]

        rows = live[read[first]]
        mapped = best >= 0
        crowded = mapped & (loci > params.multimap_nmax)
        status[rows[crowded]] = TOO_MANY_LOCI
        n_loci[rows[crowded]] = loci[crowded]
        ok = mapped & ~crowded
        rows, chosen = rows[ok], chosen[ok]
        status[rows] = np.where(loci[ok] == 1, UNIQUE, MULTIMAPPED)
        strand[rows] = np.where(reverse[chosen], REVERSE, FORWARD)
        score[rows] = placed.score[chosen]
        n_loci[rows] = loci[ok]
        mismatches[rows] = placed.mismatches[chosen]
        spliced[rows] = placed.spliced[chosen]
        n_blocks[rows] = 1 + placed.spliced[chosen]
        np.cumsum(n_blocks, out=offsets[1:])

        # blocks in absolute coordinates: a contiguous placement covers the
        # read; a spliced one splits it at the seed length
        p = placed.start[chosen]
        length = placed.lengths[live_read[chosen]]
        second = spliced[rows]
        split = np.where(second, placed.seed_length[chosen], length)
        acceptor = placed.acceptor[chosen][second]
        starts = np.empty(int(offsets[-1]), dtype=np.int64)
        ends = np.empty_like(starts)
        head = offsets[rows]
        starts[head] = p
        ends[head] = p + split
        starts[head[second] + 1] = acceptor
        ends[head[second] + 1] = acceptor + (length - split)[second]

    if starts.size and (starts.min() < 0 or starts.max() >= index.n_bases):
        raise IndexError(f"block start outside genome of {index.n_bases}")
    contig = _contigs_of(index, starts)
    local = starts - np.asarray(index.offsets, dtype=np.int64)[contig]
    return OutcomeBatch(
        read_ids=read_ids,
        status=status,
        strand=strand,
        score=score,
        n_loci=n_loci,
        mismatches=mismatches,
        spliced=spliced,
        block_offsets=offsets,
        block_contig=contig,
        block_start=local,
        block_end=local + (ends - starts),
        contig_names=tuple(index.names),
    )
