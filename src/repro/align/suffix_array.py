"""Suffix-array construction, prefix jump table, and interval search.

Construction uses prefix doubling fully vectorized in numpy:
O(n log n) argsorts over composite (rank, rank+k) keys.  This is the
index structure STAR's uncompressed-SA design is built on, and its
memory footprint (8 bytes/position) is what makes index size track
genome size — the fact behind the paper's §III-A optimization.

Search maintains an SA interval and narrows it one character at a time
(``extend_interval``), which gives both exact pattern search and the
sequential Maximal Mappable Prefix scan in :mod:`repro.align.seeds`.
The :class:`PrefixJumpTable` is the analogue of STAR's SA prefix index
(``--genomeSAindexNbases``): the SA interval of every k-mer up to an
auto-sized length L is precomputed at ``genomeGenerate`` time, so the
first L symbols of each MMP query resolve with O(1) table lookups
instead of 2·L binary searches.  The batch search resolves its queries
through a second structure built beside it, the sorted suffix-key
column (:func:`build_suffix_keys`): the first ten symbols of every
suffix packed into one int32, so one ``searchsorted`` per query finds
its longest match among them.
"""

from __future__ import annotations

import numpy as np

#: alphabet size (ACGTN) plus one code for the implicit end-of-suffix
#: sentinel, which sorts before every real symbol
_CODE_BASE = 6

#: symbols packed into one suffix key (see :func:`build_suffix_keys`)
SUFFIX_KEY_LENGTH = 10

#: bits per packed symbol: the six codes (sentinel + ACGTN) fit in three
_KEY_BITS = 3


def build_suffix_array(sequence: np.ndarray) -> np.ndarray:
    """Suffix array (int64 start positions, lexicographic suffix order).

    Shorter suffixes that are prefixes of longer ones sort first, i.e. the
    implicit sentinel is smaller than every symbol.
    """
    seq = np.asarray(sequence, dtype=np.uint8)
    n = int(seq.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    # Compact initial ranks to dense values < n: the composite key below
    # multiplies by (n + 2), which is only collision-free when every rank is
    # < n and every second key is <= n.  (Raw symbol codes are NOT dense —
    # e.g. "TN" has codes [3, 4] with n = 2 — so compaction is required for
    # correctness, not just hygiene.)
    order = np.argsort(seq, kind="stable")
    sorted_vals = seq[order].astype(np.int64)
    dense = np.empty(n, dtype=np.int64)
    dense[0] = 0
    np.cumsum(sorted_vals[1:] != sorted_vals[:-1], out=dense[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = dense

    k = 1
    while True:
        second = np.zeros(n, dtype=np.int64)
        if k < n:
            second[: n - k] = rank[k:] + 1
        # Composite key; rank < n and second <= n so this fits int64 for any
        # genome that fits in memory.
        key = rank * (n + 2) + second
        sa = np.argsort(key, kind="stable")
        sorted_key = key[sa]
        boundaries = np.empty(n, dtype=np.int64)
        boundaries[0] = 0
        np.cumsum(sorted_key[1:] != sorted_key[:-1], out=boundaries[1:])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[sa] = boundaries
        rank = new_rank
        if boundaries[-1] == n - 1:
            return sa.astype(np.int64)
        k *= 2


# --------------------------------------------------------------------------
# prefix jump table (STAR's --genomeSAindexNbases)
# --------------------------------------------------------------------------


def prefix_length(n_bases: int, *, cap: int = 14) -> int:
    """Auto-sized jump-table k-mer length for a genome of ``n_bases``.

    STAR sizes its SA prefix index to stay a small fraction of the suffix
    array itself (``--genomeSAindexNbases = min(14, log2(n)/2 - 1)``).
    Same rule here over the 6-code alphabet (ACGTN + sentinel): the
    largest L with ``6**(L+1) <= max(6, n/4)``, capped at ``cap`` — the
    table's 8-byte entries then cost at most ~2 bytes/base, a quarter of
    the 8-byte/base suffix array.
    """
    budget = max(_CODE_BASE, n_bases // 4)
    length = 1
    while length < cap and _CODE_BASE ** (length + 1) <= budget:
        length += 1
    return length


class PrefixJumpTable:
    """O(1) SA intervals for every prefix of length <= ``length``.

    A suffix's *code* packs its first L symbols base-6 as ``symbol + 1``,
    with the implicit end-of-suffix sentinel taking code 0 — so suffixes
    shorter than L pack (and sort) strictly below every longer suffix
    sharing their prefix, exactly matching suffix-array order.  Codes are
    therefore non-decreasing along the SA, and ``bounds[c]`` (the first
    SA index whose code is >= c, via one vectorized ``searchsorted``)
    turns the SA interval of any d-symbol prefix (d <= L) into two array
    lookups::

        stride = 6 ** (L - d)
        lo, hi = bounds[code * stride], bounds[(code + 1) * stride]

    — replacing the 2·d binary searches of the narrowing search, while
    returning *bit-identical* intervals (short suffixes carry sentinel
    codes below every real continuation, mirroring ``extend``'s
    ``ch = -1`` convention).
    """

    __slots__ = ("length", "bounds")

    def __init__(self, length: int, bounds: np.ndarray) -> None:
        self.length = int(length)
        self.bounds = np.asanyarray(bounds, dtype=np.int64)
        expected = _CODE_BASE**self.length + 1
        if self.bounds.size != expected:
            raise ValueError(
                f"bounds must have 6**{self.length} + 1 = {expected} entries, "
                f"got {self.bounds.size}"
            )

    @classmethod
    def build(
        cls,
        genome: np.ndarray,
        sa: np.ndarray,
        *,
        length: int | None = None,
    ) -> "PrefixJumpTable":
        """Vectorized table build from a genome and its suffix array."""
        genome = np.asarray(genome, dtype=np.uint8)
        sa = np.asarray(sa, dtype=np.int64)
        n = int(sa.size)
        L = prefix_length(n) if length is None else int(length)
        if L < 1:
            raise ValueError("jump-table length must be >= 1")
        codes = np.zeros(n, dtype=np.int64)
        for d in range(L):
            pos = sa + d
            valid = pos < n
            sym = np.zeros(n, dtype=np.int64)
            sym[valid] = genome[pos[valid]].astype(np.int64) + 1
            codes *= _CODE_BASE
            codes += sym
        bounds = np.searchsorted(
            codes, np.arange(_CODE_BASE**L + 1, dtype=np.int64), side="left"
        ).astype(np.int64)
        return cls(L, bounds)

    @property
    def nbytes(self) -> int:
        return int(self.bounds.nbytes)

    @staticmethod
    def predicted_nbytes(n_bases: int) -> int:
        """Table footprint for a genome of ``n_bases`` before building it."""
        return 8 * (_CODE_BASE ** prefix_length(n_bases) + 1)

    def interval(self, symbols) -> tuple[int, int]:
        """SA interval of the prefix ``symbols`` (len <= ``length``)."""
        d = len(symbols)
        if d > self.length:
            raise ValueError(f"prefix of {d} symbols exceeds table depth {self.length}")
        code = 0
        for s in symbols:
            code = code * _CODE_BASE + int(s) + 1
        stride = _CODE_BASE ** (self.length - d)
        base = code * stride
        return int(self.bounds[base]), int(self.bounds[base + stride])


# --------------------------------------------------------------------------
# sorted suffix keys
# --------------------------------------------------------------------------


def build_suffix_keys(genome: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Sorted suffix-key column: one int32 per suffix-array entry.

    Key ``i`` packs the first :data:`SUFFIX_KEY_LENGTH` symbols of suffix
    ``sa[i]`` at three bits each, most significant first: 0 past the end
    of the genome, otherwise the base code + 1.  That is the jump table's
    code order (the sentinel sorts below every symbol), so the keys are
    non-decreasing along the suffix array, and the SA interval of any
    prefix of up to ten symbols is one pair of ``searchsorted`` calls.
    """
    genome = np.asarray(genome, dtype=np.uint8)
    sa = np.asarray(sa, dtype=np.int64)
    n = int(sa.size)
    codes = np.zeros(n + SUFFIX_KEY_LENGTH, dtype=np.int32)
    codes[:n] = genome
    codes[:n] += 1
    keys = np.zeros(n, dtype=np.int32)
    for d in range(SUFFIX_KEY_LENGTH):
        keys <<= _KEY_BITS
        keys |= codes[sa + d]
    return keys


def pack_query_keys(
    bases: np.ndarray, qoff: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """Key of each query's first ``span[i]`` symbols of ``bases[qoff[i]:]``,
    packed like :func:`build_suffix_keys` with zeros past the span."""
    keys = np.zeros(qoff.size, dtype=np.int32)
    if not bases.size:
        return keys
    cols = np.arange(SUFFIX_KEY_LENGTH, dtype=np.int64)
    at = np.minimum(qoff[:, None] + cols, bases.size - 1)
    codes = np.where(cols < span[:, None], bases[at].astype(np.int32) + 1, 0)
    shifts = (_KEY_BITS * (SUFFIX_KEY_LENGTH - 1 - cols)).astype(np.int32)
    return (codes << shifts).sum(axis=1, dtype=np.int32)


def shared_key_symbols(
    keys: np.ndarray, qkey: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Leading symbols ``qkey[i]`` shares with ``keys[at[i]]``; -1 where
    ``at[i]`` is outside the column.

    The first differing symbol holds the highest set bit of the XOR, whose
    position ``frexp`` reads exactly (a zero XOR shares all ten).
    """
    if not keys.size:
        return np.full(at.shape, -1, dtype=np.int64)
    inside = (at >= 0) & (at < keys.size)
    differ = qkey ^ keys[np.clip(at, 0, keys.size - 1)]
    top_bit = np.frexp(differ)[1]
    shared = (_KEY_BITS * SUFFIX_KEY_LENGTH - top_bit) // _KEY_BITS
    return np.where(inside, shared, -1)


def key_intervals(
    keys: np.ndarray, qkey: np.ndarray, depth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SA interval ``[lo, hi)`` of each query's first ``depth[i]`` symbols
    (``depth <= SUFFIX_KEY_LENGTH``), in one ``searchsorted`` pass."""
    shift = (_KEY_BITS * (SUFFIX_KEY_LENGTH - depth)).astype(np.int32)
    prefix = (qkey >> shift) << shift
    bounds = np.searchsorted(keys, np.concatenate([prefix, prefix + (1 << shift)]))
    return bounds[: qkey.size], bounds[qkey.size :]


# --------------------------------------------------------------------------
# seed-search instrumentation
# --------------------------------------------------------------------------


class SeedSearchStats:
    """Hot-path counters for the MMP seed search (cheap integer bumps).

    ``table_hits`` counts queries whose first ``min(L, remaining)``
    symbols fully resolved through the jump table; ``table_fallbacks``
    counts queries that died inside the table, with ``fallback_depths``
    histogramming the depth reached (how many symbols matched before the
    interval emptied).  ``binary_steps_saved`` is the number of binary
    searches the table lookups replaced (two per resolved symbol);
    ``extend_steps`` counts interval-narrowing calls past the table, and
    ``lce_skips`` counts symbols fast-forwarded by direct genome/read
    byte comparison once the interval narrowed to a single suffix.

    ``batch_queries`` is the batch-path counter: of all ``queries``, how
    many were resolved through the vectorized kernels in
    :mod:`repro.align.batch` rather than the per-read walk (the other
    counters accumulate identically on both paths).
    """

    _COUNTERS = (
        "queries",
        "batch_queries",
        "table_hits",
        "table_fallbacks",
        "binary_steps_saved",
        "extend_steps",
        "lce_skips",
    )

    __slots__ = _COUNTERS + ("fallback_depths",)

    def __init__(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)
        self.fallback_depths: dict[int, int] = {}

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._COUNTERS}
        out["fallback_depths"] = dict(self.fallback_depths)
        return out

    def snapshot(self) -> dict:
        """Point-in-time copy, for later :meth:`since` deltas."""
        return self.as_dict()

    def since(self, snapshot: dict) -> dict:
        """Delta of these stats relative to an earlier :meth:`snapshot`."""
        out = {name: getattr(self, name) - snapshot[name] for name in self._COUNTERS}
        base = snapshot["fallback_depths"]
        out["fallback_depths"] = {
            d: c - base.get(d, 0)
            for d, c in self.fallback_depths.items()
            if c - base.get(d, 0)
        }
        return out

    def merge(self, delta: dict) -> None:
        """Accumulate a :meth:`since` delta (or ``as_dict``) into these stats."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + delta[name])
        for d, c in delta["fallback_depths"].items():
            self.fallback_depths[d] = self.fallback_depths.get(d, 0) + c


# --------------------------------------------------------------------------
# search context
# --------------------------------------------------------------------------


class SearchContext:
    """Precomputed state for fast repeated SA searches.

    Profiling (see benchmarks) showed numpy scalar indexing dominating the
    MMP binary search; this context keeps the genome as ``bytes`` and the
    suffix array behind a C-contiguous int64 ``memoryview`` — O(1)
    C-speed element access with *no per-position int objects*, so the
    resident overhead beyond the index's own arrays is just the 1-byte/
    base genome copy (the old ``list`` held ~40 bytes/position).  It also
    carries the optional :class:`PrefixJumpTable`, the sorted suffix keys
    (:func:`build_suffix_keys`; built here only when the caller has none
    to hand over) and a :class:`SeedSearchStats` counter set updated by
    the seed search.  The depth-0 symbol boundaries come from the keys.

    ``genome_arr`` and ``sa_arr`` are zero-copy numpy views over the same
    buffers; with ``keys`` they serve the structure-of-arrays kernels in
    :mod:`repro.align.batch`, which resolve whole batches of MMP queries
    with ``searchsorted`` and fancy-indexed gathers instead of scalar
    element access.
    """

    __slots__ = (
        "genome_bytes",
        "genome_arr",
        "sa_view",
        "sa_arr",
        "n",
        "keys",
        "first_bounds",
        "jump_length",
        "jump_bounds",
        "jump_strides",
        "stats",
        "_sa_copy_bytes",
    )

    def __init__(
        self,
        genome: np.ndarray,
        sa: np.ndarray,
        jump_table: PrefixJumpTable | None = None,
        keys: np.ndarray | None = None,
    ) -> None:
        genome_arr = np.asarray(genome, dtype=np.uint8)
        self.genome_bytes = genome_arr.tobytes()
        # zero-copy uint8 view over the same bytes buffer, for the batch
        # kernels' fancy-indexed gathers
        self.genome_arr = np.frombuffer(self.genome_bytes, dtype=np.uint8)
        sa_arr = np.asarray(sa)
        packed = np.ascontiguousarray(sa_arr, dtype=np.int64)
        # when the index's own SA is already contiguous int64 (the normal
        # case, incl. read-only mmap'd cache loads) the view is zero-copy
        self._sa_copy_bytes = 0 if packed is sa_arr else int(packed.nbytes)
        self.sa_view = memoryview(packed)
        self.sa_arr = packed
        self.n = int(packed.size)
        if keys is None:
            keys = build_suffix_keys(genome_arr, packed)
        if keys.size != self.n:
            raise ValueError("suffix keys must have one entry per SA position")
        self.keys = np.ascontiguousarray(keys, dtype=np.int32)
        # boundaries: first_bounds[s] = first SA index whose suffix starts
        # with a symbol >= s, i.e. whose key's leading field is >= s + 1
        # (6 entries cover symbols 0..4 plus the end)
        lead = _KEY_BITS * (SUFFIX_KEY_LENGTH - 1)
        firsts = np.arange(1, 6, dtype=np.int32) << lead
        self.first_bounds = np.searchsorted(self.keys, firsts).tolist() + [self.n]
        if jump_table is None:
            self.jump_length = 0
            self.jump_bounds = None
            self.jump_strides: tuple[int, ...] = ()
        else:
            self.jump_length = jump_table.length
            bounds_arr = np.ascontiguousarray(jump_table.bounds, dtype=np.int64)
            self.jump_bounds = memoryview(bounds_arr)
            self.jump_strides = tuple(
                _CODE_BASE ** (jump_table.length - d)
                for d in range(jump_table.length + 1)
            )
        self.stats = SeedSearchStats()

    def resident_extra_bytes(self) -> int:
        """Bytes this context keeps resident beyond the index's own arrays.

        The ``bytes`` genome copy, plus a packed SA copy only when the
        source array was not already C-contiguous int64 (the memoryview
        itself is zero-copy).  The jump table is accounted separately by
        the index, since it exists whether or not a context is built.
        """
        return len(self.genome_bytes) + self._sa_copy_bytes

    def extend(self, lo: int, hi: int, depth: int, symbol: int) -> tuple[int, int]:
        """Narrow ``[lo, hi)`` of depth-``depth`` matches by one symbol."""
        if depth == 0 and lo == 0 and hi == self.n:
            return self.first_bounds[symbol], self.first_bounds[symbol + 1]
        genome = self.genome_bytes
        sa = self.sa_view
        n = self.n

        # lower bound: first index with char >= symbol (short suffixes = -1)
        a, b = lo, hi
        while a < b:
            mid = (a + b) >> 1
            pos = sa[mid] + depth
            ch = genome[pos] if pos < n else -1
            if ch < symbol:
                a = mid + 1
            else:
                b = mid
        new_lo = a
        a, b = new_lo, hi
        while a < b:
            mid = (a + b) >> 1
            pos = sa[mid] + depth
            ch = genome[pos] if pos < n else -1
            if ch <= symbol:
                a = mid + 1
            else:
                b = mid
        return new_lo, a


def _char_after(genome: np.ndarray, sa: np.ndarray, index: int, depth: int) -> int:
    """Symbol at offset ``depth`` of suffix ``sa[index]``; -1 past the end."""
    pos = int(sa[index]) + depth
    if pos >= genome.size:
        return -1
    return int(genome[pos])


def extend_interval(
    genome: np.ndarray,
    sa: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    symbol: int,
) -> tuple[int, int]:
    """Narrow SA interval ``[lo, hi)`` of depth-``depth`` matches by one symbol.

    Precondition: all suffixes in ``[lo, hi)`` share the same first ``depth``
    symbols.  Returns the (possibly empty) sub-interval whose suffixes also
    have ``symbol`` at offset ``depth``.  Two binary searches, O(log(hi-lo)).
    """
    # lower bound: first index with char >= symbol
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        if _char_after(genome, sa, mid, depth) < symbol:
            a = mid + 1
        else:
            b = mid
    new_lo = a
    # upper bound: first index with char > symbol
    a, b = new_lo, hi
    while a < b:
        mid = (a + b) // 2
        if _char_after(genome, sa, mid, depth) <= symbol:
            a = mid + 1
        else:
            b = mid
    return new_lo, a


def sa_search(
    genome: np.ndarray, sa: np.ndarray, pattern: np.ndarray
) -> tuple[int, int]:
    """Exact-match SA interval of ``pattern``; empty interval when absent."""
    pattern = np.asarray(pattern, dtype=np.uint8)
    lo, hi = 0, int(sa.size)
    for depth in range(pattern.size):
        lo, hi = extend_interval(genome, sa, lo, hi, depth, int(pattern[depth]))
        if lo >= hi:
            return lo, lo
    return lo, hi


def occurrences(
    genome: np.ndarray, sa: np.ndarray, pattern: np.ndarray
) -> np.ndarray:
    """Sorted genome positions where ``pattern`` occurs exactly."""
    lo, hi = sa_search(genome, sa, pattern)
    return np.sort(sa[lo:hi])


def verify_suffix_array(genome: np.ndarray, sa: np.ndarray) -> bool:
    """Check that ``sa`` is the suffix array of ``genome``, in O(n log n).

    Permutation check plus the rank-reduction invariant (Burkhardt &
    Kärkkäinen's suffix-array checker): with ``rank`` the inverse
    permutation extended by ``rank[n] = -1`` for the implicit sentinel,
    ``sa`` is in strict lexicographic suffix order iff the key pairs
    ``(genome[sa[i]], rank[sa[i] + 1])`` strictly increase with ``i`` —
    comparing adjacent suffixes reduces to their first symbols plus the
    order of their one-shorter remainders.  Replaces the old O(n²)
    suffix-materializing check so tests can validate realistic genomes.
    """
    genome = np.asarray(genome, dtype=np.uint8)
    sa = np.asarray(sa)
    n = int(genome.size)
    if sa.size != n:
        return False
    if n == 0:
        return True
    sa = sa.astype(np.int64, copy=False)
    if int(sa.min()) < 0 or int(sa.max()) >= n:
        return False
    if not np.array_equal(np.sort(sa), np.arange(n)):
        return False
    rank = np.empty(n + 1, dtype=np.int64)
    rank[sa] = np.arange(n)
    rank[n] = -1
    first = genome[sa].astype(np.int64)
    nxt = rank[sa + 1]
    increasing = (first[:-1] < first[1:]) | (
        (first[:-1] == first[1:]) & (nxt[:-1] < nxt[1:])
    )
    return bool(increasing.all())
