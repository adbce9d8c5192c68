"""Suffix-array construction and search tests, with hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.suffix_array import (
    SUFFIX_KEY_LENGTH,
    PrefixJumpTable,
    SeedSearchStats,
    build_suffix_array,
    build_suffix_keys,
    extend_interval,
    occurrences,
    prefix_length,
    sa_search,
    verify_suffix_array,
)
from repro.genome.alphabet import encode

dna = st.text(alphabet="ACGTN", min_size=0, max_size=120)


class TestBuild:
    def test_empty(self):
        assert build_suffix_array(encode("")).size == 0

    def test_single(self):
        assert build_suffix_array(encode("A")).tolist() == [0]

    def test_known_banana_like(self):
        # "ACAACG": suffixes sorted → offsets 2(AACG) 0(ACAACG) 3(ACG) 1(CAACG) 4(CG) 5(G)
        sa = build_suffix_array(encode("ACAACG"))
        assert sa.tolist() == [2, 0, 3, 1, 4, 5]

    def test_repetitive(self):
        sa = build_suffix_array(encode("AAAA"))
        # shorter suffixes sort first
        assert sa.tolist() == [3, 2, 1, 0]

    @given(dna)
    @settings(max_examples=60)
    def test_property_valid_suffix_array(self, s):
        codes = encode(s)
        sa = build_suffix_array(codes)
        assert verify_suffix_array(codes, sa)

    def test_large_random_is_permutation(self):
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 4, size=20_000).astype(np.uint8)
        sa = build_suffix_array(seq)
        assert np.array_equal(np.sort(sa), np.arange(20_000))


class TestSearch:
    @pytest.fixture(scope="class")
    def indexed(self):
        text = "ACGTACGTTTACGAAACGT"
        codes = encode(text)
        return text, codes, build_suffix_array(codes)

    def test_finds_all_occurrences(self, indexed):
        text, codes, sa = indexed
        hits = occurrences(codes, sa, encode("ACG"))
        expected = [i for i in range(len(text) - 2) if text[i : i + 3] == "ACG"]
        assert hits.tolist() == expected

    def test_absent_pattern_empty(self, indexed):
        _, codes, sa = indexed
        lo, hi = sa_search(codes, sa, encode("GGGG"))
        assert lo == hi

    def test_full_text_match(self, indexed):
        text, codes, sa = indexed
        hits = occurrences(codes, sa, encode(text))
        assert hits.tolist() == [0]

    def test_empty_pattern_matches_everywhere(self, indexed):
        text, codes, sa = indexed
        lo, hi = sa_search(codes, sa, encode(""))
        assert hi - lo == len(text)

    @given(dna, st.integers(min_value=0, max_value=100), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_property_every_substring_found(self, s, start, length):
        if not s:
            return
        start = start % len(s)
        pattern = s[start : start + length]
        if not pattern:
            return
        codes = encode(s)
        sa = build_suffix_array(codes)
        hits = occurrences(codes, sa, encode(pattern)).tolist()
        expected = [
            i for i in range(len(s) - len(pattern) + 1)
            if s[i : i + len(pattern)] == pattern
        ]
        assert hits == expected


class TestExtendInterval:
    def test_narrowing_matches_search(self):
        codes = encode("ACGTACGA")
        sa = build_suffix_array(codes)
        lo, hi = 0, sa.size
        for depth, ch in enumerate(encode("ACG")):
            lo, hi = extend_interval(codes, sa, lo, hi, depth, int(ch))
        assert (lo, hi) == sa_search(codes, sa, encode("ACG"))

    def test_empty_interval_stays_empty(self):
        codes = encode("AAAA")
        sa = build_suffix_array(codes)
        lo, hi = extend_interval(codes, sa, 0, sa.size, 0, 3)  # 'T'
        assert lo == hi


class TestVerify:
    def test_detects_bad_order(self):
        codes = encode("ACGT")
        sa = build_suffix_array(codes)
        bad = sa[::-1].copy()
        assert not verify_suffix_array(codes, bad)

    def test_detects_non_permutation(self):
        codes = encode("ACGT")
        assert not verify_suffix_array(codes, np.zeros(4, dtype=np.int64))

    def test_wrong_length(self):
        codes = encode("ACGT")
        assert not verify_suffix_array(codes, np.arange(3))

    def test_out_of_range_positions_rejected(self):
        codes = encode("ACGT")
        assert not verify_suffix_array(codes, np.array([0, 1, 2, 4]))
        assert not verify_suffix_array(codes, np.array([-1, 1, 2, 3]))

    def test_detects_adjacent_swap_at_scale(self):
        # the O(n log n) check must work on genome sizes the old O(n²)
        # version could not touch, and still catch a single swapped pair
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 5, size=50_000).astype(np.uint8)
        sa = build_suffix_array(codes)
        assert verify_suffix_array(codes, sa)
        bad = sa.copy()
        bad[[17_000, 17_001]] = bad[[17_001, 17_000]]
        assert not verify_suffix_array(codes, bad)

    @given(dna)
    @settings(max_examples=40)
    def test_property_accepts_built_rejects_rotated(self, s):
        codes = encode(s)
        sa = build_suffix_array(codes)
        assert verify_suffix_array(codes, sa)
        if codes.size > 1:
            rotated = np.roll(sa, 1)
            assert not verify_suffix_array(codes, rotated)


class TestPrefixLength:
    def test_small_genomes_get_minimum(self):
        assert prefix_length(0) == 1
        assert prefix_length(10) == 1

    def test_monotonic_and_capped(self):
        lengths = [prefix_length(n) for n in (10, 10**3, 10**5, 10**7, 10**12)]
        assert lengths == sorted(lengths)
        assert prefix_length(10**30) == 14

    def test_table_budget_fraction(self):
        # the auto-sized table's entries stay within ~2 bytes/base,
        # a quarter of the suffix array's 8 bytes/base
        for n in (10**3, 10**4, 10**6, 10**8):
            assert 6 ** prefix_length(n) <= max(6, n // 4)


class TestPrefixJumpTable:
    def _interval_by_extends(self, codes, sa, pattern):
        lo, hi = 0, int(sa.size)
        for depth, ch in enumerate(pattern):
            lo, hi = extend_interval(codes, sa, lo, hi, depth, int(ch))
            if lo >= hi:
                return lo, lo
        return lo, hi

    def test_every_interval_matches_extends(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 5, size=1500).astype(np.uint8)
        sa = build_suffix_array(codes)
        table = PrefixJumpTable.build(codes, sa, length=3)
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    for pattern in ([a], [a, b], [a, b, c]):
                        got = table.interval(pattern)
                        want = self._interval_by_extends(codes, sa, pattern)
                        if want[0] >= want[1]:
                            assert got[0] >= got[1], pattern
                        else:
                            assert got == want, pattern

    def test_short_suffixes_sort_below_longer(self):
        # genome "AA": suffix "A" (pos 1) sorts before "AA" (pos 0); the
        # k-mer "AA" must select only position 0 (the base-5 'A'-padding
        # encoding would wrongly include position 1)
        codes = encode("AA")
        sa = build_suffix_array(codes)
        table = PrefixJumpTable.build(codes, sa, length=2)
        assert table.interval([0, 0]) == (1, 2)
        assert table.interval([0]) == (0, 2)

    def test_auto_length(self):
        codes = np.zeros(6**4 * 4, dtype=np.uint8)
        sa = build_suffix_array(codes)
        table = PrefixJumpTable.build(codes, sa)
        assert table.length == prefix_length(codes.size)

    def test_too_deep_prefix_rejected(self):
        codes = encode("ACGT")
        table = PrefixJumpTable.build(codes, build_suffix_array(codes), length=2)
        with pytest.raises(ValueError):
            table.interval([0, 1, 2])

    def test_wrong_bounds_size_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            PrefixJumpTable(2, np.zeros(10, dtype=np.int64))

    @given(dna)
    @settings(max_examples=40)
    def test_property_matches_extends(self, s):
        codes = encode(s)
        if codes.size == 0:
            return
        sa = build_suffix_array(codes)
        table = PrefixJumpTable.build(codes, sa)
        rng = np.random.default_rng(codes.size)
        for _ in range(10):
            m = int(rng.integers(1, table.length + 1))
            pattern = rng.integers(0, 5, size=m).tolist()
            got = table.interval(pattern)
            want = self._interval_by_extends(codes, sa, pattern)
            if want[0] >= want[1]:
                assert got[0] >= got[1]
            else:
                assert got == want


class TestSuffixKeys:
    @staticmethod
    def decode(key: int) -> list[int]:
        """A key's symbols, most significant first; -1 past the end."""
        fields = [(key >> (3 * (SUFFIX_KEY_LENGTH - 1 - d))) & 7 for d in range(10)]
        return [f - 1 for f in fields]

    @given(dna)
    @settings(max_examples=50, deadline=None)
    def test_property_keys_pack_the_first_ten_symbols_in_sa_order(self, s):
        codes = encode(s)
        sa = build_suffix_array(codes)
        keys = build_suffix_keys(codes, sa)
        assert keys.dtype == np.int32 and keys.size == codes.size
        assert np.all(np.diff(keys) >= 0)  # sorted along the suffix array
        for i, start in enumerate(sa.tolist()):
            head = codes[start : start + SUFFIX_KEY_LENGTH].tolist()
            padding = [-1] * (SUFFIX_KEY_LENGTH - len(head))
            assert self.decode(int(keys[i])) == head + padding

    def test_context_takes_keys_without_rebuilding(self, monkeypatch):
        from repro.align import suffix_array

        codes = encode("ACGTNACGTTTGCA" * 5)
        sa = build_suffix_array(codes)
        keys = build_suffix_keys(codes, sa)

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("suffix keys rebuilt")

        monkeypatch.setattr(suffix_array, "build_suffix_keys", boom)
        ctx = suffix_array.SearchContext(codes, sa, keys=keys)
        assert np.shares_memory(ctx.keys, keys)

    def test_wrong_key_count_rejected(self):
        from repro.align.suffix_array import SearchContext

        codes = encode("ACGTACGT")
        sa = build_suffix_array(codes)
        with pytest.raises(ValueError, match="one entry per SA position"):
            SearchContext(codes, sa, keys=build_suffix_keys(codes, sa)[:-1])


class TestSeedSearchStats:
    def test_snapshot_since_merge_roundtrip(self):
        stats = SeedSearchStats()
        stats.queries = 5
        stats.table_hits = 3
        stats.fallback_depths[2] = 1
        before = stats.snapshot()
        stats.queries += 2
        stats.table_fallbacks += 1
        stats.fallback_depths[2] += 1
        stats.fallback_depths[0] = 1
        delta = stats.since(before)
        assert delta["queries"] == 2
        assert delta["table_fallbacks"] == 1
        assert delta["fallback_depths"] == {2: 1, 0: 1}
        merged = SeedSearchStats()
        merged.merge(before)
        merged.merge(delta)
        assert merged.as_dict() == stats.as_dict()


class TestSearchContext:
    """The fast-path context must agree exactly with the reference search."""

    def test_extend_matches_reference(self):
        from repro.align.suffix_array import SearchContext

        rng = np.random.default_rng(3)
        codes = rng.integers(0, 5, size=2000).astype(np.uint8)
        sa = build_suffix_array(codes)
        ctx = SearchContext(codes, sa)
        for pattern_len in (1, 3, 8, 15):
            for _ in range(30):
                start = int(rng.integers(0, codes.size - pattern_len))
                pattern = codes[start : start + pattern_len]
                lo, hi = 0, sa.size
                clo, chi = 0, ctx.n
                for depth, ch in enumerate(pattern):
                    lo, hi = extend_interval(codes, sa, lo, hi, depth, int(ch))
                    clo, chi = ctx.extend(clo, chi, depth, int(ch))
                    assert (clo, chi) == (lo, hi)

    def test_first_bounds_cover_all_symbols(self):
        from repro.align.suffix_array import SearchContext

        codes = encode("ACGTNACGTN")
        sa = build_suffix_array(codes)
        ctx = SearchContext(codes, sa)
        total = sum(
            ctx.first_bounds[s + 1] - ctx.first_bounds[s] for s in range(5)
        )
        assert total == codes.size
        # each symbol's bucket holds exactly its occurrence count
        for s in range(5):
            assert ctx.first_bounds[s + 1] - ctx.first_bounds[s] == int(
                (codes == s).sum()
            )

    def test_empty_genome(self):
        from repro.align.suffix_array import SearchContext

        codes = encode("")
        ctx = SearchContext(codes, build_suffix_array(codes))
        assert ctx.extend(0, 0, 0, 2) == (0, 0)
