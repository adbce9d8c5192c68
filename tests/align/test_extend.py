"""Extension and scoring tests."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.extend import ScoringParams, batch_ungapped_extend, ungapped_extend
from repro.align.index import GenomeIndex, genome_generate
from repro.genome.alphabet import BASE_N, encode
from repro.genome.model import Assembly, Contig


@pytest.fixture(scope="module")
def index():
    return genome_generate(
        Assembly("m", [Contig("1", encode("ACGTACGTAC")), Contig("2", encode("GGGGNCCCC"))])
    )


class TestScoringParams:
    def test_score(self):
        s = ScoringParams()
        assert s.score(matched=10, mismatched=2) == 8

    def test_accepts_within_budget(self):
        s = ScoringParams(max_mismatches=2, min_matched_fraction=0.5)
        assert s.accepts(matched=8, mismatched=2, read_length=10)
        assert not s.accepts(matched=8, mismatched=3, read_length=10)
        assert not s.accepts(matched=4, mismatched=2, read_length=10)


class TestUngappedExtend:
    def test_perfect_match(self, index):
        res = ungapped_extend(index, encode("ACGT"), 0, max_mismatches=0)
        assert res.ok and res.mismatches == 0 and res.matched == 4

    def test_counts_mismatches(self, index):
        res = ungapped_extend(index, encode("ACCT"), 0, max_mismatches=2)
        assert res.ok and res.mismatches == 1

    def test_budget_exceeded(self, index):
        res = ungapped_extend(index, encode("TTTT"), 0, max_mismatches=2)
        assert not res.ok

    def test_contig_boundary_fails(self, index):
        # position 8 is contig "1" offset 8; a 4-long segment crosses into "2"
        res = ungapped_extend(index, encode("ACGG"), 8, max_mismatches=4)
        assert not res.ok

    def test_off_end_fails(self, index):
        res = ungapped_extend(index, encode("CCCCC"), 17, max_mismatches=5)
        assert not res.ok

    def test_genome_n_counts_as_mismatch(self, index):
        # contig "2" starts at abs 10: GGGGNCCCC; align GGGGG over the N
        res = ungapped_extend(index, encode("GGGGG"), 10, max_mismatches=1)
        assert res.ok and res.mismatches == 1

    def test_read_n_counts_as_mismatch(self, index):
        res = ungapped_extend(index, encode("ACGN"), 0, max_mismatches=1)
        assert res.ok and res.mismatches == 1

    def test_n_vs_n_still_mismatch(self, index):
        # genome N at abs position 14
        res = ungapped_extend(index, encode("N"), 14, max_mismatches=1)
        assert res.mismatches == 1

    def test_empty_segment(self, index):
        res = ungapped_extend(index, encode(""), 0, max_mismatches=0)
        assert res.ok and res.length == 0


@dataclass
class ExtensionCase:
    """One batch of (segment, position) pairs over a small random genome."""

    index: GenomeIndex
    bases: np.ndarray
    seg_offsets: np.ndarray
    seg_lengths: np.ndarray
    genome_starts: np.ndarray
    verified_prefix: np.ndarray
    max_mismatches: int


#: placements whose segment leaves its contig or the genome
OFF_SPAN = ("crosses", "negative", "past_end")


@st.composite
def extension_cases(draw) -> ExtensionCase:
    """1–3 contigs with N runs, and 1–40 pairs of every placement kind.

    Segments are 0–300 bases, so some run past the kernel's widest
    column chunk.  Each is a genome window with 0–12 substitutions or
    random noise, placed inside a contig, across a contig end, at a
    negative start or past the genome end.  Verified prefixes are N-free
    exact matches, as the batch core's seeds are.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    contigs = []
    for k in range(draw(st.integers(1, 3))):
        seq = rng.integers(0, 4, int(rng.integers(1, 700))).astype(np.uint8)
        for _ in range(int(rng.integers(0, 4))):
            at = int(rng.integers(0, seq.size))
            seq[at : at + int(rng.integers(1, 20))] = BASE_N
        contigs.append(Contig(f"c{k}", seq))
    index = genome_generate(Assembly("hyp", contigs))
    genome = np.asarray(index.genome)
    n_bases = index.n_bases
    bounds = np.asarray(index.offsets, dtype=np.int64)
    ends = bounds[1:]

    pieces, offsets, lengths, starts, prefixes = [], [], [], [], []
    size = 0
    for _ in range(draw(st.integers(1, 40))):
        length = int(rng.integers(0, 301))
        kind = "inside" if draw(st.booleans()) else draw(st.sampled_from(OFF_SPAN))
        if kind == "inside":
            c = int(rng.integers(0, ends.size))
            room = max(int(ends[c] - bounds[c]) - length, 0)
            start = int(bounds[c]) + int(rng.integers(0, room + 1))
        elif kind == "crosses":
            start = int(rng.choice(ends)) - int(rng.integers(1, max(length, 2)))
        elif kind == "negative":
            start = -int(rng.integers(1, length + 2))
        else:
            start = n_bases - length + int(rng.integers(1, length + 10))
        at = start + np.arange(length)
        inside = (at >= 0) & (at < n_bases)
        window = np.where(inside, genome[np.clip(at, 0, n_bases - 1)], 5)
        if draw(st.booleans()):
            seg = rng.integers(0, 5, length).astype(np.uint8)
        else:
            seg = np.where(inside, window, rng.integers(0, 4, length)).astype(np.uint8)
            subs = rng.integers(0, max(length, 1), int(rng.integers(0, 13)))
            seg[subs[subs < length]] = rng.integers(0, 5, int((subs < length).sum()))
        # longest N-free prefix that matches the genome symbol for symbol
        same = (seg == window) & (seg != BASE_N)
        matched = length if same.all() else int(np.argmin(same))
        gap = rng.integers(0, 5, int(rng.integers(0, 4))).astype(np.uint8)
        pieces += [gap, seg]
        offsets.append(size + gap.size)
        size += gap.size + length
        lengths.append(length)
        starts.append(start)
        prefixes.append(int(rng.integers(0, matched + 1)))
    return ExtensionCase(
        index=index,
        bases=np.concatenate(pieces).astype(np.uint8),
        seg_offsets=np.array(offsets, dtype=np.int64),
        seg_lengths=np.array(lengths, dtype=np.int64),
        genome_starts=np.array(starts, dtype=np.int64),
        verified_prefix=np.array(prefixes, dtype=np.int64),
        max_mismatches=draw(st.integers(0, 8)),
    )


class TestBatchUngappedExtend:
    """The budgeted batch kernel against the per-pair oracle."""

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(extension_cases(), st.booleans())
    def test_matches_the_oracle_within_budget(self, case, with_prefix):
        budget = case.max_mismatches
        mismatches, ok = batch_ungapped_extend(
            case.index,
            case.bases,
            case.seg_offsets,
            case.seg_lengths,
            case.genome_starts,
            max_mismatches=budget,
            verified_prefix=case.verified_prefix if with_prefix else None,
        )
        for i, (off, length, start) in enumerate(
            zip(case.seg_offsets, case.seg_lengths, case.genome_starts)
        ):
            seg = case.bases[off : off + length]
            expected = ungapped_extend(
                case.index, seg, int(start), max_mismatches=budget
            )
            assert ok[i] == expected.ok
            if expected.mismatches <= budget:
                assert mismatches[i] == expected.mismatches
            else:
                assert mismatches[i] > budget
            if length and not case.index.span_within_contig(int(start), int(length)):
                assert mismatches[i] == length

    def test_does_not_copy_the_genome(self):
        """One call allocates batch-sized arrays only: its peak stays far
        below the genome's bytes, which a per-call genome copy would reach."""
        rng = np.random.default_rng(5)
        contigs = [
            Contig(name, rng.integers(0, 4, 1_000_000).astype(np.uint8))
            for name in ("1", "2")
        ]
        index = genome_generate(Assembly("big", contigs))
        index.search_context  # noqa: B018 - built once per index, not per call
        starts = rng.integers(0, index.n_bases - 100, 20)
        bases = np.concatenate([index.genome[s : s + 100] for s in starts])
        tracemalloc.start()
        try:
            mismatches, ok = batch_ungapped_extend(
                index,
                bases,
                np.arange(20) * 100,
                np.full(20, 100),
                starts,
                max_mismatches=4,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * index.n_bases
        # a window that crosses the contig boundary fails; every other one is exact
        crosses = (starts < 1_000_000) & (starts + 100 > 1_000_000)
        assert np.array_equal(ok, ~crosses)
        assert np.array_equal(mismatches, np.where(crosses, 100, 0))
