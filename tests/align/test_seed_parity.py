"""Seed parity: the batch MMP kernel against the per-read search.

:func:`repro.align.batch.batch_mmp` resolves a whole query set through
the sorted suffix keys and counts the per-read walk's
:class:`~repro.align.suffix_array.SeedSearchStats` in closed form, so
every query here runs through both and must agree on the seed length,
the sorted hit positions and every counter delta (``batch_queries``
aside, which only the batch path counts).  Inputs reach the closed
form's edges: genomes with N runs, reads shorter than the ten-symbol key
and than the jump table's k-mer, query starts inside the read, an index
without a jump table, and the repeat-rich genomes of
:mod:`tests.align.repeats`.  The hit lists the batch core gathers from
the intervals must equal the per-read ones too: cut at ``max_hits``,
then sorted.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.align.batch import _gather_positions, _hit_key_bits, batch_mmp
from repro.align.index import GenomeIndex, genome_generate
from repro.align.seeds import maximal_mappable_prefix
from repro.align.suffix_array import SUFFIX_KEY_LENGTH
from repro.genome.alphabet import BASE_N, reverse_complement
from repro.genome.model import Assembly, Contig
from tests.align.repeats import repeat_cases


def assert_seed_parity(
    index: GenomeIndex, queries: list[tuple[np.ndarray, int]], max_hits=None
):
    """Run ``(read, read_start)`` queries through both searches and compare."""
    ctx = index.search_context
    max_hits = index.n_bases if max_hits is None else max_hits
    before = ctx.stats.snapshot()
    expected = [
        maximal_mappable_prefix(index, read, read_start=start, max_hits=max_hits)
        for read, start in queries
    ]
    per_read = ctx.stats.since(before)

    lengths = np.array([read.size for read, _ in queries], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    starts = np.array([start for _, start in queries], dtype=np.int64)
    bases = np.concatenate([read for read, _ in queries]).astype(np.uint8)
    before = ctx.stats.snapshot()
    depth, lo, hi = batch_mmp(ctx, bases, offsets + starts, lengths - starts)
    batched = ctx.stats.since(before)

    assert [int(d) for d in depth] == [hit.length for hit in expected]
    for q, hit in enumerate(expected):
        if hit.length:
            assert hi[q] - lo[q] == hit.n_hits
    _, starts, positions = _gather_positions(ctx, depth, lo, hi, max_hits)
    assert [
        tuple(positions[a:b].tolist()) for a, b in zip(starts[:-1], starts[1:])
    ] == [hit.positions for hit in expected]
    assert batched.pop("batch_queries") == len(queries)
    assert per_read.pop("batch_queries") == 0
    assert batched == per_read
    return per_read


def random_genome(rng: np.random.Generator, size: int, n_runs: int) -> np.ndarray:
    genome = rng.integers(0, 4, size).astype(np.uint8)
    for _ in range(n_runs):
        start = int(rng.integers(0, size))
        genome[start : start + int(rng.integers(1, 12))] = BASE_N
    return genome


def sample_queries(
    rng: np.random.Generator, genome: np.ndarray, n_queries: int, max_length: int
) -> list[tuple[np.ndarray, int]]:
    """Genome slices (some mutated, some reverse-complemented), noise reads
    and empty reads, each with a start at 0 or inside the read."""
    queries = []
    for _ in range(n_queries):
        length = int(rng.integers(0, max_length + 1))
        if rng.random() < 0.7:
            start = int(rng.integers(0, genome.size))
            read = genome[start : start + length].copy()
            for _ in range(int(rng.integers(0, 3))):
                if read.size:
                    read[int(rng.integers(0, read.size))] = rng.integers(0, 5)
            if rng.random() < 0.2:
                read = reverse_complement(read)
        else:
            read = rng.integers(0, 5, length).astype(np.uint8)
        inside = rng.random() < 0.4
        queries.append((read, int(rng.integers(0, read.size + 1)) if inside else 0))
    return queries


class TestRandomGenomes:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("jump_table", [True, False])
    def test_genomes_with_n_runs(self, seed, jump_table):
        rng = np.random.default_rng(seed)
        genome = random_genome(rng, int(rng.integers(200, 4000)), n_runs=6)
        index = genome_generate(
            Assembly("parity", [Contig("1", genome)]), jump_table=jump_table
        )
        assert (index.jump_table is not None) == jump_table
        delta = assert_seed_parity(index, sample_queries(rng, genome, 300, 80))
        assert delta["queries"] == 300
        assert delta["extend_steps"] > 0 and delta["lce_skips"] > 0
        if jump_table:
            assert delta["table_hits"] > 0 and delta["table_fallbacks"] > 0

    def test_reads_shorter_than_the_key_and_the_jump_table(self):
        rng = np.random.default_rng(31)
        genome = random_genome(rng, 3000, n_runs=10)
        index = genome_generate(Assembly("short", [Contig("1", genome)]))
        jump = index.jump_table.length
        assert 1 < jump < SUFFIX_KEY_LENGTH  # the premise: both limits bite
        queries = sample_queries(rng, genome, 400, max_length=jump - 1)
        queries += sample_queries(rng, genome, 400, max_length=SUFFIX_KEY_LENGTH)
        queries += [(np.zeros(0, dtype=np.uint8), 0)]
        assert_seed_parity(index, queries)

    def test_low_complexity_genome(self):
        """Homopolymer and dinucleotide runs keep intervals wide past
        depth ten, so lanes reach every deeper regime."""
        rng = np.random.default_rng(7)
        genome = np.concatenate(
            [
                np.zeros(300, dtype=np.uint8),
                np.tile(np.array([1, 2], dtype=np.uint8), 200),
                random_genome(rng, 600, n_runs=2),
                np.full(50, BASE_N, dtype=np.uint8),
            ]
        )
        index = genome_generate(Assembly("lowc", [Contig("1", genome)]))
        assert_seed_parity(index, sample_queries(rng, genome, 300, 120))

    def test_degenerate_genomes(self):
        for text in ([], [0], [4], [1, 1], [0] * 13):
            genome = np.array(text, dtype=np.uint8)
            for jump_table in (True, False):
                index = genome_generate(
                    Assembly("tiny", [Contig("1", genome)]), jump_table=jump_table
                )
                queries = [
                    (np.array(read, dtype=np.uint8), start)
                    for read, start in (
                        ([], 0),
                        ([0], 0),
                        ([0] * 12, 0),
                        ([0] * 12, 3),
                        ([1, 1, 1], 1),
                        ([4], 0),
                    )
                ]
                assert_seed_parity(index, queries)


class TestKernelEdges:
    def test_hit_lists_cut_at_max_hits(self):
        """Seeds in a tiled genome hit more suffixes than the cap: the
        list keeps the interval's first ``max_hits`` suffix-array entries,
        then sorts them."""
        rng = np.random.default_rng(51)
        unit = rng.integers(0, 4, 30).astype(np.uint8)
        genome = np.concatenate(
            [np.tile(unit, 40), random_genome(rng, 800, n_runs=2), np.tile(unit, 9)]
        )
        index = genome_generate(Assembly("tiled", [Contig("1", genome)]))
        queries = [
            (genome[s : s + n].copy(), 0) for s in range(0, 60, 7) for n in (3, 12, 45)
        ]
        queries += sample_queries(rng, genome, 100, 50)
        for max_hits in (1, 2, 20, 50):
            assert_seed_parity(index, queries, max_hits=max_hits)

    def test_n_at_the_edges_and_all_n_reads(self):
        """Queries that start or end on an N matched against a genome N
        run, and all-N queries shorter and longer than the key and the
        runs."""
        rng = np.random.default_rng(52)
        genome = random_genome(rng, 2000, n_runs=0)
        runs = ((300, 1), (700, 4), (1200, 25))
        for at, run in runs:
            genome[at : at + run] = BASE_N
        index = genome_generate(Assembly("nrun", [Contig("1", genome)]))
        queries = []
        for at, run in runs:
            queries += [
                (genome[at : at + 40].copy(), 0),  # N at the first base
                (genome[at - 30 : at + run].copy(), 0),  # N at the last base
                (genome[at - 30 : at + 40].copy(), 30),  # N first, mid-read
            ]
        queries += [
            (np.full(n, BASE_N, dtype=np.uint8), start)
            for n in (1, 9, 10, 11, 25, 40)
            for start in (0, n // 2)
        ]
        assert_seed_parity(index, queries)


def test_packed_hit_key_refuses_too_many_intervals():
    """Hit lists sort by one int64 key, interval above position: a 2**40
    base genome takes 41 bits of position, which leaves room for 2**22
    intervals and no more."""
    assert _hit_key_bits(2**40, 1) == 41
    assert _hit_key_bits(2**40, 1 << 22) == 41
    assert ((1 << 22) - 1) << 41 | (1 << 41) - 1 == np.iinfo(np.int64).max
    with pytest.raises(ValueError, match="sort key"):
        _hit_key_bits(2**40, (1 << 22) + 1)
    assert _hit_key_bits(1000, 1 << 53) == 10


class TestSimulatedSample:
    def test_bulk_reads_and_their_remainders(self, index_r111, bulk_sample):
        """The batch core's own query shapes: both orientations from the
        read start, then from inside the read."""
        queries = []
        for record in bulk_sample.records[:120]:
            for read in (record.sequence, reverse_complement(record.sequence)):
                queries += [(read, 0), (read, 23), (read, read.size - 5)]
        assert_seed_parity(index_r111, queries)


class TestRepeatGenomes:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(repeat_cases())
    def test_repeat_cases(self, case):
        queries = []
        for record in case.reads + case.mate1:
            read = record.sequence
            for start in (0, 1, read.size // 2, max(0, read.size - 7)):
                queries.append((read, start))
        assert_seed_parity(case.index, queries)


def test_jump_table_deeper_than_the_keys_is_refused():
    """The closed-form table counters assume the table ends within the
    keys; a deeper table (auto-sized only past 8.7 G bases) is refused."""
    deep = type("DeepContext", (), {"jump_length": SUFFIX_KEY_LENGTH + 1})()
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="deeper than"):
        batch_mmp(deep, empty.astype(np.uint8), empty, empty)
