"""Genome index tests."""

import numpy as np
import pytest

from repro.align.index import GenomeIndex, genome_generate
from repro.genome.alphabet import encode
from repro.genome.model import Assembly, Contig


@pytest.fixture(scope="module")
def small_index():
    asm = Assembly(
        "mini",
        [Contig("1", encode("ACGTACGTAC")), Contig("2", encode("TTTTGGGG"))],
    )
    return genome_generate(asm)


class TestCoordinates:
    def test_contig_of(self, small_index):
        assert small_index.contig_of(0) == 0
        assert small_index.contig_of(9) == 0
        assert small_index.contig_of(10) == 1
        assert small_index.contig_of(17) == 1

    def test_contig_of_out_of_range(self, small_index):
        with pytest.raises(IndexError):
            small_index.contig_of(18)
        with pytest.raises(IndexError):
            small_index.contig_of(-1)

    def test_roundtrip_coords(self, small_index):
        for pos in range(small_index.n_bases):
            contig, offset = small_index.to_contig_coords(pos)
            assert small_index.to_absolute(contig, offset) == pos

    def test_to_absolute_bounds(self, small_index):
        with pytest.raises(IndexError):
            small_index.to_absolute("1", 10)

    def test_to_absolute_unknown_contig(self, small_index):
        with pytest.raises(ValueError, match="mini"):
            small_index.to_absolute("chrMT", 0)

    def test_to_absolute_matches_offsets_table(self, small_index):
        # the cached name->ordinal map must agree with a linear scan
        for ordinal, name in enumerate(small_index.names):
            assert (
                small_index.to_absolute(name, 0)
                == small_index.offsets[ordinal]
            )

    def test_span_within_contig(self, small_index):
        assert small_index.span_within_contig(0, 10)
        assert not small_index.span_within_contig(5, 10)  # crosses boundary
        assert small_index.span_within_contig(10, 8)
        assert not small_index.span_within_contig(10, 9)  # off the end
        assert not small_index.span_within_contig(0, 0)


class TestSjdb:
    def test_annotated_junctions_loaded(self, index_r111, universe):
        expected = set(universe.annotation.splice_junctions())
        assert index_r111.sjdb == expected
        assert len(index_r111.sjdb) > 0

    def test_is_annotated_junction(self, index_r111, universe):
        contig, start, end = next(iter(index_r111.sjdb))
        donor = index_r111.to_absolute(contig, start)
        acceptor = index_r111.to_absolute(contig, end)
        assert index_r111.is_annotated_junction(donor, acceptor)
        assert not index_r111.is_annotated_junction(donor + 1, acceptor)

    def test_annotated_junctions_match_the_per_pair_lookup(self, index_r111):
        """The array lookup agrees with is_annotated_junction on every sjdb
        junction, its near misses and cross-contig pairs."""
        donors, acceptors = [], []
        for contig, start, end in sorted(index_r111.sjdb):
            donor = index_r111.to_absolute(contig, start)
            acceptor = index_r111.to_absolute(contig, end)
            for dd, da in ((0, 0), (1, 0), (0, -1), (-1, 1)):
                donors.append(donor + dd)
                acceptors.append(acceptor + da)
        rng = np.random.default_rng(3)
        donors += rng.integers(0, index_r111.n_bases, 500).tolist()
        acceptors += rng.integers(0, index_r111.n_bases, 500).tolist()
        expected = [
            index_r111.is_annotated_junction(d, a) for d, a in zip(donors, acceptors)
        ]
        got = index_r111.annotated_junctions(np.array(donors), np.array(acceptors))
        assert got.tolist() == expected
        assert sum(expected) == len(index_r111.sjdb)

    def test_annotated_junctions_ignore_entries_outside_their_contig(self):
        # an entry whose acceptor runs past its contig's end would alias the
        # next contig's first base in absolute coordinates
        contigs = [Contig("1", encode("ACGT" * 10)), Contig("2", encode("TT"))]
        index = genome_generate(Assembly("two", contigs))
        index.sjdb = {("1", 2, 40), ("1", 2, 30), ("9", 0, 1)}
        got = index.annotated_junctions(np.array([2, 2, 2]), np.array([40, 30, 99]))
        assert got.tolist() == [False, True, False]
        assert not index.is_annotated_junction(2, 40)


class TestSize:
    def test_size_dominated_by_suffix_array(self, small_index):
        size = small_index.size_bytes()
        assert size >= 9 * small_index.n_bases  # 1 (genome) + 8 (SA)

    def test_index_size_tracks_genome_size(self, index_r108, index_r111):
        """The §III-A mechanism: bigger FASTA -> proportionally bigger index."""
        ratio = index_r108.size_bytes() / index_r111.size_bytes()
        genome_ratio = index_r108.n_bases / index_r111.n_bases
        assert ratio == pytest.approx(genome_ratio, rel=0.02)

    def test_search_context_accounting(self, small_index):
        base = small_index.size_bytes()
        full = small_index.size_bytes(include_search_context=True)
        # bytes-genome copy (1 B/base) + the sorted suffix keys (4 B/base)
        # + the jump table's bounds array; the packed SA memoryview is
        # zero-copy over the index's own array
        assert full - base == 5 * small_index.n_bases + small_index.jump_table.nbytes

    def test_search_context_accounting_matches_live_context(self, small_index):
        ctx = small_index.search_context  # force the build
        base = small_index.size_bytes()
        full = small_index.size_bytes(include_search_context=True)
        assert ctx._sa_copy_bytes == 0  # contiguous int64 SA -> no copy
        keys = small_index.suffix_keys.nbytes
        jump = small_index.jump_table.nbytes
        assert full - base == ctx.resident_extra_bytes() + jump + keys

    def test_search_context_estimate_matches_actual(self):
        # the pre-build estimate must equal the post-build measurement,
        # otherwise right-sizing would budget a different number depending
        # on whether the aligner warmed up yet
        asm = Assembly(
            "est", [Contig("1", encode("ACGTACGTNNACGTACGT" * 20))]
        )
        index = genome_generate(asm)
        estimated = index.size_bytes(include_search_context=True)
        index.search_context  # noqa: B018 - build it
        assert index.size_bytes(include_search_context=True) == estimated


class TestPersistence:
    def test_save_load_roundtrip(self, small_index, tmp_path):
        path = tmp_path / "index.bin"
        written = small_index.save(path)
        assert written == path.stat().st_size
        back = GenomeIndex.load(path)
        assert back.assembly_name == small_index.assembly_name
        assert np.array_equal(back.genome, small_index.genome)
        assert np.array_equal(back.suffix_array, small_index.suffix_array)
        assert back.names == small_index.names

    def test_save_load_with_annotation(self, index_r111, tmp_path):
        path = tmp_path / "full.bin"
        index_r111.save(path)
        back = GenomeIndex.load(path)
        assert back.sjdb == index_r111.sjdb
        assert back.annotation.gene_ids == index_r111.annotation.gene_ids


class TestValidation:
    def test_mismatched_sa_rejected(self):
        genome = encode("ACGT")
        with pytest.raises(ValueError):
            GenomeIndex(
                assembly_name="x",
                genome=genome,
                suffix_array=np.arange(3),
                offsets=np.array([0, 4]),
                names=["1"],
            )

    def test_bad_offsets_rejected(self):
        genome = encode("ACGT")
        with pytest.raises(ValueError):
            GenomeIndex(
                assembly_name="x",
                genome=genome,
                suffix_array=np.arange(4),
                offsets=np.array([0, 4]),
                names=["1", "2"],
            )
