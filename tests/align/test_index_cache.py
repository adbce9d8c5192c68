"""Content-addressed index cache tests: round-trip identity and mmap loads."""

import numpy as np
import pytest

import repro.align.index as index_mod
from repro.align.cache import IndexCache, cached_genome_generate, index_fingerprint
from repro.align.seeds import seed_decomposition
from repro.align.star import StarAligner, StarParameters
from repro.genome.alphabet import encode
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.model import Assembly, Contig
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator
from repro.util.rng import ensure_rng


@pytest.fixture(scope="module")
def universe():
    return make_universe(GenomeUniverseSpec(), ensure_rng(42))


@pytest.fixture(scope="module")
def assembly(universe):
    return build_release_assembly(universe, EnsemblRelease.R111, rng=1)


class TestFingerprint:
    def test_deterministic(self, universe, assembly):
        assert index_fingerprint(assembly, universe.annotation) == index_fingerprint(
            assembly, universe.annotation
        )

    def test_sensitive_to_sequence(self):
        a = Assembly("x", [Contig("1", encode("ACGTACGT"))])
        b = Assembly("x", [Contig("1", encode("ACGTACGA"))])
        assert index_fingerprint(a) != index_fingerprint(b)

    def test_sensitive_to_annotation(self, universe, assembly):
        assert index_fingerprint(assembly, universe.annotation) != index_fingerprint(
            assembly, None
        )


class TestRoundTrip:
    def test_arrays_byte_identical(self, tmp_path, universe, assembly):
        cache = IndexCache(tmp_path)
        direct = index_mod.genome_generate(assembly, universe.annotation)
        cached = cache.get_or_build(assembly, universe.annotation)
        assert np.array_equal(direct.genome, cached.genome)
        assert np.array_equal(direct.suffix_array, cached.suffix_array)
        assert np.array_equal(direct.offsets, cached.offsets)
        assert np.array_equal(direct.jump_table.bounds, cached.jump_table.bounds)
        assert direct.jump_table.length == cached.jump_table.length
        assert cached.suffix_keys.dtype == np.int32
        assert np.array_equal(direct.suffix_keys, cached.suffix_keys)
        assert direct.names == cached.names
        assert direct.sjdb == cached.sjdb

    def test_loads_are_memory_mapped(self, tmp_path, universe, assembly):
        cache = IndexCache(tmp_path)
        cached = cache.get_or_build(assembly, universe.annotation)
        assert isinstance(cached.genome, np.memmap)
        assert isinstance(cached.suffix_array, np.memmap)
        assert isinstance(cached.jump_table.bounds, np.memmap)
        assert isinstance(cached.suffix_keys, np.memmap)
        # zero-copy search context over the memmaps
        ctx = cached.search_context
        assert ctx._sa_copy_bytes == 0
        assert np.shares_memory(ctx.keys, cached.suffix_keys)

    def test_second_load_skips_sa_construction(
        self, tmp_path, universe, assembly, monkeypatch
    ):
        cache = IndexCache(tmp_path)
        cache.get_or_build(assembly, universe.annotation)
        assert (cache.hits, cache.misses) == (0, 1)

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("suffix array rebuilt on a cache hit")

        monkeypatch.setattr(index_mod, "build_suffix_array", boom)
        again = cache.get_or_build(assembly, universe.annotation)
        assert (cache.hits, cache.misses) == (1, 1)
        assert again.n_bases == assembly.total_length

    def test_alignment_identical(self, tmp_path, universe, assembly):
        reads = ReadSimulator(assembly, universe.annotation).simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=60, read_length=80),
            rng=ensure_rng(7),
        )
        direct = index_mod.genome_generate(assembly, universe.annotation)
        cached = IndexCache(tmp_path).get_or_build(assembly, universe.annotation)
        params = StarParameters(progress_every=1000)
        run_a = StarAligner(direct, params).run(reads.records)
        run_b = StarAligner(cached, params).run(reads.records)
        assert run_a.mapped_fraction == run_b.mapped_fraction
        assert [o.status for o in run_a.outcomes] == [o.status for o in run_b.outcomes]
        # seed decomposition itself is bit-identical on the mmap'd index
        for rec in reads.records[:10]:
            assert seed_decomposition(direct, rec.sequence) == seed_decomposition(
                cached, rec.sequence
            )

    def test_entries_and_sizes(self, tmp_path, universe, assembly):
        cache = IndexCache(tmp_path)
        fp = cache.fingerprint(assembly, universe.annotation)
        assert fp not in cache
        assert cache.entries() == []
        cache.get_or_build(assembly, universe.annotation)
        assert fp in cache
        assert cache.entries() == [fp]
        assert cache.entry_bytes(fp) > 8 * assembly.total_length

    def test_store_without_jump_table_builds_one(self, tmp_path):
        asm = Assembly("j", [Contig("1", encode("ACGTACGTNNACGT" * 30))])
        index = index_mod.genome_generate(asm, jump_table=False)
        assert index.jump_table is None
        cache = IndexCache(tmp_path)
        fp = cache.fingerprint(asm)
        cache.store(fp, index)
        loaded = cache.load(fp)
        assert loaded.jump_table is not None
        rebuilt = index_mod.genome_generate(asm)
        assert np.array_equal(loaded.jump_table.bounds, rebuilt.jump_table.bounds)
        assert np.array_equal(loaded.suffix_keys, rebuilt.suffix_keys)

    def test_old_format_entry_is_rebuilt_not_attached(self, tmp_path):
        """An entry of format 1 (no suffix keys) is refused by fingerprint,
        and the lookup builds a current entry in its place."""
        import json

        import repro.align.cache as cache_mod

        asm = Assembly("old", [Contig("1", encode("ACGTTGCANNACGT" * 20))])
        cache = IndexCache(tmp_path)
        fresh = index_mod.genome_generate(asm)
        current = cache.fingerprint(asm)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache_mod, "_FORMAT_VERSION", 1)
            old = cache.fingerprint(asm)
            cache.store(old, index_mod.genome_generate(asm))
        entry = cache.path_for(old)
        (entry / "suffix_keys.npy").unlink()
        meta = json.loads((entry / "meta.json").read_text())
        assert old != current and meta["version"] == 1
        with pytest.raises(ValueError, match="format version"):
            cache.load(old)

        loaded = cache.get_or_build(asm)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.entries() == [current]
        assert not entry.exists()
        assert np.array_equal(loaded.suffix_keys, fresh.suffix_keys)

    def test_store_keeps_newer_unreadable_and_unfinished_entries(self, tmp_path):
        import json

        asm = Assembly("keep", [Contig("1", encode("ACGTTGCANNACGT" * 20))])
        cache = IndexCache(tmp_path)
        siblings = {
            "newer": {"version": 999},
            "unreadable": None,
            ".tmp-old-1": {"version": 1},
        }
        for name, meta in siblings.items():
            (tmp_path / name).mkdir()
            text = "{not json" if meta is None else json.dumps(meta)
            (tmp_path / name / "meta.json").write_text(text)
        cache.get_or_build(asm)
        assert all((tmp_path / name / "meta.json").is_file() for name in siblings)

    def test_version_mismatch_rejected(self, tmp_path, universe, assembly):
        import json

        cache = IndexCache(tmp_path)
        cache.get_or_build(assembly, universe.annotation)
        fp = cache.fingerprint(assembly, universe.annotation)
        meta_path = cache.path_for(fp) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format version"):
            cache.load(fp)


class TestCachedGenomeGenerate:
    def test_none_cache_dir_plain_build(self, universe, assembly):
        index = cached_genome_generate(assembly, universe.annotation, cache_dir=None)
        assert not isinstance(index.genome, np.memmap)

    def test_cache_dir_round_trips(self, tmp_path, universe, assembly):
        first = cached_genome_generate(
            assembly, universe.annotation, cache_dir=tmp_path
        )
        second = cached_genome_generate(
            assembly, universe.annotation, cache_dir=tmp_path
        )
        assert isinstance(second.genome, np.memmap)
        assert np.array_equal(first.suffix_array, second.suffix_array)
