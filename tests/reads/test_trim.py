"""Read-trimming tests."""

import numpy as np
import pytest

from repro.genome.alphabet import encode
from repro.reads.fastq import FastqRecord
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.trim import (
    DEFAULT_ADAPTER,
    ReadTrimmer,
    TrimConfig,
    contaminate_with_adapter,
)


def record(seq: str, quals=None, rid="r"):
    q = np.full(len(seq), 35, dtype=np.uint8) if quals is None else np.array(
        quals, dtype=np.uint8
    )
    return FastqRecord(rid, encode(seq), q)


@pytest.fixture
def trimmer():
    return ReadTrimmer(TrimConfig(min_length=10))


class TestAdapterDetection:
    def test_full_adapter_found(self, trimmer):
        seq = encode("ACGT" * 10 + DEFAULT_ADAPTER)
        assert trimmer.find_adapter(seq) == 40

    def test_partial_adapter_at_end(self, trimmer):
        seq = encode("ACGT" * 10 + DEFAULT_ADAPTER[:6])
        assert trimmer.find_adapter(seq) == 40

    def test_below_min_overlap_ignored(self, trimmer):
        seq = encode("ACGT" * 10 + DEFAULT_ADAPTER[:4])
        assert trimmer.find_adapter(seq) is None

    def test_one_mismatch_tolerated(self, trimmer):
        mutated = "AGATCGGTAGAGC"  # one substitution in 13 (7.7% < 20%)
        seq = encode("ACGT" * 10 + mutated)
        assert trimmer.find_adapter(seq) == 40

    def test_clean_read_untouched(self, trimmer):
        seq = encode("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")
        assert trimmer.find_adapter(seq) is None


class TestQualityTrim:
    def test_good_read_kept_whole(self, trimmer):
        assert trimmer.quality_trim_point(np.full(50, 35, dtype=np.uint8)) == 50

    def test_bad_tail_removed(self, trimmer):
        quals = np.concatenate(
            [np.full(40, 35, dtype=np.uint8), np.full(10, 3, dtype=np.uint8)]
        )
        keep = trimmer.quality_trim_point(quals)
        # window-mean trimming may keep a couple of bad bases under a good
        # window's wing (as Trimmomatic does); the tail bulk must be gone
        assert 36 <= keep <= 44

    def test_all_bad_read_emptied(self, trimmer):
        assert trimmer.quality_trim_point(np.full(50, 2, dtype=np.uint8)) < 10


class TestTrimRecord:
    def test_adapter_removed(self, trimmer):
        r = record("ACGT" * 10 + DEFAULT_ADAPTER)
        out = trimmer.trim_record(r)
        assert out.length == 40
        assert out.sequence_str == "ACGT" * 10

    def test_short_after_trim_dropped(self, trimmer):
        r = record("ACGTA" + DEFAULT_ADAPTER)  # 5 bases after trimming
        assert trimmer.trim_record(r) is None

    def test_clean_read_identical(self, trimmer):
        r = record("ACGTACGTACGTACGTACGT")
        out = trimmer.trim_record(r)
        assert out.sequence_str == r.sequence_str
        assert np.array_equal(out.qualities, r.qualities)


class TestTrimStream:
    def test_stats_account_everything(self, trimmer):
        records = [
            record("ACGT" * 15),  # clean
            record("ACGT" * 10 + DEFAULT_ADAPTER),  # adapter
            record("AC" + DEFAULT_ADAPTER),  # drops
        ]
        kept, stats = trimmer.trim(records)
        assert stats.reads_in == 3
        assert stats.reads_out == 2
        assert stats.reads_dropped == 1
        assert stats.adapters_trimmed >= 2
        assert len(kept) == 2
        assert stats.bases_out < stats.bases_in
        assert "dropped" in stats.to_text()

    def test_contaminated_sample_recovered(self, simulator, trimmer):
        """End-to-end: contamination hurts alignment; trimming restores it."""
        from repro.align.star import StarAligner, StarParameters

        sample = simulator.simulate(
            SampleProfile(
                LibraryType.BULK_POLYA, n_reads=150, read_length=80,
                offtarget_fraction=0.0, error_rate=0.0,
            ),
            rng=31,
        )
        contaminated = contaminate_with_adapter(
            sample.records, fraction=0.5, rng=7
        )
        trimmed, stats = trimmer.trim(contaminated)
        assert stats.adapters_trimmed > 30

        from repro.align.index import genome_generate  # noqa: F401  (fixture index reused)

        aligner = StarAligner(simulator_index(simulator), StarParameters(progress_every=1000))
        dirty = aligner.run(contaminated).mapped_fraction
        clean = aligner.run(trimmed).mapped_fraction
        assert clean > dirty

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrimConfig(adapter="")
        with pytest.raises(ValueError):
            TrimConfig(adapter_mismatch_rate=2.0)
        with pytest.raises(ValueError):
            TrimConfig(min_length=0)


def simulator_index(simulator):
    """Build (once) an index over the simulator's assembly."""
    from repro.align.index import genome_generate

    if not hasattr(simulator_index, "_cache"):
        simulator_index._cache = genome_generate(
            simulator.assembly, simulator.annotation
        )
    return simulator_index._cache


class TestContaminate:
    def test_fraction_respected(self):
        records = [record("ACGTACGTACGTACGTACGTACGT", rid=f"r{i}") for i in range(200)]
        out = contaminate_with_adapter(records, fraction=0.5, rng=1)
        changed = sum(
            a.sequence_str != b.sequence_str for a, b in zip(records, out)
        )
        assert 70 < changed < 130

    def test_zero_fraction_noop(self):
        records = [record("ACGTACGTACGTACGTACGT")]
        out = contaminate_with_adapter(records, fraction=0.0, rng=1)
        assert out[0].sequence_str == records[0].sequence_str
