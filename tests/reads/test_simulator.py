"""Read simulator tests."""

import pytest

from repro.genome.alphabet import decode
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator, SimulatorConfig


class TestSimulatorConfig:
    def test_defaults_valid(self):
        SimulatorConfig()

    def test_bad_quality_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(mean_quality=50)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(expression_sigma=0)


class TestSimulate:
    def test_read_count_and_length(self, simulator):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=50, read_length=75), rng=0
        )
        assert sample.n_reads == 50
        assert all(r.length == 75 for r in sample.records)

    def test_deterministic(self, simulator):
        p = SampleProfile(LibraryType.BULK_POLYA, n_reads=30, read_length=60)
        s1 = simulator.simulate(p, rng=5)
        s2 = simulator.simulate(p, rng=5)
        assert [r.sequence_str for r in s1.records] == [
            r.sequence_str for r in s2.records
        ]
        assert s1.true_gene == s2.true_gene

    def test_on_target_fraction_tracks_library(self, simulator):
        bulk = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=400, read_length=60), rng=1
        )
        sc = simulator.simulate(
            SampleProfile(LibraryType.SINGLE_CELL_3P, n_reads=400, read_length=60),
            rng=1,
        )
        assert bulk.on_target_fraction > 0.8
        assert sc.on_target_fraction < 0.25

    def test_ground_truth_reads_match_transcripts(
        self, simulator, universe, assembly_r111
    ):
        """Error-free on-target reads must equal the transcript substring."""
        sample = simulator.simulate(
            SampleProfile(
                LibraryType.BULK_POLYA, n_reads=60, read_length=50, error_rate=0.0
            ),
            rng=2,
        )
        transcript_by_gene = {
            t.gene_id: t for t in universe.annotation.transcripts
        }
        checked = 0
        for rec, gene, offset in zip(
            sample.records, sample.true_gene, sample.true_offset
        ):
            if gene is None:
                continue
            t = transcript_by_gene[gene]
            if t.spliced_length < rec.length:
                continue
            expected = t.spliced_sequence(assembly_r111)[
                offset : offset + rec.length
            ]
            assert decode(expected) == rec.sequence_str
            checked += 1
        assert checked > 20

    def test_error_rate_perturbs_reads(self, simulator):
        p_clean = SampleProfile(
            LibraryType.BULK_POLYA, n_reads=50, read_length=80,
            error_rate=0.0, offtarget_fraction=0.0,
        )
        p_noisy = SampleProfile(
            LibraryType.BULK_POLYA, n_reads=50, read_length=80,
            error_rate=0.05, offtarget_fraction=0.0,
        )
        clean = simulator.simulate(p_clean, rng=3)
        noisy = simulator.simulate(p_noisy, rng=3)
        diffs = sum(
            (a.sequence != b.sequence).sum()
            for a, b in zip(clean.records, noisy.records)
        )
        total = 50 * 80
        assert 0.02 * total < diffs < 0.10 * total

    def test_expression_sums_to_one(self, simulator):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=10, read_length=50), rng=4
        )
        assert sum(sample.expression.values()) == pytest.approx(1.0)

    def test_read_ids_unique_and_prefixed(self, simulator):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=25, read_length=50),
            rng=5,
            read_id_prefix="SRR42",
        )
        ids = [r.read_id for r in sample.records]
        assert len(set(ids)) == 25
        assert all(i.startswith("SRR42.") for i in ids)

    def test_qualities_in_range(self, simulator):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=40, read_length=100), rng=6
        )
        for rec in sample.records:
            assert rec.qualities.min() >= 2
            assert rec.qualities.max() <= 41

    def test_empty_annotation_rejected(self, assembly_r111):
        from repro.genome.annotation import Annotation

        with pytest.raises(ValueError):
            ReadSimulator(assembly_r111, Annotation([]))
