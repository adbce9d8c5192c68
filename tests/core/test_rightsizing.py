"""Right-sizing advisor tests — the 'smaller and cheaper instances' claim."""

import pytest

from repro.core.rightsizing import RightSizingAdvisor
from repro.perf.targets import PAPER


@pytest.fixture(scope="module")
def advisor():
    return RightSizingAdvisor()


class TestRecommend:
    def test_r108_needs_4xlarge(self, advisor):
        choice = advisor.recommend(108, mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes)
        assert choice.instance.name == "r6a.4xlarge"

    def test_r111_fits_2xlarge(self, advisor):
        choice = advisor.recommend(111, mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes)
        assert choice.instance.name == "r6a.2xlarge"
        assert choice.instance.memory_gib == 64

    def test_init_overhead_smaller_for_r111(self, advisor):
        old = advisor.recommend(108, mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes)
        new = advisor.recommend(111, mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes)
        assert new.init_overhead_seconds < old.init_overhead_seconds / 2

    def test_cost_per_file_collapses(self, advisor):
        old, new, ratio = advisor.compare(
            108, 111, mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes
        )
        # slower AND pricier instance: cost ratio exceeds the 12x speedup
        assert ratio > 12
        assert new.hourly_usd < old.hourly_usd

    def test_memory_required_includes_overhead(self, advisor):
        choice = advisor.recommend(111, mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes)
        assert choice.memory_required_bytes > choice.index_bytes


class TestMeasured:
    def test_measured_memory_includes_search_context(self, advisor, index_r111):
        measured = advisor.measured_memory_required(index_r111)
        assert measured == (
            index_r111.size_bytes(include_search_context=True)
            + advisor.memory_overhead_bytes
        )
        assert measured > index_r111.size_bytes() + advisor.memory_overhead_bytes

    def test_measured_instance_fits(self, advisor, index_r111):
        instance = advisor.measured_instance(index_r111)
        assert instance.memory_gib * 2**30 >= advisor.measured_memory_required(
            index_r111
        )

    def test_measured_budget_tracks_packed_context(self, advisor, index_r111):
        # the packed SearchContext adds only the 1 B/base genome copy on
        # top of the index arrays + jump table + 4 B/base suffix keys —
        # not the old ~40 B/position Python-list blow-up
        measured = advisor.measured_memory_required(index_r111)
        expected_extra = 5 * index_r111.n_bases + index_r111.jump_table.nbytes
        assert measured == (
            index_r111.size_bytes()
            + expected_extra
            + advisor.memory_overhead_bytes
        )
        old_estimate = index_r111.n_bases * (8 + 32)
        assert expected_extra < old_estimate


class TestFixedInstance:
    def test_paper_instance_hosts_both(self, advisor):
        for release in (108, 111):
            choice = advisor.fixed_instance_choice(
                release, "r6a.4xlarge",
                mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes,
            )
            assert choice.instance.name == "r6a.4xlarge"

    def test_r108_does_not_fit_2xlarge(self, advisor):
        with pytest.raises(ValueError, match="needs"):
            advisor.fixed_instance_choice(
                108, "r6a.2xlarge",
                mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes,
            )

    def test_fixed_instance_speedup_matches_fig3(self, advisor):
        """On the SAME instance (the paper's protocol), runtime ratio ≈ 12x."""
        old = advisor.fixed_instance_choice(
            108, "r6a.4xlarge", mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes
        )
        new = advisor.fixed_instance_choice(
            111, "r6a.4xlarge", mean_fastq_bytes=PAPER.fig3_mean_fastq_bytes
        )
        assert old.star_seconds_mean_file / new.star_seconds_mean_file == (
            pytest.approx(PAPER.fig3_weighted_speedup, rel=0.05)
        )
