"""Cloud atlas orchestration tests."""

from dataclasses import replace

import pytest

from repro.cloud.autoscaling import ScalingPolicy
from repro.cloud.ec2 import InstanceMarket, SpotModel
from repro.core.atlas import AtlasConfig, run_atlas
from repro.core.pipeline import RunStatus
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.genome.ensembl import EnsemblRelease


@pytest.fixture(scope="module")
def jobs():
    # ~50 jobs, ~2 single-cell
    return generate_corpus(CorpusSpec(n_runs=50), rng=1)


@pytest.fixture(scope="module")
def base_config():
    return AtlasConfig(
        release=EnsemblRelease.R111,
        instance_name="r6a.2xlarge",
        scaling=ScalingPolicy(max_size=4, messages_per_instance=4),
        seed=7,
    )


@pytest.fixture(scope="module")
def report(jobs, base_config):
    return run_atlas(jobs, base_config)


class TestBasicRun:
    def test_all_jobs_processed_once(self, report, jobs):
        assert report.n_jobs == len(jobs)
        assert len({j.accession for j in report.jobs}) == len(jobs)

    def test_single_cell_terminated(self, report):
        terminated = [j for j in report.jobs if j.status is RunStatus.REJECTED_EARLY]
        assert len(terminated) >= 1
        assert all(j.library.is_single_cell for j in terminated)
        assert all(j.stop_fraction == pytest.approx(0.10) for j in terminated)

    def test_bulk_accepted(self, report):
        accepted = [j for j in report.jobs if j.status is RunStatus.ACCEPTED]
        assert len(accepted) > 40
        assert all(not j.library.is_single_cell for j in accepted)

    def test_star_hours_saved_positive(self, report):
        assert report.star_hours_saved > 0
        assert report.star_hours_actual < report.star_hours_if_full

    def test_terminated_jobs_save_90pct_of_their_scan(self, report):
        for j in report.jobs:
            if j.status is RunStatus.REJECTED_EARLY:
                assert j.star_seconds < 0.25 * j.star_seconds_if_full

    def test_cost_positive_and_itemized(self, report):
        assert report.cost.total_usd > 0
        assert report.cost.compute_usd > 0
        assert report.cost.n_instances >= report.peak_fleet

    def test_utilization_high_for_on_demand(self, report):
        assert report.mean_utilization > 0.7

    def test_makespan_bounds(self, report):
        # 50 jobs on <=4 instances: makespan must exceed the per-instance
        # serial fraction but stay well under the serial total
        serial_hours = sum(j.total_seconds for j in report.jobs) / 3600.0
        assert report.makespan_seconds / 3600.0 < serial_hours
        assert report.makespan_seconds / 3600.0 > serial_hours / 8


class TestConfigVariants:
    def test_no_early_stopping_runs_everything(self, jobs, base_config):
        config = replace(base_config, early_stopping=None)
        report = run_atlas(jobs, config)
        assert report.n_terminated == 0
        assert report.star_hours_saved == pytest.approx(0.0)

    def test_early_stopping_reduces_star_hours(self, jobs, base_config):
        with_es = run_atlas(jobs, base_config)
        without = run_atlas(jobs, replace(base_config, early_stopping=None))
        assert with_es.star_hours_actual < without.star_hours_actual

    def test_r108_slower_and_needs_bigger_instance(self, jobs, base_config):
        config = replace(
            base_config, release=EnsemblRelease.R108, instance_name=None
        )
        report108 = run_atlas(jobs, config)
        report111 = run_atlas(
            jobs, replace(base_config, instance_name=None)
        )
        assert report108.instance.memory_gib > report111.instance.memory_gib
        assert report108.star_hours_actual > 5 * report111.star_hours_actual
        assert report108.init_overhead_seconds > 2 * report111.init_overhead_seconds

    def test_right_sizing_resolution(self, base_config):
        assert replace(base_config, instance_name=None).resolve_instance().name == (
            "r6a.2xlarge"
        )

    def test_spot_cheaper(self, jobs, base_config):
        spot_config = replace(
            base_config,
            market=InstanceMarket.SPOT,
            spot_model=SpotModel(mean_interruption_seconds=8 * 3600),
        )
        spot = run_atlas(jobs, spot_config)
        ondemand = run_atlas(jobs, base_config)
        assert spot.cost.total_usd < 0.6 * ondemand.cost.total_usd
        assert spot.n_jobs == ondemand.n_jobs  # nothing lost

    def test_spot_interruption_work_conserved(self, jobs, base_config):
        """Aggressive interruptions: every job still completes exactly once."""
        config = replace(
            base_config,
            market=InstanceMarket.SPOT,
            spot_model=SpotModel(mean_interruption_seconds=2000),
            visibility_timeout=1800.0,
        )
        report = run_atlas(jobs, config)
        assert report.n_jobs == len(jobs)
        assert report.cost.n_interrupted > 0

    def test_deterministic(self, jobs, base_config):
        r1 = run_atlas(jobs, base_config)
        r2 = run_atlas(jobs, base_config)
        assert r1.makespan_seconds == r2.makespan_seconds
        assert r1.cost.total_usd == pytest.approx(r2.cost.total_usd)

    def test_empty_jobs_rejected(self, base_config):
        with pytest.raises(ValueError):
            run_atlas([], base_config)


class TestScaling:
    def test_bigger_fleet_faster(self, jobs, base_config):
        small = run_atlas(
            jobs,
            replace(base_config, scaling=ScalingPolicy(max_size=2, messages_per_instance=4)),
        )
        large = run_atlas(
            jobs,
            replace(base_config, scaling=ScalingPolicy(max_size=8, messages_per_instance=4)),
        )
        assert large.makespan_seconds < small.makespan_seconds
        assert large.peak_fleet > small.peak_fleet


class TestStreamingCampaign:
    """streaming=True overlaps transfer with STAR per job and cancels the
    in-flight download on early stops — without changing any outcome."""

    @pytest.fixture(scope="class")
    def streamed(self, jobs, base_config):
        return run_atlas(jobs, replace(base_config, streaming=True))

    def test_outcomes_identical_to_sequential(self, jobs, base_config, streamed):
        sequential = run_atlas(jobs, base_config)
        assert [(j.accession, j.status) for j in streamed.jobs] == [
            (j.accession, j.status) for j in sequential.jobs
        ]
        assert streamed.star_hours_actual == pytest.approx(
            sequential.star_hours_actual
        )

    def test_makespan_no_worse_than_sequential(self, jobs, base_config, streamed):
        sequential = run_atlas(jobs, base_config)
        assert streamed.makespan_seconds <= sequential.makespan_seconds

    def test_early_stops_save_download_bytes(self, streamed):
        terminated = [
            j for j in streamed.jobs if j.status is RunStatus.REJECTED_EARLY
        ]
        assert terminated
        assert all(j.streamed for j in streamed.jobs)
        assert all(j.download_bytes_saved > 0 for j in terminated)
        assert all(
            j.download_bytes_saved == 0
            for j in streamed.jobs
            if j.status is not RunStatus.REJECTED_EARLY
        )
        assert streamed.download_bytes_saved == pytest.approx(
            sum(j.download_bytes_saved for j in terminated)
        )

    def test_stage_seconds_collapse_to_stream(self, streamed, report):
        assert "stream" in streamed.stage_seconds
        assert "prefetch" not in streamed.stage_seconds
        # the sequential campaign reports the per-stage split instead
        for stage in ("prefetch", "fasterq_dump", "star"):
            assert report.stage_seconds[stage] > 0


class TestOverlapSchedule:
    def test_full_run_gated_by_slower_stage(self):
        from repro.core.atlas import overlap_schedule

        assert overlap_schedule(100.0, 40.0, None) == (100.0, 1.0)
        assert overlap_schedule(40.0, 100.0, None) == (100.0, 1.0)

    def test_early_stop_cancels_remaining_transfer(self):
        from repro.core.atlas import overlap_schedule

        # align aborts at 10% of a 1000 s transfer; STAR needed 50 s
        elapsed, transferred = overlap_schedule(1000.0, 50.0, 0.1)
        assert elapsed == 100.0  # gated by transferring 10% of the data
        assert transferred == pytest.approx(0.1)

    def test_slow_align_still_downloads_everything(self):
        from repro.core.atlas import overlap_schedule

        elapsed, transferred = overlap_schedule(100.0, 500.0, 0.5)
        assert elapsed == 500.0
        assert transferred == 1.0

    def test_zero_transfer(self):
        from repro.core.atlas import overlap_schedule

        assert overlap_schedule(0.0, 50.0, 0.5) == (50.0, 1.0)


class TestReplicatedCampaign:
    """Journal replication + lease adoption on a spot fleet: interrupted
    jobs resume from their last S3 progress checkpoint instead of
    restarting, so redelivered work shrinks and the makespan does not
    grow."""

    @pytest.fixture(scope="class")
    def spot_config(self, base_config):
        return replace(
            base_config,
            market=InstanceMarket.SPOT,
            spot_model=SpotModel(mean_interruption_seconds=2 * 3600.0),
            visibility_timeout=1800.0,
            drain_on_warning=False,
            seed=11,
        )

    @pytest.fixture(scope="class")
    def replicated(self, jobs, spot_config):
        return run_atlas(jobs, replace(spot_config, replicate_journal=True))

    @pytest.fixture(scope="class")
    def plain(self, jobs, spot_config):
        return run_atlas(jobs, spot_config)

    def test_interrupted_jobs_adopted(self, replicated):
        assert replicated.jobs_adopted >= 1
        assert replicated.work_recovered_seconds > 0

    def test_all_jobs_still_processed(self, replicated, jobs):
        assert replicated.n_jobs == len(jobs)
        assert replicated.n_failed == 0

    def test_recovered_work_bounded_by_star_hours(self, replicated):
        assert (
            replicated.work_recovered_seconds
            <= replicated.star_hours_actual * 3600.0
        )

    def test_adoption_does_not_hurt_makespan(self, replicated, plain):
        assert (
            replicated.makespan_seconds <= plain.makespan_seconds * 1.05
        )

    def test_plain_campaign_never_adopts(self, plain):
        assert plain.jobs_adopted == 0
        assert plain.work_recovered_seconds == 0.0
