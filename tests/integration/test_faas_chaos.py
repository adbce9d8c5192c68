"""The serverless chaos acceptance scenario, executable: the scatter
driver is SIGKILLed mid-accession with shard checkpoints durably
journaled, an adopting driver resumes the scatter while armed function
crashes kill live invocations mid-shard, and the adopted shards merge
byte-identically to an uninterrupted reference."""

import pytest

from repro.core.pipeline import RunStatus
from repro.experiments.chaos import (
    FUNCTION_FAILURES,
    KILL_AFTER_SHARDS,
    KillSpec,
    run_kill_chaos,
)


@pytest.fixture(scope="module")
def faas_result():
    return run_kill_chaos(KillSpec("faas"))


class TestFaasChaosScenario:
    def test_guarantees_hold(self, faas_result):
        assert faas_result.passed
        assert faas_result.outputs_identical
        assert faas_result.matrix_identical

    def test_driver_died_mid_accession(self, faas_result):
        spec = KillSpec("faas")
        assert spec.victim_accession not in faas_result.completed_before_kill
        assert len(faas_result.completed_before_kill) >= 1

    def test_adoption_reused_checkpointed_shards(self, faas_result):
        assert faas_result.shards_replayed >= KILL_AFTER_SHARDS
        assert faas_result.shards_realigned < faas_result.total_shards
        assert faas_result.rework_bounded

    def test_function_kills_absorbed_by_retries(self, faas_result):
        assert faas_result.function_kills_absorbed == FUNCTION_FAILURES
        assert faas_result.faas_summary["crash_retries"] == (
            FUNCTION_FAILURES
        )

    def test_one_result_per_accession_in_order(self, faas_result):
        accs = [r.accession for r in faas_result.results]
        assert accs == sorted(accs)
        assert all(
            r.status is not RunStatus.FAILED for r in faas_result.results
        )

    def test_completed_accessions_replayed_not_rerun(self, faas_result):
        assert sorted(faas_result.replayed) == (
            faas_result.completed_before_kill
        )
