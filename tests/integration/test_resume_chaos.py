"""The kill-mid-batch acceptance scenario, executable: a journaled batch
SIGKILLed after ≥1 completed accession, resumed from the journal, must
re-execute only the non-completed accessions and produce per-accession
outcomes and a count matrix identical to the uninterrupted run."""

import pytest

from repro.core.pipeline import RunStatus
from repro.experiments.chaos import KillSpec, run_kill_chaos


@pytest.fixture(scope="module")
def resume_result():
    return run_kill_chaos(KillSpec("resume", n_accessions=4))


class TestResumeChaosScenario:
    def test_guarantees_hold(self, resume_result):
        assert resume_result.passed
        assert resume_result.outputs_identical
        assert resume_result.matrix_identical

    def test_killed_after_at_least_one_completion(self, resume_result):
        assert len(resume_result.completed_before_kill) >= 1
        assert len(resume_result.completed_before_kill) < 4

    def test_resume_reexecutes_only_non_completed(self, resume_result):
        assert resume_result.replay_exact
        assert sorted(resume_result.replayed) == resume_result.completed_before_kill
        assert set(resume_result.reexecuted).isdisjoint(
            resume_result.completed_before_kill
        )
        assert len(resume_result.replayed) + len(resume_result.reexecuted) == 4

    def test_one_result_per_accession_in_order(self, resume_result):
        spec = KillSpec("resume", n_accessions=4)
        assert [r.accession for r in resume_result.results] == spec.accessions
        assert all(r.status is not RunStatus.FAILED for r in resume_result.results)

    def test_replayed_results_flagged(self, resume_result):
        by_acc = {r.accession: r for r in resume_result.results}
        for acc in resume_result.replayed:
            assert by_acc[acc].resumed
        for acc in resume_result.reexecuted:
            assert not by_acc[acc].resumed

class TestStreamedResumeChaos:
    """Same scenario with the victim and the resumed batch streaming:
    SIGKILL lands while a download/align overlap is in flight, and the
    reference stays sequential — so passing also proves the streamed
    journal interchanges with the sequential one."""

    @pytest.fixture(scope="class")
    def streamed_result(self):
        return run_kill_chaos(
            KillSpec("resume", n_accessions=4, streaming=True)
        )

    def test_guarantees_hold_streamed(self, streamed_result):
        assert streamed_result.passed
        assert streamed_result.outputs_identical
        assert streamed_result.matrix_identical

    def test_only_unfinished_accessions_reexecuted(self, streamed_result):
        assert streamed_result.replay_exact
        assert sorted(streamed_result.replayed) == (
            streamed_result.completed_before_kill
        )
        assert len(streamed_result.replayed) >= 1
        assert (
            len(streamed_result.replayed) + len(streamed_result.reexecuted)
            == 4
        )
