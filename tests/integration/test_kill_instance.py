"""The kill-instance acceptance scenario, executable: instance A is
SIGKILLed mid-alignment (engine pool and all), instance B adopts the
batch through the S3-replicated journal under a fencing-token lease,
re-aligns only the unfinished shards, and produces results identical to
an uninterrupted reference — while the dead holder's late publish is
rejected."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.align.engine import ParallelStarAligner
from repro.core.pipeline import RunStatus
from repro.experiments.chaos import KILL_AFTER_SHARDS, KillSpec, run_kill_chaos


@pytest.fixture(scope="module")
def kill_result():
    return run_kill_chaos(KillSpec("kill-instance"))


class TestKillInstanceScenario:
    def test_guarantees_hold(self, kill_result):
        assert kill_result.passed
        assert kill_result.outputs_identical
        assert kill_result.matrix_identical

    def test_instance_died_mid_accession(self, kill_result):
        spec = KillSpec("kill-instance")
        assert spec.victim_accession not in kill_result.completed_before_kill
        assert len(kill_result.completed_before_kill) >= 1

    def test_adoption_used_a_bumped_fencing_token(self, kill_result):
        assert kill_result.adopter_token > 1

    def test_stale_holder_fenced_out(self, kill_result):
        assert kill_result.stale_publish_rejected

    def test_rework_bounded_to_unfinished_shards(self, kill_result):
        assert kill_result.shards_replayed >= KILL_AFTER_SHARDS
        assert kill_result.shards_realigned < kill_result.total_shards
        assert kill_result.rework_bounded

    def test_one_result_per_accession_in_order(self, kill_result):
        spec = KillSpec("kill-instance")
        assert [r.accession for r in kill_result.results] == spec.accessions
        assert all(
            r.status is not RunStatus.FAILED for r in kill_result.results
        )

    def test_completed_accessions_replayed_not_rerun(self, kill_result):
        assert sorted(kill_result.replayed) == (
            kill_result.completed_before_kill
        )


def shm_blocks() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_victim_blocks_do_not_outlive_it(aligner_r111):
    """The victim's index blocks go with it, even when this process
    already runs a resource tracker (any earlier engine starts one):
    they are not left until this process exits."""
    ParallelStarAligner(
        aligner_r111.index, aligner_r111.parameters, workers=2
    ).start().close()
    before = shm_blocks()
    run_kill_chaos(KillSpec("kill-instance"))
    # the victim's tracker unlinks them once the victim and its workers
    # are dead; allow it a moment to be scheduled
    deadline = time.monotonic() + 10
    while shm_blocks() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert shm_blocks() - before == set()


def test_cli_reports_no_leaked_shared_memory(tmp_path):
    """The victim unlinks its blocks on purpose before it dies, so no
    resource tracker of the CLI run reports them as leaked."""
    root = Path(__file__).resolve().parents[2]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "--kill-instance"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert ": False" not in done.stdout
    assert "leaked shared_memory" not in done.stderr
