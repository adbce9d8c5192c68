"""Run-journal unit tests: append durability, replay, edge cases."""

import json
import threading

import pytest

from repro.core.journal import (
    JournalCorrupt,
    JournalIncompatible,
    JournalWriteError,
    RunJournal,
    config_fingerprint,
)
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.core.resilience import RetryPolicy


@pytest.fixture
def journal(tmp_path):
    return RunJournal(tmp_path / "run.jsonl")


def write_completed(journal, acc, *, counts=None):
    journal.record_completed(
        acc,
        {
            "status": "accepted",
            "counts": counts or {"g1": 3},
            "paired": False,
            "fastq_bytes": 100.0,
            "retries": 0,
            "timing": {"prefetch": 0.0, "fasterq_dump": 0.0, "star": 0.1},
            "final": None,
            "aborted": False,
            "failure": None,
        },
    )


class TestAppend:
    def test_one_line_per_record(self, journal):
        journal.record_batch_start(["a", "b"], "f" * 16)
        write_completed(journal, "a")
        journal.record_failed("b", {"status": "failed"})
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["t"] for line in lines)
        assert journal.appends == 3

    def test_thread_safe_appends_stay_whole_lines(self, journal):
        def spam(i):
            for j in range(50):
                write_completed(journal, f"acc{i}-{j}")

        threads = [threading.Thread(target=spam, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        replay = journal.replay()
        assert replay.n_records == 200
        assert not replay.torn_tail

    def test_context_manager_closes(self, tmp_path):
        with RunJournal(tmp_path / "j.jsonl") as journal:
            journal.record_batch_start(["a"], "f" * 16)
        assert journal._fh is None


class _FailingHandle:
    """File handle whose write always fails, like a full or yanked disk."""

    def write(self, line):
        raise OSError(28, "No space left on device")

    def close(self):
        pass


class TestWriteErrors:
    def test_oserror_becomes_typed_journal_write_error(self, journal):
        journal.record_batch_start(["a"], "f" * 16)  # opens the real handle
        journal._fh = _FailingHandle()
        with pytest.raises(JournalWriteError) as err:
            write_completed(journal, "SRR9000001")
        # the context the bare OSError lacked: which record, for whom
        assert "completed" in str(err.value)
        assert "SRR9000001" in str(err.value)
        assert isinstance(err.value.__cause__, OSError)

    def test_batch_level_records_name_no_accession(self, journal):
        journal._fh = _FailingHandle()
        with pytest.raises(JournalWriteError) as err:
            journal.record_batch_start(["a"], "f" * 16)
        assert "<batch>" in str(err.value)

    def test_failed_append_does_not_count(self, journal):
        journal._fh = _FailingHandle()
        with pytest.raises(JournalWriteError):
            write_completed(journal, "a")
        assert journal.appends == 0


class TestReplay:
    def test_empty_and_missing_file(self, journal):
        # missing file: a fresh batch, nothing recovered
        replay = journal.replay()
        assert replay.n_records == 0
        assert replay.terminal == {}
        # empty file (e.g. crash before the first fsync'd append)
        journal.path.write_text("")
        replay = journal.replay()
        assert replay.n_records == 0
        assert not replay.torn_tail

    def test_terminal_vs_in_flight(self, journal):
        journal.record_batch_start(["a", "b", "c"], "f" * 16)
        write_completed(journal, "a")
        replay = journal.replay()
        assert set(replay.terminal) == {"a"}
        assert replay.pending(["a", "b", "c"]) == ["b", "c"]

    def test_torn_last_line_tolerated(self, journal):
        """A crash mid-write damages at most the final line."""
        journal.record_batch_start(["a"], "f" * 16)
        write_completed(journal, "a")
        whole = journal.path.read_bytes()
        journal.path.write_bytes(whole + b'{"t":"start')  # torn write
        replay = journal.replay()
        assert replay.torn_tail
        assert set(replay.terminal) == {"a"}
        assert replay.n_records == 2

    def test_torn_non_json_tail_tolerated(self, journal):
        write_completed(journal, "a")
        journal.path.write_bytes(journal.path.read_bytes() + b"\x00\xff\x01")
        replay = journal.replay()
        assert replay.torn_tail
        assert set(replay.terminal) == {"a"}

    def test_mid_file_corruption_refused(self, journal):
        journal.record_batch_start(["a"], "f" * 16)
        write_completed(journal, "a")
        lines = journal.path.read_bytes().split(b"\n")
        lines[0] = b"NOT JSON"
        journal.path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalCorrupt):
            journal.replay()

    def test_duplicate_completed_first_wins(self, journal):
        """An idempotent re-run appends a second terminal record; replay
        keeps the first so resume is stable under repeated resumes."""
        write_completed(journal, "a", counts={"g1": 3})
        write_completed(journal, "a", counts={"g1": 99})
        replay = journal.replay()
        assert replay.duplicate_terminal == 1
        assert replay.terminal["a"]["result"]["counts"] == {"g1": 3}

    def test_latest_batch_start_wins(self, journal):
        journal.record_batch_start(["a"], "1" * 16)
        journal.record_batch_start(["a", "b"], "1" * 16)
        replay = journal.replay()
        assert replay.accessions == ["a", "b"]


class TestFingerprint:
    def test_stable_across_execution_shape(self):
        base = config_fingerprint(PipelineConfig())
        assert base == config_fingerprint(PipelineConfig())
        # execution-shape knobs must NOT change the fingerprint: a batch
        # journaled at workers=4 can resume at workers=1
        assert base == config_fingerprint(
            PipelineConfig(workers=4, align_batch_size=8, drain_deadline=1.0)
        )

    def test_output_affecting_fields_change_it(self):
        base = config_fingerprint(PipelineConfig())
        assert base != config_fingerprint(
            PipelineConfig(acceptance_threshold=0.5)
        )
        assert base != config_fingerprint(PipelineConfig(early_stopping=None))
        assert base != config_fingerprint(
            PipelineConfig(retry=RetryPolicy(max_attempts=7))
        )

    def test_resume_refuses_different_config(
        self, aligner_r111, tmp_path
    ) -> None:
        """A journal written under one config must not resume under
        another — satellite edge case."""
        from repro.reads.sra import SraRepository

        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_batch_start(
            ["a"], config_fingerprint(PipelineConfig(acceptance_threshold=0.9))
        )
        pipeline = TranscriptomicsAtlasPipeline(
            SraRepository(), aligner_r111, tmp_path / "out"
        )
        with pytest.raises(JournalIncompatible) as err:
            pipeline.run_batch(["a"], BatchOptions(journal=journal, resume=True))
        assert err.value.journal_fingerprint != err.value.config_fingerprint
