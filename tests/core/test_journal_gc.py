"""Journal replica garbage collection.

A batch's S3 replica exists so another instance can adopt the work if
this one dies; once every accession in the batch is terminal there is
nothing left to adopt and the replica is pure storage cost.  The
pipeline drops the prefix at that point — and *only* at that point:
an incomplete batch's replica must stay reconstructable byte-for-byte.
"""

import json

import pytest

from repro.cloud.s3 import S3Service
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.core.replication import ReplicatedJournal, reconstruct_journal
from repro.experiments.chaos import build_demo_inputs


@pytest.fixture
def bucket():
    return S3Service().create_bucket("journals")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    cache = tmp_path_factory.mktemp("demo-cache")
    return build_demo_inputs(2, n_reads=80, cache_dir=cache)


def run_batch(demo, tmp_path, journal, accessions, tag):
    aligner, repo, _ = demo
    pipeline = TranscriptomicsAtlasPipeline(
        repo, aligner, tmp_path / f"work-{tag}", config=PipelineConfig()
    )
    return pipeline.run_batch(
        list(accessions), BatchOptions(journal=journal)
    )


class TestCompletedBatch:
    def test_replica_prefix_dropped(self, demo, tmp_path, bucket):
        _, _, accessions = demo
        journal = ReplicatedJournal(tmp_path / "run.journal", bucket, "runs/a")
        results = run_batch(demo, tmp_path, journal, accessions, "done")
        assert all(r.status.terminal for r in results)
        assert bucket.keys("runs/a/") == []

    def test_local_journal_survives_gc(self, demo, tmp_path, bucket):
        _, _, accessions = demo
        path = tmp_path / "run.journal"
        journal = ReplicatedJournal(path, bucket, "runs/b")
        run_batch(demo, tmp_path, journal, accessions, "local")
        # the durable local record is untouched and still replays
        replay = RunJournal(path).replay()
        assert sorted(replay.completed) == sorted(accessions)

    def test_gc_returns_dropped_object_count(self, bucket, tmp_path):
        journal = ReplicatedJournal(tmp_path / "j.journal", bucket, "runs/c")
        for i in range(5):
            journal.record_completed(f"SRR{i}", {"status": "accepted"})
        journal.close()
        assert len(bucket.keys("runs/c/")) > 0
        dropped = journal.collect_garbage()
        assert dropped > 0
        assert bucket.keys("runs/c/") == []


class TestIncompleteBatch:
    def test_partial_batch_keeps_replica(self, tmp_path, bucket):
        """An interrupted batch's replica survives the GC trigger."""
        journal = ReplicatedJournal(tmp_path / "run.journal", bucket, "runs/d")
        # what a killed instance leaves behind: one accession done, the
        # second mid-flight — the batch asked for both, so the trigger
        # must hold its fire and the replica stays adoptable
        journal.record_batch_start(["SRR1", "SRR2"], {})
        journal.record_completed("SRR1", {"status": "accepted"})
        journal.record_align_shard("SRR2", 0, 8, "fp", {"v": 0})
        journal.close()
        terminal = type(
            "R", (), {"status": type("S", (), {"terminal": True})()}
        )()
        TranscriptomicsAtlasPipeline._collect_journal_garbage(
            journal, ["SRR1", "SRR2"], {"SRR1": terminal}
        )
        assert len(bucket.keys("runs/d/")) > 0
        rebuilt = reconstruct_journal(bucket, "runs/d", tmp_path / "adopted")
        assert rebuilt.path.read_bytes() == journal.path.read_bytes()

    def test_incomplete_replica_reconstructs_byte_exact(
        self, bucket, tmp_path
    ):
        path = tmp_path / "run.journal"
        journal = ReplicatedJournal(path, bucket, "runs/e")
        journal.record_batch_start(["SRR1", "SRR2"], {"k": "v"})
        journal.record_align_shard("SRR1", 0, 8, "fp", {"v": 0})
        journal.record_completed("SRR1", {"status": "accepted"})
        # interrupted here, one shard into SRR2
        journal.record_align_shard("SRR2", 0, 8, "fp", {"v": 0})
        journal.close()

        rebuilt = reconstruct_journal(bucket, "runs/e", tmp_path / "rebuilt")
        assert rebuilt.path.read_bytes() == path.read_bytes()
        replay = rebuilt.replay()
        assert "SRR1" in replay.completed
        assert replay.pending(["SRR1", "SRR2"]) == ["SRR2"]


class TestTriggerDuckTyping:
    def test_plain_journal_has_no_gc_and_no_crash(self, demo, tmp_path):
        """A plain RunJournal (no collect_garbage) passes through the
        trigger untouched."""
        _, _, accessions = demo
        path = tmp_path / "plain.journal"
        results = run_batch(demo, tmp_path, path, accessions, "plain")
        assert all(r.status.terminal for r in results)
        assert path.exists()

    def test_trigger_requires_every_accession(self, bucket, tmp_path):
        journal = ReplicatedJournal(tmp_path / "j.journal", bucket, "runs/f")
        journal.record_completed("SRR1", {"status": "accepted"})
        journal.close()
        terminal = type("R", (), {"status": type("S", (), {"terminal": True})()})()
        TranscriptomicsAtlasPipeline._collect_journal_garbage(
            journal, ["SRR1", "SRR2"], {"SRR1": terminal}
        )
        assert len(bucket.keys("runs/f/")) > 0
        TranscriptomicsAtlasPipeline._collect_journal_garbage(
            journal, ["SRR1", "SRR2"], {"SRR1": terminal, "SRR2": terminal}
        )
        assert bucket.keys("runs/f/") == []


class Stop(Exception):
    """Stands in for the instance dying in the middle of a collection."""


def stop_after(bucket, n: int) -> None:
    """Make ``bucket.delete`` raise :class:`Stop` once ``n`` deletes ran."""
    delete, done = bucket.delete, []

    def stopping(key):
        if len(done) == n:
            raise Stop(key)
        done.append(key)
        return delete(key)

    bucket.delete = stopping


def finished_batch(tmp_path, bucket, prefix) -> ReplicatedJournal:
    """A replicated journal of a batch whose accessions are all terminal."""
    journal = ReplicatedJournal(tmp_path / "run.journal", bucket, prefix)
    journal.record_batch_start(["SRR1", "SRR2"], {"k": "v"})
    journal.record_align_shard("SRR1", 0, 8, "fp", {"v": 0})
    journal.record_completed("SRR1", {"status": "accepted"})
    journal.record_align_shard("SRR2", 0, 8, "fp", {"v": 0})
    journal.record_failed("SRR2", {"status": "failed"})
    journal.close()
    return journal


def records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


class TestInterruptedCollection:
    """A collection stopped after any of its deletes leaves a replica an
    adopter can still rebuild: a prefix of the journal, or nothing."""

    N_OBJECTS = 5  # one segment per record

    @pytest.mark.parametrize("n", range(N_OBJECTS + 1))
    def test_every_stopping_point_rebuilds_a_prefix(self, tmp_path, bucket, n):
        journal = finished_batch(tmp_path, bucket, "runs/g")
        whole = records(journal.path.read_text())
        assert len(bucket.keys("runs/g/")) == self.N_OBJECTS
        stop_after(bucket, n)
        if n < self.N_OBJECTS:
            with pytest.raises(Stop):
                journal.collect_garbage()
        else:  # the last delete ends the collection
            assert journal.collect_garbage() == self.N_OBJECTS
        rebuilt = reconstruct_journal(bucket, "runs/g", tmp_path / "adopted")
        replayed = records(rebuilt.path.read_text())
        assert replayed == whole[: len(replayed)]
        # one segment per delete, newest first
        assert len(replayed) == len(whole) - n

    def test_a_second_collection_finishes(self, tmp_path, bucket):
        journal = finished_batch(tmp_path, bucket, "runs/h")
        stop_after(bucket, 2)
        with pytest.raises(Stop):
            journal.collect_garbage()
        del bucket.delete  # the successor's bucket deletes normally
        assert journal.collect_garbage() == self.N_OBJECTS - 2
        assert bucket.keys("runs/h/") == []


class TestOlderBuildReplica:
    def test_adopted_replica_leaves_no_key_behind(self, tmp_path, bucket):
        """Older builds kept unsealed lines in a ``tail`` object and
        listed segments in a ``manifest``; an adopter that finishes the
        batch collects both with the rest."""
        old = ReplicatedJournal(tmp_path / "old.journal", bucket, "runs/i")
        old.record_batch_start(["SRR1", "SRR2"], {"k": "v"})
        old.record_completed("SRR1", {"status": "accepted"})
        old.close()
        bucket.put("runs/i/tail", 0, now=0.0, payload="")
        manifest = {"segments": bucket.keys("runs/i/seg/"), "sealed": 2}
        bucket.put("runs/i/manifest", 1, now=0.0, payload=manifest)
        adopted = reconstruct_journal(bucket, "runs/i", tmp_path / "adopted")
        journal = ReplicatedJournal(adopted.path, bucket, "runs/i")
        journal.record_completed("SRR2", {"status": "accepted"})
        journal.close()
        terminal = type("R", (), {"status": type("S", (), {"terminal": True})()})()
        TranscriptomicsAtlasPipeline._collect_journal_garbage(
            journal, ["SRR1", "SRR2"], {"SRR1": terminal, "SRR2": terminal}
        )
        assert bucket.keys("runs/i/") == []
