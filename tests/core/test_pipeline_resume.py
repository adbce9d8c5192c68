"""Checkpoint/resume and graceful-drain semantics of the journaled batch."""

import gc
import json
import os
import signal
import threading
import time
import warnings

import pytest

from repro.cloud.s3 import S3Bucket
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
    drain_on_signals,
)
from repro.core.replication import ReplicatedJournal
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository

ACCESSIONS = ["SRR5000001", "SRR5000002", "SRR5000003", "SRR5000004"]
#: test ids for how a run gets its reads
SHAPES = ["sequential", "streamed"]
#: the record types a journal holds: only what resume reads
COMMIT_RECORDS = {"batch-start", "completed", "failed", "align.shard"}


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(ACCESSIONS):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
            rng=500 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    return repo


def make_pipeline(repository, aligner, workspace, **overrides):
    base = dict(
        early_stopping=EarlyStoppingPolicy(min_reads=20), write_outputs=False
    )
    base.update(overrides)
    return TranscriptomicsAtlasPipeline(
        repository, aligner, workspace, config=PipelineConfig(**base)
    )


def open_paths() -> set[str]:
    """The files this process holds open."""
    paths = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the listing's own descriptor, already closed
            pass
    return paths


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="lists open files via /proc"
)


def record_types(journal_path) -> list[str]:
    return [json.loads(line)["t"] for line in journal_path.read_text().splitlines()]


def comparable(result):
    final = result.star_result.final if result.star_result else None
    return (
        result.accession,
        result.status,
        result.counts,
        result.paired,
        None
        if final is None
        else (final.reads_processed, final.mapped_unique, final.unmapped),
    )


class TestJournaledBatch:
    def test_records_every_transition(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal_path = tmp_path / "run.jsonl"
        pipeline.run_batch(ACCESSIONS[:2], BatchOptions(journal=journal_path))
        replay = RunJournal(journal_path).replay()
        assert set(replay.terminal) == set(ACCESSIONS[:2])
        # batch-start + one completed record per accession
        assert replay.n_records == 1 + 2

    @needs_proc_fd
    @pytest.mark.parametrize("shard_checkpoints", [False, True])
    def test_journal_opened_from_a_path_is_closed(
        self, repository, aligner_r111, tmp_path, shard_checkpoints
    ):
        """A journal ``run_batch`` opened from a path is closed when the
        batch returns — not left to garbage collection, and not held
        open by the batch's shard-checkpoint state."""
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            pipeline.run_batch(
                ACCESSIONS[:1],
                BatchOptions(
                    journal=journal_path, shard_checkpoints=shard_checkpoints
                ),
            )
            assert str(journal_path.resolve()) not in open_paths()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @needs_proc_fd
    def test_callers_journal_stays_open_for_its_owner(
        self, repository, aligner_r111, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        with RunJournal(journal_path) as journal:
            pipeline.run_batch(
                ACCESSIONS[:1], BatchOptions(journal=journal, shard_checkpoints=True)
            )
            assert str(journal_path.resolve()) in open_paths()
        assert str(journal_path.resolve()) not in open_paths()

    def test_resume_replays_completed_batch(
        self, repository, aligner_r111, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner_r111, tmp_path / "a")
        originals = first.run_batch(ACCESSIONS, BatchOptions(journal=journal_path))

        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        resumed = second.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path, resume=True)
        )
        assert [r.accession for r in resumed] == ACCESSIONS
        assert all(r.resumed for r in resumed)
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in originals
        ]
        # the count matrix built from replayed results matches the live one
        live = first.build_count_matrix()
        replayed = second.build_count_matrix()
        assert live.gene_ids == replayed.gene_ids
        assert (live.counts == replayed.counts).all()

    def test_resume_runs_only_the_pending_tail(
        self, repository, aligner_r111, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner_r111, tmp_path / "a")
        first.run_batch(ACCESSIONS[:2], BatchOptions(journal=journal_path))

        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        results = second.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path, resume=True)
        )
        by_acc = {r.accession: r for r in results}
        assert [r.accession for r in results] == ACCESSIONS
        assert all(by_acc[a].resumed for a in ACCESSIONS[:2])
        assert all(not by_acc[a].resumed for a in ACCESSIONS[2:])

        reference = make_pipeline(repository, aligner_r111, tmp_path / "ref")
        assert [comparable(r) for r in results] == [
            comparable(r) for r in reference.run_batch(ACCESSIONS)
        ]

    @pytest.mark.parametrize("resume_streamed", [False, True], ids=SHAPES)
    @pytest.mark.parametrize("first_streamed", [False, True], ids=SHAPES)
    def test_shard_checkpoints_resume_without_realigning(
        self, repository, aligner_r111, tmp_path, first_streamed, resume_streamed
    ):
        """Drop an accession's terminal record but keep its ``align.shard``
        checkpoints: resume must rebuild the result from the journal's
        shards (checkpoint hits, zero re-alignments) and match a plain
        reference byte-identically — whether the first run, the resume,
        or both streamed their reads."""
        import json

        journal_path = tmp_path / "run.jsonl"
        victim = ACCESSIONS[1]
        first = make_pipeline(
            repository, aligner_r111, tmp_path / "a", workers=2,
            align_batch_size=32,
        )
        from repro.core.pipeline import BatchOptions

        originals = first.run_batch(
            ACCESSIONS[:2],
            BatchOptions(
                journal=journal_path,
                shard_checkpoints=True,
                streaming=first_streamed,
            ),
        )
        assert first.shard_checkpoint_summary()["recorded"] > 0

        # simulate dying right before the victim's commit point
        lines = journal_path.read_text().splitlines(keepends=True)
        kept = [
            line
            for line in lines
            if not (
                json.loads(line)["t"] == "completed"
                and json.loads(line)["acc"] == victim
            )
        ]
        assert len(kept) == len(lines) - 1
        journal_path.write_text("".join(kept))

        second = make_pipeline(
            repository, aligner_r111, tmp_path / "b", workers=2,
            align_batch_size=32,
        )
        resumed = second.run_batch(
            ACCESSIONS[:2],
            BatchOptions(
                journal=journal_path,
                resume=True,
                shard_checkpoints=True,
                streaming=resume_streamed,
            ),
        )
        summary = second.shard_checkpoint_summary()
        assert summary["hits"] > 0
        assert summary["recorded"] == 0  # every shard came from the journal
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in originals
        ]
        by_acc = {r.accession: r for r in resumed}
        assert not by_acc[victim].resumed  # re-ran, but from checkpoints

    def test_old_format_shard_checkpoint_is_refused_before_any_start(
        self, repository, aligner_r111, tmp_path
    ):
        """An ``align.shard`` record in the per-record layout written
        before outcome batches existed is never decoded: the resume
        fails before anything is appended to the journal."""
        from repro.core.journal import JournalIncompatible, config_fingerprint
        from repro.core.replication import ShardFormatIncompatible

        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(
            repository, aligner_r111, tmp_path / "w", workers=2,
            align_batch_size=32,
        )
        fingerprint = config_fingerprint(pipeline.config)
        with RunJournal(journal_path) as journal:
            journal.record_batch_start(ACCESSIONS[:1], fingerprint)
            journal.record_align_shard(
                ACCESSIONS[0],
                0,
                32,
                fingerprint,
                {
                    "o": [
                        [f"{ACCESSIONS[0]}.1", "unique", "+", 160, 1, 0,
                         [["1", 100, 180]], False],
                    ],
                    "gc": None,
                    "ss": {"fallback_depths": {}},
                },
            )
        before = journal_path.read_text()
        with pytest.raises(ShardFormatIncompatible) as refused:
            pipeline.run_batch(
                ACCESSIONS[:1],
                BatchOptions(
                    journal=journal_path, resume=True, shard_checkpoints=True
                ),
            )
        assert isinstance(refused.value, JournalIncompatible)
        assert refused.value.accession == ACCESSIONS[0]
        assert journal_path.read_text() == before

    def test_resume_parallel_matches_serial(
        self, repository, aligner_r111, tmp_path
    ):
        """Execution shape is not part of the fingerprint: a batch
        journaled serially resumes under max_parallel > 1."""
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner_r111, tmp_path / "a")
        first.run_batch(ACCESSIONS[:1], BatchOptions(journal=journal_path))
        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        results = second.run_batch(
            ACCESSIONS,
            BatchOptions(max_parallel=3, journal=journal_path, resume=True),
        )
        assert [r.accession for r in results] == ACCESSIONS
        assert results[0].resumed and not results[1].resumed


class _DrainOnDownload:
    """A repository that requests a drain with a spent deadline as each
    download starts, so the accession being fetched aligns past it."""

    def __init__(self, repository) -> None:
        self._repository = repository
        self.pipeline = None

    def __getattr__(self, name):
        return getattr(self._repository, name)

    def fetch_bytes(self, accession):
        self.pipeline.request_drain(deadline=0.0)
        return self._repository.fetch_bytes(accession)


def _legacy_journal(journal_path, drained: str) -> str:
    """``journal_path``'s text as the step-record journal wrote it: a
    ``started`` and one ``step-done`` per step around each accession's
    records, and a ``drained`` line in place of the commit of the
    accession named ``drained``."""
    out, seen = [], set()
    for line in journal_path.read_text().splitlines(keepends=True):
        record = json.loads(line)
        acc = record.get("acc")
        legacy = []
        if acc is not None and acc not in seen:
            seen.add(acc)
            legacy.append({"t": "started", "acc": acc})
            legacy += [
                {"t": "step-done", "acc": acc, "step": step}
                for step in ("prefetch", "fasterq_dump")
            ]
        if record["t"] == "completed":
            legacy.append({"t": "step-done", "acc": acc, "step": "align"})
        out += [
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in legacy
        ]
        if record["t"] == "completed" and acc == drained:
            out.append(json.dumps({"acc": acc, "t": "drained"}) + "\n")
        else:
            out.append(line)
    return "".join(out)


class TestCommitLog:
    """The journal is a commit log: batch starts, terminal results and
    shard checkpoints, whatever the execution shape."""

    @pytest.mark.parametrize("shape", ["sequential", "streamed", "engine"])
    def test_writes_only_commit_records(
        self, repository, aligner_r111, tmp_path, shape
    ):
        journal_path = tmp_path / "run.jsonl"
        journal = RunJournal(journal_path)
        options = BatchOptions(journal=journal)
        overrides = {}
        listings = []
        if shape == "streamed":
            options = BatchOptions(journal=journal, streaming=True, max_parallel=2)
        elif shape == "engine":
            overrides = dict(workers=2, align_batch_size=32)
            bucket = S3Bucket("journal")
            journal = ReplicatedJournal(journal_path, bucket, "batch")
            durable = journal._after_append

            def after_append(line, record):
                durable(line, record)
                listings.append(bucket.keys("batch/"))

            journal._after_append = after_append
            options = BatchOptions(journal=journal, shard_checkpoints=True)
        with make_pipeline(
            repository, aligner_r111, tmp_path / "w", **overrides
        ) as pipeline, journal:
            results = pipeline.run_batch(ACCESSIONS, options)
        assert all(r.status.terminal for r in results)
        types = record_types(journal_path)
        assert set(types) <= COMMIT_RECORDS
        assert types[0] == "batch-start"
        assert types.count("completed") + types.count("failed") == len(ACCESSIONS)
        if shape == "engine":
            assert "align.shard" in types
            # each append is one sealed segment, and the replica holds
            # nothing else
            assert len(listings) == len(types)
            for n, keys in enumerate(listings, 1):
                assert len(keys) == n, n
                assert all(k.startswith("batch/seg/") for k in keys), n
            assert bucket.keys("batch/") == []  # collected: all terminal

    def test_drained_accession_writes_no_line(
        self, repository, aligner_r111, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        draining = _DrainOnDownload(repository)
        pipeline = make_pipeline(draining, aligner_r111, tmp_path / "w")
        draining.pipeline = pipeline
        results = pipeline.run_batch(ACCESSIONS, BatchOptions(journal=journal_path))
        assert [(r.accession, r.status) for r in results] == [
            (ACCESSIONS[0], RunStatus.DRAINED)
        ]
        assert record_types(journal_path) == ["batch-start"]

    def test_resumes_a_journal_with_step_records(
        self, repository, aligner_r111, tmp_path
    ):
        """A journal that also holds ``started``, ``step-done`` and
        ``drained`` lines replays to the same fingerprint, terminals and
        shard checkpoints, and resumes to the same results and count
        matrix as an uninterrupted batch."""
        batch, victim = ACCESSIONS[:3], ACCESSIONS[1]
        commit_path = tmp_path / "commit.jsonl"
        with make_pipeline(
            repository, aligner_r111, tmp_path / "a", workers=2,
            align_batch_size=32,
        ) as first:
            first.run_batch(
                batch, BatchOptions(journal=commit_path, shard_checkpoints=True)
            )
        legacy_path = tmp_path / "legacy.jsonl"
        legacy_path.write_text(_legacy_journal(commit_path, drained=victim))
        assert {"started", "step-done", "drained"} <= set(record_types(legacy_path))
        # the same journal with the victim's commit dropped, and nothing else
        lines = commit_path.read_text().splitlines(keepends=True)
        commit_path.write_text(
            "".join(
                line
                for line in lines
                if json.loads(line)["t"] != "completed"
                or json.loads(line)["acc"] != victim
            )
        )

        def state(replay):
            return (
                replay.fingerprint,
                replay.accessions,
                replay.terminal,
                replay.align_shards,
            )

        legacy = RunJournal(legacy_path).replay()
        assert state(legacy) == state(RunJournal(commit_path).replay())
        assert victim not in legacy.terminal and legacy.align_shards[victim]

        with make_pipeline(
            repository, aligner_r111, tmp_path / "b", workers=2,
            align_batch_size=32,
        ) as second:
            resumed = second.run_batch(
                batch,
                BatchOptions(
                    journal=legacy_path, resume=True, shard_checkpoints=True
                ),
            )
            assert second.shard_checkpoint_summary()["recorded"] == 0
            matrix = second.build_count_matrix()
        assert [r.resumed for r in resumed] == [True, False, True]
        reference = make_pipeline(repository, aligner_r111, tmp_path / "ref")
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference.run_batch(batch)
        ]
        expected = reference.build_count_matrix()
        assert matrix.gene_ids == expected.gene_ids
        assert (matrix.counts == expected.counts).all()


class TestGracefulDrain:
    def test_drain_before_start_admits_nothing(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        pipeline.request_drain()
        assert pipeline.draining
        results = pipeline.run_batch(ACCESSIONS)
        assert results == []

    def test_drain_mid_batch_then_resume(
        self, repository, aligner_r111, tmp_path
    ):
        """Drain after the first completion: remaining accessions are not
        admitted, the journal stays resumable, and the resumed batch
        matches an uninterrupted reference."""
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal = RunJournal(journal_path)
        first_done = threading.Event()

        original = journal.record_completed

        def spy(accession, payload):
            original(accession, payload)
            first_done.set()

        journal.record_completed = spy

        def drainer():
            first_done.wait(timeout=60)
            pipeline.request_drain(deadline=0.0)

        thread = threading.Thread(target=drainer)
        thread.start()
        results = pipeline.run_batch(ACCESSIONS, BatchOptions(journal=journal))
        thread.join()

        assert 1 <= len(results) < len(ACCESSIONS)
        finished = [r for r in results if r.status.terminal]
        assert finished, "at least the first accession must have completed"

        replay = RunJournal(journal_path).replay()
        assert set(replay.terminal) == {r.accession for r in finished}

        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        resumed = second.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path, resume=True)
        )
        reference = make_pipeline(repository, aligner_r111, tmp_path / "ref")
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference.run_batch(ACCESSIONS)
        ]

    def test_expired_deadline_marks_run_drained(
        self, repository, aligner_r111, tmp_path
    ):
        """With the deadline already spent, an in-flight alignment aborts
        at its next checkpoint and the run leaves no journal line."""
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        pipeline._drain_deadline_at = time.monotonic() - 1.0
        pipeline._drain.set()
        result = pipeline._execute_accession(
            ACCESSIONS[0], journal=RunJournal(journal_path)
        )
        assert result.status is RunStatus.DRAINED
        assert not result.status.terminal
        assert result.counts is None
        assert RunJournal(journal_path).replay().n_records == 0

    def test_drained_status_properties(self):
        assert not RunStatus.DRAINED.terminal
        assert not RunStatus.DRAINED.produced_counts
        assert all(
            s.terminal for s in RunStatus if s is not RunStatus.DRAINED
        )

    def test_drain_tears_engine_down(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(
            repository, aligner_r111, tmp_path / "w", workers=2
        )
        pipeline.run_batch(ACCESSIONS[:1])
        assert pipeline._engine is not None
        assert pipeline.drain(timeout=10.0)
        assert pipeline._engine is None


class TestSignalHandling:
    def test_sigterm_requests_drain(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        with drain_on_signals(pipeline, deadline=0.0):
            signal.raise_signal(signal.SIGTERM)
            assert pipeline.draining
            # second signal escalates so a stuck drain can be interrupted
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGTERM)

    def test_handlers_restored_on_exit(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        before = signal.getsignal(signal.SIGTERM)
        with drain_on_signals(pipeline):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before
