"""Streamed ≡ sequential: the identity property the overlap must preserve."""

import dataclasses
import json
import struct
import sys
import threading
import zlib

import pytest

from repro.align.star import StarAligner, StarParameters
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired
from repro.reads.sra import SraArchive, SraRepository
from repro.reads.stream import ThrottledRepository
from repro.reads.trim import TrimConfig

BULK = ["SRRST0001", "SRRST0002", "SRRST0003"]
SC = "SRRST0004"  # low mapping rate: early-stopped
PE = "SRRSTPE05"
ALL = BULK + [SC, PE]


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(BULK):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
            rng=800 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    sc = simulator.simulate(
        SampleProfile(LibraryType.SINGLE_CELL_3P, n_reads=300, read_length=80),
        rng=880,
        read_id_prefix=SC,
    )
    repo.deposit(SraArchive(SC, LibraryType.SINGLE_CELL_3P, sc.records))
    paired = simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA,
            n_pairs=80,
            read_length=60,
            insert_mean=200,
            insert_sd=25,
        ),
        rng=890,
    )
    repo._blobs[PE] = PairedSraArchive(
        PE, LibraryType.BULK_POLYA, paired.mate1, paired.mate2
    ).to_bytes()
    return repo


@pytest.fixture(scope="module")
def aligner(index_r111):
    # cadence tight enough that early stopping fires genuinely mid-stream
    return StarAligner(
        index_r111, StarParameters(progress_every=25, align_batch_size=25)
    )


def make_pipeline(repository, aligner, workspace, **overrides):
    base = dict(
        early_stopping=EarlyStoppingPolicy(min_reads=20), write_outputs=False
    )
    base.update(overrides)
    return TranscriptomicsAtlasPipeline(
        repository, aligner, workspace, config=PipelineConfig(**base)
    )


@pytest.fixture(scope="module")
def reference(repository, aligner, tmp_path_factory):
    """The sequential serial results for ALL, by ``comparable``."""
    pipeline = make_pipeline(repository, aligner, tmp_path_factory.mktemp("ref"))
    return [comparable(r) for r in pipeline.run_batch(ALL, BatchOptions())]


def comparable(result):
    """Everything output-like; excludes wall clock and — for cancelled
    streams — the legitimately-partial fastq_bytes (see streaming docs)."""
    final = result.star_result.final if result.star_result else None
    if final is not None:
        stats = dataclasses.asdict(final)
        stats.pop("elapsed_seconds")
    else:
        stats = None
    failure = result.failure
    return (
        result.accession,
        result.status,
        result.counts,
        result.paired,
        stats,
        None if failure is None else (failure.step, failure.permanent),
    )


class TestStreamedIdentity:
    @pytest.mark.parametrize("chunk_reads", [16, 256])
    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_mixed_batch_matches_sequential(
        self, repository, aligner, tmp_path, chunk_reads, prefetch_depth
    ):
        """SE accepted + SE early-stopped + PE, across chunk sizes and
        lookahead depths: outcome-identical to the sequential path."""
        sequential = make_pipeline(
            repository, aligner, tmp_path / "seq"
        ).run_batch(ALL, BatchOptions())
        streamed = make_pipeline(
            repository, aligner, tmp_path / "st"
        ).run_batch(
            ALL,
            BatchOptions(
                streaming=True,
                chunk_reads=chunk_reads,
                prefetch_depth=prefetch_depth,
                download_chunk_bytes=2048,
            ),
        )
        assert [comparable(r) for r in streamed] == [
            comparable(r) for r in sequential
        ]
        assert all(r.streamed for r in streamed)
        assert all(not r.streamed for r in sequential)
        assert {r.accession: r.status for r in streamed}[SC] is (
            RunStatus.REJECTED_EARLY
        )

    def test_count_matrices_identical(self, repository, aligner, tmp_path):
        seq = make_pipeline(repository, aligner, tmp_path / "seq")
        seq.run_batch(ALL, BatchOptions())
        st = make_pipeline(repository, aligner, tmp_path / "st")
        st.run_batch(ALL, BatchOptions(streaming=True))
        a, b = seq.build_count_matrix(), st.build_count_matrix()
        assert a.gene_ids == b.gene_ids
        assert a.sample_ids == b.sample_ids
        assert (a.counts == b.counts).all()

    def test_early_stop_cancels_download_and_saves_bytes(
        self, repository, aligner, tmp_path
    ):
        """With a throttled network, aborting mid-stream leaves real bytes
        un-downloaded — the paper's saving, now on the transfer too."""
        throttled = ThrottledRepository(repository, bandwidth_bytes_per_s=5e4)
        pipeline = make_pipeline(throttled, aligner, tmp_path)
        results = pipeline.run_batch(
            [SC],
            BatchOptions(
                streaming=True, download_chunk_bytes=1024, chunk_reads=25
            ),
        )
        (result,) = results
        assert result.status is RunStatus.REJECTED_EARLY
        assert result.download_bytes_saved > 0
        assert result.fastq_bytes < repository.archive_bytes(SC) * 10
        health = pipeline.stage_health
        assert health.accessions_streamed == 1
        assert health.downloads_cancelled == 1
        assert health.download_bytes_saved == result.download_bytes_saved

    def test_completed_stream_saves_nothing(
        self, repository, aligner, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner, tmp_path)
        (result,) = pipeline.run_batch(
            [BULK[0]], BatchOptions(streaming=True)
        )
        assert result.status is RunStatus.ACCEPTED
        assert result.download_bytes_saved == 0
        assert result.download_bytes_total == repository.archive_bytes(BULK[0])
        assert pipeline.stage_health.downloads_cancelled == 0

    def test_stream_metrics_populated(self, repository, aligner, tmp_path):
        pipeline = make_pipeline(repository, aligner, tmp_path)
        pipeline.run_batch(BULK, BatchOptions(streaming=True))
        rows = {name: row for name, *row in pipeline.stage_health.to_rows()}
        assert rows["prefetch"][1] > 0  # bytes moved
        assert rows["align"][1] > 0  # reads aligned
        assert pipeline.stage_health.stage("align").items == len(BULK)

    def test_trim_is_rejected_up_front(self, repository, aligner, tmp_path):
        pipeline = make_pipeline(
            repository, aligner, tmp_path, trim=TrimConfig(min_length=20)
        )
        with pytest.raises(ValueError, match="trim"):
            pipeline.run_batch(BULK, BatchOptions(streaming=True))

    def test_engine_backend_streams_identically(
        self, repository, aligner, tmp_path
    ):
        sequential = make_pipeline(
            repository, aligner, tmp_path / "seq", workers=2
        )
        streamed = make_pipeline(
            repository, aligner, tmp_path / "st", workers=2
        )
        try:
            a = sequential.run_batch(BULK + [SC], BatchOptions())
            b = streamed.run_batch(
                BULK + [SC], BatchOptions(streaming=True, chunk_reads=32)
            )
        finally:
            sequential.close()
            streamed.close()
        assert [comparable(r) for r in b] == [comparable(r) for r in a]


def journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def downloaders_exit(timeout=10.0):
    """True once no stream downloader thread is left alive."""
    threads = [t for t in threading.enumerate() if t.name == "stream-downloader"]
    for thread in threads:
        thread.join(timeout)
    return not any(t.is_alive() for t in threads)


class TestStreamedLanes:
    """Streaming is a read source, not an execution shape: it composes
    with every backend, with accession lanes and with shard checkpoints."""

    @pytest.mark.parametrize("shard_checkpoints", [False, True])
    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize("backend", ["serial", "engine", "faas"])
    def test_every_combination_matches_sequential_serial(
        self,
        repository,
        aligner,
        reference,
        tmp_path,
        backend,
        max_parallel,
        shard_checkpoints,
    ):
        pipeline = make_pipeline(
            repository,
            aligner,
            tmp_path / "w",
            workers=2 if backend == "engine" else 1,
        )
        try:
            results = pipeline.run_batch(
                ALL,
                BatchOptions(
                    streaming=True,
                    chunk_reads=32,
                    backend=backend,
                    max_parallel=max_parallel,
                    shard_checkpoints=shard_checkpoints,
                    journal=tmp_path / "run.jsonl" if shard_checkpoints else None,
                ),
            )
        finally:
            pipeline.close()
        assert [comparable(r) for r in results] == reference
        assert all(r.streamed for r in results)
        if shard_checkpoints and backend != "serial":
            assert pipeline.shard_checkpoint_summary()["recorded"] > 0

    @pytest.mark.parametrize("streaming", [False, True])
    def test_repeated_accession_runs_at_every_position(
        self, repository, aligner, reference, tmp_path, streaming
    ):
        """Handles are keyed by batch position: the second run of an
        accession gets a feed of its own, not the first run's spent one."""
        by_accession = dict(zip(ALL, reference))
        batch = [BULK[0], SC, BULK[0], PE, BULK[0]]
        results = make_pipeline(repository, aligner, tmp_path).run_batch(
            batch, BatchOptions(streaming=streaming, chunk_reads=32)
        )
        assert [comparable(r) for r in results] == [by_accession[a] for a in batch]

    def test_four_lanes_with_fast_thread_switching(
        self, repository, aligner, reference, tmp_path
    ):
        """Four lanes on a small box, the interpreter switching threads
        every 10 µs: each position ends exactly once, equal to the
        sequential result, within a time bound, and the downloader exits."""
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner, tmp_path / "w")
        out = {}

        def run():
            out["results"] = pipeline.run_batch(
                ALL,
                BatchOptions(
                    streaming=True,
                    max_parallel=4,
                    chunk_reads=16,
                    buffer_chunks=2,
                    download_chunk_bytes=1024,
                    journal=journal_path,
                ),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "streamed batch did not finish in 120 s"
        assert [comparable(r) for r in out["results"]] == reference
        ended = [
            r["acc"]
            for r in journal_records(journal_path)
            if r["t"] in ("completed", "failed")
        ]
        assert sorted(ended) == sorted(ALL)
        assert pipeline.stage_health.stage("align").items == len(ALL)
        assert downloaders_exit()

    def test_a_lane_raising_before_its_body_does_not_stall_the_batch(
        self, repository, aligner, tmp_path
    ):
        """A position whose harness raises before its streamed body runs
        (its workspace entry is a file) is still released: the downloader
        moves past it, the other lane finishes, and the error surfaces."""
        workspace = tmp_path / "w"
        workspace.mkdir()
        (workspace / BULK[1]).write_text("not a directory")
        pipeline = make_pipeline(repository, aligner, workspace)
        out = {}

        def run():
            try:
                pipeline.run_batch(
                    ALL,
                    BatchOptions(
                        streaming=True,
                        max_parallel=2,
                        chunk_reads=8,
                        buffer_chunks=1,
                    ),
                )
            except FileExistsError as exc:
                out["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "streamed batch stalled"
        assert "error" in out
        assert downloaders_exit()

    def test_drain_with_two_lanes_then_resume(
        self, repository, aligner, reference, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        throttled = ThrottledRepository(repository, bandwidth_bytes_per_s=5e4)
        pipeline = make_pipeline(throttled, aligner, tmp_path / "w")
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
        results = pipeline.run_batch(
            ALL,
            BatchOptions(
                streaming=True,
                max_parallel=2,
                journal=journal,
                download_chunk_bytes=1024,
            ),
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert downloaders_exit()
        assert 1 <= len(results) < len(ALL)
        # each terminal result is committed once; a drained one leaves no line
        committed = sorted(
            r["acc"]
            for r in journal_records(journal_path)
            if r["t"] in ("completed", "failed")
        )
        assert committed == sorted(
            r.accession for r in results if r.status.terminal
        )

        resumed = make_pipeline(repository, aligner, tmp_path / "b").run_batch(
            ALL,
            BatchOptions(
                streaming=True, max_parallel=2, journal=journal_path, resume=True
            ),
        )
        assert [comparable(r) for r in resumed] == reference


def _first(old: str, new: str):
    return lambda text: text.replace(old, new, 1)


# each payload, as a function of the well-formed FASTQ text, and whether
# the archive is well formed enough to accept
MALFORMED_PAYLOADS = {
    "crlf": (lambda text: text.replace("\n", "\r\n"), True),
    "lowercase_bases": (lambda text: text.replace("A", "a").replace("G", "g"), True),
    "separator_repeats_id": (_first("\n+\n", "\n+again\n"), True),
    "no_final_line_feed": (lambda text: text[:-1], True),
    "header_without_at": (_first("@", ""), False),
    "missing_separator": (_first("\n+\n", "\nIIII\n"), False),
    "truncated_record": (lambda text: text[: text.rindex("\n+\n")] + "\n", False),
}


#: every payload under one attempt (ids as before) and under three: a
#: retried streamed align must not re-read a spent feed
MALFORMED_CASES = [
    pytest.param(name, attempts, id=name if attempts == 1 else f"{name}-{attempts}")
    for attempts in (1, 3)
    for name in sorted(MALFORMED_PAYLOADS)
]


def malformed_repository(simulator, mangle, n_reads=60):
    """A repository whose one single-end archive, ``SRRMAL``, carries the
    well-formed FASTQ text of ``n_reads`` reads passed through ``mangle``."""
    sample = simulator.simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=n_reads, read_length=80),
        rng=870,
        read_id_prefix="SRRMAL",
    )
    text = "".join(
        f"@{r.read_id}\n{r.sequence_str}\n+\n{r.quality_str}\n"
        for r in sample.records
    )
    header = json.dumps(
        {"accession": "SRRMAL", "library": "bulk_polya", "n_reads": n_reads}
    ).encode("ascii")
    repo = SraRepository()
    repo._blobs["SRRMAL"] = (
        b"SRAR"
        + struct.pack("<HI", 1, len(header))
        + header
        + zlib.compress(mangle(text).encode("ascii"))
    )
    return repo


class TestMalformedArchives:
    """The sequential (fasterq-dump → iter_fastq) and streamed paths apply
    one rule to malformed archives: same status, same outputs if accepted."""

    @pytest.mark.parametrize("name, max_attempts", MALFORMED_CASES)
    def test_sequential_and_streamed_agree(
        self, simulator, aligner, tmp_path, name, max_attempts
    ):
        mangle, accepted = MALFORMED_PAYLOADS[name]
        repo = malformed_repository(simulator, mangle)
        retry = RetryPolicy(max_attempts=max_attempts, base_delay=0.0, max_delay=0.0)
        (sequential,) = make_pipeline(
            repo, aligner, tmp_path / "seq", retry=retry
        ).run_batch(["SRRMAL"], BatchOptions())
        (streamed,) = make_pipeline(
            repo, aligner, tmp_path / "st", retry=retry
        ).run_batch(
            ["SRRMAL"], BatchOptions(streaming=True, download_chunk_bytes=512)
        )
        assert streamed.status is sequential.status
        if accepted:
            assert sequential.status is RunStatus.ACCEPTED
            assert comparable(streamed) == comparable(sequential)
        else:
            assert sequential.status is RunStatus.FAILED

    def test_truncated_record_fails_without_an_acceptance_bar(
        self, simulator, aligner, tmp_path
    ):
        """Corruption found mid-stream, after reads were aligned, under
        three attempts and no acceptance bar: a retry that re-read the
        spent feed would align nothing and be *accepted* with an all-zero
        count column.  Both paths must fail the accession instead."""
        mangle, _ = MALFORMED_PAYLOADS["truncated_record"]
        repo = malformed_repository(simulator, mangle, n_reads=600)
        retry = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)
        (sequential,) = make_pipeline(
            repo, aligner, tmp_path / "seq", retry=retry, acceptance_threshold=None
        ).run_batch(["SRRMAL"], BatchOptions())
        (streamed,) = make_pipeline(
            repo, aligner, tmp_path / "st", retry=retry, acceptance_threshold=None
        ).run_batch(
            ["SRRMAL"],
            BatchOptions(streaming=True, chunk_reads=50, download_chunk_bytes=512),
        )
        assert sequential.status is RunStatus.FAILED
        assert streamed.status is RunStatus.FAILED

    def test_trailing_bytes_fail_both_paths(self, simulator, aligner, tmp_path):
        """Bytes after the payload's zlib stream fail the accession on both
        paths, with download chunks large enough to straddle its end."""
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=240, read_length=80),
            rng=871,
            read_id_prefix="SRRTRL",
        )
        archive = SraArchive("SRRTRL", LibraryType.BULK_POLYA, sample.records)
        repo = SraRepository()
        repo._blobs["SRRTRL"] = archive.to_bytes() + b"x"
        retry = RetryPolicy(max_attempts=1)
        (sequential,) = make_pipeline(
            repo, aligner, tmp_path / "seq", retry=retry
        ).run_batch(["SRRTRL"], BatchOptions())
        (streamed,) = make_pipeline(
            repo, aligner, tmp_path / "st", retry=retry
        ).run_batch(
            ["SRRTRL"],
            BatchOptions(streaming=True, download_chunk_bytes=64 * 1024),
        )
        for result in (sequential, streamed):
            assert result.status is RunStatus.FAILED
            assert "trailing bytes" in result.failure.error


class TestStreamedFailureSemantics:
    def test_permanent_prefetch_fault_fails_the_step(
        self, repository, aligner, tmp_path
    ):
        plan = FaultPlan(
            [FaultSpec("prefetch", BULK[1], FaultKind.PERMANENT)]
        )
        pipeline = make_pipeline(
            repository,
            aligner,
            tmp_path,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        results = pipeline.run_batch(BULK, BatchOptions(streaming=True))
        by_acc = {r.accession: r for r in results}
        assert by_acc[BULK[1]].status is RunStatus.FAILED
        assert by_acc[BULK[1]].failure.step == "prefetch"
        assert by_acc[BULK[1]].failure.permanent
        assert by_acc[BULK[0]].status is RunStatus.ACCEPTED
        assert by_acc[BULK[2]].status is RunStatus.ACCEPTED

    def test_transient_faults_retry_like_sequential(
        self, repository, aligner, tmp_path
    ):
        def plan():
            return FaultPlan(
                [
                    FaultSpec("prefetch", BULK[0], FaultKind.TRANSIENT, times=1),
                    FaultSpec(
                        "fasterq_dump", BULK[1], FaultKind.TRANSIENT, times=1
                    ),
                    FaultSpec("align", BULK[2], FaultKind.TRANSIENT, times=1),
                ]
            )

        retry = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)
        sequential = make_pipeline(
            repository, aligner, tmp_path / "a", fault_plan=plan(), retry=retry
        ).run_batch(BULK, BatchOptions())
        streamed = make_pipeline(
            repository, aligner, tmp_path / "b", fault_plan=plan(), retry=retry
        ).run_batch(BULK, BatchOptions(streaming=True))
        assert [comparable(r) for r in streamed] == [
            comparable(r) for r in sequential
        ]
        assert [r.retries for r in streamed] == [r.retries for r in sequential]

    def test_missing_accession_fails_not_raises(
        self, repository, aligner, tmp_path
    ):
        pipeline = make_pipeline(
            repository,
            aligner,
            tmp_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        results = pipeline.run_batch(
            ["SRRMISSING", BULK[0]], BatchOptions(streaming=True)
        )
        assert results[0].status is RunStatus.FAILED
        assert results[0].failure.step == "prefetch"
        assert results[1].status is RunStatus.ACCEPTED


class TestStreamedJournal:
    def test_streamed_journal_resumes_sequentially(
        self, repository, aligner, tmp_path
    ):
        """Execution shape is not fingerprinted: a streamed journal
        replays under the sequential path (and vice versa)."""
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner, tmp_path / "a")
        originals = first.run_batch(
            ALL, BatchOptions(streaming=True, journal=journal_path)
        )
        second = make_pipeline(repository, aligner, tmp_path / "b")
        resumed = second.run_batch(
            ALL, BatchOptions(journal=journal_path, resume=True)
        )
        assert all(r.resumed for r in resumed)
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in originals
        ]
        # the replayed results keep the stream accounting
        by_acc = {r.accession: r for r in resumed}
        assert all(by_acc[a].streamed for a in ALL)

    def test_sequential_journal_resumes_streamed(
        self, repository, aligner, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner, tmp_path / "a")
        first.run_batch(ALL[:2], BatchOptions(journal=journal_path))
        second = make_pipeline(repository, aligner, tmp_path / "b")
        results = second.run_batch(
            ALL,
            BatchOptions(
                streaming=True, journal=journal_path, resume=True
            ),
        )
        by_acc = {r.accession: r for r in results}
        assert [r.accession for r in results] == ALL
        assert all(by_acc[a].resumed for a in ALL[:2])
        assert all(not by_acc[a].resumed for a in ALL[2:])
        reference = make_pipeline(repository, aligner, tmp_path / "ref")
        assert [comparable(r) for r in results] == [
            comparable(r) for r in reference.run_batch(ALL, BatchOptions())
        ]

    def test_kill_mid_stream_then_resume(
        self, repository, aligner, tmp_path
    ):
        """Drain (the spot-kill stand-in) lands mid-stream: the in-flight
        download is cancelled, only finished accessions are terminal in
        the journal, and a resume re-runs exactly the unfinished tail to
        a result set matching an uninterrupted reference."""
        journal_path = tmp_path / "run.jsonl"
        throttled = ThrottledRepository(repository, bandwidth_bytes_per_s=5e4)
        pipeline = make_pipeline(throttled, aligner, tmp_path / "w")
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
        results = pipeline.run_batch(
            ALL,
            BatchOptions(
                streaming=True, journal=journal, download_chunk_bytes=1024
            ),
        )
        thread.join()

        assert 1 <= len(results) < len(ALL)
        finished = [r for r in results if r.status is not RunStatus.DRAINED]
        assert finished
        replay = RunJournal(journal_path).replay()
        assert set(replay.terminal) == {r.accession for r in finished}

        second = make_pipeline(repository, aligner, tmp_path / "b")
        resumed = second.run_batch(
            ALL, BatchOptions(streaming=True, journal=journal_path, resume=True)
        )
        reference = make_pipeline(repository, aligner, tmp_path / "ref")
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference.run_batch(ALL, BatchOptions())
        ]
