"""Parallel engine tests: serial/parallel equivalence, shm lifecycle, abort.

The equivalence tests pin the clock (``lambda: 0.0``) so every rendered
artifact — Log.final.out, ReadsPerGene.out.tab, SAM — must be *byte*
identical between the serial aligner and the multiprocess engine.
"""

import os
import signal
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.align import engine as engine_module
from repro.align.engine import (
    ParallelStarAligner,
    SharedIndexBlocks,
    attach_shared_index,
)
from repro.align.paired import PairedParameters, PairedStarAligner
from repro.align.sam import write_paired_sam
from repro.align.star import StarAligner, StarParameters
from repro.core.early_stopping import EarlyStoppingPolicy, EarlyStopMonitor
from repro.reads.fastq import ReadBatch
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, simulate_paired


def frozen() -> float:
    return 0.0


@pytest.fixture(scope="module")
def engine(index_r111):
    """One 2-worker engine shared by the module (pool start is the slow part)."""
    with ParallelStarAligner(
        index_r111,
        StarParameters(progress_every=50),
        workers=2,
        batch_size=64,
        paired_parameters=PairedParameters(progress_every=50),
    ) as eng:
        yield eng


@pytest.fixture(scope="module")
def paired_sample(simulator):
    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA,
            n_pairs=120,
            read_length=70,
            insert_mean=250,
            insert_sd=30,
        ),
        rng=9,
    )


class TestSerialParallelEquivalence:
    def test_single_end_byte_identical(
        self, engine, aligner_r111, bulk_sample, sc_sample, index_r111, tmp_path
    ):
        # mixed corpus: well-mapping bulk reads plus poorly-mapping 3' reads
        records = list(bulk_sample.records) + list(sc_sample.records)
        serial = aligner_r111.run(records, clock=frozen)
        par = engine.run(records, clock=frozen)

        assert par.outcomes == serial.outcomes
        assert par.progress == serial.progress
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()

        serial.write_sam(records, index_r111, tmp_path / "serial.sam")
        par.write_sam(records, index_r111, tmp_path / "par.sam")
        assert (tmp_path / "par.sam").read_bytes() == (
            tmp_path / "serial.sam"
        ).read_bytes()

    def test_paired_byte_identical(
        self, engine, aligner_r111, paired_sample, index_r111, tmp_path
    ):
        mate1, mate2 = paired_sample.mate1, paired_sample.mate2
        serial = PairedStarAligner(
            aligner_r111, PairedParameters(progress_every=50)
        ).run(mate1, mate2, clock=frozen)
        par = engine.run_paired(mate1, mate2, clock=frozen)

        assert par.outcomes == serial.outcomes
        assert par.progress == serial.progress
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()

        write_paired_sam(
            mate1, mate2, serial.outcomes, index_r111, tmp_path / "serial.sam"
        )
        write_paired_sam(
            mate1, mate2, par.outcomes, index_r111, tmp_path / "par.sam"
        )
        assert (tmp_path / "par.sam").read_bytes() == (
            tmp_path / "serial.sam"
        ).read_bytes()

    def test_early_stopped_run_identical(
        self, engine, aligner_r111, bulk_sample, index_r111, tmp_path
    ):
        # an unreachable threshold forces the monitor to abort mid-run
        policy = EarlyStoppingPolicy(
            mapping_threshold=0.99, check_fraction=0.1, min_reads=10
        )
        records = bulk_sample.records
        serial = aligner_r111.run(
            records, monitor=EarlyStopMonitor(policy=policy).hook, clock=frozen
        )
        assert serial.aborted  # precondition: the policy really fires

        seen: list[int] = []
        hook = EarlyStopMonitor(policy=policy).hook

        def recording_hook(rec):
            seen.append(rec.reads_processed)
            return hook(rec)

        par = engine.run(records, monitor=recording_hook, clock=frozen)

        assert par.aborted
        assert par.outcomes == serial.outcomes
        assert par.progress == serial.progress
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()
        # the monitor saw merged snapshots in read order, serial cadence
        assert seen == [r.reads_processed for r in serial.progress]

        # an aborted run still writes the processed prefix's SAM
        serial.write_sam(records, index_r111, tmp_path / "serial.sam")
        par.write_sam(records, index_r111, tmp_path / "par.sam")
        assert (tmp_path / "par.sam").read_bytes() == (
            tmp_path / "serial.sam"
        ).read_bytes()

    def test_early_stopped_paired_identical(
        self, engine, aligner_r111, paired_sample
    ):
        mate1, mate2 = paired_sample.mate1, paired_sample.mate2
        policy = EarlyStoppingPolicy(
            mapping_threshold=0.99, check_fraction=0.1, min_reads=10
        )
        serial = PairedStarAligner(
            aligner_r111, PairedParameters(progress_every=50)
        ).run(mate1, mate2, monitor=EarlyStopMonitor(policy=policy).hook, clock=frozen)
        par = engine.run_paired(
            mate1, mate2, monitor=EarlyStopMonitor(policy=policy).hook, clock=frozen
        )
        assert serial.aborted and par.aborted
        assert par.outcomes == serial.outcomes
        assert par.progress == serial.progress
        assert par.final.to_text() == serial.final.to_text()

    def test_empty_corpus(self, engine, aligner_r111):
        serial = aligner_r111.run([], clock=frozen)
        par = engine.run([], clock=frozen)
        assert par.outcomes == serial.outcomes == []
        assert par.progress == serial.progress
        assert par.final.to_text() == serial.final.to_text()

    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_batch_boundaries(
        self, index_r111, aligner_r111, bulk_sample, batch_size
    ):
        # batch sizes that do not divide the corpus (and progress_every)
        records = bulk_sample.records[:60]
        serial = aligner_r111.run(records, clock=frozen)
        with ParallelStarAligner(
            index_r111,
            StarParameters(progress_every=50),
            workers=2,
            batch_size=batch_size,
        ) as eng:
            par = eng.run(records, clock=frozen)
        assert par.outcomes == serial.outcomes
        assert par.progress == serial.progress
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()


class TestPackedRequests:
    """Shards reach workers as packed ReadBatch arrays."""

    def test_paired_request_pickles_near_its_read_bytes(
        self, index_r111, simulator
    ):
        """The pool's pickle of a 625-pair shard of 100-base reads stays
        within 1.1x of the reads' own bytes: ids, bases and scores."""
        sample = simulate_paired(
            simulator,
            PairedProfile(
                LibraryType.BULK_POLYA,
                n_pairs=625,
                read_length=100,
                insert_mean=300,
                insert_sd=30,
            ),
            rng=11,
        )
        reads = [*sample.mate1, *sample.mate2]
        read_bytes = sum(len(r.read_id) + 2 * r.length for r in reads)
        sent = []
        with ParallelStarAligner(
            index_r111, StarParameters(), workers=1, batch_size=625
        ) as eng:
            submit = eng._pool.submit

            def recording(fn, *args, **kwargs):
                sent.append((args, ForkingPickler.dumps((fn, args))))
                return submit(fn, *args, **kwargs)

            eng._pool.submit = recording
            eng.run_paired(sample.mate1, sample.mate2)
        assert len(sent) == 1
        (payload,), wire = sent[0]
        assert all(isinstance(mates, ReadBatch) for mates in payload)
        assert len(wire) <= 1.1 * read_bytes

    def test_spawned_workers_match_serial(
        self, index_r111, aligner_r111, bulk_sample, paired_sample
    ):
        """Spawned workers start from a fresh import and unpickle every
        payload there; single-end and paired runs stay serial-identical."""
        records = bulk_sample.records
        mate1, mate2 = paired_sample.mate1, paired_sample.mate2
        serial = aligner_r111.run(records, clock=frozen)
        serial_pairs = PairedStarAligner(
            aligner_r111, PairedParameters(progress_every=50)
        ).run(mate1, mate2, clock=frozen)
        with ParallelStarAligner(
            index_r111,
            StarParameters(progress_every=50),
            workers=2,
            batch_size=64,
            paired_parameters=PairedParameters(progress_every=50),
            mp_context="spawn",
        ) as eng:
            par = eng.run(records, clock=frozen)
            par_pairs = eng.run_paired(mate1, mate2, clock=frozen)
            assert eng.health.serial_fallback_batches == 0
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()
        assert par_pairs.outcomes == serial_pairs.outcomes
        assert par_pairs.final.to_text() == serial_pairs.final.to_text()
        assert par_pairs.gene_counts.to_tab() == serial_pairs.gene_counts.to_tab()


class TestAbortAndReuse:
    def test_abort_then_reuse(self, engine, aligner_r111, bulk_sample):
        records = bulk_sample.records
        always_abort = lambda rec: False  # noqa: E731
        serial = aligner_r111.run(records, monitor=always_abort, clock=frozen)
        par = engine.run(records, monitor=always_abort, clock=frozen)
        assert par.aborted
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()

        # the pool survives the abort: a fresh full run on the same engine
        full_serial = aligner_r111.run(records, clock=frozen)
        full_par = engine.run(records, clock=frozen)
        assert full_par.outcomes == full_serial.outcomes
        assert full_par.final.to_text() == full_serial.final.to_text()


class TestSharedMemoryLifecycle:
    def test_blocks_released_after_close(self, index_r111, bulk_sample):
        # two consecutive engine sessions in one process: each must release
        # its segments on exit (no resource-tracker leaks, no stale names)
        records = bulk_sample.records[:60]
        for _ in range(2):
            eng = ParallelStarAligner(
                index_r111, StarParameters(progress_every=50), workers=2
            )
            with eng:
                spec = eng._blocks.spec
                assert eng.shared_bytes >= index_r111.n_bases * 9
                eng.run(records, clock=frozen)
            assert eng.shared_bytes == 0
            for name in (spec.genome_block, spec.suffix_block):
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_blocks_close_idempotent(self, index_r111):
        blocks = SharedIndexBlocks(index_r111)
        assert not blocks.closed
        blocks.close()
        blocks.close()
        assert blocks.closed

    def test_attach_is_zero_copy_and_equivalent(
        self, index_r111, aligner_r111, bulk_sample
    ):
        blocks = SharedIndexBlocks(index_r111)
        attached, handles = attach_shared_index(blocks.spec)
        try:
            # views borrow the shm buffers, they do not own copies
            assert not attached.genome.flags.owndata
            assert not attached.suffix_array.flags.owndata
            assert np.array_equal(attached.genome, index_r111.genome)
            assert np.array_equal(
                attached.suffix_array, index_r111.suffix_array
            )
            worker = StarAligner(attached, aligner_r111.parameters)
            for record in bulk_sample.records[:5]:
                assert worker.align_read(record) == aligner_r111.align_read(
                    record
                )
        finally:
            # drop the numpy views before closing the exporting segments
            del worker, attached
            for shm in handles:
                shm.close()
            blocks.close()

    def test_jump_table_published_and_attached(self, index_r111):
        blocks = SharedIndexBlocks(index_r111)
        attached, handles = attach_shared_index(blocks.spec)
        try:
            spec = blocks.spec
            assert spec.jump_block is not None
            assert spec.jump_length == index_r111.jump_table.length
            assert attached.jump_table is not None
            assert not attached.jump_table.bounds.flags.owndata
            assert np.array_equal(
                attached.jump_table.bounds, index_r111.jump_table.bounds
            )
            # the attached worker must not rebuild a table of its own —
            # the publisher decided what exists
            assert attached.auto_jump_table is False
            # the third block is accounted in the published byte count
            assert blocks.nbytes >= (
                index_r111.n_bases * 9 + index_r111.jump_table.nbytes
            )
        finally:
            del attached
            for shm in handles:
                shm.close()
            blocks.close()

    def test_suffix_keys_published_attached_and_released(
        self, index_r111, monkeypatch
    ):
        import repro.align.index as index_mod
        import repro.align.suffix_array as suffix_array_mod

        blocks = SharedIndexBlocks(index_r111)
        spec = blocks.spec

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("suffix keys rebuilt at attach")

        monkeypatch.setattr(index_mod, "build_suffix_keys", boom)
        monkeypatch.setattr(suffix_array_mod, "build_suffix_keys", boom)
        attached, handles = attach_shared_index(spec)
        try:
            assert not attached.suffix_keys.flags.owndata
            assert np.array_equal(attached.suffix_keys, index_r111.suffix_keys)
            ctx = attached.search_context  # takes the keys, builds none
            assert np.shares_memory(ctx.keys, attached.suffix_keys)
            assert blocks.nbytes == (
                index_r111.n_bases * 13 + index_r111.jump_table.nbytes
            )
        finally:
            del attached, ctx
            for shm in handles:
                shm.close()
            blocks.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.keys_block)
        for name in (spec.genome_block, spec.suffix_block, spec.jump_block):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestWorkerRecovery:
    """Recovery: SIGKILLed workers must not change outputs."""

    def fresh_engine(self, index, **kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("batch_size", 16)
        return ParallelStarAligner(
            index, StarParameters(progress_every=50), **kwargs
        )

    def test_kill_all_workers_then_run_identical(
        self, index_r111, aligner_r111, bulk_sample
    ):
        """Killing every worker wedges the pool for sure (one victim dies
        holding the task-queue lock); the run must still produce serial-
        identical output and leave the engine usable."""
        records = bulk_sample.records
        serial = aligner_r111.run(records, clock=frozen)
        with self.fresh_engine(index_r111) as eng:
            # warm-up parks the workers inside the task-queue read (the
            # position where SIGKILL strands the queue lock)
            eng.run(records[:16], clock=frozen)
            pids = eng.worker_pids()
            eng.kill_worker(0)
            for pid in pids[1:]:  # snapshot: every original worker dies
                os.kill(pid, signal.SIGKILL)
            par = eng.run(records, clock=frozen)
            assert par.outcomes == serial.outcomes
            assert par.final.to_text() == serial.final.to_text()
            assert eng.health.pool_restarts >= 1
            # the engine stays usable: the next run matches too
            again = eng.run(records, clock=frozen)
            assert again.outcomes == serial.outcomes

    def test_kill_mid_run_identical(
        self, index_r111, aligner_r111, bulk_sample
    ):
        records = bulk_sample.records
        serial = aligner_r111.run(records, clock=frozen)
        with self.fresh_engine(index_r111) as eng:
            fired = []

            def killing_monitor(rec) -> bool:
                if not fired:
                    fired.append(eng.kill_worker())
                return True

            par = eng.run(records, monitor=killing_monitor, clock=frozen)
            assert fired  # the kill really happened mid-merge
            assert par.outcomes == serial.outcomes
            assert par.final.to_text() == serial.final.to_text()
            assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()
            # the engine comes out of it usable: the next run matches too
            again = eng.run(records, clock=frozen)
            assert again.outcomes == serial.outcomes

    def test_close_after_kill_does_not_hang(self, index_r111):
        eng = self.fresh_engine(index_r111).start()
        eng.kill_worker()
        eng.close()  # must return promptly despite the wedged pool
        assert eng.shared_bytes == 0

    def test_kill_while_large_shards_are_queued(self, index_r111, simulator):
        """SIGKILL a worker while shards bigger than a pipe buffer are
        queued, so the call queue's writer is mid-payload: the run and the
        next one stay serial-identical, and close() returns."""
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=2400, read_length=100),
            rng=12,
        )
        reads = ReadBatch.of(sample.records)
        serial = StarAligner(index_r111, StarParameters(progress_every=50)).run(
            reads, clock=frozen
        )
        eng = self.fresh_engine(index_r111, batch_size=600).start()
        killed = []

        def feed():
            for start in range(0, len(reads), 600):
                if start == 3 * 600:  # three 131 kB shards are dispatched
                    killed.append(eng.kill_worker())
                yield reads[start : start + 600]

        try:
            par = eng.run(feed(), reads_total=len(reads), clock=frozen)
            # the lost shards went to a fresh pool, not to the parent
            assert eng.health.pool_restarts >= 1
            assert eng.health.serial_fallback_batches == 0
            again = eng.run(reads, clock=frozen)
        finally:
            eng.close()
        assert killed
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()
        assert again.outcomes == serial.outcomes
        assert eng.shared_bytes == 0

    def test_kill_while_writing_a_large_result(
        self, index_r111, aligner_r111, bulk_sample, monkeypatch, tmp_path
    ):
        """A worker SIGKILLed half-way through writing a result of several
        MB leaves the pool's manager thread waiting for the rest, so no
        future of that pool ever fails on its own: the run still re-sends
        its shards to a fresh pool, the next run matches, close() returns."""
        records = bulk_sample.records
        serial = aligner_r111.run(records, clock=frozen)
        marker, parent = tmp_path / "died", os.getpid()
        align = engine_module._align_records

        def die_mid_result(aligner, reads):
            if os.getpid() == parent:
                return align(aligner, reads)
            try:  # the first shard a worker takes, once per test
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return align(aligner, reads)
            send = Connection._send

            def send_half_then_die(conn, buf, *args):
                if len(buf) > 1 << 20:
                    half = memoryview(buf)[: len(buf) // 2]
                    while half:
                        half = half[os.write(conn._handle, half) :]
                    os.kill(os.getpid(), signal.SIGKILL)
                send(conn, buf, *args)

            # only this worker's connections change: it is a forked copy
            Connection._send = send_half_then_die
            return np.zeros(4 << 20, dtype=np.uint8)

        monkeypatch.setattr(engine_module, "_align_records", die_mid_result)
        eng = self.fresh_engine(index_r111).start()
        try:
            par = eng.run(records, clock=frozen)
            assert marker.exists()  # the worker really died mid-write
            assert eng.health.pool_restarts >= 1
            assert eng.health.serial_fallback_batches == 0
            again = eng.run(records, clock=frozen)
        finally:
            eng.close()
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()
        assert again.outcomes == serial.outcomes
        assert eng.shared_bytes == 0

    def test_drain_past_its_deadline_mid_merge(
        self, index_r111, aligner_r111, bulk_sample
    ):
        """drain(timeout=0) from inside a run returns False at once; the
        run computes what remains in the parent, serial-identical."""
        records = bulk_sample.records
        serial = aligner_r111.run(records, clock=frozen)
        eng = self.fresh_engine(index_r111).start()
        spec = eng._blocks.spec
        drained = []

        def draining_monitor(rec) -> bool:
            if not drained:
                drained.append(eng.drain(timeout=0))
            return True

        par = eng.run(records, monitor=draining_monitor, clock=frozen)
        assert drained == [False]
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()
        assert eng.health.serial_fallback_batches >= 1
        assert eng.shared_bytes == 0
        for name in (
            spec.genome_block,
            spec.suffix_block,
            spec.keys_block,
            spec.jump_block,
        ):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_poison_shard_is_computed_in_the_parent(
        self, index_r111, aligner_r111, bulk_sample, monkeypatch
    ):
        """A shard whose worker dies on every dispatch goes to the parent
        after the attempt bound; the output stays serial-identical."""
        records = bulk_sample.records
        serial = aligner_r111.run(records, clock=frozen)
        poison, parent = records[40].read_id, os.getpid()
        align = engine_module._align_records

        def dying(aligner, reads):
            if os.getpid() != parent and poison in reads.read_ids:
                os.kill(os.getpid(), signal.SIGKILL)
            return align(aligner, reads)

        # forked workers inherit the patched helper; the parent's own
        # fallback calls through to the real one
        monkeypatch.setattr(engine_module, "_align_records", dying)
        with self.fresh_engine(index_r111) as eng:
            par = eng.run(records, clock=frozen)
            assert eng.health.serial_fallback_batches >= 1
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()
        assert par.gene_counts.to_tab() == serial.gene_counts.to_tab()

    def test_health_counters_start_clean(self, index_r111):
        eng = self.fresh_engine(index_r111)
        assert eng.health.redispatched_batches == 0
        assert eng.health.serial_fallback_batches == 0
        assert eng.health.pool_restarts == 0
        assert eng.health.seed_search.queries == 0


class TestSeedSearchHealth:
    def test_counters_accumulate_across_runs(self, engine, bulk_sample):
        records = bulk_sample.records[:60]
        before = engine.health.seed_search.snapshot()
        engine.run(records, clock=frozen)
        delta = engine.health.seed_search.since(before)
        assert delta["queries"] > 0
        assert delta["table_hits"] > 0
        assert delta["binary_steps_saved"] > 0
        mid = engine.health.seed_search.snapshot()
        engine.run(records, clock=frozen)
        assert engine.health.seed_search.since(mid)["queries"] == delta["queries"]

    def test_paired_runs_feed_counters(self, engine, paired_sample):
        before = engine.health.seed_search.snapshot()
        engine.run_paired(paired_sample.mate1, paired_sample.mate2, clock=frozen)
        assert engine.health.seed_search.since(before)["queries"] > 0


class TestValidation:
    def test_bad_constructor_args(self, index_r111):
        with pytest.raises(ValueError):
            ParallelStarAligner(index_r111, workers=0)
        with pytest.raises(ValueError):
            ParallelStarAligner(index_r111, batch_size=0)

    def test_unequal_mate_lists_rejected(self, engine, paired_sample):
        with pytest.raises(ValueError):
            engine.run_paired(paired_sample.mate1, paired_sample.mate2[:-1])

    def test_run_starts_lazily_and_close_releases(
        self, index_r111, aligner_r111, bulk_sample
    ):
        records = bulk_sample.records[:50]
        eng = ParallelStarAligner(
            index_r111, StarParameters(progress_every=50), workers=2
        )
        assert eng.shared_bytes == 0  # nothing published before first run
        try:
            par = eng.run(records, clock=frozen)
        finally:
            eng.close()
        serial = aligner_r111.run(records, clock=frozen)
        assert par.outcomes == serial.outcomes
        assert eng.shared_bytes == 0


class TestShardSizing:
    """Tail-shard merging: a degenerate final chunk never costs a full
    worker round-trip on its own."""

    def test_even_split_untouched(self):
        from repro.align.engine import _shard_bounds

        assert _shard_bounds(128, 64) == [(0, 64), (64, 128)]

    def test_short_tail_merged_into_previous_shard(self):
        from repro.align.engine import _shard_bounds, _tail_floor

        # 130 = 64 + 64 + 2; the 2-read tail is below the quarter-shard
        # floor (16) so it rides with the previous shard
        assert _tail_floor(64) == 16
        assert _shard_bounds(130, 64) == [(0, 64), (64, 130)]

    def test_tail_at_floor_stays_separate(self):
        from repro.align.engine import _shard_bounds

        assert _shard_bounds(144, 64) == [(0, 64), (64, 128), (128, 144)]

    def test_single_short_batch_not_merged_away(self):
        from repro.align.engine import _shard_bounds

        assert _shard_bounds(3, 64) == [(0, 3)]
        assert _shard_bounds(0, 64) == []

    def test_iter_shards_matches_bounds(self, bulk_sample):
        from repro.align.engine import _cut_shards, _shard_bounds

        reads = ReadBatch.of(bulk_sample.records)
        for total, shard in [(0, 8), (3, 8), (16, 8), (17, 8), (18, 8), (130, 64)]:
            joined = reads[:total]
            eager = [joined[s:e] for s, e in _shard_bounds(total, shard)]
            for chunk in (1, 3, 8, 50, 256):
                feed = [joined[i : i + chunk] for i in range(0, total, chunk)]
                lazy = list(_cut_shards(feed, shard))
                assert len(lazy) == len(eager), (total, shard, chunk)
                for got, want in zip(lazy, eager):
                    assert got.read_ids == want.read_ids
                    assert np.array_equal(got.sequence, want.sequence)
                    assert np.array_equal(got.qualities, want.qualities)
                    assert np.array_equal(got.offsets, want.offsets)

    def test_streamed_iterator_is_not_over_buffered(self, bulk_sample):
        from repro.align.engine import _cut_shards

        reads = ReadBatch.of(bulk_sample.records[:20])
        pulled = []

        def feed():
            for i in range(20):
                pulled.append(i)
                yield reads[i : i + 1]

        shards = _cut_shards(feed(), 8)
        next(shards)
        # one shard yielded, at most one more pulled past it
        assert len(pulled) <= 16

    def test_engine_auto_sizing_with_tiny_tail(
        self, engine, aligner_r111, bulk_sample
    ):
        # 66 reads with batch_size=64: tail of 2 merges into the first
        # dispatch; results stay byte-identical to serial
        records = bulk_sample.records[:66]
        par = engine.run(records, clock=frozen)
        serial = aligner_r111.run(records, clock=frozen)
        assert par.outcomes == serial.outcomes
        assert par.final.to_text() == serial.final.to_text()
