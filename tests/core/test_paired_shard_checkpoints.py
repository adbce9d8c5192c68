"""Paired-end shard checkpoints: regression for the PE resume path.

Single-end shard checkpointing landed first; the paired path initially
had no codec, so a resumed paired run silently re-aligned everything
(or worse, would have decoded a paired payload as single-end).  These
tests pin the fixed behaviour: ``PairedOutcome`` shards round-trip
through the journal byte-exactly, resumed paired runs serve every
matching shard from the checkpoint, and the fingerprint guard still
forces a re-run when the config changed.
"""

import pytest

from repro.align.engine import ParallelStarAligner
from repro.core.journal import RunJournal
from repro.core.replication import (
    ShardCheckpointer,
    decode_shard_payload,
    encode_shard_payload,
)
from repro.reads.library import LibraryType
from repro.reads.paired import PairedProfile, simulate_paired

FINGERPRINT = "fp-r111-defaults"


@pytest.fixture(scope="module")
def engine(aligner_r111):
    eng = ParallelStarAligner(
        aligner_r111.index, aligner_r111.parameters, workers=2, batch_size=40
    ).start()
    yield eng
    eng.close()


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
        rng=31,
    )


@pytest.fixture(scope="module")
def reference(engine, paired_sample):
    """The uncheckpointed paired run every variant must match."""
    return engine.run_paired(paired_sample.mate1, paired_sample.mate2)


def run_with_checkpoint(engine, paired_sample, checkpointer):
    return engine.run_paired(
        paired_sample.mate1, paired_sample.mate2, checkpoint=checkpointer
    )


def assert_matches_reference(got, want):
    assert got.outcomes == want.outcomes
    assert got.gene_counts == want.gene_counts
    assert got.final.mapped_unique == want.final.mapped_unique
    assert got.final.unmapped == want.final.unmapped
    assert got.final.spliced_reads == want.final.spliced_reads


class TestPairedPayloadCodec:
    def test_round_trip_is_byte_exact(self, reference):
        outcomes = reference.outcomes[:25]
        stats = {"fallback_depths": {2: 3}, "seeds": 11}
        payload = encode_shard_payload(outcomes, None, stats)
        decoded_outcomes, decoded_partial, decoded_stats = (
            decode_shard_payload(payload)
        )
        assert decoded_outcomes == outcomes
        assert decoded_partial is None
        assert decoded_stats == stats

    def test_paired_payload_is_tagged_paired(self, reference):
        """Regression: a paired payload must never be decodable as SE."""
        payload = encode_shard_payload(
            reference.outcomes[:5], None, {"fallback_depths": {}}
        )
        assert "po" in payload
        assert "o" not in payload


class TestPairedResume:
    def test_fresh_run_checkpoints_every_shard(
        self, engine, paired_sample, reference, tmp_path
    ):
        journal = RunJournal(tmp_path / "run.journal")
        ckpt = ShardCheckpointer(journal, "SRR1", FINGERPRINT)
        got = run_with_checkpoint(engine, paired_sample, ckpt)
        journal.close()
        n_shards = -(-len(paired_sample.mate1) // 40)
        assert ckpt.recorded == n_shards
        assert ckpt.hits == 0
        assert_matches_reference(got, reference)

    def test_resumed_run_serves_all_shards_from_journal(
        self, engine, paired_sample, reference, tmp_path
    ):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            first = ShardCheckpointer(journal, "SRR1", FINGERPRINT)
            run_with_checkpoint(engine, paired_sample, first)

        replay = RunJournal(path).replay()
        cached = replay.align_shards["SRR1"]
        assert len(cached) == first.recorded

        with RunJournal(path) as journal:
            resumed = ShardCheckpointer(
                journal, "SRR1", FINGERPRINT, cached=cached
            )
            got = run_with_checkpoint(engine, paired_sample, resumed)
        assert resumed.hits == first.recorded
        assert resumed.recorded == 0
        assert_matches_reference(got, reference)

    def test_partial_checkpoints_fill_in_the_gap(
        self, engine, paired_sample, reference, tmp_path
    ):
        """An interrupted run left some shards; the resume re-aligns
        only the missing one and the merge is still byte-identical."""
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            first = ShardCheckpointer(journal, "SRR1", FINGERPRINT)
            run_with_checkpoint(engine, paired_sample, first)

        cached = dict(RunJournal(path).replay().align_shards["SRR1"])
        dropped = max(cached)  # the shard the crash cut off
        del cached[dropped]

        with RunJournal(path) as journal:
            resumed = ShardCheckpointer(
                journal, "SRR1", FINGERPRINT, cached=cached
            )
            got = run_with_checkpoint(engine, paired_sample, resumed)
        assert resumed.hits == first.recorded - 1
        assert resumed.recorded == 1
        assert_matches_reference(got, reference)

    def test_fingerprint_mismatch_forces_full_rerun(
        self, engine, paired_sample, reference, tmp_path
    ):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            first = ShardCheckpointer(journal, "SRR1", FINGERPRINT)
            run_with_checkpoint(engine, paired_sample, first)

        cached = RunJournal(path).replay().align_shards["SRR1"]
        with RunJournal(tmp_path / "second.journal") as journal:
            resumed = ShardCheckpointer(
                journal, "SRR1", "fp-other-config", cached=cached
            )
            got = run_with_checkpoint(engine, paired_sample, resumed)
        # every shard misses (no stale serve) and none is re-journaled:
        # the checkpointer skips bounds already in the cache it is handed
        # (a replay of a journal under the new fingerprint would not have
        # handed it these records at all)
        assert resumed.hits == 0
        assert resumed.recorded == 0
        assert_matches_reference(got, reference)
