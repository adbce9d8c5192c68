"""Torn writes, exhaustively: every byte boundary of the final record.

A crash can cut a journal anywhere.  The recovery contract is binary:
either the damage is confined to the final record (the torn tail a
crash legitimately produces) and replay recovers every earlier record
byte-exactly, or the damage is *not* crash-shaped and a typed error
(:class:`JournalCorrupt` locally, :class:`ReplicaCorrupt` for the S3
copy) refuses to proceed.  Silent loss is never an outcome — these
tests walk every truncation and corruption offset to prove it.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.s3 import S3Service
from repro.core.journal import JournalCorrupt, RunJournal
from repro.core.replication import (
    ReplicaCorrupt,
    ReplicatedJournal,
    reconstruct_journal,
)


def write_journal(path: Path, n_accessions: int = 4) -> None:
    """A deterministic journal: batch start, a completion, then one shard
    checkpoint for each other accession."""
    with RunJournal(path) as journal:
        journal.record_batch_start(
            [f"SRR{i}" for i in range(n_accessions)], "fp-torn"
        )
        journal.record_completed("SRR0", {"status": "accepted"})
        for i in range(1, n_accessions):
            journal.record_align_shard(f"SRR{i}", 0, 8, "fp-torn", {"v": 0})


def summarize(replay) -> tuple:
    """The replayed state that must survive a torn tail intact."""
    return (
        replay.fingerprint,
        tuple(replay.accessions),
        tuple(sorted(replay.completed)),
        replay.n_records,
    )


class TestLocalTruncation:
    def test_every_boundary_of_the_final_record(self, tmp_path):
        path = tmp_path / "run.journal"
        write_journal(path)
        raw = path.read_bytes()
        final_start = raw[:-1].rfind(b"\n") + 1

        whole = RunJournal(path).replay()
        clean_prefix = summarize(
            _replay_bytes(tmp_path, raw[:final_start])
        )

        for cut in range(final_start, len(raw) + 1):
            replay = _replay_bytes(tmp_path, raw[:cut], tag=cut)
            if cut >= len(raw) - 1:
                # the full record survived (at most the newline is gone)
                assert summarize(replay) == summarize(whole), cut
                assert not replay.torn_tail, cut
            elif cut == final_start:
                # the record never reached the disk: clean short journal
                assert summarize(replay) == clean_prefix, cut
                assert not replay.torn_tail, cut
            else:
                # mid-record cut: flagged torn, earlier records intact
                assert replay.torn_tail, cut
                assert summarize(replay) == (
                    clean_prefix[:3] + (clean_prefix[3],)
                ), cut

    def test_every_corruption_offset_of_the_final_record(self, tmp_path):
        path = tmp_path / "run.journal"
        write_journal(path)
        raw = path.read_bytes()
        final_start = raw[:-1].rfind(b"\n") + 1
        clean_prefix = summarize(_replay_bytes(tmp_path, raw[:final_start]))

        for pos in range(final_start, len(raw)):
            # 0xFF can never appear in a JSON line: parse must fail loudly
            damaged = raw[:pos] + b"\xff" + raw[pos + 1 :]
            replay = _replay_bytes(tmp_path, damaged, tag=f"c{pos}")
            assert replay.torn_tail, pos
            assert summarize(replay) == clean_prefix, pos


class TestLocalNonTailDamage:
    def test_corrupt_middle_record_is_a_typed_error(self, tmp_path):
        path = tmp_path / "run.journal"
        write_journal(path)
        raw = path.read_bytes()
        second_start = raw.index(b"\n") + 1
        damaged = raw[:second_start] + b"\xff" + raw[second_start + 1 :]
        with pytest.raises(JournalCorrupt, match="before the final line"):
            _replay_bytes(tmp_path, damaged, tag="mid")

    def test_blank_middle_line_is_a_typed_error(self, tmp_path):
        path = tmp_path / "run.journal"
        write_journal(path)
        raw = path.read_bytes()
        second_start = raw.index(b"\n") + 1
        damaged = raw[:second_start] + b"\n" + raw[second_start:]
        with pytest.raises(JournalCorrupt, match="blank line"):
            _replay_bytes(tmp_path, damaged, tag="blank")


@pytest.fixture
def replica(tmp_path):
    """A live replicated journal: 7 lines, each sealed in its segment."""
    bucket = S3Service().create_bucket("journals")
    journal = ReplicatedJournal(tmp_path / "run.journal", bucket, "runs/x")
    for i in range(7):
        journal.record_align_shard(f"SRR{i}", 0, 8, "fp", {"v": 0})
    # NOT closed: the state a dead instance leaves behind
    return journal, bucket


class TestReplicaReconstruction:
    def test_clean_reconstruction_is_byte_exact(self, replica, tmp_path):
        journal, bucket = replica
        rebuilt = reconstruct_journal(bucket, "runs/x", tmp_path / "rebuilt")
        assert rebuilt.path.read_bytes() == journal.path.read_bytes()
        assert rebuilt.replay().n_records == 7

    def test_segment_corruption_is_a_typed_error(self, replica, tmp_path):
        _, bucket = replica
        seg_key = bucket.keys("runs/x/seg/")[0]
        text = bucket.get(seg_key).payload
        damaged = text.replace("SRR0", "SRR9", 1)
        bucket.put(seg_key, len(damaged.encode()), now=0.0, payload=damaged)
        with pytest.raises(ReplicaCorrupt, match="hashes to"):
            reconstruct_journal(bucket, "runs/x", tmp_path / "re")

    def test_missing_segment_is_loud(self, replica, tmp_path):
        _, bucket = replica
        seg_key = bucket.keys("runs/x/seg/")[0]
        bucket.delete(seg_key)
        with pytest.raises(KeyError):
            reconstruct_journal(bucket, "runs/x", tmp_path / "re")


class TestTornWriteProperty:
    @given(
        n_accessions=st.integers(min_value=1, max_value=8),
        cut_back=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_recovers_or_flags(self, n_accessions, cut_back):
        """Truncating *any* amount off the end never loses a record
        silently: replay succeeds, and every record whose bytes fully
        survived the cut is present in the recovered state."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.journal"
            write_journal(path, n_accessions=n_accessions)
            raw = path.read_bytes()
            cut = max(0, len(raw) - cut_back)
            kept = raw[:cut]
            n_whole = kept.count(b"\n")
            fragment = kept[kept.rfind(b"\n") + 1 :]

            replay = _replay_bytes(Path(tmp), kept)
            if not fragment:
                # the cut landed on a record boundary: clean replay
                assert replay.n_records == n_whole
                assert not replay.torn_tail
            elif replay.torn_tail:
                # the fragment was unreadable and dropped — loudly
                assert replay.n_records == n_whole
            else:
                # the cut stripped only the newline: the record is whole
                assert replay.n_records == n_whole + 1
            # no silent loss: every fully-written record is recovered
            assert replay.n_records >= n_whole
            if n_whole >= 2:
                assert "SRR0" in replay.completed


def _replay_bytes(tmp_path: Path, data: bytes, tag="t"):
    target = tmp_path / f"damaged-{tag}.journal"
    target.write_bytes(data)
    return RunJournal(target).replay()
