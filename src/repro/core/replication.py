"""Distributed durability: S3-replicated journal, leases, shard checkpoints.

The journal (:mod:`repro.core.journal`) makes a batch survive *process*
death, but it lives on the instance's own disk — lose the instance and
the journal goes with it.  The paper's HTC setting runs fleets of spot
instances where the unit of failure is the instance, so this module
lifts durability one level up, onto the simulated S3 service
(:mod:`repro.cloud.s3`):

* :class:`SegmentReplicator` / :class:`ReplicatedJournal` — every
  fsync'd journal line is mirrored to S3 *before the append returns*
  (fsync-ordered): it is sealed into its own immutable,
  content-addressed segment object (``seg/NNNNNN-<sha256[:16]>``), one
  put per append.  The journal is a commit log (batch starts, terminals
  and shard checkpoints), so every line is worth a segment.

* :func:`reconstruct_journal` — a *different* instance rebuilds the
  byte-exact journal from the listed segments, in sequence order, and
  resumes the batch.  Segment hashes are verified against their keys on
  the way down (:class:`ReplicaCorrupt` on mismatch), and a gap in the
  sequence numbers raises :class:`KeyError`.

* :class:`BatchLease` — adoption guard.  A lease object in S3 carries a
  monotonically increasing **fencing token**; creation uses a
  conditional put (``if_none_match="*"``) so two would-be adopters
  cannot both win, and every publish re-checks the token so a stale
  holder that wakes up after its lease expired gets :class:`FencedOut`
  instead of clobbering the adopter's results.  Tokens never reset:
  release marks the lease expired but keeps the counter.

* :class:`ShardCheckpointer` + the ``align.shard`` record — partial-
  batch recovery inside the align step.  Completed read shards are
  journaled with their outcome batch (encoded by
  :func:`repro.align.outcome.encode_outcomes`), keyed by accession +
  shard bounds + config fingerprint; resume feeds only unfinished shards
  to the engine pool and merges checkpointed outcomes byte-identically,
  so rework after instance loss is bounded by one in-flight shard per
  worker rather than a whole accession.  A journal whose checkpoints use
  another outcome layout is refused at resume
  (:class:`ShardFormatIncompatible`), never decoded.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.align.counts import GeneCountsPartial
from repro.align.merge import ShardResult
from repro.align.outcome import (
    OUTCOME_FORMAT,
    OutcomeBatch,
    PairedOutcomeBatch,
    decode_outcomes,
    encode_outcomes,
)
from repro.cloud.s3 import PreconditionFailed, S3Bucket
from repro.core.journal import JournalIncompatible, RunJournal

__all__ = [
    "BatchLease",
    "FencedOut",
    "LeaseHeld",
    "ReplicaCorrupt",
    "ReplicatedJournal",
    "SegmentReplicator",
    "ShardCheckpointer",
    "ShardFormatIncompatible",
    "check_shard_format",
    "decode_shard_payload",
    "encode_shard_payload",
    "reconstruct_journal",
]

class ReplicaCorrupt(RuntimeError):
    """A replicated segment's content does not match its content address."""


class LeaseHeld(RuntimeError):
    """The batch lease is held by a live holder; adoption must wait."""

    def __init__(self, holder: str, token: int, expires_at: float) -> None:
        self.holder = holder
        self.token = token
        self.expires_at = expires_at
        super().__init__(
            f"lease held by {holder!r} (token {token}) until {expires_at:.3f}"
        )


class FencedOut(RuntimeError):
    """This holder's fencing token is stale: another instance adopted.

    Raised on publish/renew by a holder whose lease expired and was
    taken over — its late writes must not reach the results bucket.
    """

    def __init__(self, holder: str, token: int, current_token: int) -> None:
        self.holder = holder
        self.token = token
        self.current_token = current_token
        super().__init__(
            f"holder {holder!r} token {token} fenced out by token "
            f"{current_token}"
        )


# --------------------------------------------------------------------------
# segment replication
# --------------------------------------------------------------------------


def _segment_key(prefix: str, seq: int, data: bytes) -> str:
    digest = hashlib.sha256(data).hexdigest()[:16]
    return f"{prefix}/seg/{seq:06d}-{digest}"


def _segments(bucket: S3Bucket, prefix: str) -> list[str]:
    """The prefix's segment keys in sequence order (zero padding keeps
    the listing's order only below a million segments)."""
    keys = bucket.keys(f"{prefix}/seg/")
    return sorted(keys, key=lambda key: int(key.rsplit("/", 1)[1].split("-")[0]))


class SegmentReplicator:
    """Mirrors journal lines to S3 with per-append durability.

    Every observed line lands in S3 before :meth:`observe` returns,
    sealed into a segment of its own: one put, since the segment keys
    number the lines.  Segments are immutable, so a resuming instance
    attaching to a prefix only numbers its segments after the ones
    already there.
    """

    def __init__(self, bucket: S3Bucket, prefix: str) -> None:
        self.bucket = bucket
        self.prefix = prefix.rstrip("/")
        self._next_seq = len(bucket.keys(f"{self.prefix}/seg/"))

    def observe(self, line: str, record: dict[str, Any]) -> None:
        """Replicate one just-fsync'd journal line (called under the
        journal's append lock, so ordering matches the file)."""
        data = line.encode("utf-8")
        key = _segment_key(self.prefix, self._next_seq, data)
        self.bucket.put(key, len(data), now=time.time(), payload=line)
        self._next_seq += 1

    def drop_prefix(self) -> int:
        """Delete the ``manifest`` and ``tail`` objects older builds kept,
        then every segment; returns the count.

        The garbage-collection path for a batch that reached terminal
        state: segments accumulate per batch prefix forever otherwise.
        A later :func:`reconstruct_journal` of the dropped prefix yields
        an empty journal, which is correct (there is nothing left to
        adopt).  The segments go newest-first, so a collection stopped
        after any delete leaves a replica that rebuilds to a prefix of
        the journal, never one with a gap.  Only call this once the batch
        outcome is durable elsewhere (the local journal and the results
        store).
        """
        older = [f"{self.prefix}/{name}" for name in ("manifest", "tail")]
        keys = [key for key in older if key in self.bucket]
        keys += reversed(_segments(self.bucket, self.prefix))
        dropped = sum(int(self.bucket.delete(key)) for key in keys)
        self._next_seq = 0
        return dropped


class ReplicatedJournal(RunJournal):
    """A :class:`RunJournal` whose appends are mirrored to S3.

    The local file stays the fast path (replay reads it directly); the
    S3 copy exists so a *different* instance can reconstruct it after
    this one dies.  Replication happens in :meth:`_after_append`, i.e.
    after the local fsync and before the append returns.
    """

    def __init__(self, path: Path | str, bucket: S3Bucket, prefix: str) -> None:
        super().__init__(path)
        self.replicator = SegmentReplicator(bucket, prefix)

    def _after_append(self, line: str, record: dict[str, Any]) -> None:
        self.replicator.observe(line, record)

    def collect_garbage(self) -> int:
        """Drop this batch's S3 replica (segments and manifest).

        Called by the pipeline once every accession in the batch has a
        terminal record: nothing is left for another instance to adopt,
        and the local journal file (which is *not* touched) remains the
        durable record of what happened.  Returns the number of replica
        objects deleted.
        """
        return self.replicator.drop_prefix()


def reconstruct_journal(
    bucket: S3Bucket, prefix: str, dest: Path | str
) -> RunJournal:
    """Rebuild a journal file from its S3 replica, on a fresh instance.

    Concatenates the listed segments in sequence order, verifying each
    against its content address; the result replays identically to the
    dead instance's local file.  A segment missing from the end reads
    as a crash one append earlier, which is a prefix of the journal; one
    missing from the middle raises :class:`KeyError`, since no crash
    leaves that gap.  A ``manifest`` an older build wrote is ignored:
    the listing holds every segment it named.
    """
    prefix = prefix.rstrip("/")
    parts: list[str] = []
    for seq, key in enumerate(_segments(bucket, prefix)):
        if not key.startswith(f"{prefix}/seg/{seq:06d}-"):
            raise KeyError(f"{prefix}/seg/{seq:06d}: segment missing from replica")
        text = bucket.get(key).payload or ""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        if not key.endswith(digest):
            raise ReplicaCorrupt(
                f"segment {key} content hashes to {digest}; replica is "
                "damaged"
            )
        parts.append(text)
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("".join(parts), encoding="utf-8")
    return RunJournal(dest)


# --------------------------------------------------------------------------
# lease + fencing
# --------------------------------------------------------------------------


@dataclass
class BatchLease:
    """A held (or once-held) lease on a batch's journal prefix.

    ``token`` is this holder's fencing token.  All mutations re-read the
    lease object and compare tokens first, so operations by a holder
    that lost the lease raise :class:`FencedOut` instead of going
    through.
    """

    bucket: S3Bucket
    key: str
    holder: str
    token: int
    expires_at: float

    # -- acquisition -------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        bucket: S3Bucket,
        key: str,
        holder: str,
        *,
        now: float,
        ttl: float,
    ) -> "BatchLease":
        """Take the lease, by creation or by succession.

        Creation uses a conditional put so concurrent first-comers
        serialize on S3; succession (the previous lease expired or was
        released) bumps the fencing token.  A live foreign holder means
        :class:`LeaseHeld`.
        """
        payload = {
            "holder": holder,
            "token": 1,
            "acquired_at": now,
            "expires_at": now + ttl,
        }
        blob = json.dumps(payload)
        try:
            bucket.put(
                key, len(blob), now=now, payload=payload, if_none_match="*"
            )
            return cls(bucket, key, holder, 1, now + ttl)
        except PreconditionFailed:
            pass
        current = bucket.get(key).payload
        if current["expires_at"] > now and current["holder"] != holder:
            raise LeaseHeld(
                current["holder"], current["token"], current["expires_at"]
            )
        token = current["token"] + 1
        payload = {
            "holder": holder,
            "token": token,
            "acquired_at": now,
            "expires_at": now + ttl,
        }
        bucket.put(key, len(json.dumps(payload)), now=now, payload=payload)
        return cls(bucket, key, holder, token, now + ttl)

    # -- token checks ------------------------------------------------------

    def verify(self) -> None:
        """Raise :class:`FencedOut` unless this token is still current."""
        current = self.bucket.get(self.key).payload
        if current["token"] != self.token:
            raise FencedOut(self.holder, self.token, current["token"])

    def renew(self, *, now: float, ttl: float) -> None:
        """Extend the lease (heartbeat); fenced holders cannot renew."""
        self.verify()
        self.expires_at = now + ttl
        payload = {
            "holder": self.holder,
            "token": self.token,
            "acquired_at": now,
            "expires_at": self.expires_at,
        }
        self.bucket.put(
            self.key, len(json.dumps(payload)), now=now, payload=payload
        )

    def release(self, *, now: float) -> None:
        """Give the lease up cleanly.

        The object is overwritten as expired rather than deleted so the
        fencing token survives for the next holder — deleting would let
        tokens restart at 1 and un-fence a stale writer.
        """
        self.verify()
        payload = {
            "holder": self.holder,
            "token": self.token,
            "acquired_at": now,
            "expires_at": now,
        }
        self.bucket.put(
            self.key, len(json.dumps(payload)), now=now, payload=payload
        )

    def publish(
        self,
        results_bucket: S3Bucket,
        key: str,
        size_bytes: float,
        *,
        now: float,
        payload: Any = None,
    ) -> None:
        """Token-checked result publish: the write path fencing guards.

        A stale holder (its lease adopted by another instance) raises
        :class:`FencedOut` here and its result never lands.
        """
        self.verify()
        results_bucket.put(key, size_bytes, now=now, payload=payload)


# --------------------------------------------------------------------------
# shard payload codecs
# --------------------------------------------------------------------------


class ShardFormatIncompatible(JournalIncompatible):
    """The journal holds an ``align.shard`` checkpoint whose outcome
    layout this build does not read (written before outcome batches
    existed, or by a newer layout).

    Resume refuses before any accession starts instead of decoding it:
    start a fresh journal, or resume with the build that wrote it.
    """

    def __init__(
        self, fingerprint: str, accession: str, bounds: tuple[int, int], found: Any
    ) -> None:
        # the config fingerprints agreed; the shard layout is what differs
        self.journal_fingerprint = self.config_fingerprint = fingerprint
        self.accession = accession
        self.bounds = bounds
        self.found_format = found
        RuntimeError.__init__(
            self,
            f"journal holds an align.shard checkpoint for {accession} "
            f"{list(bounds)} in outcome format {found!r}; this build reads "
            f"format {OUTCOME_FORMAT}, so refusing to resume (start a fresh "
            "journal)",
        )


def check_shard_format(
    fingerprint: str, align_shards: dict[str, dict[tuple[int, int], dict]]
) -> None:
    """Raise :class:`ShardFormatIncompatible` unless every replayed
    ``align.shard`` record carries this build's outcome layout."""
    for accession, shards in align_shards.items():
        for bounds, record in shards.items():
            found = record.get("shard", {}).get("v")
            if found != OUTCOME_FORMAT:
                raise ShardFormatIncompatible(fingerprint, accession, bounds, found)


def _encode_partial(p: GeneCountsPartial | None) -> dict | None:
    if p is None:
        return None
    return {
        "nu": p.n_unmapped,
        "nm": p.n_multimapping,
        "nf": dict(p.n_no_feature),
        "na": dict(p.n_ambiguous),
        "gc": {g: dict(cols) for g, cols in p.gene_counts.items()},
    }


def _decode_partial(v: dict | None) -> GeneCountsPartial | None:
    if v is None:
        return None
    return GeneCountsPartial(
        n_unmapped=v["nu"],
        n_multimapping=v["nm"],
        n_no_feature=dict(v["nf"]),
        n_ambiguous=dict(v["na"]),
        gene_counts={g: dict(cols) for g, cols in v["gc"].items()},
    )


def encode_shard_payload(
    outcomes: OutcomeBatch | PairedOutcomeBatch,
    partial: GeneCountsPartial | None,
    seed_stats: dict,
) -> dict:
    """JSON-safe form of one worker batch result (the ``shard`` field of
    an ``align.shard`` record).

    The outcomes are encoded by :func:`~repro.align.outcome.
    encode_outcomes`: tagged by batch type (single-end under ``"o"``,
    paired under ``"po"``, so a paired checkpoint can never be mistaken
    for a single-end one on replay) and versioned under ``"v"``.
    """
    stats = dict(seed_stats)
    # JSON stringifies int dict keys; keep them explicit so decode is exact
    stats["fallback_depths"] = {
        str(d): c for d, c in seed_stats["fallback_depths"].items()
    }
    payload = encode_outcomes(outcomes)
    payload["gc"] = _encode_partial(partial)
    payload["ss"] = stats
    return payload


def decode_shard_payload(payload: dict) -> ShardResult:
    """Inverse of :func:`encode_shard_payload`: yields the exact tuple the
    engine's worker entry point would have returned."""
    stats = dict(payload["ss"])
    stats["fallback_depths"] = {
        int(d): c for d, c in stats["fallback_depths"].items()
    }
    return decode_outcomes(payload), _decode_partial(payload["gc"]), stats


# --------------------------------------------------------------------------
# shard checkpointing
# --------------------------------------------------------------------------


class ShardCheckpointer:
    """The engine's window onto journal shard checkpoints for one accession.

    ``cached`` holds the ``align.shard`` records a resume replayed
    (``JournalReplay.align_shards[accession]``, which holds only records
    made under the journal's current fingerprint); :meth:`load` serves a
    shard from it only when the bounds match exactly *and* the config
    fingerprint agrees — anything else is a miss and the shard re-runs,
    which is always safe (checkpoints are an optimization, never a
    correctness dependency).
    """

    def __init__(
        self,
        journal: RunJournal,
        accession: str,
        fingerprint: str,
        cached: dict[tuple[int, int], dict[str, Any]] | None = None,
    ) -> None:
        self.journal = journal
        self.accession = accession
        self.fingerprint = fingerprint
        # kept by reference: the pipeline shares one dict across retry
        # attempts, so shards a failed attempt journaled are replayed by
        # the next attempt without re-reading the file
        self._cached = cached if cached is not None else {}
        #: shards served from the journal instead of re-aligned
        self.hits = 0
        #: shards checkpointed by this run
        self.recorded = 0

    def load(self, start: int, end: int) -> ShardResult | None:
        record = self._cached.get((start, end))
        if record is None or record.get("fp") != self.fingerprint:
            return None
        self.hits += 1
        return decode_shard_payload(record["shard"])

    def record(
        self,
        start: int,
        end: int,
        outcomes: OutcomeBatch | PairedOutcomeBatch,
        partial: GeneCountsPartial | None,
        seed_stats: dict,
    ) -> None:
        if (start, end) in self._cached:
            return  # already durable; re-journaling it would only bloat
        payload = encode_shard_payload(outcomes, partial, seed_stats)
        self.journal.record_align_shard(
            self.accession, start, end, self.fingerprint, payload
        )
        self._cached[(start, end)] = {"fp": self.fingerprint, "shard": payload}
        self.recorded += 1
