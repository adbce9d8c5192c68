"""Crash-consistent run journal: the pipeline's commit log.

The paper's atlas tolerates losing whole spot instances because SQS
redelivers their in-flight accessions (§II); the *local* pipeline had no
equivalent until now — a SIGKILL threw away every completed accession in
the batch.  This module supplies the missing layer:

* :class:`RunJournal` — an append-only JSONL file with whole-line,
  fsync'd appends.  Every record is one line, written with a single
  ``write`` call and flushed to disk before the pipeline proceeds, so
  the journal is always a prefix of the truth: a crash can at worst
  leave a *torn tail* (one partial final line), never a corrupt middle.

* :func:`replay` semantics (``RunJournal.replay``) — rebuilds the batch
  state from the log, tolerating the torn tail, duplicate terminal
  records (a resumed run re-appends ``completed`` for replayed work),
  and an empty file.  Mid-file corruption is *not* tolerated: that means
  something other than a crash wrote the file, and resuming from it
  would silently lose work — :class:`JournalCorrupt` is raised instead.

* :func:`config_fingerprint` — a stable hash of every
  :class:`~repro.core.pipeline.PipelineConfig` field that affects
  per-accession *output* (not timing).  A journal written under one
  fingerprint refuses to resume under another
  (:class:`JournalIncompatible`), because replayed results would not
  match what the new config produces.

Record vocabulary (the ``t`` field): ``batch-start``, ``align.shard``,
``completed``, ``failed`` — only what resume reads.  ``completed`` and
``failed`` are *terminal*: resume replays them verbatim.  An accession
without one is re-run from scratch, as SQS redelivers a dead instance's
message (every pipeline step is re-runnable), so its progress through
the steps is not journaled.  ``align.shard`` records checkpoint
completed read shards *within* the align step so resume re-dispatches
only unfinished shards (see :mod:`repro.core.replication`).  Replay
skips record types it does not know, such as the ``started``,
``step-done`` and ``drained`` lines older journals hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.align.progress import FinalLogStats

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineConfig

__all__ = [
    "JournalCorrupt",
    "JournalIncompatible",
    "JournalReplay",
    "JournalWriteError",
    "ReplayedOutcome",
    "RunJournal",
    "TERMINAL_RECORD_TYPES",
    "config_fingerprint",
]

#: journal format version, stamped on every ``batch-start`` record
JOURNAL_VERSION = 1

#: record types that mark an accession as done (replayed on resume)
TERMINAL_RECORD_TYPES = frozenset({"completed", "failed"})


class JournalCorrupt(RuntimeError):
    """The journal has invalid content *before* its final line.

    A crash can only tear the tail of an append-only, fsync-per-record
    log; damage anywhere else means the file is not a journal this code
    wrote, and resuming from it would be unsafe.
    """


class JournalWriteError(RuntimeError):
    """A journal append failed to reach disk.

    Wraps the underlying ``OSError`` (kept as ``__cause__``) with the
    record type and the accession it was describing, so a pipeline
    failure record can name *what work* lost durability rather than
    surfacing a bare fsync traceback.
    """

    def __init__(
        self,
        path: Path,
        record_type: str,
        accession: str | None,
        cause: OSError,
    ) -> None:
        self.path = path
        self.record_type = record_type
        self.accession = accession
        super().__init__(
            f"journal append of {record_type!r} for {accession or '<batch>'} "
            f"failed on {path}: {cause}"
        )


class JournalIncompatible(RuntimeError):
    """The journal was written by a pipeline with a different config.

    Replaying ``completed`` records produced under different
    output-affecting settings would silently mix two configurations'
    results in one batch, so resume refuses instead.
    """

    def __init__(self, journal_fingerprint: str, config_hash: str) -> None:
        self.journal_fingerprint = journal_fingerprint
        self.config_fingerprint = config_hash
        super().__init__(
            f"journal was written by config {journal_fingerprint!r} but the "
            f"current pipeline config hashes to {config_hash!r}; refusing to "
            "resume (results would not be comparable)"
        )


def config_fingerprint(config: "PipelineConfig") -> str:
    """Stable hash of the config surface that determines per-accession output.

    Execution-shape knobs (``workers``, ``align_batch_size``,
    ``drain_deadline``, ``write_outputs``) are deliberately excluded: the
    engine guarantees identical results across worker counts, so a batch
    journaled at ``workers=4`` may resume at ``workers=1`` and still
    produce byte-identical outcomes.
    """
    surface = {
        "early_stopping": repr(config.early_stopping),
        "acceptance_threshold": config.acceptance_threshold,
        "counts_column": config.counts_column,
        "trim": repr(config.trim),
        "retry": repr(config.retry),
        "retry_seed": config.retry_seed,
        "fault_plan": (
            config.fault_plan.describe() if config.fault_plan is not None else None
        ),
    }
    blob = json.dumps(surface, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ReplayedOutcome:
    """An :class:`~repro.align.outcome.AlignmentOutcome` rebuilt from the
    journal instead of a live run.

    Carries the ``Log.final.out`` statistics the original run recorded;
    per-read outcomes and progress snapshots are not journaled (they are
    bulky and nothing downstream of a *completed* accession needs them),
    so ``progress`` is empty and ``gene_counts`` is None — the pipeline
    keeps the count *column* on the result itself.
    """

    final: FinalLogStats
    progress: list = field(default_factory=list)
    gene_counts: None = None
    aborted: bool = False

    @property
    def mapped_fraction(self) -> float:
        return self.final.mapped_fraction


@dataclass
class JournalReplay:
    """Everything :meth:`RunJournal.replay` recovered from the log."""

    #: config fingerprint from the most recent ``batch-start`` (None when
    #: the journal has no batch record yet)
    fingerprint: str | None = None
    #: accession list of the most recent ``batch-start``
    accessions: list[str] = field(default_factory=list)
    #: accession → first terminal record (``completed`` or ``failed``)
    terminal: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: accession → (shard start, shard end) → ``align.shard`` record;
    #: completed read-shard outcomes the engine can merge instead of
    #: re-aligning.  Only records made under :attr:`fingerprint` are
    #: kept (every record when the journal has no ``batch-start``), the
    #: first per shard winning like terminals: a checkpoint of another
    #: configuration neither serves nor blocks re-checkpointing.
    align_shards: dict[str, dict[tuple[int, int], dict[str, Any]]] = field(
        default_factory=dict
    )
    #: total well-formed records read
    n_records: int = 0
    #: a partial final line was dropped (torn write at crash time)
    torn_tail: bool = False
    #: terminal records ignored because one was already present
    duplicate_terminal: int = 0
    #: every ``align.shard`` record, in journal order, before the
    #: fingerprint filter builds :attr:`align_shards`
    _shard_records: list[dict[str, Any]] = field(default_factory=list, repr=False)

    @property
    def completed(self) -> dict[str, dict[str, Any]]:
        """Terminal records that completed (any non-FAILED status)."""
        return {
            acc: rec
            for acc, rec in self.terminal.items()
            if rec["t"] == "completed"
        }

    def pending(self, accessions: list[str]) -> list[str]:
        """The subset of ``accessions`` that still needs to run."""
        return [a for a in accessions if a not in self.terminal]


class RunJournal:
    """Append-only JSONL journal with whole-line, fsync'd appends.

    Thread-safe: the pipeline appends from every batch worker thread.
    Each append is one ``write`` call of one complete line followed by
    ``flush`` + ``fsync``, so records are durable before the work they
    describe is considered done: a ``completed`` record on disk *is* the
    commit point for that accession.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None
        self.appends = 0

    # -- writing -----------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (a single JSON line).

        I/O failures surface as :class:`JournalWriteError` naming the
        accession the record describes; the raw ``OSError`` rides along
        as ``__cause__``.
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            try:
                fh = self._handle()
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            except OSError as exc:
                raise JournalWriteError(
                    self.path,
                    str(record.get("t", "?")),
                    record.get("acc"),
                    exc,
                ) from exc
            self.appends += 1
            self._after_append(line, record)

    def _after_append(self, line: str, record: dict[str, Any]) -> None:
        """Hook run under the append lock once the record is on disk.

        The base journal does nothing; :class:`repro.core.replication.
        ReplicatedJournal` overrides this to mirror the durable line to
        S3 before the append returns (fsync-ordered replication).
        """

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- typed record helpers ----------------------------------------------

    def record_batch_start(
        self, accessions: list[str], fingerprint: str
    ) -> None:
        self.append(
            {
                "t": "batch-start",
                "v": JOURNAL_VERSION,
                "fp": fingerprint,
                "accessions": list(accessions),
            }
        )

    def record_completed(self, accession: str, payload: dict) -> None:
        self.append({"t": "completed", "acc": accession, "result": payload})

    def record_failed(self, accession: str, payload: dict) -> None:
        self.append({"t": "failed", "acc": accession, "result": payload})

    def record_align_shard(
        self,
        accession: str,
        start: int,
        end: int,
        fingerprint: str,
        payload: dict,
    ) -> None:
        """A read shard ``[start, end)`` finished aligning.

        The payload (serialized outcomes + counters, see
        :mod:`repro.core.replication`) is keyed by accession + shard
        bounds + config fingerprint so resume only reuses it when the
        same reads under the same output-affecting config are in play.
        """
        self.append(
            {
                "t": "align.shard",
                "acc": accession,
                "lo": start,
                "hi": end,
                "fp": fingerprint,
                "shard": payload,
            }
        )

    # -- recovery ----------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Rebuild batch state from the log (see module docstring)."""
        state = JournalReplay()
        if not self.path.exists():
            return state
        raw = self.path.read_bytes()
        if not raw:
            return state
        lines = raw.split(b"\n")
        # a trailing newline leaves one empty fragment; drop it so the
        # "last line" below is the last record candidate
        if lines and lines[-1] == b"":
            lines.pop()
        last = len(lines) - 1
        for i, line in enumerate(lines):
            if not line.strip():
                if i == last:
                    continue
                raise JournalCorrupt(
                    f"{self.path}: blank line at record {i + 1}"
                )
            try:
                record = json.loads(line)
            except (ValueError, UnicodeDecodeError) as exc:
                if i == last:
                    # torn tail: the crash interrupted the final write
                    state.torn_tail = True
                    break
                raise JournalCorrupt(
                    f"{self.path}: unreadable record {i + 1} before the "
                    f"final line — not crash damage"
                ) from exc
            if not isinstance(record, dict) or "t" not in record:
                if i == last:
                    state.torn_tail = True
                    break
                raise JournalCorrupt(
                    f"{self.path}: record {i + 1} is not a journal record"
                )
            self._apply(state, record)
            state.n_records += 1
        for record in state._shard_records:
            if state.fingerprint is None or record.get("fp") == state.fingerprint:
                bounds = (int(record.get("lo", 0)), int(record.get("hi", 0)))
                shards = state.align_shards.setdefault(record["acc"], {})
                shards.setdefault(bounds, record)
        return state

    @staticmethod
    def _apply(state: JournalReplay, record: dict[str, Any]) -> None:
        rtype = record["t"]
        if rtype == "batch-start":
            state.fingerprint = record.get("fp")
            state.accessions = list(record.get("accessions", []))
            return
        acc = record.get("acc")
        if acc is None:
            return
        if rtype == "align.shard":
            state._shard_records.append(record)
        elif rtype in TERMINAL_RECORD_TYPES:
            # idempotent re-runs append duplicate terminal records; the
            # first one wins so replay is stable under re-execution
            if acc in state.terminal:
                state.duplicate_terminal += 1
            else:
                state.terminal[acc] = record
        # any other type (an older journal's "started", "step-done" or
        # "drained") changes nothing: its accession re-runs from scratch


def final_stats_to_payload(final: FinalLogStats) -> dict[str, Any]:
    """JSON-safe form of ``Log.final.out`` statistics."""
    return {
        "reads_total": final.reads_total,
        "reads_processed": final.reads_processed,
        "mapped_unique": final.mapped_unique,
        "mapped_multi": final.mapped_multi,
        "too_many_loci": final.too_many_loci,
        "unmapped": final.unmapped,
        "mismatch_rate": final.mismatch_rate,
        "spliced_reads": final.spliced_reads,
        "elapsed_seconds": final.elapsed_seconds,
        "aborted": final.aborted,
    }


def final_stats_from_payload(payload: dict[str, Any]) -> FinalLogStats:
    """Rebuild a :class:`FinalLogStats` from its journalled payload."""
    return FinalLogStats(**payload)
