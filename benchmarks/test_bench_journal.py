"""JOURNAL bench: fsync'd append cost vs per-accession pipeline time.

The durability layer pays one ``write() + flush + fsync`` per journal
record.  The acceptance bar is that journaling stays in the noise: the
appends an accession generates (its one ``completed`` record, when shard
checkpoints are off) must cost < 5% of the accession's own wall-clock
time through the four-step pipeline.  The timed appends are that record:
a ``completed`` record carrying a real accession's result payload.
Measures both sides, records them to ``BENCH_journal.json`` at the repo
root, and asserts the ratio.

S3 replication (:class:`repro.core.replication.ReplicatedJournal`)
mirrors every line to a durable-rooted bucket *inside* the append — the
fsync-ordering guarantee — as a sealed segment plus a manifest put, so
it is measured under the same bar: ``replicated_overhead_fraction`` must
also stay under 5%, with the replica persisted to disk (the
conservative case; the in-memory service is cheaper).

The per-accession read count matters here: journal cost is fixed per
accession, so the overhead fraction scales inversely with accession
size.  400 reads keeps the toy accession small while staying clear of
the regime where the batch alignment core finishes the whole accession
in single-digit milliseconds — real accessions are millions of reads,
so if anything this *overstates* the journal's relative cost.

Also runnable directly (the CI smoke path)::

    PYTHONPATH=src python benchmarks/test_bench_journal.py --appends 200

The script rewrites ``BENCH_journal.json`` only at the record's own size
(``--appends 400 --accessions 4 --reads 400``, the defaults); any other
size prints the record and checks the bars without writing.
"""

import json
import os
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.cloud.s3 import S3Bucket
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal, config_fingerprint
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.core.replication import ReplicatedJournal
from repro.experiments.chaos import build_demo_inputs

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_journal.json"
MAX_OVERHEAD_FRACTION = 0.05
#: the committed record's size: timed appends, accessions, reads each
RECORD_SIZE = (400, 4, 400)


def _append_seconds(
    journal: RunJournal, accession: str, payload: dict, n_appends: int
) -> float:
    """Mean seconds per fsync'd append of ``accession``'s completed record."""
    with journal:
        journal.record_batch_start([accession], "0" * 16)
        started = time.perf_counter()
        for _ in range(n_appends):
            journal.record_completed(accession, payload)
        elapsed = time.perf_counter() - started
    return elapsed / n_appends


def measure(n_appends: int = 400, n_accessions: int = 4, n_reads: int = 400) -> dict:
    """Time raw appends and a journaled batch; returns the JSON record."""
    aligner, repo, accessions = build_demo_inputs(n_accessions, n_reads=n_reads)
    config = PipelineConfig(
        early_stopping=EarlyStoppingPolicy(min_reads=20), write_outputs=False
    )

    with TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        journal = RunJournal(tmp_path / "batch.jsonl")
        pipeline = TranscriptomicsAtlasPipeline(
            repo, aligner, tmp_path / "work", config=config
        )
        started = time.perf_counter()
        results = pipeline.run_batch(accessions, BatchOptions(journal=journal))
        batch_seconds = time.perf_counter() - started
        appends = journal.appends
        journal.close()

        # the record the pipeline committed for its first accession
        accession = accessions[0]
        payload = journal.replay().terminal[accession]["result"]
        seconds_per_append = _append_seconds(
            RunJournal(tmp_path / "appends.jsonl"), accession, payload, n_appends
        )
        bucket = S3Bucket("bench-journal", root=tmp_path / "s3")
        seconds_per_replicated_append = _append_seconds(
            ReplicatedJournal(tmp_path / "replicated.jsonl", bucket, "batch"),
            accession,
            payload,
            n_appends,
        )

    assert len(results) == n_accessions
    per_accession_seconds = batch_seconds / n_accessions
    appends_per_accession = (appends - 1) / n_accessions  # minus batch-start
    overhead_fraction = (
        appends_per_accession * seconds_per_append / per_accession_seconds
    )
    replicated_overhead_fraction = (
        appends_per_accession
        * seconds_per_replicated_append
        / per_accession_seconds
    )
    return {
        "n_appends_timed": n_appends,
        "n_accessions": n_accessions,
        "n_reads": n_reads,
        "fingerprint": config_fingerprint(config),
        "seconds_per_append": seconds_per_append,
        "seconds_per_replicated_append": seconds_per_replicated_append,
        "appends_per_accession": appends_per_accession,
        "per_accession_seconds": per_accession_seconds,
        "overhead_fraction": overhead_fraction,
        "replicated_overhead_fraction": replicated_overhead_fraction,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "cpu_count": os.cpu_count(),
    }


def test_bench_journal_append_overhead(once):
    record = once(measure)
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(json.dumps(record, indent=2))
    print(f"wrote {OUTPUT}")

    assert record["seconds_per_append"] > 0
    # each accession commits one terminal record and nothing else
    assert record["appends_per_accession"] == 1
    assert record["overhead_fraction"] < MAX_OVERHEAD_FRACTION, record
    # replication to S3 must keep the append under the same bar
    assert (
        record["replicated_overhead_fraction"] < MAX_OVERHEAD_FRACTION
    ), record


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    appends, accessions, reads = RECORD_SIZE
    parser.add_argument("--appends", type=int, default=appends)
    parser.add_argument("--accessions", type=int, default=accessions)
    parser.add_argument("--reads", type=int, default=reads)
    args = parser.parse_args()

    size = (args.appends, args.accessions, args.reads)
    result = measure(*size)
    print(json.dumps(result, indent=2))
    if size == RECORD_SIZE:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    if result["overhead_fraction"] >= MAX_OVERHEAD_FRACTION:
        raise SystemExit(f"journal overhead too high: {result}")
    if result["replicated_overhead_fraction"] >= MAX_OVERHEAD_FRACTION:
        raise SystemExit(f"replicated append overhead too high: {result}")
