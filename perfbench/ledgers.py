"""Ledgers recorded in traced runs beside the per-layer spans.

* :func:`engine_replay` re-aligns the shards the engine dispatched,
  serially in the main process.  Timed untraced, it is the baseline for the
  engine's overhead; run under the tracer, it gives the worker-side
  layers (batch core, extension, pairing, counting) that the main process
  cannot see inside the pool.  It also computes the pickled bytes each
  shard moves in and out of a worker.
* :func:`index_switch` aligns the same mates on r108 and r111 through
  the default batch path, next to the ``repro.perf`` model's prediction.
* :func:`early_stop_saving` re-aligns the rejected accessions without
  the monitor: the paper's early-stopping saving on this batch.
"""

from __future__ import annotations

import pickle
import statistics
import time

from repro.align.paired import PairedStarAligner
from repro.align.star import StarAligner
from repro.core.early_stopping import EarlyStopMonitor
from repro.genome.ensembl import EnsemblRelease
from repro.perf.star_model import StarPerfModel
from repro.reads.fastq import fastq_byte_size


def engine_replay(index, parameters, reads: dict, shards) -> tuple[float, int]:
    """Align ``shards`` ((accession, start, end)) serially.

    Returns (seconds, pickled bytes a worker would receive and return).
    """
    paired = PairedStarAligner(StarAligner(index, parameters))
    seconds = 0.0
    ipc_bytes = 0
    for accession, start, end in shards:
        mate1, mate2 = reads[accession]
        payload = (mate1[start:end], mate2[start:end])
        started = time.perf_counter()
        result = paired.run(*payload)
        seconds += time.perf_counter() - started
        partial = result.gene_counts.to_partial() if result.gene_counts else None
        ipc_bytes += len(pickle.dumps(payload)) + len(
            pickle.dumps((result.outcomes, partial))
        )
    return seconds, ipc_bytes


def index_switch(indexes: dict, parameters, records: list, *, repeats: int = 5) -> tuple[float, float]:
    """(measured r108/r111 align-time ratio, model scan-time ratio).

    Releases alternate within each repeat and the median is kept, so a
    slow moment on the machine hits both sides alike.  The model ratio
    is the scan-time ratio: its fixed setup term is not part of what the
    measurement times.
    """
    aligners = {rel: StarAligner(indexes[rel], parameters) for rel in indexes}
    times: dict = {rel: [] for rel in indexes}
    for _ in range(repeats):
        for rel, aligner in aligners.items():
            started = time.perf_counter()
            aligner.run(records)
            times[rel].append(time.perf_counter() - started)
    measured = statistics.median(times[EnsemblRelease.R108]) / statistics.median(
        times[EnsemblRelease.R111]
    )
    model = StarPerfModel()
    fastq = fastq_byte_size(records)
    # both releases run on the same instance, so the vCPU count cancels
    modelled = (
        model.predict(fastq, EnsemblRelease.R108, 1).scan_seconds
        / model.predict(fastq, EnsemblRelease.R111, 1).scan_seconds
    )
    return measured, modelled


def early_stop_saving(index, parameters, policy, reads: dict, accessions) -> float:
    """Align time saved / align time to run every accession to completion."""
    aligner = StarAligner(index, parameters)
    saved = 0.0
    full_total = 0.0
    for accession in accessions:
        records = reads[accession][0]
        started = time.perf_counter()
        result = aligner.run(records, monitor=EarlyStopMonitor(policy=policy).hook)
        monitored = time.perf_counter() - started
        if not result.aborted:
            full_total += monitored
            continue
        started = time.perf_counter()
        aligner.run(records)
        full = time.perf_counter() - started
        full_total += full
        saved += full - monitored
    return saved / full_total if full_total else 0.0
