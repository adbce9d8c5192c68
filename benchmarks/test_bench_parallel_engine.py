"""PAR-ENGINE bench: serial vs shared-memory multiprocess alignment.

Measures the read throughput of the serial :class:`StarAligner` against
the :class:`~repro.align.engine.ParallelStarAligner` at increasing worker
counts on the same corpus, verifies the parallel results are identical,
and records everything to ``BENCH_parallel.json`` at the repo root.
Each configuration runs ``REPEATS`` times, a serial run right before
each engine run, so the recorded rates are medians with their [Q1, Q3]
and the ``speedup`` is the median per-repeat ratio of adjacent runs.

The ≥2.5× speedup acceptance bar for 4 workers only holds where 4 cores
exist, so the assertion is gated on ``os.cpu_count()``; the JSON record
always includes the host's core count so downstream readers can judge
the numbers.

Also runnable directly (the CI smoke path)::

    PYTHONPATH=src python benchmarks/test_bench_parallel_engine.py --workers 2

The script rewrites ``BENCH_parallel.json`` only at the record's own size
(``--workers 2 4 --reads 800``, the defaults); any other size just prints
the record.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.align.engine import ParallelStarAligner
from repro.align.index import genome_generate
from repro.align.star import StarAligner, StarParameters
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_parallel.json"
#: the committed record's worker counts and corpus size
RECORD_WORKERS = (2, 4)
RECORD_READS = 800
READ_LENGTH = 80
#: timed runs per configuration
REPEATS = 5


def _corpus(n_reads: int):
    rng = np.random.default_rng(42)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(universe, EnsemblRelease.R111, rng=1)
    index = genome_generate(assembly, universe.annotation)
    simulator = ReadSimulator(assembly, universe.annotation)
    sample = simulator.simulate(
        SampleProfile(
            LibraryType.BULK_POLYA, n_reads=n_reads, read_length=READ_LENGTH
        ),
        rng=7,
    )
    return index, sample.records


def median_iqr(values: list[float]) -> tuple[float, list[float]]:
    """Median and [Q1, Q3] of ``values``."""
    if len(values) == 1:
        return values[0], [values[0], values[0]]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [q1, q3]


def _timed(run, records) -> tuple[float, object]:
    started = time.perf_counter()
    result = run(records)
    return time.perf_counter() - started, result


def measure(worker_counts=RECORD_WORKERS, n_reads: int = RECORD_READS) -> dict:
    """Time serial vs parallel runs; returns the JSON-ready record."""
    index, records = _corpus(n_reads)
    parameters = StarParameters(progress_every=200)

    serial_aligner = StarAligner(index, parameters)
    serial = serial_aligner.run(records)  # the reference, and a warm-up
    serial_seconds: list[float] = []
    parallel_rows = []
    for workers in worker_counts:
        with ParallelStarAligner(index, parameters, workers=workers) as engine:
            engine.run(records[:64])  # warm the pool; steady-state timing
            trials = []
            for _ in range(REPEATS):
                before, _ = _timed(serial_aligner.run, records)
                seconds, parallel = _timed(engine.run, records)
                assert parallel.outcomes == serial.outcomes, (
                    f"{workers}-worker outcomes diverged from serial"
                )
                serial_seconds.append(before)
                trials.append((seconds, before / seconds))
            shared_bytes = engine.shared_bytes
        seconds = statistics.median(t for t, _ in trials)
        rate, rate_iqr = median_iqr([n_reads / t for t, _ in trials])
        speedup, speedup_iqr = median_iqr([ratio for _, ratio in trials])
        parallel_rows.append(
            {
                "workers": workers,
                "seconds": seconds,
                "reads_per_second": rate,
                "reads_per_second_iqr": rate_iqr,
                "speedup": speedup,
                "speedup_iqr": speedup_iqr,
                "shared_index_bytes": shared_bytes,
            }
        )
    serial_rate, serial_iqr = median_iqr([n_reads / t for t in serial_seconds])
    return {
        "n_reads": n_reads,
        "read_length": READ_LENGTH,
        "genome_bases": index.n_bases,
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "serial": {
            "seconds": statistics.median(serial_seconds),
            "reads_per_second": serial_rate,
            "reads_per_second_iqr": serial_iqr,
        },
        "parallel": parallel_rows,
    }


def test_bench_parallel_engine(once):
    record = once(measure)
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(json.dumps(record, indent=2))
    print(f"wrote {OUTPUT}")

    by_workers = {p["workers"]: p for p in record["parallel"]}
    # every configuration produced identical results (asserted in measure);
    # throughput numbers must at least be sane
    for p in record["parallel"]:
        assert p["reads_per_second"] > 0
        assert p["shared_index_bytes"] >= 9 * record["genome_bases"]

    # the ISSUE acceptance bar needs 4 real cores to be physical
    if (os.cpu_count() or 1) >= 4 and 4 in by_workers:
        assert by_workers[4]["speedup"] >= 2.5, by_workers[4]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(RECORD_WORKERS),
        help="worker counts to benchmark against the serial baseline",
    )
    parser.add_argument("--reads", type=int, default=RECORD_READS)
    args = parser.parse_args()

    size = (tuple(args.workers), args.reads)
    result = measure(*size)
    print(json.dumps(result, indent=2))
    if size == (RECORD_WORKERS, RECORD_READS):
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
