"""BATCH bench: vectorized batch alignment core vs the per-read oracle.

The batch core (:mod:`repro.align.batch`) packs a whole read batch into
structure-of-arrays form and drives seeding, extension, and splice
stitching through fused numpy kernels.  The acceptance bar is a ≥ 5×
reads-per-second speedup over the per-read reference path — with
*byte-identical* outcomes across single-end, paired-end, and
early-stopped runs.  Serial and batch passes are interleaved within each
trial so thermal throttling and scheduler drift cancel out of the
per-trial ratio; the recorded ``speedup`` is the median per-trial ratio
(adjacent-in-time measurements) with its interquartile range, alongside
both paths' median absolute rates, and the bar is asserted against the
median.  Records everything to ``BENCH_batch.json`` at the repo root.

Also runnable directly (the CI smoke path)::

    PYTHONPATH=src python benchmarks/test_bench_batch.py --reads 200

The script rewrites ``BENCH_batch.json`` only at the record's own size
(``--reads 600 --read-length 100 --trials 5``, the defaults); any other
size prints the record and checks the bars without writing.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.align.batch import align_read_batch
from repro.align.index import genome_generate
from repro.align.paired import PairedParameters, PairedStarAligner
from repro.align.star import StarAligner, StarParameters
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, simulate_paired
from repro.reads.simulator import ReadSimulator
from repro.util.rng import derive_rng, ensure_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_batch.json"
MIN_SPEEDUP = 5.0
#: the committed record's size: reads, read length, trials
RECORD_SIZE = (600, 100, 5)


def median_iqr(values: list[float]) -> tuple[float, list[float]]:
    """Median and [Q1, Q3] of ``values``."""
    if len(values) == 1:
        return values[0], [values[0], values[0]]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [q1, q3]


def _paired_identical(index, mate1, mate2) -> bool:
    """Paired runs, batch core on vs off, must agree outcome-for-outcome."""
    results = {}
    for batch in (True, False):
        aligner = StarAligner(index, StarParameters(batch_align=batch))
        results[batch] = PairedStarAligner(aligner, PairedParameters()).run(
            mate1, mate2
        )
    return results[True].outcomes == results[False].outcomes


def _early_stop_identical(index, records) -> bool:
    """Aborted runs must truncate at the same read with equal outcomes."""
    results = {}
    for batch in (True, False):
        aligner = StarAligner(
            index,
            StarParameters(
                progress_every=50, batch_align=batch, align_batch_size=128
            ),
        )
        seen = []

        def monitor(rec, seen=seen):
            seen.append(rec)
            return len(seen) < 3

        results[batch] = aligner.run(records, monitor=monitor)
    on, off = results[True], results[False]
    return (
        on.aborted
        and off.aborted
        and on.outcomes == off.outcomes
        and on.final.reads_processed == off.final.reads_processed
    )


def measure(n_reads: int = 600, read_length: int = 100, trials: int = 5) -> dict:
    """Time both paths over one simulated sample; returns the JSON record."""
    rng = ensure_rng(42)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    simulator = ReadSimulator(assembly, universe.annotation)
    records = simulator.simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=n_reads, read_length=read_length),
        rng=derive_rng(rng, "reads"),
    ).records
    index = genome_generate(assembly, universe.annotation)
    aligner = StarAligner(index, StarParameters())

    # equivalence first: the batch core must be bit-identical on this
    # corpus before its timing means anything
    serial_outcomes = [aligner.align_read(r) for r in records]
    batch_outcomes = align_read_batch(aligner, records)
    identical_se = serial_outcomes == batch_outcomes
    assert identical_se, "batch core diverged from the per-read oracle"

    paired = simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA, n_pairs=max(50, n_reads // 4),
            read_length=max(40, read_length - 30),
            insert_mean=250, insert_sd=30,
        ),
        rng=derive_rng(rng, "pairs"),
    )
    identical_pe = _paired_identical(index, paired.mate1, paired.mate2)
    assert identical_pe, "paired batch run diverged"
    identical_stop = _early_stop_identical(index, records)
    assert identical_stop, "early-stopped batch run diverged"

    trial_rows = []
    for _ in range(trials):
        started = time.perf_counter()
        for record in records:
            aligner.align_read(record)
        mid = time.perf_counter()
        align_read_batch(aligner, records)
        done = time.perf_counter()
        serial_rps = n_reads / (mid - started)
        batch_rps = n_reads / (done - mid)
        trial_rows.append(
            {"serial_rps": serial_rps, "batch_rps": batch_rps,
             "ratio": batch_rps / serial_rps}
        )
    serial, serial_iqr = median_iqr([row["serial_rps"] for row in trial_rows])
    batch, batch_iqr = median_iqr([row["batch_rps"] for row in trial_rows])
    speedup, speedup_iqr = median_iqr([row["ratio"] for row in trial_rows])

    return {
        "n_reads": n_reads,
        "read_length": read_length,
        "trials": trials,
        "genome_bases": index.n_bases,
        "serial_reads_per_second": serial,
        "serial_reads_per_second_iqr": serial_iqr,
        "batch_reads_per_second": batch,
        "batch_reads_per_second_iqr": batch_iqr,
        "speedup": speedup,
        "speedup_iqr": speedup_iqr,
        "min_speedup": MIN_SPEEDUP,
        "per_trial": trial_rows,
        "identical_single_end": identical_se,
        "identical_paired": identical_pe,
        "identical_early_stopped": identical_stop,
        "cpu_count": os.cpu_count(),
    }


def test_bench_batch_core_speedup(once):
    record = once(measure)
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(json.dumps(record, indent=2))
    print(f"wrote {OUTPUT}")

    assert record["identical_single_end"]
    assert record["identical_paired"]
    assert record["identical_early_stopped"]
    assert record["speedup"] >= MIN_SPEEDUP, record


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    reads, read_length, trials = RECORD_SIZE
    parser.add_argument("--reads", type=int, default=reads)
    parser.add_argument("--read-length", type=int, default=read_length)
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_SPEEDUP,
        help="speedup bar; the CI smoke relaxes it because the fixed "
        "per-batch cost amortizes over fewer reads at smoke scale "
        "(identity checks always assert at full strictness)",
    )
    args = parser.parse_args()

    size = (args.reads, args.read_length, args.trials)
    result = measure(*size)
    print(json.dumps(result, indent=2))
    if size == RECORD_SIZE:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    if result["speedup"] < args.min_speedup:
        raise SystemExit(f"batch-core speedup below bar: {result}")
