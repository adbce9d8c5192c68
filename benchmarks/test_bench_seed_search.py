"""SEED bench: jump-table + packed-state MMP vs the pre-PR binary-search path.

The seed-search hot path resolves its first L symbols through the
:class:`PrefixJumpTable` and finishes single-suffix intervals with a
chunked longest-common-extension scan.  The acceptance bar is a ≥ 1.5×
reads-per-second speedup over the original one-symbol-at-a-time interval
narrowing — with *bit-identical* seed decompositions — plus an
``IndexCache`` reload that skips suffix-array construction entirely.
Both paths' rates are the median of the repeats, recorded with their
interquartile ranges, and the bar is asserted against the ratio of the
medians.

The batch kernel :func:`~repro.align.batch.batch_mmp` is timed on the
same queries (every seed start of every read's decomposition, in one
call), with its seeds and :class:`SeedSearchStats` deltas asserted
identical to the per-read search's; its rate is recorded with no bar.
Records everything to ``BENCH_seed.json`` at the repo root.

Also runnable directly (the CI smoke path)::

    PYTHONPATH=src python benchmarks/test_bench_seed_search.py --reads 200

The script rewrites ``BENCH_seed.json`` only at the record's own size
(``--reads 600 --read-length 100 --repeats 5``, the defaults); any other
size prints the record and checks the bar without writing.
"""

import json
import os
import statistics
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro.align.batch import batch_mmp
from repro.align.cache import IndexCache
from repro.align.index import genome_generate
from repro.align.seeds import SeedHit, seed_decomposition
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator
from repro.util.rng import derive_rng, ensure_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_seed.json"
MIN_SPEEDUP = 1.5
#: the committed record's size: reads, read length, repeats
RECORD_SIZE = (600, 100, 5)


def _reference_mmp(ctx, read_list, read_start, max_hits, sa_list):
    """The pre-PR MMP: one ``extend`` (two binary searches) per symbol."""
    n = len(read_list)
    lo, hi = 0, ctx.n
    depth = 0
    extend = ctx.extend
    while read_start + depth < n:
        nlo, nhi = extend(lo, hi, depth, read_list[read_start + depth])
        if nlo >= nhi:
            break
        lo, hi = nlo, nhi
        depth += 1
    if depth == 0:
        return SeedHit(read_start=read_start, length=0, positions=(), n_hits=0)
    shown = sa_list[lo : min(hi, lo + max_hits)]
    if len(shown) > 1:
        shown = sorted(shown)
    return SeedHit(
        read_start=read_start,
        length=depth,
        positions=tuple(shown),
        n_hits=int(hi - lo),
    )


def _reference_decomposition(ctx, read, sa_list, *, max_seeds=8, max_hits=50):
    """Pre-PR ``seed_decomposition``: same skip-1 policy over the slow MMP."""
    seeds = []
    pos = 0
    read_list = read.tolist()
    n = len(read_list)
    while pos < n and len(seeds) < max_seeds:
        seed = _reference_mmp(ctx, read_list, pos, max_hits, sa_list)
        seeds.append(seed)
        pos += seed.length if seed.length > 0 else 1
    return seeds


def _batch_seeds(ctx, reads, decompositions, max_hits=50):
    """Every seed query of ``decompositions`` through one ``batch_mmp``
    call: returns the call's arguments and a function that turns its
    result into the same :class:`SeedHit` lists."""
    lengths = np.array([read.size for read in reads], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    owner = np.repeat(np.arange(len(reads)), [len(d) for d in decompositions])
    starts = np.array(
        [seed.read_start for d in decompositions for seed in d], dtype=np.int64
    )
    args = (np.concatenate(reads), offsets[owner] + starts, lengths[owner] - starts)

    def as_hits(depth, lo, hi):
        hits = [[] for _ in reads]
        for q, read in enumerate(owner.tolist()):
            length, a, b = int(depth[q]), int(lo[q]), int(hi[q])
            if length == 0:
                hit = SeedHit(int(starts[q]), 0, (), 0)
            else:
                shown = tuple(sorted(ctx.sa_arr[a : min(b, a + max_hits)].tolist()))
                hit = SeedHit(int(starts[q]), length, shown, b - a)
            hits[read].append(hit)
        return hits

    return args, as_hits


def _reads_per_second(fn, reads, repeats) -> tuple[float, list[float]]:
    """Median rate over ``repeats`` runs, and its [Q1, Q3]."""
    rates = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn(reads)
        rates.append(len(reads) / (time.perf_counter() - started))
    if len(rates) == 1:
        return rates[0], [rates[0], rates[0]]
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    return median, [q1, q3]


def measure(n_reads: int = 600, read_length: int = 100, repeats: int = 5) -> dict:
    """Time both paths over one simulated sample; returns the JSON record."""
    rng = ensure_rng(42)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    sample = ReadSimulator(assembly, universe.annotation).simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=n_reads, read_length=read_length),
        rng=derive_rng(rng, "reads"),
    )
    reads = [record.sequence for record in sample.records]

    jump_index = genome_generate(assembly, universe.annotation)
    flat_index = genome_generate(assembly, universe.annotation, jump_table=False)
    flat_ctx = flat_index.search_context
    sa_list = flat_index.suffix_array.tolist()  # the old 40 B/position state

    # equivalence first: every decomposition must be bit-identical
    for read in reads:
        assert seed_decomposition(jump_index, read) == _reference_decomposition(
            flat_ctx, read, sa_list
        )

    def run_reference(batch):
        for read in batch:
            _reference_decomposition(flat_ctx, read, sa_list)

    def run_jump(batch):
        for read in batch:
            seed_decomposition(jump_index, read)

    reference_rps, reference_iqr = _reads_per_second(run_reference, reads, repeats)
    stats_before = jump_index.search_context.stats.snapshot()
    jump_rps, jump_iqr = _reads_per_second(run_jump, reads, repeats)
    stats = jump_index.search_context.stats.since(stats_before)

    # the batch kernel on the same queries: identical seeds and counters
    ctx = jump_index.search_context
    before = ctx.stats.snapshot()
    decompositions = [seed_decomposition(jump_index, read) for read in reads]
    per_read_stats = ctx.stats.since(before)
    args, as_hits = _batch_seeds(ctx, reads, decompositions)
    before = ctx.stats.snapshot()
    assert as_hits(*batch_mmp(ctx, *args)) == decompositions
    batch_stats = ctx.stats.since(before)
    assert batch_stats.pop("batch_queries") == len(args[1])
    assert per_read_stats.pop("batch_queries") == 0
    assert batch_stats == per_read_stats
    batch_rps, batch_iqr = _reads_per_second(
        lambda _: batch_mmp(ctx, *args), reads, repeats
    )

    # cache: a second load must attach via mmap, not rebuild the SA
    with TemporaryDirectory() as tmp:
        cache = IndexCache(tmp)
        started = time.perf_counter()
        cache.get_or_build(assembly, universe.annotation)
        build_seconds = time.perf_counter() - started
        started = time.perf_counter()
        reloaded = cache.get_or_build(assembly, universe.annotation)
        reload_seconds = time.perf_counter() - started
        assert (cache.hits, cache.misses) == (1, 1)
        assert reloaded.jump_table is not None

    return {
        "n_reads": n_reads,
        "read_length": read_length,
        "repeats": repeats,
        "genome_bases": jump_index.n_bases,
        "jump_length": jump_index.jump_table.length,
        "jump_table_bytes": jump_index.jump_table.nbytes,
        "reference_reads_per_second": reference_rps,
        "reference_reads_per_second_iqr": reference_iqr,
        "jump_reads_per_second": jump_rps,
        "jump_reads_per_second_iqr": jump_iqr,
        "speedup": jump_rps / reference_rps,
        "min_speedup": MIN_SPEEDUP,
        "seed_search_stats": stats,
        "batch_queries": len(args[1]),
        "batch_reads_per_second": batch_rps,
        "batch_reads_per_second_iqr": batch_iqr,
        "batch_speedup_over_jump": batch_rps / jump_rps,
        "cache_build_seconds": build_seconds,
        "cache_reload_seconds": reload_seconds,
        "cpu_count": os.cpu_count(),
    }


def test_bench_seed_search_speedup(once):
    record = once(measure)
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(json.dumps(record, indent=2))
    print(f"wrote {OUTPUT}")

    assert record["jump_reads_per_second"] > 0
    assert record["seed_search_stats"]["table_hits"] > 0
    assert record["seed_search_stats"]["binary_steps_saved"] > 0
    assert record["cache_reload_seconds"] < record["cache_build_seconds"]
    assert record["speedup"] >= MIN_SPEEDUP, record


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    reads, read_length, repeats = RECORD_SIZE
    parser.add_argument("--reads", type=int, default=reads)
    parser.add_argument("--read-length", type=int, default=read_length)
    parser.add_argument("--repeats", type=int, default=repeats)
    args = parser.parse_args()

    size = (args.reads, args.read_length, args.repeats)
    result = measure(*size)
    print(json.dumps(result, indent=2))
    if size == RECORD_SIZE:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    if result["speedup"] < MIN_SPEEDUP:
        raise SystemExit(f"seed-search speedup below bar: {result}")
