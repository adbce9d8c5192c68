"""The benchmark proper; ``run.py`` is its entry point (see there).

Each run draws one accession batch from ``--seed`` (workloads.py), builds
the index cache and a serial reference of the batch's outputs outside
timing, times the set-up several times, then drives the batch through
``TranscriptomicsAtlasPipeline.run_batch`` back to back for
``--seconds``.  Every batch's per-accession outputs are checked against
the reference and against the canary digest in ``golden.json``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, with
the times the host's CPU speed sets scaled to a reference speed
(speed.py; the stamp carries them as measured too);
``--trace 1`` alternates untraced and traced batches and prints the
per-layer metrics (spans.py), the tracing overhead, and the ledgers
(ledgers.py).  The last stdout line is the JSON result; the line before
it is the provenance stamp.  Working files live under ``.perfbench/``
in the checkout and are removed at exit, except the index cache.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import ledgers
import probes
import speed
import workloads
from spans import HOOKS, Installation, Tracer

from repro.align.cache import IndexCache
from repro.core.pipeline import RunStatus
from repro.core.resilience import RetryLedger
from repro.core.stages import PipelineHealth
from repro.genome.ensembl import EnsemblRelease

ROOT = Path(__file__).resolve().parent.parent
#: set-ups timed per run, each after one speed sample; the median is reported
SETUP_REPEATS = 25
#: span names whose work runs inside the engine's pool workers; on the
#: engine workload they are measured by the serial replay of its shards
WORKER_SPANS = ("batch.core", "batch.pack", "batch.seed", "extend", "star.run",
                "counts.tally", "paired.classify")
WORKER_COUNTERS = ("batch.reads", "batch.seed_queries", "extend.candidates",
                   "extend.accepted", "counts.calls", "paired.pairs")


@dataclass
class Rep:
    """One measured ``run_batch``.

    On untraced batches the speed probe's own time is taken out of
    ``wall``, ``cpu`` and ``latencies``, and ``latencies`` are in
    reference seconds where the workload's wall time is CPU time.
    """

    traced: bool
    wall: float
    cpu: float
    latencies: list[float]
    attempted: int
    failed: int
    #: the host's slowdown over the batch (speed.py); 1.0 when not probed
    slowdown: float = 1.0
    #: traced reps: raw span/counter sums and the derived layer metrics
    raw: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


class Bench:
    """Everything one benchmark process sets up, measures and checks."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.workload = workloads.WORKLOADS[args.workload]
        self.genome = workloads.Genome.build()
        self.inputs = workloads.generate(
            self.workload, args.seed, self.genome, work / "sra"
        )
        # the cache outlives the run: later runs in this checkout attach
        self.cache_root = ROOT / ".perfbench" / "index-cache"
        self.index = self.genome.index(IndexCache(self.cache_root), self.workload.release)
        self.expected = workloads.reference_digests(
            self.workload, self.genome, self.cache_root, self.inputs, work / "reference"
        )
        canary = self.inputs.accessions[0]
        self.golden_ok = workloads.load_golden().get(self.workload.name) == self.expected[canary]
        #: accessions counted as failed on every batch (canary drift)
        self.always_failed = set() if self.golden_ok else {canary}
        self.shm_before = probes.shm_blocks()
        self.workspace = work / "workspace"
        self.repository = workloads.measured_repository(self.workload, self.inputs)
        #: measured set-up seconds, and the same in reference seconds
        self.setup_measured: list[float] = []
        self.setup_seconds: list[float] = []
        self.pipeline = None
        for _ in range(SETUP_REPEATS):
            if self.pipeline is not None:
                self.pipeline.close()
            slowdown = speed.slowdown_now()
            seconds, self.pipeline = workloads.set_up(
                self.workload, self.genome, self.cache_root, self.repository, self.workspace
            )
            self.setup_measured.append(seconds)
            self.setup_seconds.append(seconds / slowdown)

    def input_sizes(self) -> dict:
        return {
            "release": int(self.workload.release),
            "accessions": len(self.inputs.accessions),
            "reads": self.inputs.n_reads,
            "sra_bytes": self.inputs.sra_bytes,
            "index_bases": self.index.n_bases,
        }

    def close(self) -> set[str]:
        """Stop the engine; returns shared-memory blocks this run leaked."""
        if self.pipeline is not None:
            self.pipeline.close()
        probes.stop_resource_tracker()
        return probes.shm_blocks() - self.shm_before

    # -- one batch -------------------------------------------------------

    def run_rep(self, tracer, traced: bool, probe: speed.SpeedProbe | None = None) -> Rep:
        rep_dir = self.work / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        shutil.rmtree(self.workspace, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        options, journal = self.workload.batch_options(rep_dir)
        pipeline = self.pipeline
        pipeline.stage_health = PipelineHealth()
        pipeline.retry_ledger = RetryLedger()
        tracer.reset()
        if probe is not None:
            probe.reset()

        cpu_before = probes.cpu_seconds()
        started = time.perf_counter()
        try:
            with probe if probe is not None else contextlib.nullcontext():
                results = pipeline.run_batch(self.inputs.accessions, options)
        finally:
            wall = time.perf_counter() - started
            cpu = probes.cpu_seconds() - cpu_before
            if journal is not None:
                journal.close()
        pipeline.results.clear()
        latencies = self.latencies(tracer, probe)
        slowdown = 1.0
        if probe is not None:
            slowdown = probe.slowdown()
            wall -= probe.own_wall()
            cpu -= probe.own_cpu()

        by_accession = {r.accession: r for r in results}
        failed = 0
        for accession in self.inputs.accessions:
            result = by_accession.get(accession)
            if (
                result is None
                or result.status is RunStatus.FAILED
                or accession in self.always_failed
                or workloads.output_digest(result) != self.expected[accession]
            ):
                failed += 1
        rep = Rep(
            traced=traced,
            wall=wall,
            cpu=cpu,
            latencies=latencies,
            attempted=len(self.inputs.accessions),
            failed=failed,
            slowdown=slowdown,
        )
        if traced:
            rep.raw = {
                "self_s": dict(tracer.self_s),
                "total_s": dict(tracer.total_s),
                "counters": dict(tracer.counters),
                "main_layer_self_s": tracer.main_layer_self_s,
                "shards": list(tracer.shards),
            }
            rep.layers = self.batch_layers(rep, results, pipeline)
        return rep

    def latencies(self, tracer, probe: speed.SpeedProbe | None) -> list[float]:
        """Accession latencies of the batch just run, without the probe's
        own time, and in reference seconds where wall time is CPU time."""
        if probe is None:
            return list(tracer.latencies().values())
        out = []
        for accession, start in tracer.opened.items():
            end = tracer.closed.get(accession)
            if end is None:
                continue
            seconds = end - start - probe.own_wall(start, end)
            if self.workload.wall_is_cpu:
                seconds /= probe.slowdown(start, end)
            out.append(seconds)
        return out

    def batch_layers(self, rep: Rep, results, pipeline) -> dict[str, float]:
        """Layer metrics that come from the batch run itself (main-process side)."""
        raw = rep.raw
        self_s, total_s, counters = raw["self_s"], raw["total_s"], raw["counters"]
        health = pipeline.stage_health
        prefetch = health.stage("prefetch")
        rejected = [r for r in results if r.status is RunStatus.REJECTED_EARLY]
        reads_total = sum(r.star_result.final.reads_total for r in results if r.star_result)
        skipped = sum(
            r.star_result.final.reads_total - r.star_result.final.reads_processed
            for r in rejected
        )
        dump_s = total_s.get("sra.fasterq_dump", 0.0)
        return {
            "sra.prefetch_s": self_s.get("sra.prefetch", 0.0),
            "sra.fasterq_dump_s": self_s.get("sra.fasterq_dump", 0.0),
            "sra.decode_mb_per_s": counters.get("sra.bytes", 0.0) / 1e6 / dump_s if dump_s else 0.0,
            "fastq.parse_s": self_s.get("fastq.parse", 0.0),
            "stream.decode_s": self_s.get("stream.decode", 0.0),
            "stream.chunks": counters.get("stream.chunks", 0.0),
            "stream.bytes_saved_frac": (
                health.download_bytes_saved / health.download_bytes_total
                if health.download_bytes_total
                else 0.0
            ),
            "engine.run_s": total_s.get("engine.run", 0.0),
            "engine.shards": counters.get("checkpoint.shards", 0.0),
            "journal.appends": counters.get("journal.appends", 0.0),
            "journal.append_s": self_s.get("journal.append", 0.0),
            "replication.s3_puts": counters.get("replication.s3_puts", 0.0),
            "replication.s3_mb": counters.get("replication.s3_bytes", 0.0) / 1e6,
            "replication.observe_s": total_s.get("replication.observe", 0.0),
            "checkpoint.shards": counters.get("checkpoint.shards", 0.0),
            "checkpoint.record_s": self_s.get("checkpoint.record", 0.0),
            "streaming.download_busy_s": prefetch.busy_seconds if health.accessions_streamed else 0.0,
            "streaming.download_stall_s": prefetch.stall_seconds,
            # the align thread's exact wait for its next chunk (the stage
            # counters only see waits in whole queue-poll intervals)
            "streaming.align_stall_s": self_s.get("stream.wait", 0.0),
            "streaming.queue_depth_mean": prefetch.mean_queue_depth,
            "early_stop.rejected": float(len(rejected)),
            "early_stop.reads_skipped_frac": skipped / reads_total if reads_total else 0.0,
            "retry.retries": float(pipeline.retry_ledger.total),
            "trace.residual_frac": (rep.wall - raw["main_layer_self_s"]) / rep.wall,
            "failed_frac": rep.failed / rep.attempted,
        }


def worker_layers(raw: dict, replay: dict | None) -> dict[str, float]:
    """Align-layer metrics; on the engine workload the replay's spans are
    added, since the pool workers run those layers out of the tracer's
    sight."""
    self_s = dict(raw["self_s"])
    counters = dict(raw["counters"])
    if replay is not None:
        for name in WORKER_SPANS:
            self_s[name] = self_s.get(name, 0.0) + replay["self_s"].get(name, 0.0)
        for name in WORKER_COUNTERS:
            counters[name] = counters.get(name, 0.0) + replay["counters"].get(name, 0.0)
    reads = counters.get("batch.reads", 0.0)
    candidates = counters.get("extend.candidates", 0.0)
    return {
        "batch.pack_s": self_s.get("batch.pack", 0.0),
        "batch.seed_s": self_s.get("batch.seed", 0.0),
        "batch.seed_queries": counters.get("batch.seed_queries", 0.0),
        "batch.seed_us_per_read": 1e6 * self_s.get("batch.seed", 0.0) / reads if reads else 0.0,
        "batch.core_self_s": self_s.get("batch.core", 0.0),
        "extend.s": self_s.get("extend", 0.0),
        "extend.candidates": candidates,
        "extend.accept_frac": counters.get("extend.accepted", 0.0) / candidates if candidates else 0.0,
        "star.merge_s": self_s.get("star.run", 0.0),
        "counts.tally_s": self_s.get("counts.tally", 0.0),
        "counts.calls": counters.get("counts.calls", 0.0),
        "paired.classify_s": self_s.get("paired.classify", 0.0),
        "paired.pairs": counters.get("paired.pairs", 0.0),
    }


def measure(bench: Bench, tracer, *, trace: bool) -> tuple[list[Rep], int]:
    """Back-to-back batches for ``--seconds``; returns them with the peak
    summed PSS in bytes.  Traced runs alternate untraced and traced
    batches so the tracing overhead is measured; untraced runs sample
    the host's speed (speed.py) through every batch."""
    reps: list[Rep] = []
    probe = None if trace else speed.SpeedProbe()
    started = time.perf_counter()
    with probes.PssSampler() as sampler:
        while True:
            traced = trace and len(reps) % 2 == 1
            installation = Installation(tracer, HOOKS, spans=traced)
            try:
                rep = bench.run_rep(tracer, traced, probe)
            finally:
                installation.remove()
            reps.append(rep)
            print(
                f"perfbench: batch {len(reps)} traced={int(traced)} wall={rep.wall:.3f}s "
                f"cpu={rep.cpu:.3f}s slowdown={rep.slowdown:.3f} "
                f"failed={rep.failed}/{rep.attempted}",
                file=sys.stderr,
            )
            enough = not trace or any(r.traced for r in reps)
            if enough and time.perf_counter() - started >= bench.args.seconds:
                break
    return reps, sampler.peak


def end_to_end(bench: Bench, reps: list[Rep], peak_pss: int) -> dict[str, float]:
    """CPU time, and wall time where it is CPU time, in reference seconds."""
    n_reads = bench.inputs.n_reads
    wall_is_cpu = bench.workload.wall_is_cpu
    return {
        "setup_s": statistics.median(bench.setup_seconds),
        "reads_per_s": statistics.median(
            n_reads / (r.wall / r.slowdown if wall_is_cpu else r.wall) for r in reps
        ),
        "accession_p50_s": statistics.median(x for r in reps for x in r.latencies),
        "cpu_s_per_kread": statistics.median(
            r.cpu / r.slowdown / (n_reads / 1000) for r in reps
        ),
        "peak_rss_mb": peak_pss / 1e6,
    }


def as_measured(bench: Bench, reps: list[Rep]) -> dict[str, float]:
    """The time metrics before the host-speed scaling, for the stamp."""
    n_reads = bench.inputs.n_reads
    return {
        "host_slowdown": statistics.median(r.slowdown for r in reps),
        "setup_s": statistics.median(bench.setup_measured),
        "reads_per_s": statistics.median(n_reads / r.wall for r in reps),
        "cpu_s_per_kread": statistics.median(r.cpu / (n_reads / 1000) for r in reps),
    }


def per_layer(bench: Bench, tracer, reps: list[Rep]) -> dict[str, float]:
    workload = bench.workload
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    n_reads = bench.inputs.n_reads
    params = workload.star_parameters()
    extra = {
        "engine.ipc_mb": 0.0,
        "engine.overhead_s": 0.0,
        "paper.r108_r111_align_ratio": 0.0,
        "paper.model_r108_r111_ratio": 0.0,
        "paper.early_stop_saved_frac": 0.0,
        "trace.overhead_frac": 1.0
        - statistics.median(n_reads / r.wall for r in traced)
        / statistics.median(n_reads / r.wall for r in untraced),
    }
    replay = None
    if workload.uses_engine:
        shards = traced[-1].raw["shards"]
        replay_s, ipc_bytes = ledgers.engine_replay(
            bench.index, params, bench.inputs.reads, shards
        )
        extra["engine.ipc_mb"] = ipc_bytes / 1e6
        extra["engine.overhead_s"] = (
            statistics.median(r.layers["engine.run_s"] for r in traced)
            - replay_s / workload.workers
        )
        tracer.reset()
        installation = Installation(tracer, HOOKS, spans=True)
        try:
            ledgers.engine_replay(bench.index, params, bench.inputs.reads, shards)
        finally:
            installation.remove()
        replay = {"self_s": dict(tracer.self_s), "counters": dict(tracer.counters)}
    if workload.paired:
        cache = IndexCache(bench.cache_root)
        indexes = {rel: bench.genome.index(cache, rel) for rel in (EnsemblRelease.R108, EnsemblRelease.R111)}
        mate1, mate2 = bench.inputs.reads[bench.inputs.accessions[0]]
        (
            extra["paper.r108_r111_align_ratio"],
            extra["paper.model_r108_r111_ratio"],
        ) = ledgers.index_switch(indexes, params, mate1 + mate2)
    if workload.streaming:
        extra["paper.early_stop_saved_frac"] = ledgers.early_stop_saving(
            bench.index,
            params,
            workload.config().early_stopping,
            bench.inputs.reads,
            bench.inputs.accessions,
        )
    names = list(traced[0].layers) + list(worker_layers(traced[0].raw, replay))
    per_rep = [{**r.layers, **worker_layers(r.raw, replay)} for r in traced]
    layers = {name: statistics.median(rep[name] for rep in per_rep) for name in names}
    return {**layers, **extra}


def main(args) -> int:
    """Run one benchmark invocation; prints the provenance and result lines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    bench = None
    leaked: set[str] = set()
    tracer = Tracer()
    try:
        bench = Bench(args, work)
        reps, peak_pss = measure(bench, tracer, trace=bool(args.trace))
        if args.trace:
            values = per_layer(bench, tracer, reps)
        else:
            values = end_to_end(bench, reps, peak_pss)
        stamp = probes.provenance(ROOT, args.workload, args.seed, bench.input_sizes())
        if not args.trace:
            stamp["as_measured"] = as_measured(bench, reps)
    finally:
        if bench is not None:
            leaked = bench.close()
        shutil.rmtree(work, ignore_errors=True)
    if tracer.missing:
        print(f"perfbench: hooks not found: {', '.join(tracer.missing)}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(r.failed for r in reps)
    stamp.update(
        batches=len(reps),
        traced_batches=sum(r.traced for r in reps),
        latency_samples=sum(len(r.latencies) for r in reps),
        golden_ok=bench.golden_ok,
        shm_leaked=sorted(leaked),
    )
    print(json.dumps({"provenance": stamp}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bench.golden_ok and not leaked,
                "attempted": sum(r.attempted for r in reps),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0

