"""Workload definitions, seeded input generation and the output check.

Each workload is one fixed accession batch driven through
``TranscriptomicsAtlasPipeline.run_batch``.  The genome (and so the
index) is the same for every seed; ``--seed`` only draws the reads.
Accession 0 of every workload is a *canary*: its reads come from a
fixed seed, so its output digest can be compared against the digest
stored in ``golden.json`` on every run, whatever seed the run uses.

Why these three workloads (see ``BENCHMARK.json``):

* ``bulk_se`` is the paper's production traffic after the r111 switch:
  single-end bulk libraries, serial batch core, sequential shape, a
  local fsync'd journal.  Nearly all time is the align hot path.
* ``paired_r108_engine`` puts paired-end reads on the scaffold-heavy
  r108 index through the 2-worker engine with shard checkpoints and an
  S3-replicated journal: worker IPC, merge, pairing, checkpoint
  encoding, replication and multimap seeding.
* ``mixed_stream`` streams a quarter single-cell batch over a fixed
  500 kB/s link: download/decode overlap, backpressure, early stopping
  and the batch core on 128-read chunks instead of 512-read batches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.align.cache import IndexCache
from repro.align.star import StarAligner, StarParameters
from repro.cloud.s3 import S3Service
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.core.replication import ReplicatedJournal
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired
from repro.reads.simulator import ReadSimulator
from repro.reads.sra import SraArchive, SraRepository
from repro.reads.stream import ThrottledRepository
from repro.util.rng import derive_rng

POLYA = LibraryType.BULK_POLYA
TOTAL = LibraryType.BULK_TOTAL
SINGLE_CELL = LibraryType.SINGLE_CELL_3P

READ_LENGTH = 100
#: the genome and the canary accession never follow ``--seed``
GENOME_SEED = 0
CANARY_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One fixed batch shape; inputs are drawn per seed by :func:`generate`."""

    name: str
    release: EnsemblRelease
    #: one library type per accession, in submission order
    libraries: tuple[LibraryType, ...]
    #: reads per accession (read pairs when ``paired``)
    reads_per_accession: int
    paired: bool = False
    workers: int = 1
    journal: bool = False
    replicated_journal: bool = False
    shard_checkpoints: bool = False
    streaming: bool = False
    #: the batch's wall time is CPU time, so it is reported in reference
    #: seconds (speed.py); False where a fixed link sets the wall time
    wall_is_cpu: bool = True
    #: fixed link speed of the throttled repository (streaming only)
    bandwidth_bytes_per_s: float | None = None
    chunk_reads: int = 128
    buffer_chunks: int = 8
    download_chunk_bytes: int = 16384

    @property
    def uses_engine(self) -> bool:
        return self.workers > 1

    def star_parameters(self) -> StarParameters:
        if self.streaming:
            # the monitor and the batch core both work at chunk cadence
            return StarParameters(
                align_batch_size=self.chunk_reads, progress_every=self.chunk_reads
            )
        return StarParameters()

    def config(self, *, workers: int | None = None) -> PipelineConfig:
        return PipelineConfig(workers=self.workers if workers is None else workers)

    def batch_options(self, rep_dir: Path) -> tuple[BatchOptions, RunJournal | None]:
        """Options for one measured ``run_batch``; a fresh journal per call."""
        journal: RunJournal | None = None
        if self.replicated_journal:
            bucket = S3Service(root=rep_dir / "s3").create_bucket("perfbench-journal")
            journal = ReplicatedJournal(rep_dir / "journal.jsonl", bucket, "batch")
        elif self.journal:
            journal = RunJournal(rep_dir / "journal.jsonl")
        if self.streaming:
            options = BatchOptions(
                streaming=True,
                chunk_reads=self.chunk_reads,
                buffer_chunks=self.buffer_chunks,
                download_chunk_bytes=self.download_chunk_bytes,
                prefetch_depth=1,
            )
        else:
            options = BatchOptions(
                journal=journal,
                shard_checkpoints=self.shard_checkpoints,
                backend="engine" if self.uses_engine else None,
            )
        return options, journal


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk_se",
            release=EnsemblRelease.R111,
            libraries=(POLYA, TOTAL) * 4,
            reads_per_accession=4000,
            journal=True,
        ),
        Workload(
            name="paired_r108_engine",
            release=EnsemblRelease.R108,
            libraries=(POLYA, TOTAL) * 3,
            reads_per_accession=2500,
            paired=True,
            workers=2,
            journal=True,
            replicated_journal=True,
            shard_checkpoints=True,
        ),
        Workload(
            name="mixed_stream",
            release=EnsemblRelease.R111,
            libraries=(POLYA, SINGLE_CELL, TOTAL, POLYA, TOTAL, SINGLE_CELL, POLYA, TOTAL),
            reads_per_accession=4000,
            streaming=True,
            wall_is_cpu=False,
            bandwidth_bytes_per_s=500_000.0,
        ),
    )
}


@dataclass
class Genome:
    """The fixed synthetic genome: one universe, both release views."""

    annotation: object
    assemblies: dict[EnsemblRelease, object]

    @classmethod
    def build(cls) -> "Genome":
        universe = make_universe(GenomeUniverseSpec(), GENOME_SEED)
        assemblies = {
            release: build_release_assembly(
                universe, release, rng=derive_rng(GENOME_SEED, "assembly")
            )
            for release in (EnsemblRelease.R108, EnsemblRelease.R111)
        }
        return cls(annotation=universe.annotation, assemblies=assemblies)

    def index(self, cache: IndexCache, release: EnsemblRelease):
        """Attach ``release``'s index (built into the cache on first use)."""
        return cache.get_or_build(self.assemblies[release], self.annotation)


@dataclass
class Inputs:
    """One seed's batch: archives on disk plus the reads kept for ledgers."""

    accessions: list[str]
    #: accession -> (records or mate 1, mate 2 or None)
    reads: dict[str, tuple[list, list | None]]
    repository: SraRepository
    sra_bytes: int

    @property
    def n_reads(self) -> int:
        """Input reads in the batch (both mates count when paired)."""
        return sum(
            len(r1) + (len(r2) if r2 is not None else 0)
            for r1, r2 in self.reads.values()
        )


def generate(workload: Workload, seed: int, genome: Genome, sra_root: Path) -> Inputs:
    """Draw the batch for ``seed`` and deposit it in a disk-rooted repository."""
    # reads come from the r111 view: chromosomes are identical in both
    # releases, so the same reads are meaningful on either index
    simulator = ReadSimulator(genome.assemblies[EnsemblRelease.R111], genome.annotation)
    repository = SraRepository(sra_root)
    accessions: list[str] = []
    reads: dict[str, tuple[list, list | None]] = {}
    for i, library in enumerate(workload.libraries):
        accession = f"SRR{770000 + i}"
        rng = derive_rng(CANARY_SEED if i == 0 else seed, f"{workload.name}:{i}")
        if workload.paired:
            sample = simulate_paired(
                simulator,
                PairedProfile(
                    library, workload.reads_per_accession, read_length=READ_LENGTH
                ),
                rng=rng,
                read_id_prefix=accession,
            )
            archive = PairedSraArchive(accession, library, sample.mate1, sample.mate2)
            # the repository's documented on-disk layout: <root>/<acc>.sra
            (sra_root / f"{accession}.sra").write_bytes(archive.to_bytes())
            reads[accession] = (sample.mate1, sample.mate2)
        else:
            sample = simulator.simulate(
                SampleProfile(
                    library, workload.reads_per_accession, read_length=READ_LENGTH
                ),
                rng=rng,
                read_id_prefix=accession,
            )
            repository.deposit(SraArchive(accession, library, sample.records))
            reads[accession] = (sample.records, None)
        accessions.append(accession)
    sra_bytes = sum(repository.archive_bytes(a) for a in accessions)
    return Inputs(accessions, reads, repository, sra_bytes)


def measured_repository(workload: Workload, inputs: Inputs):
    """The repository the measured pipeline downloads from."""
    if workload.bandwidth_bytes_per_s is not None:
        return ThrottledRepository(
            inputs.repository, bandwidth_bytes_per_s=workload.bandwidth_bytes_per_s
        )
    return inputs.repository


def set_up(
    workload: Workload,
    genome: Genome,
    cache_root: Path,
    repository,
    workspace: Path,
) -> tuple[float, TranscriptomicsAtlasPipeline]:
    """Attach the index, build the pipeline, start the engine; timed.

    The cache entry already exists (built outside timing), so this is
    the per-instance start-up cost the paper's workers pay per job.
    """
    started = time.perf_counter()
    index = genome.index(IndexCache(cache_root), workload.release)
    index.search_context  # noqa: B018 - attaching includes the search state
    pipeline = TranscriptomicsAtlasPipeline(
        repository,
        StarAligner(index, workload.star_parameters()),
        workspace,
        config=workload.config(),
    )
    if workload.uses_engine:
        # the engine is otherwise started lazily by the first accession
        pipeline._get_engine()
    return time.perf_counter() - started, pipeline


def output_digest(result) -> str:
    """Digest of what an accession produced: status, counts, final stats.

    ``elapsed_seconds`` is wall clock, so it is left out.
    """
    final = None
    if result.star_result is not None:
        final = dataclasses.asdict(result.star_result.final)
        final.pop("elapsed_seconds")
    blob = json.dumps(
        [result.status.value, result.counts, final], sort_keys=True
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def reference_digests(
    workload: Workload, genome: Genome, cache_root: Path, inputs: Inputs, workspace: Path
) -> dict[str, str]:
    """Serial, sequential, unthrottled run of the batch: the expected outputs."""
    index = genome.index(IndexCache(cache_root), workload.release)
    pipeline = TranscriptomicsAtlasPipeline(
        inputs.repository,
        StarAligner(index, workload.star_parameters()),
        workspace,
        config=workload.config(workers=1),
    )
    with pipeline:
        results = pipeline.run_batch(inputs.accessions, BatchOptions())
    return {r.accession: output_digest(r) for r in results}


def golden_path() -> Path:
    return Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict[str, str]:
    """Stored canary digests by workload name."""
    path = golden_path()
    if not path.is_file():
        return {}
    return json.loads(path.read_text())
