"""Backend equivalence: serial, engine, and faas are byte-identical.

The execution shape — one process, a shared-memory worker pool, or a
scatter of simulated function invocations — must never leak into the
science.  This suite is the reusable proof: a parametrized factory
builds each backend, and every property (per-read outcomes, gene-count
vectors, final-log statistics, early-stop abort points, chaos-retried
runs, journal-resume interchange) is asserted byte-identical against
the serial reference.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.backend import (
    EngineBackend,
    FaasAlignerBackend,
    ReadChunkStream,
    SerialAlignerBackend,
)
from repro.align.engine import ParallelStarAligner, _shard_bounds
from repro.align.outcome import encode_outcomes
from repro.cloud.faas import FaasLimits, FaasService
from repro.core.early_stopping import EarlyStopMonitor, EarlyStoppingPolicy
from repro.genome.alphabet import encode
from repro.reads.fastq import FastqRecord, ReadBatch
from repro.reads.library import LibraryType
from repro.reads.paired import PairedProfile, simulate_paired

BACKENDS = ("serial", "engine", "faas")

FINAL_FIELDS = (
    "reads_total",
    "reads_processed",
    "mapped_unique",
    "mapped_multi",
    "too_many_loci",
    "unmapped",
    "mismatch_rate",
    "spliced_reads",
    "aborted",
)


def assert_equivalent(got, want):
    """Byte-identity: outcomes, counts, and final stats (not wall clock)."""
    assert got.aborted == want.aborted
    assert got.outcomes == want.outcomes
    assert got.gene_counts == want.gene_counts
    for name in FINAL_FIELDS:
        assert getattr(got.final, name) == getattr(want.final, name), name


@pytest.fixture(scope="module")
def engine(aligner_r111):
    eng = ParallelStarAligner(
        aligner_r111.index, aligner_r111.parameters, workers=2, batch_size=64
    ).start()
    yield eng
    eng.close()


@pytest.fixture
def build_backend(aligner_r111, engine):
    """The reusable backend factory other suites can parametrize over."""

    def build(name: str, **faas_kwargs):
        if name == "serial":
            return SerialAlignerBackend(aligner_r111)
        if name == "engine":
            return EngineBackend(engine)
        if name == "faas":
            return FaasAlignerBackend(aligner_r111, **faas_kwargs)
        raise ValueError(name)

    return build


@pytest.fixture(scope="module")
def paired_sample(simulator):
    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA,
            n_pairs=120,
            read_length=70,
            insert_mean=250,
            insert_sd=30,
        ),
        rng=23,
    )


@pytest.fixture(scope="module")
def long_paired_sample(simulator):
    """Enough pairs for a progress record before the last pair: the
    default paired cadence is one record per 500 pairs."""
    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA,
            n_pairs=600,
            read_length=70,
            insert_mean=250,
            insert_sd=30,
        ),
        rng=29,
    )


def make_strict_monitor():
    """A bar no real sample meets: aborts at the first checkpoint past
    the check fraction."""
    policy =EarlyStoppingPolicy(
        mapping_threshold=0.999, check_fraction=0.2, min_reads=50
    )
    return EarlyStopMonitor(policy).hook


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestEquivalence:
    def test_single_end(self, backend_name, build_backend, bulk_sample):
        want = build_backend("serial").align(ReadChunkStream.of(bulk_sample.records))
        got = build_backend(backend_name).align(
            ReadChunkStream.of(bulk_sample.records)
        )
        assert_equivalent(got, want)

    def test_paired_end(self, backend_name, build_backend, paired_sample):
        batch = ReadChunkStream.of(paired_sample.mate1, paired_sample.mate2)
        want = build_backend("serial").align(batch)
        got = build_backend(backend_name).align(batch)
        assert got.aborted == want.aborted
        assert got.outcomes == want.outcomes
        assert got.gene_counts == want.gene_counts
        assert got.final.mapped_unique == want.final.mapped_unique
        assert got.final.spliced_reads == want.final.spliced_reads

    def test_early_stop_aborts_at_the_same_read(
        self, backend_name, build_backend, bulk_sample
    ):
        want = build_backend("serial").align(
            ReadChunkStream.of(bulk_sample.records), monitor=make_strict_monitor()
        )
        got = build_backend(backend_name).align(
            ReadChunkStream.of(bulk_sample.records), monitor=make_strict_monitor()
        )
        assert want.aborted
        assert_equivalent(got, want)

    def test_paired_early_stop_aborts_at_the_same_pair(
        self, backend_name, build_backend, long_paired_sample
    ):
        batch = ReadChunkStream.of(long_paired_sample.mate1, long_paired_sample.mate2)
        want = build_backend("serial").align(batch, monitor=make_strict_monitor())
        got = build_backend(backend_name).align(batch, monitor=make_strict_monitor())
        # the stop lands inside a shard on every backend, so the
        # GeneCounts prefix recount is what keeps the counts identical
        assert want.aborted
        assert 0 < len(want.outcomes) < len(long_paired_sample.mate1)
        assert_equivalent(got, want)
        assert got.progress[-1].reads_processed == len(want.outcomes)


class TestFaasChaosEquivalence:
    """Transient FaaS faults are retried to a byte-identical result."""

    def test_crashes_and_throttles_are_absorbed(
        self, build_backend, bulk_sample
    ):
        want = build_backend("serial").align(ReadChunkStream.of(bulk_sample.records))
        faas = build_backend("faas")
        faas.function.fail_next(2)
        faas.function.throttle_next(1)
        got = faas.align(ReadChunkStream.of(bulk_sample.records))
        assert faas.crash_retries == 2
        assert faas.throttle_retries == 1
        assert_equivalent(got, want)

    def test_payload_splits_are_invisible(self, build_backend, bulk_sample):
        want = build_backend("serial").align(ReadChunkStream.of(bulk_sample.records))
        service = FaasService(
            limits=FaasLimits(max_response_bytes=96 * 20)
        )
        faas = build_backend("faas", service=service)
        got = faas.align(ReadChunkStream.of(bulk_sample.records))
        assert faas.payload_reshards > 0
        assert_equivalent(got, want)

    def test_cap_splits_are_invisible(self, build_backend, bulk_sample):
        want = build_backend("serial").align(ReadChunkStream.of(bulk_sample.records))
        service = FaasService(
            limits=FaasLimits(max_execution_seconds=0.005)
        )
        faas = build_backend("faas", service=service, seconds_per_read=1e-3)
        got = faas.align(ReadChunkStream.of(bulk_sample.records))
        assert faas.cap_reshards > 0
        assert_equivalent(got, want)


class TestFaasPayloadSizes:
    """A function's request and response sizes are measured, not estimated."""

    @pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
    def test_invoke_and_complete_see_the_measured_sizes(
        self, build_backend, bulk_sample, paired_sample, paired
    ):
        mates = (
            [paired_sample.mate1, paired_sample.mate2]
            if paired
            else [bulk_sample.records]
        )
        want = build_backend("serial").align(ReadChunkStream.of(*mates))
        faas = build_backend("faas", batch_size=48)
        seen = []
        invoke, complete = faas.function.invoke, faas.function.complete

        def sized_invoke(request_bytes, **kwargs):
            seen.append(("request", request_bytes))
            return invoke(request_bytes, **kwargs)

        def sized_complete(invocation, duration, response_bytes, **kwargs):
            seen.append(("response", response_bytes))
            return complete(invocation, duration, response_bytes, **kwargs)

        faas.function.invoke = sized_invoke
        faas.function.complete = sized_complete
        assert_equivalent(faas.align(ReadChunkStream.of(*mates)), want)

        packed = [ReadBatch.of(reads) for reads in mates]
        expected = []
        for start, end in _shard_bounds(len(packed[0]), 48):
            request = sum(reads[start:end].nbytes for reads in packed)
            encoded = json.dumps(
                encode_outcomes(want.outcomes[start:end]), separators=(",", ":")
            )
            expected += [("request", request), ("response", len(encoded))]
        assert seen == expected


class TestPropertyEquivalence:
    """Random reads — N runs included — align identically on every backend."""

    @given(
        data=st.lists(
            st.tuples(
                st.text(alphabet="ACGTN", min_size=20, max_size=64),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_serial_vs_faas(self, aligner_r111, data):
        records = []
        for i, (seq, n_run) in enumerate(data):
            # splice a homopolymer-N run into the read: the degenerate
            # base path must behave identically under sharding
            seq = seq[: len(seq) // 2] + "N" * n_run + seq[len(seq) // 2 :]
            codes = encode(seq)
            records.append(
                FastqRecord(
                    read_id=f"prop-{i}",
                    sequence=codes,
                    qualities=np.full(codes.size, 30, dtype=np.uint8),
                )
            )
        want = SerialAlignerBackend(aligner_r111).align(ReadChunkStream.of(records))
        got = FaasAlignerBackend(aligner_r111, batch_size=7).align(
            ReadChunkStream.of(records)
        )
        assert_equivalent(got, want)


class TestResumeInterchange:
    """A journal written under one backend resumes under another."""

    @pytest.mark.parametrize(
        ("first", "second"), [("serial", "faas"), ("faas", "serial")]
    )
    def test_backends_resume_each_other(self, tmp_path, first, second):
        from repro.core.pipeline import (
            BatchOptions,
            PipelineConfig,
            TranscriptomicsAtlasPipeline,
        )
        from repro.experiments.chaos import build_demo_inputs

        aligner, repo, accessions = build_demo_inputs(
            3, n_reads=120, cache_dir=tmp_path / "cache"
        )

        def batch(backend, journal, accs, resume=False):
            pipeline = TranscriptomicsAtlasPipeline(
                repo, aligner, tmp_path / f"w-{backend}-{resume}",
                config=PipelineConfig(),
            )
            return pipeline.run_batch(
                list(accs),
                BatchOptions(
                    backend=backend, journal=journal, resume=resume
                ),
            )

        reference = batch("serial", tmp_path / "ref.journal", accessions)

        journal = tmp_path / "interchange.journal"
        partial = batch(first, journal, accessions[:2])
        resumed = batch(second, journal, accessions, resume=True)

        assert [r.accession for r in resumed] == list(accessions)
        # the first two results replay from the journal, the third ran
        # under the second backend — all match the serial reference
        assert [r.resumed for r in resumed] == [True, True, False]
        for got, want in zip(resumed, reference):
            assert got.status == want.status
            assert got.counts == want.counts
        assert [r.counts for r in partial] == [
            r.counts for r in reference[:2]
        ]
