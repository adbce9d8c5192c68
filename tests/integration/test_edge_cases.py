"""Edge-case and failure-injection tests across layers."""

import numpy as np
import pytest

from repro.align.index import genome_generate
from repro.align.star import AlignmentStatus, StarAligner, StarParameters
from repro.genome.alphabet import encode
from repro.genome.model import Assembly, Contig
from repro.reads.fastq import FastqRecord


def rec(seq, rid="r"):
    codes = encode(seq) if isinstance(seq, str) else seq
    return FastqRecord(rid, codes, np.full(len(codes), 30, dtype=np.uint8))


class TestDegenerateGenomes:
    def test_empty_run(self, aligner_r111):
        result = aligner_r111.run([])
        assert result.final.reads_processed == 0
        assert result.mapped_fraction == 0.0
        assert not result.aborted
        assert len(result.progress) == 1  # closing snapshot

    def test_single_read_run(self, index_r111, aligner_r111):
        read = rec(index_r111.genome[100:180].copy())
        result = aligner_r111.run([read])
        assert result.final.reads_processed == 1
        assert result.final.mapped_unique == 1

    def test_tiny_genome(self):
        asm = Assembly("tiny", [Contig("1", encode("ACGTACGTACGT"))])
        index = genome_generate(asm)
        aligner = StarAligner(index, StarParameters(progress_every=10))
        outcome = aligner.align_read(rec("ACGTACGTACGT"))
        # the read IS the genome (self-overlapping repeats make it multi
        # or unique depending on scoring; it must at least map)
        assert outcome.status.is_mapped

    def test_n_heavy_genome(self):
        """Assembly gaps (N runs) must not crash indexing or alignment."""
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 4, size=2000).astype(np.uint8)
        seq[500:600] = 4  # N gap
        asm = Assembly("gapped", [Contig("1", seq)])
        index = genome_generate(asm)
        aligner = StarAligner(index, StarParameters(progress_every=10))
        # read from the clean region maps
        ok = aligner.align_read(rec(seq[100:180].copy()))
        assert ok.status is AlignmentStatus.UNIQUE
        # read straight from the N gap cannot map uniquely to it
        gap_read = aligner.align_read(rec("N" * 80))
        assert gap_read.status is AlignmentStatus.UNMAPPED

    def test_read_longer_than_contig(self):
        asm = Assembly("short", [Contig("1", encode("ACGTACGT" * 3))])
        index = genome_generate(asm)
        aligner = StarAligner(index)
        outcome = aligner.align_read(rec("ACGTACGT" * 10))
        assert outcome.status is AlignmentStatus.UNMAPPED

    def test_homopolymer_read_too_many_loci(self):
        """A read matching everywhere must hit the multimap cap."""
        asm = Assembly("poly", [Contig("1", encode("A" * 500))])
        index = genome_generate(asm)
        aligner = StarAligner(index, StarParameters(multimap_nmax=10))
        outcome = aligner.align_read(rec("A" * 50))
        assert outcome.status is AlignmentStatus.TOO_MANY_LOCI
        assert not outcome.status.is_mapped


class TestAbortEdgeCases:
    def test_monitor_abort_on_first_snapshot(self, aligner_r111, bulk_sample):
        result = aligner_r111.run(bulk_sample.records, monitor=lambda r: False)
        assert result.aborted
        assert result.final.reads_processed <= 50  # first progress tick

    def test_abort_at_final_snapshot(self, aligner_r111, bulk_sample):
        """A monitor that rejects only the closing snapshot still aborts."""
        total = len(bulk_sample.records)
        result = aligner_r111.run(
            bulk_sample.records,
            monitor=lambda r: r.reads_processed < total,
        )
        assert result.aborted
        assert result.final.reads_processed == total


class TestCloudEdgeCases:
    def test_zero_capacity_asg_never_starts(self):
        from repro.cloud.autoscaling import AutoScalingGroup, ScalingPolicy
        from repro.cloud.agent import WorkerAgent
        from repro.cloud.ec2 import Ec2Service, instance_type
        from repro.cloud.events import Simulation
        from repro.cloud.sqs import SqsQueue

        sim = Simulation()
        ec2 = Ec2Service(sim)
        queue = SqsQueue(sim)
        # no messages: policy with min 0 keeps the fleet empty and exits
        asg = AutoScalingGroup(
            sim, ec2, queue,
            itype=instance_type("r6a.large"),
            policy=ScalingPolicy(min_size=0, max_size=4),
            make_agent=lambda a, i: WorkerAgent(
                sim, i, queue,
                init_work=lambda ag: iter(()),
                process_message=lambda ag, m: iter(()),
            ),
        )
        sim.process(asg.controller())
        sim.run()
        assert not ec2.instances
        assert sim.now < 120

    def test_message_with_unprocessable_body_dead_letters(self):
        """A poison message cycles through visibility until the DLQ takes it."""
        from repro.cloud.events import Simulation
        from repro.cloud.sqs import SqsQueue

        sim = Simulation()
        dlq = SqsQueue(sim, name="dlq")
        queue = SqsQueue(
            sim, visibility_timeout=10, max_receive_count=3, dead_letter=dlq
        )
        queue.send("poison")
        for _ in range(3):
            msg = queue.receive()
            assert msg is not None  # consumer crashes; never deletes
            sim.run(until=sim.now + 11)
        assert queue.receive() is None
        assert dlq.approximate_depth == 1

    def test_atlas_single_job(self):
        from repro.core.atlas import AtlasConfig, run_atlas
        from repro.experiments.corpus import CorpusSpec, generate_corpus

        jobs = generate_corpus(CorpusSpec(n_runs=1), rng=0)
        report = run_atlas(jobs, AtlasConfig(instance_name="r6a.2xlarge", seed=0))
        assert report.n_jobs == 1
        assert report.peak_fleet >= 1


class TestQuantEdgeCases:
    def test_single_gene_matrix(self):
        from repro.quant.deseq2 import estimate_size_factors
        from repro.quant.matrix import CountMatrix

        m = CountMatrix(["g"], ["a", "b"], np.array([[10, 30]]))
        factors = estimate_size_factors(m)
        assert factors[1] / factors[0] == pytest.approx(3.0)

    def test_identical_samples_de_finds_nothing(self):
        from repro.quant.diffexp import wald_test
        from repro.quant.matrix import CountMatrix

        counts = np.tile(np.arange(1, 101)[:, None], (1, 6))
        m = CountMatrix(
            [f"g{i}" for i in range(100)], [f"s{j}" for j in range(6)], counts
        )
        result = wald_test(m, ["a", "a", "a", "b", "b", "b"])
        assert len(result.significant()) == 0
