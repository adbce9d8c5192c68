"""STAR driver tests: classification, ground-truth recovery, monitor hook."""

import numpy as np
import pytest

from repro.align.star import (
    AlignmentStatus,
    StarAligner,
    StarParameters,
)
from repro.genome.alphabet import reverse_complement
from repro.genome.annotation import Strand
from repro.reads.fastq import FastqRecord


def as_record(seq: np.ndarray, rid: str = "r") -> FastqRecord:
    return FastqRecord(rid, seq, np.full(seq.size, 35, dtype=np.uint8))


class TestSingleRead:
    def test_exact_genomic_read_unique(self, index_r111, aligner_r111):
        chrom = index_r111.genome[1000:1080].copy()
        outcome = aligner_r111.align_read(as_record(chrom))
        assert outcome.status is AlignmentStatus.UNIQUE
        assert outcome.strand is Strand.FORWARD
        assert outcome.mismatches == 0
        contig, offset = index_r111.to_contig_coords(1000)
        assert outcome.blocks[0].contig == contig
        assert outcome.blocks[0].start == offset

    def test_reverse_strand_detected(self, index_r111, aligner_r111):
        fwd = index_r111.genome[2000:2080].copy()
        outcome = aligner_r111.align_read(as_record(reverse_complement(fwd)))
        assert outcome.status is AlignmentStatus.UNIQUE
        assert outcome.strand is Strand.REVERSE
        # position is still reported in forward-genome coordinates
        contig, offset = index_r111.to_contig_coords(2000)
        assert outcome.blocks[0].start == offset

    def test_mismatched_read_still_maps(self, index_r111, aligner_r111):
        read = index_r111.genome[3000:3080].copy()
        read[40] = (read[40] + 1) % 4
        read[60] = (read[60] + 2) % 4
        outcome = aligner_r111.align_read(as_record(read))
        assert outcome.status is AlignmentStatus.UNIQUE
        assert outcome.mismatches == 2

    def test_error_at_read_start_recovered(self, index_r111, aligner_r111):
        """The error-bridge path: a mutation in base 2 truncates the MMP."""
        read = index_r111.genome[4000:4080].copy()
        read[2] = (read[2] + 1) % 4
        outcome = aligner_r111.align_read(as_record(read))
        assert outcome.status is AlignmentStatus.UNIQUE
        assert outcome.mismatches == 1

    def test_zero_length_read_unmapped(self, aligner_r111):
        # aggressive trimming can leave empty reads; they must classify
        # as UNMAPPED instead of crashing the seed search
        outcome = aligner_r111.align_read(
            as_record(np.array([], dtype=np.uint8), "empty")
        )
        assert outcome.status is AlignmentStatus.UNMAPPED
        assert outcome.read_id == "empty"

    def test_random_read_unmapped(self, aligner_r111):
        rng = np.random.default_rng(0)
        read = rng.integers(0, 4, size=80).astype(np.uint8)
        outcome = aligner_r111.align_read(as_record(read))
        assert outcome.status is AlignmentStatus.UNMAPPED
        assert outcome.blocks == ()

    def test_spliced_read_found(self, index_r111, universe, aligner_r111, assembly_r111):
        """A read spanning an annotated junction aligns as two blocks."""
        t = universe.annotation.transcripts[0]
        spliced = t.spliced_sequence(assembly_r111)
        # centre the read on the first junction: last 30 of exon1 + 30 of exon2
        exon1_len = t.exons[0].length
        if t.strand is Strand.REVERSE:
            exon1_len = t.exons[-1].length
        read = spliced[exon1_len - 30 : exon1_len + 30]
        outcome = aligner_r111.align_read(as_record(read))
        assert outcome.status is AlignmentStatus.UNIQUE
        assert outcome.spliced
        assert len(outcome.blocks) == 2

    def test_duplicated_locus_multimaps(self, index_r108, universe):
        """A read from a region copied into an r108 scaffold multimaps there."""
        aligner = StarAligner(index_r108, StarParameters(progress_every=50))
        # scaffolds duplicate chromosome windows; find one scaffold's source
        scaffold_name = next(
            n for n in index_r108.names if n.startswith(("KI", "GL"))
        )
        c = index_r108.names.index(scaffold_name)
        start = int(index_r108.offsets[c])
        length = int(index_r108.offsets[c + 1] - start)
        if length < 80:
            pytest.skip("scaffold too short for a read")
        read = index_r108.genome[start + 10 : start + 90].copy()
        outcome = aligner.align_read(as_record(read))
        # maps at the scaffold AND (unless divergence hit this window) its source
        assert outcome.status in (
            AlignmentStatus.UNIQUE,
            AlignmentStatus.MULTIMAPPED,
        )
        assert outcome.status is AlignmentStatus.MULTIMAPPED or outcome.mismatches == 0


class TestRun:
    def test_classification_totals(self, aligner_r111, bulk_sample):
        result = aligner_r111.run(bulk_sample.records)
        f = result.final
        assert (
            f.mapped_unique + f.mapped_multi + f.too_many_loci + f.unmapped
            == len(bulk_sample.records)
        )
        assert f.reads_processed == len(bulk_sample.records)
        assert not result.aborted

    def test_mapping_rate_tracks_library(self, aligner_r111, bulk_sample, sc_sample):
        bulk = aligner_r111.run(bulk_sample.records)
        sc = aligner_r111.run(sc_sample.records)
        assert bulk.mapped_fraction > 0.6
        assert sc.mapped_fraction < 0.3

    def test_truth_recovery(self, aligner_r111, bulk_sample, universe):
        """Uniquely mapped on-target reads land in their true gene."""
        result = aligner_r111.run(bulk_sample.records)
        correct = total = 0
        gene_by_id = {g.gene_id: g for g in universe.annotation}
        for outcome, true_gene in zip(result.outcomes, bulk_sample.true_gene):
            if true_gene is None or outcome.status is not AlignmentStatus.UNIQUE:
                continue
            total += 1
            gene = gene_by_id[true_gene]
            if any(
                b.contig == gene.contig and b.start < gene.end and gene.start < b.end
                for b in outcome.blocks
            ):
                correct += 1
        assert total > 50
        assert correct / total > 0.95

    def test_progress_records_emitted(self, aligner_r111, bulk_sample):
        result = aligner_r111.run(bulk_sample.records)
        assert len(result.progress) >= len(bulk_sample.records) // 50
        last = result.progress[-1]
        assert last.reads_processed == len(bulk_sample.records)
        assert last.mapped_unique == result.final.mapped_unique

    def test_monitor_abort_stops_run(self, aligner_r111, bulk_sample):
        result = aligner_r111.run(
            bulk_sample.records, monitor=lambda rec: rec.reads_processed < 100
        )
        assert result.aborted
        assert result.final.reads_processed <= 150
        assert result.final.aborted

    def test_monitor_continue_completes(self, aligner_r111, bulk_sample):
        result = aligner_r111.run(bulk_sample.records, monitor=lambda rec: True)
        assert not result.aborted

    def test_outputs_written(self, aligner_r111, bulk_sample, tmp_path):
        result = aligner_r111.run(bulk_sample.records, out_dir=tmp_path)
        assert (tmp_path / "Log.progress.out").exists()
        assert (tmp_path / "Log.final.out").exists()
        assert (tmp_path / "ReadsPerGene.out.tab").exists()
        from repro.align.progress import read_progress_log

        back = read_progress_log(tmp_path / "Log.progress.out")
        assert [r.reads_processed for r in back] == [
            r.reads_processed for r in result.progress
        ]

    def test_deterministic_given_clock(self, aligner_r111, bulk_sample):
        clock = lambda: 0.0  # noqa: E731
        r1 = aligner_r111.run(bulk_sample.records, clock=clock)
        r2 = aligner_r111.run(bulk_sample.records, clock=clock)
        assert [o.status for o in r1.outcomes] == [o.status for o in r2.outcomes]
        assert r1.final == r2.final


class TestParameters:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            StarParameters(multimap_nmax=0)
        with pytest.raises(ValueError):
            StarParameters(progress_every=0)

    def test_quant_mode_off(self, index_r111, bulk_sample):
        aligner = StarAligner(
            index_r111, StarParameters(progress_every=100, quant_gene_counts=False)
        )
        result = aligner.run(bulk_sample.records[:50])
        assert result.gene_counts is None
