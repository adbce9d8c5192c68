"""Batch alignment core: bit-identity against the per-read oracle.

The contract of :mod:`repro.align.batch` is byte-for-byte equivalence
with the serial path — every test here compares ``align_read_batch``
against a list comprehension over :meth:`StarAligner.align_read` (the
reference oracle) on adversarial inputs: random genomes, N runs, reads
crossing contig boundaries, reads shorter than the jump-table k-mer,
paired mates, and early-stopped runs.  Each batch goes in both as a list
of records and as one packed :class:`~repro.reads.fastq.ReadBatch`, the
form engine workers and FaaS functions receive.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.align.batch import PackedReadBatch, align_read_batch
from repro.align.counts import GeneCounts
from repro.align.index import GenomeIndex
from repro.align.outcome import (
    AlignmentStatus,
    OutcomeBatch,
    PairedOutcomeBatch,
    PairStatus,
    decode_outcomes,
    encode_outcomes,
)
from repro.align.paired import PairedParameters, PairedStarAligner, PairedTally
from repro.align.star import SingleEndTally, StarAligner, StarParameters
from repro.align.suffix_array import build_suffix_array
from repro.genome.alphabet import BASE_A, BASE_G, BASE_N, BASE_T, reverse_complement
from repro.reads.fastq import FastqRecord, ReadBatch
from tests.align.repeats import repeat_cases


def as_record(seq: np.ndarray, rid: str) -> FastqRecord:
    seq = np.asarray(seq, dtype=np.uint8)
    return FastqRecord(rid, seq, np.full(seq.size, 35, dtype=np.uint8))


def oracle(aligner: StarAligner, records: list[FastqRecord]):
    return [aligner.align_read(r) for r in records]


def assert_batch_matches(aligner: StarAligner, records: list[FastqRecord]):
    expected = oracle(aligner, records)
    assert align_read_batch(aligner, records) == expected
    assert align_read_batch(aligner, ReadBatch.of(records)) == expected


def random_index(rng: np.random.Generator, *, n_contigs=3, contig_len=400,
                 n_runs=0) -> GenomeIndex:
    """A small multi-contig genome with optional embedded N runs."""
    genome = rng.integers(0, 4, n_contigs * contig_len).astype(np.uint8)
    for _ in range(n_runs):
        start = int(rng.integers(0, genome.size - 10))
        genome[start : start + int(rng.integers(1, 10))] = BASE_N
    offsets = np.arange(0, (n_contigs + 1) * contig_len, contig_len, dtype=np.int64)
    return GenomeIndex(
        assembly_name="rand",
        genome=genome,
        suffix_array=build_suffix_array(genome),
        offsets=offsets,
        names=[f"c{i}" for i in range(n_contigs)],
    )


def sample_reads(
    rng: np.random.Generator, index: GenomeIndex, *, n_reads=60, read_length=50
) -> list[FastqRecord]:
    """Genomic slices with mutations/Ns, RC reads, and pure-noise reads."""
    records = []
    gn = index.genome.size
    for i in range(n_reads):
        kind = i % 6
        if kind == 5:
            seq = rng.integers(0, 4, read_length).astype(np.uint8)
        else:
            start = int(rng.integers(0, gn - read_length))
            seq = index.genome[start : start + read_length].copy()
            if kind == 1:  # scattered substitutions
                for _ in range(int(rng.integers(1, 4))):
                    j = int(rng.integers(0, read_length))
                    seq[j] = (seq[j] + 1) % 4
            elif kind == 2:  # early error triggers the bridge re-seed
                seq[int(rng.integers(0, 4))] = (seq[0] + 1) % 4
            elif kind == 3:  # read-side N run
                j = int(rng.integers(0, read_length - 3))
                seq[j : j + 3] = BASE_N
            elif kind == 4:
                seq = reverse_complement(seq)
        records.append(as_record(seq, f"r{i}"))
    return records


class TestRandomGenomes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_genome_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        index = random_index(rng)
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, sample_reads(rng, index))

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_genome_with_n_runs(self, seed):
        """Genome-side N runs: seeds stop at N, extension counts them."""
        rng = np.random.default_rng(seed)
        index = random_index(rng, n_runs=8)
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, sample_reads(rng, index))

    def test_contig_boundary_reads(self):
        """Reads straddling contig joins must fail extension identically."""
        rng = np.random.default_rng(99)
        index = random_index(rng, n_contigs=4, contig_len=300)
        records = []
        for i, boundary in enumerate((300, 600, 900)):
            for shift in (-40, -25, -10, -1):
                seq = index.genome[boundary + shift : boundary + shift + 50].copy()
                records.append(as_record(seq, f"b{i}_{shift}"))
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, records)

    def test_reads_shorter_than_jump_length(self):
        """Short reads can't use the k-mer table; the fallback walk must
        agree lane-for-lane with the serial search."""
        rng = np.random.default_rng(5)
        index = random_index(rng)
        jump_len = index.search_context.jump_length
        assert jump_len > 1  # the premise: shorter reads exist
        records = []
        for i in range(20):
            length = int(rng.integers(1, jump_len))
            start = int(rng.integers(0, index.genome.size - length))
            records.append(as_record(index.genome[start : start + length], f"s{i}"))
        records.append(as_record(np.zeros(0, dtype=np.uint8), "empty"))
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, records)


def one_contig_index(genome: np.ndarray) -> GenomeIndex:
    genome = np.asarray(genome, dtype=np.uint8)
    return GenomeIndex(
        assembly_name="edges",
        genome=genome,
        suffix_array=build_suffix_array(genome),
        offsets=np.array([0, genome.size], dtype=np.int64),
        names=["c0"],
    )


def plant_intron(genome: np.ndarray, donor: int, acceptor: int) -> None:
    """GT..AG, and an acceptor base unlike the donor's G, so a spliced
    read's prefix seed ends at the junction."""
    genome[donor : donor + 2] = (BASE_G, BASE_T)
    genome[acceptor - 2 : acceptor + 1] = (BASE_A, BASE_G, BASE_A)


def spliced(genome: np.ndarray, donor: int, acceptor: int, first: int, length: int):
    """A read whose first ``first`` bases end at the donor and whose rest
    starts at the acceptor."""
    return np.concatenate(
        [genome[donor - first : donor], genome[acceptor : acceptor + length - first]]
    )


def both_orientations(seqs: list[np.ndarray], tag: str) -> list[FastqRecord]:
    return [
        as_record(seq, f"{tag}{i}{side}")
        for i, read in enumerate(seqs)
        for side, seq in (("f", read), ("r", reverse_complement(read)))
    ]


def seed_calls(monkeypatch) -> list[int]:
    """Record the query count of every batch MMP call."""
    import repro.align.batch as batch

    calls, search = [], batch.batch_mmp

    def counting(ctx, bases, qoff, qlen):
        calls.append(len(qoff))
        return search(ctx, bases, qoff, qlen)

    monkeypatch.setattr(batch, "batch_mmp", counting)
    return calls


class TestKernelEdges:
    """Inputs at the edges of the core's array kernels: where a read-side
    N sits in a seed, which segments the packed pool holds, which
    segments enter the stitch set."""

    LENGTH, FIRST = 60, 30  # read length, first block of a spliced read

    @pytest.mark.parametrize(
        "edge", ["seed_first", "seed_last", "remainder_first", "remainder_last"]
    )
    def test_n_at_the_edge_of_a_seed(self, edge):
        """An N the seed walk matched against a genome N is a mismatch to
        extension, so a seed or remainder seed that starts or ends on one
        is not a verified prefix."""
        rng = np.random.default_rng(41)
        genome = rng.integers(0, 4, 4000).astype(np.uint8)
        length, first = self.LENGTH, self.FIRST
        reads = []
        for k in range(6):
            at = 200 + 600 * k
            if edge == "seed_first":
                genome[at] = BASE_N
                reads.append(genome[at : at + length].copy())
            elif edge == "seed_last":
                cut = 10 + 7 * k  # the seed ends on the N at cut - 1
                genome[at + cut - 1] = BASE_N
                read = genome[at : at + length].copy()
                read[cut] = (read[cut] + 1) % 4
                reads.append(read)
            else:
                donor, acceptor = at + first, at + first + 100
                plant_intron(genome, donor, acceptor)
                rest = length - first
                n_at = acceptor if edge == "remainder_first" else acceptor + rest - 1
                genome[n_at] = BASE_N
                reads.append(spliced(genome, donor, acceptor, first, length))
        aligner = StarAligner(one_contig_index(genome), StarParameters())
        records = both_orientations(reads, edge)
        expected = oracle(aligner, records)
        # every read places, and the N counts as a mismatch
        assert all(o.status is AlignmentStatus.UNIQUE for o in expected)
        assert all(o.mismatches >= 1 for o in expected)
        assert align_read_batch(aligner, ReadBatch.of(records)) == expected

    def test_all_n_reads(self):
        """An all-N read seeds through a genome N run as long as itself
        (and past it, up to the run's end), and no further anywhere else."""
        rng = np.random.default_rng(42)
        genome = rng.integers(0, 4, 3000).astype(np.uint8)
        genome[1000:1080] = BASE_N
        aligner = StarAligner(one_contig_index(genome), StarParameters())
        records = [
            as_record(np.full(n, BASE_N, dtype=np.uint8), f"n{n}")
            for n in (1, 9, 10, 11, 50, 80, 100)
        ]
        records += sample_reads(rng, aligner.index, n_reads=12)
        assert_batch_matches(aligner, records)

    def test_zero_length_and_different_length_reads(self):
        rng = np.random.default_rng(43)
        index = random_index(rng, n_contigs=2, contig_len=600)
        lengths = [0, 50, 0, 0, 17, 100, 1, 0, 73, 12, 0, 31, 0]
        records = []
        for i, n in enumerate(lengths):
            start = int(rng.integers(0, index.genome.size - n))
            seq = index.genome[start : start + n].copy()
            if i % 3 == 1 and n:
                seq = reverse_complement(seq)
            records.append(as_record(seq, f"z{i}"))
        packed = PackedReadBatch.pack(ReadBatch.of(records))
        live = [r.sequence for r in records if r.length]
        assert packed.n_reads == len(live)
        segments = [
            packed.bases[lo : lo + n]
            for lo, n in zip(packed.offsets[:-1].tolist(), packed.lengths.tolist())
        ]
        assert [s.tolist() for s in segments] == [
            s.tolist() for s in live + [reverse_complement(s) for s in live]
        ]
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, records)

    def test_no_segment_needs_stitching(self, monkeypatch):
        """Every segment places, or seeds over its whole length: exact and
        once-substituted reads on a genome holding both strands, and all-N
        reads that seed through a genome N run and fail extension."""
        rng = np.random.default_rng(44)
        half = rng.integers(0, 4, 1500).astype(np.uint8)
        half[700:760] = BASE_N
        genome = np.concatenate([half, rng.integers(0, 4, 50), reverse_complement(half)])
        aligner = StarAligner(one_contig_index(genome), StarParameters())
        records = []
        for i in range(16):
            start = int(rng.integers(0, 600)) + (800 if i % 2 else 0)
            seq = half[start : start + 50].copy()
            if i % 4 > 1:
                seq[25] = (seq[25] + 1) % 4
            records.append(as_record(seq, f"x{i}"))
        records += [as_record(np.full(40, BASE_N, dtype=np.uint8), "n40")]
        expected = oracle(aligner, records)
        calls = seed_calls(monkeypatch)
        assert align_read_batch(aligner, ReadBatch.of(records)) == expected
        assert calls == [2 * len(records)]  # the prefix seeds, no remainder

    def test_every_segment_needs_stitching(self, monkeypatch):
        """Spliced and random reads: no segment of either orientation
        places contiguously, so every one is stitched."""
        rng = np.random.default_rng(45)
        genome = rng.integers(0, 4, 4000).astype(np.uint8)
        length, first = self.LENGTH, self.FIRST
        reads = []
        for k in range(6):
            donor = 100 + 600 * k + first
            acceptor = donor + 40 + 50 * k
            plant_intron(genome, donor, acceptor)
            reads.append(spliced(genome, donor, acceptor, first, length))
        reads += [rng.integers(0, 4, length).astype(np.uint8) for _ in range(4)]
        aligner = StarAligner(one_contig_index(genome), StarParameters())
        records = both_orientations(reads, "s")
        expected = oracle(aligner, records)
        assert sum(o.spliced for o in expected) >= 6
        calls = seed_calls(monkeypatch)
        assert align_read_batch(aligner, ReadBatch.of(records)) == expected
        assert calls[1] == 2 * len(records)  # a remainder seed per segment


class TestSimulatedSample:
    def test_bulk_sample_bit_identical(self, index_r111, bulk_sample):
        aligner = StarAligner(index_r111, StarParameters())
        assert_batch_matches(aligner, list(bulk_sample.records))

    def test_run_results_identical(self, index_r111, bulk_sample):
        """Whole-run equality: outcomes, progress counters, final stats."""
        records = list(bulk_sample.records)
        on = StarAligner(
            index_r111, StarParameters(progress_every=50, batch_align=True)
        ).run(records)
        off = StarAligner(
            index_r111, StarParameters(progress_every=50, batch_align=False)
        ).run(records)
        assert on.outcomes == off.outcomes
        assert [r.reads_processed for r in on.progress] == [
            r.reads_processed for r in off.progress
        ]
        assert on.final.mapped_unique == off.final.mapped_unique
        assert on.final.mapped_multi == off.final.mapped_multi
        assert on.final.unmapped == off.final.unmapped
        assert on.final.mismatch_rate == off.final.mismatch_rate
        assert on.gene_counts.to_partial() == off.gene_counts.to_partial()


@pytest.fixture(scope="module")
def paired_sample(simulator):
    from repro.reads.library import LibraryType
    from repro.reads.paired import PairedProfile, simulate_paired

    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA, n_pairs=120, read_length=70,
            insert_mean=250, insert_sd=30,
        ),
        rng=9,
    )


class TestPairedMates:
    def test_paired_run_bit_identical(self, index_r111, paired_sample):
        mate1, mate2 = paired_sample.mate1, paired_sample.mate2
        results = {}
        for batch in (True, False):
            aligner = StarAligner(
                index_r111, StarParameters(batch_align=batch)
            )
            paired = PairedStarAligner(aligner, PairedParameters())
            results[batch] = paired.run(mate1, mate2)
        assert results[True].outcomes == results[False].outcomes
        assert results[True].final.mapped_unique == results[False].final.mapped_unique


class TestEarlyStopMidBatch:
    def test_aborted_run_identical(self, index_r111, bulk_sample):
        """An abort between batch boundaries must truncate at the same
        read the serial loop stops at, with identical partial results."""
        records = list(bulk_sample.records)
        results = {}
        for batch in (True, False):
            aligner = StarAligner(
                index_r111,
                StarParameters(
                    progress_every=30, batch_align=batch, align_batch_size=64
                ),
            )
            # abort at the third progress record: read 90, mid-way through
            # the second 64-read batch
            seen = []

            def monitor(rec, seen=seen):
                seen.append(rec)
                return len(seen) < 3

            results[batch] = aligner.run(records, monitor=monitor)
        on, off = results[True], results[False]
        assert on.aborted and off.aborted
        assert on.outcomes == off.outcomes
        assert len(on.outcomes) == 90
        assert on.final.reads_processed == off.final.reads_processed


# -- the array rules against their per-read oracles --------------------------


def oracle_tally(records, outcomes) -> dict:
    """``Log.final.out`` counters read by read, the way the per-outcome
    tally loop counted them."""
    tally = dict.fromkeys(
        ("unique", "multi", "too_many", "unmapped", "spliced", "mismatches", "bases"),
        0,
    )
    for record, outcome in zip(records, outcomes):
        if outcome.status is AlignmentStatus.UNIQUE:
            tally["unique"] += 1
            tally["spliced"] += outcome.spliced
            tally["mismatches"] += outcome.mismatches
            tally["bases"] += record.length
        elif outcome.status is AlignmentStatus.MULTIMAPPED:
            tally["multi"] += 1
        elif outcome.status is AlignmentStatus.TOO_MANY_LOCI:
            tally["too_many"] += 1
        else:
            tally["unmapped"] += 1
    return tally


def oracle_counts(annotation, outcomes) -> GeneCounts:
    """GeneCounts read by read: unique reads through ``record_unique``."""
    counts = GeneCounts(annotation)
    for outcome in outcomes:
        if outcome.status is AlignmentStatus.UNIQUE:
            counts.record_unique(list(outcome.blocks), outcome.strand)
        elif outcome.status is AlignmentStatus.UNMAPPED:
            counts.record_unmapped()
        else:
            counts.record_multimapped()
    return counts


def oracle_pair_counts(annotation, pairs) -> GeneCounts:
    """GeneCounts pair by pair: a proper pair counts both mates' blocks
    under mate 1's strand, a one-mate pair its unique mate's blocks."""
    counts = GeneCounts(annotation)
    for pair in pairs:
        if pair.status is PairStatus.PROPER_PAIR:
            blocks = list(pair.mate1.blocks) + list(pair.mate2.blocks)
            counts.record_unique(blocks, pair.mate1.strand)
        elif pair.status is PairStatus.ONE_MATE:
            unique = (
                pair.mate1
                if pair.mate1.status is AlignmentStatus.UNIQUE
                else pair.mate2
            )
            counts.record_unique(list(unique.blocks), unique.strand)
        elif pair.status is PairStatus.UNMAPPED:
            counts.record_unmapped()
        else:
            counts.record_multimapped()
    return counts


def round_trip(batch):
    return decode_outcomes(json.loads(json.dumps(encode_outcomes(batch))))


class TestRepeatGenomes:
    """Genomes of repeated, reverse-complemented and palindromic segments
    (:mod:`tests.align.repeats`) reach what random genomes do not:
    multimappers, ``multimap_nmax`` overflow, forward/reverse ties,
    error-bridge and spliced placements, and every pair status."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(repeat_cases())
    def test_batch_core_tallies_counts_and_codec_match_the_oracles(self, case):
        aligner = StarAligner(
            case.index, StarParameters(multimap_nmax=case.multimap_nmax)
        )
        annotation = case.index.annotation
        outcomes = align_read_batch(aligner, case.reads)
        expected = [aligner.align_read(r) for r in case.reads]
        assert outcomes == expected
        assert align_read_batch(aligner, ReadBatch.of(case.reads)) == expected

        tally = SingleEndTally()
        tally.add(outcomes)
        assert oracle_tally(case.reads, expected) == {
            "unique": tally.mapped_unique,
            "multi": tally.mapped_multi,
            "too_many": tally.too_many_loci,
            "unmapped": tally.unmapped,
            "spliced": tally.spliced_reads,
            "mismatches": tally.mismatch_bases,
            "bases": tally.aligned_bases,
        }
        partial = SingleEndTally.gene_partial(annotation, outcomes)
        assert partial == oracle_counts(annotation, expected).to_partial()
        # the partial is JSON-safe: a shard checkpoint journals it
        assert json.loads(json.dumps(partial.gene_counts)) == partial.gene_counts

        assert round_trip(outcomes) == outcomes == round_trip(OutcomeBatch.of(expected))

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(repeat_cases())
    def test_pairing_tallies_counts_and_codec_match_the_oracles(self, case):
        aligner = StarAligner(
            case.index, StarParameters(multimap_nmax=case.multimap_nmax)
        )
        paired = PairedStarAligner(aligner, PairedParameters())
        annotation = case.index.annotation
        pairs = paired._pair_batch((case.mate1, case.mate2))
        expected = [
            paired.align_pair(r1, r2) for r1, r2 in zip(case.mate1, case.mate2)
        ]
        assert isinstance(pairs, PairedOutcomeBatch)
        assert pairs == expected
        packed = (ReadBatch.of(case.mate1), ReadBatch.of(case.mate2))
        assert paired._pair_batch(packed) == expected

        tally = PairedTally()
        tally.add(pairs)
        statuses = [p.status for p in expected]
        assert tally.mapped_multi == statuses.count(PairStatus.MULTIMAPPED)
        assert tally.unmapped == statuses.count(PairStatus.UNMAPPED)
        assert tally.mapped_unique + tally.mapped_multi + tally.unmapped == len(
            expected
        )
        assert tally.spliced_reads == sum(
            p.mate1.spliced or p.mate2.spliced for p in expected
        )
        partial = PairedTally.gene_partial(annotation, pairs)
        assert partial == oracle_pair_counts(annotation, expected).to_partial()

        assert round_trip(pairs) == pairs == round_trip(PairedOutcomeBatch.of(expected))
