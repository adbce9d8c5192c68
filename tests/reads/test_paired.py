"""Paired-end simulator and archive tests."""

import pytest

from repro.genome.alphabet import decode, reverse_complement
from repro.reads.fastq import read_fastq
from repro.reads.library import LibraryType
from repro.reads.paired import (
    PairedProfile,
    PairedSraArchive,
    fasterq_dump_paired,
    simulate_paired,
)


@pytest.fixture(scope="module")
def sample(simulator):
    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA, n_pairs=80, read_length=60,
            insert_mean=200, insert_sd=25, error_rate=0.0,
        ),
        rng=4,
    )


class TestProfile:
    def test_insert_must_cover_read(self):
        with pytest.raises(ValueError):
            PairedProfile(LibraryType.BULK_POLYA, n_pairs=10, read_length=100,
                          insert_mean=50)

    def test_single_end_view(self):
        p = PairedProfile(LibraryType.BULK_POLYA, n_pairs=10, read_length=100,
                          insert_mean=300)
        se = p.single_end_view()
        assert se.n_reads == 10 and se.read_length == 100


class TestSimulatePaired:
    def test_counts_and_lengths(self, sample):
        assert sample.n_pairs == 80
        assert all(r.length == 60 for r in sample.mate1)
        assert all(r.length == 60 for r in sample.mate2)

    def test_mate_ids_suffixed(self, sample):
        assert sample.mate1[0].read_id.endswith("/1")
        assert sample.mate2[0].read_id.endswith("/2")
        assert sample.mate1[0].read_id[:-2] == sample.mate2[0].read_id[:-2]

    def test_fragment_geometry_truth(self, sample, simulator):
        """Error-free mates must match the fragment ends exactly."""
        transcripts = {t.gene_id: i for i, t in enumerate(simulator._transcripts)}
        checked = 0
        for r1, r2, gene, frag in zip(
            sample.mate1, sample.mate2, sample.true_gene, sample.true_fragment
        ):
            if gene is None:
                continue
            tseq = simulator._transcript_seqs[transcripts[gene]]
            start, end = frag
            if end - start < 60:
                continue
            assert decode(tseq[start : start + 60]) == r1.sequence_str
            assert decode(reverse_complement(tseq[end - 60 : end])) == r2.sequence_str
            checked += 1
        assert checked > 40

    def test_offtarget_fraction_tracks_library(self, simulator):
        sc = simulate_paired(
            simulator,
            PairedProfile(LibraryType.SINGLE_CELL_3P, n_pairs=200, read_length=60,
                          insert_mean=200),
            rng=5,
        )
        assert sc.on_target_fraction < 0.25

    def test_deterministic(self, simulator):
        p = PairedProfile(LibraryType.BULK_POLYA, n_pairs=20, read_length=60,
                          insert_mean=200)
        a = simulate_paired(simulator, p, rng=6)
        b = simulate_paired(simulator, p, rng=6)
        assert [r.sequence_str for r in a.mate1] == [r.sequence_str for r in b.mate1]
        assert a.true_fragment == b.true_fragment


class TestPairedArchive:
    def test_roundtrip(self, sample):
        archive = PairedSraArchive(
            "SRRP001", LibraryType.BULK_POLYA, sample.mate1, sample.mate2
        )
        back = PairedSraArchive.from_bytes(archive.to_bytes())
        assert back.n_pairs == 80
        assert back.mate1[3].sequence_str == sample.mate1[3].sequence_str
        assert back.mate2[3].sequence_str == sample.mate2[3].sequence_str

    def test_magic_distinct_from_single_end(self, sample):
        from repro.reads.sra import SraArchive

        archive = PairedSraArchive(
            "SRRP001", LibraryType.BULK_POLYA, sample.mate1, sample.mate2
        )
        with pytest.raises(ValueError, match="magic"):
            SraArchive.from_bytes(archive.to_bytes())

    def test_unequal_mates_rejected(self, sample):
        with pytest.raises(ValueError):
            PairedSraArchive(
                "X", LibraryType.BULK_POLYA, sample.mate1, sample.mate2[:-1]
            )

    def test_fasterq_dump_split_files(self, sample, tmp_path):
        archive = PairedSraArchive(
            "SRRP002", LibraryType.BULK_POLYA, sample.mate1, sample.mate2
        )
        sra = tmp_path / "SRRP002.sra"
        sra.write_bytes(archive.to_bytes())
        (p1, p2), _ = fasterq_dump_paired(sra, tmp_path / "fq")
        assert p1.name == "SRRP002_1.fastq"
        assert p2.name == "SRRP002_2.fastq"
        back1 = read_fastq(p1)
        back2 = read_fastq(p2)
        assert len(back1) == len(back2) == 80
        assert back1[0].sequence_str == sample.mate1[0].sequence_str
