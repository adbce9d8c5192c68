"""Splice stitching tests on a hand-built two-exon gene."""

import numpy as np
import pytest

from repro.align.extend import ScoringParams
from repro.align.index import genome_generate
from repro.align.splice import is_canonical_motif, stitch_spliced
from repro.genome.alphabet import decode, random_sequence
from repro.genome.annotation import Annotation, Exon, Gene, Strand, Transcript
from repro.genome.model import Assembly, Contig, SequenceRegion


@pytest.fixture(scope="module")
def spliced_setup():
    """Chromosome with exon1 [50,90), GT-intron, exon2 [140,180)."""
    rng = np.random.default_rng(123)
    seq = random_sequence(260, rng, gc=0.5)
    # make the two exons distinctive and the intron canonical
    seq[90] = 2  # G
    seq[91] = 3  # T
    seq[138] = 0  # A
    seq[139] = 2  # G
    asm = Assembly("sp", [Contig("1", seq)])
    exons = [
        Exon(SequenceRegion("1", 50, 90), 1),
        Exon(SequenceRegion("1", 140, 180), 2),
    ]
    t = Transcript("T1", "G1", "1", Strand.FORWARD, exons)
    ann = Annotation([Gene("G1", "G1", "1", Strand.FORWARD, [t])])
    index = genome_generate(asm, ann)
    # a read spanning the junction: last 20 of exon1 + first 20 of exon2
    read = np.concatenate([seq[70:90], seq[140:160]])
    return index, read, seq


class TestCanonicalMotif:
    def test_planted_motif_detected(self, spliced_setup):
        index, _, _ = spliced_setup
        assert is_canonical_motif(index, 90, 140)

    def test_non_motif_rejected(self, spliced_setup):
        index, _, seq = spliced_setup
        # shift by one: donor starts at 91 = 'T?' — not GT..AG in general
        assert not is_canonical_motif(index, 91, 140) or decode(seq[91:93]) == "GT"

    def test_bounds_handled(self, spliced_setup):
        index, _, _ = spliced_setup
        assert not is_canonical_motif(index, 259, 260)


class TestStitch:
    def test_junction_read_stitched(self, spliced_setup):
        index, read, _ = spliced_setup
        result = stitch_spliced(
            index, read, 20, 70, scoring=ScoringParams(), min_intron=21
        )
        assert result is not None
        assert result.intron_start == 90
        assert result.intron_end == 140
        assert result.canonical
        assert result.annotated
        assert result.mismatches == 0
        assert result.aligned_length == 40

    def test_segments_cover_read(self, spliced_setup):
        index, read, _ = spliced_setup
        result = stitch_spliced(index, read, 20, 70, scoring=ScoringParams())
        seg1, seg2 = result.segments
        assert seg1.read_start == 0 and seg1.length == 20
        assert seg2.read_start == 20 and seg2.length == 20
        assert seg1.genome_start == 70
        assert seg2.genome_start == 140

    def test_intron_bounds_enforced(self, spliced_setup):
        index, read, _ = spliced_setup
        assert (
            stitch_spliced(
                index, read, 20, 70, scoring=ScoringParams(), min_intron=60
            )
            is None
        )
        assert (
            stitch_spliced(
                index, read, 20, 70, scoring=ScoringParams(), max_intron=40
            )
            is None
        )

    def test_no_remainder_returns_none(self, spliced_setup):
        index, read, _ = spliced_setup
        assert (
            stitch_spliced(index, read, read.size, 70, scoring=ScoringParams())
            is None
        )

    def test_zero_prefix_returns_none(self, spliced_setup):
        index, read, _ = spliced_setup
        assert stitch_spliced(index, read, 0, 70, scoring=ScoringParams()) is None

    def test_sjdb_rescues_noncanonical(self):
        """An annotated junction without GT..AG must still stitch."""
        rng = np.random.default_rng(9)
        seq = random_sequence(260, rng, gc=0.5)
        # force NON-canonical intron ends
        seq[90] = 0  # A (not G)
        seq[138] = 3  # T (not A)
        asm = Assembly("nc", [Contig("1", seq)])
        exons = [
            Exon(SequenceRegion("1", 50, 90), 1),
            Exon(SequenceRegion("1", 140, 180), 2),
        ]
        t = Transcript("T1", "G1", "1", Strand.FORWARD, exons)
        ann = Annotation([Gene("G1", "G1", "1", Strand.FORWARD, [t])])
        with_sjdb = genome_generate(asm, ann)
        without_sjdb = genome_generate(asm, None)
        read = np.concatenate([seq[70:90], seq[140:160]])

        ok = stitch_spliced(with_sjdb, read, 20, 70, scoring=ScoringParams())
        assert ok is not None and ok.annotated and not ok.canonical
        rejected = stitch_spliced(without_sjdb, read, 20, 70, scoring=ScoringParams())
        assert rejected is None
