"""GeneCounts (ReadsPerGene.out.tab) tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.counts import GeneCounts, read_counts_tab
from repro.genome.annotation import Annotation, Exon, Gene, Strand, Transcript
from repro.genome.model import SequenceRegion
from tests.genome.test_annotation import (
    brute_force_overlaps,
    random_genes,
    random_regions,
)


@pytest.fixture
def annotation():
    def gene(gid, start, end, strand):
        t = Transcript(
            f"T{gid}", gid, "1", strand, [Exon(SequenceRegion("1", start, end), 1)]
        )
        return Gene(gid, gid, "1", strand, [t])

    return Annotation(
        [
            gene("G1", 0, 100, Strand.FORWARD),
            gene("G2", 200, 300, Strand.REVERSE),
            gene("G3", 280, 400, Strand.FORWARD),  # overlaps G2
        ]
    )


class TestAccumulation:
    def test_unique_assignment(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 90)], Strand.FORWARD)
        assert gc.counts["G1"]["unstranded"] == 1
        assert gc.counts["G1"]["forward"] == 1  # read strand == gene strand
        assert gc.counts["G1"]["reverse"] == 0
        assert gc.n_no_feature["reverse"] == 1

    def test_reverse_strand_convention(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 210, 260)], Strand.FORWARD)
        # G2 is a reverse-strand gene; a forward read counts in the
        # "reverse" (dUTP) column, not "forward"
        assert gc.counts["G2"]["unstranded"] == 1
        assert gc.counts["G2"]["forward"] == 0
        assert gc.counts["G2"]["reverse"] == 1

    def test_ambiguous_overlap(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 285, 295)], Strand.FORWARD)
        assert gc.n_ambiguous["unstranded"] == 1
        assert gc.counts["G2"]["unstranded"] == 0
        assert gc.counts["G3"]["unstranded"] == 0
        # stranded columns disambiguate: only G3 is forward
        assert gc.counts["G3"]["forward"] == 1
        assert gc.counts["G2"]["reverse"] == 1

    def test_no_feature(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 150, 160)], Strand.FORWARD)
        assert gc.n_no_feature["unstranded"] == 1

    def test_spliced_blocks_union(self, annotation):
        """Two blocks in the same gene count once, not twice."""
        gc = GeneCounts(annotation)
        gc.record_unique(
            [SequenceRegion("1", 10, 20), SequenceRegion("1", 60, 70)],
            Strand.FORWARD,
        )
        assert gc.counts["G1"]["unstranded"] == 1

    def test_unmapped_and_multi(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unmapped()
        gc.record_multimapped()
        gc.record_multimapped()
        assert gc.n_unmapped == 1
        assert gc.n_multimapping == 2


class TestOutput:
    def test_tab_roundtrip(self, annotation, tmp_path):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 20)], Strand.FORWARD)
        gc.record_unmapped()
        path = tmp_path / "ReadsPerGene.out.tab"
        gc.write_tab(path)
        specials, genes = read_counts_tab(path)
        assert specials["N_unmapped"] == 1
        assert genes["G1"] == [1, 1, 0]
        assert set(genes) == {"G1", "G2", "G3"}

    def test_special_rows_first(self, annotation):
        gc = GeneCounts(annotation)
        lines = gc.to_tab().splitlines()
        assert [line.split("\t")[0] for line in lines[:4]] == [
            "N_unmapped",
            "N_multimapping",
            "N_noFeature",
            "N_ambiguous",
        ]

    def test_column_vector_and_total(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 20)], Strand.FORWARD)
        gc.record_unique([SequenceRegion("1", 210, 220)], Strand.REVERSE)
        vec = gc.column_vector("unstranded")
        assert vec == {"G1": 1, "G2": 1, "G3": 0}
        assert gc.total_assigned() == 2

    def test_malformed_tab_rejected(self, tmp_path):
        path = tmp_path / "bad.tab"
        path.write_text("G1\t1\t2\n")
        with pytest.raises(ValueError):
            read_counts_tab(path)


# -- GeneCounts against a brute-force counter --------------------------------

read_events = st.one_of(
    st.just(("unmapped",)),
    st.just(("multimapped",)),
    st.tuples(
        st.just("unique"),
        st.lists(random_regions(), min_size=1, max_size=3),
        st.sampled_from(list(Strand)),
    ),
)


def brute_force_tab(genes, events) -> str:
    """ReadsPerGene.out.tab by scanning every gene for every block."""
    special = {
        name: [0, 0, 0]
        for name in ("N_unmapped", "N_multimapping", "N_noFeature", "N_ambiguous")
    }
    counts = {g.gene_id: [0, 0, 0] for g in genes}
    for event in events:
        if event[0] == "unmapped":
            special["N_unmapped"] = [n + 1 for n in special["N_unmapped"]]
            continue
        if event[0] == "multimapped":
            special["N_multimapping"] = [n + 1 for n in special["N_multimapping"]]
            continue
        _, blocks, strand = event
        hits = {g.gene_id: g for b in blocks for g in brute_force_overlaps(genes, b)}
        columns = (
            list(hits.values()),
            [g for g in hits.values() if g.strand is strand],
            [g for g in hits.values() if g.strand is not strand],
        )
        for column, chosen in enumerate(columns):
            if not chosen:
                special["N_noFeature"][column] += 1
            elif len(chosen) > 1:
                special["N_ambiguous"][column] += 1
            else:
                counts[chosen[0].gene_id][column] += 1
    rows = [*special.items(), *counts.items()]
    return "".join("\t".join([name, *map(str, values)]) + "\n" for name, values in rows)


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(random_genes(), st.lists(read_events, max_size=30))
    def test_to_tab_matches(self, genes, events):
        gc = GeneCounts(Annotation(genes))
        for event in events:
            if event[0] == "unmapped":
                gc.record_unmapped()
            elif event[0] == "multimapped":
                gc.record_multimapped()
            else:
                gc.record_unique(event[1], event[2])
        assert gc.to_tab() == brute_force_tab(genes, events)
