"""Hypothesis inputs built to reach the classifier's rare branches.

A random genome almost never repeats itself, so reads sampled from one
map uniquely or not at all.  :func:`repeat_cases` builds genomes from a
few random segments, each copied 1–12 times in either orientation, plus
reverse-complement palindromes and planted GT..AG introns, with genes
on both strands.  Reads sampled from them reach multimappers, the
``multimap_nmax`` overflow, forward/reverse ties (a palindrome aligns
at the same start on both strands), error-bridge placements and
spliced placements; read pairs reach every pair status.

This module builds inputs only, so it imports nothing newer than the
per-read aligner and can drive older checkouts as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.align.index import GenomeIndex
from repro.align.suffix_array import build_suffix_array
from repro.genome.alphabet import BASE_A, BASE_G, BASE_N, BASE_T, reverse_complement
from repro.genome.annotation import Annotation, Exon, Gene, Strand, Transcript
from repro.genome.model import SequenceRegion
from repro.reads.fastq import FastqRecord


@dataclass
class RepeatCase:
    """One generated genome with its reads, read pairs and aligner cap."""

    index: GenomeIndex
    reads: list[FastqRecord]
    mate1: list[FastqRecord]
    mate2: list[FastqRecord]
    multimap_nmax: int


def as_record(seq: np.ndarray, read_id: str) -> FastqRecord:
    seq = np.asarray(seq, dtype=np.uint8)
    return FastqRecord(read_id, seq, np.full(seq.size, 35, dtype=np.uint8))


def _mutate(rng: np.random.Generator, seq: np.ndarray, early: bool) -> np.ndarray:
    """1–3 substitutions; ``early`` puts the first one in the read's first
    four bases, which truncates the prefix seed (the error bridge)."""
    seq = seq.copy()
    spots = rng.integers(0, seq.size, int(rng.integers(1, 4)))
    if early:
        spots[0] = rng.integers(0, min(4, seq.size))
    for j in spots:
        seq[j] = (seq[j] + 1 + rng.integers(0, 3)) % 4
    return seq


@st.composite
def repeat_cases(draw) -> RepeatCase:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.sampled_from([30, 40, 50]))

    # -- genome: repeated segments, palindromes, random spacers ------------
    pieces: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 4))):
        segment = rng.integers(0, 4, int(rng.integers(length, length + 40)))
        for _ in range(draw(st.integers(1, 12))):
            flip = rng.random() < 0.5
            pieces.append(reverse_complement(segment) if flip else segment)
    n_repeats = len(pieces)
    for _ in range(draw(st.integers(0, 2))):
        half = rng.integers(0, 4, int(rng.integers(length // 2, length)))
        pieces.append(np.concatenate([half, reverse_complement(half)]))
    parts = []
    centers = []  # palindrome centres: a read centred there is its own RC
    at = 0
    for k in rng.permutation(len(pieces)):
        spacer = rng.integers(0, 4, int(rng.integers(20, 60)))
        parts += [spacer, pieces[k]]
        at += spacer.size
        if k >= n_repeats:
            centers.append(at + pieces[k].size // 2)
        at += pieces[k].size
    parts.append(rng.integers(0, 4, int(rng.integers(300, 500))))
    genome = np.concatenate(parts).astype(np.uint8)
    n_contigs = draw(st.integers(1, 3))
    cuts = np.sort(rng.choice(np.arange(1, genome.size), n_contigs - 1, replace=False))
    offsets = np.concatenate([[0], cuts, [genome.size]]).astype(np.int64)

    # -- planted canonical introns (GT...AG) for spliced reads --------------
    introns: list[tuple[int, int, int]] = []  # (donor, acceptor, first block)
    for _ in range(int(rng.integers(0, 4))):
        c = int(rng.integers(0, n_contigs))
        lo, hi = int(offsets[c]), int(offsets[c + 1])
        intron = int(rng.integers(25, 150))
        if hi - lo < intron + 2 * length:
            continue
        first = int(rng.integers(10, length - 9))
        donor = int(rng.integers(lo + first, hi - intron - (length - first)))
        acceptor = donor + intron
        genome[donor : donor + 2] = (BASE_G, BASE_T)
        genome[acceptor - 2 : acceptor] = (BASE_A, BASE_G)
        introns.append((donor, acceptor, first))

    # -- genes on both strands, some overlapping ----------------------------
    names = [f"c{i}" for i in range(n_contigs)]
    genes = []
    for g in range(int(rng.integers(0, 7))):
        c = int(rng.integers(0, n_contigs))
        size = int(offsets[c + 1] - offsets[c])
        start = int(rng.integers(0, size))
        end = min(size, start + int(rng.integers(1, 400)))
        strand = Strand.FORWARD if rng.random() < 0.5 else Strand.REVERSE
        exon = Exon(SequenceRegion(names[c], start, end), 1)
        transcript = Transcript(f"T{g}", f"G{g}", names[c], strand, [exon])
        genes.append(Gene(f"G{g}", f"gene{g}", names[c], strand, [transcript]))

    index = GenomeIndex(
        assembly_name="repeats",
        genome=genome,
        suffix_array=build_suffix_array(genome),
        offsets=offsets,
        names=names,
        annotation=Annotation(genes),
    )

    # -- reads ---------------------------------------------------------------
    def window(start: int, size: int = length) -> np.ndarray:
        return genome[start : start + size].copy()

    reads = []
    for i in range(draw(st.integers(20, 60))):
        kind = int(rng.integers(0, 9))
        seq = window(int(rng.integers(0, genome.size - length)))
        if kind == 1:
            seq = _mutate(rng, seq, early=False)
        elif kind == 2:
            seq = _mutate(rng, seq, early=True)
        elif kind == 3:
            seq = reverse_complement(seq)
        elif kind == 4 and introns:
            donor, acceptor, first = introns[int(rng.integers(0, len(introns)))]
            seq = np.concatenate(
                [window(donor - first, first), window(acceptor, length - first)]
            )
        elif kind == 5:
            seq = rng.integers(0, 4, length).astype(np.uint8)
        elif kind == 6:
            j = int(rng.integers(0, length - 3))
            seq[j : j + 3] = BASE_N
        elif kind == 7 and centers:
            seq = window(centers[int(rng.integers(0, len(centers)))] - length // 2)
        if rng.random() < 0.3:
            seq = reverse_complement(seq)
        reads.append(as_record(seq, f"r{i}"))

    # -- read pairs: FR fragments, wrong geometry, random mates --------------
    mate1, mate2 = [], []
    for i in range(draw(st.integers(10, 40))):
        tlen = int(rng.integers(length + 10, min(400, genome.size)))
        start = int(rng.integers(0, genome.size - tlen))
        first = window(start)
        second = reverse_complement(window(start + tlen - length))
        kind = int(rng.integers(0, 6))
        if kind == 1:
            first, second = second, first
        elif kind == 2:
            second = rng.integers(0, 4, length).astype(np.uint8)
        elif kind == 3:
            first = _mutate(rng, first, early=bool(rng.random() < 0.5))
        elif kind == 4:
            second = reverse_complement(second)
        mate1.append(as_record(first, f"p{i}/1"))
        mate2.append(as_record(second, f"p{i}/2"))

    return RepeatCase(
        index=index,
        reads=reads,
        mate1=mate1,
        mate2=mate2,
        multimap_nmax=draw(st.sampled_from([2, 5, 10])),
    )
