"""A working STAR-like spliced RNA-seq aligner.

This package reimplements, at laptop scale, every aligner mechanism the
paper's optimizations touch:

* ``genomeGenerate`` — an uncompressed-suffix-array genome index whose size
  scales with the FASTA (so Ensembl release choice changes index size,
  memory footprint, and search cost);
* sequential Maximal Mappable Prefix (MMP) seed search, STAR's core idea
  (Dobin et al. 2013);
* mismatch-budgeted extension and splice-aware two-seed stitching with
  canonical GT..AG motifs and an annotated junction database;
* ``--quantMode GeneCounts`` producing a ``ReadsPerGene.out.tab``;
* ``Log.progress.out`` / ``Log.final.out`` emission, which is the hook the
  early-stopping optimization consumes;
* a Salmon-like k-mer pseudo-aligner baseline that — as the paper's
  conclusions note — does *not* expose a progress mapping rate.
"""

from repro.align.backend import (
    AlignerBackend,
    EngineBackend,
    PairedAlignerBackend,
    ReadChunkStream,
    SerialAlignerBackend,
    resolve_backend,
)
from repro.align.counts import GeneCounts, GeneCountsPartial, STRAND_COLUMNS
from repro.align.engine import (
    ParallelStarAligner,
    SharedIndexBlocks,
    SharedIndexSpec,
    attach_shared_index,
)
from repro.align.extend import ScoringParams, ungapped_extend
from repro.align.index import GenomeIndex, genome_generate
from repro.align.paired import (
    PairedOutcome,
    PairedParameters,
    PairedRunResult,
    PairedStarAligner,
    PairStatus,
)
from repro.align.outcome import AlignmentOutcome
from repro.align.pseudo import PseudoAligner, PseudoIndex
from repro.align.sam import (
    SamRecord,
    parse_sam,
    to_paired_sam_lines,
    to_sam_line,
    write_paired_sam,
    write_sam,
)
from repro.align.seeds import SeedHit, maximal_mappable_prefix
from repro.align.star import (
    AlignmentStatus,
    ReadAlignment,
    RunAborted,
    StarAligner,
    StarParameters,
    StarRunResult,
)
from repro.align.suffix_array import build_suffix_array, sa_search

__all__ = [
    "AlignerBackend",
    "AlignmentOutcome",
    "AlignmentStatus",
    "EngineBackend",
    "GeneCounts",
    "GeneCountsPartial",
    "GenomeIndex",
    "PairStatus",
    "PairedAlignerBackend",
    "PairedOutcome",
    "PairedParameters",
    "PairedRunResult",
    "PairedStarAligner",
    "ParallelStarAligner",
    "PseudoAligner",
    "PseudoIndex",
    "ReadAlignment",
    "ReadChunkStream",
    "RunAborted",
    "STRAND_COLUMNS",
    "SamRecord",
    "ScoringParams",
    "SeedHit",
    "SerialAlignerBackend",
    "SharedIndexBlocks",
    "SharedIndexSpec",
    "StarAligner",
    "StarParameters",
    "StarRunResult",
    "attach_shared_index",
    "build_suffix_array",
    "genome_generate",
    "maximal_mappable_prefix",
    "parse_sam",
    "resolve_backend",
    "sa_search",
    "to_paired_sam_lines",
    "to_sam_line",
    "ungapped_extend",
    "write_paired_sam",
    "write_sam",
]
