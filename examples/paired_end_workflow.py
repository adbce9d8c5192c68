"""Paired-end workflow: trim → align pairs → SAM + insert sizes.

Shows the extended toolchain on a paired-end sample, the dominant layout
in the SRA:

1. simulate a paired-end bulk sample (fragment model, some adapter
   read-through contamination);
2. package/unpack it through the paired ``.sra`` container and
   ``fasterq-dump --split-files``;
3. quality/adapter-trim both mates;
4. align pairs with FR-orientation pairing and template-length bounds;
5. write ``Aligned.out.sam`` and summarize the insert-size distribution.

Usage::

    python examples/paired_end_workflow.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.align.index import genome_generate
from repro.align.paired import PairedParameters, PairedStarAligner, PairStatus
from repro.align.sam import write_paired_sam
from repro.align.star import StarAligner, StarParameters
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType
from repro.reads.paired import (
    PairedProfile,
    PairedSraArchive,
    fasterq_dump_paired,
    simulate_paired,
)
from repro.reads.simulator import ReadSimulator
from repro.reads.trim import ReadTrimmer, TrimConfig, contaminate_with_adapter


def main(workdir: Path) -> None:
    rng = np.random.default_rng(23)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(universe, EnsemblRelease.R111, rng=1)
    index = genome_generate(assembly, universe.annotation)

    simulator = ReadSimulator(assembly, universe.annotation)
    sample = simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA, n_pairs=300, read_length=75,
            insert_mean=260, insert_sd=35,
        ),
        rng=3,
        read_id_prefix="SRRPE01",
    )
    # read-through contamination on mate 1
    mate1 = contaminate_with_adapter(sample.mate1, fraction=0.25, rng=5)

    archive = PairedSraArchive("SRRPE01", LibraryType.BULK_POLYA, mate1, sample.mate2)
    sra_path = workdir / "SRRPE01.sra"
    sra_path.write_bytes(archive.to_bytes())
    (p1, p2), (reads1, reads2) = fasterq_dump_paired(sra_path, workdir)
    print(f"dumped {p1.name} + {p2.name} "
          f"({archive.n_pairs} pairs, {sra_path.stat().st_size / 1e3:.0f} kB sra)")

    trimmer = ReadTrimmer(TrimConfig(min_length=40))
    trimmed1, stats1 = trimmer.trim(reads1)
    trimmed2, stats2 = trimmer.trim(reads2)
    print(f"trim mate1: {stats1.to_text()}")
    print(f"trim mate2: {stats2.to_text()}")
    # keep pairs where both mates survived
    ids1 = {r.read_id.rsplit('/', 1)[0] for r in trimmed1}
    ids2 = {r.read_id.rsplit('/', 1)[0] for r in trimmed2}
    keep = ids1 & ids2
    trimmed1 = [r for r in trimmed1 if r.read_id.rsplit("/", 1)[0] in keep]
    trimmed2 = [r for r in trimmed2 if r.read_id.rsplit("/", 1)[0] in keep]

    aligner = PairedStarAligner(
        StarAligner(index, StarParameters(progress_every=1000)),
        PairedParameters(min_template=50, max_template=2500),
    )
    result = aligner.run(trimmed1, trimmed2)
    print(f"\npairs aligned: {len(result.outcomes)}")
    for status in PairStatus:
        n = sum(o.status is status for o in result.outcomes)
        print(f"  {status.value:12s} {n}")

    tlens = result.template_lengths()
    if tlens:
        print(f"\ninsert size: median {int(np.median(tlens))}, "
              f"IQR {int(np.percentile(tlens, 25))}-{int(np.percentile(tlens, 75))}")

    sam_path = workdir / "Aligned.out.sam"
    n = write_paired_sam(trimmed1, trimmed2, result.outcomes, index, sam_path)
    print(f"wrote {sam_path.name}: {n} alignment lines "
          "(paired flags, RNEXT/PNEXT, signed TLEN)")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        path.mkdir(parents=True, exist_ok=True)
        main(path)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp))
