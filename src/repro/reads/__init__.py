"""Sequencing-reads substrate: FASTQ, library metadata, simulator, mock SRA.

Covers pipeline steps 1 and 2 of the paper (Fig. 1): ``prefetch`` downloads
an SRA container, ``fasterq-dump`` converts it to FASTQ.  Since NCBI SRA is
unreachable here, :mod:`repro.reads.sra` implements a self-contained archive
format with the same tool interface, and :mod:`repro.reads.simulator`
generates the RNA-seq content (bulk poly-A and single-cell 3' libraries,
whose mapping-rate gap is what the early-stopping optimization exploits).
"""

from repro.reads.fastq import FastqRecord, ReadBatch, read_fastq, write_fastq
from repro.reads.library import LibraryType, SampleProfile, SraRunMetadata
from repro.reads.paired import (
    PairedProfile,
    PairedSample,
    PairedSraArchive,
    fasterq_dump_paired,
    simulate_paired,
)
from repro.reads.simulator import ReadSimulator, SimulatorConfig
from repro.reads.sra import SraArchive, SraRepository, fasterq_dump, prefetch
from repro.reads.stream import SraStream, ThrottledRepository

__all__ = [
    "FastqRecord",
    "LibraryType",
    "PairedProfile",
    "PairedSample",
    "PairedSraArchive",
    "ReadBatch",
    "ReadSimulator",
    "SampleProfile",
    "SimulatorConfig",
    "SraArchive",
    "SraRepository",
    "SraRunMetadata",
    "SraStream",
    "ThrottledRepository",
    "fasterq_dump",
    "fasterq_dump_paired",
    "prefetch",
    "read_fastq",
    "simulate_paired",
    "write_fastq",
]
