"""Content-addressed on-disk index cache with mmap'd loads.

The paper's instance-init step (§II) builds the genome index once,
stores it in object storage, and has every aligner instance download and
attach it from shared memory instead of re-running ``genomeGenerate``
per job.  :class:`IndexCache` is that store for the in-process aligner:
an index is keyed by a fingerprint over exactly the inputs that
determine it (assembly name, contig names/levels/sequences, annotation
gene/transcript/exon structure), its large arrays are saved as raw
``.npy`` files, and a cache hit memory-maps them with
``np.load(mmap_mode="r")`` — no suffix-array construction, no eager
copy; pages fault in on first use and are shared between processes
through the OS page cache, mirroring the /dev/shm attach.

Entries are written atomically (temp directory + ``os.replace``), so a
crashed build never leaves a half-entry that a later load would trust.

Format version 2 adds the sorted suffix-key column the batch seed search
runs on (:func:`~repro.align.suffix_array.build_suffix_keys`).  The
version is part of the fingerprint, so an entry of the old format is
simply not found and the index is rebuilt on first use; loading one by
its fingerprint is refused rather than attached without keys.  Storing a
current entry deletes every entry of an older format.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path

import numpy as np

from repro.align.index import GenomeIndex, genome_generate
from repro.align.suffix_array import PrefixJumpTable
from repro.genome.annotation import Annotation
from repro.genome.model import Assembly

_FORMAT_VERSION = 2

_META = "meta.json"
_ARRAYS = ("genome", "suffix_array", "offsets", "jump_bounds", "suffix_keys")


def index_fingerprint(assembly: Assembly, annotation: Annotation | None = None) -> str:
    """Content hash (sha256 hex) over everything that determines the index.

    Covers the assembly name, every contig's name/level/sequence bytes,
    and — because the annotation seeds the sjdb — the full
    gene/transcript/exon structure.  Two calls agree iff
    ``genome_generate`` would produce identical indexes.
    """
    h = hashlib.sha256()
    h.update(f"repro-index-v{_FORMAT_VERSION}\x00{assembly.name}\x00".encode())
    for contig in assembly:
        h.update(f"{contig.name}\x00{contig.level.value}\x00{contig.length}\x00".encode())
        h.update(memoryview(np.ascontiguousarray(contig.sequence, dtype=np.uint8)))
    if annotation is None:
        h.update(b"\x00no-annotation")
        return h.hexdigest()
    for gene in annotation.genes:
        h.update(
            f"\x00{gene.gene_id}\x00{gene.name}\x00{gene.contig}"
            f"\x00{gene.strand.value}\x00".encode()
        )
        for t in gene.transcripts:
            h.update(f"{t.transcript_id}\x00".encode())
            for e in t.exons:
                h.update(f"{e.number}:{e.region.start}-{e.region.end};".encode())
    return h.hexdigest()


class IndexCache:
    """Content-addressed store of generated indexes under one directory.

    ``get_or_build`` is the whole API most callers need: a miss runs
    ``genome_generate`` and persists the result; either way the returned
    index is backed by memory-mapped arrays.  ``hits``/``misses`` count
    this instance's lookups for the CLI report.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    fingerprint = staticmethod(index_fingerprint)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def __contains__(self, fingerprint: str) -> bool:
        return (self.path_for(fingerprint) / _META).is_file()

    def entries(self) -> list[str]:
        """Fingerprints of complete entries, sorted."""
        return sorted(p.name for p in self.root.iterdir() if (p / _META).is_file())

    def entry_bytes(self, fingerprint: str) -> int:
        entry = self.path_for(fingerprint)
        return sum(f.stat().st_size for f in entry.iterdir() if f.is_file())

    def get_or_build(
        self, assembly: Assembly, annotation: Annotation | None = None
    ) -> GenomeIndex:
        """mmap-load on a hit; ``genome_generate`` + store + mmap-load on a miss."""
        fp = index_fingerprint(assembly, annotation)
        if fp in self:
            self.hits += 1
            return self.load(fp)
        self.misses += 1
        index = genome_generate(assembly, annotation)
        self.store(fp, index)
        return self.load(fp)

    def store(self, fingerprint: str, index: GenomeIndex) -> Path:
        """Persist an index under ``fingerprint``; atomic against crashes.

        If a concurrent builder already published the entry, theirs wins
        and this build is discarded — both are byte-identical by
        construction.  Either way, entries of an older format go.
        """
        if index.jump_table is None:
            index.jump_table = PrefixJumpTable.build(index.genome, index.suffix_array)
        final = self.path_for(fingerprint)
        tmp = self.root / f".tmp-{fingerprint}-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        arrays = {
            "genome": np.ascontiguousarray(index.genome, dtype=np.uint8),
            "suffix_array": np.ascontiguousarray(index.suffix_array, dtype=np.int64),
            "offsets": np.ascontiguousarray(index.offsets, dtype=np.int64),
            "jump_bounds": np.ascontiguousarray(
                index.jump_table.bounds, dtype=np.int64
            ),
            "suffix_keys": np.ascontiguousarray(index.sorted_keys(), dtype=np.int32),
        }
        for name in _ARRAYS:
            np.save(tmp / f"{name}.npy", arrays[name])
        with open(tmp / "aux.pkl", "wb") as fh:
            pickle.dump(
                {"annotation": index.annotation, "sjdb": index.sjdb},
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        meta = {
            "version": _FORMAT_VERSION,
            "assembly_name": index.assembly_name,
            "names": index.names,
            "n_bases": index.n_bases,
            "jump_length": index.jump_table.length,
        }
        # meta.json is the commit marker: written last inside tmp, and the
        # whole directory appears atomically under its final name
        (tmp / _META).write_text(json.dumps(meta, indent=2) + "\n")
        try:
            os.replace(tmp, final)
        except OSError:
            if fingerprint not in self:
                raise
            shutil.rmtree(tmp)
        self._remove_older_formats()
        return final

    def _remove_older_formats(self) -> None:
        """Delete every complete entry of an older format version.

        The version is part of the fingerprint, so no lookup can reach such
        an entry again; left in place it would still be listed by
        :meth:`entries` and hold its disk space.  Entries of a newer
        version, entries whose ``meta.json`` cannot be read and in-progress
        ``.tmp-*`` builds are left alone.
        """
        for entry in self.root.iterdir():
            if entry.name.startswith(".tmp-"):
                continue
            try:
                meta = json.loads((entry / _META).read_text())
                older = meta["version"] < _FORMAT_VERSION
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if older:
                try:
                    shutil.rmtree(entry)
                except FileNotFoundError:
                    pass  # a concurrent store removed it first

    def load(self, fingerprint: str) -> GenomeIndex:
        """Attach to a stored entry without rebuilding anything.

        The genome, suffix array, jump-table bounds and suffix keys come
        back as read-only ``np.memmap`` views — ``SearchContext`` wraps
        them zero-copy, so the resident cost of a cache hit is the pages
        the search actually touches.
        """
        entry = self.path_for(fingerprint)
        meta = json.loads((entry / _META).read_text())
        if meta["version"] != _FORMAT_VERSION:
            raise ValueError(
                f"index cache entry {fingerprint} has format version "
                f"{meta['version']}, expected {_FORMAT_VERSION}"
            )
        genome = np.load(entry / "genome.npy", mmap_mode="r")
        suffix_array = np.load(entry / "suffix_array.npy", mmap_mode="r")
        jump_bounds = np.load(entry / "jump_bounds.npy", mmap_mode="r")
        suffix_keys = np.load(entry / "suffix_keys.npy", mmap_mode="r")
        offsets = np.load(entry / "offsets.npy")
        with open(entry / "aux.pkl", "rb") as fh:
            aux = pickle.load(fh)
        return GenomeIndex(
            assembly_name=meta["assembly_name"],
            genome=genome,
            suffix_array=suffix_array,
            offsets=offsets,
            names=list(meta["names"]),
            annotation=aux["annotation"],
            sjdb=aux["sjdb"],
            jump_table=PrefixJumpTable(meta["jump_length"], jump_bounds),
            suffix_keys=suffix_keys,
        )


def cached_genome_generate(
    assembly: Assembly,
    annotation: Annotation | None = None,
    *,
    cache_dir: Path | str | None = None,
) -> GenomeIndex:
    """``genome_generate``, routed through an :class:`IndexCache` when a
    directory is given (``None`` keeps the plain in-memory build)."""
    if cache_dir is None:
        return genome_generate(assembly, annotation)
    return IndexCache(cache_dir).get_or_build(assembly, annotation)
