"""Alignment outcomes: per-read records, the batches that carry them, and
the run-result surface.

Three layers of one run's results live here:

* :class:`ReadAlignment` and :class:`PairedOutcome` — one read's (one
  pair's) classification, built from Python ints, strings and enums.
  SAM output, tests and the per-read oracle work with these.
* :class:`OutcomeBatch` and :class:`PairedOutcomeBatch` — the same
  results for a run of reads as a struct of arrays: the only form
  outcomes take between the batch core and the count matrix (tallies,
  GeneCounts, engine IPC, shard checkpoints).  A batch is a read-only
  sequence: indexing or iterating it builds the records above, so it
  compares, pickles and JSON-encodes element by element exactly like a
  list of them, while every bulk consumer reads the arrays.
* :class:`AlignmentOutcome` — the structural protocol both whole-run
  results (:class:`~repro.align.star.StarRunResult`,
  :class:`~repro.align.paired.PairedRunResult`) satisfy.

:func:`encode_outcomes` and :func:`decode_outcomes` are the batches'
JSON-safe codec, the outcome half of an ``align.shard`` checkpoint.  A
payload is tagged by batch type (``"o"`` single-end, ``"po"`` paired)
and carries the layout version ``"v"``; payloads written before the
batch types existed have no version and are refused, never guessed at.

Naming note: through v0 the name ``AlignmentOutcome`` referred to the
*per-read* classification record; that class is now
:class:`ReadAlignment`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.genome.annotation import Strand
from repro.genome.model import SequenceRegion

if TYPE_CHECKING:
    from repro.align.counts import GeneCounts
    from repro.align.progress import FinalLogStats, ProgressRecord

__all__ = [
    "AlignmentOutcome",
    "AlignmentStatus",
    "OUTCOME_FORMAT",
    "OutcomeBatch",
    "PairStatus",
    "PairedOutcome",
    "PairedOutcomeBatch",
    "ReadAlignment",
    "decode_outcomes",
    "encode_outcomes",
]


class AlignmentStatus(enum.Enum):
    """Classification of one read, following STAR's Log.final.out buckets."""

    UNIQUE = "unique"
    MULTIMAPPED = "multimapped"
    TOO_MANY_LOCI = "too_many_loci"
    UNMAPPED = "unmapped"

    @property
    def is_mapped(self) -> bool:
        """Counts toward the progress file's 'mapped %' (unique + multi)."""
        return self in (AlignmentStatus.UNIQUE, AlignmentStatus.MULTIMAPPED)


@dataclass(frozen=True)
class ReadAlignment:
    """Result of aligning one read."""

    read_id: str
    status: AlignmentStatus
    strand: Strand | None = None
    score: int = 0
    n_loci: int = 0
    mismatches: int = 0
    blocks: tuple[SequenceRegion, ...] = ()
    spliced: bool = False


class PairStatus(enum.Enum):
    """Pair-level classification."""

    PROPER_PAIR = "proper_pair"  # both unique, FR orientation, TLEN in bounds
    DISCORDANT = "discordant"  # both mapped uniquely, geometry wrong
    ONE_MATE = "one_mate"  # exactly one mate mapped uniquely
    MULTIMAPPED = "multimapped"  # either mate multimapped (no unique pair)
    UNMAPPED = "unmapped"  # neither mate mapped

    @property
    def is_mapped(self) -> bool:
        """Counts toward the progress mapping rate (STAR counts pairs with
        at least a unique or multi placement)."""
        return self in (
            PairStatus.PROPER_PAIR,
            PairStatus.DISCORDANT,
            PairStatus.ONE_MATE,
            PairStatus.MULTIMAPPED,
        )


@dataclass(frozen=True)
class PairedOutcome:
    """Result of aligning one read pair."""

    pair_id: str
    status: PairStatus
    mate1: ReadAlignment
    mate2: ReadAlignment
    template_length: int | None = None

    @property
    def contig(self) -> str | None:
        if self.mate1.blocks:
            return self.mate1.blocks[0].contig
        if self.mate2.blocks:
            return self.mate2.blocks[0].contig
        return None


def pair_id_of(read_id: str) -> str:
    """A pair's id: mate 1's read id without its ``/1`` suffix."""
    return read_id.rsplit("/", 1)[0]


# --------------------------------------------------------------------------
# array codes
# --------------------------------------------------------------------------

#: :attr:`OutcomeBatch.status` codes: each status's position in
#: :class:`AlignmentStatus`
UNIQUE, MULTIMAPPED, TOO_MANY_LOCI, UNMAPPED = range(4)
#: :attr:`PairedOutcomeBatch.status` codes, in :class:`PairStatus` order
PROPER_PAIR, DISCORDANT, ONE_MATE, PAIR_MULTIMAPPED, PAIR_UNMAPPED = range(5)
#: :attr:`OutcomeBatch.strand` codes; 0 means no strand
FORWARD, REVERSE = 1, 2

_STATUSES = tuple(AlignmentStatus)
_PAIR_STATUSES = tuple(PairStatus)
_STRANDS = (None, Strand.FORWARD, Strand.REVERSE)
# keyed by each member's plain ``_value_``: hashing an enum member is a
# Python-level call, and converting a window of records does it per read
_STATUS_CODE = {status._value_: code for code, status in enumerate(_STATUSES)}
_PAIR_CODE = {status._value_: code for code, status in enumerate(_PAIR_STATUSES)}
_STRAND_CODE = {strand._value_: code for code, strand in enumerate(_STRANDS) if strand}


# --------------------------------------------------------------------------
# the shared sequence behaviour
# --------------------------------------------------------------------------


class _Batch(Sequence):
    """Read-only sequence behaviour shared by both batch types.

    A batch holds its results as columns, or — until something needs
    arrays — as the list of records it wraps.  The per-read path aligns
    one read per shard; converting each one-read list on its own would
    cost more than merging the read, so the run converts the records of
    a whole progress window at once instead (:meth:`concat` keeps
    wrapped lists wrapped).
    """

    __slots__ = ("_cols", "_items")

    @classmethod
    def of(cls, records: Iterable) -> Any:
        """A batch wrapping ``records``; arrays are built on first use."""
        return cls._wrap(list(records))

    @classmethod
    def _wrap(cls, items: list) -> Any:
        batch = cls.__new__(cls)
        batch._cols = None
        batch._items = items
        return batch

    @classmethod
    def _from_columns(cls, cols) -> Any:
        batch = cls.__new__(cls)
        batch._cols = cols
        batch._items = None
        return batch

    @classmethod
    def concat(cls, batches: Iterable) -> Any:
        """One batch holding ``batches`` back to back."""
        batches = list(batches)
        if all(b._items is not None for b in batches):
            return cls._wrap([item for b in batches for item in b._items])
        return cls._from_columns(cls._concat_columns([b._columns() for b in batches]))

    def _columns(self):
        if self._cols is None:
            self._cols = self._to_columns(self._items)
            self._items = None
        return self._cols

    def __len__(self) -> int:
        if self._items is not None:
            return len(self._items)
        return len(self._cols.status)

    def __getitem__(self, key):
        if isinstance(key, slice):
            if self._items is not None:
                return self._wrap(self._items[key])
            start, stop, step = key.indices(len(self))
            if step != 1:
                return self._wrap(self._records()[key])
            return self._from_columns(self._slice(self._cols, start, max(start, stop)))
        if self._items is not None:
            return self._items[key]
        n = len(self)
        i = key + n if key < 0 else key
        if not 0 <= i < n:
            raise IndexError("batch index out of range")
        return self._from_columns(self._slice(self._cols, i, i + 1))._records()[0]

    def __iter__(self):
        if self._items is not None:
            return iter(self._items)
        return iter(self._records())

    def __eq__(self, other: object) -> bool:
        if (
            type(other) is type(self)
            and self._items is None
            and other._items is None
            and self._cols.contig_names == other._cols.contig_names
        ):
            return self._equal_columns(self._cols, other._cols)
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]  # a batch is a sequence, like a list

    def __add__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self.concat([self, other])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} outcomes>)"


def _column(name: str, doc: str) -> property:
    return property(lambda self: getattr(self._columns(), name), doc=doc)


# --------------------------------------------------------------------------
# single-end batches
# --------------------------------------------------------------------------


class _Columns(NamedTuple):
    read_ids: list[str]
    status: np.ndarray  # int8 status codes
    strand: np.ndarray  # int8 strand codes
    score: np.ndarray  # int64
    n_loci: np.ndarray  # int64
    mismatches: np.ndarray  # int64
    spliced: np.ndarray  # bool
    block_offsets: np.ndarray  # int64, n + 1: read i owns blocks [o[i], o[i+1])
    block_contig: np.ndarray  # int64 positions in contig_names
    block_start: np.ndarray  # int64, contig-local
    block_end: np.ndarray  # int64, contig-local
    contig_names: tuple[str, ...]


#: the per-read and per-block array columns, between read_ids and the table
_ARRAY_FIELDS = _Columns._fields[1:-1]


def _remap(cols: _Columns, table: dict[str, int]) -> _Columns:
    """``cols`` with its block contigs renumbered into ``table`` (names
    missing from it are appended)."""
    lookup = np.array(
        [table.setdefault(name, len(table)) for name in cols.contig_names],
        dtype=np.int64,
    )
    contig = lookup[cols.block_contig] if cols.block_contig.size else cols.block_contig
    return cols._replace(block_contig=contig, contig_names=tuple(table))


class OutcomeBatch(_Batch):
    """Single-end outcomes of consecutive reads, as a struct of arrays.

    Per read: ``status`` (:data:`UNIQUE` … :data:`UNMAPPED` codes),
    ``strand`` (0, :data:`FORWARD`, :data:`REVERSE`), ``score``,
    ``n_loci``, ``mismatches``, ``spliced`` and ``read_ids``.  Blocks
    are stored in CSR form: read ``i`` owns blocks
    ``block_offsets[i]:block_offsets[i + 1]``, each a contig id into
    ``contig_names`` with a contig-local ``[start, end)``.  The batch
    carries its own contig table, so outcomes on any contig name —
    not only an index's — round-trip.

    No read length is stored: every read a tally or GeneCounts looks at
    past its status is mapped, and a mapped read's blocks cover exactly
    its length (see :meth:`aligned_bases`).
    """

    __slots__ = ()

    def __init__(
        self,
        *,
        read_ids: list[str],
        status: np.ndarray,
        strand: np.ndarray,
        score: np.ndarray,
        n_loci: np.ndarray,
        mismatches: np.ndarray,
        spliced: np.ndarray,
        block_offsets: np.ndarray,
        block_contig: np.ndarray,
        block_start: np.ndarray,
        block_end: np.ndarray,
        contig_names: tuple[str, ...],
    ) -> None:
        self._items = None
        self._cols = _Columns(
            list(read_ids),
            np.asarray(status, dtype=np.int8),
            np.asarray(strand, dtype=np.int8),
            np.asarray(score, dtype=np.int64),
            np.asarray(n_loci, dtype=np.int64),
            np.asarray(mismatches, dtype=np.int64),
            np.asarray(spliced, dtype=bool),
            np.asarray(block_offsets, dtype=np.int64),
            np.asarray(block_contig, dtype=np.int64),
            np.asarray(block_start, dtype=np.int64),
            np.asarray(block_end, dtype=np.int64),
            tuple(contig_names),
        )

    read_ids = _column("read_ids", "read id per read (list of str)")
    status = _column("status", "int8 status code per read")
    strand = _column("strand", "int8 strand code per read (0: none)")
    score = _column("score", "alignment score per read")
    n_loci = _column("n_loci", "distinct best-score loci per read")
    mismatches = _column("mismatches", "mismatches of the chosen placement")
    spliced = _column("spliced", "True where the chosen placement is spliced")
    block_offsets = _column("block_offsets", "CSR offsets into the block arrays")
    block_contig = _column("block_contig", "contig id per block")
    block_start = _column("block_start", "contig-local start per block")
    block_end = _column("block_end", "contig-local end per block")
    contig_names = _column("contig_names", "contig name per contig id")

    def block_owner(self) -> np.ndarray:
        """The read index of every block."""
        offsets = self.block_offsets
        return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))

    def aligned_bases(self, reads: np.ndarray) -> int:
        """Bases covered by the blocks of the reads selected by the boolean
        mask ``reads`` — each mapped read's length, summed."""
        cols = self._columns()
        lengths = cols.block_end - cols.block_start
        return int(lengths[reads[self.block_owner()]].sum())

    @staticmethod
    def _to_columns(items: list[ReadAlignment]) -> _Columns:
        table: dict[str, int] = {}
        offsets = [0]
        contig: list[int] = []
        start: list[int] = []
        end: list[int] = []
        strands = [item.strand for item in items]
        for item in items:
            for block in item.blocks:
                contig.append(table.setdefault(block.contig, len(table)))
                start.append(block.start)
                end.append(block.end)
            offsets.append(len(start))
        return _Columns(
            [item.read_id for item in items],
            np.array(
                [_STATUS_CODE[item.status._value_] for item in items], dtype=np.int8
            ),
            np.array(
                [0 if s is None else _STRAND_CODE[s._value_] for s in strands],
                dtype=np.int8,
            ),
            np.array([item.score for item in items], dtype=np.int64),
            np.array([item.n_loci for item in items], dtype=np.int64),
            np.array([item.mismatches for item in items], dtype=np.int64),
            np.array([item.spliced for item in items], dtype=bool),
            np.array(offsets, dtype=np.int64),
            np.array(contig, dtype=np.int64),
            np.array(start, dtype=np.int64),
            np.array(end, dtype=np.int64),
            tuple(table),
        )

    @staticmethod
    def _slice(cols: _Columns, start: int, stop: int) -> _Columns:
        offsets = cols.block_offsets[start : stop + 1]
        lo, hi = int(offsets[0]), int(offsets[-1])
        return _Columns(
            cols.read_ids[start:stop],
            cols.status[start:stop],
            cols.strand[start:stop],
            cols.score[start:stop],
            cols.n_loci[start:stop],
            cols.mismatches[start:stop],
            cols.spliced[start:stop],
            offsets - lo,
            cols.block_contig[lo:hi],
            cols.block_start[lo:hi],
            cols.block_end[lo:hi],
            cols.contig_names,
        )

    @staticmethod
    def _concat_columns(parts: list[_Columns]) -> _Columns:
        names = parts[0].contig_names
        if any(p.contig_names != names for p in parts):
            table: dict[str, int] = {}
            parts = [_remap(p, table) for p in parts]
            names = tuple(table)
        bases = np.cumsum([0] + [int(p.block_offsets[-1]) for p in parts[:-1]])
        offsets = [p.block_offsets[1:] + base for p, base in zip(parts, bases)]
        return _Columns(
            read_ids=[rid for p in parts for rid in p.read_ids],
            **{
                field: np.concatenate([getattr(p, field) for p in parts])
                for field in _ARRAY_FIELDS
                if field != "block_offsets"
            },
            block_offsets=np.concatenate([np.zeros(1, dtype=np.int64), *offsets]),
            contig_names=names,
        )

    @staticmethod
    def _equal_columns(a: _Columns, b: _Columns) -> bool:
        return a.read_ids == b.read_ids and all(
            np.array_equal(getattr(a, field), getattr(b, field))
            for field in _ARRAY_FIELDS
        )

    def _records(self) -> list[ReadAlignment]:
        cols = self._columns()
        names = cols.contig_names
        regions = [
            SequenceRegion(names[c], s, e)
            for c, s, e in zip(
                cols.block_contig.tolist(),
                cols.block_start.tolist(),
                cols.block_end.tolist(),
            )
        ]
        offsets = cols.block_offsets.tolist()
        return [
            ReadAlignment(
                read_id=read_id,
                status=_STATUSES[status],
                strand=_STRANDS[strand],
                score=score,
                n_loci=n_loci,
                mismatches=mismatches,
                blocks=tuple(regions[offsets[i] : offsets[i + 1]]),
                spliced=spliced,
            )
            for i, (read_id, status, strand, score, n_loci, mismatches, spliced)
            in enumerate(
                zip(
                    cols.read_ids,
                    cols.status.tolist(),
                    cols.strand.tolist(),
                    cols.score.tolist(),
                    cols.n_loci.tolist(),
                    cols.mismatches.tolist(),
                    cols.spliced.tolist(),
                )
            )
        ]


# --------------------------------------------------------------------------
# paired-end batches
# --------------------------------------------------------------------------


class _PairColumns(NamedTuple):
    mate1: OutcomeBatch
    mate2: OutcomeBatch
    status: np.ndarray  # int8 pair status codes
    template_length: np.ndarray  # int64; -1 where there is none

    @property
    def contig_names(self) -> tuple[str, ...]:
        return self.mate1.contig_names


def _pair_columns(
    mate1: OutcomeBatch, mate2: OutcomeBatch, status, tlen
) -> _PairColumns:
    """Pair columns whose two mate batches share one contig table."""
    c1, c2 = mate1._columns(), mate2._columns()
    if c1.contig_names != c2.contig_names:
        table: dict[str, int] = {}
        c1, c2 = _remap(c1, table), _remap(c2, table)
        c1 = c1._replace(contig_names=c2.contig_names)
    return _PairColumns(
        OutcomeBatch._from_columns(c1),
        OutcomeBatch._from_columns(c2),
        np.asarray(status, dtype=np.int8),
        np.asarray(tlen, dtype=np.int64),
    )


class PairedOutcomeBatch(_Batch):
    """Paired-end outcomes of consecutive pairs, as a struct of arrays.

    Holds the two mate batches (sharing one contig table), a pair
    status code per pair (:data:`PROPER_PAIR` … :data:`PAIR_UNMAPPED`)
    and the template length (-1 where a pair has none).  A pair's id is
    derived from mate 1's read id, as :meth:`~repro.align.paired.
    PairedStarAligner.align_pair` derives it.
    """

    __slots__ = ()

    def __init__(
        self,
        mate1: OutcomeBatch,
        mate2: OutcomeBatch,
        status: np.ndarray,
        template_length: np.ndarray,
    ) -> None:
        if len(mate1) != len(mate2):
            raise ValueError("mate batches must have equal length")
        self._items = None
        self._cols = _pair_columns(mate1, mate2, status, template_length)

    mate1 = _column("mate1", "mate 1 outcomes (an OutcomeBatch)")
    mate2 = _column("mate2", "mate 2 outcomes (an OutcomeBatch)")
    status = _column("status", "int8 pair status code per pair")
    template_length = _column("template_length", "TLEN per pair (-1: none)")

    @staticmethod
    def _to_columns(items: list[PairedOutcome]) -> _PairColumns:
        for item in items:
            if item.pair_id != pair_id_of(item.mate1.read_id):
                raise ValueError(
                    f"pair id {item.pair_id!r} is not derived from mate 1's "
                    f"read id {item.mate1.read_id!r}"
                )
            if item.template_length is not None and item.template_length < 0:
                raise ValueError(f"negative template length in {item.pair_id!r}")
        return _pair_columns(
            OutcomeBatch.of([item.mate1 for item in items]),
            OutcomeBatch.of([item.mate2 for item in items]),
            [_PAIR_CODE[item.status._value_] for item in items],
            [
                -1 if item.template_length is None else item.template_length
                for item in items
            ],
        )

    @staticmethod
    def _slice(cols: _PairColumns, start: int, stop: int) -> _PairColumns:
        return _PairColumns(
            cols.mate1[start:stop],
            cols.mate2[start:stop],
            cols.status[start:stop],
            cols.template_length[start:stop],
        )

    @staticmethod
    def _concat_columns(parts: list[_PairColumns]) -> _PairColumns:
        return _pair_columns(
            OutcomeBatch.concat([p.mate1 for p in parts]),
            OutcomeBatch.concat([p.mate2 for p in parts]),
            np.concatenate([p.status for p in parts]),
            np.concatenate([p.template_length for p in parts]),
        )

    @staticmethod
    def _equal_columns(a: _PairColumns, b: _PairColumns) -> bool:
        return (
            np.array_equal(a.status, b.status)
            and np.array_equal(a.template_length, b.template_length)
            and a.mate1 == b.mate1
            and a.mate2 == b.mate2
        )

    def _records(self) -> list[PairedOutcome]:
        cols = self._columns()
        return [
            PairedOutcome(
                pair_id=pair_id_of(m1.read_id),
                status=_PAIR_STATUSES[status],
                mate1=m1,
                mate2=m2,
                template_length=None if tlen < 0 else tlen,
            )
            for m1, m2, status, tlen in zip(
                cols.mate1._records(),
                cols.mate2._records(),
                cols.status.tolist(),
                cols.template_length.tolist(),
            )
        ]


# --------------------------------------------------------------------------
# the JSON-safe codec
# --------------------------------------------------------------------------

#: layout version of an encoded batch (a payload's ``"v"`` field)
OUTCOME_FORMAT = 2


def _encode_single(batch: OutcomeBatch) -> dict[str, Any]:
    cols = batch._columns()
    return {
        "id": list(cols.read_ids),
        "st": cols.status.tolist(),
        "sd": cols.strand.tolist(),
        "sc": cols.score.tolist(),
        "nl": cols.n_loci.tolist(),
        "mm": cols.mismatches.tolist(),
        "sp": cols.spliced.astype(np.int8).tolist(),
        "nb": np.diff(cols.block_offsets).tolist(),
        "bc": cols.block_contig.tolist(),
        "bs": cols.block_start.tolist(),
        "bl": (cols.block_end - cols.block_start).tolist(),
        "cn": list(cols.contig_names),
    }


def _decode_single(v: dict[str, Any]) -> OutcomeBatch:
    offsets = np.zeros(len(v["nb"]) + 1, dtype=np.int64)
    np.cumsum(np.asarray(v["nb"], dtype=np.int64), out=offsets[1:])
    start = np.array(v["bs"], dtype=np.int64)
    return OutcomeBatch(
        read_ids=v["id"],
        status=v["st"],
        strand=v["sd"],
        score=v["sc"],
        n_loci=v["nl"],
        mismatches=v["mm"],
        spliced=v["sp"],
        block_offsets=offsets,
        block_contig=v["bc"],
        block_start=start,
        block_end=start + np.array(v["bl"], dtype=np.int64),
        contig_names=tuple(v["cn"]),
    )


def encode_outcomes(outcomes: OutcomeBatch | PairedOutcomeBatch) -> dict[str, Any]:
    """JSON-safe form of a batch: ``{"v": OUTCOME_FORMAT, "o": …}`` for
    single-end outcomes, ``{"v": …, "po": …}`` for pairs."""
    if isinstance(outcomes, PairedOutcomeBatch):
        return {
            "v": OUTCOME_FORMAT,
            "po": {
                "m1": _encode_single(outcomes.mate1),
                "m2": _encode_single(outcomes.mate2),
                "st": outcomes.status.tolist(),
                "tl": outcomes.template_length.tolist(),
            },
        }
    if not isinstance(outcomes, OutcomeBatch):
        raise TypeError(f"expected an outcome batch, got {type(outcomes).__name__}")
    return {"v": OUTCOME_FORMAT, "o": _encode_single(outcomes)}


def decode_outcomes(payload: dict[str, Any]) -> OutcomeBatch | PairedOutcomeBatch:
    """Inverse of :func:`encode_outcomes`.

    Raises ``ValueError`` for a payload of another layout version —
    including the unversioned per-record lists written before batches
    existed — rather than misreading it.
    """
    if payload.get("v") != OUTCOME_FORMAT:
        raise ValueError(
            f"outcome payload format {payload.get('v')!r}; this build reads "
            f"format {OUTCOME_FORMAT}"
        )
    if "po" in payload:
        v = payload["po"]
        return PairedOutcomeBatch(
            _decode_single(v["m1"]), _decode_single(v["m2"]), v["st"], v["tl"]
        )
    return _decode_single(payload["o"])


# --------------------------------------------------------------------------
# the whole-run surface
# --------------------------------------------------------------------------


@runtime_checkable
class AlignmentOutcome(Protocol):
    """What one accession's completed (or aborted) alignment run exposes.

    Structural — any object with these members satisfies it; both
    :class:`~repro.align.star.StarRunResult` and
    :class:`~repro.align.paired.PairedRunResult` do.
    """

    #: STAR's ``Log.final.out`` aggregate statistics
    final: FinalLogStats
    #: ``Log.progress.out`` snapshots, in read order
    progress: list[ProgressRecord]
    #: ``ReadsPerGene.out.tab`` counts, or None when quantification is off
    gene_counts: GeneCounts | None
    #: True when the early-stopping monitor terminated the run
    aborted: bool

    @property
    def mapped_fraction(self) -> float:
        """Final mapping rate — the atlas acceptance-bar input."""
        ...
