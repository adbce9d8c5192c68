"""Read trimming — the QC step real pipelines run before alignment.

A fastp/Trimmomatic-lite: 3' adapter removal by prefix match (with
mismatch tolerance), sliding-window quality trimming from the 3' end, and
a minimum-length filter.  The pipeline can run it between ``fasterq-dump``
and STAR; the simulator's adapter-contaminated reads give it real work.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.genome.alphabet import encode
from repro.reads.fastq import FastqRecord, ReadBatch
from repro.util.validation import check_fraction, check_positive

#: Illumina TruSeq R1 adapter prefix (the classic contaminant)
DEFAULT_ADAPTER = "AGATCGGAAGAGC"


@dataclass(frozen=True)
class TrimConfig:
    """Trimming parameters (fastp-flavoured defaults)."""

    adapter: str = DEFAULT_ADAPTER
    #: max mismatch fraction when matching the adapter prefix
    adapter_mismatch_rate: float = 0.2
    #: minimum overlap with the adapter to trigger trimming
    min_adapter_overlap: int = 5
    #: sliding-window quality trim: window size and mean-quality floor
    quality_window: int = 4
    quality_floor: int = 15
    #: reads shorter than this after trimming are dropped
    min_length: int = 30

    def __post_init__(self) -> None:
        if not self.adapter:
            raise ValueError("adapter must be non-empty")
        check_fraction("adapter_mismatch_rate", self.adapter_mismatch_rate)
        check_positive("min_adapter_overlap", self.min_adapter_overlap)
        check_positive("quality_window", self.quality_window)
        check_positive("min_length", self.min_length)


@dataclass
class TrimStats:
    """Aggregate statistics of one trimming pass."""

    reads_in: int = 0
    reads_out: int = 0
    reads_dropped: int = 0
    adapters_trimmed: int = 0
    quality_trimmed: int = 0
    bases_in: int = 0
    bases_out: int = 0

    @property
    def bases_removed_fraction(self) -> float:
        if self.bases_in == 0:
            return 0.0
        return 1.0 - self.bases_out / self.bases_in

    def to_text(self) -> str:
        return (
            f"reads {self.reads_in} -> {self.reads_out} "
            f"({self.reads_dropped} dropped); "
            f"adapters trimmed {self.adapters_trimmed}, "
            f"quality-trimmed {self.quality_trimmed}; "
            f"bases removed {100 * self.bases_removed_fraction:.1f}%"
        )


class ReadTrimmer:
    """Applies adapter + quality trimming to read streams."""

    def __init__(self, config: TrimConfig | None = None) -> None:
        self.config = config or TrimConfig()
        self._adapter = encode(self.config.adapter)

    # -- individual operations ----------------------------------------------

    def find_adapter(self, sequence: np.ndarray) -> int | None:
        """Leftmost position where the adapter prefix starts, or None.

        Checks every 3' suffix of the read against the adapter's prefix of
        the same length, allowing ``adapter_mismatch_rate`` mismatches —
        the standard overlap-alignment-free heuristic.
        """
        cfg = self.config
        n = int(sequence.size)
        full = self._adapter
        # scan every start: read-through can begin anywhere in the read
        # (everything 3' of it is adapter + synthesis junk)
        for start in range(0, n - cfg.min_adapter_overlap + 1):
            overlap = min(n - start, full.size)
            window = sequence[start : start + overlap]
            mismatches = int((window != full[:overlap]).sum())
            if mismatches <= cfg.adapter_mismatch_rate * overlap:
                return start
        return None

    def quality_trim_point(self, qualities: np.ndarray) -> int:
        """Length to keep after 3' sliding-window quality trimming.

        Scans windows from the 3' end; the read is cut where the last
        window with mean quality >= floor ends.
        """
        cfg = self.config
        n = int(qualities.size)
        if n < cfg.quality_window:
            return n if qualities.size and qualities.mean() >= cfg.quality_floor else 0
        keep = n
        for end in range(n, cfg.quality_window - 1, -1):
            window = qualities[end - cfg.quality_window : end]
            if window.mean() >= cfg.quality_floor:
                return keep
            keep = end - 1
        return keep

    # -- record/stream level -----------------------------------------------

    def trim_record(
        self, record: FastqRecord, stats: TrimStats | None = None
    ) -> FastqRecord | None:
        """Trim one read; None when it falls below the length floor."""
        cfg = self.config
        seq, qual = record.sequence, record.qualities
        if stats is not None:
            stats.reads_in += 1
            stats.bases_in += int(seq.size)

        cut = self.find_adapter(seq)
        if cut is not None:
            seq, qual = seq[:cut], qual[:cut]
            if stats is not None:
                stats.adapters_trimmed += 1

        keep = self.quality_trim_point(qual)
        if keep < seq.size:
            seq, qual = seq[:keep], qual[:keep]
            if stats is not None:
                stats.quality_trimmed += 1

        if seq.size < cfg.min_length:
            if stats is not None:
                stats.reads_dropped += 1
            return None
        if stats is not None:
            stats.reads_out += 1
            stats.bases_out += int(seq.size)
        return FastqRecord(record.read_id, seq.copy(), qual.copy())

    def trim(self, records: Iterable[FastqRecord]) -> tuple[ReadBatch, TrimStats]:
        """Trim a whole sample read by read; returns (the kept reads packed
        into one batch, statistics)."""
        stats = TrimStats()
        kept = []
        for record in records:
            trimmed = self.trim_record(record, stats)
            if trimmed is not None:
                kept.append(trimmed)
        return ReadBatch.of(kept), stats


def contaminate_with_adapter(
    records: list[FastqRecord],
    *,
    fraction: float = 0.3,
    adapter: str = DEFAULT_ADAPTER,
    rng: np.random.Generator | int | None = None,
) -> list[FastqRecord]:
    """Test/demo utility: splice adapter read-through into some reads.

    For each affected read, everything 3' of a random cut point is
    replaced by the adapter sequence followed by random synthesis junk —
    what the sequencer produces when the insert is shorter than the read.
    """
    from repro.genome.alphabet import random_sequence
    from repro.util.rng import ensure_rng

    check_fraction("fraction", fraction)
    rng = ensure_rng(rng)
    adapter_codes = encode(adapter)
    out: list[FastqRecord] = []
    for record in records:
        if rng.random() >= fraction or record.length < 20:
            out.append(record)
            continue
        cut = int(rng.integers(record.length // 2, record.length - 5))
        seq = record.sequence.copy()
        tail_len = record.length - cut
        adapter_part = adapter_codes[: min(adapter_codes.size, tail_len)]
        seq[cut : cut + adapter_part.size] = adapter_part
        junk = tail_len - adapter_part.size
        if junk > 0:
            seq[cut + adapter_part.size :] = random_sequence(junk, rng, gc=0.5)
        out.append(FastqRecord(record.read_id, seq, record.qualities.copy()))
    return out
