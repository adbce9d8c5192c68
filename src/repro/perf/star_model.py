"""Calibrated STAR runtime model.

Decomposes an alignment run as

    t = t_setup + scanned_fraction * fastq_bytes / throughput

where throughput is per-vCPU base throughput divided by a *difficulty
factor* that grows with the release's duplication factor (toplevel /
chromosome bases): duplicated scaffolds multiply seed hits, and each extra
candidate locus costs extension work, so difficulty ≈ dup^α with α
calibrated (see :mod:`repro.perf.calibration`) so that r108 vs r111
reproduces the paper's >12× weighted speedup.  The linear-in-scanned-
fraction term is what makes early stopping save (1 − f) of a run's scan
time — alignment is a streaming pass over reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.genome.ensembl import EnsemblRelease, ReleaseSpec, release_spec
from repro.perf.targets import PAPER
from repro.util.rng import ensure_rng, mean_one_lognormal
from repro.util.units import Bytes, Duration
from repro.util.validation import check_fraction, check_positive


#: Anchor point of the throughput fit: the mean Fig. 3 file (15.9 GiB) takes
#: ~7.5 minutes of scan time on 16 vCPUs with the r111 index — consistent
#: with the ≈9.3 min/run mean implied by the paper's 155.8 h / 1000 runs.
_ANCHOR_SCAN_SECONDS = 450.0
_DEFAULT_SETUP_SECONDS = 40.0


def _calibrated_alpha() -> float:
    """Difficulty exponent α such that the *wall-time* ratio at the mean
    Fig. 3 file equals the target 12× — i.e. the required scan-time ratio
    is inflated to compensate for the fixed setup cost both runs pay:

        R = S + (S/scan111 + 1) · (target − 1),  α = ln R / ln(dup108/dup111)
    """
    dup108 = release_spec(EnsemblRelease.R108).duplication_factor
    dup111 = release_spec(EnsemblRelease.R111).duplication_factor
    target = PAPER.fig3_weighted_speedup
    setup_ratio = _DEFAULT_SETUP_SECONDS / _ANCHOR_SCAN_SECONDS
    required_scan_ratio = target + (target - 1.0) * setup_ratio
    return math.log(required_scan_ratio) / math.log(dup108 / dup111)


def _calibrated_throughput() -> float:
    """Per-vCPU FASTQ throughput (bytes/s) with the r111 index.

    Anchored at :data:`_ANCHOR_SCAN_SECONDS` for the Fig. 3 configuration.
    The value ≈ 2.4 MB/s/vCPU is also in the ballpark of published STAR
    throughput on EPYC cores.
    """
    return PAPER.fig3_mean_fastq_bytes / (_ANCHOR_SCAN_SECONDS * PAPER.instance_vcpus)


@dataclass(frozen=True)
class StarRuntimeBreakdown:
    """One run's predicted wall time, split into its parts."""

    setup_seconds: float
    scan_seconds: float
    scanned_fraction: float

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.scan_seconds

    @property
    def full_scan_seconds(self) -> float:
        """Scan time had the run gone to completion."""
        if self.scanned_fraction <= 0:
            return 0.0
        return self.scan_seconds / self.scanned_fraction


@dataclass(frozen=True)
class StarPerfModel:
    """Analytical STAR wall-time model, deterministic given its constants."""

    #: per-vCPU FASTQ scan throughput against a duplication-free index, B/s
    base_throughput_per_vcpu: float = field(default_factory=_calibrated_throughput)
    #: difficulty exponent over the duplication factor
    difficulty_alpha: float = field(default_factory=_calibrated_alpha)
    #: fixed per-run setup (open files, attach shm index, write outputs), s
    setup_seconds: float = _DEFAULT_SETUP_SECONDS
    #: multiplicative lognormal runtime noise (sigma); 0 disables
    noise_sigma: float = 0.08
    #: thread scaling saturates: effective vcpus = min(vcpus, saturation)
    vcpu_saturation: int = 32

    def difficulty(self, spec: ReleaseSpec) -> float:
        """Search-cost multiplier of a release's index (1.0 = no duplication)."""
        return spec.duplication_factor**self.difficulty_alpha

    def throughput(self, spec: ReleaseSpec, vcpus: int) -> float:
        """FASTQ bytes/second for a full instance against ``spec``'s index."""
        check_positive("vcpus", vcpus)
        effective = min(vcpus, self.vcpu_saturation)
        return self.base_throughput_per_vcpu * effective / self.difficulty(spec)

    def predict(
        self,
        fastq_bytes: Bytes,
        release: EnsemblRelease | int | ReleaseSpec,
        vcpus: int,
        *,
        scanned_fraction: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> StarRuntimeBreakdown:
        """Predict one run's wall time.

        ``scanned_fraction < 1`` models an early-stopped run (the setup cost
        is still paid in full).  Passing ``rng`` adds the lognormal run-to-
        run noise; omit it for the deterministic expectation.
        """
        check_positive("fastq_bytes", fastq_bytes)
        check_fraction("scanned_fraction", scanned_fraction)
        spec = release if isinstance(release, ReleaseSpec) else release_spec(release)
        scan = scanned_fraction * fastq_bytes / self.throughput(spec, vcpus)
        if rng is not None:
            scan *= mean_one_lognormal(ensure_rng(rng), self.noise_sigma)
        return StarRuntimeBreakdown(
            setup_seconds=self.setup_seconds,
            scan_seconds=scan,
            scanned_fraction=scanned_fraction,
        )

    def speedup(
        self,
        fastq_bytes: Bytes,
        old: EnsemblRelease | int,
        new: EnsemblRelease | int,
        vcpus: int,
    ) -> float:
        """Wall-time ratio old/new for one file (deterministic)."""
        t_old = self.predict(fastq_bytes, old, vcpus).total_seconds
        t_new = self.predict(fastq_bytes, new, vcpus).total_seconds
        return t_old / t_new


def weighted_mean_speedup(
    model: StarPerfModel,
    fastq_sizes: np.ndarray,
    old: EnsemblRelease | int,
    new: EnsemblRelease | int,
    vcpus: int,
) -> float:
    """FASTQ-size-weighted mean per-file speedup — the paper's Fig. 3 metric."""
    sizes = np.asarray(fastq_sizes, dtype=float)
    if sizes.size == 0:
        raise ValueError("no files")
    speedups = np.array(
        [model.speedup(s, old, new, vcpus) for s in sizes]
    )
    return float((speedups * sizes).sum() / sizes.sum())


def early_stop_time_saved(
    breakdown_full: StarRuntimeBreakdown, stop_fraction: float
) -> Duration:
    """Seconds saved by stopping a run at ``stop_fraction`` of its reads."""
    check_fraction("stop_fraction", stop_fraction)
    return (1.0 - stop_fraction) * breakdown_full.full_scan_seconds
