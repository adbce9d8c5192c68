"""Performance model of a Salmon-like pseudo-aligner.

Published Salmon/kallisto benchmarks put pseudo-alignment roughly an
order of magnitude faster than STAR on the same hardware; its index is a
*transcriptome* k-mer map, so — unlike STAR's genome suffix array — its
size and speed barely react to the genomic scaffold duplication that
drives the paper's §III-A effect.  What it lacks (the paper's point) is a
progress mapping-rate stream: no early stopping is possible unless the
tool is extended to report one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perf.star_model import StarPerfModel, StarRuntimeBreakdown
from repro.util.rng import ensure_rng, mean_one_lognormal
from repro.util.units import Bytes
from repro.util.validation import check_fraction, check_positive


@dataclass(frozen=True)
class PseudoPerfModel:
    """Wall-time model for the pseudo-aligner baseline.

    Parametrized *relative* to the STAR model so the two stay comparable
    under recalibration: pseudo throughput = ``speed_factor`` × STAR's
    duplication-free throughput.
    """

    star_model: StarPerfModel = field(default_factory=StarPerfModel)
    #: pseudo-alignment speed relative to STAR on a duplication-free index
    speed_factor: float = 8.0
    #: index load + startup, much lighter than STAR's (small index)
    setup_seconds: float = 10.0
    #: transcriptome index size (vs STAR's ~30 GiB genome index)
    index_bytes: float = 800e6

    def __post_init__(self) -> None:
        check_positive("speed_factor", self.speed_factor)
        check_positive("setup_seconds", self.setup_seconds)
        check_positive("index_bytes", self.index_bytes)

    def throughput(self, vcpus: int) -> float:
        """FASTQ bytes/second for a full instance."""
        check_positive("vcpus", vcpus)
        effective = min(vcpus, self.star_model.vcpu_saturation)
        return self.speed_factor * self.star_model.base_throughput_per_vcpu * effective

    def predict(
        self,
        fastq_bytes: Bytes,
        vcpus: int,
        *,
        scanned_fraction: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> StarRuntimeBreakdown:
        """Predict one pseudo-alignment's wall time.

        ``scanned_fraction < 1`` models a *hypothetical* progress-enabled
        pseudo-aligner (the extension the paper's conclusions call for);
        the stock tool always runs with 1.0.
        """
        check_positive("fastq_bytes", fastq_bytes)
        check_fraction("scanned_fraction", scanned_fraction)
        scan = scanned_fraction * fastq_bytes / self.throughput(vcpus)
        if rng is not None:
            scan *= mean_one_lognormal(ensure_rng(rng), self.star_model.noise_sigma)
        return StarRuntimeBreakdown(
            setup_seconds=self.setup_seconds,
            scan_seconds=scan,
            scanned_fraction=scanned_fraction,
        )
