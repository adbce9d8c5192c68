"""Early stopping for STAR alignment (§III-B).

The optimization: STAR's ``Log.progress.out`` reports the current percent
of mapped reads.  The atlas only keeps runs with an acceptable final
mapping rate (above 30%), and the paper's analysis of 1000 progress logs
showed that once ≥10% of a run's reads are processed the current rate
already predicts acceptance — so low-rate runs can be aborted there,
saving ~19.5% of total STAR time.

:class:`EarlyStoppingPolicy` is a pure decision rule over
:class:`~repro.align.progress.ProgressRecord` values;
:class:`EarlyStopMonitor` adapts it to the aligner's monitor hook and
keeps the decision trace.  :meth:`EarlyStoppingPolicy.abort_fraction`
drives the campaign simulations, where progress is synthesized from
mapping-rate trajectories.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.align.progress import ProgressRecord
from repro.core.trajectory import MappingTrajectory
from repro.util.validation import check_fraction


class Decision(enum.Enum):
    """Monitor verdict for one progress snapshot."""

    CONTINUE = "continue"
    ABORT = "abort"

    @property
    def should_continue(self) -> bool:
        return self is Decision.CONTINUE


@dataclass(frozen=True)
class EarlyStoppingPolicy:
    """The paper's rule: abort when mapped% < threshold after ≥ check fraction.

    Defaults are the published operating point: ``mapping_threshold=0.30``
    (the atlas's acceptance bar) and ``check_fraction=0.10`` (enough reads
    to decide safely).  ``min_reads`` guards tiny runs where percentages
    are noise.
    """

    mapping_threshold: float = 0.30
    check_fraction: float = 0.10
    min_reads: int = 100

    def __post_init__(self) -> None:
        check_fraction("mapping_threshold", self.mapping_threshold)
        check_fraction("check_fraction", self.check_fraction)
        if self.min_reads < 0:
            raise ValueError("min_reads must be non-negative")

    def decide(self, record: ProgressRecord) -> Decision:
        """Decision for one snapshot.

        Abstains (CONTINUE) before the check point; after it, aborts iff
        the current mapped fraction is below the threshold.
        """
        if record.reads_processed < self.min_reads:
            return Decision.CONTINUE
        if record.reads_total <= 0:
            return Decision.CONTINUE  # unknown total: never enough evidence
        # The half-read tolerance absorbs count rounding: a snapshot taken
        # at "10% of reads" may be half a read short of the exact fraction.
        if record.reads_processed < self.check_fraction * record.reads_total - 0.5:
            return Decision.CONTINUE
        if record.mapped_fraction < self.mapping_threshold:
            return Decision.ABORT
        return Decision.CONTINUE

    def decide_rate(self, mapped_fraction: float, processed_fraction: float) -> Decision:
        """Trajectory-level variant used by the cloud simulation."""
        check_fraction("mapped_fraction", mapped_fraction)
        check_fraction("processed_fraction", processed_fraction)
        if processed_fraction < self.check_fraction:
            return Decision.CONTINUE
        if mapped_fraction < self.mapping_threshold:
            return Decision.ABORT
        return Decision.CONTINUE

    def abort_fraction(
        self, trajectory: MappingTrajectory, n_snapshots: int
    ) -> float | None:
        """Where this policy aborts a run whose rate follows ``trajectory``.

        The simulated ``Log.progress.out``: the rate is checked at
        ``n_snapshots`` evenly spaced processed fractions, and the first
        one the policy aborts at is returned (None if it never fires).
        """
        for i in range(1, n_snapshots + 1):
            f = i / n_snapshots
            if self.decide_rate(trajectory.rate_at(f), f) is Decision.ABORT:
                return f
        return None

    def accepts_final(self, mapped_fraction: float) -> bool:
        """Whether a *completed* run meets the atlas acceptance bar."""
        return mapped_fraction >= self.mapping_threshold


@dataclass
class EarlyStopMonitor:
    """Stateful adapter: feeds a policy from progress records.

    Use :meth:`hook` as the ``monitor=`` argument of
    :meth:`repro.align.star.StarAligner.run`.  After the run,
    ``aborted``/``abort_record`` say whether and where the monitor fired.

    ``on_abort`` (optional) is called exactly once, with the triggering
    record, the first time the policy fires — the streaming pipeline
    registers the in-flight download's cancellation there, so aborting
    mid-stream saves the un-downloaded bytes, not just align time.
    """

    policy: EarlyStoppingPolicy = field(default_factory=EarlyStoppingPolicy)
    records: list[ProgressRecord] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    aborted: bool = False
    abort_record: ProgressRecord | None = None
    on_abort: Callable[[ProgressRecord], None] | None = None

    def observe(self, record: ProgressRecord) -> Decision:
        """Record a snapshot and return the policy decision."""
        self.records.append(record)
        decision = self.policy.decide(record)
        self.decisions.append(decision)
        if decision is Decision.ABORT and not self.aborted:
            self.aborted = True
            self.abort_record = record
            if self.on_abort is not None:
                self.on_abort(record)
        return decision

    def hook(self, record: ProgressRecord) -> bool:
        """Aligner monitor signature: True = keep going."""
        return self.observe(record).should_continue

    @property
    def stop_fraction(self) -> float | None:
        """Fraction of reads processed when the abort fired (None if never)."""
        if self.abort_record is None:
            return None
        return self.abort_record.processed_fraction


def replay_policy(
    policy: EarlyStoppingPolicy, records: list[ProgressRecord]
) -> tuple[bool, ProgressRecord | None]:
    """Apply a policy to a *finished* run's progress log (offline analysis).

    This mirrors the paper's methodology: they analyzed 1000 existing
    ``Log.progress.out`` files to find where termination would have
    happened.  Returns (would_abort, record_at_abort).
    """
    for record in records:
        if policy.decide(record) is Decision.ABORT:
            return True, record
    return False, None
