"""The paper's contribution: the Transcriptomics Atlas pipeline and its
application-specific optimizations.

* :mod:`repro.core.pipeline` — the four-step pipeline (prefetch →
  fasterq-dump → STAR → DESeq2) over the local toolchain;
* :mod:`repro.core.early_stopping` — §III-B: abort alignments whose
  mapping rate is below threshold once enough reads were processed;
* :mod:`repro.core.rightsizing` — §III-A consequence: pick the smallest
  instance whose RAM fits the index;
* :mod:`repro.core.atlas` — the campaign core (one STAR-step resolver,
  job record and report base) and the cloud orchestration of Fig. 2 over
  the DES substrate (SQS + ASG + S3 + spot); :mod:`repro.core.faas_atlas`
  and :mod:`repro.core.hpc` run the same campaign on functions and on a
  fixed cluster;
* :mod:`repro.core.journal` — crash-consistent run journal powering
  checkpoint/resume and graceful drain;
* :mod:`repro.core.analytics` — early-stopping savings accounting used by
  the figures.
"""

from repro.core.analytics import EarlyStopSavings, compute_savings
from repro.core.atlas import AtlasConfig, AtlasJob, AtlasRunReport, run_atlas
from repro.core.early_stopping import (
    Decision,
    EarlyStoppingPolicy,
    EarlyStopMonitor,
)
from repro.core.hpc import HpcConfig, HpcRunReport, run_hpc
from repro.core.journal import (
    JournalCorrupt,
    JournalIncompatible,
    JournalReplay,
    RunJournal,
    config_fingerprint,
)
from repro.core.planner import (
    CampaignPlan,
    PlannerConstraints,
    plan_campaign,
)
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    PipelineResult,
    RunStatus,
    StepTiming,
    TranscriptomicsAtlasPipeline,
    drain_on_signals,
)
from repro.core.stages import (
    PipelineHealth,
    Stage,
    StageContext,
    StageMetrics,
    default_stages,
)
from repro.core.resilience import (
    FailureRecord,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PermanentFault,
    RetryLedger,
    RetryPolicy,
    StepFailed,
    TransientFault,
    run_with_retry,
)
from repro.core.rightsizing import RightSizingAdvisor, RightSizingChoice
from repro.core.trajectory import MappingTrajectory

__all__ = [
    "AtlasConfig",
    "AtlasJob",
    "AtlasRunReport",
    "BatchOptions",
    "CampaignPlan",
    "Decision",
    "EarlyStopMonitor",
    "EarlyStopSavings",
    "EarlyStoppingPolicy",
    "FailureRecord",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "HpcConfig",
    "HpcRunReport",
    "JournalCorrupt",
    "JournalIncompatible",
    "JournalReplay",
    "MappingTrajectory",
    "PermanentFault",
    "PipelineConfig",
    "PipelineHealth",
    "PipelineResult",
    "PlannerConstraints",
    "RetryLedger",
    "RetryPolicy",
    "RightSizingAdvisor",
    "RightSizingChoice",
    "RunJournal",
    "RunStatus",
    "Stage",
    "StageContext",
    "StageMetrics",
    "StepFailed",
    "StepTiming",
    "TranscriptomicsAtlasPipeline",
    "TransientFault",
    "compute_savings",
    "config_fingerprint",
    "default_stages",
    "drain_on_signals",
    "plan_campaign",
    "run_atlas",
    "run_hpc",
    "run_with_retry",
]
