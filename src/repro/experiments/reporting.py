"""One-shot report: every experiment's tables in a single document.

``generate_report`` runs all harnesses (optionally at reduced scale) and
renders a markdown-ish text document mirroring EXPERIMENTS.md's
structure — the artifact a reviewer regenerates to check the repo against
the paper.  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass


@dataclass(frozen=True)
class ReportScale:
    """How big the workloads in the report are."""

    corpus_size: int = 1000
    architecture_jobs: int = 120
    ablation_corpus: int = 1000
    mini_reads: int = 400
    hpc_jobs: int = 120

    @classmethod
    def quick(cls) -> "ReportScale":
        """Reduced scale for smoke runs (seconds instead of ~a minute)."""
        return cls(
            corpus_size=200,
            architecture_jobs=40,
            ablation_corpus=200,
            mini_reads=150,
            hpc_jobs=40,
        )


def generate_report(*, seed: int = 0, scale: ReportScale | None = None) -> str:
    """Run every harness and render the consolidated report."""
    from repro.core.atlas import AtlasConfig
    from repro.core.hpc import HpcConfig, run_hpc
    from repro.experiments.ablation import run_ablation
    from repro.experiments.architecture import run_architecture_sweep
    from repro.experiments.config_table import memory_fit_matrix, run_config_table
    from repro.experiments.corpus import CorpusSpec, generate_corpus
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.mini_fig3 import run_mini_fig3
    from repro.experiments.pseudo_comparison import (
        run_pseudo_comparison,
        run_transferability,
    )
    from repro.perf.calibration import calibrate
    from repro.perf.targets import summarize

    scale = scale or ReportScale()
    out = io.StringIO()

    def section(title: str) -> None:
        out.write(f"\n\n## {title}\n\n")

    out.write("# Reproduction report — STAR aligner HTC in the cloud "
              "(CLUSTER 2024)\n\n")
    out.write(f"seed={seed}; scales: corpus={scale.corpus_size}, "
              f"architecture={scale.architecture_jobs} jobs\n\n")
    out.write(summarize())
    out.write("\n\n")
    out.write(calibrate().to_text())

    section("Fig. 3 — genome release 108 vs 111")
    out.write(run_fig3(rng=seed).to_table(max_rows=10))

    section("Fig. 4 — early stopping")
    fig4 = run_fig4(spec=CorpusSpec(n_runs=scale.corpus_size), rng=seed)
    out.write(fig4.to_table(max_rows=15))

    section("Test configuration — index sizes per release")
    out.write(run_config_table().to_table())
    out.write("\n\n")
    out.write(memory_fit_matrix())

    section("Mini-Fig. 3 — real-aligner validation")
    out.write(run_mini_fig3(n_reads=scale.mini_reads, seed=42).to_table())

    section("Architecture sweep")
    out.write(
        run_architecture_sweep(
            n_jobs=scale.architecture_jobs, seed=seed
        ).to_table()
    )

    section("Ablation — early-stopping operating point")
    out.write(
        run_ablation(corpus_size=scale.ablation_corpus, seed=seed).to_table()
    )

    section("EXT-PSEUDO — applicability to other aligners")
    out.write(
        run_pseudo_comparison(
            spec=CorpusSpec(n_runs=scale.corpus_size), rng=seed
        ).to_table()
    )
    out.write("\n\n")
    out.write(run_transferability(n_reads=scale.mini_reads, seed=11).to_table())

    section("EXT-HPC — fixed-cluster mode")
    jobs = generate_corpus(CorpusSpec(n_runs=scale.hpc_jobs), rng=seed)
    report = run_hpc(jobs, AtlasConfig(seed=seed), HpcConfig(n_nodes=8))
    out.write(
        f"jobs={report.n_jobs} terminated={report.n_terminated} "
        f"makespan={report.makespan_seconds / 3600:.2f}h "
        f"node-hours={report.node_hours:.1f} "
        f"STAR-hours={report.star_hours_actual:.1f}\n"
    )

    section("FULL-ATLAS — the §II scope (7216 files / 17 TB), projected")
    from repro.experiments.full_atlas import run_full_atlas

    out.write(
        run_full_atlas(
            n_files=scale.architecture_jobs * 10, fleet=16, seed=seed
        ).to_table()
    )

    out.write("\n")
    return out.getvalue()
