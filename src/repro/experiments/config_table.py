"""The §III-A "Test configuration" block, regenerated from the models.

Paper values:

* Instance Type: r6a.4xlarge (16 vCPU, 128 GB RAM)
* Input: 49 FASTQ files (15.9 GiB mean size, 777 GiB total)
* Index size: 85 GiB (release 108), 29.5 GiB (release 111)

plus, as a derived table, which r6a instance each release's index fits —
the "smaller and cheaper instances" claim quantified.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.ec2 import INSTANCE_CATALOG, cheapest_fitting, instance_type
from repro.genome.ensembl import RELEASE_CATALOG
from repro.perf.index_model import IndexModel
from repro.perf.targets import PAPER, PaperTargets
from repro.util.tables import Table
from repro.util.units import GIB


@dataclass(frozen=True)
class ReleaseIndexRow:
    """One release's index footprint and cheapest hosting instance."""

    release: int
    toplevel_gbases: float
    index_bytes: float
    smallest_instance: str
    hourly_usd: float


@dataclass
class ConfigTableResult:
    """Model-predicted configuration table across the release catalog."""

    rows: list[ReleaseIndexRow]
    targets: PaperTargets

    def row(self, release: int) -> ReleaseIndexRow:
        for r in self.rows:
            if r.release == release:
                return r
        raise KeyError(f"release {release} not in table")

    @property
    def predicted_r108_bytes(self) -> float:
        return self.row(108).index_bytes

    @property
    def predicted_r111_bytes(self) -> float:
        return self.row(111).index_bytes

    def to_table(self) -> str:
        t = self.targets
        table = Table(
            ["release", "toplevel Gb", "index GiB", "cheapest r6a", "$/h"],
            title="Test configuration — index size per Ensembl release",
        )
        for r in self.rows:
            table.add_row(
                [
                    r.release,
                    f"{r.toplevel_gbases:.2f}",
                    f"{r.index_bytes / GIB:.1f}",
                    r.smallest_instance,
                    f"{r.hourly_usd:.4f}",
                ]
            )
        itype = instance_type(t.instance_type)
        footer = (
            f"\npaper instance: {t.instance_type} "
            f"({itype.vcpus} vCPU, {itype.memory_gib:.0f} GiB, "
            f"${itype.on_demand_hourly_usd:.4f}/h)\n"
            f"input: {t.fig3_n_files} FASTQ files, "
            f"mean {t.fig3_mean_fastq_bytes / GIB:.1f} GiB, "
            f"total {t.fig3_total_fastq_bytes / GIB:.0f} GiB\n"
            f"paper index sizes: r108 {t.index_bytes_r108 / GIB:.1f} GiB, "
            f"r111 {t.index_bytes_r111 / GIB:.1f} GiB"
        )
        return table.render() + footer


def run_config_table(
    *,
    index_model: IndexModel | None = None,
    memory_overhead: float = 6e9,
    targets: PaperTargets = PAPER,
) -> ConfigTableResult:
    """Build the configuration table for every catalogued release."""
    model = index_model or IndexModel()
    rows: list[ReleaseIndexRow] = []
    for release in sorted(RELEASE_CATALOG):
        spec = RELEASE_CATALOG[release]
        index_bytes = model.index_bytes(spec)
        memory = model.memory_required_bytes(spec, overhead=memory_overhead)
        itype = cheapest_fitting(memory, family="r6a", min_vcpus=1)
        rows.append(
            ReleaseIndexRow(
                release=int(release),
                toplevel_gbases=spec.toplevel_bases / 1e9,
                index_bytes=index_bytes,
                smallest_instance=itype.name,
                hourly_usd=itype.on_demand_hourly_usd,
            )
        )
    return ConfigTableResult(rows=rows, targets=targets)


def memory_fit_matrix(
    *, index_model: IndexModel | None = None, memory_overhead: float = 6e9
) -> str:
    """Render which r6a sizes can host which release's index."""
    model = index_model or IndexModel()
    r6a = sorted(
        (t for t in INSTANCE_CATALOG.values() if t.family == "r6a"),
        key=lambda t: t.memory_bytes,
    )
    table = Table(
        ["instance", "RAM GiB"] + [f"r{int(r)}" for r in sorted(RELEASE_CATALOG)],
        title="Index fits in RAM?",
    )
    for itype in r6a:
        cells = [itype.name, f"{itype.memory_gib:.0f}"]
        for release in sorted(RELEASE_CATALOG):
            need = model.memory_required_bytes(
                RELEASE_CATALOG[release], overhead=memory_overhead
            )
            cells.append("yes" if need <= itype.memory_bytes else "-")
        table.add_row(cells)
    return table.render()
