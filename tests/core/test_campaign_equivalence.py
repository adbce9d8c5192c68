"""Pins the campaign simulators' outputs: ASG, FaaS, HPC and the comparison.

``campaign_equivalence.json`` holds every per-job record field and every
report field of a set of campaigns.  Floats compare at ``rel=1e-12`` and
everything else exactly, so a change to the simulators that is meant to
keep their behaviour shows here as a failure the moment a value moves.

HPC jobs were first recorded before HPC used
:class:`~repro.core.atlas.JobRecord`, so their entries hold the fields
the two record types share, the node as instance id ``node-<i>``.

Re-record after a deliberate behaviour change with::

    PYTHONPATH=src python tests/core/test_campaign_equivalence.py [SCENARIO ...]
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cloud.autoscaling import ScalingPolicy
from repro.cloud.ec2 import InstanceMarket, SpotModel
from repro.core.atlas import AtlasConfig, AtlasJob, run_atlas
from repro.core.faas_atlas import ARCHITECTURES, compare_architectures, run_faas_atlas
from repro.core.hpc import HpcConfig, run_hpc
from repro.core.pipeline import RunStatus
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.experiments.faas_crossover import scale_jobs

FIXTURE = Path(__file__).with_name("campaign_equivalence.json")

#: derived report quantities pinned beside the dataclass fields
_DERIVED = {
    "AtlasRunReport": (
        "n_jobs",
        "n_terminated",
        "n_failed",
        "star_hours_actual",
        "star_hours_if_full",
        "star_hours_saved",
        "total_retries",
        "download_bytes_saved",
        "throughput_jobs_per_hour",
    ),
    "FaasAtlasReport": (
        "n_jobs",
        "n_terminated",
        "n_failed",
        "total_usd",
        "throughput_jobs_per_hour",
    ),
    "HpcRunReport": (
        "n_jobs",
        "n_terminated",
        "star_hours_actual",
        "star_hours_if_full",
        "throughput_jobs_per_hour",
    ),
}


def _plain(value):
    """JSON-ready copy of a record, report or any value inside one."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        out = {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        if hasattr(value, "total_usd"):  # CostReport, FaasBill
            out["total_usd"] = value.total_usd
        return out
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _report(report) -> dict:
    fields = _plain(report)
    fields.pop("jobs")
    for name in _DERIVED[type(report).__name__]:
        fields[name] = getattr(report, name)
    return {"jobs": [_plain(r) for r in report.jobs], "report": fields}


def _comparison(comparison) -> dict:
    return {
        "hybrid_read_threshold": comparison.hybrid_read_threshold,
        "points": [
            {
                **_plain(p),
                "cost_per_accession_usd": p.cost_per_accession_usd,
                "makespan_hours": p.makespan_hours,
            }
            for p in comparison.points
        ],
    }


def _asg_jobs() -> list[AtlasJob]:
    return generate_corpus(CorpusSpec(n_runs=30), rng=1)


def _faas_jobs() -> list[AtlasJob]:
    return generate_corpus(CorpusSpec(n_runs=20), rng=0)


def _oversized_job() -> AtlasJob:
    """One read whose scan alone overruns the function execution cap."""
    template = _faas_jobs()[0]
    return replace(
        template, accession="SRR_OVERSIZED", n_reads=1, fastq_bytes=2e11
    )


_ASG = AtlasConfig(
    instance_name="r6a.2xlarge",
    scaling=ScalingPolicy(max_size=4, messages_per_instance=4),
    seed=7,
)


SCENARIOS = {
    "asg_on_demand": lambda: _report(run_atlas(_asg_jobs(), _ASG)),
    "asg_spot_drain": lambda: _report(
        run_atlas(
            _asg_jobs(),
            replace(
                _ASG,
                market=InstanceMarket.SPOT,
                spot_model=SpotModel(mean_interruption_seconds=2000),
                visibility_timeout=1800.0,
            ),
        )
    ),
    "asg_streaming": lambda: _report(
        run_atlas(_asg_jobs(), replace(_ASG, streaming=True))
    ),
    "asg_replicated": lambda: _report(
        run_atlas(
            _asg_jobs(),
            replace(
                _ASG,
                market=InstanceMarket.SPOT,
                spot_model=SpotModel(mean_interruption_seconds=2 * 3600.0),
                visibility_timeout=1800.0,
                drain_on_warning=False,
                replicate_journal=True,
                seed=11,
            ),
        )
    ),
    "faas_paper_scale": lambda: _report(
        run_faas_atlas(_faas_jobs(), AtlasConfig(seed=0))
    ),
    "faas_scaled": lambda: _report(
        run_faas_atlas(scale_jobs(_faas_jobs(), 0.1), AtlasConfig(seed=0))
    ),
    "faas_no_early_stop": lambda: _report(
        run_faas_atlas(_faas_jobs(), AtlasConfig(early_stopping=None, seed=0))
    ),
    "faas_failed_shard": lambda: _report(
        run_faas_atlas(
            _faas_jobs()[:4] + [_oversized_job()], AtlasConfig(seed=0)
        )
    ),
    "hpc_shared_index": lambda: _report(
        run_hpc(_faas_jobs(), AtlasConfig(seed=3), HpcConfig(n_nodes=4))
    ),
    "hpc_reload_index": lambda: _report(
        run_hpc(
            _faas_jobs(),
            AtlasConfig(seed=3),
            HpcConfig(n_nodes=4, shared_memory_index=False),
        )
    ),
    "compare_architectures": lambda: _comparison(
        compare_architectures(
            _faas_jobs(), AtlasConfig(seed=0), architectures=ARCHITECTURES
        )
    ),
}


def _assert_same(expected, actual, path: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        missing = sorted(set(expected) - set(actual))
        assert not missing, f"{path}: missing {missing}"
        for key, value in expected.items():
            _assert_same(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(actual) == len(expected), f"{path}: length"
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same(e, a, f"{path}[{i}]")
    elif isinstance(expected, float) or isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(pinned):
    assert sorted(pinned) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_the_pinned_run(pinned, name):
    actual = json.loads(json.dumps(SCENARIOS[name]()))
    _assert_same(pinned[name], actual, name)


def test_scenarios_reach_the_paths_they_pin(pinned):
    """Each scenario exercises the mechanism it is named after."""
    drain = pinned["asg_spot_drain"]["report"]
    assert drain["jobs_drained"] > 0 and drain["cost"]["n_interrupted"] > 0
    assert pinned["asg_streaming"]["report"]["download_bytes_saved"] > 0
    assert pinned["asg_replicated"]["report"]["jobs_adopted"] > 0
    assert pinned["faas_paper_scale"]["report"]["cap_reshards"] > 0
    statuses = {
        j["status"] for j in pinned["faas_no_early_stop"]["jobs"]
    }
    assert RunStatus.REJECTED_FINAL.value in statuses
    failed = [
        j
        for j in pinned["faas_failed_shard"]["jobs"]
        if j["status"] == RunStatus.FAILED.value
    ]
    assert [j["accession"] for j in failed] == ["SRR_OVERSIZED"]
    archs = [p["architecture"] for p in pinned["compare_architectures"]["points"]]
    assert archs == list(ARCHITECTURES)


def test_every_architecture_gives_each_accession_the_same_status():
    """Statuses depend only on the trajectory and the policy, so one
    campaign config resolves every accession alike on all three: the same
    status, stopped at the same processed fraction."""
    jobs = generate_corpus(CorpusSpec(n_runs=120), rng=1)
    config = AtlasConfig(seed=1)
    reports = {
        "asg": run_atlas(jobs, config),
        "faas": run_faas_atlas(jobs, config),
        "hpc": run_hpc(jobs, config),
    }
    outcomes = {
        name: {j.accession: (j.status, j.stop_fraction) for j in report.jobs}
        for name, report in reports.items()
    }
    assert outcomes["asg"] == outcomes["faas"] == outcomes["hpc"]
    counts = {
        status: sum(1 for s, _ in outcomes["asg"].values() if s is status)
        for status in RunStatus
    }
    assert counts[RunStatus.ACCEPTED] == 115
    assert counts[RunStatus.REJECTED_EARLY] == 5


def record(names: list[str]) -> None:
    """Re-record the named scenarios (all when none are named)."""
    data = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    for name in names or sorted(SCENARIOS):
        data[name] = SCENARIOS[name]()
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    record(sys.argv[1:])
    print(f"wrote {FIXTURE}")
