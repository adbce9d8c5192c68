"""FAAS bench: the serverless cost/makespan crossover.

Runs the same rescaled corpus through the three architectures (ASG
instance fleet, scatter-gather functions, size-routed hybrid) and
records the cost-per-accession bars to ``BENCH_faas.json`` at the repo
root.  The shape claims:

* small-archive regime: serverless is strictly cheaper per accession
  (per-instance boot + index-load overheads dominate the fleet's bill);
* paper-scale regime: the fleet is cheaper (GB-second pricing on
  function-sized vCPU slices loses to bin-packed instances), while
  serverless still wins on makespan via its massive fan-out;
* the 15-minute execution cap is a live constraint at paper scale —
  the duration-noise tail pushes some shards over it, and they are
  billed at the cap and re-scattered (``cap_reshards > 0``).

Also runnable directly, asserting the same bars (the CI smoke path runs
it at 20 jobs)::

    PYTHONPATH=src python benchmarks/test_bench_faas.py --jobs 20

The script rewrites ``BENCH_faas.json`` only at the record's own size
(``--jobs 60 --seed 0``, the defaults); any other size just prints the
table and checks the bars.
"""

import json
from pathlib import Path

from repro.experiments.faas_crossover import run_faas_crossover

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_faas.json"


#: the committed record's campaign size and seed
RECORD_JOBS = 60
RECORD_SEED = 0


def measure(n_jobs: int = RECORD_JOBS, seed: int = RECORD_SEED) -> dict:
    """Run the sweep and return the ``BENCH_faas.json`` record."""
    result = run_faas_crossover(n_jobs=n_jobs, seed=seed)
    record = result.to_json()
    record["table"] = result.to_table()
    return record, result


def check(result) -> None:
    """The FAAS bars, asserted by the bench and by the script mode alike."""
    scales = sorted(p.scale for p in result.points)
    smallest = result.point(scales[0])
    full = result.point(1.0)

    # serverless wins the small-archive regime, the fleet wins at paper scale
    assert smallest.faas_wins
    assert smallest.faas_usd_per_accession < 0.5 * smallest.asg_usd_per_accession
    assert not full.faas_wins
    assert result.crossover_scale is not None
    assert result.crossover_scale < 1.0

    # fan-out still buys makespan even where it loses on cost
    assert full.faas_makespan_hours < full.asg_makespan_hours

    # the execution cap is a live constraint at paper scale
    assert full.faas_cap_reshards > 0

    # cold starts are accounted and bounded
    assert 0.0 < full.faas_cold_start_share <= 1.0


def test_bench_faas(once):
    record, result = once(measure, RECORD_JOBS)
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(result.to_table())
    check(result)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=RECORD_JOBS)
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    args = parser.parse_args()
    record, result = measure(args.jobs, args.seed)
    print(result.to_table())
    if (args.jobs, args.seed) == (RECORD_JOBS, RECORD_SEED):
        OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    check(result)
    print("all FAAS bars hold")
