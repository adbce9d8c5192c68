"""Alternating parent/change pairs of the perfbench benchmark.

Runs ``perfbench/run.py`` once from a checkout of a parent revision and
once from the working tree per seed, alternating which side runs first,
and judges every end-to-end metric of ``BENCHMARK.json`` by the rule of
the choosing-metrics guide (section 8): a gain needs the change to win at
least nine tenths of the pairs (ties count for neither side) and the
medians to differ by more than the parent's interquartile range.

    python benchmarks/perf_pairs.py --parent HEAD~1 --workload bulk_se \\
        --seeds 41-50 [--seconds 25] [--out pairs.jsonl]

The parent is checked out into a temporary ``git worktree`` that is
removed at exit, also on SIGTERM.  Every run's result line is written to ``--out`` with
its side and seed.  The exit status is 1 when any run reports
``"correct": false`` (or none ran), else 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: share of pairs the change must win for a gain
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison over the pairs run."""

    parent: tuple[float, float, float]  # median, Q1, Q3
    change: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str  # "gain", "within bound", "unresolved" or "regression"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> Verdict:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]``).

    * gain — the change wins at least :data:`WIN_SHARE` of the pairs and
      its median beats the parent's by more than the parent's IQR;
    * regression — the change's median is worse than the parent's by
      more than ``bound`` (a fraction of the parent's median);
    * unresolved — neither, and either side's IQR is wider than
      ``bound``, unless every change run beats every parent run;
    * within bound — otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change sample per parent sample")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_median, p_q1, p_q3 = quartiles(parent)
    c_median, c_q1, c_q3 = quartiles(change)
    gap = sign * (c_median - p_median)
    allowed = bound * (abs(p_median) or 1.0)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1:
        label = "gain"
    elif -gap > allowed:
        label = "regression"
    elif max(p_q3 - p_q1, c_q3 - c_q1) > allowed and not separated:
        label = "unresolved"
    else:
        label = "within bound"
    return Verdict(
        (p_median, p_q1, p_q3), (c_median, c_q1, c_q3), wins, len(parent), label
    )


def parse_seeds(text: str) -> list[int]:
    """``"41-50"`` or ``"7"`` → the seeds."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout: Path, command: list[str], options: list[str]) -> dict:
    """One benchmark run from ``checkout``; returns its result line."""
    proc = subprocess.run(
        [*command, *options], cwd=checkout, capture_output=True, text=True
    )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{") and '"metrics"' in line:
            return json.loads(line)
    sys.stderr.write(proc.stderr)
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def report(spec: dict, runs: dict[str, list[dict]]) -> None:
    """Print each end-to-end metric's verdict and each side's failures."""
    print(f"{'metric':<16} {'parent median [Q1, Q3]':>30} {'change':>30}  wins verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sides = [
            [r["metrics"][name]["value"] for r in runs[side] if r["metrics"]]
            for side in ("parent", "change")
        ]
        if len(sides[0]) != len(sides[1]) or not sides[0]:
            print(f"{name:<16} (runs missing)")
            continue
        v = verdict(*sides, metric["better"], metric["bound"])
        parent, change = (
            "{:.6g} [{:.6g}, {:.6g}]".format(*stats) for stats in (v.parent, v.change)
        )
        wins = f"{v.wins}/{v.pairs}"
        print(f"{name:<16} {parent:>30} {change:>30} {wins:>5} {v.verdict}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {failed}/{attempted} operations failed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None, help="JSONL file of every run")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    out = Path(args.out or f"perf_pairs-{args.workload}-{args.seeds}.jsonl")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    # a terminated campaign still removes its worktree (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        worktree = Path(tmp) / "parent"
        add = ["git", "worktree", "add", "--detach", "--quiet", str(worktree)]
        subprocess.run([*add, args.parent], cwd=ROOT, check=True)
        try:
            with out.open("w") as fh:
                for k, seed in enumerate(seeds):
                    options = ["--workload", args.workload, "--seed", str(seed)]
                    options += ["--seconds", str(seconds), "--trace", "0"]
                    sides = [("parent", worktree), ("change", ROOT)]
                    for side, checkout in sides[:: 1 if k % 2 == 0 else -1]:
                        result = run_once(checkout, spec["command"], options)
                        runs[side].append(result)
                        line = {"side": side, "seed": seed, **result}
                        fh.write(json.dumps(line) + "\n")
                        fh.flush()
                        print(f"seed {seed} {side}: correct={result['correct']}")
        finally:
            remove = ["git", "worktree", "remove", "--force", str(worktree)]
            subprocess.run(remove, cwd=ROOT, check=False)

    print(f"\n{args.workload}: {len(seeds)} pairs of {seconds:g} s vs {args.parent}")
    report(spec, runs)
    print(f"results: {out}")
    incorrect = [r for results in runs.values() for r in results if not r["correct"]]
    return 1 if incorrect or not seeds else 0


if __name__ == "__main__":
    sys.exit(main())
