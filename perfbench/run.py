"""Atlas-batch benchmark: one command, closed loop, single client.

    python3 perfbench/run.py --workload bulk_se --seed 1 --seconds 25 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json`` at the
repository root; ``bench.py`` describes what one run does.  The program
under test is imported from ``src/`` of the checkout this file sits in,
so a directory without those sources fails fast with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
