"""Regenerate ``golden.json``: the canary accession's output digest per workload.

    python3 perfbench/make_golden.py

Run it only when a change is *meant* to alter alignment outputs; the
benchmark counts the canary as failed whenever its serial reference
output drifts from the stored digest.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    genome = workloads.Genome.build()
    cache_root = ROOT / ".perfbench" / "index-cache"
    work = ROOT / ".perfbench" / "golden"
    golden = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            shutil.rmtree(work, ignore_errors=True)
            inputs = workloads.generate(workload, workloads.CANARY_SEED, genome, work / "sra")
            digests = workloads.reference_digests(
                workload, genome, cache_root, inputs, work / "reference"
            )
            golden[name] = digests[inputs.accessions[0]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.golden_path().write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
