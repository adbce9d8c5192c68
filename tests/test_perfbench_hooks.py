"""perfbench's hook counters against the program's own counters.

``perfbench/spans.py`` counts batch reads and seed queries by reading
arguments of the functions it wraps: ``len(args[1])`` of
``align_read_batch`` and ``len(args[2])`` of ``batch_mmp``.  A reordered
signature would still resolve, so the benchmark's "hooks not found"
check would pass while the counts went wrong.  This test installs the
benchmark's hooks, aligns one small batch through the batch core, and
holds those counts to :class:`~repro.align.suffix_array.SeedSearchStats`
and to the number of reads aligned.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.align.star import StarAligner, StarParameters

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    """``perfbench/spans.py`` as a module (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_hook_counters_match_the_search_counters(spans, index_r111, bulk_sample):
    records = list(bulk_sample.records[:48])
    aligner = StarAligner(index_r111, StarParameters(batch_align=True))
    stats = index_r111.search_context.stats
    tracer = spans.Tracer()
    installation = spans.Installation(tracer, spans.HOOKS, spans=True)
    try:
        before = stats.snapshot()
        outcomes = aligner.align_batch(records)
        delta = stats.since(before)
    finally:
        installation.remove()

    assert tracer.missing == []
    assert tracer.counters["batch.reads"] == len(records) == len(outcomes)
    # every query of the batch core goes through batch_mmp
    assert delta["batch_queries"] == delta["queries"] >= 2 * len(records)
    assert tracer.counters["batch.seed_queries"] == delta["queries"]
