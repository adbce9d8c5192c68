"""perfbench's hook counters against the program's own counters.

``perfbench/spans.py`` counts batch reads, seed queries and extensions
by reading arguments and results of the functions it wraps:
``len(args[1])`` of ``align_read_batch``, ``len(args[2])`` of
``batch_mmp``, and ``len(args[2])`` and ``value[1].sum()`` of
``batch_ungapped_extend``.  A reordered signature or result would still
resolve, so the benchmark's "hooks not found" check would pass while the
counts went wrong.  This test installs the benchmark's hooks, aligns one
small batch through the batch core, and holds those counts to
:class:`~repro.align.suffix_array.SeedSearchStats`, to the number of
reads aligned and to the per-pair extension oracle.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.align.batch as batch_mod
from repro.align.extend import ungapped_extend
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


def test_hook_counters_match_the_search_counters(
    spans, index_r111, bulk_sample, monkeypatch
):
    records = list(bulk_sample.records[:48])
    aligner = StarAligner(index_r111, StarParameters(batch_align=True))
    stats = index_r111.search_context.stats
    # every (segment, position) pair the batch core extends, with its budget
    pairs = []
    kernel = batch_mod.batch_ungapped_extend

    def recording_kernel(index, bases, offsets, lengths, starts, **kwargs):
        budget = kwargs["max_mismatches"]
        for off, length, start in zip(offsets, lengths, starts):
            pairs.append((bases[off : off + length].copy(), int(start), budget))
        return kernel(index, bases, offsets, lengths, starts, **kwargs)

    # installed under the hook, so the hook sees the kernel's own arguments
    monkeypatch.setattr(batch_mod, "batch_ungapped_extend", recording_kernel)
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
    # every extension of the batch goes through batch_ungapped_extend
    assert tracer.counters["extend.candidates"] == len(pairs) > 0
    accepted = sum(
        ungapped_extend(index_r111, seg, start, max_mismatches=budget).ok
        for seg, start, budget in pairs
    )
    assert tracer.counters["extend.accepted"] == accepted
