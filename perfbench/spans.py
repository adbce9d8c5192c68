"""Span tracing from outside the program.

The benchmark records spans by wrapping public functions of the
``repro`` modules at run time; the program's source is untouched.  Each
:class:`Hook` names one function, the span it records, and the counters
it feeds.  Spans nest per thread, so a span's *self* time is its
duration minus the spans it called.  A hook whose target no longer
exists is skipped and listed in :attr:`Tracer.missing`, so the
benchmark keeps running across refactors and says which span it lost.

Two modes share the hooks:

* the *accession clock* (untraced runs) installs only the hooks that
  open or close an accession's latency window, and records nothing else;
* the *full trace* installs every hook.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

#: journal record types that end an accession's run
_TERMINAL_RECORDS = frozenset({"completed", "failed", "drained"})


@dataclass(frozen=True)
class Hook:
    """One wrapped function: ``target`` is ``"module:Qualified.name"``."""

    target: str
    span: str
    #: "call", "gen" (time each ``next``) or "classmethod"
    kind: str = "call"
    #: the span's self time is layer work; False marks pipeline glue,
    #: whose self time is left in the residual
    layer: bool = True
    #: (args, kwargs) -> accession whose latency window this call opens
    opens: Callable | None = None
    #: (args, kwargs) -> accession whose latency window this call may close
    closes: Callable | None = None
    #: (tracer, args, kwargs, value) -> None; value is the return value,
    #: or each yielded item for generators
    count: Callable | None = None


class Tracer:
    """Per-thread span stacks, span totals, counters and accession windows."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.main_thread = threading.get_ident()
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: self time of layer spans on the thread that calls run_batch
        self.main_layer_self_s = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.opened: dict[str, float] = {}
        self.closed: dict[str, float] = {}
        #: (accession, start, end) of every shard checkpoint recorded
        self.shards: list[tuple[str, int, int]] = []

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def open_window(self, accession: str, at: float) -> None:
        with self._lock:
            if accession not in self.opened or at < self.opened[accession]:
                self.opened[accession] = at

    def close_window(self, accession: str, at: float) -> None:
        with self._lock:
            if at > self.closed.get(accession, 0.0):
                self.closed[accession] = at

    def latencies(self) -> dict[str, float]:
        """Accession -> seconds from its first stage start to its result."""
        return {
            acc: self.closed[acc] - start
            for acc, start in self.opened.items()
            if acc in self.closed
        }

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def enter(self, name: str, layer: bool) -> list:
        frame = [name, layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, layer, start, children = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        own = duration - children
        with self._lock:
            self.total_s[name] += duration
            self.self_s[name] += own
            if layer and threading.get_ident() == self.main_thread:
                self.main_layer_self_s += own
        return end


def _resolve(target: str):
    """(owner, attribute name, current value) for a hook target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _call_wrapper(tracer: Tracer, hook: Hook, fn: Callable, spans: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook.opens is not None:
            tracer.open_window(hook.opens(args, kwargs), time.perf_counter())
        frame = tracer.enter(hook.span, hook.layer) if spans else None
        try:
            value = fn(*args, **kwargs)
        finally:
            end = tracer.leave(frame) if spans else time.perf_counter()
            if hook.closes is not None:
                accession = hook.closes(args, kwargs)
                if accession is not None:
                    tracer.close_window(accession, end)
        if spans and hook.count is not None:
            hook.count(tracer, args, kwargs, value)
        return value

    return wrapper


def _gen_wrapper(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.enter(hook.span, hook.layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame)
                if hook.count is not None:
                    hook.count(tracer, args, kwargs, item)
                yield item
        finally:
            inner.close()

    return wrapper


class Installation:
    """Hooks patched into the live modules; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer, hooks: tuple[Hook, ...], *, spans: bool) -> None:
        self._saved: list[tuple[object, str, object]] = []
        for hook in hooks:
            if not spans and hook.opens is None and hook.closes is None:
                continue
            try:
                owner, attr, original = _resolve(hook.target)
            except (ImportError, AttributeError, KeyError):
                if hook.target not in tracer.missing:
                    tracer.missing.append(hook.target)
                continue
            if hook.kind == "classmethod":
                replacement = classmethod(
                    _call_wrapper(tracer, hook, original.__func__, spans)
                )
            elif hook.kind == "gen":
                replacement = _gen_wrapper(tracer, hook, original)
            else:
                replacement = _call_wrapper(tracer, hook, original, spans)
            setattr(owner, attr, replacement)
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- accession windows and counters ----------------------------------------


def _ctx_accession(args, kwargs):
    return args[1].accession


def _stream_accession(args, kwargs):
    return args[0].accession


def _terminal_accession(args, kwargs):
    record = args[1]
    return record.get("acc") if record.get("t") in _TERMINAL_RECORDS else None


def _counter(name: str) -> Callable:
    return lambda tracer, args, kwargs, value: tracer.add(name)


def _sra_bytes(tracer, args, kwargs, value):
    ctx = args[1]
    tracer.add("sra.bytes", ctx.sra_path.stat().st_size)


def _batch_reads(tracer, args, kwargs, value):
    tracer.add("batch.reads", len(args[1]))


def _seed_queries(tracer, args, kwargs, value):
    tracer.add("batch.seed_queries", len(args[2]))


def _extensions(tracer, args, kwargs, value):
    tracer.add("extend.candidates", len(args[2]))
    tracer.add("extend.accepted", int(value[1].sum()))


def _s3_put(tracer, args, kwargs, value):
    size = kwargs["size_bytes"] if "size_bytes" in kwargs else args[2]
    tracer.add("replication.s3_puts")
    tracer.add("replication.s3_bytes", float(size))


def _shard(tracer, args, kwargs, value):
    checkpointer, start, end = args[0], args[1], args[2]
    tracer.add("checkpoint.shards")
    # checkpoints are recorded by the engine's merge loop, on one thread
    tracer.shards.append((checkpointer.accession, start, end))


_tally = _counter("counts.calls")

#: every span the benchmark records, grouped by the layer it measures
HOOKS: tuple[Hook, ...] = (
    # reads.sra / reads.fastq
    Hook("repro.core.stages:PrefetchStage.run", "sra.prefetch", opens=_ctx_accession),
    Hook("repro.core.stages:FasterqDumpStage.run", "sra.fasterq_dump", count=_sra_bytes),
    Hook("repro.core.stages:iter_fastq", "fastq.parse", kind="gen"),
    Hook("repro.core.stages:AlignStage.run", "stage.align", layer=False, closes=_ctx_accession),
    # reads.stream: the downloader thread's decode, the simulated link,
    # and the align thread's wait for the next chunk
    Hook("repro.reads.stream:SraStream.open", "stream.decode", opens=_stream_accession),
    Hook(
        "repro.reads.stream:SraStream.chunks",
        "stream.decode",
        kind="gen",
        count=_counter("stream.chunks"),
    ),
    Hook("repro.reads.stream:ThrottledRepository.fetch_chunks", "stream.transfer", kind="gen"),
    Hook("repro.align.backend:ReadChunkStream.records", "stream.wait", kind="gen"),
    # align.batch / align.extend
    Hook("repro.align.batch:align_read_batch", "batch.core", count=_batch_reads),
    Hook("repro.align.batch:PackedReadBatch.pack", "batch.pack", kind="classmethod"),
    Hook("repro.align.batch:batch_mmp", "batch.seed", count=_seed_queries),
    Hook("repro.align.batch:batch_ungapped_extend", "extend", count=_extensions),
    # align.star (both run loops) / align.counts / align.paired / align.engine
    Hook("repro.align.star:StarAligner.run", "star.run"),
    Hook("repro.align.paired:PairedStarAligner.run", "star.run"),
    Hook("repro.align.counts:GeneCounts.record_unique", "counts.tally", count=_tally),
    Hook("repro.align.counts:GeneCounts.record_multimapped", "counts.tally", count=_tally),
    Hook("repro.align.counts:GeneCounts.record_unmapped", "counts.tally", count=_tally),
    Hook("repro.align.counts:GeneCounts.merge_partial", "counts.tally", count=_tally),
    Hook(
        "repro.align.paired:PairedStarAligner.classify_pair",
        "paired.classify",
        count=_counter("paired.pairs"),
    ),
    Hook("repro.align.engine:ParallelStarAligner.run", "engine.run"),
    Hook("repro.align.engine:ParallelStarAligner.run_paired", "engine.run"),
    # core.journal / core.replication
    Hook(
        "repro.core.journal:RunJournal.append",
        "journal.append",
        closes=_terminal_accession,
        count=_counter("journal.appends"),
    ),
    Hook("repro.core.replication:SegmentReplicator.observe", "replication.observe"),
    Hook("repro.cloud.s3:S3Bucket.put", "replication.s3_put", count=_s3_put),
    Hook("repro.core.replication:ShardCheckpointer.record", "checkpoint.record", count=_shard),
)
