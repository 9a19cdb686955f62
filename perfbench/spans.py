"""In-memory span recorder for the traced benchmark run.

A traced run replaces each layer's public functions with thin wrappers, from
this file, that record one span per call: ``(name, start, end, parent)``,
where ``parent`` is the index of the span that was open when the call began.
Very hot functions (``Rect`` construction, ``Subscription.matches``,
``DeliveryAccounting.record_delivery``) are counted instead of spanned, and
each count is split by whether a ``stabilize()`` was open at the time, so
per-repair ratios can be derived.  Spans stay in memory until the run ends;
:meth:`SpanRecorder.write` then dumps them, and :func:`layer_metrics` turns
them into the per-layer metrics.

Nothing here runs in an untraced run: the end-to-end numbers are measured
with the program's functions untouched.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names that count as one repair (a ``stabilize()`` to a legal overlay).
REPAIR_SPAN = "overlay.stabilize"

#: Every per-layer metric with its unit, in report order.  Kept here so the
#: traced run, the README and ``BENCHMARK.json`` name the same set.
PER_LAYER_UNITS: Dict[str, str] = {
    "pubsub.publish_self_ms": "ms",
    "pubsub.accounting.start_event_ms": "ms",
    "pubsub.fault_missed_probes": "ratio",
    "spatial.matches_per_event": "count",
    "overlay.publish_ms": "ms",
    "overlay.receptions_per_event": "count",
    "overlay.useful_reception_ratio": "ratio",
    "overlay.bulk_load_s": "s",
    "overlay.bootstrap_stabilize_s": "s",
    "overlay.join_ms": "ms",
    "overlay.stabilize_rounds": "count",
    "overlay.round_ms": "ms",
    "overlay.verify_ms": "ms",
    "overlay.verify_calls": "count",
    "overlay.level_gap_peers": "count",
    "sim.run_until_idle_ms": "ms",
    "sim.events_processed": "count",
    "sim.batches_processed": "count",
    "sim.messages_sent": "count",
    "sim.events_processed_per_repair": "count",
    "sim.batches_processed_per_repair": "count",
    "sim.messages_sent_per_repair": "count",
    "spatial.union_of_calls": "count",
    "spatial.union_of_ms": "ms",
    "spatial.rect_constructions": "count",
    "journal.snapshots": "count",
    "journal.snapshot_s": "s",
    "journal.compress_s": "s",
    "journal.snapshot_mb": "MB",
    "journal.append_s": "s",
    "journal.records": "count",
    "journal.fsync_s": "s",
    "journal.fsyncs": "count",
    "journal.read_s": "s",
    "journal.restore_s": "s",
    "journal.tail_ops": "count",
    "python.gc_pause_s": "s",
    "python.gc_gen2_collections": "count",
}


class SpanRecorder:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self._open: List[int] = []
        self._repair_depth = 0
        #: ``name -> [count outside repairs, count inside repairs]``.
        self.counts: Dict[str, List[int]] = {}
        #: Sums of values the benchmark or a wrapper reports by name.
        self.sums: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._gc_started: Optional[float] = None
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0

    # -- spans ----------------------------------------------------------- #

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        if name == REPAIR_SPAN:
            self._repair_depth += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()
        if self.spans[index][0] == REPAIR_SPAN:
            self._repair_depth -= 1

    def span(self, name: str):
        """Context manager for a benchmark-level span (a phase or a step)."""
        recorder = self

        class _Span:
            def __enter__(self_inner):
                self_inner.index = recorder.open(name)
                return self_inner

            def __exit__(self_inner, *exc_info):
                recorder.close(self_inner.index)
                return False

        return _Span()

    # -- values reported by the benchmark -------------------------------- #

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    # -- wrappers -------------------------------------------------------- #

    def wrap(self, owner: Any, attr: str, name: str,
             measure: Optional[Callable[[Any], float]] = None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``measure`` maps the call's return value to a number summed under
        ``name`` (e.g. the size of a compressed snapshot).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        target = original.__func__ if is_classmethod else original
        recorder = self

        # functools.wraps keeps the name, so bound methods of wrapped
        # functions (a peer's delivery listener) still pickle by name.
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.close(index)
            if measure is not None:
                recorder.add(name, measure(result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, original))

    def count(self, owner: Any, attr: str, name: str,
              split: Optional[Callable[..., bool]] = None) -> None:
        """Count the calls of ``owner.attr`` without a span.

        ``split(*args)`` true additionally counts the call under
        ``name + ".hit"`` (e.g. a matched reception).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self
        slot = recorder.counts.setdefault(name, [0, 0])
        hits = recorder.counts.setdefault(name + ".hit", [0, 0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inside = 1 if recorder._repair_depth else 0
            slot[inside] += 1
            if split is not None and split(*args, **kwargs):
                hits[inside] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if self._open and self.spans[self._open[-1]][0] == "bench.gc":
            return  # a collection the benchmark asked for between samples
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def uninstall(self) -> None:
        """Put every wrapped function back (last wrapped, first restored)."""
        self.stop_gc()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------- #

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSON lines: name, start, end, parent."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, round(start, 9), round(end, 9),
                                      parent]) + "\n")


def install_layer_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every layer the benchmark attributes.

    Module-level functions are patched where their callers look them up
    (``compress_snapshot`` in the journal recorder, ``read_journal`` in the
    resume module), so the program's own calls go through the wrappers.
    """
    import repro.journal.records as journal_records
    import repro.journal.recorder as journal_recorder
    import repro.journal.resume as journal_resume
    from repro.journal.io import JournalWriter
    from repro.overlay.builder import DRTreeSimulation
    from repro.overlay.verifier import OverlayVerifier
    from repro.pubsub.accounting import DeliveryAccounting
    from repro.pubsub.api import PubSubSystem
    from repro.sim.engine import SimulationEngine
    from repro.spatial.filters import Subscription
    from repro.spatial.rectangle import Rect

    for attr in ("publish", "publish_many", "subscribe", "subscribe_all",
                 "unsubscribe", "fail", "move_subscription", "stabilize"):
        recorder.wrap(PubSubSystem, attr, f"pubsub.{attr}")
    recorder.wrap(DeliveryAccounting, "start_event", "pubsub.accounting.start_event")
    recorder.count(DeliveryAccounting, "record_delivery", "pubsub.receptions",
                   split=lambda self, sid, event, matched, hops: matched)
    recorder.wrap(DRTreeSimulation, "publish", "overlay.publish")
    recorder.wrap(DRTreeSimulation, "bulk_load", "overlay.bulk_load")
    recorder.wrap(DRTreeSimulation, "stabilize", REPAIR_SPAN)
    recorder.wrap(DRTreeSimulation, "run_round", "overlay.run_round")
    recorder.wrap(DRTreeSimulation, "add_peer", "overlay.join")
    recorder.wrap(OverlayVerifier, "verify", "overlay.verify")
    recorder.wrap(SimulationEngine, "run_until_idle", "sim.run_until_idle")
    recorder.wrap(Rect, "union_of", "spatial.union_of")
    recorder.count(Rect, "__post_init__", "spatial.rect_constructions")
    recorder.count(Subscription, "matches", "spatial.matches")
    recorder.wrap(PubSubSystem, "snapshot", "journal.snapshot")
    recorder.wrap(PubSubSystem, "restore", "journal.restore")
    size_mb = lambda blob: len(blob) / 1e6  # noqa: E731
    recorder.wrap(journal_records, "compress_snapshot", "journal.compress",
                  measure=size_mb)
    recorder.wrap(journal_recorder, "compress_snapshot", "journal.compress",
                  measure=size_mb)
    recorder.wrap(JournalWriter, "append", "journal.append")
    recorder.wrap(os, "fsync", "journal.fsync")
    recorder.wrap(journal_resume, "read_journal", "journal.read")
    recorder.start_gc()


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Derive every per-layer metric from the recorded spans and counts."""
    spans = recorder.spans
    durations: Dict[str, List[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        duration = end - start
        durations.setdefault(name, []).append(duration)
        if parent >= 0:
            child_time[parent] += duration

    def ancestors_named(index: int, names: Tuple[str, ...]) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def count(name: str) -> int:
        return len(durations.get(name, ()))

    def mean(name: str, scale: float = 1.0) -> float:
        return _mean(durations.get(name, [])) * scale

    counts = recorder.counts
    sums = recorder.sums
    publications = count("pubsub.accounting.start_event")
    repairs = count(REPAIR_SPAN)
    journaled_runs = count("bench.journaled_run")
    facade_publish = ("pubsub.publish", "pubsub.publish_many")
    publish_self = sum(end - start - child_time[index]
                       for index, (name, start, end, _) in enumerate(spans)
                       if name in facade_publish)
    bootstrap = [end - start for index, (name, start, end, _) in enumerate(spans)
                 if name == REPAIR_SPAN and ancestors_named(index, ("bench.setup",))]
    union_in_repair = sum(1 for index, span in enumerate(spans)
                          if span[0] == "spatial.union_of"
                          and ancestors_named(index, (REPAIR_SPAN,)))
    in_journaled = {
        name: sum(1 for index, span in enumerate(spans)
                  if span[0] == name
                  and ancestors_named(index, ("bench.journaled_run",)))
        for name in ("journal.snapshot", "journal.append", "journal.fsync")
    }
    receptions = sum(counts.get("pubsub.receptions", [0, 0]))
    useful = sum(counts.get("pubsub.receptions.hit", [0, 0]))
    probes = sums.get("bench.seeded_probes", 0.0)

    def per(total: float, base: float) -> float:
        return total / base if base else 0.0

    def sample_mean(name: str) -> float:
        return _mean(recorder.samples.get(name, []))

    metrics = {
        "pubsub.publish_self_ms": per(publish_self, publications) * 1e3,
        "pubsub.accounting.start_event_ms": mean("pubsub.accounting.start_event", 1e3),
        "pubsub.fault_missed_probes": per(sums.get("bench.fault_misses", 0.0), probes),
        "spatial.matches_per_event": per(sum(counts.get("spatial.matches", [0, 0])),
                                         publications),
        "overlay.publish_ms": mean("overlay.publish", 1e3),
        "overlay.receptions_per_event": per(receptions, publications),
        "overlay.useful_reception_ratio": per(useful, receptions),
        "overlay.bulk_load_s": mean("overlay.bulk_load"),
        "overlay.bootstrap_stabilize_s": _mean(bootstrap),
        "overlay.join_ms": mean("overlay.join", 1e3),
        "overlay.stabilize_rounds": per(count("overlay.run_round"), repairs),
        "overlay.round_ms": mean("overlay.run_round", 1e3),
        "overlay.verify_ms": mean("overlay.verify", 1e3),
        "overlay.verify_calls": per(count("overlay.verify"), repairs),
        "overlay.level_gap_peers": sample_mean("bench.level_gap_peers"),
        "sim.run_until_idle_ms": mean("sim.run_until_idle", 1e3),
        "sim.events_processed": sample_mean("bench.publish.events_processed"),
        "sim.batches_processed": sample_mean("bench.publish.batches_processed"),
        "sim.messages_sent": sample_mean("bench.publish.messages_sent"),
        "sim.events_processed_per_repair": sample_mean("bench.repair.events_processed"),
        "sim.batches_processed_per_repair": sample_mean("bench.repair.batches_processed"),
        "sim.messages_sent_per_repair": sample_mean("bench.repair.messages_sent"),
        "spatial.union_of_calls": per(union_in_repair, repairs),
        "spatial.union_of_ms": mean("spatial.union_of", 1e3),
        "spatial.rect_constructions": per(counts.get("spatial.rect_constructions",
                                                     [0, 0])[1], repairs),
        "journal.snapshots": per(in_journaled["journal.snapshot"], journaled_runs),
        "journal.snapshot_s": mean("journal.snapshot"),
        "journal.compress_s": mean("journal.compress"),
        "journal.snapshot_mb": per(sums.get("journal.compress", 0.0),
                                   count("journal.compress")),
        "journal.append_s": mean("journal.append"),
        "journal.records": per(in_journaled["journal.append"], journaled_runs),
        "journal.fsync_s": mean("journal.fsync"),
        "journal.fsyncs": per(in_journaled["journal.fsync"], journaled_runs),
        "journal.read_s": mean("journal.read"),
        "journal.restore_s": mean("journal.restore"),
        "journal.tail_ops": sample_mean("bench.tail_ops"),
        "python.gc_pause_s": recorder.gc_pause_s,
        "python.gc_gen2_collections": float(recorder.gc_gen2),
    }
    assert set(metrics) == set(PER_LAYER_UNITS)
    return metrics
