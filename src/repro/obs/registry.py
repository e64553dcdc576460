"""Zero-dependency metrics registry: counters, gauges, timers.

One process-global :class:`Registry` (module singleton, accessed through
:func:`get_registry`) holds three metric families:

* **counters** — monotone event counts (``cache.hits``),
* **gauges** — last-written / max-tracked values (``dw.max_front_size``),
* **timers** — duration accumulators with bounded raw samples, so the
  exporters can report percentiles (``eval.net_seconds``).

Span durations (see :mod:`repro.obs.spans`) land in a fourth family keyed
by the full ``parent/child`` path. A closing span only appends its
``(path, seconds, error)`` to a pending buffer; the registry folds that
buffer into the span stats whenever anything reads them (``spans``,
``events``, :meth:`Registry.snapshot`, :meth:`Registry.merge_snapshot`)
and once the buffer holds :data:`_SPAN_FOLD_AT` entries, so readers see
exact numbers while a span exit stays O(1).

The registry starts **disabled**. Every primitive checks a single flag and
returns immediately when disabled, so instrumented hot paths pay one
attribute load + branch per call site — the no-op path the tests in
``tests/test_obs.py`` hold under 5% of routing time. When enabled, updates
take a :class:`threading.Lock` (thread safety) and worker processes merge
their numbers back via :meth:`Registry.snapshot` /
:meth:`Registry.merge_snapshot` (process safety).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .live import LatencyHistogram

#: Raw samples kept per timer for percentile estimation; older samples are
#: overwritten ring-buffer style once the cap is reached.
SAMPLE_CAP = 8192

#: Pending span observations that make the appending thread fold the
#: buffer into the span stats itself (bounds the buffer's memory).
_SPAN_FOLD_AT = 1024


class TimerStat:
    """Accumulated durations of one timer (or one span path)."""

    __slots__ = ("count", "total", "min", "max", "samples", "errors", "_next")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.samples: List[float] = []
        #: Observations whose timed body raised (spans flag these so the
        #: tree and Chrome trace stay well-formed across failures).
        self.errors = 0
        self._next = 0  # ring-buffer cursor once samples hit SAMPLE_CAP

    def observe(self, seconds: float) -> None:
        """Record one duration (updates count/total/min/max + sample ring)."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(seconds)
        else:
            self.samples[self._next] = seconds
            self._next = (self._next + 1) % SAMPLE_CAP

    def percentile(self, q: float) -> float:
        """Sample percentile ``q`` in [0, 1] (nearest-rank)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    @property
    def mean(self) -> float:
        """Arithmetic mean duration (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Serialize to plain floats (count, totals, percentiles, errors)."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
            "p99_s": self.percentile(0.99),
            "errors": self.errors,
        }

    def merge(self, other: Dict[str, float], samples: Optional[List[float]] = None) -> None:
        """Fold a serialized :meth:`as_dict` (plus raw samples) into this stat."""
        self.count += int(other.get("count", 0))
        self.total += float(other.get("total_s", 0.0))
        self.errors += int(other.get("errors", 0))
        if other.get("count", 0):
            self.min = min(self.min, float(other.get("min_s", math.inf)))
            self.max = max(self.max, float(other.get("max_s", 0.0)))
        for s in samples or []:
            if len(self.samples) < SAMPLE_CAP:
                self.samples.append(s)


class Registry:
    """Thread-safe metric store; disabled (all no-ops) until enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, TimerStat] = {}
        self._spans: Dict[str, TimerStat] = {}
        #: Closed spans not yet folded into ``_spans``, oldest first.
        #: ``deque.append`` is atomic, so span exits skip the lock.
        self._pending_spans: Deque[Tuple[str, float, bool]] = deque()
        #: One fixed-bucket histogram per timer name, maintained alongside
        #: the sample ring by :meth:`timer_observe`. Unlike samples, bucket
        #: counts are exact and merge associatively across workers, so a
        #: live daemon can serve stable percentiles (see repro.obs.live).
        self.histograms: Dict[str, LatencyHistogram] = {}
        self._events = 0

    @property
    def spans(self) -> Dict[str, TimerStat]:
        """Span stats by tree path, with every closed span folded in."""
        with self._lock:
            self._fold_spans()
            return self._spans

    @property
    def events(self) -> int:
        """Number of primitive calls recorded while enabled.

        The overhead test uses this as an exact count of instrumentation
        call sites executed per operation (control flow is identical
        disabled).
        """
        with self._lock:
            self._fold_spans()
            return self._events

    # ------------------------------------------------------------ lifecycle

    def enable(self) -> None:
        """Turn recording on (every primitive stops being a no-op)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; already-recorded metrics are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded metric (the enabled flag is untouched)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.timers.clear()
            self._spans.clear()
            self._pending_spans.clear()
            self.histograms.clear()
            self._events = 0

    # ----------------------------------------------------------- primitives

    def counter_add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        if not self.enabled:
            return
        with self._lock:
            self._events += 1
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._events += 1
            self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` if larger than the current value."""
        if not self.enabled:
            return
        with self._lock:
            self._events += 1
            cur = self.gauges.get(name)
            if cur is None or value > cur:
                self.gauges[name] = value

    def timer_observe(self, name: str, seconds: float) -> None:
        """Record one duration under timer ``name`` (samples + histogram)."""
        if not self.enabled:
            return
        with self._lock:
            self._events += 1
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.observe(seconds)
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = LatencyHistogram()
            hist.observe(seconds)

    def span_observe(self, path: str, seconds: float, error: bool = False) -> None:
        """Record one span duration at tree ``path``; ``error`` marks a
        span whose body raised.

        The observation is queued and folded into the span stats on the
        next read (or by this call once the queue is full).
        """
        if not self.enabled:
            return
        pending = self._pending_spans
        pending.append((path, seconds, error))
        if len(pending) >= _SPAN_FOLD_AT:
            with self._lock:
                self._fold_spans()

    def _fold_spans(self) -> None:
        """Move every pending span observation into its stat (lock held)."""
        pending, spans = self._pending_spans, self._spans
        # Appends racing this fold wait for the next one.
        folded = len(pending)
        for _ in range(folded):
            path, seconds, error = pending.popleft()
            stat = spans.get(path)
            if stat is None:
                stat = spans[path] = TimerStat()
            stat.observe(seconds)
            if error:
                stat.errors += 1
        self._events += folded

    # -------------------------------------------------- snapshot / merging

    def snapshot(self, with_samples: bool = False) -> Dict[str, object]:
        """Plain-dict view of every metric — JSON-ready, process-portable.

        ``with_samples=True`` includes raw timer samples so a parent
        process can merge percentile data from workers.
        """
        with self._lock:
            self._fold_spans()
            snap: Dict[str, object] = {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "timers": {k: v.as_dict() for k, v in self.timers.items()},
                "spans": {k: v.as_dict() for k, v in self._spans.items()},
                "histograms": {
                    k: v.as_dict() for k, v in self.histograms.items()
                },
            }
            if with_samples:
                snap["timer_samples"] = {
                    k: list(v.samples) for k, v in self.timers.items()
                }
        return snap

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; gauges take the max (every shipped gauge is a
        high-water mark or a size, where max is the useful aggregate);
        timers and spans merge their distributions; histograms merge
        bucket counts exactly (associative — fold order never matters).
        """
        with self._lock:
            self._fold_spans()
            for name, value in snap.get("counters", {}).items():  # type: ignore[union-attr]
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():  # type: ignore[union-attr]
                cur = self.gauges.get(name)
                if cur is None or value > cur:
                    self.gauges[name] = value
            samples = snap.get("timer_samples", {})
            for family, store in (("timers", self.timers), ("spans", self._spans)):
                for name, stat_dict in snap.get(family, {}).items():  # type: ignore[union-attr]
                    stat = store.get(name)
                    if stat is None:
                        stat = store[name] = TimerStat()
                    stat.merge(
                        stat_dict,
                        samples.get(name) if family == "timers" else None,  # type: ignore[union-attr]
                    )
            for name, hist_dict in snap.get("histograms", {}).items():  # type: ignore[union-attr]
                incoming = LatencyHistogram.from_dict(hist_dict)
                hist = self.histograms.get(name)
                if hist is None or hist.bounds != incoming.bounds:
                    # Unknown name (or a layout change): adopt the incoming
                    # histogram wholesale rather than guessing a re-binning.
                    self.histograms[name] = incoming
                else:
                    hist.merge(incoming)


#: The process-global registry every instrumented module reports into.
_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-global :class:`Registry` singleton."""
    return _REGISTRY
