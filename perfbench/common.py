"""Shared pieces: percentiles, CPU accounting, and the run result."""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: The repository checkout the benchmark runs in (it builds nothing: the
#: program is the pure-Python package under ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

_TICK = os.sysconf("SC_CLK_TCK")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - math.ceil(q * count)


def lane_line(lane: str, seconds: Sequence[float], quantiles: Iterable[float]) -> str:
    """One report line: a latency lane's percentiles with sample counts.

    A percentile with fewer than :data:`MIN_BEYOND` samples beyond it is
    printed as unsupported instead of as a number.
    """
    parts = [f"{lane}: n={len(seconds)}"]
    for q in quantiles:
        label = f"p{round(q * 100)}"
        over = beyond(len(seconds), q) if seconds else 0
        if over < MIN_BEYOND:
            parts.append(f"{label}=unsupported ({over} beyond)")
        else:
            parts.append(f"{label}={percentile(seconds, q) * 1e3:.3f}ms ({over} beyond)")
    return "  ".join(parts)


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def self_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds used so far by process ``pid`` (0.0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def child_pids(pid: int) -> List[int]:
    """The direct children of process ``pid``."""
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return out


def hygiene_line(cpu_s: float, wall_s: float, speed: float) -> str:
    """Load hygiene of one measured window: CPU use, host speed (the
    probe factor), cores, load."""
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"hygiene: cpu_per_wall={cpu_s / wall_s:.3f} host_speed={speed:.3f} "
        f"nproc={os.cpu_count()} loadavg=[{load}]"
    )


#: Fixed input of the speed probe (benchmark-owned, not program code).
_PROBE_POINTS = [((i * 7919) % 1000 / 3.0, (i * 104729) % 1000 / 7.0) for i in range(64)]


def _probe_kernel() -> int:
    """A fixed slice of interpreter work like the router's own: sorting
    float tuples and sweeping them into 2-D Pareto fronts."""
    fronts = {}
    for k in range(6):
        candidates = sorted((x + k, y * 0.5 + abs(x - y)) for x, y in _PROBE_POINTS)
        front, low = [], math.inf
        for w, d in candidates:
            if d < low:
                front.append((w, d))
                low = d
        fronts[k] = front
    return len(fronts)


class SpeedProbe:
    """How fast this host runs Python right now, relative to nominal.

    The machines this runs on are shared: the same code on the same
    inputs can run up to 40% slower a minute later, with a full CPU share
    (``cpu_per_wall`` near 1). Timed loops therefore call
    :meth:`maybe_tick` between operations, outside the operations' own
    timing; every :data:`PERIOD_S` it runs a burst of a fixed kernel and
    keeps the burst's fastest call (the later calls run with warm
    caches, whatever ran before). The probe slows down with the host, so
    scaling a measured time by :attr:`factor` (nominal probe time over
    measured probe time) cancels the host's speed and keeps the
    program's. Reported times are in *reference seconds*: seconds on a
    host where one probe call takes :data:`NOMINAL_S`. Garbage
    collection is off during a burst, so collections that the program's
    garbage triggers are charged to the program, not to the probe.
    """

    NOMINAL_S = 1e-4
    PERIOD_S = 0.05
    BURST = 5

    def __init__(self) -> None:
        self.total = 0.0
        self.calls = 0
        self._last = -math.inf

    def tick(self, bursts: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(bursts):
                fastest = math.inf
                for _ in range(self.BURST):
                    t0 = time.perf_counter()
                    _probe_kernel()
                    fastest = min(fastest, time.perf_counter() - t0)
                self.total += fastest
                self.calls += 1
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def maybe_tick(self) -> None:
        """:meth:`tick` once :data:`PERIOD_S` has passed since the last."""
        if time.perf_counter() - self._last >= self.PERIOD_S:
            self.tick()

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return self.NOMINAL_S * self.calls / self.total


@dataclass
class Result:
    """What one run reports: counts, metrics with units, report lines."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    phases: Dict[str, float] = field(default_factory=dict)
    _mark: float = field(default_factory=time.perf_counter)

    def phase(self, name: str) -> None:
        """Charge the wall time since the previous mark to ``name``."""
        now = time.perf_counter()
        self.phases[name] = self.phases.get(name, 0.0) + now - self._mark
        self._mark = now

    def fail(self, why: str) -> None:
        """Count one failed operation and say why."""
        self.failed += 1
        self.lines.append(f"FAILED: {why}")

    def metric(self, name: str, value: float, unit: str, samples: int = 0) -> None:
        """Record a metric; ``samples`` is how many observations it summarises."""
        self.metrics[name] = (float(value), unit)
        if samples:
            self.samples[name] = samples
