"""Tests for the pending-span buffer of ``repro.obs.registry.Registry``.

A closing span only queues ``(path, seconds, error)``; the registry folds
the queue into its span stats on every read and, from the appending
thread, once the queue reaches its fold size. These tests pin what that
deferral must not change: exact counts, totals and ``events`` under
concurrent readers, ``reset`` dropping what is still queued, and a
bounded queue.
"""

import json
import os
import sys
import threading

import pytest

from repro import obs
from repro.obs import registry as registry_module


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    obs.disable()
    obs.trace_disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _pending():
    return obs.get_registry()._pending_spans


class TestConcurrentReaders:
    def test_counts_totals_and_events_are_exact(self):
        reg = obs.get_registry()
        obs.enable()
        threads, rounds = 4, 1500
        done = threading.Event()
        failures = []
        # Each thread holds at most one queued entry past the fold size.
        bound = registry_module._SPAN_FOLD_AT + threads

        def record():
            for _ in range(rounds):
                with obs.span("worker"):
                    with obs.span("step"):
                        # 0.125 is a power of two: any fold order sums exactly.
                        reg.span_observe("manual", 0.125)
                if len(_pending()) > bound:  # pragma: no cover - reported below
                    failures.append(f"buffer held {len(_pending())}")

        def read():
            last = 0
            try:
                while not done.is_set():
                    snap = reg.snapshot()
                    count = snap["spans"].get("manual", {}).get("count", 0)
                    if count < last:
                        failures.append(f"count fell {last} -> {count}")
                    last = count
                    json.dumps(snap)
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(repr(exc))

        reader = threading.Thread(target=read)
        workers = [threading.Thread(target=record) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            reader.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            done.set()

        assert not reader.is_alive()
        assert not any(t.is_alive() for t in workers)
        assert failures == []
        n = threads * rounds
        spans = reg.spans
        assert set(spans) == {"worker", "worker/step", "manual"}
        assert all(stat.count == n for stat in spans.values())
        assert spans["manual"].total == 0.125 * n
        assert spans["manual"].min == spans["manual"].max == 0.125
        # Every recorded duration is in the total, in recording order.
        for stat in spans.values():
            assert len(stat.samples) == n
            assert stat.total == sum(stat.samples)
        assert reg.events == 3 * n
        assert len(_pending()) == 0

    def test_report_and_merge_fold_pending_spans_first(self):
        reg = obs.get_registry()
        obs.enable()
        reg.span_observe("root", 0.5)
        reg.span_observe("root/child", 0.25, error=True)
        assert len(_pending()) == 2
        other = obs.Registry()
        other.enable()
        other.span_observe("root", 1.0)
        reg.merge_snapshot(other.snapshot())
        assert len(_pending()) == 0
        snap = reg.snapshot()["spans"]
        assert snap["root"]["count"] == 2 and snap["root"]["total_s"] == 1.5
        assert snap["root/child"]["errors"] == 1
        reg.span_observe("root/child", 0.25)
        reg.span_observe("root/child", 0.25)
        (child,) = [
            line for line in obs.span_tree_report().splitlines()
            if line.strip().startswith("child")
        ]
        assert "3x" in child


class TestReset:
    def test_reset_drops_pending_entries(self):
        reg = obs.get_registry()
        obs.enable()
        for _ in range(5):
            with obs.span("stale"):
                pass
        assert len(_pending()) == 5
        obs.reset()
        assert len(_pending()) == 0
        assert reg.events == 0
        assert reg.snapshot()["spans"] == {}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_resets_inherited_buffer(self):
        # A forked pool worker inherits the parent's queued spans; after
        # the reset its registry reports only what it records itself.
        obs.enable()
        for _ in range(3):
            with obs.span("parent"):
                pass
        assert len(_pending()) == 3
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                os.close(read_fd)
                obs.reset()
                with obs.span("child"):
                    pass
                spans = obs.get_registry().snapshot()["spans"]
                body = {k: v["count"] for k, v in spans.items()}
                os.write(write_fd, json.dumps(body).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            child = json.loads(pipe.read())
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert child == {"child": 1}
        assert obs.get_registry().snapshot()["spans"]["parent"]["count"] == 3


class TestBoundedBuffer:
    def test_buffer_never_exceeds_its_fold_size(self):
        reg = obs.get_registry()
        obs.enable()
        fold_at = registry_module._SPAN_FOLD_AT
        n = 3 * fold_at + 5
        peak = 0
        for _ in range(n):
            with obs.span("outer"):
                pass
            peak = max(peak, len(_pending()))
        assert peak <= fold_at
        # The appending thread folded on its own: only the tail is queued.
        assert len(_pending()) == n % fold_at
        assert reg.spans["outer"].count == n

    def test_disabled_registry_queues_nothing(self):
        obs.get_registry().span_observe("off", 1.0)
        with obs.span("off"):
            pass
        assert len(_pending()) == 0
