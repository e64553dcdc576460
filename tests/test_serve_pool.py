"""Tests for the worker pool (repro.serve.pool) and its failure states.

Each worker owns one pipe, and the daemon's event loop reads them
directly. These tests pin what that design must keep: messages larger
than a pipe's 64 KiB buffer pass both ways, answers come back in order,
a worker that dies fails its request and breaks the pool (daemon and
``route_batch`` alike) without hanging, and shutdown reaps every worker.
"""

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.batch import route_batch
from repro.engine import EngineSpec
from repro.engine.registry import _ENTRIES, RouterEntry, create_router
from repro.exceptions import ReproError
from repro.geometry.net import random_net
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread, WorkerSpec
from repro.serve.pool import WorkerPool
from repro.serve.protocol import encode_message, net_to_payload, result_front

ROOT = Path(__file__).resolve().parent.parent

#: A pipe's buffer on Linux; every "large" message below exceeds it.
PIPE_BUFFER = 64 * 1024


def _objectives(front):
    return [(w, d) for w, d, _ in front]


def _tree(tree):
    return tuple((p.x, p.y) for p in tree.points), tuple(tree.parent)


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_ready(server, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not server.ready:
        if time.monotonic() > deadline:
            raise TimeoutError("pool never became ready")
        time.sleep(0.02)


def _run_bounded(coroutine, timeout=60.0):
    """``asyncio.run`` on a thread: a loop blocked on a full pipe fails
    the test instead of hanging it."""
    errors, results = [], []

    def run():
        try:
            results.append(asyncio.run(coroutine))
        except BaseException as exc:
            errors.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the event loop blocked"
    if errors:
        raise errors[0]
    return results[0]


class _CrashOnDie:
    """RSMT routing, except that a net named ``die`` SIGKILLs the process."""

    def __init__(self):
        self.inner = create_router("rsmt")
        self.name = "crash-on-die"
        self.capabilities = self.inner.capabilities

    def route(self, net):
        if net.name == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.route(net)


@pytest.fixture
def crash_router(monkeypatch):
    """Register ``crash-on-die`` for one test (fork-started workers
    inherit the registry)."""
    monkeypatch.setitem(
        _ENTRIES, "crashondie", RouterEntry("crash-on-die", "crash", "", _CrashOnDie)
    )
    return EngineSpec(router="crash-on-die", cache=None)


class TestPoolOnALoop:
    def test_large_messages_both_ways_in_order(self):
        """Requests and answers of 80–320 KiB, four queued per worker:
        each answer is the one its request asked for."""

        async def main(pool):
            pool.attach(asyncio.get_running_loop())
            sizes = [(2 + i) * 40 * 1024 for i in range(8)]
            answers = await asyncio.gather(
                *[pool.submit(bytes, size) for size in sizes],
                *[pool.submit(len, b"x" * size) for size in sizes],
            )
            assert [len(a) for a in answers[:8]] == sizes
            assert answers[8:] == sizes
            return await asyncio.gather(*pool.broadcast(os.getpid))

        with WorkerPool(WorkerSpec(EngineSpec(router="rsmt")), 2) as pool:
            pids = _run_bounded(main(pool))
        assert len(set(pids)) == 2
        assert all(_gone(pid) for pid in pids)

    def test_worker_error_fails_only_its_task(self):
        async def main(pool):
            pool.attach(asyncio.get_running_loop())
            bad = pool.submit(int, "not a number")
            good = pool.submit(abs, -3)
            with pytest.raises(ValueError):
                await bad
            assert await good == 3
            assert pool.broken is None

        with WorkerPool(WorkerSpec(EngineSpec(router="rsmt")), 1) as pool:
            _run_bounded(main(pool))


    def test_an_idle_worker_takes_the_next_task(self):
        """Tasks submitted behind a slow one run on the idle worker and
        finish while the slow one still runs."""

        async def main(pool):
            pool.attach(asyncio.get_running_loop())
            slow = pool.submit(time.sleep, 2.0)
            fast = [pool.submit(os.getpid) for _ in range(4)]
            pids = await asyncio.wait_for(asyncio.gather(*fast), 1.5)
            assert not slow.done()
            await slow
            return pids

        with WorkerPool(WorkerSpec(EngineSpec(router="rsmt")), 2) as pool:
            pids = _run_bounded(main(pool))
        assert len(set(pids)) == 1

    def test_a_broadcast_runs_after_the_tasks_submitted_before_it(self):
        """Each worker takes the older of its broadcast task and the
        shared head, so tasks submitted first run first."""

        async def main(pool):
            pool.attach(asyncio.get_running_loop())
            first = [pool.submit(time.sleep, 0.2) for _ in range(4)]
            probes = pool.broadcast(time.monotonic)
            later = [pool.submit(time.monotonic) for _ in range(2)]
            await asyncio.gather(*first)
            ended = asyncio.get_running_loop().time()
            stamps = await asyncio.gather(*probes, *later)
            return ended, stamps

        with WorkerPool(WorkerSpec(EngineSpec(router="rsmt")), 2) as pool:
            ended, stamps = _run_bounded(main(pool))
        # time.monotonic and the loop's clock are the same clock; a probe
        # run ahead of the last two sleeps would read ~0.2 s before ``ended``.
        assert all(stamp >= ended - 0.1 for stamp in stamps)

    def test_closing_the_first_of_two_pools_stops_its_workers(self):
        """The second pool's workers hold copies of the first pool's pipe
        ends, so EOF never reaches the first pool's workers: the stop
        message must, and close() returns without killing them."""
        spec = WorkerSpec(EngineSpec(router="rsmt"))
        first = WorkerPool(spec, 2)
        second = WorkerPool(spec, 1)
        try:
            t0 = time.monotonic()
            first.close()
            assert time.monotonic() - t0 < 10.0
            assert [proc.exitcode for proc in first._procs] == [0, 0]
        finally:
            first.close()
            second.close()
        assert [proc.exitcode for proc in second._procs] == [0]

    def test_route_batch_inside_a_running_loop(self):
        nets = [
            random_net(5, rng=random.Random(8500 + i), name=f"n{i}") for i in range(6)
        ]

        async def main():
            return route_batch(nets, EngineSpec(cache=None), jobs=2)

        parallel = _run_bounded(main())
        serial = route_batch(nets, EngineSpec(cache=None))
        assert {k: _objectives(v) for k, v in parallel.fronts.items()} == {
            k: _objectives(v) for k, v in serial.fronts.items()
        }


class TestPipeBuffer:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_large_request_and_large_tree_reply(self, workers):
        """A > 64 KiB request line and a > 64 KiB ``with_trees`` reply
        complete; results come back in request order and equal an
        in-process engine's fronts."""
        many = [
            random_net(4 + i % 3, rng=random.Random(7000 + i), name=f"m{i}")
            for i in range(600)
        ]
        # Degree <= 9 is solved exactly, so a front does not depend on
        # which nets a worker routed before (local search draws from the
        # engine's RNG); 64 of them with trees exceed 64 KiB.
        big = [
            random_net(7 + i % 3, rng=random.Random(7900 + i), name=f"b{i}")
            for i in range(64)
        ]
        request = encode_message({"op": "route", "nets": [net_to_payload(n) for n in many]})
        assert len(request) > PIPE_BUFFER
        config = ServeConfig(host="127.0.0.1", port=0, workers=workers)
        with ServerThread(config) as handle:
            with ServeClient(host="127.0.0.1", port=handle.server.tcp_port) as c:
                routed = c.route(many)
                response = c.request(
                    "route", nets=[net_to_payload(n) for n in big], with_trees=True
                )
        assert len(encode_message(response)) > PIPE_BUFFER
        engine = WorkerSpec().build()
        assert [name for name, _ in routed] == [n.name for n in many]
        for (name, front), net in zip(routed, many):
            assert _objectives(front) == _objectives(engine.route(net))
        results = response["results"]
        assert [r["name"] for r in results] == [n.name for n in big]
        for payload, net in zip(results, big):
            front = result_front(payload, net)
            mine = engine.route(net)
            assert _objectives(front) == _objectives(mine)
            assert [_tree(t) for _, _, t in front] == [_tree(t) for _, _, t in mine]


class TestWorkerDeath:
    def test_worker_killed_mid_request(self):
        """The request in flight answers "worker pool died", later routes
        fail fast, and ``/readyz`` answers 503."""
        import urllib.error
        import urllib.request

        nets = [
            random_net(30, rng=random.Random(8100 + i), name=f"slow{i}")
            for i in range(40)
        ]
        config = ServeConfig(host="127.0.0.1", port=0, workers=1, metrics_port=0)
        with ServerThread(config) as handle:
            daemon = handle.server
            _wait_ready(daemon)
            outcome = {}

            def request():
                with ServeClient(host="127.0.0.1", port=daemon.tcp_port) as c:
                    try:
                        c.route(nets)
                    except ServeError as exc:
                        outcome["error"] = str(exc)

            client = threading.Thread(target=request)
            client.start()
            deadline = time.monotonic() + 30
            while daemon.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert daemon.queue_depth == len(nets)
            os.kill(daemon.worker_info[0]["pid"], signal.SIGKILL)
            client.join(30)
            assert not client.is_alive()
            assert "worker pool died" in outcome["error"]
            with ServeClient(host="127.0.0.1", port=daemon.tcp_port) as c:
                t0 = time.perf_counter()
                with pytest.raises(ServeError, match="worker pool died"):
                    c.route(nets[:1])
                assert time.perf_counter() - t0 < 1.0
                assert c.stats()["ready"] is False
            url = f"http://127.0.0.1:{daemon.metrics_port}/readyz"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=10.0)
            err.value.close()
            assert err.value.code == 503

    def test_dead_worker_daemon_still_reaps_every_child(self):
        config = ServeConfig(host="127.0.0.1", port=0, workers=2)
        handle = ServerThread(config).start()
        _wait_ready(handle.server)
        pids = [w["pid"] for w in handle.server.worker_info]
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 10
        while handle.server.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handle.server.ready is False
        with ServeClient(host="127.0.0.1", port=handle.server.tcp_port) as c:
            c.shutdown()
        handle._thread.join(60)
        assert not handle._thread.is_alive()
        assert all(_gone(pid) for pid in pids)

    def test_route_batch_raises_when_a_worker_dies(self, crash_router):
        nets = [random_net(5, rng=random.Random(8200 + i), name=f"n{i}") for i in range(6)]
        nets[3] = random_net(5, rng=random.Random(8299), name="die")
        outcome = {}

        def run():
            try:
                route_batch(nets, crash_router, jobs=2)
            except ReproError as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "route_batch hung on a dead worker"
        assert "worker pool died" in str(outcome["error"])
        assert "code -9" in str(outcome["error"])


#: A daemon in a fresh process: route, shut down, then report what
#: RUSAGE_CHILDREN saw and whether its workers are gone.
_SUBPROCESS_DAEMON = """
import json, os, random, resource, time
from repro.geometry.net import random_net
from repro.serve import ServeClient, ServeConfig, ServerThread
config = ServeConfig(host="127.0.0.1", port=0, workers=2)
with ServerThread(config) as handle:
    server = handle.server
    while not server.ready:
        time.sleep(0.01)
    with ServeClient(host="127.0.0.1", port=server.tcp_port) as c:
        c.route([random_net(5, rng=random.Random(i), name=str(i)) for i in range(8)])
        c.stats()
alive = []
for pid in [w["pid"] for w in server.worker_info]:
    try:
        os.kill(pid, 0)
        alive.append(pid)
    except ProcessLookupError:
        pass
print(json.dumps({
    "workers": len(server.worker_info),
    "alive": alive,
    "worker_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
}))
"""


class TestShutdownReaps:
    def test_serve_until_stopped_reaps_workers(self):
        config = ServeConfig(host="127.0.0.1", port=0, workers=2)
        with ServerThread(config) as handle:
            _wait_ready(handle.server)
            pids = [w["pid"] for w in handle.server.worker_info]
            with ServeClient(host="127.0.0.1", port=handle.server.tcp_port) as c:
                c.route([random_net(5, rng=random.Random(8400), name="one")])
        assert not handle._thread.is_alive()
        assert len(pids) == 2
        assert all(_gone(pid) for pid in pids)

    def test_subprocess_daemon_reports_worker_rss(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_DAEMON],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["workers"] == 2
        assert report["alive"] == []
        assert report["worker_rss_kb"] > 0
