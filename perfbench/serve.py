"""``serve_stream``: one closed-loop client against the routing daemon.

The daemon (``daemon.py``: one pool worker, symmetry cache, SQLite
store, shipped LUT) runs in its own process; this process is the load
generator and sends one request at a time, the next only after the
previous answer. Two lanes share the connection and are measured apart:

* the **route lane**, single-net ``route`` requests of degree 2..6:
  fresh nets (LUT / closed form), translated or mirrored copies of
  earlier requests (memory hits), and nets a set-up daemon solved into
  the store (store hits);
* the **ECO lane**, ``eco`` one-pin moves against one session of degree
  7..9 lattice nets, one after every :data:`ROUTES_PER_ECO` routes.

The client, the daemon and its worker share one CPU (:func:`_one_cpu`):
left to the scheduler on a 2-core host, the median round trip moved by
up to 30% from run to run, and the speed probe (which runs in the
client) then times the core the daemon runs on.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.exceptions import ReproError
from repro.geometry.net import Net
from repro.incremental import IncrementalRouter, NetDelta, apply_delta
from repro.serve import ServeClient
from repro.serve.pool import WorkerSpec
from repro.serve.protocol import net_to_payload, result_front

import inputs
from checks import norm_delay_mean, objectives, reference, same_front
from common import (
    ROOT,
    Result,
    SpeedProbe,
    child_pids,
    hygiene_line,
    lane_line,
    median,
    proc_cpu_s,
    self_cpu_s,
)
from layers import PER_LAYER, ROUND_TRIP, layer_metrics, reconciliation_line, root_total

#: Route requests between two ECO edits. An assumption, like the route
#: lane's request mix (``inputs.ROUTE_KIND_WEIGHTS``): no measured trace
#: gives the ratio; one edit per nine routes keeps the ECO lane's
#: sample large enough for a p90.
ROUTES_PER_ECO = 9
#: Daemon start-ups per run; ``setup_s`` is their median. The first one
#: also pre-solves the store's nets, the last one serves the timed run.
SETUP_SAMPLES = 4
#: Operations per requested second (sized so that a run, checks and all,
#: ends within a minute on the 2-core host it was tuned on). The
#: ECO edit stream is not stationary (later edits revert earlier ones
#: and hit the cache more often), so a run does a fixed number of
#: operations rather than as many as fit in the time.
OPS_PER_SECOND = 140
#: Operations in the fixed-size traced pass.
TRACED_OPS = 700
WARMUP_NETS = 10
#: Every answer is compared with an in-process engine of the daemon's
#: spec fed the same sequence, and every route answer with the reference
#: oracle. The oracle sees every ``ECO_ORACLE_EVERY``-th ECO edit only:
#: at degree 7..9 it costs about as much as a cold DW solve, where most
#: edits are served warm. The quality metrics are taken over the nets
#: the oracle checked.
ECO_ORACLE_EVERY = 6
SESSION = "design"
#: Nets per set-up request (small enough to stay under the daemon's
#: one-second slow-request log).
SEED_CHUNK = 6
PRESOLVE_CHUNK = 200

Objectives = List[Tuple[float, float]]


def _one_cpu() -> None:
    """Pin this process, and so every daemon it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Daemon:
    """One daemon process and a connected client.

    Construction returns once the first ``ping`` is answered;
    :attr:`setup_s` is the time from spawn to that answer, and
    :attr:`setup_ref_s` the same in reference seconds.
    """

    def __init__(self, work: Path, tag: str, store: Path, trace: bool = False) -> None:
        self.report_path = work / f"{tag}.json"
        socket = str((work / f"{tag}.sock").relative_to(ROOT))
        argv = [
            sys.executable, str(ROOT / "perfbench" / "daemon.py"),
            "--socket", socket,
            "--store", str(store),
            "--report", str(self.report_path),
        ]
        speed = SpeedProbe()
        speed.tick(4)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + (["--trace"] if trace else []),
            cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        try:
            self.client = self._connect(socket, t0 + 60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        speed.tick(4)
        self.setup_ref_s = self.setup_s * speed.factor

    def _connect(self, socket: str, deadline: float) -> ServeClient:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not answer a ping within 60 s")
            try:
                client = ServeClient(socket_path=socket)
            except OSError:
                time.sleep(0.002)
                continue
            client.ping()
            return client

    def cpu_s(self) -> float:
        """CPU seconds of the daemon and its pool worker so far."""
        pid = self.proc.pid
        return sum(proc_cpu_s(p) for p in [pid] + child_pids(pid))

    def stop(self) -> Dict[str, Any]:
        """Shut the daemon down; return the report it wrote on exit."""
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return json.loads(self.report_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class Inputs:
    stream: inputs.RouteStream
    design: List[Net]
    deltas: List[NetDelta]
    warmup: List[Net]


def make_inputs(seed: int, ops: int) -> Inputs:
    """The inputs of ``ops`` operations: one ECO edit per
    ``ROUTES_PER_ECO`` routes."""
    design = inputs.eco_design()
    ecos = ops // (ROUTES_PER_ECO + 1)
    return Inputs(
        stream=inputs.route_stream(seed, ops - ecos),
        design=design,
        deltas=inputs.eco_stream(design, ecos),
        warmup=[n for _, n in inputs.route_stream(seed + 7919, WARMUP_NETS).requests],
    )


@dataclass
class Session:
    """What one closed-loop pass against one daemon observed."""

    routes: List[Tuple[str, Net, Optional[Objectives], str, float]] = field(default_factory=list)
    route_rt: List[float] = field(default_factory=list)
    ecos: List[Tuple[NetDelta, Optional[Dict[str, Any]]]] = field(default_factory=list)
    eco_rt: List[float] = field(default_factory=list)
    setup_rt: List[float] = field(default_factory=list)  # ECO seeding, warm-up
    wall: float = 0.0
    cpu: float = 0.0
    snapshot: Optional[Dict[str, Any]] = None
    report: Dict[str, Any] = field(default_factory=dict)
    speed: float = 1.0  # SpeedProbe factor over the pass


def _eco(client: ServeClient, delta: NetDelta, result: Result) -> Optional[Dict[str, Any]]:
    try:
        with obs.span(ROUND_TRIP):
            return client.eco_apply(SESSION, delta)
    except (ReproError, OSError) as exc:
        result.fail(f"eco {delta!r}: {exc}")
        return None


def _route(
    client: ServeClient, net: Net, result: Result
) -> Tuple[Optional[Objectives], str, float]:
    """One route-lane request: objectives, serving tier, worker seconds."""
    try:
        with obs.span(ROUND_TRIP):
            response = client.request("route", nets=[net_to_payload(net)])
        (payload,) = response["results"]
        front = objectives(result_front(payload))
    except (ReproError, OSError, KeyError, ValueError) as exc:
        result.fail(f"route {net.name}: {exc}")
        return None, "", 0.0
    return front, str(payload.get("served", "")), float(payload.get("seconds", 0.0))


def closed_loop(
    daemon: Daemon, data: Inputs, result: Result, whole: bool = False, traced: bool = False,
) -> Session:
    """Seed the ECO session, warm up, then send every operation of
    ``data`` in order, one after the other.

    The measured window is the operations alone, with the speed probe
    ticking between them; or, for a ``whole`` pass, everything from the
    first set-up request on, with the probe outside it. A traced pass
    (repro.obs on here; the daemon was started with ``--trace``) must be
    whole: then every span the daemon records lies inside one of this
    process's round-trip spans.
    """
    client = daemon.client
    speed = SpeedProbe()
    speed.tick(10 if whole else 1)
    if traced:
        obs.reset()
        obs.enable()
    session = Session()
    cpu0 = daemon.cpu_s() + self_cpu_s()
    t0 = time.perf_counter()
    for i in range(0, len(data.design), SEED_CHUNK):
        t = time.perf_counter()
        with obs.span(ROUND_TRIP):
            client.eco_seed(SESSION, data.design[i:i + SEED_CHUNK])
        session.setup_rt.append(time.perf_counter() - t)
    t = time.perf_counter()
    with obs.span(ROUND_TRIP):
        client.route(data.warmup)
    session.setup_rt.append(time.perf_counter() - t)
    if not whole:
        cpu0 = daemon.cpu_s() + self_cpu_s()
        t0 = time.perf_counter()
    requests, deltas = iter(data.stream.requests), iter(data.deltas)
    for done in range(len(data.stream.requests) + len(data.deltas)):
        if done and not whole:
            # Between operations only: the probe's time is nobody's latency.
            speed.maybe_tick()
        if done % (ROUTES_PER_ECO + 1) == ROUTES_PER_ECO:
            delta = next(deltas)
            t = time.perf_counter()
            answer = _eco(client, delta, result)
            session.eco_rt.append(time.perf_counter() - t)
            session.ecos.append((delta, answer))
        else:
            kind, net = next(requests)
            t = time.perf_counter()
            got, served, worker_s = _route(client, net, result)
            session.route_rt.append(time.perf_counter() - t)
            session.routes.append((kind, net, got, served, worker_s))
    session.wall = time.perf_counter() - t0
    session.cpu = daemon.cpu_s() + self_cpu_s() - cpu0
    if traced:
        session.snapshot = obs.get_registry().snapshot()
        obs.disable()
        obs.reset()
    if whole:
        speed.tick(10)
    session.speed = speed.factor
    return session


def check_session(
    data: Inputs, session: Session, result: Result
) -> Tuple[List[Net], Dict[str, Objectives]]:
    """The correctness gate; returns the oracle-checked nets and fronts.

    The in-process engines are built as the daemon builds its own: the
    pool worker's engine (its store only adds a tier that returns what
    was put), and the ECO session's, the same spec without the store,
    seeded with the design.
    """
    engine = WorkerSpec().build()
    for net in data.warmup:
        engine.route(net)
    nets: List[Net] = []
    good: Dict[str, Objectives] = {}
    for kind, net, got, _, _ in session.routes:
        mine = objectives(engine.route(net))
        if got is None:
            continue  # already counted when the request failed
        if got != mine:
            result.fail(f"route {net.name} ({kind}): daemon front != in-process front")
        elif same_front(got, reference(net), exact=False):
            nets.append(net)
            good[net.name] = got
        else:
            result.fail(f"route {net.name} ({kind}): front differs from the reference")
    eco = IncrementalRouter(WorkerSpec().build())
    for net in data.design:
        eco.route(net)
    current = {net.name: net for net in data.design}
    for index, (delta, answer) in enumerate(session.ecos):
        edited = apply_delta(current[delta.net], delta)
        current[delta.net] = edited
        mine = objectives(eco.apply_delta(delta).front)
        if answer is None:
            continue  # already counted when the request failed
        got = objectives(answer["front"])
        if got != mine:
            result.fail(f"eco #{index} ({answer.get('tier')}): daemon front != in-process front")
            continue
        if index % ECO_ORACLE_EVERY:
            continue
        exact = answer.get("tier") == "dw"
        if not same_front(got, reference(edited), exact=exact):
            result.fail(f"eco #{index} ({answer.get('tier')}): front differs from the reference")
            continue
        named = Net(pins=edited.pins, name=f"{edited.name}@{index}")
        nets.append(named)
        good[named.name] = got
    return nets, good


def _same_answers(base: Session, other: Session, result: Result) -> None:
    for (_, net, want, _, _), (_, _, got, _, _) in zip(base.routes, other.routes):
        if got != want:
            result.fail(f"route {net.name}: traced front differs from untraced")
    for (delta, want), (_, got) in zip(base.ecos, other.ecos):
        if (got or {}).get("front") != (want or {}).get("front"):
            result.fail(f"eco {delta!r}: traced front differs from untraced")


def _workdir() -> Path:
    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _presolve(work: Path, data: Inputs, store: Path) -> float:
    """A set-up daemon solves the stored nets into ``store``; returns its
    start-up time."""
    daemon = Daemon(work, "presolve", store)
    try:
        stored = data.stream.stored
        for i in range(0, len(stored), PRESOLVE_CHUNK):
            daemon.client.route(stored[i:i + PRESOLVE_CHUNK])
    finally:
        daemon.stop()
    return daemon.setup_ref_s


def run_measured(seed: int, seconds: float) -> Result:
    """The untraced run: every end-to-end metric."""
    result = Result()
    _one_cpu()
    work = _workdir()
    try:
        data = make_inputs(seed, max(ROUTES_PER_ECO + 1, round(seconds * OPS_PER_SECOND)))
        result.phase("inputs")
        store = work / "cache.sqlite"
        setup = [_presolve(work, data, store)]
        for k in range(SETUP_SAMPLES - 2):
            extra = Daemon(work, f"setup{k}", store)
            extra.stop()
            setup.append(extra.setup_ref_s)
        daemon = Daemon(work, "timed", store)
        setup.append(daemon.setup_ref_s)
        result.phase("setup")
        try:
            session = closed_loop(daemon, data, result)
        finally:
            session_report = daemon.stop()
        session.report = session_report
    finally:
        _remove(work)
    result.phase("run")

    result.attempted = len(session.routes) + len(session.ecos)
    nets, good = check_session(data, session, result)
    result.phase("checks")
    rss_kb = session.report["daemon_rss_kb"] + session.report["worker_rss_kb"]
    busy = sum(session.route_rt) + sum(session.eco_rt)
    result.metric("setup_s", median(setup), "s", len(setup))
    result.metric("nets_per_s", result.attempted / (busy * session.speed), "1/s", result.attempted)
    result.metric(
        "route_ms_p50", median(session.route_rt) * session.speed * 1e3, "ms",
        len(session.route_rt),
    )
    result.metric("norm_delay_mean", norm_delay_mean(nets, good), "ratio", len(good))
    result.metric(
        "solutions_per_net", sum(len(f) for f in good.values()) / len(good), "count", len(good)
    )
    result.metric("peak_rss_mb", rss_kb / 1024.0, "MB", 2)
    result.phase("quality")
    served = [s for _, _, _, s, _ in session.routes]
    tiers = [a["tier"] for _, a in session.ecos if a]
    result.lines += [
        "setup samples (reference s): " + ", ".join(f"{s:.3f}" for s in setup),
        f"operations: {result.attempted} in {busy:.3f}s of requests "
        f"(raw {result.attempted / busy:.3f} ops/s)",
        lane_line("route lane (raw)", session.route_rt, (0.5, 0.99)),
        lane_line("eco lane (raw)", session.eco_rt, (0.5, 0.9)),
        "route lane served: " + ", ".join(
            f"{t}={served.count(t)}" for t in ("memory", "store", "routed")),
        "eco tiers: " + ", ".join(f"{t}={tiers.count(t)}" for t in sorted(set(tiers))),
        hygiene_line(session.cpu, session.wall, session.speed),
    ]
    return result


def run_traced(seed: int, ops: int = TRACED_OPS) -> Result:
    """The traced run: one fixed pass traced, untraced, traced again,
    each on a fresh daemon over a copy of the same pre-solved store."""
    result = Result()
    _one_cpu()
    work = _workdir()
    try:
        data = make_inputs(seed, ops)
        template = work / "template.sqlite"
        _presolve(work, data, template)
        sessions = []
        for tag, trace in (("traced_a", True), ("plain", False), ("traced_b", True)):
            store = work / f"{tag}.sqlite"
            shutil.copyfile(template, store)
            daemon = Daemon(work, tag, store, trace=trace)
            try:
                session = closed_loop(daemon, data, result, whole=True, traced=trace)
            finally:
                session_report = daemon.stop()
            session.report = session_report
            sessions.append(session)
    finally:
        _remove(work)

    a, plain, b = sessions
    result.attempted = 3 * ops
    check_session(data, plain, result)
    _same_answers(plain, a, result)
    _same_answers(plain, b, result)
    signatures = [
        (s.report["snapshot"]["counters"],
         {p: v["count"] for p, v in s.report["snapshot"]["spans"].items()})
        for s in (a, b)
    ]
    if signatures[0] != signatures[1]:
        result.correct = False
        result.lines.append("FAILED: counters differ between two traced passes")

    remote = a.report["snapshot"]
    client = a.snapshot or {"spans": {}}
    spans: Dict[str, Dict[str, float]] = {}
    for source in (client["spans"], remote["spans"]):
        for path, stat in source.items():
            into = spans.setdefault(path, {"total_s": 0.0, "count": 0.0})
            into["total_s"] += stat["total_s"]
            into["count"] += stat["count"]
    roots = root_total(client["spans"])
    ops = sum(a.setup_rt) + sum(a.route_rt) + sum(a.eco_rt)
    values, problems = layer_metrics(
        spans, remote["counters"], a.wall, roots_s=roots, ops_s=ops,
        adopted={ROUND_TRIP: root_total(remote["spans"])},
    )
    result.lines.append(reconciliation_line(values, roots, ops))
    for problem in problems:
        result.correct = False
        result.lines.append(f"FAILED reconciliation: {problem}")
    served = [s for _, _, _, s, _ in a.routes]
    tiers = [ans["tier"] for _, ans in a.ecos if ans]
    worker = [w for _, _, _, _, w in a.routes]
    values.update({
        "serve.worker_ms_p50": median(worker) * 1e3,
        "serve.overhead_ms_p50": median([rt - w for rt, w in zip(a.route_rt, worker)]) * 1e3,
        "serve.served_memory": served.count("memory"),
        "serve.served_store": served.count("store"),
        "serve.served_routed": served.count("routed"),
        "eco.tier_cache": tiers.count("cache"),
        "eco.tier_dw": tiers.count("dw"),
        "cpu_per_wall": a.cpu / a.wall,
        "trace.overhead": (a.wall + b.wall) / 2 / plain.wall,
        "trace.wall_s": a.wall,
        "host_speed": a.speed,
    })
    for name, unit, _ in PER_LAYER:
        result.metric(name, values[name], unit)
    result.lines += [
        f"fixed pass (ECO seeding, warm-up, {ops} ops): traced {a.wall:.3f}s "
        f"and {b.wall:.3f}s, untraced {plain.wall:.3f}s",
        hygiene_line(a.cpu, a.wall, a.speed),
    ]
    return result
