"""Command-line interface: ``patlabor <command>``.

Commands
--------
route       Route nets from a ``.nets`` file (or a generated random net)
            with any registered router (``--method``, default PatLabor,
            optionally behind a ``--cache``) and print each Pareto set.
routers     List the routers registered with ``repro.engine`` and their
            capabilities.
gen-lut     Generate lookup tables for given degrees and save them (.npz).
gen-nets    Generate a synthetic ICCAD-15-like workload into a ``.nets`` file.
compare     Run PatLabor vs SALT vs YSD on a net file and print
            Table III / Table IV style summaries.
draw        Render a net's Pareto-optimal trees to SVG files.
eco         Replay a ``.deltas`` edit stream (pin moves/adds/removes,
            blockages — see ``repro.incremental``) through the
            incremental engine; ``--compare-cold`` verifies exact-tier
            fronts stay bit-identical to cold re-routes.
serve       Run the routing daemon: a Unix-socket/TCP JSON service over a
            shared-LUT worker pool with an optional persistent cache store
            (see ``repro.serve``). ``--metrics-port`` binds the HTTP
            telemetry sidecar (``/metrics``, ``/healthz``, ``/readyz``).
top         Poll a daemon's ``/metrics`` endpoint and render a live
            terminal view: qps, per-tier latency percentiles, cache hit
            rates, worker utilization.
warm        Pre-populate a persistent cache store from a ``.nets`` file so
            later runs (and the daemon) start with a warm disk tier.
cache       Cache-store maintenance: ``cache stats --store FILE`` prints
            entry counts, file size (bytes), row count, and lifetime
            hit/miss counters; ``--daemon-socket``/``--daemon-host`` also
            query a live daemon for its hit rates since start, and
            ``--json`` emits the whole report as one JSON object.
negotiate   Run PathFinder negotiated-congestion routing over a net file
            (or a generated contention scenario): nets swap between
            precomputed Pareto frontier points until no grid cell is over
            capacity. ``--baseline`` also runs the min-delay-pinned
            single-tree rip-up loop for comparison; ``--heatmap-svg``
            renders the final demand/overuse grid.
obs         Performance-tracking surface over the run ledger:
            ``obs diff <run-a> <run-b>`` (per-metric deltas),
            ``obs check --baseline FILE`` (exit non-zero on regression),
            ``obs ledger`` (list recorded runs).

``route``, ``gen-lut``, ``compare``, and ``negotiate`` accept ``--profile`` (print a
span-tree report and metric summary after the command, via
:mod:`repro.obs`) and ``--profile-json PATH`` (also dump the metrics
snapshot as JSON — e.g. ``BENCH_route.json``), plus ``--trace PATH``
(Chrome-trace / Perfetto JSON of the span tree), ``--events PATH``
(structured JSONL event log), and ``--ledger PATH`` (append a run record
to the performance ledger).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .core.patlabor import PatLabor, PatLaborConfig
from .geometry.net import Net, random_net


def _cmd_route(args: argparse.Namespace) -> int:
    from .engine import EngineSpec, build_engine
    from .io.nets_format import load_nets
    from .viz.ascii_art import front_summary

    if args.nets:
        nets = load_nets(args.nets)
    else:
        rng = random.Random(args.seed)
        nets = [random_net(args.degree, rng=rng, name="random")]
    router = build_engine(
        EngineSpec(
            router=args.method,
            router_options=(
                {"config": PatLaborConfig(lam=args.lam)}
                if args.method == "patlabor"
                else {}
            ),
            lut=args.lut,
            cache=None if args.cache == "off" else args.cache,
        )
    )
    for net in nets:
        front = router.route(net)
        print(f"{net.name or 'net'} (degree {net.degree}): "
              f"{len(front)} Pareto solution(s)")
        print(front_summary(front))
    return 0


def _cmd_gen_lut(args: argparse.Namespace) -> int:
    from .io.lut_io import save_lut
    from .lut.table import LookupTable

    degrees = [int(d) for d in args.degrees.split(",")]
    table = LookupTable.build(
        degrees=degrees,
        prune_mode=args.prune,
        limit_per_degree=args.limit,
        jobs=args.jobs,
    )
    save_lut(table, args.output)
    for n, st in sorted(table.stats.items()):
        print(
            f"degree {n}: #Index={st.num_index} "
            f"avg #Topo={st.avg_topologies:.2f} "
            f"({st.build_seconds:.1f}s{', sampled' if st.sampled else ''})"
        )
    print(f"saved to {args.output}")
    return 0


def _cmd_gen_nets(args: argparse.Namespace) -> int:
    from .eval.benchmarks import Iccad15LikeSuite
    from .io.nets_format import save_nets

    suite = Iccad15LikeSuite(seed=args.seed)
    nets: List[Net] = []
    if args.large:
        nets.extend(suite.large_nets(count=args.count))
    else:
        by_degree = suite.small_nets(per_degree=max(1, args.count // 6))
        for group in by_degree.values():
            nets.extend(group)
        nets = nets[: args.count]
    written = save_nets(nets, args.output)
    print(f"wrote {written} nets to {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .eval.metrics import table3, table4
    from .eval.reporting import render_table3, render_table4
    from .eval.runner import compare_on_nets
    from .io.nets_format import load_nets

    nets = load_nets(args.nets)
    small = [n for n in nets if n.degree <= args.exact_limit]
    if not small:
        print("no nets small enough for exact comparison", file=sys.stderr)
        return 1
    rows = compare_on_nets(small)
    print(render_table3(table3(rows)))
    print()
    print(render_table4(table4(rows)))
    return 0


def _cmd_routers(args: argparse.Namespace) -> int:
    from .engine import EngineSpec, available_routers, build_engine, router_entry

    for name in available_routers():
        entry = router_entry(name)
        caps = build_engine(EngineSpec(router=name)).capabilities
        notes = []
        if caps.exact_up_to is not None:
            notes.append(f"exact<={caps.exact_up_to}")
        if caps.max_degree is not None:
            notes.append(f"max_degree={caps.max_degree}")
        if not caps.pareto:
            notes.append("single-tree")
        suffix = f" [{', '.join(notes)}]" if notes else ""
        print(f"{name:<11} {entry.display_name:<9} {entry.summary}{suffix}")
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    from .io.nets_format import load_nets
    from .viz.svg import pareto_curve_svg, save_svg, tree_svg

    from .engine import EngineSpec, build_engine

    nets = load_nets(args.nets)
    router = build_engine(EngineSpec(router="patlabor"))
    net = nets[args.index]
    front = router.route(net)
    save_svg(
        pareto_curve_svg([("PatLabor", front)], title=f"{net.name} Pareto"),
        f"{args.prefix}_curve.svg",
    )
    for i, (w, d, tree) in enumerate(front):
        save_svg(
            tree_svg(tree, title=f"w={w:.0f} d={d:.0f}"),
            f"{args.prefix}_tree{i}.svg",
        )
    print(f"wrote {len(front) + 1} SVG file(s) with prefix {args.prefix!r}")
    return 0


def _cmd_negotiate(args: argparse.Namespace) -> int:
    import json as _json

    from .congestion.model import CapacityGrid
    from .congestion.negotiate import (
        NegotiatedRouter,
        NegotiatorConfig,
        Scenario,
    )

    if args.nets:
        from .io.nets_format import load_nets

        nets = load_nets(args.nets)
        grid = CapacityGrid.uniform(
            0,
            0,
            args.span,
            args.span,
            args.cells,
            args.cells,
            capacity=args.capacity if args.capacity else float("inf"),
        )
        scenario = Scenario(nets=nets, grid=grid)
    else:
        scenario = Scenario.random(
            nets=args.count,
            cells=args.cells,
            span=args.span,
            capacity=args.capacity,
            utilization=args.utilization,
            seed=args.seed,
        )
    config = NegotiatorConfig(
        pres_fac_first=args.pres_fac,
        pres_fac_mult=args.pres_fac_mult,
        hist_fac=args.hist_fac,
        max_iterations=args.max_iterations,
        delay_slack=args.slack,
        point_policy=args.policy,
    )
    result = NegotiatedRouter(scenario, config).run()
    report = {
        "nets": len(scenario.nets),
        "grid": f"{scenario.grid.nx}x{scenario.grid.ny}",
        "capacity": float(scenario.grid.capacity.max()),
        **result.metrics(),
    }
    if args.baseline:
        base_config = NegotiatorConfig(
            pres_fac_first=args.pres_fac,
            pres_fac_mult=args.pres_fac_mult,
            hist_fac=args.hist_fac,
            max_iterations=args.max_iterations,
            delay_slack=args.slack,
            point_policy="min_delay",
        )
        base = NegotiatedRouter(scenario, base_config).run()
        for key, value in base.metrics(prefix="baseline").items():
            report[key] = value
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        verdict = "converged" if result.converged else "NOT converged"
        print(
            f"{report['nets']} nets on {report['grid']} grid "
            f"(capacity {report['capacity']:.1f}/cell): {verdict} after "
            f"{result.iteration_count} iteration(s)"
        )
        print(
            f"  overuse={result.final_overuse:.1f} "
            f"worst_delay={result.worst_delay:.3f} "
            f"wirelength={result.total_wirelength:.1f} "
            f"swaps={result.total_swaps}"
        )
        if args.baseline:
            print(
                f"  baseline (min_delay pin): "
                f"iterations={report['baseline.iterations']} "
                f"overuse={report['baseline.final_overuse']:.1f} "
                f"wirelength={report['baseline.total_wirelength']:.1f}"
            )
    if args.heatmap_svg:
        from .viz.heatmap import overuse_heatmap_svg
        from .viz.svg import save_svg

        save_svg(
            overuse_heatmap_svg(
                result.grid, title="negotiated demand/capacity"
            ),
            args.heatmap_svg,
        )
        print(f"[overuse heatmap written to {args.heatmap_svg}]")
    return 0 if result.converged else 1


def _cmd_eco(args: argparse.Namespace) -> int:
    import dataclasses
    import json as _json
    import time as _time

    from .engine import EngineSpec, build_engine
    from .incremental.delta import apply_delta, load_deltas
    from .incremental.engine import EXACT_TIERS
    from .io.nets_format import load_nets
    from .lut.default import DATA_FILE

    nets = load_nets(args.nets)
    deltas = load_deltas(args.deltas)
    spec = EngineSpec(
        router="patlabor", lut=args.lut or str(DATA_FILE), cache="symmetry"
    )
    engine = build_engine(dataclasses.replace(spec, incremental=True))
    t0 = _time.perf_counter()
    for net in nets:
        engine.route(net)
    seed_s = _time.perf_counter() - t0
    current = {net.name: net for net in nets}
    tiers: dict = {}
    eco_s = 0.0
    identical = 0
    compared = 0
    for index, delta in enumerate(deltas):
        result = engine.apply_delta(delta)
        tiers[result.tier] = tiers.get(result.tier, 0) + 1
        eco_s += result.wall_s
        line = (
            f"#{index} {delta.kind} {delta.net or '-'}: tier={result.tier} "
            f"{result.wall_s:.6f}s"
        )
        if delta.kind != "blockage":
            current[delta.net] = apply_delta(current[delta.net], delta)
        if args.compare_cold and result.tier in EXACT_TIERS:
            cold_front = build_engine(spec).route(current[delta.net])
            warm = [(w, d) for w, d, _t in result.front or []]
            cold = [(w, d) for w, d, _t in cold_front]
            compared += 1
            if warm == cold:
                identical += 1
                line += " bit-identical"
            else:
                line += " MISMATCH"
        if not args.json:
            print(line)
    report = {
        "nets": len(nets),
        "deltas": len(deltas),
        "seed_seconds": seed_s,
        "eco_seconds": eco_s,
        "mean_eco_seconds": eco_s / len(deltas) if deltas else 0.0,
        "tiers": dict(sorted(tiers.items())),
    }
    if args.compare_cold:
        report["compared"] = compared
        report["bit_identical"] = identical
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"{report['deltas']} delta(s) over {report['nets']} net(s): "
            f"seed {seed_s:.3f}s, eco {eco_s:.3f}s "
            f"(mean {report['mean_eco_seconds']:.6f}s)"
        )
        if args.compare_cold:
            print(
                f"  exact-tier fronts bit-identical to cold: "
                f"{identical}/{compared}"
            )
    if args.compare_cold and identical != compared:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .engine import EngineSpec
    from .engine.build import takes_lut
    from .lut.default import DATA_FILE
    from .serve import RouteServer, ServeConfig

    if not args.socket and not args.host:
        print("error: pass --socket PATH and/or --host ADDR", file=sys.stderr)
        return 2
    config = ServeConfig(
        socket_path=args.socket or None,
        host=args.host or None,
        port=args.port,
        workers=args.workers,
        store_path=args.store or None,
        telemetry=args.telemetry,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        slow_request_seconds=args.slow_ms / 1000.0,
        engine=EngineSpec(
            router=args.method,
            lut=None if args.no_lut or not takes_lut(args.method)
            else str(DATA_FILE),
            cache=None if args.cache == "off" else args.cache,
            cache_entries=args.cache_entries,
        ),
    )
    server = RouteServer(config)

    async def run() -> None:
        await server.start()
        endpoints = []
        if config.socket_path:
            endpoints.append(f"unix:{config.socket_path}")
        if config.host is not None:
            endpoints.append(f"tcp:{config.host}:{server.tcp_port}")
        if config.metrics_port is not None:
            endpoints.append(
                f"http://{config.metrics_host}:{server.metrics_port}/metrics"
            )
        print(
            f"serving on {' and '.join(endpoints)} "
            f"({config.workers} worker(s), cache={args.cache}, "
            f"store={config.store_path or 'off'})",
            flush=True,
        )
        await server.serve_until_stopped()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    stats = server.stats()
    print(
        f"served {stats['nets']} net(s) over {stats['requests']} request(s); "
        f"warm_hit_rate={stats['warm_hit_rate']:.3f}"
    )
    return 0


def _cmd_warm(args: argparse.Namespace) -> int:
    from .core.batch import route_batch
    from .engine import EngineSpec
    from .io.nets_format import load_nets

    nets = load_nets(args.nets)
    result = route_batch(
        nets,
        EngineSpec(router=args.method, cache=args.cache, cache_store=args.store),
        jobs=args.jobs,
    )
    from .core.cache_store import PersistentStore

    store = PersistentStore(args.store, readonly=True)
    print(
        f"warmed {args.store} from {len(nets)} net(s) in "
        f"{result.seconds:.2f}s: {len(store)} entr(y/ies) on disk, "
        f"cache_hit_rate={result.cache_hit_rate:.3f}"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    url = args.url or f"http://{args.host}:{args.metrics_port}/metrics"
    return run_top(
        url,
        interval=args.interval,
        iterations=1 if args.once else args.iterations,
    )


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .core.cache_store import PersistentStore

    store = PersistentStore(args.store, readonly=True)
    if not store.path.exists():
        print(f"error: no store at {args.store}", file=sys.stderr)
        return 1
    stats = store.stats()
    if not stats["entries"] and not stats["healthy"]:
        print(f"error: {args.store} is unreadable (corrupt store?)",
              file=sys.stderr)
        return 1
    total = int(stats["total_hits"]) + int(stats["total_misses"])
    stats["lifetime_hit_rate"] = (
        int(stats["total_hits"]) / total if total else 0.0
    )
    daemon: dict = {}
    if args.daemon_socket or args.daemon_host:
        from .serve import ServeClient, ServeError

        try:
            with ServeClient(
                socket_path=args.daemon_socket or None,
                host=args.daemon_host or None,
                port=args.daemon_port if args.daemon_host else None,
            ) as client:
                live = client.stats()
        except (OSError, ServeError, ValueError) as exc:
            print(f"error: cannot query daemon: {exc}", file=sys.stderr)
            return 1
        # Hit rates *since daemon start* — the session-scoped complement
        # to the store's flushed lifetime counters.
        daemon = {
            "uptime_seconds": live.get("uptime_seconds"),
            "nets": live.get("nets"),
            "warm_hit_rate": live.get("warm_hit_rate"),
            "store_hit_rate": live.get("store_hit_rate"),
            "served_memory": live.get("served_memory"),
            "served_store": live.get("served_store"),
            "served_routed": live.get("served_routed"),
        }
        stats["daemon"] = daemon
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"store     {stats['path']}")
    print(f"healthy   {stats['healthy']}")
    print(f"entries   {stats['entries']}")
    print(f"size      {stats['size_bytes']} bytes")
    print(
        f"lifetime  hits={stats['total_hits']} misses={stats['total_misses']} "
        f"puts={stats['total_puts']}"
    )
    print(
        f"hit rate  {stats['lifetime_hit_rate']:.3f} "
        f"(over {total} flushed lookup(s))"
    )
    if daemon:
        print(
            f"daemon    up {float(daemon['uptime_seconds'] or 0.0):.0f}s  "
            f"nets={daemon['nets']}  "
            f"warm_hit_rate={float(daemon['warm_hit_rate'] or 0.0):.3f}  "
            f"store_hit_rate={float(daemon['store_hit_rate'] or 0.0):.3f} "
            f"(since daemon start)"
        )
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs import ledger

    try:
        base = ledger.resolve_record(args.run_a, ledger_path=args.ledger)
        new = ledger.resolve_record(args.run_b, ledger_path=args.ledger)
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deltas = ledger.diff_records(
        base, new, rel_threshold=args.threshold / 100.0
    )
    print(
        f"baseline: {base.get('run_id')} ({base.get('name')})\n"
        f"current:  {new.get('run_id')} ({new.get('name')})\n"
    )
    print(ledger.render_diff(deltas, only_changed=args.only_changed))
    worse = ledger.regressions(deltas)
    if worse:
        print(f"\n{len(worse)} metric(s) regressed beyond "
              f"{args.threshold:.0f}% threshold")
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from .obs import ledger

    try:
        base = ledger.resolve_record(args.baseline, ledger_path=args.ledger)
        new = ledger.resolve_record(args.run, ledger_path=args.ledger)
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deltas = ledger.diff_records(
        base, new, rel_threshold=args.threshold / 100.0
    )
    worse = ledger.regressions(deltas)
    print(
        f"perf check: run {new.get('run_id')} vs baseline "
        f"{base.get('run_id')} ({len(deltas)} comparable metrics, "
        f"threshold {args.threshold:.0f}%)"
    )
    if worse:
        print(ledger.render_diff(worse))
        print(f"\nFAIL: {len(worse)} metric(s) regressed")
        return 1
    print("OK: no metric regressed beyond threshold")
    return 0


def _cmd_obs_ledger(args: argparse.Namespace) -> int:
    from .obs import ledger

    records = ledger.read_ledger(args.ledger)
    if not records:
        print(f"(ledger {args.ledger} is empty or missing)")
        return 0
    for rec in records[-args.count:]:
        metrics = rec.get("metrics", {})
        headline = ", ".join(
            f"{k}={metrics[k]:.4g}"
            for k in ("nets_per_second", "seconds", "cache_hit_rate")
            if k in metrics
        )
        print(
            f"{rec.get('run_id')}  {rec.get('name', '?'):<12} "
            f"sha={str(rec.get('git', {}).get('sha', '?'))[:10]}  {headline}"
        )
    return 0


def _add_profile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile",
        action="store_true",
        help="print a span-tree report and metric summary after the command",
    )
    p.add_argument(
        "--profile-json",
        metavar="PATH",
        help="write the metrics snapshot as JSON to PATH (implies --profile)",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome-trace (Perfetto) JSON of the span tree to PATH",
    )
    p.add_argument(
        "--events",
        metavar="PATH",
        help="append a structured JSONL event log of the run to PATH",
    )
    p.add_argument(
        "--ledger",
        metavar="PATH",
        help="append a run record (git SHA, config, metrics) to the "
        "performance ledger at PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patlabor",
        description="Pareto optimization of timing-driven routing trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="route nets and print Pareto sets")
    p.add_argument("--nets", help=".nets input file")
    p.add_argument("--degree", type=int, default=12, help="random net degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method", default="patlabor",
        help="router name from the repro.engine registry "
        "(see `patlabor routers`)",
    )
    p.add_argument(
        "--cache", default="off",
        choices=["off", "translation", "symmetry"],
        help="result cache in front of the router (default: off)",
    )
    p.add_argument("--lam", type=int, default=9, help="PatLabor lambda")
    p.add_argument("--lut", help="lookup-table file (.npz, from gen-lut)")
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser(
        "routers", help="list the routers registered with repro.engine"
    )
    p.set_defaults(func=_cmd_routers)

    p = sub.add_parser("gen-lut", help="generate lookup tables")
    p.add_argument("--degrees", default="4,5", help="comma-separated degrees")
    p.add_argument("--prune", default="componentwise", choices=["componentwise", "lp"])
    p.add_argument("--limit", type=int, default=None, help="patterns per degree")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--output", "-o", default="patlabor_lut.npz")
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_gen_lut)

    p = sub.add_parser("gen-nets", help="generate a synthetic workload")
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--large", action="store_true", help="degree 10-50 nets")
    p.add_argument("--output", "-o", default="workload.nets")
    p.set_defaults(func=_cmd_gen_nets)

    p = sub.add_parser("compare", help="compare PatLabor / SALT / YSD")
    p.add_argument("nets", help=".nets input file")
    p.add_argument("--exact-limit", type=int, default=9)
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("draw", help="render Pareto trees to SVG")
    p.add_argument("nets", help=".nets input file")
    p.add_argument("--index", type=int, default=0, help="net index in the file")
    p.add_argument("--prefix", default="patlabor")
    p.set_defaults(func=_cmd_draw)

    p = sub.add_parser("obs", help="performance ledger: diff / check / list")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    default_ledger = "benchmarks/results/ledger.jsonl"
    d = obs_sub.add_parser(
        "diff", help="per-metric deltas between two ledger runs"
    )
    d.add_argument("run_a", help="baseline run: run-id prefix, 'latest', "
                   "-N, or a record .json file")
    d.add_argument("run_b", help="current run (same forms)")
    d.add_argument("--ledger", default=default_ledger)
    d.add_argument(
        "--threshold", type=float, default=10.0,
        help="noise threshold in percent (default 10)",
    )
    d.add_argument(
        "--only-changed", action="store_true",
        help="hide metrics with a zero delta",
    )
    d.set_defaults(func=_cmd_obs_diff)

    c = obs_sub.add_parser(
        "check", help="exit non-zero if a metric regressed vs the baseline"
    )
    c.add_argument(
        "--baseline", required=True,
        help="baseline record: a .json file (committed baseline), a run-id "
        "prefix, or -N",
    )
    c.add_argument(
        "--run", default="latest",
        help="run to check (default: latest ledger record)",
    )
    c.add_argument("--ledger", default=default_ledger)
    c.add_argument(
        "--threshold", type=float, default=10.0,
        help="noise threshold in percent (default 10)",
    )
    c.set_defaults(func=_cmd_obs_check)

    l = obs_sub.add_parser("ledger", help="list recorded runs")
    l.add_argument("--ledger", default=default_ledger)
    l.add_argument("-n", "--count", type=int, default=20)
    l.set_defaults(func=_cmd_obs_ledger)

    p = sub.add_parser(
        "negotiate",
        help="PathFinder negotiated-congestion routing over Pareto frontiers",
    )
    p.add_argument("--nets", help=".nets input file (default: random scenario)")
    p.add_argument(
        "--count", type=int, default=200,
        help="random-scenario net count (ignored with --nets)",
    )
    p.add_argument("--cells", type=int, default=16, help="grid resolution")
    p.add_argument(
        "--span", type=float, default=1000.0, help="routing region [0, span]^2"
    )
    p.add_argument(
        "--capacity", type=float, default=None,
        help="routable wirelength per cell (default: auto from demand for "
        "random scenarios, unlimited for --nets)",
    )
    p.add_argument(
        "--utilization", type=float, default=0.45,
        help="target utilisation for auto-capacity (default: 0.45)",
    )
    p.add_argument("--seed", type=int, default=2029)
    p.add_argument(
        "--max-iterations", type=int, default=40,
        help="negotiation iteration cap (default: 40)",
    )
    p.add_argument(
        "--pres-fac", type=float, default=0.5,
        help="first-iteration present-congestion factor (default: 0.5)",
    )
    p.add_argument(
        "--pres-fac-mult", type=float, default=1.6,
        help="per-iteration escalation multiplier (default: 1.6)",
    )
    p.add_argument(
        "--hist-fac", type=float, default=0.3,
        help="history-cost factor (default: 0.3)",
    )
    p.add_argument(
        "--slack", type=float, default=0.25,
        help="per-net delay budget slack (default: 0.25)",
    )
    p.add_argument(
        "--policy", default=None,
        help="pin every net to one frontier point policy (min_wirelength / "
        "min_delay / knee / budget:<slack>) instead of negotiating freely",
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the min-delay-pinned single-tree baseline and report "
        "both",
    )
    p.add_argument(
        "--heatmap-svg", metavar="PATH",
        help="write the final demand/overuse grid as an SVG heatmap",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_negotiate)

    p = sub.add_parser(
        "eco",
        help="replay a .deltas edit stream through the incremental engine",
    )
    p.add_argument(
        "--nets", required=True, help=".nets workload to seed sessions from"
    )
    p.add_argument(
        "--deltas", required=True, help=".deltas edit stream to replay"
    )
    p.add_argument(
        "--lut", help="lookup-table file (default: the bundled table)"
    )
    p.add_argument(
        "--compare-cold", action="store_true",
        help="cold re-route each edited net and check exact-tier fronts "
        "match bit-identically (exit 1 on any mismatch)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p.set_defaults(func=_cmd_eco)

    p = sub.add_parser(
        "serve", help="run the routing daemon (Unix socket / TCP JSON service)"
    )
    p.add_argument("--socket", help="Unix socket path to listen on")
    p.add_argument("--host", help="TCP address to listen on (e.g. 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port)",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="routing worker processes"
    )
    p.add_argument(
        "--method", default="patlabor",
        help="router name from the repro.engine registry",
    )
    p.add_argument(
        "--cache", default="symmetry",
        choices=["off", "translation", "symmetry"],
        help="per-worker in-memory cache mode (default: symmetry)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=100_000,
        help="per-worker in-memory LRU capacity",
    )
    p.add_argument(
        "--store", help="persistent SQLite cache store shared by all workers"
    )
    p.add_argument(
        "--no-lut", action="store_true",
        help="do not preload the bundled lookup table",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="bind the HTTP telemetry sidecar (/metrics, /healthz, "
        "/readyz) on this port (0: pick a free port; default: off)",
    )
    p.add_argument(
        "--metrics-host", default="127.0.0.1",
        help="address for the telemetry sidecar (default: 127.0.0.1)",
    )
    p.add_argument(
        "--telemetry", action="store_true",
        help="enable obs registries inside pool workers and merge their "
        "metrics into the daemon's at shutdown",
    )
    p.add_argument(
        "--slow-ms", type=float, default=1000.0, metavar="MS",
        help="log a structured slow_request record for requests over "
        "this many milliseconds (default: 1000)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "top", help="live terminal view over a daemon's /metrics endpoint"
    )
    p.add_argument(
        "--url", help="full metrics URL (overrides --host/--metrics-port)"
    )
    p.add_argument("--host", default="127.0.0.1", help="daemon metrics host")
    p.add_argument(
        "--metrics-port", type=int, default=9100, metavar="PORT",
        help="daemon metrics port (default: 9100)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between scrapes (default: 2)",
    )
    p.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    p.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "warm", help="pre-populate a persistent cache store from a .nets file"
    )
    p.add_argument("nets", help=".nets input file")
    p.add_argument("--store", required=True, help="SQLite store to populate")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument(
        "--method", default="patlabor",
        help="router name from the repro.engine registry",
    )
    p.add_argument(
        "--cache", default="symmetry", choices=["translation", "symmetry"],
        help="cache mode used while warming (default: symmetry)",
    )
    _add_profile_flags(p)
    p.set_defaults(func=_cmd_warm)

    p = sub.add_parser("cache", help="cache-store maintenance")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    s = cache_sub.add_parser(
        "stats", help="print entry counts, size, and lifetime hit/miss totals"
    )
    s.add_argument("--store", required=True, help="SQLite store to inspect")
    s.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    s.add_argument(
        "--daemon-socket", metavar="PATH",
        help="also query the daemon on this Unix socket for hit rates "
        "since daemon start",
    )
    s.add_argument(
        "--daemon-host", metavar="ADDR",
        help="also query the daemon at this TCP address",
    )
    s.add_argument(
        "--daemon-port", type=int, default=None, metavar="PORT",
        help="TCP port for --daemon-host",
    )
    s.set_defaults(func=_cmd_cache_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``patlabor`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "events", None)
    ledger_path = getattr(args, "ledger", None) if hasattr(args, "profile") else None
    profiling = (
        getattr(args, "profile", False)
        or getattr(args, "profile_json", None)
        or ledger_path
    )
    if not (profiling or trace_path or events_path):
        return args.func(args)

    from . import obs

    if profiling:
        obs.enable()
    if trace_path:
        obs.trace_enable()
    if events_path:
        obs.events_enable()
    try:
        rc = args.func(args)
    finally:
        obs.disable()
        obs.trace_disable()
        obs.events_disable()
    if profiling:
        print()
        print(obs.span_tree_report())
        summary = obs.metrics_summary()
        if summary:
            print()
            print(summary)
    if getattr(args, "profile_json", None):
        path = obs.dump_json(args.profile_json)
        print(f"\n[metrics written to {path}]")
    if trace_path:
        path = obs.write_chrome_trace(trace_path)
        print(f"[chrome trace written to {path} — load in ui.perfetto.dev]")
    if events_path:
        path = obs.flush_events(events_path)
        print(f"[event log appended to {path}]")
    if ledger_path:
        record = obs.make_record(
            obs.flatten_snapshot(obs.snapshot()),
            name=args.command,
            config={
                k: v
                for k, v in vars(args).items()
                if k not in ("func",) and isinstance(v, (str, int, float, bool, type(None)))
            },
        )
        path = obs.append_record(record, ledger_path)
        print(f"[run {record['run_id']} appended to {path}]")
    return rc


if __name__ == "__main__":
    sys.exit(main())
