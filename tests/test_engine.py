"""Tests for the ``repro.engine`` layer: protocol, registry, middleware,
engine assembly, and the symmetry-canonicalizing cache's transparency."""

import random

import pytest

from repro.core.cache import CachedRouter, canonical_key, translation_key
from repro.core.patlabor import PatLabor, PatLaborConfig
from repro.engine import (
    EngineSpec,
    FunctionRouter,
    Router,
    RouterCapabilities,
    RouterMiddleware,
    available_routers,
    build_engine,
    create_router,
    register_router,
    router_entry,
)
from repro.exceptions import DegreeTooLargeError, InvalidNetError
from repro.geometry.net import Net, random_net
from repro.geometry.point import Point
from repro.geometry.transforms import ALL_TRANSFORMS
from repro.routing.validate import check_spans_net
from repro import obs


def _objectives(front, ndigits=9):
    return [(round(w, ndigits), round(d, ndigits)) for w, d, _ in front]


def _dihedral_copy(net, transform, dx=0.0, dy=0.0, name=""):
    """The net's image under a D4 element about its source, then a shift."""
    x0, y0 = net.source
    pins = []
    for p in net.pins:
        cx, cy = transform.apply_point(p.x - x0, p.y - y0)
        pins.append(Point(cx + x0 + dx, cy + y0 + dy))
    return Net(pins=tuple(pins), name=name or f"{net.name}/{transform.name}")


class TestRegistry:
    def test_expected_routers_registered(self):
        names = available_routers()
        for expected in ("patlabor", "pareto-dw", "pareto-ks", "salt",
                         "ysd", "pd", "rsmt", "rsma"):
            assert expected in names

    def test_lookup_is_case_and_separator_insensitive(self):
        for alias in ("PatLabor", "patlabor", "PATLABOR", "pat_labor"):
            assert router_entry(alias).name == "patlabor"
        assert router_entry("ParetoKS").name == "pareto-ks"
        assert router_entry("Pareto-DW").name == "pareto-dw"

    def test_unknown_name_lists_known_routers(self):
        with pytest.raises(KeyError, match="patlabor"):
            create_router("no-such-router")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_router("patlabor")(lambda: None)

    def test_factory_options_forwarded(self):
        router = create_router("patlabor", config=PatLaborConfig(lam=5))
        assert router.config.lam == 5
        assert router.capabilities.exact_up_to == 5

    def test_capabilities_cached_until_lambda_changes(self):
        router = create_router("patlabor")
        caps = router.capabilities
        assert router.capabilities is caps  # not rebuilt per routed net
        router.config.lam = 6  # PatLaborConfig is mutable
        assert router.capabilities.exact_up_to == 6
        router.config = PatLaborConfig(lam=4)
        assert router.capabilities.exact_up_to == 4

    def test_every_router_satisfies_protocol_and_routes(self):
        net = random_net(5, rng=random.Random(0), name="probe")
        for name in available_routers():
            router = create_router(name)
            assert isinstance(router, Router)
            assert router.name
            assert isinstance(router.capabilities, RouterCapabilities)
            front = router.route(net)
            assert front, f"{name} returned an empty front"
            for w, d, tree in front:
                assert w > 0 and d > 0
                check_spans_net(tree)

    def test_single_tree_routers_return_singleton_fronts(self):
        net = random_net(6, rng=random.Random(1))
        for name in ("rsmt", "rsma"):
            router = create_router(name)
            assert not router.capabilities.pareto
            assert len(router.route(net)) == 1


class TestMiddleware:
    def test_validating_router_rejects_non_net(self):
        engine = build_engine("patlabor")
        with pytest.raises(InvalidNetError, match="expects a"):
            engine.route([(0, 0), (1, 1)])

    def test_validating_router_enforces_max_degree_at_boundary(self):
        calls = []

        @register_router("test-capped", summary="test stub")
        def _make():
            def route(net):
                calls.append(net)
                return []

            return FunctionRouter(
                "test-capped", route, RouterCapabilities(max_degree=4)
            )

        engine = build_engine("test-capped")
        big = random_net(6, rng=random.Random(2))
        with pytest.raises(DegreeTooLargeError):
            engine.route(big)
        assert calls == []  # rejected before the router ever ran

    def test_attribute_forwarding_through_stack(self):
        engine = build_engine(
            EngineSpec(router="patlabor", cache="translation")
        )
        net = random_net(5, rng=random.Random(3))
        engine.route(net)
        engine.route(net)
        # hits/misses live on the cache layer, dispatch_tier on PatLabor;
        # both are reachable from the assembled stack.
        assert engine.hits == 1 and engine.misses == 1
        assert engine.dispatch_tier(net) == "dw"
        assert engine.name == "patlabor"

    def test_engine_results_match_bare_router(self):
        net = random_net(7, rng=random.Random(4))
        bare = PatLabor().route(net)
        engine = build_engine(EngineSpec(router="patlabor", cache="symmetry"))
        assert _objectives(engine.route(net)) == _objectives(bare)

    def test_every_router_gets_net_routed_events(self):
        """The point of hoisting events into middleware: baselines too."""
        obs.reset()
        obs.events_enable()
        try:
            net = random_net(5, rng=random.Random(5), name="salted")
            build_engine("salt").route(net)
            events = obs.get_event_log().events()
        finally:
            obs.events_disable()
            obs.reset()
        routed = [e for e in events if e["kind"] == "net_routed"]
        assert len(routed) == 1
        assert routed[0]["net"] == "salted"
        assert routed[0]["tier"] == "salt"  # no dispatch_tier: router name
        assert routed[0]["front_size"] >= 1

    def test_cache_hits_do_not_emit_net_routed(self):
        obs.reset()
        obs.events_enable()
        try:
            net = random_net(5, rng=random.Random(6), name="once")
            engine = build_engine(
                EngineSpec(router="patlabor", cache="translation")
            )
            engine.route(net)
            engine.route(net)
            events = obs.get_event_log().events()
        finally:
            obs.events_disable()
            obs.reset()
        assert sum(e["kind"] == "net_routed" for e in events) == 1

    def test_unknown_cache_mode_rejected(self):
        with pytest.raises(ValueError, match="cache mode"):
            build_engine(EngineSpec(router="patlabor", cache="bogus"))


class TestEngineSpecLut:
    """``EngineSpec.lut`` is the one way to arm a lookup table."""

    def test_shipped_path_arms_the_default_table_object(self):
        from repro.lut.default import DATA_FILE, default_table

        engine = build_engine(EngineSpec(lut=DATA_FILE))
        # ``lut`` forwards through the validating and observing layers.
        assert isinstance(engine, RouterMiddleware)
        assert engine.lut is default_table()

    def test_every_spelling_of_a_path_shares_one_table(self):
        import os

        from repro.lut.default import DATA_FILE

        tables = {
            id(build_engine(EngineSpec(lut=lut)).lut)
            for lut in (DATA_FILE, str(DATA_FILE), os.path.relpath(DATA_FILE))
        }
        assert len(tables) == 1

    def test_lut_on_a_tableless_router_is_rejected(self):
        from repro.lut.default import DATA_FILE

        with pytest.raises(ValueError, match="takes no lookup table"):
            build_engine(EngineSpec(router="salt", lut=DATA_FILE))

    def test_lut_router_option_is_rejected(self):
        from repro.lut.default import default_table

        with pytest.raises(ValueError, match="EngineSpec.lut"):
            build_engine(EngineSpec(router_options={"lut": default_table()}))

    def test_spec_is_frozen(self):
        with pytest.raises(AttributeError):
            EngineSpec().cache = "symmetry"


class TestSymmetryCacheTransparency:
    """Property: the canonicalizing cache is invisible to callers.

    For random nets and random dihedral/translated copies, a cache hit
    must return fronts objective-identical to a cold route of the copy,
    with structurally valid trees at the copy's exact coordinates.
    """

    def test_dihedral_and_translated_copies_hit_and_match_cold_routes(self):
        rng = random.Random(1234)
        for trial in range(6):
            net = random_net(
                rng.randint(4, 6), rng=rng, grid=9, name=f"base{trial}"
            )
            cache = CachedRouter(PatLabor(), canonicalize="symmetry")
            cache.route(net)
            assert cache.misses == 1
            for i, t in enumerate(random.Random(trial).sample(
                    list(ALL_TRANSFORMS), 4)):
                copy = _dihedral_copy(
                    net, t, dx=13.0 * i - 7.0, dy=5.0 * i + 11.0
                )
                served = cache.route(copy)
                assert cache.misses == 1, (
                    f"{copy.name} missed the symmetry cache"
                )
                cold = PatLabor().route(copy)
                assert _objectives(served) == _objectives(cold)
                for _w, _d, tree in served:
                    check_spans_net(tree)
                    assert tree.net.key() == copy.key()

    def test_translation_only_cache_misses_mirrored_copies(self):
        net = random_net(5, rng=random.Random(7), grid=8)
        mirror = _dihedral_copy(net, ALL_TRANSFORMS[2])  # flip_x
        trans = CachedRouter(PatLabor(), canonicalize="translation")
        sym = CachedRouter(PatLabor(), canonicalize="symmetry")
        for router in (trans, sym):
            router.route(net)
            router.route(mirror)
        assert trans.hits == 0 and trans.misses == 2
        assert sym.hits == 1 and sym.misses == 1

    def test_canonical_key_equals_translation_key_semantics_for_identity(self):
        # A net and its pure translate share a canonical key too.
        net = random_net(6, rng=random.Random(8))
        moved = net.translated(41.0, -17.5)
        assert canonical_key(net)[0] == canonical_key(moved)[0]
        # And canonicalization never splits what translation joins.
        assert translation_key(net) == translation_key(moved)

    def test_symmetric_copies_share_one_entry_all_eight(self):
        net = random_net(5, rng=random.Random(9), grid=8)
        keys = {canonical_key(_dihedral_copy(net, t))[0]
                for t in ALL_TRANSFORMS}
        assert len(keys) == 1


class TestPointPolicies:
    """Frontier point-selection policies (the negotiation/serve hook)."""

    def _front(self):
        # A strict sorted front: w ascending, d descending.
        return [
            (10.0, 40.0, "a"),
            (14.0, 22.0, "b"),
            (20.0, 20.0, "c"),
        ]

    def _net(self):
        return Net.from_points((0, 0), [(10, 0), (0, 10)], name="p")

    def test_named_policies_resolve_and_select(self):
        from repro.engine import resolve_point_policy

        net, front = self._net(), self._front()
        assert resolve_point_policy("min_wirelength").select(net, front) == 0
        assert resolve_point_policy("min_wl").select(net, front) == 0
        assert resolve_point_policy("min_delay").select(net, front) == 2
        knee = resolve_point_policy("knee").select(net, front)
        assert knee in range(len(front))

    def test_resolution_is_case_and_separator_insensitive(self):
        from repro.engine import resolve_point_policy

        a = resolve_point_policy("MIN-DELAY")
        b = resolve_point_policy("min_delay")
        assert a.name == b.name == "min_delay"

    def test_budget_policy_picks_min_wire_within_slack(self):
        from repro.engine import resolve_point_policy

        net, front = self._net(), self._front()
        lb = net.delay_lower_bound()
        # Generous slack: every point feasible -> min wirelength wins.
        wide = resolve_point_policy(f"budget:{40.0 / lb}")
        assert wide.select(net, front) == 0
        # Tight slack: only the min-delay point fits.
        tight = resolve_point_policy("budget:0")
        assert tight.select(net, front) == 2

    def test_budget_policy_name_round_trips(self):
        from repro.engine import resolve_point_policy

        assert resolve_point_policy("budget:0.25").name == "budget:0.25"

    def test_unknown_and_malformed_specs_raise(self):
        from repro.engine import resolve_point_policy
        from repro.exceptions import PolicyError

        for spec in ("nope", "budget:", "budget:x", "budget:-1"):
            with pytest.raises(PolicyError):
                resolve_point_policy(spec)

    def test_empty_front_raises(self):
        from repro.engine import resolve_point_policy
        from repro.exceptions import PolicyError

        with pytest.raises(PolicyError):
            resolve_point_policy("min_delay").select(self._net(), [])

    def test_route_select_returns_front_and_valid_index(self):
        from repro.engine import route_select

        net = random_net(5, rng=random.Random(77), name="sel")
        router = PatLabor()
        front, chosen = route_select(router, net, "min_delay")
        assert front == router.route(net)
        assert 0 <= chosen < len(front)
        assert front[chosen][1] == min(d for _w, d, _t in front)

    def test_capabilities_flag_matches_router_kind(self):
        assert create_router("patlabor").capabilities.frontier_selection
        assert not create_router("rsmt").capabilities.frontier_selection
        assert not create_router("rsma").capabilities.frontier_selection
