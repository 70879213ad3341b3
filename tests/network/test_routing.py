"""Router: shortest and via-constrained paths."""

import pytest

from repro.network.routing import NoRouteError, Router
from repro.network.topology import Topology


def _diamond():
    """a -> (b | c) -> d, with the b branch faster."""
    topo = Topology()
    for node in "abcd":
        topo.add_node(node)
    topo.add_link("a", "b", 10.0, delay_ms=1.0)
    topo.add_link("b", "d", 10.0, delay_ms=1.0)
    topo.add_link("a", "c", 10.0, delay_ms=5.0)
    topo.add_link("c", "d", 10.0, delay_ms=5.0)
    return topo


class TestShortest:
    def test_picks_lower_delay_branch(self):
        router = Router(_diamond())
        assert router.shortest_path("a", "d") == ["a", "b", "d"]

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_node("x")
        topo.add_node("y")
        router = Router(topo)
        with pytest.raises(NoRouteError):
            router.shortest_path("x", "y")

    def test_unknown_node_raises(self):
        router = Router(_diamond())
        with pytest.raises(NoRouteError):
            router.shortest_path("a", "ghost")


class TestVia:
    def test_via_forces_slow_branch(self):
        router = Router(_diamond())
        assert router.path_via("a", "d", via="c") == ["a", "c", "d"]

    def test_via_equals_endpoint(self):
        router = Router(_diamond())
        assert router.path_via("a", "d", via="d") == ["a", "b", "d"]


class TestCache:
    def test_cached_path_is_copied(self):
        router = Router(_diamond())
        first = router.shortest_path("a", "d")
        first.append("tampered")
        assert router.shortest_path("a", "d") == ["a", "b", "d"]

    def test_invalidate_clears(self):
        router = Router(_diamond())
        router.shortest_path("a", "d")
        router.invalidate()
        assert router._cache == {}
