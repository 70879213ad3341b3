"""Web pages, browser loads, and the PLT satisfaction curve."""

import math
import random

import pytest

from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator
from repro.web.browser import Browser
from repro.web.page import WebPage, make_page
from repro.web.qoe import satisfaction_from_plt


class TestPage:
    def test_make_page_within_ranges(self):
        rng = random.Random(0)
        page = make_page(rng, "p", n_objects_range=(5, 10),
                         object_mbit_range=(0.1, 0.5))
        assert 5 <= len(page.object_sizes_mbit) <= 10
        assert all(0.1 <= s <= 0.5 for s in page.object_sizes_mbit)
        assert page.object_count == len(page.object_sizes_mbit) + 1

    def test_total_size(self):
        page = WebPage("p", main_mbit=0.2, object_sizes_mbit=(0.3, 0.5))
        assert page.total_mbit == pytest.approx(1.0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            make_page(random.Random(0), "p", n_objects_range=(5, 2))


def _world(capacity=10.0):
    sim = Simulator(seed=0)
    topo = Topology()
    topo.add_node("web", NodeKind.SERVER)
    topo.add_node("ue", NodeKind.CLIENT)
    topo.add_link("web", "ue", capacity)
    net = FluidNetwork(sim, topo)
    return sim, net


class TestBrowser:
    def test_plt_accounts_for_all_objects(self):
        sim, net = _world(capacity=10.0)
        browser = Browser(sim, net, "ue", "web", parallelism=2)
        page = WebPage("p", main_mbit=1.0, object_sizes_mbit=(2.0, 2.0, 2.0))
        done = []
        browser.load_page(page, on_done=done.append)
        sim.run()
        record = done[0]
        # 7 Mbit over a 10 Mbps link, with parallelism just changing
        # interleaving: PLT = total/capacity = 0.7 s exactly.
        assert record.plt_s == pytest.approx(0.7)
        assert record.main_doc_s == pytest.approx(0.1)
        assert record.object_count == 4

    def test_empty_page_is_just_main_doc(self):
        sim, net = _world()
        browser = Browser(sim, net, "ue", "web")
        done = []
        browser.load_page(WebPage("p", 1.0, ()), on_done=done.append)
        sim.run()
        assert done[0].plt_s == pytest.approx(0.1)

    def test_parallelism_bounded(self):
        sim, net = _world()
        browser = Browser(sim, net, "ue", "web", parallelism=2)
        page = WebPage("p", main_mbit=0.1, object_sizes_mbit=tuple([1.0] * 8))
        peak = []

        def watch():
            peak.append(len(net.active_flows()))
            if net.active_flows():
                sim.schedule(0.05, watch)

        browser.load_page(page)
        sim.schedule(0.15, watch)
        sim.run()
        assert max(peak) <= 2

    def test_records_accumulate(self):
        sim, net = _world()
        browser = Browser(sim, net, "ue", "web")
        for i in range(3):
            browser.load_page(WebPage(f"p{i}", 0.5, (0.5,)))
        sim.run()
        assert len(browser.records) == 3

    def test_invalid_parallelism(self):
        sim, net = _world()
        with pytest.raises(ValueError):
            Browser(sim, net, "ue", "web", parallelism=0)


class TestSatisfaction:
    def test_monotone_decreasing(self):
        values = [satisfaction_from_plt(t) for t in (0.5, 2.0, 5.0, 10.0, 20.0)]
        assert values == sorted(values, reverse=True)

    def test_midpoint_is_half(self):
        assert satisfaction_from_plt(5.0, midpoint_s=5.0) == pytest.approx(0.5)

    def test_fast_load_near_one(self):
        assert satisfaction_from_plt(0.5) > 0.95

    def test_overflowing_plt_is_zero(self):
        # exp(0.8 * (900 - 5)) overflows a double: the limit, not an error.
        assert satisfaction_from_plt(900.0) == 0.0
        assert satisfaction_from_plt(math.inf) == 0.0

    def test_values_below_overflow_unchanged(self):
        for plt in (0.0, 5.0, 100.0, 880.0):
            assert satisfaction_from_plt(plt) == 1.0 / (1.0 + math.exp(0.8 * (plt - 5.0)))

    def test_negative_plt_rejected(self):
        with pytest.raises(ValueError):
            satisfaction_from_plt(-1.0)
