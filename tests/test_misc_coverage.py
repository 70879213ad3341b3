"""Edge cases that don't belong to one package's suite."""

from repro.sdn.messages import PortStats, StatsReply
from repro.telemetry.records import record_from_pageload
from repro.web.browser import PageLoadRecord


class TestPortStats:
    def test_utilization(self):
        stats = PortStats("l", load_mbps=5.0, capacity_mbps=10.0, mbit_carried=0.0)
        assert stats.utilization == 0.5

    def test_zero_capacity_guard(self):
        stats = PortStats("l", load_mbps=5.0, capacity_mbps=0.0, mbit_carried=0.0)
        assert stats.utilization == 0.0

    def test_stats_reply_port_lookup(self):
        reply = StatsReply(
            switch_id="sw", time=1.0,
            ports=(PortStats("a", 1.0, 2.0, 0.0), PortStats("b", 1.0, 2.0, 0.0)),
        )
        assert reply.port("b").link_id == "b"
        assert reply.port("missing") is None


class TestPageloadBeacon:
    def _record(self):
        return PageLoadRecord(
            page_id="p", client_node="ue0", started_at=10.0, plt_s=3.0,
            main_doc_s=0.5, total_mbit=4.0, object_count=7,
            mean_throughput_mbps=4.0 / 3.0,
            frac_good=0.8, frac_fair=0.1, frac_poor=0.1,
            handovers=1, radio_transitions=3,
        )

    def test_beacon_fields(self):
        beacon = record_from_pageload(self._record(), isp="cell1")
        assert beacon.time == 13.0  # start + PLT
        assert beacon.attr("app") == "web"
        assert beacon.attr("isp") == "cell1"
        assert beacon.metric("plt_s") == 3.0

    def test_extra_attrs_merged(self):
        beacon = record_from_pageload(self._record(), extra_attrs={"city": "x"})
        assert beacon.attr("city") == "x"


class TestPublicApiSurface:
    def test_top_level_packages_importable(self):
        import repro.baselines
        import repro.cdn
        import repro.core
        import repro.experiments
        import repro.faults
        import repro.network
        import repro.sdn
        import repro.simkernel
        import repro.telemetry
        import repro.video
        import repro.web
        import repro.workloads

    def test_all_exports_resolve(self):
        """Every name in each package's __all__ must actually exist."""
        import importlib

        packages = [
            "repro.simkernel", "repro.network", "repro.sdn", "repro.cdn",
            "repro.video", "repro.web", "repro.telemetry", "repro.core",
            "repro.baselines", "repro.workloads", "repro.faults",
        ]
        for name in packages:
            module = importlib.import_module(name)
            for exported in getattr(module, "__all__", []):
                assert hasattr(module, exported), f"{name}.{exported}"

    def test_registered_variants_all_runnable_signatures(self):
        """Each spec variant's runner is callable with just a seed (the
        contract `eona run all` and the multiseed driver rely on)."""
        import inspect

        from repro.experiments import registry

        for spec in registry.all_specs():
            assert spec.title, spec.exp_id
            for variant in spec.variants:
                signature = inspect.signature(variant.runner)
                required = [
                    parameter
                    for parameter in signature.parameters.values()
                    if parameter.default is inspect.Parameter.empty
                    and parameter.kind
                    not in (
                        inspect.Parameter.VAR_POSITIONAL,
                        inspect.Parameter.VAR_KEYWORD,
                    )
                ]
                assert len(required) <= 1, f"{spec.exp_id}/{variant.name}"
