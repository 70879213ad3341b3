"""Service-world builders and the SimPacer clock contract."""

from __future__ import annotations

import json
import sys

import pytest

from repro.experiments.service_worlds import (
    build_infp_service,
    ready_info,
    run_appp_client,
    serve_command,
)
from repro.simkernel.kernel import Simulator
from repro.transport import (
    GlassService,
    LoopbackTransport,
    RemoteLookingGlass,
    SimPacer,
)


class TestBuildInfPService:
    def test_exports_the_isp_i2a_glass(self):
        infp_world = build_infp_service(seed=1, with_local_traffic=False)
        assert infp_world.service.owners() == ["isp"]
        assert "congestion" in infp_world.infp.i2a.exported_queries()
        assert infp_world.players == []

    def test_local_traffic_populates_the_world(self):
        # Sessions arrive as the sim advances (the launch schedule is
        # lazy); an un-run world has none yet.
        infp_world = build_infp_service(seed=1, horizon_s=100.0)
        assert infp_world.players == []
        infp_world.sim.run(until=100.0)
        assert len(infp_world.players) > 0

    def test_served_clock_is_the_world_sim(self):
        infp_world = build_infp_service(seed=1, with_local_traffic=False)
        infp_world.sim.run(until=25.0)
        assert infp_world.service.clock() == pytest.approx(25.0)


class TestAppPClientLoop:
    def test_client_world_runs_against_a_served_infp(self):
        # Both planes in one process, joined only by the frame handler:
        # the smallest complete service-mode control loop.
        infp_world = build_infp_service(
            seed=0, n_clients=10, access_capacity_mbps=15.0,
            peak_rate_per_s=1.0, horizon_s=200.0,
        )
        proxy = RemoteLookingGlass(
            LoopbackTransport(infp_world.service.handle_frame),
            owner="isp",
            kind="i2a",
        )
        row = run_appp_client(
            proxy, seed=0, n_clients=10, access_capacity_mbps=15.0,
            peak_rate_per_s=1.0, horizon_s=200.0,
        )
        assert row["sessions"] > 0
        assert row["i2a_queries"] > 0
        assert row["queries_answered"] > 0
        assert row["glass_errors"] == row["i2a_queries"] - row["queries_answered"]
        assert infp_world.service.requests_handled == row["queries_answered"]


class TestServeCommand:
    def test_argv_is_a_module_run_of_the_cli(self):
        argv = serve_command(
            seed=3, port=0, time_scale=60.0, horizon_s=600.0, run_for_s=20.0,
            ready_file="/tmp/ready.json", record="/tmp/feed.jsonl",
        )
        assert argv[:5] == [sys.executable, "-m", "repro.cli", "serve", "infp"]
        assert argv[argv.index("--seed") + 1] == "3"
        assert argv[argv.index("--run-for") + 1] == "20.0"
        assert argv[argv.index("--ready-file") + 1] == "/tmp/ready.json"
        assert argv[argv.index("--record") + 1] == "/tmp/feed.jsonl"

    def test_optional_flags_are_omitted(self):
        argv = serve_command(
            seed=0, port=0, time_scale=60.0, horizon_s=600.0, run_for_s=None,
        )
        assert "--run-for" not in argv
        assert "--ready-file" not in argv
        assert "--record" not in argv

    def test_ready_info_round_trips(self, tmp_path):
        blob = {"port": 4242, "host": "127.0.0.1", "owners": ["isp"]}
        path = tmp_path / "ready.json"
        path.write_text(json.dumps(blob))
        assert ready_info(str(path)) == blob


class TestSimPacer:
    def test_sim_advances_with_the_scaled_wall_clock(self):
        wall = [100.0]
        sim = Simulator(seed=1)
        pacer = SimPacer(sim, time_scale=10.0, clock=lambda: wall[0])
        pacer.start()
        wall[0] = 102.0  # 2 wall seconds -> 20 sim seconds at 10x
        assert pacer.tick() == pytest.approx(20.0)
        assert sim.now == pytest.approx(20.0)

    def test_horizon_caps_the_advance(self):
        wall = [0.0]
        sim = Simulator(seed=1)
        pacer = SimPacer(sim, time_scale=100.0, clock=lambda: wall[0])
        pacer.start()
        wall[0] = 50.0  # earns 5000 sim seconds
        assert pacer.tick(horizon_s=300.0) == pytest.approx(300.0)

    def test_sim_never_runs_backwards(self):
        wall = [0.0]
        sim = Simulator(seed=1)
        pacer = SimPacer(sim, time_scale=1.0, clock=lambda: wall[0])
        pacer.start()
        wall[0] = 10.0
        pacer.tick()
        assert pacer.tick(horizon_s=5.0) == pytest.approx(10.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_degenerate_scales_are_rejected(self, scale):
        with pytest.raises(ValueError):
            SimPacer(Simulator(seed=1), time_scale=scale)


class TestServiceErrorReplies:
    def test_codec_garbage_gets_an_error_reply_not_an_exception(self, world):
        frames = ("definitely not a frame", "[" * 100_000)
        for frame in frames:
            parsed = json.loads(world.service.handle_frame(frame))
            assert parsed["type"] == "ErrorReply"
            assert parsed["body"]["error"] == "CodecError"
        assert world.service.requests_failed == len(frames)

    def test_duplicate_owner_is_rejected(self, world):
        with pytest.raises(ValueError, match="duplicate"):
            world.service.add_glass(world.glass)

    def test_control_owner_is_reserved(self, world):
        class FakeGlass:
            owner = "__control__"

        with pytest.raises(ValueError, match="reserved"):
            world.service.add_glass(FakeGlass())

    def test_service_is_constructible_without_a_clock(self):
        service = GlassService()
        assert service.clock() == 0.0
