"""Bench: why EONA's interface is two-way (paper §1, differentiator 2).

"EONA envisions a two-way interface as opposed to prior work that
envisioned an one-way exchange."  Running the one-way designs through
both headline scenarios shows each direction is *essential somewhere*:

* Figure 3 (E2): the fix is the application's bitrate knob -- I2A-only
  matches full EONA, A2I-only is exactly the status quo;
* Figure 5 (E4): the fix is the ISP's placement knob -- A2I-only
  matches full EONA, I2A-only leaves the ISP flapping.

Only the bidirectional interface covers the scenario suite.
"""

from repro.experiments import exp_e2_flash_crowd, exp_e4_oscillation


def test_bidirectionality_tables(benchmark, table_sink):
    def run_both():
        e2 = exp_e2_flash_crowd.run(
            seed=0, include_oneway=True, include_oracle=False
        )
        e2.name = "E2-oneway"
        e4 = exp_e4_oscillation.run(
            seed=0, include_oneway=True, include_oracle=False
        )
        e4.name = "E4-oneway"
        return e2, e4

    e2, e4 = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table_sink(e2)
    table_sink(e4)

    # Figure 3: I2A is the binding direction.
    assert (
        e2.row(mode="a2i_only")["buffering_ratio"]
        == e2.row(mode="status_quo")["buffering_ratio"]
    )
    assert (
        e2.row(mode="i2a_only")["buffering_ratio"]
        == e2.row(mode="eona")["buffering_ratio"]
    )
    # Figure 5: A2I is the binding direction.
    assert (
        e4.row(mode="i2a_only")["te_switches"]
        >= e4.row(mode="status_quo")["te_switches"] * 0.8
    )
    assert e4.row(mode="a2i_only")["te_switches"] <= 3
    # Full EONA matches the better one-way design in each scenario.
    assert (
        e4.row(mode="eona")["te_switches"]
        <= e4.row(mode="a2i_only")["te_switches"]
    )
