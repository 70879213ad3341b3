"""Malformed specs are rejected with a ``scenario.`` path, on every route.

Each case is rejected the same way whether the spec is validated
(``validate_spec`` / ``eona scenarios validate``) or built
(``build_scenario``): as a :class:`ScenarioError` whose message names the
offending field's full path -- never a ``KeyError``/``TypeError``
traceback, and never a silently coerced value.
"""

from __future__ import annotations

import pytest
import yaml

from repro.cli import main
from repro.scenarios import build_scenario, load_library_spec, validate_spec
from repro.scenarios import loader
from repro.scenarios.schema import ScenarioError, ScenarioSpec

BASE = "coarse-control"


def _non_string_owner(data):
    data["topology"]["build"][0]["node"]["owner"] = 5


def _listed_kind(data):
    data["topology"]["build"][0]["node"]["kind"] = ["x"]


def _server_without_node(data):
    data["cdns"][0]["servers"] = [{"id": "s1"}]


def _negative_cache(data):
    data["cdns"][0]["servers"][0]["cache_mbit"] = -5


def _negative_warm_fraction(data):
    data["cdns"][0]["warm_top_fraction"] = -0.5


def _negative_degraded_default(data):
    data["params"]["degraded_rate_mbps"] = -1


def _nan_cache(data):
    data["cdns"][0]["servers"][0]["cache_mbit"] = float("nan")


def _nan_warm_fraction(data):
    data["cdns"][0]["warm_top_fraction"] = float("nan")


def _nan_degraded_default(data):
    data["params"]["degraded_rate_mbps"] = float("nan")


#: (mutation of the coarse-control spec dict, path the message must name)
CASES = {
    "non-string-owner": (_non_string_owner, "scenario.topology.build[0].node.owner"),
    "list-node-kind": (_listed_kind, "scenario.topology.build[0].node.kind"),
    "server-without-node": (_server_without_node, "scenario.cdns[0].servers[0]"),
    "negative-cache": (_negative_cache, "scenario.cdns[0].servers[0].cache_mbit"),
    "negative-warm-fraction": (
        _negative_warm_fraction, "scenario.cdns[0].warm_top_fraction"
    ),
    "negative-degraded-rate": (
        _negative_degraded_default, "scenario.cdns[0].servers[0].degraded_rate_mbps"
    ),
    "nan-cache": (_nan_cache, "scenario.cdns[0].servers[0].cache_mbit"),
    "nan-warm-fraction": (_nan_warm_fraction, "scenario.cdns[0].warm_top_fraction"),
    "nan-degraded-rate": (
        _nan_degraded_default, "scenario.cdns[0].servers[0].degraded_rate_mbps"
    ),
}


def _bad_spec(case: str) -> dict:
    mutate, _ = CASES[case]
    data = load_library_spec(BASE).to_dict()
    mutate(data)
    return data


def _validation_problems(data: dict) -> list:
    """What ``validate_spec`` reports (parse errors raise before it can)."""
    try:
        spec = ScenarioSpec.from_dict(data)
    except ScenarioError as error:
        return [str(error)]
    return validate_spec(spec)


@pytest.fixture
def bad_library(tmp_path, monkeypatch):
    """A one-spec library holding ``BASE`` mutated by a case."""

    def install(case: str):
        (tmp_path / f"{BASE}.yaml").write_text(yaml.safe_dump(_bad_spec(case)))
        monkeypatch.setattr(loader, "library_dir", lambda: tmp_path)
        return tmp_path / f"{BASE}.yaml"

    return install


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_names_the_path(case):
    (problem,) = _validation_problems(_bad_spec(case))
    assert CASES[case][1] in problem


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_names_the_path(case, bad_library):
    bad_library(case)
    with pytest.raises(ScenarioError) as caught:
        build_scenario(BASE)
    assert CASES[case][1] in str(caught.value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_validate_reports_instead_of_crashing(case, bad_library, capsys):
    path = bad_library(case)
    assert main(["scenarios", "validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert CASES[case][1] in out
    assert "Traceback" not in out


def test_override_is_bound_checked_like_validate():
    with pytest.raises(ScenarioError) as caught:
        build_scenario(BASE, params={"degraded_rate_mbps": -1})
    message = str(caught.value)
    assert "scenario.cdns[0].servers[0].degraded_rate_mbps" in message
    assert "must be > 0" in message
