"""Runner/CLI behavior: module inference, exit codes, JSON report, eona lint."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro import cli
from repro.analysis import runner
from repro.analysis.config import SimlintConfig
from repro.analysis.runner import lint_file, module_info

FIXTURES = Path(__file__).parent / "fixtures"


def test_module_info_real_tree() -> None:
    module, layer = module_info(Path("src/repro/network/routing.py"))
    assert module == "repro.network.routing"
    assert layer == "network"
    module, layer = module_info(Path("src/repro/cli.py"))
    assert module == "repro.cli"
    assert layer == "cli"
    module, layer = module_info(Path("src/repro/network/__init__.py"))
    assert module == "repro.network"
    assert layer == "network"


def test_module_info_fixture_tree_and_outsiders() -> None:
    module, layer = module_info(
        FIXTURES / "src" / "repro" / "core" / "bad_floateq.py"
    )
    assert module == "repro.core.bad_floateq"
    assert layer == "core"
    assert module_info(Path("benchmarks/bench_experiments.py")) == (None, None)


def test_cli_exit_one_and_json_schema_on_findings() -> None:
    out = io.StringIO()
    code = runner.main(
        [
            str(FIXTURES / "src"),
            "--config", str(FIXTURES / "pyproject.toml"),
            "--format", "json",
        ],
        stream=out,
    )
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["tool"] == "simlint"
    assert payload["count"] == len(payload["findings"]) > 0
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "message"}


def test_cli_exit_zero_on_clean_file() -> None:
    out = io.StringIO()
    clean = FIXTURES / "src" / "repro" / "network" / "good_suppressed.py"
    code = runner.main(
        [str(clean), "--config", str(FIXTURES / "pyproject.toml")],
        stream=out,
    )
    assert code == 0
    assert "clean" in out.getvalue()


def test_cli_exit_two_on_bad_usage() -> None:
    assert runner.main(["--select", "no-such-rule", "."]) == 2
    assert runner.main(["definitely/not/a/path.py"]) == 2


def test_cli_select_limits_rules() -> None:
    out = io.StringIO()
    code = runner.main(
        [
            str(FIXTURES / "src"),
            "--config", str(FIXTURES / "pyproject.toml"),
            "--select", "no-print",
            "--format", "json",
        ],
        stream=out,
    )
    assert code == 1
    payload = json.loads(out.getvalue())
    assert {f["rule"] for f in payload["findings"]} == {"no-print"}


def test_cli_list_rules() -> None:
    out = io.StringIO()
    assert runner.main(["--list-rules"], stream=out) == 0
    listing = out.getvalue()
    for rule_id in (
        "global-rng", "wall-clock", "layering", "mutable-default",
        "unordered-iter", "float-eq", "handler-purity", "no-print",
    ):
        assert rule_id in listing


def test_eona_lint_subcommand_forwards(capsys) -> None:
    code = cli.main(["lint", "--list-rules"])
    assert code == 0
    assert "layering" in capsys.readouterr().out


def test_parse_error_reported_as_finding(tmp_path: Path) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = lint_file(bad, SimlintConfig.default())
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"
    assert findings[0].line == 1


def test_parse_error_does_not_abort_sibling_files(tmp_path: Path) -> None:
    (tmp_path / "broken.py").write_text("def oops(:\n")
    (tmp_path / "fine.py").write_text("X = 1\n")
    findings = runner.lint_paths([tmp_path], SimlintConfig.default())
    assert [f.rule for f in findings] == ["parse-error"]
    paths = {e.path for e in runner.run_lint(
        [tmp_path], SimlintConfig.default()
    ).graph.entries()}
    assert any(p.endswith("fine.py") for p in paths)
