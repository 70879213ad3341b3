"""Loading scenario specs from YAML files, dicts, and the library.

The committed scenario library lives next to this module under
``library/*.yaml`` -- one file per scenario, ``<name>.yaml`` matching
the spec's ``name`` field.  ``eona scenarios list|show|validate`` and
:func:`repro.scenarios.bundles.build_scenario` both resolve through
:func:`load_library_spec`, so the library is the single source of truth
for every world the experiments run on.

PyYAML is an optional dependency of this module alone: dict-shaped
specs (:func:`load_spec`) work without it, and the import error only
surfaces when a ``.yaml`` file is actually opened.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Mapping, Union

from repro.scenarios.schema import ScenarioError, ScenarioSpec

try:  # pragma: no cover - exercised only where PyYAML is missing
    import yaml
except ImportError:  # pragma: no cover
    yaml = None  # type: ignore[assignment]

__all__ = [
    "library_dir",
    "library_names",
    "load_spec",
    "load_file",
    "load_library_spec",
    "validate_spec",
    "dump_spec",
    "load_round_trip",
]


def library_dir() -> Path:
    """The committed scenario library (``src/repro/scenarios/library``)."""
    return Path(__file__).resolve().parent / "library"


def library_names() -> List[str]:
    """Names of every committed library spec, sorted."""
    return sorted(path.stem for path in library_dir().glob("*.yaml"))


def load_spec(data: Union[Mapping[str, Any], ScenarioSpec]) -> ScenarioSpec:
    """Parse and referentially validate a dict-shaped spec."""
    if isinstance(data, ScenarioSpec):
        spec = data
    else:
        spec = ScenarioSpec.from_dict(data)
    spec.validate()
    return spec


def load_file(path: Union[str, Path]) -> ScenarioSpec:
    """Load one spec from a YAML file."""
    if yaml is None:  # pragma: no cover - PyYAML ships in the toolchain
        raise ScenarioError(
            "PyYAML is required to load .yaml scenario files;"
            " use load_spec() with a dict instead"
        )
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as error:
        raise ScenarioError(f"{path}: invalid YAML: {error}") from None
    if raw is None:
        raise ScenarioError(f"{path}: empty scenario file")
    try:
        return load_spec(raw)
    except ScenarioError as error:
        raise ScenarioError(f"{path}: {error}") from None


def load_library_spec(name: str) -> ScenarioSpec:
    """Load a committed library spec by name."""
    path = library_dir() / f"{name}.yaml"
    if not path.exists():
        known = ", ".join(library_names()) or "none"
        raise ScenarioError(f"unknown scenario {name!r} (library: {known})")
    spec = load_file(path)
    if spec.name != name:
        raise ScenarioError(
            f"{path}: spec name {spec.name!r} does not match file name {name!r}"
        )
    return spec


def validate_spec(spec: ScenarioSpec, strict_named_plans: bool = False) -> List[str]:
    """Validate one spec; returns problem strings instead of raising.

    With ``strict_named_plans``, ``use:`` fault references must resolve
    in the named-plan registry (callers load the experiment registry
    first -- that is what registers the plans); the CLI's ``validate``
    runs in this mode.
    """
    problems: List[str] = []
    try:
        spec.validate()
    except ScenarioError as error:
        problems.append(str(error))
        return problems
    if strict_named_plans:
        from repro.faults.plan import get_plan

        for index, fault in enumerate(spec.faults):
            if not fault.use:
                continue
            try:
                get_plan(fault.use)
            except KeyError as error:
                problems.append(f"scenario.faults[{index}]: {error.args[0]}")
    return problems


def dump_spec(spec: ScenarioSpec) -> str:
    """Serialize a spec back to YAML (the ``eona scenarios show`` view)."""
    if yaml is None:  # pragma: no cover
        raise ScenarioError("PyYAML is required to dump scenario specs")
    return yaml.safe_dump(spec.to_dict(), sort_keys=False, default_flow_style=False)


def load_round_trip(spec: ScenarioSpec) -> ScenarioSpec:
    """load -> dump -> load; the identity the schema tests pin."""
    if yaml is None:  # pragma: no cover
        return load_spec(spec.to_dict())
    return load_spec(yaml.safe_load(dump_spec(spec)))
