"""Per-layer spans, recorded from outside the program.

A :class:`Recorder` times the calls into each layer's public functions
without touching ``src/``:

* it becomes :attr:`Simulator.default_dispatch_hook`, so every event
  handler of a simulator built while it is installed runs inside a
  span charged to the handler's layer (its ``__module__`` looked up in
  the ``[tool.simlint.layers]`` table that ``repro.analysis.config``
  parses);
* it replaces a fixed list of public methods and functions with timing
  wrappers (:data:`CLASS_METHODS`, :data:`FUNCTIONS`) and puts every
  original back on :meth:`Recorder.uninstall`.

Attribution stops at those public boundaries: a private callback (the
arrival process calling a session-start closure, the fluid network
calling back into a player) is charged to the layer of the handler or
wrapped call that encloses it.

Spans are kept in memory -- one row per span: id, name, parent id,
start, end, self time -- and written out by :meth:`Recorder.save` when
the run ends.  A span's self time is its duration minus the durations
of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class, method, layer) wrapped on the class.
CLASS_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.simkernel.kernel", "Simulator", "run", "simkernel"),
    ("repro.network.allocator", "AllocationEngine", "solve", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "start_transfer", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "start_stream", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "abort", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "set_demand", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "set_weight", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "update_streams", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "reroute", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "set_link_capacity", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "set_via_policy", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "set_split_policy", "network"),
    ("repro.network.fluidsim", "FluidNetwork", "sync", "network"),
    ("repro.core.interfaces", "LookingGlass", "query", "core"),
    ("repro.sdn.stats", "StatsService", "poll_once", "sdn"),
    ("repro.telemetry.aggregate", "GroupByAggregator", "add", "telemetry"),
    ("repro.telemetry.aggregate", "GroupByAggregator", "flush", "telemetry"),
    ("repro.transport.tcp", "TcpTransport", "request", "transport"),
    ("repro.transport.service", "GlassService", "handle_frame", "transport"),
    ("repro.transport.service", "SimPacer", "tick", "transport"),
)

#: (module, function, layer) wrapped in the defining module and in every
#: loaded module that imported the same object by name.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scenarios.bundles", "build_scenario", "scenarios"),
    ("repro.transport.codec", "encode", "transport"),
    ("repro.transport.codec", "decode", "transport"),
)

HANDLER = "handler"
CALL = "call"


def layer_table(root: Path) -> Tuple[str, ...]:
    """Layer names of ``[tool.simlint.layers]`` in ``root/pyproject.toml``."""
    from repro.analysis.config import SimlintConfig

    return tuple(sorted(SimlintConfig.from_pyproject(root / "pyproject.toml").layers))


def layer_of(module: str, layers: Tuple[str, ...]) -> Optional[str]:
    """``repro.<layer>.…`` -> ``<layer>`` if the table declares it."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in layers:
        return parts[1]
    return None


def _handler_function(fn: Callable[..., Any]) -> Any:
    """The function object behind a handler (bound method, partial, …)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


class Recorder:
    """Collects spans and counts at layer boundaries for one process.

    Args:
        layers: The layer table (see :func:`layer_table`).
    """

    def __init__(self, layers: Tuple[str, ...]):
        self.layers = layers
        #: name id -> (layer, kind, name)
        self.names: List[Tuple[str, str, str]] = []
        self._name_ids: Dict[Tuple[str, str, str], int] = {}
        self._handler_ids: Dict[Any, int] = {}
        self.ids = array("q")
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self._stack: List[list] = []
        self._next_id = 0
        self.counts: Dict[str, float] = {}
        self.handler_modules: Dict[str, Optional[str]] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._wrapped_functions: Dict[int, Tuple[object, object]] = {}
        self._previous_hook: Any = None
        self._periodic_type: Any = ()
        self.installed = False
        self.wall_s = 0.0
        self._wall_start = 0.0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def name_id(self, layer: str, kind: str, name: str) -> int:
        key = (layer, kind, name)
        found = self._name_ids.get(key)
        if found is None:
            found = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return found

    def _enter(self, name_id: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, name_id, parent, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name_id, parent, start, children = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.ids.append(span_id)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        self.selfs.append(duration - children)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    # the dispatch hook
    # ------------------------------------------------------------------
    def _handler_name(self, fn: Callable[..., Any]) -> int:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, self._periodic_type):
            # A periodic process fires its public ``fn``: charge that.
            fn = owner.fn
        inner = _handler_function(fn)
        found = self._handler_ids.get(inner)
        if found is None:
            module = getattr(inner, "__module__", None) or type(inner).__module__
            layer = layer_of(module, self.layers)
            self.handler_modules[module] = layer
            qualname = getattr(inner, "__qualname__", type(inner).__qualname__)
            found = self.name_id(layer or "unmapped", HANDLER, f"{module}.{qualname}")
            self._handler_ids[inner] = found
        return found

    def _dispatch(self, now: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        name_id = self._handler_name(fn)
        if self.names[name_id][0] == "cohorts":
            # Generation rows the tick is about to update (public gauge).
            rows = getattr(getattr(fn, "__self__", None), "generations", None)
            if rows is not None:
                self.count("cohorts.rows", rows)
        self._enter(name_id)
        try:
            fn(*args)
        finally:
            self._exit()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        name_id = self.name_id(layer, CALL, name)
        observe = _OBSERVERS.get(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._exit()
            if observe is not None:
                observe(recorder, args, result)
            return result

        return wrapper

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Hook the kernel and wrap every listed public entry point."""
        if self.installed:
            raise RuntimeError("recorder already installed")
        from repro.simkernel.kernel import Simulator
        from repro.simkernel.processes import PeriodicProcess

        if Simulator.default_dispatch_hook is not None:
            raise RuntimeError("another dispatch hook is already installed")
        self._periodic_type = PeriodicProcess
        for module_name, class_name, method, layer in CLASS_METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self._wrap(original, layer, f"{class_name}.{method}"))
        for module_name, function, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function)
            wrapped = self._wrap(original, layer, function)
            self._wrapped_functions[id(wrapped)] = (wrapped, original)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and namespace.get(function) is original:
                    self._patch(module, function, wrapped)
        self._previous_hook = Simulator.default_dispatch_hook
        Simulator.default_dispatch_hook = self._dispatch
        self.installed = True
        self._wall_start = time.perf_counter()

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        if not self.installed:
            return
        self.wall_s += time.perf_counter() - self._wall_start
        from repro.simkernel.kernel import Simulator

        Simulator.default_dispatch_hook = self._previous_hook
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        # A module first imported while installed bound a wrapper by name.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attribute, value in list(namespace.items()):
                entry = self._wrapped_functions.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
        self._wrapped_functions.clear()
        self.installed = False

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Per-layer and per-name sums over the recorded spans.

        Keys: ``<layer>.self_s``, ``<layer>.handlers``,
        ``call:<name>.n``, ``call:<name>.incl_s``, ``call:<name>.self_s``,
        ``spans``, ``wall_s``, plus every :meth:`count` key.
        """
        out: Dict[str, float] = dict(self.counts)
        for index in range(len(self.ids)):
            layer, kind, name = self.names[self.name_ids[index]]
            own = self.selfs[index]
            key = f"{layer}.self_s"
            out[key] = out.get(key, 0.0) + own
            if kind == HANDLER:
                key = f"{layer}.handlers"
                out[key] = out.get(key, 0.0) + 1
            else:
                for suffix, amount in (
                    ("n", 1.0),
                    ("incl_s", self.ends[index] - self.starts[index]),
                    ("self_s", own),
                ):
                    key = f"call:{name}.{suffix}"
                    out[key] = out.get(key, 0.0) + amount
        out["spans"] = float(len(self.ids))
        out["wall_s"] = self.wall_s
        return out

    def save(self, path: Path) -> None:
        """Write the spans as JSON lines: a name table, then one row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for index in range(len(self.ids)):
                handle.write(
                    json.dumps(
                        [
                            self.ids[index],
                            self.name_ids[index],
                            self.parents[index],
                            self.starts[index],
                            self.ends[index],
                            self.selfs[index],
                        ]
                    )
                    + "\n"
                )


def installed_wrappers() -> List[str]:
    """Hooks and wrappers of any recorder still in place (empty when clean)."""
    from repro.simkernel.kernel import Simulator

    left = []
    if Simulator.default_dispatch_hook is not None:
        left.append("Simulator.default_dispatch_hook")
    for module_name, class_name, method, _layer in CLASS_METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        if hasattr(cls.__dict__[method], "__wrapped__"):
            left.append(f"{class_name}.{method}")
    names = {function for _module, function, _layer in FUNCTIONS}
    for module_name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for function in names:
            if hasattr(namespace.get(function), "__wrapped__") and module_name.startswith("repro"):
                left.append(f"{module_name}.{function}")
    return left


def _observe_solve(recorder: Recorder, args: Tuple[Any, ...], result: Any) -> None:
    mode = getattr(result, "mode", "")
    recorder.count(f"network.{mode}_solves")
    recorder.count("network.flows_solved", len(getattr(result, "rates", ())))


def _observe_request(recorder: Recorder, args: Tuple[Any, ...], result: Any) -> None:
    # args = (transport, frame, timeout_s); bytes each way, newline framed.
    recorder.count("transport.frame_bytes", len(args[1]) + len(result) + 2)


_OBSERVERS: Dict[str, Callable[[Recorder, Tuple[Any, ...], Any], None]] = {
    "AllocationEngine.solve": _observe_solve,
    "TcpTransport.request": _observe_request,
}
