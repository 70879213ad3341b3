"""handler-purity: kernel callbacks must not mutate module-level state.

Event handlers registered with the simulation kernel (``sim.schedule``,
``sim.schedule_at``, ``sim.call_soon``, ``sim.at_instant_end``) run at
times decided by the event queue.  If a handler writes module globals, the result depends on event
interleaving and leaks across experiments that share the interpreter
(e.g. multiseed sweeps in one process).  Handlers may mutate the objects
passed to them (``self``, arguments, closures) -- just not the module.

Detection, per module:

* collect names bound at module scope (assignments, not imports);
* collect functions whose *name* is passed to a registration call,
  whether bare (``sim.schedule(d, tick)``) or as a method reference
  (``self.sim.schedule(d, self._on_timer)`` resolves to ``_on_timer``);
* inside each such function flag ``global`` declarations and any
  mutation of a module-level name: attribute/subscript stores and
  in-place mutator calls (``append``, ``update``, ...).

Resolution is name-based and intra-module -- good enough to catch the
real mistake while staying a single-file AST pass.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set

from repro.analysis.core import Finding, ModuleContext, Rule
from repro.analysis.rules import register

#: Simulator methods that register a callback (first callable argument).
REGISTER_METHODS = {"schedule", "schedule_at", "call_soon", "at_instant_end"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "setdefault", "sort", "update",
}


@register
class HandlerPurityRule(Rule):
    id = "handler-purity"
    description = (
        "kernel event handlers must not mutate module-level state"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        module_names = _module_level_names(ctx.tree)
        functions = _functions_by_name(ctx.tree)
        handler_names = _registered_handler_names(ctx.tree)
        seen: Set[int] = set()
        for name in sorted(handler_names):
            for func in functions.get(name, ()):
                if id(func) in seen:
                    continue
                seen.add(id(func))
                yield from self._check_handler(ctx, func, module_names)

    def _check_handler(
        self,
        ctx: ModuleContext,
        func: ast.FunctionDef,
        module_names: Set[str],
    ) -> Iterator[Finding]:
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield ctx.finding(
                    self.id,
                    node,
                    f"handler '{func.name}' declares global "
                    f"{', '.join(node.names)}; pass state through the "
                    "event's arguments or an object instead",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    root = _store_root(target)
                    if (
                        root is None
                        and isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        root = target.id
                    if root is not None and root in module_names:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"handler '{func.name}' mutates module-level "
                            f"'{root}'; event order would change results",
                        )
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in _MUTATORS
                    and isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in module_names
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"handler '{func.name}' calls "
                        f"{func_expr.value.id}.{func_expr.attr}() on "
                        "module-level state",
                    )


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names assigned (not imported) at module scope."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            names.add(element.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _functions_by_name(tree: ast.Module) -> Dict[str, List[ast.FunctionDef]]:
    functions: Dict[str, List[ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, []).append(node)  # type: ignore[arg-type]
    return functions


def _registered_handler_names(tree: ast.Module) -> Set[str]:
    """Function names passed to schedule()/schedule_at()/call_soon()."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in REGISTER_METHODS):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name):
                names.add(arg.id)
            elif isinstance(arg, ast.Attribute):
                names.add(arg.attr)
    return names


def _store_root(target: ast.expr) -> "str | None":
    """For x.y = / x[k] = targets, the base name being mutated."""
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name) and node is not target:
        return node.id
    return None
