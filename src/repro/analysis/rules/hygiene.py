"""API-hygiene rules (``REP-H3xx``).

* **REP-H301** — mutable default argument values (``def f(x=[])``): the
  default is created once and shared across calls.
* **REP-H302** — bare ``except:`` and ``except Exception:`` handlers that
  swallow everything; a broad handler is accepted only when it re-raises.
* **REP-H303** — drift between ``__all__`` and the public names actually
  bound in a package ``__init__``: entries that are never bound, and
  public bindings missing from ``__all__``.  ``__future__`` imports and
  imports the module body itself uses (implementation imports rather than
  re-exports) are exempt; files defining a module-level ``__getattr__``
  (lazy exports) skip the unbound direction, which cannot be decided
  statically.
* **REP-R802** — an ``open(...)`` handle that is neither managed by
  ``with`` nor closed in the same function (or at module level).  This
  rule runs on every linted file, ``tests/`` and ``benchmarks/``
  included, because bench and test output handles leak the same way.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, body_nodes

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


class MutableDefaultRule(Rule):
    id = "REP-H301"
    name = "mutable-default"
    hint = "default to None and create the container inside the function"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = [*node.args.defaults,
                        *(d for d in node.args.kw_defaults if d is not None)]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in '{label}' is shared "
                        "across calls")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CALLS)


class BroadExceptRule(Rule):
    id = "REP-H302"
    name = "broad-except"
    hint = ("catch the narrowest exception that can actually occur "
            "(ReproError subclasses for library failures), or re-raise")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:' swallows every exception "
                    "including KeyboardInterrupt")
                continue
            names = self._exception_names(node.type)
            broad = names & {"Exception", "BaseException"}
            if broad and not self._reraises(node):
                caught = ", ".join(sorted(broad))
                yield self.finding(
                    ctx, node,
                    f"'except {caught}:' without re-raise hides unrelated "
                    "failures")

    @staticmethod
    def _exception_names(node: ast.expr) -> set[str]:
        names = set()
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        for element in elements:
            if isinstance(element, ast.Name):
                names.add(element.id)
            elif isinstance(element, ast.Attribute):
                names.add(element.attr)
        return names

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(sub, ast.Raise)
                   for sub in ast.walk(handler))


class AllDriftRule(Rule):
    id = "REP-H303"
    name = "all-drift"
    hint = "keep __all__ and the public bindings of the __init__ in sync"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_package_init:
            return
        dunder_all: list[str] | None = None
        dunder_all_node: ast.AST | None = None
        bound: dict[str, ast.AST] = {}
        imported: set[str] = set()
        has_getattr = False
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if "__all__" in targets:
                    dunder_all_node = node
                    dunder_all = self._string_list(node.value)
                    continue
                for name in targets:
                    bound[name] = node
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                bound[node.target.id] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                if node.name == "__getattr__":
                    has_getattr = True
                bound[node.name] = node
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        name = alias.asname or alias.name
                        bound[name] = node
                        imported.add(name)
            # plain ``import x`` binds a module object, not re-exported API

        # An import the module body itself reads is an implementation
        # detail, not a re-export; only never-used imports are expected in
        # __all__.
        used = {sub.id for sub in ast.walk(ctx.tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        public = {name for name in bound
                  if not name.startswith("_")
                  and not (name in imported and name in used)}
        if dunder_all is None:
            if public:
                yield self.finding(
                    ctx, ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                    f"package __init__ binds {len(public)} public names "
                    "but defines no __all__")
            return
        exported = set(dunder_all)
        if not has_getattr:
            for name in sorted(exported - public):
                yield self.finding(
                    ctx, dunder_all_node,
                    f"__all__ exports '{name}' but the module never binds "
                    "it")
        for name in sorted(public - exported):
            yield self.finding(
                ctx, bound[name],
                f"public name '{name}' is bound but missing from __all__")

    @staticmethod
    def _string_list(node: ast.expr) -> list[str] | None:
        if not isinstance(node, (ast.List, ast.Tuple)):
            return None
        values = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            values.append(element.value)
        return values


class UnclosedHandleRule(Rule):
    id = "REP-R802"
    name = "unclosed-handle"
    hint = "use 'with open(...) as f:' (or close in a finally block)"
    package_only = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in ctx.functions():
            yield from self._check_scope(ctx, body_nodes(fn))
        yield from self._check_scope(ctx, [
            node for stmt in ctx.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
            for node in ast.walk(stmt)])

    def _check_scope(self, ctx: FileContext,
                     nodes: list[ast.AST]) -> Iterator[Finding]:
        managed: set[int] = set()          # open() calls under a with-item
        closed_names: set[str] = set()     # f.close() present anywhere
        for node in nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        managed.add(id(sub))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "close" \
                    and isinstance(node.func.value, ast.Name):
                closed_names.add(node.func.value.id)
        for node in nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open") or id(node) in managed:
                continue
            bound = self._binding_for(nodes, node)
            if bound is None:
                yield self.finding(
                    ctx, node,
                    "open() handle is never closed (no with, no binding)")
            elif bound != "self" and bound not in closed_names:
                # A handle stored on self is owned by the instance.
                yield self.finding(
                    ctx, node,
                    f"open() handle '{bound}' has no close(); wrap it in "
                    "'with'")

    @staticmethod
    def _binding_for(nodes: list[ast.AST], call: ast.Call) -> str | None:
        for node in nodes:
            if isinstance(node, ast.Assign) and node.value is call \
                    and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    return target.id
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    return "self"
        return None


__all__ = [
    "AllDriftRule",
    "BroadExceptRule",
    "MutableDefaultRule",
    "UnclosedHandleRule",
]
