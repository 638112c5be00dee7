"""Shared-memory and lock-discipline rules (``REP-C6xx``).

The serving stack shares one read-only snapshot between worker
processes, and its caches and pools share state between threads under
``self.<lock>``.  Both invariants can be checked one file at a time:

* **REP-C602** — arrays obtained from an index snapshot
  (``<snapshot>.array(...)``) are read-only views over one shared-memory
  block; writing through one, or flipping ``.flags.writeable`` back on,
  corrupts every concurrent reader.  A receiver counts as a snapshot when
  it is annotated with a ``*Snapshot`` type or assigned from one in the
  same function, or is named like ``snap*``; a ``self`` attribute counts
  when its class assigns it that way.
* **REP-C603** — an attribute written under ``with self.<lock>`` in one
  method is lock-guarded by contract; reading or writing it without the
  lock in another method of the same class is a data race.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, body_nodes

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Methods that mutate a container in place.
_CONTAINER_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "insert", "remove", "discard", "appendleft", "extendleft",
})

# ndarray methods that write through a view into the backing buffer.
_ARRAY_MUTATORS = frozenset({
    "fill", "sort", "partition", "put", "itemset", "resize", "setflags",
})

_SNAPSHOT_TYPE = re.compile(r"Snapshot\b")


def _self_attr(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self":
        return expr.attr
    return None


def _snapshot_typed(expr: ast.expr | None) -> bool:
    """An annotation naming a ``*Snapshot`` type, or a call of one
    (``IndexSnapshot(...)``, ``IndexSnapshot.attach(...)``)."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    return expr is not None and bool(_SNAPSHOT_TYPE.search(ast.unparse(expr)))


def _snapshot_names(fn: ast.AST) -> set[str]:
    """Parameters and locals of ``fn`` typed or built as a snapshot."""
    args = fn.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)
             if _snapshot_typed(arg.annotation)}
    for node in body_nodes(fn):
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and _snapshot_typed(node.annotation):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Call) \
                and _snapshot_typed(node.value):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


class SnapshotViewMutationRule(Rule):
    id = "REP-C602"
    name = "snapshot-view-mutation"
    hint = ("snapshot arrays are read-only views over one shared-memory "
            "block; copy (np.array(view)) before mutating")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        class_attrs = {
            id(cls): self._snapshot_attrs(cls)
            for cls in ast.walk(ctx.tree) if isinstance(cls, ast.ClassDef)}
        for fn in ctx.functions():
            owner = ctx.parent(fn)
            attrs = class_attrs.get(id(owner), set())
            yield from self._check_function(ctx, fn, attrs)

    @staticmethod
    def _snapshot_attrs(cls: ast.ClassDef) -> set[str]:
        """``self`` attributes the class assigns a snapshot to."""
        attrs: set[str] = set()
        for method in cls.body:
            if not isinstance(method, _FUNC_DEFS):
                continue
            typed = _snapshot_names(method)
            for node in body_nodes(method):
                if isinstance(node, ast.AnnAssign) \
                        and _self_attr(node.target) is not None \
                        and _snapshot_typed(node.annotation):
                    attrs.add(_self_attr(node.target))
                elif isinstance(node, ast.Assign) and (
                        _snapshot_typed(node.value)
                        if isinstance(node.value, ast.Call)
                        else isinstance(node.value, ast.Name)
                        and node.value.id in typed):
                    attrs.update(_self_attr(t) for t in node.targets
                                 if _self_attr(t) is not None)
        return attrs

    def _check_function(self, ctx: FileContext, fn: ast.AST,
                        attrs: set[str]) -> Iterator[Finding]:
        typed = _snapshot_names(fn)

        def is_snapshot(base: ast.expr) -> bool:
            if isinstance(base, ast.Name):
                return base.id in typed or "snap" in base.id.lower()
            attr = _self_attr(base)
            return attr is not None and (attr in attrs
                                         or "snap" in attr.lower())

        nodes = body_nodes(fn)
        views = {
            node.targets[0].id for node in nodes
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "array"
            and is_snapshot(node.value.func.value)}
        for node in nodes:
            # (a) flipping writeability back on, on anything
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Attribute) \
                        and target.attr == "writeable" \
                        and isinstance(target.value, ast.Attribute) \
                        and target.value.attr == "flags" \
                        and not (isinstance(node.value, ast.Constant)
                                 and node.value.value is False):
                    yield self.finding(
                        ctx, node,
                        "re-enables .flags.writeable on an array view; "
                        "snapshot views must stay read-only")
                    continue
            # (b) mutating a local bound to <snapshot>.array(...)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in views:
                        yield self.finding(
                            ctx, node,
                            f"writes through snapshot view "
                            f"'{target.value.id}' into the shared-memory "
                            "block")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in views \
                    and node.func.attr in _ARRAY_MUTATORS:
                yield self.finding(
                    ctx, node,
                    f"mutates snapshot view '{node.func.value.id}' via "
                    f".{node.func.attr}()")


def _iter_lock_scoped(stmts: list[ast.stmt], inside: bool,
                      is_lock: Callable[[ast.expr], bool]) -> \
        Iterator[tuple[ast.AST, bool]]:
    """Yield ``(node, inside_lock)`` for a statement list.

    ``with self.<lock>:`` bodies flip ``inside`` to True; nested function
    and class definitions are separate scopes and are skipped entirely
    (a closure may outlive the lock scope, so assuming it inherits the
    lock would be unsound).
    """
    for stmt in stmts:
        if isinstance(stmt, (*_FUNC_DEFS, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locked = inside or any(is_lock(item.context_expr)
                                   for item in stmt.items)
            for item in stmt.items:
                for sub in ast.walk(item.context_expr):
                    yield sub, inside
            yield from _iter_lock_scoped(stmt.body, locked, is_lock)
            continue
        bodies = [getattr(stmt, name) for name in
                  ("body", "orelse", "finalbody")
                  if isinstance(getattr(stmt, name, None), list)]
        handlers = getattr(stmt, "handlers", [])
        if not bodies and not handlers:
            yield from ((sub, inside) for sub in ast.walk(stmt))
            continue
        yield stmt, inside
        for attr in ("test", "iter", "target", "subject"):
            header = getattr(stmt, attr, None)
            if isinstance(header, ast.expr):
                yield from ((sub, inside) for sub in ast.walk(header))
        for body in bodies:
            if body and isinstance(body[0], ast.stmt):
                yield from _iter_lock_scoped(body, inside, is_lock)
        for handler in handlers:
            yield from _iter_lock_scoped(handler.body, inside, is_lock)


class LockGuardRule(Rule):
    id = "REP-C603"
    name = "lock-guard-discipline"
    hint = ("wrap the access in 'with self.<lock>:'; an attribute written "
            "under the lock is guarded everywhere")

    _INIT_METHODS = frozenset({"__init__", "__new__"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(ctx, cls)

    def _check_class(self, ctx: FileContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [m for m in cls.body if isinstance(m, _FUNC_DEFS)]
        locks = self._lock_attrs(ctx, methods)
        if not locks:
            return

        def is_lock(expr: ast.expr) -> bool:
            return _self_attr(expr) in locks

        guarded = self._guarded_attrs(methods, is_lock) - locks
        if not guarded:
            return
        for method in methods:
            if method.name in self._INIT_METHODS:
                continue
            for node, inside in _iter_lock_scoped(method.body, False,
                                                  is_lock):
                if not inside and isinstance(node, ast.Attribute) \
                        and _self_attr(node) in guarded:
                    yield self.finding(
                        ctx, node,
                        f"'{cls.name}.{node.attr}' is lock-guarded "
                        f"(written under 'with self.<lock>') but accessed "
                        f"in {method.name}() without the lock")

    @staticmethod
    def _lock_attrs(ctx: FileContext, methods: list) -> frozenset[str]:
        locks: set[str] = set()
        for method in methods:
            for node in body_nodes(method):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and _self_attr(node.targets[0]) is not None
                        and isinstance(node.value, ast.Call)):
                    continue
                dotted = ctx.imports.canonical_call_name(node.value.func)
                if (dotted or "").rsplit(".", 1)[-1] in ("Lock", "RLock"):
                    locks.add(node.targets[0].attr)
        return frozenset(locks)

    @classmethod
    def _guarded_attrs(cls, methods: list,
                       is_lock: Callable[[ast.expr], bool]) -> set[str]:
        """Self-attributes written or mutated inside a lock scope."""
        guarded: set[str] = set()
        for method in methods:
            if method.name in cls._INIT_METHODS:
                continue
            for node, inside in _iter_lock_scoped(method.body, False,
                                                  is_lock):
                if not inside:
                    continue
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        attr = _self_attr(target)
                        if attr is None and isinstance(target, ast.Subscript):
                            attr = _self_attr(target.value)
                        if attr is not None:
                            guarded.add(attr)
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _CONTAINER_MUTATORS:
                    attr = _self_attr(node.func.value)
                    if attr is not None:
                        guarded.add(attr)
        return guarded


__all__ = ["LockGuardRule", "SnapshotViewMutationRule"]
