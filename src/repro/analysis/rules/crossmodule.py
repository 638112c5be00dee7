"""Interprocedural rules: concurrency, determinism-flow, resource safety.

These rules run over a whole :class:`~repro.analysis.project.ProjectIndex`
plus its :class:`~repro.analysis.callgraph.CallGraph`, not over a single
file, so they can check the invariants the serving stack actually relies
on:

* ``REP-C601`` — functions reachable from worker entrypoints must not
  write module-level mutable state (each spawned worker would mutate its
  own silently diverging copy);
* ``REP-C602`` — arrays obtained from an index snapshot are read-only
  views over one shared-memory block; any mutation (or flipping
  ``.flags.writeable`` back on) corrupts every concurrent reader;
* ``REP-C603`` — attributes written under ``with self.<lock>`` are
  lock-guarded by contract; reading or writing them without the lock is
  a data race;
* ``REP-F701``/``REP-F702`` — nondeterministic calls (wall clock,
  unseeded RNG, ``os.urandom``, ``uuid``) and environment reads must not
  be *transitively* reachable from the paper's exact-result hot paths
  (``SOIEngine.top_k``, describer ``select``, ``serve_request``);
* ``REP-R801``/``REP-R802`` — every ``SharedMemory`` create/attach must
  reach ``close``/``unlink`` on exception edges (or hand ownership to an
  object that does); plain ``open`` handles must be closed or managed by
  ``with``.

Because the call graph under-approximates dynamic dispatch, these rules
err on the side of silence for code they cannot resolve — misses show up
in ``repro lint --graph``, not as false findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.analysis.callgraph import CallGraph, FunctionNode, body_nodes
from repro.analysis.config import LintConfig
from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.analysis.project import ParsedFile, ProjectIndex
from repro.analysis.reach import call_path, reachable
from repro.analysis.rules import ImportMap
from repro.analysis.rules.determinism import _SAFE_NP_RANDOM, _WALL_CLOCK_CALLS

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Container constructors whose module-level bindings are shared mutable
# state (matched on the final dotted component).
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "OrderedDict", "Counter", "deque", "defaultdict",
})

# Methods that mutate a container in place.
_CONTAINER_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "insert", "remove", "discard", "appendleft", "extendleft",
})

# ndarray methods that write through a view into the backing buffer.
_ARRAY_MUTATORS = frozenset({
    "fill", "sort", "partition", "put", "itemset", "resize", "setflags",
})


@dataclass(slots=True)
class ProjectContext:
    """Everything a project rule needs: files, call graph, config."""

    project: ProjectIndex
    graph: CallGraph
    config: LintConfig
    _containers: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, project: ProjectIndex,
              config: LintConfig) -> "ProjectContext":
        return cls(project=project, graph=CallGraph(project), config=config)

    def module_containers(self, parsed: ParsedFile) -> frozenset[str]:
        """Module-level names bound to mutable container literals/calls."""
        cached = self._containers.get(parsed.relpath)
        if cached is not None:
            return cached
        names: set[str] = set()
        assert parsed.tree is not None
        for stmt in parsed.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable_container(value):
                continue
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        result = frozenset(names)
        self._containers[parsed.relpath] = result
        return result

    @staticmethod
    def _is_mutable_container(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else func.id if isinstance(func, ast.Name) else ""
            return name in _MUTABLE_CONSTRUCTORS
        return False


class ProjectRule:
    """Base class for interprocedural rules (the ``check`` unit is the
    whole project, not one file)."""

    id: str = "REP-X000"
    name: str = "unnamed"
    severity: str = SEVERITY_ERROR
    hint: str = ""

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, parsed: ParsedFile, node: ast.AST, message: str,
                hint: str | None = None) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=parsed.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )


# -- shared helpers ---------------------------------------------------------

def _local_bindings(fnode: FunctionNode) -> set[str]:
    """Names bound locally in a function (they shadow module globals)."""
    args = fnode.node.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in body_nodes(fnode.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(n.id for n in ast.walk(node.target)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            names.update(n.id for n in ast.walk(node.optional_vars)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.comprehension):
            names.update(n.id for n in ast.walk(node.target)
                         if isinstance(n, ast.Name))
    return names - declared_global


def _declared_globals(fnode: FunctionNode) -> set[str]:
    out: set[str] = set()
    for node in body_nodes(fnode.node):
        if isinstance(node, ast.Global):
            out.update(node.names)
    return out


def _fmt_path(parents: dict, qual: str) -> str:
    return " -> ".join(call_path(parents, qual))


def _present_roots(roots: tuple[str, ...], graph: CallGraph) -> list[str]:
    return [root for root in roots if root in graph.functions]


# -- REP-C601: worker shared-state writes -----------------------------------

class WorkerSharedStateRule(ProjectRule):
    id = "REP-C601"
    name = "worker-shared-state-write"
    hint = ("pass state through the task/result channels or the snapshot; "
            "module-level mutations diverge per worker process")

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        roots = _present_roots(pctx.config.worker_entrypoints, pctx.graph)
        parents = reachable(pctx.graph.edges, roots)
        for qual in sorted(parents):
            fnode = pctx.graph.functions.get(qual)
            if fnode is None:
                continue
            yield from self._check_function(pctx, fnode, parents)

    def _check_function(self, pctx: ProjectContext, fnode: FunctionNode,
                        parents: dict) -> Iterator[Finding]:
        containers = pctx.module_containers(fnode.file)
        local = _local_bindings(fnode)
        global_decl = _declared_globals(fnode)
        shared = {name for name in containers
                  if name not in local or name in global_decl}
        route = _fmt_path(parents, fnode.qual)

        def tail(name: str, what: str) -> str:
            return (f"{what} module-level '{name}' inside a worker-reachable "
                    f"function (via {route}); each spawned worker mutates "
                    "its own copy")

        for node in body_nodes(fnode.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id in global_decl \
                            and target.id in containers | shared:
                        yield self.finding(fnode.file, node,
                                           tail(target.id, "rebinds"))
                    elif isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in shared:
                        yield self.finding(fnode.file, node,
                                           tail(target.value.id,
                                                "writes into"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in shared \
                    and node.func.attr in _CONTAINER_MUTATORS:
                yield self.finding(
                    fnode.file, node,
                    tail(node.func.value.id,
                         f"calls .{node.func.attr}() on"))


# -- REP-C602: snapshot view mutation ---------------------------------------

class SnapshotViewMutationRule(ProjectRule):
    id = "REP-C602"
    name = "snapshot-view-mutation"
    hint = ("snapshot arrays are read-only views over one shared-memory "
            "block; copy (np.array(view)) before mutating")

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        for qual in sorted(pctx.graph.functions):
            fnode = pctx.graph.functions[qual]
            yield from self._check_function(pctx, fnode)

    def _check_function(self, pctx: ProjectContext,
                        fnode: FunctionNode) -> Iterator[Finding]:
        views = self._view_locals(pctx, fnode)
        for node in body_nodes(fnode.node):
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
                        fnode.file, node,
                        "re-enables .flags.writeable on an array view; "
                        "snapshot views must stay read-only")
                    continue
            # (b) mutating a local bound to snapshot.array(...)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in views:
                        yield self.finding(
                            fnode.file, node,
                            f"writes through snapshot view "
                            f"'{target.value.id}' into the shared-memory "
                            "block")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in views \
                    and node.func.attr in _ARRAY_MUTATORS:
                yield self.finding(
                    fnode.file, node,
                    f"mutates snapshot view '{node.func.value.id}' via "
                    f".{node.func.attr}()")

    def _view_locals(self, pctx: ProjectContext,
                     fnode: FunctionNode) -> set[str]:
        """Locals assigned from ``<snapshot>.array(...)`` calls."""
        var_types = pctx.graph.local_var_types(fnode)
        views: set[str] = set()
        for node in body_nodes(fnode.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "array"):
                continue
            base = node.value.func.value
            if self._is_snapshot_expr(pctx, fnode, var_types, base):
                views.add(node.targets[0].id)
        return views

    @staticmethod
    def _is_snapshot_expr(pctx: ProjectContext, fnode: FunctionNode,
                          var_types: dict[str, str],
                          base: ast.expr) -> bool:
        if isinstance(base, ast.Name):
            typed = var_types.get(base.id, "")
            if "Snapshot" in typed.rsplit(".", 1)[-1]:
                return True
            return "snap" in base.id.lower()
        if isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name) \
                and base.value.id == "self" and fnode.cls is not None:
            cnode = pctx.graph.classes.get(fnode.cls)
            typed = cnode.attr_types.get(base.attr, "") if cnode else ""
            if "Snapshot" in typed.rsplit(".", 1)[-1]:
                return True
            return "snap" in base.attr.lower()
        return False


# -- REP-C603: lock-guard discipline ----------------------------------------

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


class LockGuardRule(ProjectRule):
    id = "REP-C603"
    name = "lock-guard-discipline"
    hint = ("wrap the access in 'with self.<lock>:'; an attribute written "
            "under the lock is guarded everywhere")

    _INIT_METHODS = frozenset({"__init__", "__new__"})

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        for cls_qual in sorted(pctx.graph.classes):
            yield from self._check_class(pctx, cls_qual)

    def _check_class(self, pctx: ProjectContext,
                     cls_qual: str) -> Iterator[Finding]:
        cnode = pctx.graph.classes[cls_qual]
        imports = pctx.graph.imports_for(cnode.module)
        methods = [pctx.graph.functions[qual]
                   for qual in cnode.methods.values()
                   if qual in pctx.graph.functions]
        locks = self._lock_attrs(methods, imports)
        if not locks:
            return

        def is_lock(expr: ast.expr) -> bool:
            return (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self" and expr.attr in locks)

        guarded = self._guarded_attrs(methods, is_lock) - locks
        if not guarded:
            return
        for method in methods:
            if method.name in self._INIT_METHODS:
                continue
            for node, inside in _iter_lock_scoped(method.node.body,
                                                  False, is_lock):
                if inside or not isinstance(node, ast.Attribute):
                    continue
                if isinstance(node.value, ast.Name) \
                        and node.value.id == "self" \
                        and node.attr in guarded:
                    yield self.finding(
                        method.file, node,
                        f"'{cnode.name}.{node.attr}' is lock-guarded "
                        f"(written under 'with self.<lock>') but accessed "
                        f"in {method.name}() without the lock")

    @staticmethod
    def _lock_attrs(methods: list[FunctionNode],
                    imports: ImportMap) -> frozenset[str]:
        locks: set[str] = set()
        for method in methods:
            for node in body_nodes(method.node):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"
                        and isinstance(node.value, ast.Call)):
                    continue
                dotted = imports.canonical_call_name(node.value.func) or ""
                if dotted.rsplit(".", 1)[-1] in ("Lock", "RLock"):
                    locks.add(node.targets[0].attr)
        return frozenset(locks)

    @staticmethod
    def _guarded_attrs(methods: list[FunctionNode],
                       is_lock: Callable[[ast.expr], bool]) -> set[str]:
        """Self-attributes written or mutated inside a lock scope."""
        guarded: set[str] = set()

        def self_attr(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Attribute) \
                    and isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self":
                return expr.attr
            return None

        for method in methods:
            if method.name in LockGuardRule._INIT_METHODS:
                continue
            for node, inside in _iter_lock_scoped(method.node.body,
                                                  False, is_lock):
                if not inside:
                    continue
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        attr = self_attr(target)
                        if attr is None and isinstance(target, ast.Subscript):
                            attr = self_attr(target.value)
                        if attr is not None:
                            guarded.add(attr)
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _CONTAINER_MUTATORS:
                    attr = self_attr(node.func.value)
                    if attr is not None:
                        guarded.add(attr)
        return guarded


# -- REP-F7xx: determinism flow ---------------------------------------------

class _FlowRule(ProjectRule):
    """Shared reach-then-scan scaffolding for the F7xx rules."""

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        roots = _present_roots(pctx.config.flow_entrypoints, pctx.graph)
        parents = reachable(pctx.graph.edges, roots)
        exempt = pctx.config.flow_exempt_modules
        for qual in sorted(parents):
            fnode = pctx.graph.functions.get(qual)
            if fnode is None or self._exempt(fnode.module, exempt):
                continue
            imports = pctx.graph.imports_for(fnode.module)
            route = _fmt_path(parents, qual)
            for node in body_nodes(fnode.node):
                yield from self.scan(fnode, imports, node, route)

    @staticmethod
    def _exempt(module: str, prefixes: tuple[str, ...]) -> bool:
        return any(module == p or module.startswith(p + ".")
                   for p in prefixes)

    def scan(self, fnode: FunctionNode, imports: ImportMap,
             node: ast.AST, route: str) -> Iterator[Finding]:
        raise NotImplementedError


class NondeterminismFlowRule(_FlowRule):
    id = "REP-F701"
    name = "nondeterminism-flow"
    hint = ("hot paths must be bit-for-bit repeatable: seed the RNG, use "
            "monotonic timers via repro.obs, or move the call off the "
            "query path")

    def scan(self, fnode: FunctionNode, imports: ImportMap,
             node: ast.AST, route: str) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        dotted = imports.canonical_call_name(node.func)
        if dotted is None:
            return
        reason: str | None = None
        if dotted in _WALL_CLOCK_CALLS:
            reason = f"wall-clock read {dotted}()"
        elif dotted == "os.urandom":
            reason = "os.urandom() entropy read"
        elif dotted.startswith("secrets."):
            reason = f"{dotted}() entropy read"
        elif dotted in ("uuid.uuid1", "uuid.uuid4"):
            reason = f"{dotted}() is nondeterministic"
        elif dotted.startswith("random."):
            reason = f"stdlib {dotted}() uses process-global RNG state"
        elif (dotted == "numpy.random.default_rng"
              or dotted.endswith(".random.default_rng")):
            if not node.args and not node.keywords:
                reason = "numpy.random.default_rng() without a seed"
        elif dotted.startswith("numpy.random.") \
                and dotted.rsplit(".", 1)[-1] not in _SAFE_NP_RANDOM:
            reason = f"legacy global RNG call {dotted}()"
        if reason is not None:
            yield self.finding(
                fnode.file, node,
                f"{reason} is reachable from a result-bearing hot path "
                f"(via {route})")


class EnvFlowRule(_FlowRule):
    id = "REP-F702"
    name = "env-flow"
    hint = ("environment reads make results machine-dependent; resolve "
            "configuration once at startup and pass it down explicitly")

    def scan(self, fnode: FunctionNode, imports: ImportMap,
             node: ast.AST, route: str) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            dotted = imports.canonical_call_name(node.func)
            if dotted in ("os.getenv", "os.environ.get"):
                yield self.finding(
                    fnode.file, node,
                    f"environment read {dotted}() on a result-bearing hot "
                    f"path (via {route})")
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Attribute):
            dotted = imports.canonical_call_name(node.value)
            if dotted == "os.environ":
                yield self.finding(
                    fnode.file, node,
                    f"os.environ[...] access on a result-bearing hot path "
                    f"(via {route})")


# -- REP-R8xx: resource safety ----------------------------------------------

_RELEASE_METHODS = frozenset({"close", "unlink", "__exit__", "__del__"})


class SharedMemoryLifecycleRule(ProjectRule):
    id = "REP-R801"
    name = "sharedmemory-lifecycle"
    hint = ("close()/unlink() the block in an except/finally edge, or hand "
            "it to an owner object that releases it")

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        for qual in sorted(pctx.graph.functions):
            fnode = pctx.graph.functions[qual]
            yield from self._check_function(pctx, fnode)

    def _check_function(self, pctx: ProjectContext,
                        fnode: FunctionNode) -> Iterator[Finding]:
        imports = pctx.graph.imports_for(fnode.module)
        nodes = body_nodes(fnode.node)
        for node in nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._is_shm_call(imports, node.value)):
                continue
            name = node.targets[0].id
            if self._released_on_error(fnode, name):
                continue
            escape = self._escape_verdict(pctx, fnode, name, nodes)
            if escape == "owned":
                continue
            if escape is not None:
                yield self.finding(
                    fnode.file, node,
                    f"SharedMemory '{name}' is handed to {escape}, which "
                    "has no close()/unlink()/__exit__; the block leaks")
            else:
                yield self.finding(
                    fnode.file, node,
                    f"SharedMemory '{name}' has no close()/unlink() on "
                    "exception paths; a failure here leaks the block")

    @staticmethod
    def _is_shm_call(imports: ImportMap, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        dotted = imports.canonical_call_name(value.func) or ""
        return dotted.rsplit(".", 1)[-1] == "SharedMemory"

    @staticmethod
    def _released_on_error(fnode: FunctionNode, name: str) -> bool:
        """``name.close()``/``unlink()`` inside except/finally edges."""

        def releases(stmts: list[ast.stmt]) -> bool:
            for stmt in stmts:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call) \
                            and isinstance(sub.func, ast.Attribute) \
                            and isinstance(sub.func.value, ast.Name) \
                            and sub.func.value.id == name \
                            and sub.func.attr in ("close", "unlink"):
                        return True
            return False

        for node in body_nodes(fnode.node):
            if not isinstance(node, (ast.Try, getattr(ast, "TryStar",
                                                      ast.Try))):
                continue
            if releases(node.finalbody):
                return True
            for handler in node.handlers:
                if releases(handler.body):
                    return True
        return False

    def _escape_verdict(self, pctx: ProjectContext, fnode: FunctionNode,
                        name: str, nodes: list[ast.AST]) -> str | None:
        """How the handle escapes the function, if it does.

        Returns ``"owned"`` when ownership moves somewhere that can
        release it (returned to the caller, stored on ``self`` of a
        releasing class, passed to a releasing constructor), the
        offending class name when it moves somewhere that cannot, and
        ``None`` when it never escapes.
        """
        def mentions(expr: ast.expr) -> bool:
            return any(isinstance(sub, ast.Name) and sub.id == name
                       for sub in ast.walk(expr))

        returned = False
        call_verdict: str | None = None
        for node in nodes:
            if isinstance(node, ast.Return) and node.value is not None \
                    and mentions(node.value):
                returned = True
            if isinstance(node, ast.Assign) \
                    and any(isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            for t in node.targets) \
                    and mentions(node.value):
                if fnode.cls is not None and \
                        self._class_releases(pctx, fnode.cls):
                    return "owned"
                return f"'{(fnode.cls or '?').rsplit('.', 1)[-1]}'"
            if isinstance(node, ast.Call) \
                    and any(mentions(arg.value if isinstance(
                                arg, ast.keyword) else arg)
                            for arg in (*node.args, *node.keywords)):
                target = pctx.graph.resolve_class(fnode.module, node.func)
                if target is None or self._class_releases(pctx, target):
                    call_verdict = "owned"  # unknown callee: assume managed
                elif call_verdict is None:
                    call_verdict = f"'{target.rsplit('.', 1)[-1]}'"
        # A constructor that cannot release the block beats a bare return:
        # the leak lives wherever the handle ends up.
        if call_verdict is not None and call_verdict != "owned":
            return call_verdict
        if call_verdict == "owned" or returned:
            return "owned"
        return None

    @staticmethod
    def _class_releases(pctx: ProjectContext, cls_qual: str) -> bool:
        return any(pctx.graph.lookup_method(cls_qual, m) is not None
                   for m in _RELEASE_METHODS)


class UnclosedHandleRule(ProjectRule):
    id = "REP-R802"
    name = "unclosed-handle"
    hint = "use 'with open(...) as f:' (or close in a finally block)"

    def check(self, pctx: ProjectContext) -> Iterator[Finding]:
        for qual in sorted(pctx.graph.functions):
            fnode = pctx.graph.functions[qual]
            yield from self._check_scope(fnode.file,
                                         body_nodes(fnode.node))
        for parsed in pctx.project.files:
            assert parsed.tree is not None
            top = [node for stmt in parsed.tree.body
                   if not isinstance(stmt, (*_FUNC_DEFS, ast.ClassDef))
                   for node in ast.walk(stmt)]
            yield from self._check_scope(parsed, top)

    def _check_scope(self, parsed: ParsedFile,
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
                    parsed, node,
                    "open() handle is never closed (no with, no binding)")
            elif bound == "self":
                continue  # ownership moved to the instance
            elif bound not in closed_names:
                yield self.finding(
                    parsed, node,
                    f"open() handle '{bound}' has no close(); wrap it in "
                    "'with'")

    @staticmethod
    def _binding_for(nodes: list[ast.AST],
                     call: ast.Call) -> str | None:
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


def default_project_rules(config: LintConfig) -> tuple[ProjectRule, ...]:
    """The interprocedural registry, minus any disabled rules."""
    rules: tuple[ProjectRule, ...] = (
        WorkerSharedStateRule(),
        SnapshotViewMutationRule(),
        LockGuardRule(),
        NondeterminismFlowRule(),
        EnvFlowRule(),
        SharedMemoryLifecycleRule(),
        UnclosedHandleRule(),
    )
    disabled = set(config.disabled_rules)
    return tuple(rule for rule in rules if rule.id not in disabled)


__all__ = [
    "EnvFlowRule",
    "LockGuardRule",
    "NondeterminismFlowRule",
    "ProjectContext",
    "ProjectRule",
    "SharedMemoryLifecycleRule",
    "SnapshotViewMutationRule",
    "UnclosedHandleRule",
    "WorkerSharedStateRule",
    "default_project_rules",
]
