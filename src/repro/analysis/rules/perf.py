"""Performance-hazard rules (``REP-P4xx``).

The hot paths of this reproduction live under ``repro/core/`` (the
directory set is configurable via ``perf-checked-dirs``); two quadratic
patterns have already caused measured regressions there and are cheap to
detect statically:

* **REP-P401** — a ``sorted(...)`` call inside a loop *body* re-sorts on
  every iteration; sort once before the loop (or maintain sorted order
  incrementally).  ``sorted`` in the loop *header* (``for x in
  sorted(...)``) runs once and is fine.
* **REP-P402** — an ``in``/``not in`` membership test against a provably
  list-like operand (a list/tuple literal, a ``list()``/``tuple()``/
  ``sorted()`` call, or a local name assigned from one of those) inside a
  loop body scans linearly per iteration; test against a ``set``/``dict``
  (or a precomputed flag array) instead.

Both loop rules stop at function boundaries when climbing out of the
loop: a function *defined* in a loop body executes on call, not per
iteration.

* **REP-P404** — ``heapq.nlargest``/``heapq.nsmallest`` inside a loop
  body rescans its whole input per iteration (O(n log k) each time);
  maintain a bounded heap incrementally instead (see
  :class:`repro.core.state_store.TopKThreshold`, which replaced exactly
  this pattern in the filter phase's LB_k computation).

* **REP-P405** — a scalar geometry kernel
  (``point_segment_distance``/``segment_bbox_mindist``/
  ``segment_segment_distance``) inside a loop body on the vectorised
  cold path (``geometry-checked-dirs``, plus the individual files in
  ``geometry-checked-files``) pays Python-level call overhead per
  candidate; batch the candidates and call
  :func:`repro.geometry.distance.segments_bbox_mindist_batched` (or the
  CSR machinery in :mod:`repro.index.cell_maps`) once.  Scalar
  reference loops kept for the ``REPRO_CHECK`` cross-validation carry a
  ``# repro-lint: disable=REP-P405 (reason)`` comment.

A further rule guards the multiprocess serving path
(``serve-checked-dirs``, defaulting to the import closure of
``repro.serve.server`` workers):

* **REP-P406** — a *cache-named* container (``cache``/``memo``/``lru``
  in the name, case-insensitive) bound to an empty mutable at module
  scope or as an instance attribute (``self.x = {}``) under
  ``cache-checked-dirs`` with **no eviction bound** in the enclosing
  scope grows for the lifetime of a serving worker.  Evidence of a
  bound is a ``.pop()``/``.popitem()``/``.clear()`` call, a ``del``
  on the container, or a ``len()`` guard in a comparison — the shapes
  :class:`repro.perf.result_cache.ResultCache` uses.  Provably finite
  key spaces carry a ``# repro-lint: disable=REP-P406 (reason)``
  comment.

* **REP-P403** — a module-level *mutable cache* (a name bound at module
  scope to an empty ``dict``/``list``/``set``/``defaultdict``/... , or a
  module-level function decorated with ``functools.lru_cache``/
  ``functools.cache``) is a fork/spawn hazard: every worker process
  fills its own copy, the copies diverge silently, and warm state never
  transfers through the shared-memory snapshot.  Keep such caches on an
  engine/session instance (e.g. :class:`repro.perf.session.QuerySessionPool`)
  so their lifetime and invalidation are explicit.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_LISTISH_CALLS = frozenset({"list", "tuple", "sorted"})


def _enclosing_loop_body(ctx: FileContext, node: ast.AST) -> ast.AST | None:
    """The nearest loop whose *body* (or else-clause) contains ``node``.

    Climbs the parent chain; a hit requires the chain to enter the loop
    through ``body``/``orelse`` — code in the loop header (``iter``,
    ``test``) runs once and must not be flagged.
    """
    child: ast.AST = node
    parent = ctx.parent(child)
    while parent is not None:
        if isinstance(parent, _FUNCTIONS):
            return None
        if isinstance(parent, _LOOPS):
            if any(child is stmt for stmt in (*parent.body, *parent.orelse)):
                return parent
        child, parent = parent, ctx.parent(parent)
    return None


def _is_listish(node: ast.expr, ctx: FileContext,
                scope: ast.AST | None) -> bool:
    """True when the expression provably evaluates to a list or tuple."""
    if isinstance(node, (ast.List, ast.Tuple, ast.ListComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _LISTISH_CALLS:
        return True
    if isinstance(node, ast.Name) and scope is not None:
        return _name_assigned_listish(node.id, scope)
    return False


def _name_assigned_listish(name: str, scope: ast.AST) -> bool:
    """True when *every* plain assignment to ``name`` in the enclosing
    function binds a list-like value (and at least one assignment exists).

    Deliberately conservative: augmented assignments, ``for`` targets,
    parameters or attribute writes make the name untraceable and the rule
    stays silent rather than guessing.
    """
    assigned = False
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                if not isinstance(node.value,
                                  (ast.List, ast.Tuple, ast.ListComp)) and \
                        not (isinstance(node.value, ast.Call)
                             and isinstance(node.value.func, ast.Name)
                             and node.value.func.id in _LISTISH_CALLS):
                    return False
                assigned = True
    return assigned


class SortedInLoopRule(Rule):
    id = "REP-P401"
    name = "sorted-in-loop"
    hint = ("hoist the sorted() call above the loop, or maintain the "
            "order incrementally (e.g. heapq / bisect.insort)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(ctx.config.perf_checked_dirs):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sorted"):
                continue
            loop = _enclosing_loop_body(ctx, node)
            if loop is not None:
                yield self.finding(
                    ctx, node,
                    "sorted() inside a loop body re-sorts "
                    f"O(n log n) work every iteration (loop at line "
                    f"{loop.lineno})")


class ListMembershipInLoopRule(Rule):
    id = "REP-P402"
    name = "list-membership-in-loop"
    hint = ("membership-test against a set/dict (or a flag array) built "
            "once before the loop")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(ctx.config.perf_checked_dirs):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            scope = ctx.enclosing_function(node)
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if not _is_listish(comparator, ctx, scope):
                    continue
                loop = _enclosing_loop_body(ctx, node)
                if loop is None:
                    continue
                yield self.finding(
                    ctx, node,
                    "membership test against a list scans linearly on "
                    f"every iteration (loop at line {loop.lineno})")


_HEAP_RESCAN_CALLS = frozenset({"heapq.nlargest", "heapq.nsmallest"})


class HeapRescanInLoopRule(Rule):
    id = "REP-P404"
    name = "heap-rescan-in-loop"
    hint = ("maintain a bounded min-heap incrementally (heapq.heappush / "
            "heappushpop, or repro.core.state_store.TopKThreshold) "
            "instead of rescanning the full input per iteration")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(ctx.config.perf_checked_dirs):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted not in _HEAP_RESCAN_CALLS:
                continue
            loop = _enclosing_loop_body(ctx, node)
            if loop is not None:
                yield self.finding(
                    ctx, node,
                    f"{dotted}() inside a loop body rescans its whole "
                    f"input on every iteration (loop at line "
                    f"{loop.lineno})")


_SCALAR_GEOMETRY_CALLS = frozenset({
    "repro.geometry.distance.point_segment_distance",
    "repro.geometry.distance.segment_bbox_mindist",
    "repro.geometry.distance.segment_segment_distance",
})


class ScalarGeometryInLoopRule(Rule):
    id = "REP-P405"
    name = "scalar-geometry-in-loop"
    hint = ("batch the candidate pairs and call "
            "repro.geometry.distance.segments_bbox_mindist_batched (or "
            "the CSR builders in repro.index.cell_maps) once; keep any "
            "scalar reference loop behind a suppression comment with a "
            "reason")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        config = ctx.config
        if not (ctx.in_dirs(config.geometry_checked_dirs)
                or "/".join(ctx.package_parts)
                in config.geometry_checked_files):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted not in _SCALAR_GEOMETRY_CALLS:
                continue
            loop = _enclosing_loop_body(ctx, node)
            if loop is not None:
                yield self.finding(
                    ctx, node,
                    f"scalar kernel {dotted}() inside a loop body pays "
                    "per-candidate Python call overhead on the vectorised "
                    f"cold path (loop at line {loop.lineno})")


_EMPTY_MUTABLE_CALLS = frozenset({
    "dict", "list", "set",
    "collections.OrderedDict", "collections.Counter", "collections.deque",
})
_FACTORY_CALLS = frozenset({"collections.defaultdict"})
_CACHE_DECORATORS = frozenset({"functools.lru_cache", "functools.cache"})


def _is_empty_mutable(node: ast.expr, ctx: FileContext) -> bool:
    """True when the expression builds a provably *empty* mutable container.

    Empty-at-import is the cache signature: a populated module-level dict
    is usually a constant table, an empty one exists to be filled at
    runtime.  ``defaultdict(...)`` counts with up to one positional
    argument (the default factory)."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if not isinstance(node, ast.Call):
        return False
    dotted = ctx.imports.canonical_call_name(node.func)
    if dotted in _EMPTY_MUTABLE_CALLS:
        return not node.args and not node.keywords
    if dotted in _FACTORY_CALLS:
        return len(node.args) <= 1 and not node.keywords
    return False


class ModuleLevelMutableCacheRule(Rule):
    id = "REP-P403"
    name = "module-level-mutable-cache"
    hint = ("keep per-process caches on an engine/session instance with "
            "explicit invalidation; module-level mutable state is filled "
            "independently (and diverges silently) in every fork/spawn "
            "serving worker")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(ctx.config.serve_checked_dirs):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(ctx.parent(node), ast.Module):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    dotted = ctx.imports.canonical_call_name(target)
                    if dotted in _CACHE_DECORATORS:
                        yield self.finding(
                            ctx, deco,
                            f"@{dotted} on module-level '{node.name}' keeps "
                            "a per-process memo table that serving workers "
                            "fill independently")
                continue
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            else:
                continue
            if not _is_empty_mutable(value, ctx):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue
                yield self.finding(
                    ctx, node,
                    f"module-level mutable container '{name}' starts empty "
                    "— a cache that every serving worker process fills "
                    "with its own diverging copy")


_CACHE_NAME = re.compile(r"cache|memo|lru", re.IGNORECASE)
_EVICTION_METHODS = frozenset({"pop", "popitem", "clear"})


def _enclosing_class(ctx: FileContext, node: ast.AST) -> ast.ClassDef | None:
    parent = ctx.parent(node)
    while parent is not None and not isinstance(parent, ast.ClassDef):
        parent = ctx.parent(parent)
    return parent


def _is_len_of(node: ast.expr,
               matches: Callable[[ast.expr], bool]) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "len"
            and len(node.args) == 1 and matches(node.args[0]))


def _has_eviction_bound(scope: ast.AST,
                        matches: Callable[[ast.expr], bool]) -> bool:
    """True when ``scope`` shows any eviction evidence for the container.

    Evidence is a ``.pop()``/``.popitem()``/``.clear()`` call on the
    container, a ``del`` of the container (or one of its keys), or a
    ``len()`` of it inside a comparison (a size guard that refuses or
    trims inserts).  Anything subtler — eviction through a helper the
    container is passed to, bounds enforced by the key space — needs a
    suppression comment with the reason.
    """
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _EVICTION_METHODS \
                and matches(node.func.value):
            return True
        if isinstance(node, ast.Delete) and any(
                matches(target)
                or (isinstance(target, ast.Subscript)
                    and matches(target.value))
                for target in node.targets):
            return True
        if isinstance(node, ast.Compare) and any(
                _is_len_of(expr, matches)
                for expr in (node.left, *node.comparators)):
            return True
    return False


class UnboundedCacheRule(Rule):
    id = "REP-P406"
    name = "unbounded-cache"
    hint = ("give the cache an eviction bound (LRU + byte cap like "
            "repro.perf.result_cache.ResultCache, pop/popitem/clear on "
            "overflow, or a len() guard before insert); if the key space "
            "is provably finite, suppress with a reason")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(ctx.config.cache_checked_dirs):
            return
        seen: set[tuple[int, str]] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            else:
                continue
            if not _is_empty_mutable(value, ctx):
                continue
            for target in targets:
                if isinstance(target, ast.Name) \
                        and isinstance(ctx.parent(node), ast.Module):
                    name, scope = target.id, ctx.tree
                    where = f"module-level cache '{name}'"

                    def matches(expr: ast.expr, _name: str = name) -> bool:
                        return (isinstance(expr, ast.Name)
                                and expr.id == _name)
                elif isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    enclosing = _enclosing_class(ctx, node)
                    if enclosing is None:
                        continue
                    name, scope = target.attr, enclosing
                    where = (f"instance cache 'self.{name}' "
                             f"on {enclosing.name}")

                    def matches(expr: ast.expr, _name: str = name) -> bool:
                        return (isinstance(expr, ast.Attribute)
                                and expr.attr == _name
                                and isinstance(expr.value, ast.Name)
                                and expr.value.id == "self")
                else:
                    continue
                if not _CACHE_NAME.search(name):
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                dedupe = (id(scope), name)
                if dedupe in seen:
                    continue
                seen.add(dedupe)
                if _has_eviction_bound(scope, matches):
                    continue
                yield self.finding(
                    ctx, node,
                    f"{where} starts empty and nothing in its scope ever "
                    "evicts — it grows for the lifetime of the serving "
                    "worker")


__all__ = ["HeapRescanInLoopRule", "ListMembershipInLoopRule",
           "ModuleLevelMutableCacheRule", "ScalarGeometryInLoopRule",
           "SortedInLoopRule", "UnboundedCacheRule"]
