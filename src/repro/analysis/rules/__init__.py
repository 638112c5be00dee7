"""Rule infrastructure and the default rule registry.

A rule is a small class with an ``id`` (``REP-<family><number>``), a
severity, a one-line fix ``hint`` and a ``check(ctx)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects.  ``FileContext`` gives
every rule the parsed AST of one file and the file's position inside the
``repro`` package (for directory-scoped rules such as the wall-clock and
division checks).  Every rule is file-local, and every directory set a
rule checks is a constant of that rule's module.

Rule families:

* ``REP-D1xx``/``REP-F702`` — determinism
  (:mod:`repro.analysis.rules.determinism`);
* ``REP-N2xx`` — numeric safety (:mod:`repro.analysis.rules.numeric`);
* ``REP-H3xx``/``REP-R802`` — API and resource hygiene
  (:mod:`repro.analysis.rules.hygiene`);
* ``REP-P4xx`` — performance hazards (:mod:`repro.analysis.rules.perf`);
* ``REP-O5xx`` — observability funnels (:mod:`repro.analysis.rules.obs`);
* ``REP-C6xx`` — shared-memory and lock discipline
  (:mod:`repro.analysis.rules.concurrency`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding

_PACKAGE_ANCHOR = "repro"

# The import closure of a serving worker process (repro.serve.server and
# everything it pulls in).  Module-level mutable caches there diverge per
# worker (REP-P403), and wall-clock and environment reads there can make
# a served answer time- or machine-dependent (REP-D103, REP-F702).
WORKER_CLOSURE_DIRS = (
    "core", "data", "geometry", "index", "network", "perf", "serve")

_BUILTIN_NAMES = frozenset({
    "len", "min", "max", "abs", "sum", "float", "int", "range", "round",
    "sorted", "enumerate", "zip", "list", "tuple", "set", "dict", "str",
})


@dataclass(slots=True)
class ImportMap:
    """Local-name resolution for the imports of one module.

    ``modules`` maps local aliases to dotted module paths
    (``np -> numpy``); ``members`` maps from-imported names to their
    ``module.member`` origin (``shuffle -> random.shuffle``).
    """

    modules: dict[str, str] = field(default_factory=dict)
    members: dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.Module) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports.modules[local] = (alias.name if alias.asname
                                              else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports.members[local] = f"{node.module}.{alias.name}"
        return imports

    def canonical_call_name(self, func: ast.expr) -> str | None:
        """Dotted origin of a call target, e.g. ``numpy.random.default_rng``.

        Returns ``None`` when the target cannot be traced to an import
        (locals, ``self.`` attributes, calls on call results, ...).
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        root = node.id
        if root in self.modules:
            return ".".join([self.modules[root], *parts])
        if root in self.members:
            return ".".join([self.members[root], *parts])
        if parts:
            return None  # attribute chain rooted in a non-import
        return root  # a bare builtin or local name


@dataclass(slots=True)
class FileContext:
    """Everything the rules need to know about one source file."""

    relpath: str
    tree: ast.Module
    imports: ImportMap = field(init=False)
    package_parts: tuple[str, ...] = field(init=False)
    _parents: dict[ast.AST, ast.AST] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.imports = ImportMap.of(self.tree)
        parts = PurePosixPath(self.relpath).parts
        if _PACKAGE_ANCHOR in parts:
            anchor = len(parts) - 1 - parts[::-1].index(_PACKAGE_ANCHOR)
            self.package_parts = parts[anchor + 1:]
        else:
            self.package_parts = ()
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    @property
    def in_package(self) -> bool:
        """Whether the file lives inside the ``repro`` package."""
        return bool(self.package_parts)

    @property
    def top_dir(self) -> str:
        """Package subdirectory (``core``, ``index``, ...); "" at top level."""
        return self.package_parts[0] if len(self.package_parts) > 1 else ""

    def in_dirs(self, dirs: tuple[str, ...]) -> bool:
        return self.top_dir in dirs

    @property
    def is_package_init(self) -> bool:
        return PurePosixPath(self.relpath).name == "__init__.py"

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                return current
            current = self._parents.get(current)
        return None

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function and method definition of the file."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


class Rule:
    """Base class: one static check with a stable id and fix hint.

    ``package_only`` rules run on files inside the ``repro`` package
    only; the others run on every linted file.
    """

    id: str = "REP-X000"
    name: str = "unnamed"
    severity: str = SEVERITY_ERROR
    hint: str = ""
    package_only: bool = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                hint: str | None = None) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def body_nodes(fn: ast.AST) -> list[ast.AST]:
    """All AST nodes of a function body, excluding nested def/class bodies.

    A nested definition is its own scope; only the nested ``def``/``class``
    statement itself is included (its decorators and defaults run in the
    outer scope).
    """
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def identifier_texts(node: ast.expr) -> set[str]:
    """Name/attribute texts occurring in an expression.

    For ``self.profile.max_d`` both the dotted text and the trailing
    attribute (``max_d``) are returned so guard matching and the
    assume-positive allowlist can match either form.  Builtin callables
    are excluded.
    """
    texts: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in _BUILTIN_NAMES:
            texts.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            texts.add(sub.attr)
            try:
                texts.add(ast.unparse(sub))
            except ValueError:  # pragma: no cover - unparse is total on exprs
                pass
    return texts


def default_rules() -> tuple[Rule, ...]:
    """The full registry: one instance of every rule."""
    from repro.analysis.rules.concurrency import (
        LockGuardRule,
        SnapshotViewMutationRule,
    )
    from repro.analysis.rules.determinism import (
        EnvReadRule,
        SetIterationOrderRule,
        UnseededRngRule,
        WallClockRule,
    )
    from repro.analysis.rules.hygiene import (
        AllDriftRule,
        BroadExceptRule,
        MutableDefaultRule,
        UnclosedHandleRule,
    )
    from repro.analysis.rules.numeric import (
        FloatEqualityRule,
        MathDomainRule,
        UnguardedDivisionRule,
    )
    from repro.analysis.rules.obs import (
        DirectTimerRule,
        HandRolledCounterRule,
        SpanNameRegistryRule,
    )
    from repro.analysis.rules.perf import (
        HeapRescanInLoopRule,
        ListMembershipInLoopRule,
        ModuleLevelMutableCacheRule,
        ScalarGeometryInLoopRule,
        SortedInLoopRule,
        UnboundedCacheRule,
    )

    return (
        UnseededRngRule(),
        SetIterationOrderRule(),
        WallClockRule(),
        FloatEqualityRule(),
        UnguardedDivisionRule(),
        MathDomainRule(),
        MutableDefaultRule(),
        BroadExceptRule(),
        AllDriftRule(),
        SortedInLoopRule(),
        ListMembershipInLoopRule(),
        HeapRescanInLoopRule(),
        ScalarGeometryInLoopRule(),
        ModuleLevelMutableCacheRule(),
        UnboundedCacheRule(),
        DirectTimerRule(),
        HandRolledCounterRule(),
        SpanNameRegistryRule(),
        SnapshotViewMutationRule(),
        LockGuardRule(),
        EnvReadRule(),
        UnclosedHandleRule(),
    )


__all__ = [
    "FileContext",
    "ImportMap",
    "Rule",
    "WORKER_CLOSURE_DIRS",
    "body_nodes",
    "default_rules",
    "identifier_texts",
]
