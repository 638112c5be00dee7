"""Rule infrastructure and the default rule registry.

A rule is a small class with an ``id`` (``REP-<family><number>``), a
severity, a one-line fix ``hint`` and a ``check(ctx)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects.  ``FileContext`` gives
every rule the parsed AST, the raw source lines, the lint configuration
and the file's position inside the ``repro`` package (for directory-scoped
rules such as the wall-clock and division checks).

Rule families:

* ``REP-D1xx`` — determinism (:mod:`repro.analysis.rules.determinism`);
* ``REP-N2xx`` — numeric safety (:mod:`repro.analysis.rules.numeric`);
* ``REP-H3xx`` — API hygiene (:mod:`repro.analysis.rules.hygiene`);
* ``REP-P4xx`` — performance hazards (:mod:`repro.analysis.rules.perf`);
* ``REP-O5xx`` — observability funnels (:mod:`repro.analysis.rules.obs`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.findings import SEVERITY_ERROR, Finding

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

    path: Path
    relpath: str
    source: str
    lines: list[str]
    tree: ast.Module
    config: LintConfig
    imports: ImportMap = field(init=False)
    package_parts: tuple[str, ...] = field(init=False)
    _parents: dict[ast.AST, ast.AST] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.imports = ImportMap.of(self.tree)
        # The relpath may have been computed against a root inside the
        # package (e.g. no pyproject.toml above the file); the absolute
        # path then still carries the ``repro`` anchor.
        parts = Path(self.relpath).parts
        if "repro" not in parts and "repro" in self.path.parts:
            parts = self.path.parts
        if "repro" in parts:
            anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
            self.package_parts = parts[anchor + 1:]
        else:
            self.package_parts = parts
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    @property
    def top_dir(self) -> str:
        """Package subdirectory (``core``, ``index``, ...); "" at top level."""
        return self.package_parts[0] if len(self.package_parts) > 1 else ""

    def in_dirs(self, dirs: tuple[str, ...]) -> bool:
        return self.top_dir in dirs

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

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


class Rule:
    """Base class: one static check with a stable id and fix hint."""

    id: str = "REP-X000"
    name: str = "unnamed"
    severity: str = SEVERITY_ERROR
    hint: str = ""

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


def default_rules(config: LintConfig) -> tuple[Rule, ...]:
    """The full registry, minus any rules disabled in the config."""
    from repro.analysis.rules.determinism import (
        SetIterationOrderRule,
        UnseededRngRule,
        WallClockRule,
    )
    from repro.analysis.rules.hygiene import (
        AllDriftRule,
        BroadExceptRule,
        MutableDefaultRule,
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

    rules: tuple[Rule, ...] = (
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
    )
    disabled = set(config.disabled_rules)
    return tuple(rule for rule in rules if rule.id not in disabled)


__all__ = [
    "FileContext",
    "ImportMap",
    "Rule",
    "default_rules",
    "identifier_texts",
]
