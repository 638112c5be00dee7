"""Correctness tooling for the reproduction: static analysis + contracts.

Two halves, one goal — make the paper's invariants checkable so that
future performance work (sharding, caching, parallel refactors of the hot
paths) has a safety net:

* :mod:`repro.analysis.contracts` — runtime invariant checks for the
  SOI/describe pipelines, zero-overhead unless enabled via
  ``REPRO_CHECK=1``, ``--check`` or :func:`enable_contracts`;
* the **linter** (:mod:`repro.analysis.engine` and
  :mod:`repro.analysis.rules`) — a custom AST lint pass with repo-specific
  determinism, numeric-safety, hygiene, performance, observability and
  shared-state rules, runnable as ``repro lint``.

The contracts half is imported eagerly because the core hot paths read
``contracts.ENABLED``; the linter half is loaded lazily through
``__getattr__`` so importing :mod:`repro.core` never pays for the lint
machinery.
"""

from __future__ import annotations

from repro.analysis import contracts
from repro.analysis.contracts import (
    contracts_enabled,
    enable_contracts,
)
from repro.errors import ContractViolation

_LAZY_EXPORTS = {
    "Finding": "repro.analysis.findings",
    "LintResult": "repro.analysis.engine",
    "lint_paths": "repro.analysis.engine",
    "lint_source": "repro.analysis.engine",
    "default_rules": "repro.analysis.rules",
    "render_json": "repro.analysis.reporters",
    "render_text": "repro.analysis.reporters",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "ContractViolation",
    "Finding",
    "LintResult",
    "contracts",
    "contracts_enabled",
    "default_rules",
    "enable_contracts",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
