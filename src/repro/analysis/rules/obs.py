"""Observability rules (``REP-O5xx``).

The :mod:`repro.obs` package is the single funnel for timing and
telemetry: the tracer owns the clocks, the metrics registry owns the
counters.  Two hazards erode that over time:

* **REP-O501** — direct ``time.time()``/``time.perf_counter()`` (and
  friends) calls inside the instrumented packages (``core``, ``serve``).
  Scattered ad-hoc timers are invisible to the span tracer and the
  slow-query log; the sanctioned clocks are re-exported by
  :mod:`repro.obs.tracer` (``perf_now``, ``monotonic_now``) so hot paths
  keep a single audited import.
* **REP-O502** — hand-rolled counter dicts (``counts[key] += 1`` or the
  ``d[k] = d.get(k, 0) + 1`` idiom) in the same packages.  Telemetry
  counters belong in the :class:`repro.obs.metrics.MetricsRegistry`
  (namespaced, mergeable across worker processes, dumpable via
  ``repro metrics``); dict bumps that are *algorithmic state* rather
  than telemetry carry a ``# repro-lint: disable=REP-O502`` suppression
  saying so.
* **REP-O503** — ``trace_span`` call sites in the instrumented packages
  whose span name is not a string literal from the central registry
  (:data:`repro.obs.tracer.SPAN_NAMES`).  A typo'd name silently
  vanishes from every profile that filters by name, and dynamic names
  give the trace unbounded cardinality; new instrumentation sites
  register their name in the table first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule
from repro.obs.tracer import SPAN_NAMES

# Where timing and telemetry must flow through repro.obs (REP-O501/O502);
# repro.obs itself is exempt by construction.
OBS_CHECKED_DIRS = ("core", "serve")

# Where trace_span names must come from the span-name registry (REP-O503).
SPAN_CHECKED_DIRS = ("core", "serve", "index")

_TIMER_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
})


class DirectTimerRule(Rule):
    id = "REP-O501"
    name = "direct-timer"
    hint = ("import the clock from repro.obs.tracer (perf_now, "
            "monotonic_now) or wrap the region in trace_span so the "
            "timing is visible to the tracer and the slow-query log")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(OBS_CHECKED_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted in _TIMER_CALLS:
                yield self.finding(
                    ctx, node,
                    f"direct timer call {dotted}() inside "
                    f"'{ctx.top_dir}/' bypasses the repro.obs clocks")


def _numeric_constant(node: ast.expr) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _subscript_base_text(node: ast.Subscript) -> str | None:
    """Source text of the subscripted container (``counts`` / ``self.freq``)."""
    try:
        return ast.unparse(node.value)
    except ValueError:  # pragma: no cover - unparse is total on exprs
        return None


class HandRolledCounterRule(Rule):
    id = "REP-O502"
    name = "hand-rolled-counter"
    hint = ("telemetry counters belong in repro.obs.metrics "
            "(REGISTRY.inc / inc_many); if this dict bump is algorithmic "
            "state, suppress with a reason")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(OBS_CHECKED_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign):
                if (isinstance(node.op, ast.Add)
                        and isinstance(node.target, ast.Subscript)
                        and _numeric_constant(node.value)):
                    yield self.finding(
                        ctx, node,
                        "hand-rolled counter bump "
                        f"'{self._text(node.target)} += "
                        f"{node.value.value}' outside repro.obs")
            elif isinstance(node, ast.Assign):
                yield from self._check_get_default(ctx, node)

    def _check_get_default(self, ctx: FileContext,
                           node: ast.Assign) -> Iterator[Finding]:
        """The ``d[k] = d.get(k, 0) + inc`` accumulation idiom."""
        if len(node.targets) != 1 or \
                not isinstance(node.targets[0], ast.Subscript):
            return
        value = node.value
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)):
            return
        base = _subscript_base_text(node.targets[0])
        if base is None:
            return
        for side in (value.left, value.right):
            if not (isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "get"
                    and len(side.args) == 2
                    and _numeric_constant(side.args[1])):
                continue
            try:
                get_base = ast.unparse(side.func.value)
            except ValueError:  # pragma: no cover
                continue
            if get_base == base:
                yield self.finding(
                    ctx, node,
                    f"hand-rolled counter accumulation '{base}[...] = "
                    f"{base}.get(..., {side.args[1].value}) + ...' "
                    "outside repro.obs")
                return

    @staticmethod
    def _text(node: ast.expr) -> str:
        try:
            return ast.unparse(node)
        except ValueError:  # pragma: no cover
            return "<subscript>"


_TRACE_SPAN_CALLS = frozenset({
    "repro.obs.tracer.trace_span",
    "repro.obs.trace_span",
    "trace_span",  # star-import fallback; the dirs never shadow the name
})


class SpanNameRegistryRule(Rule):
    id = "REP-O503"
    name = "span-name-registry"
    hint = ("span names under the instrumented packages come from the "
            "central table repro.obs.tracer.SPAN_NAMES — register the "
            "new name there (keeps cardinality bounded and names "
            "typo-free), and keep the call-site name a string literal")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(SPAN_CHECKED_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted not in _TRACE_SPAN_CALLS:
                continue
            if not node.args:
                continue  # a syntax error the runtime reports itself
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)):
                yield self.finding(
                    ctx, node,
                    "trace_span name is not a string literal — dynamic "
                    "span names give the trace unbounded cardinality")
                continue
            if name_arg.value not in SPAN_NAMES:
                yield self.finding(
                    ctx, node,
                    f"span name {name_arg.value!r} is not registered in "
                    f"repro.obs.tracer.SPAN_NAMES")


__all__ = ["DirectTimerRule", "HandRolledCounterRule",
           "SpanNameRegistryRule"]
