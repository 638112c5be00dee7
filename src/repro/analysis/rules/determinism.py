"""Determinism rules (``REP-D1xx``, ``REP-F702``).

The reproduction's contract is bit-for-bit repeatability: the same city,
query and parameters must produce the same ranking and the same summary on
every run.  Four static hazards undermine that:

* **REP-D101** — unseeded random number generation outside the designated
  data-generation package (``datagen`` seeds every generator explicitly);
* **REP-D102** — iterating a ``set``/``frozenset`` expression straight into
  an ordered sink (a ``for`` loop, ``list``/``tuple``/``enumerate``,
  ``str.join`` or a ``return``) — iteration order is hash-dependent for
  strings, so results leak ``PYTHONHASHSEED``;
* **REP-D103** — wall-clock reads inside the serving workers' import
  closure (:data:`~repro.analysis.rules.WORKER_CLOSURE_DIRS`); monotonic
  timers (``perf_counter`` & friends) are fine for stats, but wall-clock
  values must never influence results;
* **REP-F702** — environment reads (``os.environ``, ``os.getenv``) in the
  same closure: a served answer must not depend on the machine that
  computed it.  Configuration read at start-up lives outside it
  (``obs``, ``analysis``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import WORKER_CLOSURE_DIRS, FileContext, Rule

# Only the data generator may build generators without an explicit seed:
# seeding them is what its presets are for (REP-D101).
RNG_ALLOWED_DIRS = ("datagen",)

_SAFE_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.asctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})


class UnseededRngRule(Rule):
    id = "REP-D101"
    name = "unseeded-rng"
    hint = ("pass an explicit seed (np.random.default_rng(seed)) or move "
            "the randomness into the datagen package")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_dirs(RNG_ALLOWED_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted is None:
                continue
            if dotted.endswith(".random.default_rng") or \
                    dotted == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "np.random.default_rng() without a seed is "
                        "nondeterministic")
                continue
            if dotted.startswith("numpy.random."):
                member = dotted.rsplit(".", 1)[1]
                if member not in _SAFE_NP_RANDOM:
                    yield self.finding(
                        ctx, node,
                        f"legacy global RNG call numpy.random.{member} "
                        "draws from unseeded process-global state")
                continue
            if dotted.startswith("random."):
                yield self.finding(
                    ctx, node,
                    f"stdlib {dotted}() draws from unseeded process-global "
                    "state")


class SetIterationOrderRule(Rule):
    id = "REP-D102"
    name = "set-iteration-order"
    hint = ("wrap the set in sorted(...) before it reaches an ordered "
            "consumer, or use an order-insensitive aggregate")

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and self._is_set_expr(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    "for-loop over a set expression has hash-dependent "
                    "order")
            elif isinstance(node, ast.comprehension) and \
                    self._is_set_expr(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    "comprehension over a set expression has "
                    "hash-dependent order")
            elif isinstance(node, ast.Call):
                func = node.func
                target = None
                if isinstance(func, ast.Name) and \
                        func.id in ("list", "tuple", "enumerate"):
                    target = func.id
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    target = "str.join"
                if target is None or not node.args:
                    continue
                if self._is_set_expr(node.args[0]):
                    yield self.finding(
                        ctx, node.args[0],
                        f"set expression materialised by {target}() in "
                        "hash-dependent order")


class WallClockRule(Rule):
    id = "REP-D103"
    name = "wall-clock"
    hint = ("use time.perf_counter()/time.monotonic() for timing; "
            "wall-clock values must not reach algorithmic code")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(WORKER_CLOSURE_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {dotted}() inside "
                    f"'{ctx.top_dir}/' can make results time-dependent")


class EnvReadRule(Rule):
    id = "REP-F702"
    name = "env-read"
    hint = ("environment reads make results machine-dependent; resolve "
            "configuration once at startup outside the worker closure and "
            "pass it down explicitly")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(WORKER_CLOSURE_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = ctx.imports.canonical_call_name(node.func)
                if dotted in ("os.getenv", "os.environ.get"):
                    yield self.finding(
                        ctx, node,
                        f"environment read {dotted}() inside "
                        f"'{ctx.top_dir}/' can make results "
                        "machine-dependent")
            elif isinstance(node, ast.Subscript) \
                    and ctx.imports.canonical_call_name(node.value) \
                    == "os.environ":
                yield self.finding(
                    ctx, node,
                    f"os.environ[...] read inside '{ctx.top_dir}/' can "
                    "make results machine-dependent")


__all__ = ["EnvReadRule", "SetIterationOrderRule", "UnseededRngRule",
           "WallClockRule"]
