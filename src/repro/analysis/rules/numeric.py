"""Numeric-safety rules (``REP-N2xx``).

The paper's measures are ratios of masses over buffer areas and of keyword
frequencies over norms; the classic float hazards in such code are exact
equality tests, divisions whose denominator can silently be zero, and
``math`` domain errors from arguments a rounding error pushed out of range.

* **REP-N201** — ``==``/``!=`` against a float literal.  The accepted
  idiom for degenerate-geometry guards is an inequality against the bound
  (``denom <= 0.0`` for a nonnegative quantity) or :func:`math.isclose`;
  genuine exact sentinels need a per-line suppression with a reason.
* **REP-N202** — a division inside ``core`` or ``geometry`` whose
  denominator has no *visible* zero-guard: no enclosing/nearby condition
  mentioning the denominator, no assume-positive callable/attribute
  (``buffer_area``, ``max_d``), and not a nonzero literal.
* **REP-N203** — ``math.sqrt``/``math.acos``/``math.asin`` whose argument
  is not visibly inside the domain (a square, a sum of squares, an
  ``abs``/clamp, or a safe literal).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, identifier_texts

# Where every division needs a visible zero-guard (REP-N202).
DIVISION_CHECKED_DIRS = ("core", "geometry")

# Denominators positive by construction: the buffer area of a segment
# at ε > 0 (a function and the store layout's column of it) and a street
# profile's normalising distance, which its constructor checks.
ASSUME_POSITIVE = frozenset({"buffer_area", "buffer_col", "max_d"})


class FloatEqualityRule(Rule):
    id = "REP-N201"
    name = "float-equality"
    hint = ("for nonnegative quantities guard with <= / >= against the "
            "bound; otherwise use math.isclose, or suppress with a reason "
            "for a true exact sentinel")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left = operands[index]
                right = operands[index + 1]
                if self._is_float_literal(left) or \
                        self._is_float_literal(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx, node,
                        f"exact float comparison "
                        f"'{ast.unparse(left)} {symbol} "
                        f"{ast.unparse(right)}'")

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and \
            isinstance(node.value, float)


class UnguardedDivisionRule(Rule):
    id = "REP-N202"
    name = "unguarded-division"
    hint = ("guard the denominator in the same function (if d <= 0: ..., "
            "'x / d if d else 0'), or add a provably positive "
            "callable/attribute to numeric.ASSUME_POSITIVE")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(DIVISION_CHECKED_DIRS):
            return
        guard_cache: dict[ast.AST | None, list[str]] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp) or \
                    not isinstance(node.op, (ast.Div, ast.FloorDiv)):
                continue
            denom = node.right
            if self._nonzero_literal(denom):
                continue
            idents = identifier_texts(denom)
            if idents & ASSUME_POSITIVE:
                continue
            scope = ctx.enclosing_function(node)
            guards = guard_cache.get(scope)
            if guards is None:
                guards = self._guard_texts(scope if scope is not None
                                           else ctx.tree)
                guard_cache[scope] = guards
            if self._guarded(idents, guards):
                continue
            yield self.finding(
                ctx, node,
                f"division by '{ast.unparse(denom)}' has no visible "
                "zero-guard in the enclosing scope")

    @staticmethod
    def _nonzero_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and node.value != 0)

    @staticmethod
    def _guard_texts(scope: ast.AST) -> list[str]:
        texts = []
        for sub in ast.walk(scope):
            test = None
            if isinstance(sub, (ast.If, ast.IfExp, ast.While, ast.Assert)):
                test = sub.test
            elif isinstance(sub, ast.comprehension):
                for cond in sub.ifs:
                    texts.append(ast.unparse(cond))
            if test is not None:
                texts.append(ast.unparse(test))
        return texts

    @staticmethod
    def _guarded(idents: set[str], guards: list[str]) -> bool:
        for ident in idents:
            pattern = re.compile(rf"(?<![\w.]){re.escape(ident)}(?![\w.])")
            for guard in guards:
                if pattern.search(guard):
                    return True
        return False


class MathDomainRule(Rule):
    id = "REP-N203"
    name = "math-domain"
    hint = ("clamp before the call: max(0.0, x) for sqrt, "
            "min(1.0, max(-1.0, x)) for acos/asin")

    _SQRT = ("math.sqrt",)
    _TRIG = ("math.acos", "math.asin")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.canonical_call_name(node.func)
            if dotted in self._SQRT:
                if not node.args or not self._sqrt_safe(node.args[0]):
                    yield self.finding(
                        ctx, node,
                        "math.sqrt argument is not visibly nonnegative "
                        "(a rounding error can make it negative)")
            elif dotted in self._TRIG:
                if not node.args or not self._trig_safe(node.args[0]):
                    member = dotted.rsplit(".", 1)[1]
                    yield self.finding(
                        ctx, node,
                        f"math.{member} argument is not visibly clamped "
                        "to [-1, 1]")

    @classmethod
    def _sqrt_safe(cls, arg: ast.expr) -> bool:
        if isinstance(arg, ast.Constant):
            return isinstance(arg.value, (int, float)) and arg.value >= 0
        if isinstance(arg, ast.BinOp):
            if isinstance(arg.op, ast.Mult):
                return ast.dump(arg.left) == ast.dump(arg.right)
            if isinstance(arg.op, ast.Pow):
                return (isinstance(arg.right, ast.Constant)
                        and isinstance(arg.right.value, int)
                        and arg.right.value % 2 == 0)
            if isinstance(arg.op, ast.Add):
                return cls._sqrt_safe(arg.left) and cls._sqrt_safe(arg.right)
            return False
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
            if arg.func.id == "abs":
                return True
            if arg.func.id == "max":
                return any(isinstance(a, ast.Constant)
                           and isinstance(a.value, (int, float))
                           and a.value >= 0
                           for a in arg.args)
        return False

    @staticmethod
    def _trig_safe(arg: ast.expr) -> bool:
        if isinstance(arg, ast.Constant):
            return (isinstance(arg.value, (int, float))
                    and -1.0 <= arg.value <= 1.0)
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) \
                and arg.func.id == "min":
            return any(isinstance(a, ast.Constant)
                       and isinstance(a.value, (int, float))
                       and a.value <= 1.0
                       for a in arg.args)
        return False


__all__ = ["FloatEqualityRule", "MathDomainRule", "UnguardedDivisionRule"]
