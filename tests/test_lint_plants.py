"""Every lint rule fires on its bug planted into live code.

A *plant* inserts a rule's bug into a copy of a live file: at the end of
a function body found by qualified name with :mod:`ast`, or at module
level after the last top-level import.  The planted copy is linted under
the file's real relpath, and the rule must report one of the planted
lines.  A rule that catches its bug only in crafted sources, and never
where the code lives, is a rule no invariant of this code base depends
on.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import lint_source
from repro.analysis.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent

_SOI_BL = "src/repro/core/soi_baseline.py"
_SEGMENT_INTERESTS = "BaselineSOI._segment_interests"
_SERVER = "src/repro/serve/server.py"
_GREEDY = "src/repro/core/describe/greedy.py"
_GREEDY_SELECT = "GreedyDescriber.select_with_stats"

# (rule, file, [(function qualname or None for module level, code), ...])
PLANTS = [
    ("REP-D101", _SOI_BL, [(_SEGMENT_INTERESTS, """
        import random
        _plant = random.random()""")]),
    # The RNG plants of the retired reachability rule REP-F701: D101
    # checks every package directory but datagen/.
    ("REP-D101", _SERVER, [("_complete_answer", """
        import random
        _plant = random.random()""")]),
    ("REP-D101", _GREEDY, [(_GREEDY_SELECT, """
        import random
        _plant = random.random()""")]),
    ("REP-D102", _SOI_BL, [(_SEGMENT_INTERESTS, """
        _plant = list(set(query))""")]),
    # build_street_profile calls it to find R_s, outside core/ and index/.
    ("REP-D103", "src/repro/geometry/distance.py", [
        ("points_segment_distance", """
        import time
        _plant = time.time()""")]),
    ("REP-N201", _SOI_BL, [(_SEGMENT_INTERESTS, """
        _plant = eps == 0.5""")]),
    ("REP-N202", _SOI_BL, [(_SEGMENT_INTERESTS, """
        _plant = eps / _plant_width""")]),
    ("REP-N203", _SOI_BL, [(_SEGMENT_INTERESTS, """
        import math
        _plant = math.sqrt(eps)""")]),
    ("REP-H301", _SOI_BL, [(_SEGMENT_INTERESTS, """
        _plant = lambda seen=[]: seen""")]),
    ("REP-H302", _SOI_BL, [(_SEGMENT_INTERESTS, """
        try:
            _plant = 1
        except Exception:
            _plant = 0""")]),
    ("REP-H303", "src/repro/serve/__init__.py", [(None, """
        PLANTED = 1""")]),
    ("REP-P401", _SOI_BL, [(_SEGMENT_INTERESTS, """
        for _plant in range(3):
            _order = sorted(query)""")]),
    ("REP-P402", _SOI_BL, [(_SEGMENT_INTERESTS, """
        for _plant in range(3):
            _hit = _plant in [1, 2]""")]),
    ("REP-P403", _SOI_BL, [(None, """
        _SEEN = []""")]),
    # The plants of the retired worker-reachability rule REP-C601: the
    # module-level container they write is P403's finding.
    ("REP-P403", _SOI_BL, [(None, """
        _SEEN = []"""), (_SEGMENT_INTERESTS, """
        _SEEN.append(eps)""")]),
    ("REP-P403", _GREEDY, [(None, """
        _SEEN = []"""), (_GREEDY_SELECT, """
        _SEEN.append(k)""")]),
    ("REP-P403", _SERVER, [(None, """
        _SEEN = {}"""), ("_complete_answer", """
        _SEEN[request] = 1""")]),
    ("REP-P404", _SOI_BL, [(_SEGMENT_INTERESTS, """
        import heapq
        for _plant in range(3):
            _top = heapq.nlargest(2, query)""")]),
    ("REP-P405", _SOI_BL, [(_SEGMENT_INTERESTS, """
        from repro.geometry.distance import point_segment_distance
        for _plant in range(3):
            _d = point_segment_distance(0.0, 0.0, 0.0, 0.0, 1.0, 1.0)""")]),
    ("REP-P406", "src/repro/perf/result_cache.py", [
        ("ResultCache.__init__", """
        self._plant_cache = {}""")]),
    # The clock plant of REP-F701.
    ("REP-O501", _SERVER, [("_complete_answer", """
        import time
        _plant = time.time()""")]),
    ("REP-O502", _SERVER, [("_complete_answer", """
        _plant_counts = {}
        _plant_counts[request] += 1""")]),
    ("REP-O503", _SOI_BL, [(_SEGMENT_INTERESTS, """
        from repro.obs.tracer import trace_span
        with trace_span("plant.unregistered"):
            pass""")]),
    ("REP-C602", "src/repro/serve/views.py", [("_seeded_csr", """
        offsets[0] = 0""")]),
    ("REP-C603", "src/repro/perf/session.py", [
        ("QuerySession.store_mass_slots", """
        _plant = self._mass_slots.get(key)""")]),
    ("REP-C603", "src/repro/perf/session.py", [
        ("QuerySessionPool.__len__", """
        _plant = len(self._sessions)""")]),
    ("REP-F702", "src/repro/data/keywords.py", [("normalize_keywords", """
        import os
        _plant = os.environ.get("REPRO_PLANT")""")]),
    ("REP-F702", _SOI_BL, [(_SEGMENT_INTERESTS, """
        import os
        _plant = os.environ.get("REPRO_PLANT")""")]),
    ("REP-F702", "src/repro/core/describe/profile.py", [
        ("build_street_profile", """
        import os
        _plant = os.environ.get("REPRO_PLANT")""")]),
    ("REP-R802", "src/repro/perf/bench.py", [("environment", """
        _plant = open("plant.log", "a")""")]),
    ("REP-R802", "benchmarks/conftest.py", [("emit", """
        _plant = open("plant.log", "a")""")]),
]


def _definition(tree: ast.Module, qualname: str) -> ast.AST:
    scope: ast.AST = tree
    for name in qualname.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and node.name == name)
    return scope


def plant(relpath: str, inserts: list) -> tuple[str, str, set[int]]:
    """The live source, the planted source and the planted line numbers."""
    original = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    lines = original.splitlines()
    tree = ast.parse(original)
    placed = []
    for target, code in inserts:
        block = textwrap.dedent(code).strip("\n").splitlines()
        if target is None:
            last_import = max(node.end_lineno for node in tree.body
                              if isinstance(node, (ast.Import,
                                                   ast.ImportFrom)))
            placed.append((last_import, "", block))
        else:
            fn = _definition(tree, target)
            placed.append((fn.body[-1].end_lineno,
                           " " * fn.body[0].col_offset, block))
    planted: set[int] = set()
    offset = 0
    for after, indent, block in sorted(placed, key=lambda item: item[0]):
        at = after + offset
        lines[at:at] = [indent + line for line in block]
        planted.update(range(at + 1, at + len(block) + 1))
        offset += len(block)
    return original, "\n".join(lines) + "\n", planted


def _plant_id(case) -> str:
    rule, relpath, inserts = case
    where = "+".join(target or "module" for target, _code in inserts)
    return f"{rule}:{Path(relpath).stem}:{where}"


@pytest.mark.parametrize("rule, relpath, inserts", PLANTS,
                         ids=[_plant_id(case) for case in PLANTS])
def test_rule_fires_on_its_plant_in_live_code(rule, relpath, inserts):
    original, planted_source, planted = plant(relpath, inserts)
    assert lint_source(original, relpath) == []
    findings = lint_source(planted_source, relpath)
    lines = sorted(f.line for f in findings if f.rule == rule)
    assert set(lines) & planted, (
        f"{rule} did not fire on lines {sorted(planted)} of {relpath}; "
        f"it fired on {lines}, and these rules fired: "
        f"{sorted({f.rule for f in findings})}")


def test_every_rule_has_a_live_plant():
    assert {rule for rule, _relpath, _inserts in PLANTS} == {
        rule.id for rule in default_rules()}
