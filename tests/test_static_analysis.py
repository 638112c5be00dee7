"""The lint gate and unit tests for the custom AST rules.

``test_repo_is_lint_clean`` is the tier-1 gate: it runs the full linter
over ``src/repro`` in-process and fails on any finding.  The remaining
tests exercise each rule against crafted sources through
:func:`lint_source`; ``tests/test_lint_plants.py`` plants each rule's
bug into live code.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro.cli
from repro.analysis.engine import LintResult, lint_paths, lint_source
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def rules_of(findings):
    return [f.rule for f in findings]


# -- the gate -----------------------------------------------------------------

def test_repo_is_lint_clean():
    result = lint_paths([SRC])
    details = "\n".join(f.format_text() for f in result.findings)
    assert result.clean, f"lint findings in src/repro:\n{details}"
    assert result.files_checked > 50


def test_full_tree_is_lint_clean():
    """src + tests + benchmarks (the CI command's paths): zero findings."""
    result = lint_paths(
        [SRC, REPO_ROOT / "tests", REPO_ROOT / "benchmarks"])
    details = "\n".join(f.format_text() for f in result.findings)
    assert result.clean, f"lint findings in full tree:\n{details}"
    assert result.files_checked > 100


# -- determinism rules --------------------------------------------------------

def test_d101_flags_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-D101"]


def test_d101_accepts_seeded_and_datagen():
    seeded = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert lint_source(seeded, relpath="repro/core/x.py") == []
    unseeded = "import numpy as np\nrng = np.random.default_rng()\n"
    assert lint_source(unseeded, relpath="repro/datagen/x.py") == []


def test_d101_flags_legacy_global_and_stdlib_random():
    src = ("import random\nimport numpy as np\n"
           "a = np.random.rand(3)\n"
           "b = random.random()\n")
    findings = lint_source(src, relpath="repro/eval/x.py")
    assert rules_of(findings) == ["REP-D101", "REP-D101"]


def test_d102_flags_set_into_ordered_sinks():
    src = ("def f(xs):\n"
           "    out = []\n"
           "    for x in set(xs):\n"
           "        out.append(x)\n"
           "    ys = [y for y in {1, 2, 3}]\n"
           "    zs = list(frozenset(xs))\n"
           "    return out, ys, zs\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-D102"] * 3


def test_d102_accepts_sorted_sets_and_membership():
    src = ("def f(xs):\n"
           "    ordered = sorted(set(xs))\n"
           "    total = sum(1 for x in xs if x in {1, 2})\n"
           "    return ordered, total\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_d103_wall_clock_only_in_checked_dirs():
    src = "import time\nstamp = time.time()\n"
    # In core/ a wall-clock read breaks determinism (D103) *and* bypasses
    # the repro.obs clock funnel (O501) — both rules report it.
    assert rules_of(lint_source(src, relpath="repro/core/x.py")) == [
        "REP-D103", "REP-O501"]
    assert lint_source(src, relpath="repro/eval/x.py") == []
    assert lint_source(src, relpath="repro/obs/x.py") == []
    # The serving workers' whole import closure is checked, not only core/.
    assert rules_of(lint_source(src, relpath="repro/geometry/x.py")) == [
        "REP-D103"]
    timer = "import time\nt0 = time.perf_counter()\n"
    # D103 allows timers
    assert rules_of(lint_source(timer, relpath="repro/index/x.py")) == []
    assert rules_of(lint_source(timer, relpath="repro/core/x.py")) == [
        "REP-O501"]


# -- numeric rules ------------------------------------------------------------

def test_n201_flags_float_equality_both_sides():
    src = ("def f(x):\n"
           "    if x == 0.5:\n"
           "        return 1\n"
           "    return -1.0 != x\n")
    findings = lint_source(src, relpath="repro/eval/x.py")
    assert rules_of(findings) == ["REP-N201", "REP-N201"]


def test_n201_accepts_int_equality_and_inequalities():
    src = ("def f(x, n):\n"
           "    if n == 0:\n"
           "        return 0\n"
           "    if x <= 0.0:\n"
           "        return 1\n"
           "    return x\n")
    assert lint_source(src, relpath="repro/eval/x.py") == []


def test_n202_flags_unguarded_division_in_checked_dirs():
    src = "def f(a, b):\n    return a / b\n"
    assert rules_of(lint_source(src, relpath="repro/core/x.py")) == [
        "REP-N202"]
    # Same code outside core/geometry is not checked.
    assert lint_source(src, relpath="repro/eval/x.py") == []


def test_n202_accepts_guards_literals_and_allowlist():
    src = ("def guarded(a, b):\n"
           "    if b <= 0:\n"
           "        return 0.0\n"
           "    return a / b\n"
           "def halved(a):\n"
           "    return a / 2.0\n"
           "def density(mass, length, eps):\n"
           "    return mass / buffer_area(length, eps)\n"
           "def ternary(a, b):\n"
           "    return a / b if b else 0.0\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_n203_math_domain():
    src = ("import math\n"
           "def f(x, t):\n"
           "    return math.sqrt(x) + math.acos(t)\n")
    findings = lint_source(src, relpath="repro/geometry/x.py")
    assert rules_of(findings) == ["REP-N203", "REP-N203"]
    safe = ("import math\n"
            "def f(dx, dy, t):\n"
            "    a = math.sqrt(dx * dx + dy * dy)\n"
            "    b = math.sqrt(max(0.0, t))\n"
            "    c = math.acos(min(1.0, max(-1.0, t)))\n"
            "    return a + b + c\n")
    assert lint_source(safe, relpath="repro/geometry/x.py") == []


# -- hygiene rules ------------------------------------------------------------

def test_h301_mutable_default():
    src = "def f(items=[], table={}):\n    return items, table\n"
    findings = lint_source(src, relpath="repro/eval/x.py")
    assert rules_of(findings) == ["REP-H301", "REP-H301"]
    ok = "def f(items=None):\n    return list(items or [])\n"
    assert lint_source(ok, relpath="repro/eval/x.py") == []


def test_h302_broad_except():
    src = ("def f():\n"
           "    try:\n"
           "        work()\n"
           "    except:\n"
           "        pass\n"
           "    try:\n"
           "        work()\n"
           "    except Exception:\n"
           "        return None\n")
    findings = lint_source(src, relpath="repro/eval/x.py")
    assert rules_of(findings) == ["REP-H302", "REP-H302"]


def test_h302_accepts_narrow_and_reraising_handlers():
    src = ("def f():\n"
           "    try:\n"
           "        work()\n"
           "    except ValueError:\n"
           "        return None\n"
           "    try:\n"
           "        work()\n"
           "    except Exception as exc:\n"
           "        raise RuntimeError('context') from exc\n")
    assert lint_source(src, relpath="repro/eval/x.py") == []


def test_h303_all_drift_both_directions():
    src = ("from repro.core.soi import SOIEngine\n"
           "__all__ = ['Ghost']\n")
    findings = lint_source(src, relpath="repro/sub/__init__.py")
    messages = sorted(f.message for f in findings)
    assert rules_of(findings) == ["REP-H303", "REP-H303"]
    assert "never binds" in messages[0]          # Ghost is exported, unbound
    assert "missing from __all__" in messages[1]  # SOIEngine re-export


def test_h303_exempts_future_and_used_imports():
    src = ("from __future__ import annotations\n"
           "from pathlib import Path\n"
           "def resolve(p) -> Path:\n"
           "    return Path(p)\n"
           "__all__ = ['resolve']\n")
    assert lint_source(src, relpath="repro/sub/__init__.py") == []


def test_h303_only_applies_to_package_inits():
    src = "from repro.core.soi import SOIEngine\n__all__ = ['Ghost']\n"
    assert lint_source(src, relpath="repro/sub/module.py") == []


# -- performance rules --------------------------------------------------------

def test_p401_flags_sorted_in_loop_body():
    src = ("def f(items, groups):\n"
           "    out = []\n"
           "    for group in groups:\n"
           "        for x in sorted(items):\n"
           "            out.append((group, x))\n"
           "    return out\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-P401"]
    assert "loop at line 3" in findings[0].message


def test_p401_accepts_loop_header_and_hoisted_sorts():
    src = ("def f(items, groups):\n"
           "    ordered = sorted(items)\n"
           "    for x in sorted(groups):\n"
           "        use(x, ordered)\n"
           "    while sorted(items) != items:\n"
           "        items = step(items)\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_p401_stops_at_function_boundaries():
    src = ("def f(groups):\n"
           "    for group in groups:\n"
           "        def key(item):\n"
           "            return sorted(item.tags)\n"
           "        use(group, key)\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_p401_only_in_perf_checked_dirs():
    src = ("def f(items, groups):\n"
           "    for group in groups:\n"
           "        use(sorted(items))\n")
    assert lint_source(src, relpath="repro/eval/x.py") == []


def test_p402_flags_list_membership_in_loop():
    src = ("def f(items):\n"
           "    wanted = [1, 2, 3]\n"
           "    for x in items:\n"
           "        if x in wanted:\n"
           "            use(x)\n"
           "        if x not in list(items):\n"
           "            use(x)\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-P402", "REP-P402"]


def test_p402_accepts_sets_dicts_and_untraceable_names():
    src = ("def f(items, wanted):\n"
           "    seen = {1, 2, 3}\n"
           "    for x in items:\n"
           "        if x in seen:\n"
           "            use(x)\n"
           "        if x in wanted:\n"  # parameter: untraceable, silent
           "            use(x)\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_p402_conservative_on_reassigned_names():
    src = ("def f(items):\n"
           "    wanted = [1, 2]\n"
           "    wanted = frozenset(wanted)\n"
           "    for x in items:\n"
           "        if x in wanted:\n"
           "            use(x)\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_p402_membership_outside_loop_is_fine():
    src = ("def f(x):\n"
           "    wanted = [1, 2, 3]\n"
           "    return x in wanted\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_p404_flags_nlargest_in_loop_body():
    src = ("import heapq\n"
           "def lbk(groups, k):\n"
           "    for values in groups:\n"
           "        top = heapq.nlargest(k, values)\n"
           "        use(top)\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-P404"]
    assert "loop at line 3" in findings[0].message


def test_p404_flags_from_import_alias_and_nsmallest():
    src = ("from heapq import nlargest, nsmallest as smallest\n"
           "def f(groups, k):\n"
           "    out = []\n"
           "    for values in groups:\n"
           "        out.append(nlargest(k, values))\n"
           "        out.append(smallest(k, values))\n"
           "    return out\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-P404", "REP-P404"]


def test_p404_accepts_hoisted_calls_and_incremental_heaps():
    src = ("import heapq\n"
           "def f(values, items, k):\n"
           "    top = heapq.nlargest(k, values)\n"  # once, outside any loop
           "    heap = []\n"
           "    for x in items:\n"
           "        heapq.heappush(heap, x)\n"  # incremental: the fix
           "        if len(heap) > k:\n"
           "            heapq.heappop(heap)\n"
           "    return top, heap\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_p404_stops_at_function_boundaries_and_checked_dirs():
    nested = ("import heapq\n"
              "def f(groups, k):\n"
              "    for group in groups:\n"
              "        def summarise(values):\n"
              "            return heapq.nlargest(k, values)\n"
              "        use(group, summarise)\n")
    assert lint_source(nested, relpath="repro/core/x.py") == []
    unchecked = ("import heapq\n"
                 "def f(groups, k):\n"
                 "    for values in groups:\n"
                 "        use(heapq.nlargest(k, values))\n")
    assert lint_source(unchecked, relpath="repro/eval/x.py") == []


def test_p405_flags_scalar_kernel_in_loop_body():
    # Planted bug: the pre-vectorisation rasterisation loop, one scalar
    # exact-distance call per candidate cell.
    src = ("from repro.geometry.distance import segment_bbox_mindist\n"
           "def confirm(segments, boxes, eps):\n"
           "    hits = []\n"
           "    for seg, box in zip(segments, boxes):\n"
           "        if segment_bbox_mindist(*seg, box) <= eps:\n"
           "            hits.append(seg)\n"
           "    return hits\n")
    findings = lint_source(src, relpath="repro/index/x.py")
    assert rules_of(findings) == ["REP-P405"]
    assert "segment_bbox_mindist" in findings[0].message
    assert "loop at line 4" in findings[0].message
    assert "segments_bbox_mindist_batched" in findings[0].hint


def test_p405_flags_aliases_and_listed_files():
    # Alias-aware like REP-P404, and core/state_store.py is opted in by
    # file (geometry-checked-files) even though core/ is not a checked dir.
    src = ("import repro.geometry.distance as gdist\n"
           "from repro.geometry.distance import point_segment_distance as psd\n"
           "def walk(pois, segs):\n"
           "    for p in pois:\n"
           "        for s in segs:\n"
           "            use(psd(p.x, p.y, *s))\n"
           "            use(gdist.segment_segment_distance(*s, *s))\n")
    findings = lint_source(src, relpath="repro/core/state_store.py")
    assert rules_of(findings) == ["REP-P405", "REP-P405"]


def test_p405_fixed_batched_twin_is_silent():
    # The fix: one batched kernel call over the packed candidate arrays.
    src = ("from repro.geometry.distance import (\n"
           "    segment_bbox_mindist,\n"
           "    segments_bbox_mindist_batched,\n"
           ")\n"
           "def confirm(ax, ay, bx, by, boxes, eps):\n"
           "    dist = segments_bbox_mindist_batched(ax, ay, bx, by, boxes)\n"
           "    anchor = segment_bbox_mindist(\n"  # once, outside any loop
           "        ax[0], ay[0], bx[0], by[0], boxes[0])\n"
           "    return (dist <= eps), anchor\n")
    assert lint_source(src, relpath="repro/index/x.py") == []


@pytest.mark.parametrize("relpath", [
    "repro/core/interest.py", "repro/core/soi.py",
    "repro/core/soi_baseline.py"])
def test_p405_flags_per_slot_mass_loop_in_core(relpath):
    # Planted bug: the per-visit mass path the slot-mass pass replaced,
    # one scalar distance per (slot, POI) inside the visit loop.
    src = ("from repro.geometry.distance import point_segment_distance\n"
           "def slot_mass(pois, seg, eps):\n"
           "    total = 0.0\n"
           "    for x, y in pois:\n"
           "        if point_segment_distance(x, y, *seg) <= eps:\n"
           "            total += 1.0\n"
           "    return total\n")
    findings = lint_source(src, relpath=relpath)
    assert rules_of(findings) == ["REP-P405"]
    assert "point_segment_distance" in findings[0].message


@pytest.mark.parametrize("relpath", [
    "repro/core/interest.py", "repro/core/soi.py",
    "repro/core/soi_baseline.py"])
def test_p405_fixed_slot_mass_pass_is_silent(relpath):
    # The fix: one row-wise kernel call over every (slot, POI) row, then
    # loops that only read the materialised masses.
    src = ("from repro.geometry.distance import points_segments_within\n"
           "def materialise(px, py, ax, ay, bx, by, eps):\n"
           "    return points_segments_within(\n"
           "        px, py, ax, ay, bx, by, eps)\n"
           "def visit(slots, mass):\n"
           "    total = 0.0\n"
           "    for slot in slots:\n"
           "        total += mass[slot]\n"
           "    return total\n")
    assert lint_source(src, relpath=relpath) == []


def test_p405_unchecked_dirs_and_suppression():
    src = ("from repro.geometry.distance import point_segment_distance\n"
           "def f(pois, seg):\n"
           "    for p in pois:\n"
           "        use(point_segment_distance(p.x, p.y, *seg))\n")
    # Outside geometry-checked-dirs/files the scalar loop is fine (eval
    # code paths are not the vectorised cold path).
    assert lint_source(src, relpath="repro/eval/x.py") == []
    suppressed = (
        "from repro.geometry.distance import point_segment_distance\n"
        "def f(pois, seg):\n"
        "    for p in pois:\n"
        "        use(point_segment_distance(p.x, p.y, *seg))  "
        "# repro-lint: disable=REP-P405 (scalar reference for REPRO_CHECK)\n")
    assert lint_source(suppressed, relpath="repro/index/x.py") == []


def test_p403_flags_module_level_empty_containers():
    src = ("from collections import OrderedDict, defaultdict\n"
           "_SL2_CACHE = {}\n"
           "_RESULTS: list = []\n"
           "_SEEN = set()\n"
           "_BY_CELL = defaultdict(list)\n"
           "_LRU = OrderedDict()\n")
    findings = lint_source(src, relpath="repro/serve/x.py")
    assert rules_of(findings).count("REP-P403") == 5
    # _SL2_CACHE and _LRU are additionally cache-named with no eviction
    # bound, so the unbounded-cache rule stacks on top.
    assert rules_of(findings).count("REP-P406") == 2
    assert "_SL2_CACHE" in findings[0].message


def test_p403_flags_module_level_lru_cache():
    src = ("import functools\n"
           "from functools import cache\n"
           "@functools.lru_cache(maxsize=64)\n"
           "def profile(street_id):\n"
           "    return street_id\n"
           "@cache\n"
           "def vocab():\n"
           "    return ()\n")
    findings = lint_source(src, relpath="repro/index/x.py")
    assert rules_of(findings) == ["REP-P403", "REP-P403"]


def test_p403_accepts_constants_locals_and_class_state():
    src = ("TABLE = {'a': 1}\n"  # populated: a constant table, not a cache
           "NAMES = ['x', 'y']\n"
           "__all__ = []\n"  # dunder metadata, not runtime state
           "def f():\n"
           "    local_cache = {}\n"  # per-call: no cross-process hazard
           "    return local_cache\n"
           "class Engine:\n"
           "    def __init__(self):\n"
           "        self._cache = {}\n"  # instance state: the fix P403 asks for
           "    def _trim(self):\n"
           "        self._cache.popitem()\n")  # ...bounded, so P406 is quiet too
    assert lint_source(src, relpath="repro/serve/x.py") == []


def test_p403_only_in_serve_checked_dirs():
    src = "_ENGINES = {}\n"
    assert lint_source(src, relpath="repro/eval/x.py") == []
    assert rules_of(lint_source(src, relpath="repro/perf/x.py")) == [
        "REP-P403"]


def test_p406_flags_unbounded_cache_named_containers():
    # Planted bug, both levels: a module-level memo and (alias-aware) an
    # instance OrderedDict, cache-named, read but never evicted.
    src = ("from collections import OrderedDict as OD\n"
           "_RESULT_MEMO = {}\n"
           "class Server:\n"
           "    def __init__(self):\n"
           "        self._lru = OD()\n"
           "    def get(self, key):\n"
           "        if key not in self._lru:\n"
           "            self._lru[key] = compute(key)\n"
           "        return self._lru[key]\n")
    findings = lint_source(src, relpath="repro/perf/x.py")
    flagged = [f.message for f in findings if f.rule == "REP-P406"]
    assert len(flagged) == 2
    assert any("_RESULT_MEMO" in message for message in flagged)
    assert any("self._lru" in message and "Server" in message
               for message in flagged)


def test_p406_accepts_caches_with_an_eviction_bound():
    # Fixed twin: the same shapes, each with one eviction idiom — LRU
    # popitem, a len() guard refusing inserts, and del on overflow.
    src = ("class Server:\n"
           "    def __init__(self):\n"
           "        self._cache = {}\n"
           "        self._memo = {}\n"
           "        self._lru_keys = {}\n"
           "    def put(self, key, value):\n"
           "        if len(self._memo) >= 64:\n"
           "            return\n"
           "        self._memo[key] = value\n"
           "    def insert(self, key, value, oldest):\n"
           "        self._cache[key] = value\n"
           "        del self._lru_keys[oldest]\n"
           "    def trim(self):\n"
           "        self._cache.popitem()\n")
    assert lint_source(src, relpath="repro/serve/x.py") == []
    # Non-cache-named instance state never triggers the rule.
    plain = ("class Server:\n"
             "    def __init__(self):\n"
             "        self._pending = {}\n")
    assert lint_source(plain, relpath="repro/serve/x.py") == []


def test_p406_only_in_cache_checked_dirs():
    src = ("class Engine:\n"
           "    def __init__(self):\n"
           "        self._interest_memo = {}\n")
    # core/ holds engine-lifetime state invalidated with the engine; only
    # the serve path's long-lived processes are in cache-checked-dirs.
    assert lint_source(src, relpath="repro/core/x.py") == []
    assert rules_of(lint_source(src, relpath="repro/serve/x.py")) == [
        "REP-P406"]
    assert rules_of(lint_source(src, relpath="repro/perf/x.py")) == [
        "REP-P406"]


def test_p406_suppression_requires_a_reason():
    suppressed = (
        "_KIND_CACHE = {}  "
        "# repro-lint: disable=REP-P403,REP-P406 (keys = 3 request kinds)\n")
    assert lint_source(suppressed, relpath="repro/serve/x.py") == []
    bare = ("_KIND_CACHE = {}  "
            "# repro-lint: disable=REP-P403,REP-P406\n")
    findings = lint_source(bare, relpath="repro/serve/x.py")
    # Reason-less suppressions are inert and themselves flagged.
    assert "REP-S001" in rules_of(findings)
    assert "REP-P406" in rules_of(findings)


# -- observability rules ------------------------------------------------------

def test_o501_flags_direct_timer_calls_in_checked_dirs():
    src = ("import time\n"
           "from time import perf_counter\n"
           "def f():\n"
           "    a = time.perf_counter()\n"
           "    b = perf_counter()\n"
           "    c = time.monotonic_ns()\n"
           "    return a, b, c\n")
    findings = lint_source(src, relpath="repro/serve/x.py")
    assert rules_of(findings) == ["REP-O501"] * 3


def test_o501_accepts_obs_clocks_and_unchecked_dirs():
    sanctioned = ("from repro.obs.tracer import perf_now\n"
                  "def f():\n"
                  "    return perf_now()\n")
    assert lint_source(sanctioned, relpath="repro/core/x.py") == []
    # perf/ may keep its own timers: only core/ and serve/ are funnelled.
    direct = "import time\ns = time.perf_counter()\n"
    assert lint_source(direct, relpath="repro/perf/x.py") == []
    assert lint_source(direct, relpath="repro/obs/tracer.py") == []


def test_o502_flags_hand_rolled_counter_dicts():
    src = ("def f(keys):\n"
           "    counts = {}\n"
           "    for key in keys:\n"
           "        counts[key] = counts.get(key, 0) + 1\n"
           "    return counts\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-O502"]
    aug = ("def f(counts, key):\n"
           "    counts[key] += 1\n")
    findings = lint_source(aug, relpath="repro/serve/x.py")
    assert rules_of(findings) == ["REP-O502"]


def test_o502_accepts_non_counter_subscript_writes():
    src = ("def f(out, values, pos, key):\n"
           "    out[pos] = values[pos] + values[key]\n"  # not a .get default
           "    out[pos] += values[key]\n"               # not a constant bump
           "    out[key] = out.get(key, []) + [1]\n"     # list accumulation
           "    return out\n")
    assert lint_source(src, relpath="repro/core/x.py") == []
    # The same counter idioms are fine outside the funnelled packages.
    counter = "def f(c, k):\n    c[k] += 1\n"
    assert lint_source(counter, relpath="repro/eval/x.py") == []


def test_o502_suppression_with_reason_is_honoured():
    src = ("def f(freq, k):\n"
           "    freq[k] += 1  # repro-lint: disable=REP-O502 (state)\n")
    assert lint_source(src, relpath="repro/core/x.py") == []


def test_o503_flags_unregistered_span_name():
    # Planted bug: a typo'd span name ("soi.fliter") would silently vanish
    # from every profile that filters by the registered name.
    src = ("from repro.obs.tracer import trace_span\n"
           "def f():\n"
           "    with trace_span('soi.fliter'):\n"
           "        pass\n")
    findings = lint_source(src, relpath="repro/core/x.py")
    assert rules_of(findings) == ["REP-O503"]
    assert "soi.fliter" in findings[0].message
    # Dynamic names are unbounded cardinality — also flagged.
    dynamic = ("from repro.obs.tracer import trace_span\n"
               "def f(name):\n"
               "    with trace_span('soi.' + name):\n"
               "        pass\n")
    findings = lint_source(dynamic, relpath="repro/serve/x.py")
    assert rules_of(findings) == ["REP-O503"]


def test_o503_fixed_silent_twin():
    # The fixed twin — a registered literal name — is silent, in every
    # checked dir and through either import path.
    for relpath in ("repro/core/x.py", "repro/serve/x.py", "repro/index/x.py"):
        src = ("from repro.obs.tracer import trace_span\n"
               "def f():\n"
               "    with trace_span('soi.filter', k=3):\n"
               "        pass\n")
        assert lint_source(src, relpath=relpath) == []
    via_package = ("from repro.obs import trace_span\n"
                   "def f():\n"
                   "    with trace_span('serve.request'):\n"
                   "        pass\n")
    assert lint_source(via_package, relpath="repro/serve/x.py") == []
    # Outside the span-checked dirs the rule does not apply (eval/ may
    # trace ad-hoc), and decorator usage is checked like the CM form.
    unchecked = ("from repro.obs.tracer import trace_span\n"
                 "def f():\n"
                 "    with trace_span('anything.goes'):\n"
                 "        pass\n")
    assert lint_source(unchecked, relpath="repro/eval/x.py") == []
    decorator = ("from repro.obs.tracer import trace_span\n"
                 "@trace_span('not.registered')\n"
                 "def f():\n"
                 "    pass\n")
    findings = lint_source(decorator, relpath="repro/index/x.py")
    assert rules_of(findings) == ["REP-O503"]


# -- REP-C602: snapshot view mutation -----------------------------------------

def test_c602_fires_on_view_write_and_writeable_flip():
    src = ("def attach(snapshot):\n"
           "    arr = snapshot.array('mass')\n"
           "    arr[0] = 1.0\n"
           "    arr.flags.writeable = True\n")
    findings = lint_source(src, relpath="repro/serve/views.py")
    assert rules_of(findings) == ["REP-C602", "REP-C602"]


def test_c602_fires_on_array_mutator_via_annotation():
    src = ("from repro.serve.snapshot import IndexSnapshot\n"
           "def attach(s: IndexSnapshot):\n"
           "    view = s.array('mass')\n"
           "    view.fill(0.0)\n"
           "class Holder:\n"
           "    def __init__(self, s: 'IndexSnapshot'):\n"
           "        self.owner = s\n"
           "    def reset(self):\n"
           "        mass = self.owner.array('mass')\n"
           "        mass[:] = 0.0\n")
    findings = lint_source(src, relpath="repro/serve/views.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("REP-C602", 4), ("REP-C602", 10)]


def test_c602_silent_on_reads_and_readonly_marking():
    src = ("def attach(snapshot, table):\n"
           "    arr = snapshot.array('mass')\n"
           "    arr.flags.writeable = False\n"
           "    other = table.array('mass')\n"
           "    other[0] = 1.0\n"
           "    return arr[0]\n")
    assert lint_source(src, relpath="repro/serve/views.py") == []


# -- REP-C603: lock-guard discipline ------------------------------------------

_LOCKED_CLASS = (
    "import threading\n"
    "class Ring:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._items = []\n"
    "    def push(self, item):\n"
    "        with self._lock:\n"
    "            self._items.append(item)\n"
)


def test_c603_fires_on_unlocked_access():
    findings = lint_source(_LOCKED_CLASS + (
        "    def __len__(self):\n"
        "        return len(self._items)\n"), relpath="repro/obs/ring.py")
    assert rules_of(findings) == ["REP-C603"]
    assert "Ring._items" in findings[0].message


def test_c603_silent_when_access_is_locked_or_in_init():
    src = _LOCKED_CLASS + ("    def __len__(self):\n"
                           "        with self._lock:\n"
                           "            return len(self._items)\n")
    assert lint_source(src, relpath="repro/obs/ring.py") == []


def test_c603_ignores_classes_without_locks():
    src = ("class Log:\n"
           "    def __init__(self):\n"
           "        self._items = []\n"
           "    def push(self, item):\n"
           "        self._items.append(item)\n")
    assert lint_source(src, relpath="repro/obs/plain.py") == []


def test_c603_honours_inline_suppressions():
    src = _LOCKED_CLASS + (
        "    def __len__(self):\n"
        "        return len(self._items)"
        "  # repro-lint: disable=REP-C603 (benchmarked lock-free read)\n")
    assert lint_source(src, relpath="repro/obs/ring.py") == []


# -- REP-F702: environment reads -----------------------------------------------

def test_f702_fires_on_env_reads_in_hot_path():
    src = ("import os\n"
           "from os import environ\n"
           "class SOIEngine:\n"
           "    def top_k(self, q):\n"
           "        a = os.getenv('REPRO_MODE')\n"
           "        b = os.environ['HOME']\n"
           "        c = environ.get('USER')\n"
           "        return (a, b, c)\n")
    findings = lint_source(src, relpath="repro/core/soi.py")
    assert rules_of(findings) == ["REP-F702"] * 3


def test_f702_silent_off_the_hot_path():
    src = ("import os\n"
           "ENABLED = os.environ.get('REPRO_TRACE') == '1'\n")
    # Start-up configuration outside the serving workers' import closure.
    assert lint_source(src, relpath="repro/obs/tracer.py") == []
    assert lint_source(src, relpath="repro/analysis/contracts.py") == []
    assert rules_of(lint_source(src, relpath="repro/data/x.py")) == [
        "REP-F702"]


# -- REP-R802: unclosed handles ------------------------------------------------

def test_r802_fires_on_unmanaged_open():
    src = ("def dump(path, rows):\n"
           "    f = open(path, 'w')\n"
           "    f.write(str(rows))\n")
    # R802 is not confined to the package: bench and test handles leak too.
    findings = lint_source(src, relpath="benchmarks/out.py")
    assert rules_of(findings) == ["REP-R802"]


def test_r802_fires_on_open_without_binding():
    src = ("def slurp(path):\n"
           "    return open(path).read()\n"
           "HEADER = open('header.txt').read()\n")
    findings = lint_source(src, relpath="tests/out.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("REP-R802", 2), ("REP-R802", 3)]


def test_r802_silent_with_with_or_close():
    src = ("def dump(path, rows):\n"
           "    with open(path, 'w') as f:\n"
           "        f.write(str(rows))\n"
           "def dump2(path, rows):\n"
           "    f = open(path, 'w')\n"
           "    try:\n"
           "        f.write(str(rows))\n"
           "    finally:\n"
           "        f.close()\n"
           "class Log:\n"
           "    def __init__(self, path):\n"
           "        self._f = open(path, 'a')\n")
    assert lint_source(src, relpath="benchmarks/out.py") == []


# -- suppressions, parse errors ------------------------------------------------

def test_suppression_with_reason_silences_finding():
    src = ("def f(x):\n"
           "    if x == 0.5:  # repro-lint: disable=REP-N201 (exact "
           "sentinel: test)\n"
           "        return 1\n"
           "    return 0\n")
    assert lint_source(src, relpath="repro/eval/x.py") == []


def test_suppression_without_reason_is_inactive_and_flagged():
    src = ("def f(x):\n"
           "    if x == 0.5:  # repro-lint: disable=REP-N201\n"
           "        return 1\n"
           "    return 0\n")
    findings = lint_source(src, relpath="repro/eval/x.py")
    assert sorted(rules_of(findings)) == ["REP-N201", "REP-S001"]


def test_in_package_classification():
    """Package-only rules check files under a ``repro`` directory only."""
    src = "def f(a, b):\n    return a / b\n"
    assert rules_of(lint_source(src, relpath="src/repro/core/soi.py")) == [
        "REP-N202"]
    assert lint_source(src, relpath="tests/test_x.py") == []
    assert lint_source(src, relpath="benchmarks/bench_a.py") == []


def test_parse_error_yields_single_e000():
    findings = lint_source("def broken(:\n", relpath="repro/eval/x.py")
    assert rules_of(findings) == ["REP-E000"]


# -- reporters and CLI --------------------------------------------------------

def test_reporters_shape():
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py")
    result = LintResult(findings=findings, files_checked=1)
    text = render_text(result)
    assert "REP-N202" in text and "hint:" in text
    payload = json.loads(render_json(result))
    assert payload["summary"] == {
        "count": 1, "files_checked": 1, "clean": False}
    assert payload["findings"][0]["rule"] == "REP-N202"
    assert payload["findings"][0]["line"] == 2


def test_cli_lint_clean_repo_exits_zero(capsys):
    assert repro.cli.main(["lint", str(SRC)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_lint_finding_exits_one(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(a, b):\n    return a / b\n", encoding="utf-8")
    assert repro.cli.main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["count"] == 1


def test_cli_lint_missing_path_exits_two(tmp_path, capsys):
    assert repro.cli.main(["lint", str(tmp_path / "nowhere")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert repro.cli.main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == [rule.id for rule in default_rules()]
    assert sorted(listed) == [
        "REP-C602", "REP-C603",
        "REP-D101", "REP-D102", "REP-D103",
        "REP-F702",
        "REP-H301", "REP-H302", "REP-H303",
        "REP-N201", "REP-N202", "REP-N203",
        "REP-O501", "REP-O502", "REP-O503",
        "REP-P401", "REP-P402", "REP-P403", "REP-P404", "REP-P405",
        "REP-P406",
        "REP-R802"]


def test_cli_lint_help_shows_only_paths_format_and_list_rules(capsys):
    with pytest.raises(SystemExit):
        repro.cli.main(["lint", "--help"])
    out = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {
        "--format", "--help", "--list-rules"}
    assert "paths" in out.splitlines()[0]


# -- reporter golden output ----------------------------------------------------

def test_render_text_golden():
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py")
    result = LintResult(findings=findings, files_checked=3)
    assert render_text(result).splitlines() == [
        "repro/core/x.py:2:12: REP-N202 [error] division by 'b' has no "
        "visible zero-guard in the enclosing scope",
        f"    hint: {findings[0].hint}",
        "1 finding (3 files checked)",
    ]


def test_render_text_clean_golden():
    text = render_text(LintResult(files_checked=7))
    assert text == "0 findings (7 files checked)"


def test_render_json_golden():
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py")
    payload = json.loads(render_json(LintResult(findings=findings,
                                                files_checked=1)))
    assert set(payload) == {"findings", "summary"}
    (entry,) = payload["findings"]
    assert set(entry) == {"rule", "severity", "path", "line", "col",
                          "message", "hint"}
    assert entry["rule"] == "REP-N202"
    assert entry["path"] == "repro/core/x.py"
    assert entry["line"] == 2 and entry["col"] == 12
    assert entry["severity"] == "error"
    assert payload["summary"] == {
        "count": 1, "files_checked": 1, "clean": False}
