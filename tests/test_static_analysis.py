"""The lint gate and unit tests for the custom AST rules.

``test_repo_is_lint_clean`` is the tier-1 gate: it runs the full linter
over ``src/repro`` in-process with the committed configuration and
baseline, and fails on any non-baselined finding.  The remaining tests
exercise each rule against crafted sources through :func:`lint_source`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.cli
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.config import LintConfig
from repro.analysis.engine import LintResult, lint_paths, lint_source
from repro.analysis.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

CONFIG = LintConfig.discover(REPO_ROOT)


def rules_of(findings):
    return [f.rule for f in findings]


# -- the gate -----------------------------------------------------------------

def test_repo_is_lint_clean():
    result = lint_paths([SRC], config=CONFIG)
    details = "\n".join(f.format_text() for f in result.findings)
    assert result.clean, f"lint findings in src/repro:\n{details}"
    assert result.files_checked > 50


def test_full_tree_is_lint_clean_with_cross_module_pass():
    """src + tests + benchmarks, interprocedural rules on — zero findings."""
    result = lint_paths(
        [SRC, REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        config=CONFIG, cross_module=True)
    details = "\n".join(f.format_text() for f in result.findings)
    assert result.clean, f"lint findings in full tree:\n{details}"
    # Zero C6/F7/R8 findings may be absorbed by the baseline either.
    assert result.baselined == 0
    assert result.files_checked > 100


def test_committed_baseline_is_empty():
    baseline = load_baseline(CONFIG.baseline_path())
    assert sum(baseline.values()) == 0


# -- determinism rules --------------------------------------------------------

def test_d101_flags_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-D101"]


def test_d101_accepts_seeded_and_datagen():
    seeded = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert lint_source(seeded, relpath="repro/core/x.py",
                       config=CONFIG) == []
    unseeded = "import numpy as np\nrng = np.random.default_rng()\n"
    assert lint_source(unseeded, relpath="repro/datagen/x.py",
                       config=CONFIG) == []


def test_d101_flags_legacy_global_and_stdlib_random():
    src = ("import random\nimport numpy as np\n"
           "a = np.random.rand(3)\n"
           "b = random.random()\n")
    findings = lint_source(src, relpath="repro/eval/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-D101", "REP-D101"]


def test_d102_flags_set_into_ordered_sinks():
    src = ("def f(xs):\n"
           "    out = []\n"
           "    for x in set(xs):\n"
           "        out.append(x)\n"
           "    ys = [y for y in {1, 2, 3}]\n"
           "    zs = list(frozenset(xs))\n"
           "    return out, ys, zs\n")
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-D102"] * 3


def test_d102_accepts_sorted_sets_and_membership():
    src = ("def f(xs):\n"
           "    ordered = sorted(set(xs))\n"
           "    total = sum(1 for x in xs if x in {1, 2})\n"
           "    return ordered, total\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_d103_wall_clock_only_in_checked_dirs():
    src = "import time\nstamp = time.time()\n"
    # In core/ a wall-clock read breaks determinism (D103) *and* bypasses
    # the repro.obs clock funnel (O501) — both rules report it.
    assert rules_of(lint_source(src, relpath="repro/core/x.py",
                                config=CONFIG)) == ["REP-D103", "REP-O501"]
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []
    timer = "import time\nt0 = time.perf_counter()\n"
    assert rules_of(lint_source(timer, relpath="repro/index/x.py",
                                config=CONFIG)) == []  # D103 allows timers
    assert rules_of(lint_source(timer, relpath="repro/core/x.py",
                                config=CONFIG)) == ["REP-O501"]


# -- numeric rules ------------------------------------------------------------

def test_n201_flags_float_equality_both_sides():
    src = ("def f(x):\n"
           "    if x == 0.5:\n"
           "        return 1\n"
           "    return -1.0 != x\n")
    findings = lint_source(src, relpath="repro/eval/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-N201", "REP-N201"]


def test_n201_accepts_int_equality_and_inequalities():
    src = ("def f(x, n):\n"
           "    if n == 0:\n"
           "        return 0\n"
           "    if x <= 0.0:\n"
           "        return 1\n"
           "    return x\n")
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []


def test_n202_flags_unguarded_division_in_checked_dirs():
    src = "def f(a, b):\n    return a / b\n"
    assert rules_of(lint_source(src, relpath="repro/core/x.py",
                                config=CONFIG)) == ["REP-N202"]
    # Same code outside core/geometry is not checked.
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []


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
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_n203_math_domain():
    src = ("import math\n"
           "def f(x, t):\n"
           "    return math.sqrt(x) + math.acos(t)\n")
    findings = lint_source(src, relpath="repro/geometry/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-N203", "REP-N203"]
    safe = ("import math\n"
            "def f(dx, dy, t):\n"
            "    a = math.sqrt(dx * dx + dy * dy)\n"
            "    b = math.sqrt(max(0.0, t))\n"
            "    c = math.acos(min(1.0, max(-1.0, t)))\n"
            "    return a + b + c\n")
    assert lint_source(safe, relpath="repro/geometry/x.py",
                       config=CONFIG) == []


# -- hygiene rules ------------------------------------------------------------

def test_h301_mutable_default():
    src = "def f(items=[], table={}):\n    return items, table\n"
    findings = lint_source(src, relpath="repro/eval/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-H301", "REP-H301"]
    ok = "def f(items=None):\n    return list(items or [])\n"
    assert lint_source(ok, relpath="repro/eval/x.py", config=CONFIG) == []


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
    findings = lint_source(src, relpath="repro/eval/x.py", config=CONFIG)
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
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []


def test_h303_all_drift_both_directions():
    src = ("from repro.core.soi import SOIEngine\n"
           "__all__ = ['Ghost']\n")
    findings = lint_source(src, relpath="repro/sub/__init__.py",
                           config=CONFIG)
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
    assert lint_source(src, relpath="repro/sub/__init__.py",
                       config=CONFIG) == []


def test_h303_only_applies_to_package_inits():
    src = "from repro.core.soi import SOIEngine\n__all__ = ['Ghost']\n"
    assert lint_source(src, relpath="repro/sub/module.py",
                       config=CONFIG) == []


# -- performance rules --------------------------------------------------------

def test_p401_flags_sorted_in_loop_body():
    src = ("def f(items, groups):\n"
           "    out = []\n"
           "    for group in groups:\n"
           "        for x in sorted(items):\n"
           "            out.append((group, x))\n"
           "    return out\n")
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-P401"]
    assert "loop at line 3" in findings[0].message


def test_p401_accepts_loop_header_and_hoisted_sorts():
    src = ("def f(items, groups):\n"
           "    ordered = sorted(items)\n"
           "    for x in sorted(groups):\n"
           "        use(x, ordered)\n"
           "    while sorted(items) != items:\n"
           "        items = step(items)\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_p401_stops_at_function_boundaries():
    src = ("def f(groups):\n"
           "    for group in groups:\n"
           "        def key(item):\n"
           "            return sorted(item.tags)\n"
           "        use(group, key)\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_p401_only_in_perf_checked_dirs():
    src = ("def f(items, groups):\n"
           "    for group in groups:\n"
           "        use(sorted(items))\n")
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []


def test_p402_flags_list_membership_in_loop():
    src = ("def f(items):\n"
           "    wanted = [1, 2, 3]\n"
           "    for x in items:\n"
           "        if x in wanted:\n"
           "            use(x)\n"
           "        if x not in list(items):\n"
           "            use(x)\n")
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-P402", "REP-P402"]


def test_p402_accepts_sets_dicts_and_untraceable_names():
    src = ("def f(items, wanted):\n"
           "    seen = {1, 2, 3}\n"
           "    for x in items:\n"
           "        if x in seen:\n"
           "            use(x)\n"
           "        if x in wanted:\n"  # parameter: untraceable, silent
           "            use(x)\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_p402_conservative_on_reassigned_names():
    src = ("def f(items):\n"
           "    wanted = [1, 2]\n"
           "    wanted = frozenset(wanted)\n"
           "    for x in items:\n"
           "        if x in wanted:\n"
           "            use(x)\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_p402_membership_outside_loop_is_fine():
    src = ("def f(x):\n"
           "    wanted = [1, 2, 3]\n"
           "    return x in wanted\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_p404_flags_nlargest_in_loop_body():
    src = ("import heapq\n"
           "def lbk(groups, k):\n"
           "    for values in groups:\n"
           "        top = heapq.nlargest(k, values)\n"
           "        use(top)\n")
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
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
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
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
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_p404_stops_at_function_boundaries_and_checked_dirs():
    nested = ("import heapq\n"
              "def f(groups, k):\n"
              "    for group in groups:\n"
              "        def summarise(values):\n"
              "            return heapq.nlargest(k, values)\n"
              "        use(group, summarise)\n")
    assert lint_source(nested, relpath="repro/core/x.py", config=CONFIG) == []
    unchecked = ("import heapq\n"
                 "def f(groups, k):\n"
                 "    for values in groups:\n"
                 "        use(heapq.nlargest(k, values))\n")
    assert lint_source(unchecked, relpath="repro/eval/x.py",
                       config=CONFIG) == []


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
    findings = lint_source(src, relpath="repro/index/x.py", config=CONFIG)
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
    findings = lint_source(src, relpath="repro/core/state_store.py",
                           config=CONFIG)
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
    assert lint_source(src, relpath="repro/index/x.py", config=CONFIG) == []


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
    findings = lint_source(src, relpath=relpath, config=CONFIG)
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
    assert lint_source(src, relpath=relpath, config=CONFIG) == []


def test_p405_unchecked_dirs_and_suppression():
    src = ("from repro.geometry.distance import point_segment_distance\n"
           "def f(pois, seg):\n"
           "    for p in pois:\n"
           "        use(point_segment_distance(p.x, p.y, *seg))\n")
    # Outside geometry-checked-dirs/files the scalar loop is fine (eval
    # code paths are not the vectorised cold path).
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []
    suppressed = (
        "from repro.geometry.distance import point_segment_distance\n"
        "def f(pois, seg):\n"
        "    for p in pois:\n"
        "        use(point_segment_distance(p.x, p.y, *seg))  "
        "# repro-lint: disable=REP-P405 (scalar reference for REPRO_CHECK)\n")
    assert lint_source(suppressed, relpath="repro/index/x.py",
                       config=CONFIG) == []


def test_p403_flags_module_level_empty_containers():
    src = ("from collections import OrderedDict, defaultdict\n"
           "_SL2_CACHE = {}\n"
           "_RESULTS: list = []\n"
           "_SEEN = set()\n"
           "_BY_CELL = defaultdict(list)\n"
           "_LRU = OrderedDict()\n")
    findings = lint_source(src, relpath="repro/serve/x.py", config=CONFIG)
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
    findings = lint_source(src, relpath="repro/index/x.py", config=CONFIG)
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
    assert lint_source(src, relpath="repro/serve/x.py", config=CONFIG) == []


def test_p403_only_in_serve_checked_dirs():
    src = "_ENGINES = {}\n"
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []
    assert rules_of(lint_source(src, relpath="repro/perf/x.py",
                                config=CONFIG)) == ["REP-P403"]


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
    findings = lint_source(src, relpath="repro/perf/x.py", config=CONFIG)
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
    assert lint_source(src, relpath="repro/serve/x.py", config=CONFIG) == []
    # Non-cache-named instance state never triggers the rule.
    plain = ("class Server:\n"
             "    def __init__(self):\n"
             "        self._pending = {}\n")
    assert lint_source(plain, relpath="repro/serve/x.py", config=CONFIG) == []


def test_p406_only_in_cache_checked_dirs():
    src = ("class Engine:\n"
           "    def __init__(self):\n"
           "        self._interest_memo = {}\n")
    # core/ holds engine-lifetime state invalidated with the engine; only
    # the serve path's long-lived processes are in cache-checked-dirs.
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []
    assert rules_of(lint_source(src, relpath="repro/serve/x.py",
                                config=CONFIG)) == ["REP-P406"]
    assert rules_of(lint_source(src, relpath="repro/perf/x.py",
                                config=CONFIG)) == ["REP-P406"]


def test_p406_suppression_requires_a_reason():
    suppressed = (
        "_KIND_CACHE = {}  "
        "# repro-lint: disable=REP-P403,REP-P406 (keys = 3 request kinds)\n")
    assert lint_source(suppressed, relpath="repro/serve/x.py",
                       config=CONFIG) == []
    bare = ("_KIND_CACHE = {}  "
            "# repro-lint: disable=REP-P403,REP-P406\n")
    findings = lint_source(bare, relpath="repro/serve/x.py", config=CONFIG)
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
    findings = lint_source(src, relpath="repro/serve/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-O501"] * 3


def test_o501_accepts_obs_clocks_and_unchecked_dirs():
    sanctioned = ("from repro.obs.tracer import perf_now\n"
                  "def f():\n"
                  "    return perf_now()\n")
    assert lint_source(sanctioned, relpath="repro/core/x.py",
                       config=CONFIG) == []
    # perf/ may keep its own timers: only core/ and serve/ are funnelled.
    direct = "import time\ns = time.perf_counter()\n"
    assert lint_source(direct, relpath="repro/perf/x.py",
                       config=CONFIG) == []
    assert lint_source(direct, relpath="repro/obs/tracer.py",
                       config=CONFIG) == []


def test_o502_flags_hand_rolled_counter_dicts():
    src = ("def f(keys):\n"
           "    counts = {}\n"
           "    for key in keys:\n"
           "        counts[key] = counts.get(key, 0) + 1\n"
           "    return counts\n")
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-O502"]
    aug = ("def f(counts, key):\n"
           "    counts[key] += 1\n")
    findings = lint_source(aug, relpath="repro/serve/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-O502"]


def test_o502_accepts_non_counter_subscript_writes():
    src = ("def f(out, values, pos, key):\n"
           "    out[pos] = values[pos] + values[key]\n"  # not a .get default
           "    out[pos] += values[key]\n"               # not a constant bump
           "    out[key] = out.get(key, []) + [1]\n"     # list accumulation
           "    return out\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []
    # The same counter idioms are fine outside the funnelled packages.
    counter = "def f(c, k):\n    c[k] += 1\n"
    assert lint_source(counter, relpath="repro/eval/x.py",
                       config=CONFIG) == []


def test_o502_suppression_with_reason_is_honoured():
    src = ("def f(freq, k):\n"
           "    freq[k] += 1  # repro-lint: disable=REP-O502 (state)\n")
    assert lint_source(src, relpath="repro/core/x.py", config=CONFIG) == []


def test_o503_flags_unregistered_span_name():
    # Planted bug: a typo'd span name ("soi.fliter") would silently vanish
    # from every profile that filters by the registered name.
    src = ("from repro.obs.tracer import trace_span\n"
           "def f():\n"
           "    with trace_span('soi.fliter'):\n"
           "        pass\n")
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-O503"]
    assert "soi.fliter" in findings[0].message
    # Dynamic names are unbounded cardinality — also flagged.
    dynamic = ("from repro.obs.tracer import trace_span\n"
               "def f(name):\n"
               "    with trace_span('soi.' + name):\n"
               "        pass\n")
    findings = lint_source(dynamic, relpath="repro/serve/x.py", config=CONFIG)
    assert rules_of(findings) == ["REP-O503"]


def test_o503_fixed_silent_twin():
    # The fixed twin — a registered literal name — is silent, in every
    # checked dir and through either import path.
    for relpath in ("repro/core/x.py", "repro/serve/x.py", "repro/index/x.py"):
        src = ("from repro.obs.tracer import trace_span\n"
               "def f():\n"
               "    with trace_span('soi.filter', k=3):\n"
               "        pass\n")
        assert lint_source(src, relpath=relpath, config=CONFIG) == []
    via_package = ("from repro.obs import trace_span\n"
                   "def f():\n"
                   "    with trace_span('serve.request'):\n"
                   "        pass\n")
    assert lint_source(via_package, relpath="repro/serve/x.py",
                       config=CONFIG) == []
    # Outside the span-checked dirs the rule does not apply (eval/ may
    # trace ad-hoc), and decorator usage is checked like the CM form.
    unchecked = ("from repro.obs.tracer import trace_span\n"
                 "def f():\n"
                 "    with trace_span('anything.goes'):\n"
                 "        pass\n")
    assert lint_source(unchecked, relpath="repro/eval/x.py",
                       config=CONFIG) == []
    decorator = ("from repro.obs.tracer import trace_span\n"
                 "@trace_span('not.registered')\n"
                 "def f():\n"
                 "    pass\n")
    findings = lint_source(decorator, relpath="repro/index/x.py",
                           config=CONFIG)
    assert rules_of(findings) == ["REP-O503"]


# -- suppressions, parse errors, baseline -------------------------------------

def test_suppression_with_reason_silences_finding():
    src = ("def f(x):\n"
           "    if x == 0.5:  # repro-lint: disable=REP-N201 (exact "
           "sentinel: test)\n"
           "        return 1\n"
           "    return 0\n")
    assert lint_source(src, relpath="repro/eval/x.py", config=CONFIG) == []


def test_suppression_without_reason_is_inactive_and_flagged():
    src = ("def f(x):\n"
           "    if x == 0.5:  # repro-lint: disable=REP-N201\n"
           "        return 1\n"
           "    return 0\n")
    findings = lint_source(src, relpath="repro/eval/x.py", config=CONFIG)
    assert sorted(rules_of(findings)) == ["REP-N201", "REP-S001"]


def test_parse_error_yields_single_e000():
    findings = lint_source("def broken(:\n", relpath="repro/eval/x.py",
                           config=CONFIG)
    assert rules_of(findings) == ["REP-E000"]


def test_baseline_round_trip(tmp_path):
    src = "def f(a, b):\n    return a / b\n"
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    assert len(findings) == 1
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    kept, matched = apply_baseline(findings, baseline)
    assert kept == [] and matched == 1
    # A different finding is not absorbed by the stale entry.
    other = lint_source("def g(a, c):\n    return a / c\n",
                        relpath="repro/core/x.py", config=CONFIG)
    kept, matched = apply_baseline(other, baseline)
    assert len(kept) == 1 and matched == 0


# -- reporters and CLI --------------------------------------------------------

def test_reporters_shape():
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py", config=CONFIG)
    result = LintResult(findings=findings, files_checked=1)
    text = render_text(result, show_hints=True)
    assert "REP-N202" in text and "hint:" in text
    payload = json.loads(render_json(result))
    assert payload["summary"] == {
        "count": 1, "files_checked": 1, "baselined": 0, "clean": False}
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
    out = capsys.readouterr().out
    for rule_id in ("REP-D101", "REP-D102", "REP-D103", "REP-N201",
                    "REP-N202", "REP-N203", "REP-H301", "REP-H302",
                    "REP-H303",
                    "REP-C601", "REP-C602", "REP-C603",
                    "REP-F701", "REP-F702", "REP-R801", "REP-R802"):
        assert rule_id in out


def test_module_entry_point():
    from repro.analysis.cli import main as analysis_main

    assert analysis_main([str(SRC)]) == 0


# -- reporter golden output ----------------------------------------------------

def test_render_text_golden():
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py", config=CONFIG)
    result = LintResult(findings=findings, files_checked=3, baselined=2)
    text = render_text(result, show_hints=False)
    assert text.splitlines() == [
        "repro/core/x.py:2:12: REP-N202 [error] division by 'b' has no "
        "visible zero-guard in the enclosing scope",
        "1 finding (3 files checked, 2 baselined)",
    ]


def test_render_text_clean_golden():
    text = render_text(LintResult(files_checked=7), show_hints=True)
    assert text == "0 findings (7 files checked)"


def test_render_json_golden():
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py", config=CONFIG)
    payload = json.loads(render_json(LintResult(findings=findings,
                                                files_checked=1)))
    assert set(payload) == {"findings", "summary"}
    (entry,) = payload["findings"]
    assert entry["rule"] == "REP-N202"
    assert entry["path"] == "repro/core/x.py"
    assert entry["line"] == 2 and entry["col"] == 12
    assert entry["severity"] == "error"
    assert entry["fingerprint"] and len(entry["fingerprint"]) == 16
    assert payload["summary"] == {
        "count": 1, "files_checked": 1, "baselined": 0, "clean": False}


# -- baseline edge cases -------------------------------------------------------

def test_empty_baseline_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(path, [])
    baseline = load_baseline(path)
    assert sum(baseline.values()) == 0
    findings = lint_source("def f(a, b):\n    return a / b\n",
                           relpath="repro/core/x.py", config=CONFIG)
    kept, matched = apply_baseline(findings, baseline)
    assert len(kept) == 1 and matched == 0


def test_stale_fingerprint_no_longer_matches(tmp_path):
    src = "def f(a, b):\n    return a / b\n"
    findings = lint_source(src, relpath="repro/core/x.py", config=CONFIG)
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    # The offending line changed: same rule+path, new fingerprint.
    edited = lint_source("def f(a, bb):\n    return a / bb\n",
                         relpath="repro/core/x.py", config=CONFIG)
    kept, matched = apply_baseline(edited, load_baseline(path))
    assert len(kept) == 1 and matched == 0


def test_unknown_baseline_schema_rejected(tmp_path):
    from repro.analysis.baseline import BaselineFormatError

    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}),
                    encoding="utf-8")
    with pytest.raises(BaselineFormatError, match="unknown schema"):
        load_baseline(path)
    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(BaselineFormatError, match="not a JSON object"):
        load_baseline(path)


def test_cli_rejects_unknown_baseline_schema(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(a, b):\n    return a / b\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"version": 99, "findings": []}),
                        encoding="utf-8")
    assert repro.cli.main(["lint", str(bad),
                           "--baseline", str(baseline)]) == 2
    assert "unknown schema" in capsys.readouterr().err


# -- cross-module CLI: --changed / --graph / --no-cross-module ----------------

def test_cli_changed_scopes_reporting_to_git_diff(tmp_path, capsys):
    import subprocess

    root = tmp_path / "proj"
    (root / "repro" / "core").mkdir(parents=True)
    (root / "pyproject.toml").write_text("[tool.repro.lint]\n",
                                         encoding="utf-8")
    clean = root / "repro" / "core" / "clean.py"
    clean.write_text("def g(a, b):\n    return a / b\n", encoding="utf-8")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    "add", "-A"], cwd=root, check=True)
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    "commit", "-q", "-m", "init"], cwd=root, check=True)
    # A second offending file, not yet committed: only it is reported.
    touched = root / "repro" / "core" / "touched.py"
    touched.write_text("def h(a, b):\n    return a / b\n", encoding="utf-8")
    assert repro.cli.main(["lint", str(root / "repro"),
                           "--changed", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["count"] == 1
    assert payload["findings"][0]["path"].endswith("touched.py")


def test_cli_changed_without_git_repo_exits_two(tmp_path, capsys):
    target = tmp_path / "repro" / "core"
    target.mkdir(parents=True)
    (target / "x.py").write_text("X = 1\n", encoding="utf-8")
    assert repro.cli.main(["lint", str(target), "--changed"]) == 2
    assert "--changed needs a git work tree" in capsys.readouterr().err


def test_cli_graph_dump(capsys):
    assert repro.cli.main(["lint", str(SRC), "--graph"]) == 0
    out = capsys.readouterr().out
    assert "functions:" in out and "edges:" in out
    assert "entrypoint reachability:" in out
    assert "repro.serve.server.serve_request" in out
    assert "MISSING" not in out


def test_cli_no_cross_module_skips_project_rules(tmp_path, capsys):
    bad = tmp_path / "repro" / "serve" / "server.py"
    bad.parent.mkdir(parents=True)
    # Non-empty literal: stays below REP-P403's radar so only the
    # cross-module rule distinguishes the two runs.
    bad.write_text("CACHE = {'seed': 1}\n"
                   "def _worker_main(task):\n"
                   "    CACHE[task] = 1\n", encoding="utf-8")
    assert repro.cli.main(["lint", str(bad.parent)]) == 1
    assert "REP-C601" in capsys.readouterr().out
    assert repro.cli.main(["lint", str(bad.parent),
                           "--no-cross-module"]) == 0
