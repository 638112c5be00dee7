"""Linter configuration, loadable from ``[tool.repro.lint]`` in pyproject.toml.

Every knob has a default matching this repository's layout, so the linter
works with no configuration at all; the pyproject table exists to make the
policy explicit and editable without touching the rule code.  TOML keys may
use either hyphens or underscores (``assume-positive`` / ``assume_positive``).

Python 3.11+ ships :mod:`tomllib`; on 3.10 the ``tomli`` backport is used
when available, otherwise the defaults apply silently (the linter must not
require dependencies the runtime lacks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - 3.10 fallback path
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None

DEFAULT_BASELINE = ".repro-lint-baseline.json"


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Repo-wide lint policy.

    Directory names are package-relative: ``"core"`` means
    ``repro/core/**`` wherever the ``repro`` package lives.
    """

    baseline: str = DEFAULT_BASELINE
    rng_allowed_dirs: tuple[str, ...] = ("datagen",)
    wallclock_checked_dirs: tuple[str, ...] = ("core", "index")
    division_checked_dirs: tuple[str, ...] = ("core", "geometry")
    perf_checked_dirs: tuple[str, ...] = ("core",)
    # The import closure of a serving worker process (repro.serve.server
    # and everything it pulls in): module-level mutable caches there are
    # fork/spawn hazards (REP-P403) because each worker fills its own
    # silently diverging copy.
    serve_checked_dirs: tuple[str, ...] = (
        "core", "data", "geometry", "index", "network", "perf", "serve")
    # Packages whose timing/telemetry must flow through repro.obs
    # (REP-O501/O502); repro.obs itself is exempt by construction.
    obs_checked_dirs: tuple[str, ...] = ("core", "serve")
    # Packages whose trace_span names must come from the central
    # span-name registry (repro.obs.tracer.SPAN_NAMES) — REP-O503 keeps
    # span cardinality bounded and names typo-free.
    span_checked_dirs: tuple[str, ...] = ("core", "serve", "index")
    # Where scalar geometry kernels in loop bodies are a perf hazard
    # (REP-P405): the vectorised cold-path builders under index/, the
    # store-layout pass, and the slot-mass pass with the SOI and BL runs
    # that read it.  ``geometry_checked_files`` lists individual
    # package-relative files outside those directories.
    geometry_checked_dirs: tuple[str, ...] = ("index",)
    geometry_checked_files: tuple[str, ...] = (
        "core/state_store.py", "core/interest.py", "core/soi.py",
        "core/soi_baseline.py")
    # Where unbounded cache-named containers are a memory hazard
    # (REP-P406): the serve path holds caches for the lifetime of a
    # worker process, so any dict/OrderedDict named like a cache needs an
    # eviction bound (pop/popitem/clear/del or a len() guard).
    cache_checked_dirs: tuple[str, ...] = ("perf", "serve")
    assume_positive: tuple[str, ...] = ("buffer_area", "buffer_col", "max_d")
    deprecated_names: dict[str, str] = field(
        default_factory=lambda: {"IndexError_": "GridIndexError"})
    disabled_rules: tuple[str, ...] = ()
    # -- cross-module pass (REP-C6xx / F7xx / R8xx) -----------------------
    cross_module: bool = True
    # Functions executed inside (or on behalf of) serving workers: the
    # REP-C601 fork-safety walk starts here.
    worker_entrypoints: tuple[str, ...] = (
        "repro.serve.server._worker_main",
        "repro.serve.server.serve_request",
    )
    # The paper's exact-result hot paths: REP-F701/F702 flag any
    # nondeterminism transitively reachable from these.
    flow_entrypoints: tuple[str, ...] = (
        "repro.core.soi.SOIEngine.top_k",
        "repro.core.soi.SOIEngine.top_k_with_stats",
        "repro.core.describe.greedy.GreedyDescriber.select",
        "repro.core.describe.greedy.GreedyDescriber.select_with_stats",
        "repro.core.describe.st_rel_div.STRelDivDescriber.select",
        "repro.core.describe.st_rel_div.STRelDivDescriber.select_with_stats",
        "repro.serve.server.serve_request",
    )
    # Module prefixes whose functions the flow rules skip: telemetry is
    # *sanctioned* wall-clock use, datagen is seeded by contract, and the
    # linter itself never runs on the hot path.
    flow_exempt_modules: tuple[str, ...] = (
        "repro.obs", "repro.analysis", "repro.datagen")
    root: Path | None = None

    def baseline_path(self) -> Path:
        path = Path(self.baseline)
        if not path.is_absolute() and self.root is not None:
            path = self.root / path
        return path

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "LintConfig":
        """Config from one pyproject.toml (defaults where keys are absent)."""
        config = cls(root=pyproject.parent)
        if _toml is None or not pyproject.is_file():
            return config
        with pyproject.open("rb") as handle:
            data = _toml.load(handle)
        table = data.get("tool", {}).get("repro", {}).get("lint", {})
        if not isinstance(table, dict):
            return config
        known = {f.name for f in fields(cls)}
        updates = {}
        for raw_key, value in table.items():
            key = raw_key.replace("-", "_")
            if key not in known or key == "root":
                continue
            if isinstance(value, list):
                value = tuple(str(item) for item in value)
            elif isinstance(value, dict):
                value = {str(k): str(v) for k, v in value.items()}
            updates[key] = value
        return replace(config, **updates)

    @classmethod
    def discover(cls, start: Path) -> "LintConfig":
        """Walk upwards from ``start`` looking for a pyproject.toml."""
        current = start.resolve()
        if current.is_file():
            current = current.parent
        for candidate in (current, *current.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls(root=current)
