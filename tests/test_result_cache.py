"""Unit tests for the serve-path result cache (repro.perf.result_cache).

These exercise the cache in isolation with synthetic payloads; the
bit-identity of cached serving against the real engine lives in
``test_serve_cache.py`` and the prefix-stability property behind the
dominated-k reuse in ``test_prefix_stability.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ContractViolation
from repro.analysis import contracts
from repro.obs.metrics import MetricsRegistry
from repro.perf.result_cache import (
    MISS,
    ResultCache,
    estimate_payload_bytes,
    request_cache_key,
    slice_payload,
)
from repro.serve.server import DescribeRequest, SOIRequest


def make_cache(**kwargs) -> ResultCache:
    kwargs.setdefault("registry", MetricsRegistry())
    return ResultCache(**kwargs)


# -- canonical keys -----------------------------------------------------------

def test_soi_key_excludes_k_and_normalises_keywords():
    a = SOIRequest(keywords=("Shop", "food", "shop"), k=10)
    b = SOIRequest(keywords=("food", "shop"), k=100)
    assert request_cache_key(a) == request_cache_key(b)


def test_describe_key_includes_k():
    # MMR selections are k-dependent (Equation 10 normalises diversity by
    # lam/(k-1)), so describe entries may only be reused at the exact k.
    a = DescribeRequest(street_id=3, k=10)
    b = DescribeRequest(street_id=3, k=20)
    assert request_cache_key(a) != request_cache_key(b)
    assert request_cache_key(a) == request_cache_key(
        DescribeRequest(street_id=3, k=10))


def test_key_separates_kinds_and_parameters():
    soi = SOIRequest(keywords=("shop",), k=10)
    keys = {
        request_cache_key(soi),
        request_cache_key(SOIRequest(keywords=("shop",), k=10, eps=0.002)),
        request_cache_key(SOIRequest(keywords=("shop",), k=10, weighted=True)),
        request_cache_key(DescribeRequest(street_id=3, k=10)),
        request_cache_key(DescribeRequest(street_id=4, k=10)),
    }
    assert len(keys) == 5
    assert request_cache_key(soi)[0] == "soi"


# -- hit taxonomy -------------------------------------------------------------

def test_exact_dominated_exhausted_and_miss():
    cache = make_cache()
    key = ("soi", ("shop",), 0.001, False, "alternate")
    assert cache.lookup(key, 5) is MISS

    cache.store(key, 5, ["a", "b", "c", "d", "e"])
    assert cache.lookup(key, 5) == ["a", "b", "c", "d", "e"]  # exact
    assert cache.lookup(key, 2) == ["a", "b"]  # dominated-k slice
    assert cache.lookup(key, 9) is MISS  # deeper than stored, not exhausted

    # Exhausted entry: stored at k=5 but only 3 results existed, so any
    # deeper request sees the same full list.
    short = ("soi", ("rare",), 0.001, False, "alternate")
    cache.store(short, 5, ["x", "y", "z"])
    assert cache.lookup(short, 50) == ["x", "y", "z"]

    stats = cache.stats()
    assert stats["exact_hits"] == 1
    assert stats["dominated_hits"] == 1
    assert stats["exhausted_hits"] == 1
    assert stats["misses"] == 2
    assert stats["hits"] == 3
    assert stats["hit_rate"] == pytest.approx(3 / 5)


def test_complete_entry_answers_every_k():
    cache = make_cache()
    key = ("soi", ("shop",), 0.001, False, "alternate")
    ranking = ["a", "b", "c", "d", "e", "f"]
    cache.store(key, 2, ranking, complete=True)  # run at k=2, ranked all
    assert cache.lookup(key, 1) == ["a"]  # dominated
    assert cache.lookup(key, 2) == ["a", "b"]  # exact, still a slice
    assert cache.lookup(key, 4) == ["a", "b", "c", "d"]  # deeper page
    assert cache.lookup(key, 50) == ranking  # past the end
    stats = cache.stats()
    assert (stats["dominated_hits"], stats["exact_hits"],
            stats["exhausted_hits"], stats["misses"]) == (1, 1, 2, 0)


def test_complete_entry_dominates_every_partial_one():
    cache = make_cache()
    cache.store(("k",), 8, list(range(8)))
    cache.store(("k",), 2, list(range(5)), complete=True)  # replaces
    assert cache.lookup(("k",), 9) == list(range(5))
    cache.store(("k",), 50, list(range(50)))  # cannot beat a complete one
    assert cache.lookup(("k",), 9) == list(range(5))
    assert cache.stats()["insertions"] == 1


def test_lookup_returns_fresh_copies():
    cache = make_cache()
    cache.store(("k",), 2, [1, 2])
    first = cache.lookup(("k",), 2)
    first.append(99)
    assert cache.lookup(("k",), 2) == [1, 2]
    assert slice_payload([1, 2], 2) is not None


def test_store_keeps_the_larger_k_entry():
    cache = make_cache()
    cache.store(("k",), 4, [1, 2, 3, 4])
    cache.store(("k",), 2, [9, 9])  # smaller k: ignored (LRU refresh only)
    assert cache.lookup(("k",), 4) == [1, 2, 3, 4]
    cache.store(("k",), 6, [1, 2, 3, 4, 5, 6])  # larger k: replaces
    assert cache.lookup(("k",), 6) == [1, 2, 3, 4, 5, 6]
    assert cache.stats()["insertions"] == 1  # one signature throughout


# -- bounds -------------------------------------------------------------------

def test_lru_entry_bound_evicts_least_recent():
    cache = make_cache(max_entries=2)
    cache.store(("a",), 1, [1])
    cache.store(("b",), 1, [2])
    assert cache.lookup(("a",), 1) == [1]  # refreshes a
    cache.store(("c",), 1, [3])  # evicts b, the least recent
    assert cache.lookup(("b",), 1) is MISS
    assert cache.lookup(("a",), 1) == [1]
    assert cache.lookup(("c",), 1) == [3]
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1


def test_byte_bound_evicts_but_keeps_at_least_one_entry():
    payload = list(range(64))
    nbytes = estimate_payload_bytes(payload)
    cache = make_cache(max_bytes=int(nbytes * 1.5))
    cache.store(("a",), 64, list(payload))
    cache.store(("b",), 64, list(payload))  # over budget: a evicted
    assert cache.lookup(("a",), 64) is MISS
    assert cache.lookup(("b",), 64) == payload
    # A single entry above the budget is kept: an empty cache that can
    # never admit anything would be worse than a slightly-over one.
    assert len(cache) == 1
    assert cache.nbytes == nbytes


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_cache(max_entries=0)
    with pytest.raises(ValueError):
        make_cache(max_bytes=0)


def test_estimate_payload_bytes_counts_items():
    assert estimate_payload_bytes([]) > 0
    assert estimate_payload_bytes([1, 2, 3]) > estimate_payload_bytes([1])


def test_estimate_payload_bytes_grows_linearly_with_length():
    """Beyond the container itself, every item of a ranking adds the same
    bytes (its street name included), so sizing is O(1) per payload."""
    import sys

    from repro.core.results import SOIResult

    def items_bytes(n: int) -> int:
        payload = [SOIResult(i, f"Street {i}", 1.0 / (i + 1), i)
                   for i in range(n)]
        return estimate_payload_bytes(payload) - sys.getsizeof(payload)

    per_item = items_bytes(1)
    assert per_item > 0
    for n in (10, 100, 431):
        assert items_bytes(n) == n * per_item


# -- generation stamping ------------------------------------------------------

def test_generation_invalidation_is_wholesale():
    cache = make_cache(generation=1)
    cache.store(("k",), 2, [1, 2])
    cache.ensure_generation(1)  # no-op: stamp unchanged
    assert cache.lookup(("k",), 2) == [1, 2]
    cache.ensure_generation(2)  # index moved on: drop everything
    assert cache.generation == 2
    assert len(cache) == 0
    assert cache.nbytes == 0
    assert cache.lookup(("k",), 2) is MISS
    assert cache.stats()["invalidations"] == 1


def test_explicit_invalidate_restamps():
    cache = make_cache(generation=3)
    cache.store(("k",), 1, [1])
    cache.invalidate(7)
    assert cache.generation == 7
    assert cache.lookup(("k",), 1) is MISS


# -- the slice-path contract --------------------------------------------------

def test_contract_checks_dominated_slices_against_recompute():
    cache = make_cache()
    cache.store(("k",), 4, [1, 2, 3, 4])
    previous = contracts.ENABLED
    contracts.enable_contracts(True)
    try:
        assert cache.lookup(("k",), 2, recompute=lambda: [1, 2]) == [1, 2]
        with pytest.raises(ContractViolation):
            # A poisoned entry diverging from a fresh computation must
            # never be served silently under REPRO_CHECK.
            cache.lookup(("k",), 2, recompute=lambda: [1, 99])
    finally:
        contracts.enable_contracts(previous)


def test_contract_checks_exact_hits_sliced_from_a_complete_entry():
    cache = make_cache()
    cache.store(("k",), 2, [1, 2, 3], complete=True)
    previous = contracts.ENABLED
    contracts.enable_contracts(True)
    try:
        assert cache.lookup(("k",), 2, recompute=lambda: [1, 2]) == [1, 2]
        with pytest.raises(ContractViolation):
            cache.lookup(("k",), 2, recompute=lambda: [1, 99])
    finally:
        contracts.enable_contracts(previous)


def test_contract_disabled_skips_recompute():
    cache = make_cache()
    cache.store(("k",), 4, [1, 2, 3, 4])
    previous = contracts.ENABLED
    contracts.enable_contracts(False)
    try:
        def boom():
            raise AssertionError("recompute must not run with checks off")
        assert cache.lookup(("k",), 2, recompute=boom) == [1, 2]
    finally:
        contracts.enable_contracts(previous)


# -- metrics ------------------------------------------------------------------

def test_gauges_track_bytes_and_entries():
    registry = MetricsRegistry()
    cache = make_cache(registry=registry)
    cache.store(("k",), 2, [1, 2])
    assert registry.gauge("serve.cache.bytes") == float(cache.nbytes)
    assert registry.gauge("serve.cache.entries") == 1.0
    cache.invalidate()
    assert registry.gauge("serve.cache.bytes") == 0.0
    assert registry.gauge("serve.cache.entries") == 0.0
