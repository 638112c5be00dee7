"""White-box soundness tests for the SOI algorithm's bounds.

Lemma 1 justifies the termination test ``LBk >= UB``; these tests verify
the two bound computations *during* a run, not just the final answer:

* at every filtering step, ``UB`` must dominate the true interest of
  every still-unseen segment;
* at every filtering step, ``LBk`` must lower-bound the true interest of
  the k-th best street.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import soi as soi_module
from repro.core.interest import (
    segment_interest,
    segment_mass_bruteforce,
)
from repro.core.soi import AccessStrategy, SOIEngine

from tests.conftest import random_networks, random_pois


def _true_segment_interests(network, pois, keywords, eps):
    out = {}
    for segment in network.iter_segments():
        mass = segment_mass_bruteforce(segment, pois, keywords, eps)
        out[segment.id] = segment_interest(mass, segment.length, eps)
    return out


def _kth_street_interest(network, seg_interests, k):
    best: dict[int, float] = {}
    for sid, value in seg_interests.items():
        street_id = network.segment(sid).street_id
        best[street_id] = max(best.get(street_id, 0.0), value)
    values = sorted(best.values(), reverse=True)
    return values[k - 1] if len(values) >= k else 0.0


@given(network=random_networks(), pois=random_pois(min_size=3, max_size=20),
       strategy=st.sampled_from(list(AccessStrategy)))
@settings(max_examples=25)
def test_bounds_sound_at_every_step(network, pois, strategy):
    keywords = frozenset({"shop", "food"})
    eps = 0.001
    k = 3
    truth = _true_segment_interests(network, pois, keywords, eps)
    kth = _kth_street_interest(network, truth, k)

    engine = SOIEngine(network, pois, cell_size=0.0015)
    run = soi_module._SOIRun(engine, keywords, k, eps, strategy,
                             True, False, engine.session_for(keywords))
    run._build_source_lists()

    cycle = strategy.cycle
    position = 0
    steps = 0
    while steps < 500:
        ub = run._compute_ub()
        run._lbk_dirty = True
        run.stats.iterations = 0  # force a real LBk recomputation
        lbk = run._compute_lbk()

        # UB dominates every unseen segment's true interest.
        for sid, value in truth.items():
            if sid not in run.store.seen_ids:
                assert value <= ub + 1e-9, (
                    f"unseen segment {sid} has interest {value} > UB {ub}")
        # LBk never exceeds the true k-th street interest.
        assert lbk <= kth + 1e-9

        if lbk >= ub:
            break
        accessed = False
        for offset in range(len(cycle)):
            name = cycle[(position + offset) % len(cycle)]
            if run._access(name):
                position = (position + offset + 1) % len(cycle)
                accessed = True
                break
        if not accessed:
            for name in ("SL1", "SL2", "SL3"):
                if run._access(name):
                    accessed = True
                    break
        if not accessed:
            break
        steps += 1


@given(network=random_networks(), pois=random_pois(min_size=1, max_size=20))
@settings(max_examples=25)
def test_partial_masses_never_exceed_truth(network, pois):
    """A partial segment's accumulated mass is a lower bound on its true
    mass (UpdateInterest only ever adds confirmed POIs)."""
    keywords = frozenset({"shop"})
    eps = 0.001
    engine = SOIEngine(network, pois, cell_size=0.0015)
    run = soi_module._SOIRun(engine, keywords, 2, eps,
                             AccessStrategy.ALTERNATE, True, False,
                             engine.session_for(keywords))
    run._build_source_lists()
    # run a few cell accesses only, leaving many segments partial
    for _ in range(3):
        if not run._access("SL1"):
            break
    store = run.store
    for dense in store.active:
        segment = store.layout.segments[dense]
        true_mass = segment_mass_bruteforce(segment, pois, keywords, eps)
        assert store.mass[dense] <= true_mass + 1e-9
        if store.final_epoch[dense] == store.epoch:
            assert store.mass[dense] == pytest.approx(true_mass)
