"""Tests for :mod:`repro.core.source_lists`.

The lists read their entries in the order given; the orders themselves
are checked where they are made: ``CellBounds`` against
``tests/oracle.sl1_entries`` (``tests/test_slot_mass_pass.py``) and the
engine's SL2 and SL3 orders below.
"""

from __future__ import annotations

import pytest

from repro.core.soi import SOIEngine
from repro.core.source_lists import CellSourceList, SegmentSourceList


class TestCellSourceList:
    def test_pop_order_count_descending(self):
        sl1 = CellSourceList([((1, 1), 9), ((2, 2), 5), ((0, 0), 3)])
        assert sl1.pop() == (1, 1)
        assert sl1.pop() == (2, 2)
        assert sl1.pop() == (0, 0)
        assert sl1.pop() is None

    def test_tie_breaks_on_coordinates(self):
        sl1 = CellSourceList([((1, 1), 2), ((5, 5), 2)])
        assert sl1.pop() == (1, 1)
        assert sl1.pop() == (5, 5)

    def test_top_tracks_next_entry(self):
        sl1 = CellSourceList([((1, 1), 9), ((0, 0), 3)])
        assert sl1.top() == 9
        sl1.pop()
        assert sl1.top() == 3
        sl1.pop()
        assert sl1.top() == 0
        assert sl1.exhausted

    def test_empty_list(self):
        sl1 = CellSourceList([])
        assert sl1.top() == 0
        assert sl1.pop() is None
        assert len(sl1) == 0


class TestSegmentSourceList:
    def _make(self, descending: bool, final: set[int], seen: set[int]):
        entries = [(0, 5.0), (1, 1.0), (2, 3.0), (3, 4.0)]
        sign = -1.0 if descending else 1.0
        entries.sort(key=lambda e: (sign * e[1], e[0]))
        return SegmentSourceList(entries,
                                 is_final=lambda sid: sid in final,
                                 is_seen=lambda sid: sid in seen)

    def test_pop_descending(self):
        sl = self._make(True, set(), set())
        assert [sl.pop() for _ in range(5)] == [0, 3, 2, 1, None]

    def test_pop_ascending(self):
        sl = self._make(False, set(), set())
        assert [sl.pop() for _ in range(5)] == [1, 2, 3, 0, None]

    def test_pop_skips_final_segments(self):
        final = {0, 2}
        sl = self._make(True, final, set())
        assert sl.pop() == 3
        final.add(1)
        assert sl.pop() is None

    def test_top_skips_seen_segments(self):
        seen = set()
        sl = self._make(True, set(), seen)
        assert sl.top() == 5.0
        seen.add(0)
        assert sl.top() == 4.0
        seen.update({3, 2, 1})
        assert sl.top() is None

    def test_top_and_pop_independent(self):
        seen = set()
        final = set()
        sl = self._make(False, final, seen)
        # A segment seen (but not final) is skipped by top but returned
        # by pop (accessing it finalises it).
        seen.add(1)
        assert sl.top() == 3.0
        assert sl.pop() == 1

    def test_exhausted_property(self):
        final = set()
        sl = self._make(True, final, set())
        assert not sl.exhausted
        final.update({0, 1, 2, 3})
        assert sl.exhausted
        assert sl.pop() is None

    def test_ties_break_on_id(self):
        sl = SegmentSourceList([(3, 2.0), (7, 2.0)],
                               is_final=lambda s: False,
                               is_seen=lambda s: False)
        assert sl.pop() == 3
        assert sl.pop() == 7

    def test_presorted_entries_respected(self):
        entries = ((2, 9.0), (0, 1.0))  # not length order: kept verbatim
        sl = SegmentSourceList(entries, is_final=lambda s: False,
                               is_seen=lambda s: False)
        assert sl.pop() == 2
        assert sl.pop() == 0


@pytest.mark.parametrize("eps", [0.0003, 0.0005, 0.001])
def test_engine_orders_sl2_and_sl3(small_engine, eps):
    """SL2 is every segment by ``(-|C_eps(l)|, id)`` and SL3 every
    segment by ``(length, id)``, as the engine hands them to the lists."""
    network = small_engine.network
    maps = small_engine.cell_maps
    sl2, _threshold = small_engine._sl2_entries(eps)
    assert list(sl2) == sorted(
        ((seg.id, float(len(maps.cells_of_segment(seg.id, eps))))
         for seg in network.iter_segments()),
        key=lambda entry: (-entry[1], entry[0]))
    assert list(small_engine._sl3_entries()) == sorted(
        ((seg.id, seg.length) for seg in network.iter_segments()),
        key=lambda entry: (entry[1], entry[0]))
