"""Keyword handling: normalisation, tokenisation and frequency vectors.

POIs and photos carry keyword sets (``Psi_p``, ``Psi_r`` in the paper).
Matching is exact on normalised keywords.  The describe stage additionally
needs the *keyword frequency vector* ``Phi_s`` of a street (Section 4.1.2),
implemented here as :class:`KeywordFrequencyVector`.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:['_-][a-z0-9]+)*")


def normalize_keyword(keyword: str) -> str:
    """Canonical form of a keyword: lower-cased, stripped of whitespace.

    Returns the empty string for keywords that normalise to nothing, which
    callers should drop.
    """
    return keyword.strip().lower()


def tokenize(text: str) -> list[str]:
    """Split free text into normalised keyword tokens.

    Used when deriving keyword sets from names/descriptions (the paper's
    "keywords derived from its name, description, tags").
    """
    return _TOKEN_RE.findall(text.lower())


def normalize_keywords(keywords: Iterable[str]) -> frozenset[str]:
    """Normalise an iterable of keywords into a frozen set, dropping empties."""
    out = {normalize_keyword(k) for k in keywords}
    out.discard("")
    return frozenset(out)


class KeywordFrequencyVector:
    """A sparse non-negative keyword frequency vector (the paper's ``Phi_s``).

    ``Phi_s(psi)`` is the strength of keyword ``psi`` for street ``s``;
    ``Psi_s`` is the support (keywords with non-zero frequency); and
    ``norm1`` is the L1 normalisation term of Equation 8.
    """

    __slots__ = ("_freq", "_norm1")

    def __init__(self, frequencies: Mapping[str, float] | None = None) -> None:
        freq: dict[str, float] = {}
        for keyword, value in (frequencies or {}).items():
            if value < 0:
                raise ValueError(
                    f"negative frequency {value} for keyword {keyword!r}")
            if value > 0:
                freq[normalize_keyword(keyword)] = (
                    freq.get(normalize_keyword(keyword), 0.0) + value)
        freq.pop("", None)
        self._freq = freq
        self._norm1 = float(sum(freq.values()))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_keyword_sets(
        cls, keyword_sets: Iterable[Iterable[str]]
    ) -> "KeywordFrequencyVector":
        """Aggregate frequencies by counting keyword occurrences across sets.

        This is the default way the library derives a street profile: count
        each keyword once per associated photo/POI.
        """
        counter: Counter[str] = Counter()
        for keywords in keyword_sets:
            counter.update(normalize_keyword(k) for k in keywords)
        counter.pop("", None)
        return cls(counter)

    # -- vector protocol -------------------------------------------------------

    def __getitem__(self, keyword: str) -> float:
        """``Phi_s(psi)``; zero for keywords outside the support."""
        return self._freq.get(normalize_keyword(keyword), 0.0)

    def __contains__(self, keyword: str) -> bool:
        return normalize_keyword(keyword) in self._freq

    def __len__(self) -> int:
        return len(self._freq)

    def __iter__(self) -> Iterator[str]:
        return iter(self._freq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeywordFrequencyVector):
            return NotImplemented
        return self._freq == other._freq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        top = sorted(self._freq.items(), key=lambda kv: -kv[1])[:4]
        return f"KeywordFrequencyVector({dict(top)!r}, ...)"

    # -- derived quantities ------------------------------------------------------

    @property
    def support(self) -> frozenset[str]:
        """``Psi_s``: keywords with non-zero frequency."""
        return frozenset(self._freq)

    @property
    def norm1(self) -> float:
        """``||Phi_s||_1``: the normalisation term of Equation 8."""
        return self._norm1

    def weight_of_set(self, keywords: Iterable[str]) -> float:
        """``sum_{psi in keywords} Phi_s(psi)`` — the Equation 8 numerator.

        Keywords are normalised before deduplication, so ``{"A", "a"}``
        counts once.
        """
        normalised = {normalize_keyword(k) for k in keywords}
        return sum(self._freq.get(k, 0.0) for k in normalised)

    def weights(self, keywords: Sequence[str]) -> np.ndarray:
        """``Phi_s(psi)`` of every keyword, as a float64 column (0.0
        outside the support).  The keywords must already be normalised,
        as the vocabulary of a photo or POI table is."""
        return np.array([self._freq.get(keyword, 0.0)
                         for keyword in keywords], dtype=np.float64)

    def sorted_by_frequency(self, descending: bool = True) -> list[tuple[str, float]]:
        """Support keywords with frequencies, sorted by frequency.

        The bound constructions of Section 4.2.2 need the lowest/highest
        frequency keywords of a cell vocabulary; sorting here keeps that
        logic simple.  Ties break lexicographically for determinism.
        """
        return sorted(self._freq.items(),
                      key=lambda kv: (-kv[1], kv[0]) if descending
                      else (kv[1], kv[0]))

    def as_dict(self) -> dict[str, float]:
        """A copy of the underlying sparse mapping."""
        return dict(self._freq)
