"""The nine selection methods of the Table 3 effectiveness study.

Each method is the same greedy machinery with the objective restricted to
a subset of the four components: the information axis (S = spatial only,
T = textual only, ST = both, i.e. ``w`` fixed to 1 / 0 / the balanced
value) crossed with the criterion axis (Rel = relevance only, Div =
diversity only, Rel+Div = both, i.e. ``lambda`` fixed to 0 / 1 / the
balanced value).  ST_Rel+Div — the paper's method — uses all components.

Scoring for Table 3 always uses the *full* objective of Equation 2 with
the balanced ``lambda = w = 0.5``, regardless of which restricted
objective drove the selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.describe.measures import objective_value
from repro.core.describe.profile import StreetProfile
from repro.core.describe.st_rel_div import STRelDivDescriber


@dataclass(frozen=True, slots=True)
class MethodSpec:
    """A selection method: which components drive the greedy objective.

    ``lam`` and ``w`` are the Equation 10 parameters used *during
    selection*; ``None`` means "use the query's balanced value".
    """

    name: str
    lam: float | None
    w: float | None

    def effective(self, lam: float, w: float) -> tuple[float, float]:
        """Resolve selection-time ``(lambda, w)`` given query defaults."""
        return (self.lam if self.lam is not None else lam,
                self.w if self.w is not None else w)


VARIANTS: dict[str, MethodSpec] = {
    "S_Rel": MethodSpec("S_Rel", lam=0.0, w=1.0),
    "S_Div": MethodSpec("S_Div", lam=1.0, w=1.0),
    "S_Rel+Div": MethodSpec("S_Rel+Div", lam=None, w=1.0),
    "T_Rel": MethodSpec("T_Rel", lam=0.0, w=0.0),
    "T_Div": MethodSpec("T_Div", lam=1.0, w=0.0),
    "T_Rel+Div": MethodSpec("T_Rel+Div", lam=None, w=0.0),
    "ST_Rel": MethodSpec("ST_Rel", lam=0.0, w=None),
    "ST_Div": MethodSpec("ST_Div", lam=1.0, w=None),
    "ST_Rel+Div": MethodSpec("ST_Rel+Div", lam=None, w=None),
}
"""The Table 3/4 method grid, keyed by the paper's method names."""


def run_variant(
    profile: StreetProfile,
    method: str | MethodSpec,
    k: int,
    lam: float = 0.5,
    w: float = 0.5,
) -> list[int]:
    """Select ``k`` photos with the named method, by ST_Rel+Div.

    ``lam`` / ``w`` are the balanced values substituted where the method
    does not pin them.
    """
    spec = VARIANTS[method] if isinstance(method, str) else method
    sel_lam, sel_w = spec.effective(lam, w)
    return STRelDivDescriber(profile).select(k, sel_lam, sel_w)


def score_variants(
    profile: StreetProfile,
    k: int,
    lam: float = 0.5,
    w: float = 0.5,
    methods: dict[str, MethodSpec] | None = None,
) -> dict[str, float]:
    """Table 3: the Equation 2 objective of each method's summary.

    Scores are *not* normalised here; see
    :func:`repro.eval.experiments.describe_scores` for the
    normalised-to-ST_Rel+Div presentation the paper uses.
    """
    out: dict[str, float] = {}
    for name, spec in (methods or VARIANTS).items():
        positions = run_variant(profile, spec, k, lam, w)
        out[name] = objective_value(profile, positions, lam, w)
    return out
