"""Shared report records for the condition checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

CONDITION_IDS = (
    "banach_k",
    "samet_mk",
    "symmetric_mk",
    "strict_contraction",
    "mixed_monotone",
)

VERDICT_HOLDS = "holds_on_samples"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

HOLDS_NOTE = (
    "falsification-based verdict: sampling can refute the condition but never prove it"
)


def jsonable(value):
    """Recursively convert report values to plain JSON types.

    Fractions become exact "p/q" strings; finite floats pass through untouched
    so the json encoder emits shortest round-trip decimals, and non-finite ones
    become "inf", "-inf" or "nan" (standard JSON has no such numbers; float()
    parses the strings back).
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass
class Witness:
    """A concrete comparable quadruple refuting a condition.

    x, y, u, v are space elements with x >= u and y <= v in the base order
    (mixed-monotonicity witnesses reuse the slots for the two argument pairs).
    measured holds the quantities whose comparison failed; kind records which
    search phase produced the witness.
    """

    x: Any
    y: Any
    u: Any
    v: Any
    kind: str = "random"
    measured: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "x": jsonable(self.x),
            "y": jsonable(self.y),
            "u": jsonable(self.u),
            "v": jsonable(self.v),
            "kind": self.kind,
            "measured": jsonable(self.measured),
        }


@dataclass
class ConditionReport:
    condition_id: str
    verdict: str
    witness: Optional[Witness] = None
    epsilon_grid: list = field(default_factory=list)  # (eps, delta) pairs
    samples_used: int = 0
    comparable_pairs_used: int = 0
    band_hits: list = field(default_factory=list)  # (eps, in-band count)
    params: dict = field(default_factory=dict)
    method: str = ""
    note: str = ""

    @property
    def holds(self):
        return self.verdict == VERDICT_HOLDS

    def to_jsonable(self):
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict,
            "witness": self.witness.to_jsonable() if self.witness else None,
            "epsilon_grid": jsonable(self.epsilon_grid),
            "samples_used": self.samples_used,
            "comparable_pairs_used": self.comparable_pairs_used,
            "band_hits": jsonable(self.band_hits),
            "params": jsonable(self.params),
            "method": self.method,
            "note": self.note,
        }


def _report(condition_id, method, witness, samples_used, comparable, *,
            inconclusive="", holds_note=HOLDS_NOTE, **fields) -> ConditionReport:
    """The report of one check: fails when it carries a witness, else
    inconclusive when the caller names why its evidence is too thin, else
    holds."""
    if witness is not None:
        verdict, note = VERDICT_FAILS, ""
    elif inconclusive:
        verdict, note = VERDICT_INCONCLUSIVE, inconclusive
    else:
        verdict, note = VERDICT_HOLDS, holds_note
    return ConditionReport(condition_id=condition_id, verdict=verdict, witness=witness,
                           samples_used=samples_used, comparable_pairs_used=comparable,
                           method=method, note=note, **fields)
