"""Shared report records for the condition checkers, their JSON form, and
overwrite, the one writer of files: the CLI's JSON and CSV artifacts.

jsonable turns report values into plain JSON types. A report dataclass whose
JSON object is its fields by name, each through jsonable, inherits Record
and writes no to_jsonable of its own: Witness and ConditionReport here,
audit.AxiomCheck, solver.StartVerdict and uniqueness.DiagonalCheck elsewhere.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Optional

VERDICT_HOLDS = "holds_on_samples"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

HOLDS_NOTE = (
    "falsification-based verdict: sampling can refute the condition but never prove it"
)


def jsonable(value):
    """Recursively convert report values to plain JSON types.

    Finite floats pass through untouched so the json encoder emits shortest
    round-trip decimals, and non-finite ones become "inf", "-inf" or "nan"
    (standard JSON has no such numbers; float() parses the strings back). A
    Record becomes its to_jsonable() and a numpy scalar or 0-d array its
    Python scalar (.item()); any other value its str(), so Fractions become
    exact "p/q" strings.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Record):
        return value.to_jsonable()
    np = sys.modules.get("numpy")  # a numpy value exists only once numpy is loaded
    if np is not None and isinstance(value, (np.generic, np.ndarray)) and not value.ndim:
        item = value.item()  # longdouble has no Python scalar and stays itself
        if not isinstance(item, np.generic):
            return jsonable(item)
    return str(value)


@contextlib.contextmanager
def overwrite(path, newline=None):
    """A text file that writes over path in place, not emptied first, and is
    cut at what was written on exit, also when the writer raises. Encoding,
    newlines, a new file's mode and symlinks are as open() would have them;
    neither writes atomically."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline=newline) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


@functools.cache  # fields() per object would cost more than the rest of to_jsonable
def _field_names(cls):
    return tuple(f.name for f in fields(cls))


class Record:
    """Base of the report dataclasses whose JSON object is their fields, by
    name, each through jsonable (a nested Record by its own to_jsonable)."""

    def to_jsonable(self):
        return {name: jsonable(getattr(self, name)) for name in _field_names(type(self))}


@dataclass
class Witness(Record):
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


@dataclass
class ConditionReport(Record):
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
