"""JSON document formats shared by the CLI and test fixtures.

Rationals travel as strings "p" or "p/q" (JSON numbers cannot carry exact
rationals); sign vectors as '+'/'-' strings with index 1 leftmost; cycles are
serialized in normalized order."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .arrangements import Arrangement
from .core import SignVector, parse_sign_vector, sign_vector_str
from .cycles import SymmetricCycle, normalize_cycle
from .decomposition import Decomposition
from .dehn_sommerville import DSReport
from .oracles import CensusResult


class SchemaError(ValueError):
    """A document is structurally not the expected format."""


_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


def rational_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rational_from_str(text: Any) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"rationals must be strings 'p' or 'p/q', got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemaError(f"invalid rational {text!r}") from None


def load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


def _field(doc: dict, key: str, kind: type) -> Any:
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"field {key!r} must be {kind.__name__}")
    return value


def _ground_set_size(doc: dict) -> int:
    """The field t, which every document has and which must be positive."""
    t = _field(doc, "t", int)
    if t < 1:
        raise SchemaError(f"field 't' must be >= 1, got {t}")
    return t


def _parse_topes(strings: list, t: int) -> list[SignVector]:
    out = []
    for s in strings:
        if not isinstance(s, str):
            raise SchemaError(f"sign vectors must be strings, got {s!r}")
        try:
            v = parse_sign_vector(s)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        if len(v) != t:
            raise SchemaError(f"sign vector {s!r} has length {len(v)}, expected t={t}")
        out.append(v)
    return out


def arrangement_to_doc(arr: Arrangement) -> dict:
    return {
        "t": arr.t,
        "dim": arr.dim,
        "normals": [[rational_to_str(c) for c in n] for n in arr.normals],
    }


def arrangement_from_doc(doc: dict) -> Arrangement:
    t = _ground_set_size(doc)
    dim = _field(doc, "dim", int)
    rows = _field(doc, "normals", list)
    if len(rows) != t:
        raise SchemaError(f"t={t} but {len(rows)} normals given")
    normals = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"each normal must be a list of {dim} rationals")
        normals.append([rational_from_str(c) for c in row])
    return Arrangement(normals)


def tope_set_to_doc(t: int, topes: list[SignVector]) -> dict:
    return {"t": t, "topes": [sign_vector_str(v) for v in topes]}


def tope_set_from_doc(doc: dict) -> tuple[int, list[SignVector]]:
    t = _ground_set_size(doc)
    return t, _parse_topes(_field(doc, "topes", list), t)


def cycle_to_doc(cycle: SymmetricCycle) -> dict:
    norm = normalize_cycle(cycle)
    return {"t": norm.t, "vertices": [sign_vector_str(v) for v in norm.vertices]}


def cycle_vertices_from_doc(doc: dict) -> list[SignVector]:
    """The listed vertices; a count other than 2t raises SchemaError."""
    t = _ground_set_size(doc)
    strings = _field(doc, "vertices", list)
    if len(strings) != 2 * t:
        raise SchemaError(f"t={t} but {len(strings)} vertices given")
    return _parse_topes(strings, t)


def cycle_from_doc(doc: dict) -> SymmetricCycle:
    """The cycle the document lists; a broken invariant raises CycleError."""
    return SymmetricCycle(cycle_vertices_from_doc(doc))


def decomposition_to_doc(d: Decomposition) -> dict:
    return {
        "tope": sign_vector_str(d.tope),
        "coeffs": list(d.coeffs),
        "members": [sign_vector_str(v) for v in d.members],
    }


def fvector_to_doc(t: int, f: tuple[int, ...]) -> dict:
    return {"t": t, "f": list(f)}


def fvector_from_doc(doc: dict) -> tuple[int, tuple[int, ...]]:
    t = _ground_set_size(doc)
    f = _field(doc, "f", list)
    if len(f) != t + 1 or not all(isinstance(x, int) and not isinstance(x, bool) for x in f):
        raise SchemaError(f"f must be a list of {t + 1} integers")
    return t, tuple(f)


def ds_report_to_doc(report: DSReport) -> dict:
    return {
        "t": report.t,
        "boundary_ok": report.boundary_ok,
        "polynomial_residual": list(report.polynomial_residual),
        "recurrence_ok": {str(j): ok for j, ok in report.recurrence_ok.items()},
        "alternating_sum": report.alternating_sum,
        "special_case_notes": [{"label": n.label, "holds": n.holds} for n in report.special_case_notes],
        "passes": report.passes,
    }


def census_to_doc(result: CensusResult, expected: dict[int, int] | None = None, match: bool | None = None) -> dict:
    doc: dict[str, Any] = {
        "t": result.t,
        "histogram": {str(j): n for j, n in result.histogram.items()},
    }
    if expected is not None:
        doc["expected"] = {str(j): n for j, n in sorted(expected.items())}
        doc["match"] = match
    if result.by_size is not None:
        doc["topes"] = {str(j): [sign_vector_str(v) for v in vs] for j, vs in result.by_size.items()}
    return doc
