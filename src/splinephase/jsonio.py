"""JSON codecs for every payload the command line reads or writes.

Rationals travel as strings ("3/4", "2", "0.25" all accepted on input;
output is the shortest exact form with positive denominator).  JSON number
literals are decoded through their decimal text so 0.1 means exactly 1/10.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .bspline import SplineFunction, as_fraction
from .retrieval import CounterexamplePair, RecoveryResult, UnsignedSamples
from .sequences import CertificateReport, PeriodicSetDescriptor, SampleSet, Violation

__all__ = [
    "decode_matrix",
    "decode_point_input",
    "decode_sample_set",
    "decode_descriptor",
    "decode_spline",
    "decode_unsigned_samples",
    "encode_certificate",
    "encode_counterexample",
    "encode_descriptor",
    "encode_matrix",
    "encode_recovery",
    "encode_sample_set",
    "encode_spline",
    "fraction_from_json",
    "fraction_to_json",
    "loads",
    "dumps",
]


def fraction_from_json(value) -> Fraction:
    """An int or numeric string as a Fraction, under the text bounds of
    :func:`splinephase.bspline.as_fraction`; anything else raises ValueError."""
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(value, (int, str)):
        return as_fraction(value)
    raise ValueError("expected an int or 'p/q' string, got %r" % (value,))


def fraction_to_json(value: Fraction) -> str:
    return str(Fraction(value))


def loads(text: str):
    """Parse JSON with float literals preserved as decimal strings."""
    return json.loads(text, parse_float=str)


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _window(pair, name: str) -> Tuple[int, int]:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
    ):
        raise ValueError("%s must be a pair of integers" % name)
    return int(pair[0]), int(pair[1])


def decode_sample_set(payload) -> SampleSet:
    if not isinstance(payload, dict):
        raise ValueError("sample set payload must be an object")
    window = _window(payload.get("window"), "window")
    points = payload.get("points")
    if not isinstance(points, list):
        raise ValueError("points must be a list")
    return SampleSet(tuple(fraction_from_json(p) for p in points), window)


def encode_sample_set(E: SampleSet) -> Dict[str, Any]:
    return {
        "window": list(E.window),
        "points": [fraction_to_json(p) for p in E.points],
    }


def decode_descriptor(payload) -> PeriodicSetDescriptor:
    if not isinstance(payload, dict):
        raise ValueError("descriptor payload must be an object")
    period = payload.get("period")
    if not isinstance(period, int) or isinstance(period, bool):
        raise ValueError("period must be an integer")
    offsets = payload.get("offsets")
    if not isinstance(offsets, list):
        raise ValueError("offsets must be a list")
    edits_payload = payload.get("edits", [])
    if not isinstance(edits_payload, list):
        raise ValueError("edits must be a list")
    edits = []
    for item in edits_payload:
        if not isinstance(item, dict) or "op" not in item or "point" not in item:
            raise ValueError("each edit needs an 'op' and a 'point'")
        edits.append((item["op"], fraction_from_json(item["point"])))
    window = payload.get("edit_window")
    if window is None:
        window = (0, 0)
    else:
        window = _window(window, "edit_window")
    return PeriodicSetDescriptor(
        period,
        tuple(fraction_from_json(o) for o in offsets),
        tuple(edits),
        window,
    )


def encode_descriptor(D: PeriodicSetDescriptor) -> Dict[str, Any]:
    return {
        "period": D.period,
        "offsets": [fraction_to_json(o) for o in D.offsets],
        "edits": [
            {"op": op, "point": fraction_to_json(p)} for op, p in D.edits
        ],
        "edit_window": list(D.edit_window),
    }


def decode_point_input(payload):
    """A sample set or a descriptor, recognized by its fields."""
    if isinstance(payload, dict) and "period" in payload:
        return decode_descriptor(payload)
    return decode_sample_set(payload)


def decode_spline(payload) -> SplineFunction:
    if not isinstance(payload, dict):
        raise ValueError("spline payload must be an object")
    m = payload.get("m")
    start = payload.get("start")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError("m must be an integer")
    if not isinstance(start, int) or isinstance(start, bool):
        raise ValueError("start must be an integer")
    coeffs = payload.get("coeffs")
    if not isinstance(coeffs, list):
        raise ValueError("coeffs must be a list")
    window = payload.get("window")
    if window is not None:
        window = _window(window, "window")
    return SplineFunction(
        m, start, tuple(fraction_from_json(c) for c in coeffs), window
    )


def encode_spline(f: SplineFunction) -> Dict[str, Any]:
    return {
        "m": f.m,
        "start": f.start,
        "coeffs": [fraction_to_json(c) for c in f.coeffs],
        "window": list(f.window) if f.window is not None else None,
    }


def encode_certificate(report: CertificateReport) -> Dict[str, Any]:
    violated: Optional[Dict[str, Any]] = None
    if report.violated is not None:
        v = report.violated
        violated = {
            "condition": v.condition,
            "params": dict(v.params),
            "observed": v.observed,
            "required": v.required,
        }
    return {"verdict": report.verdict, "violated": violated}


def decode_matrix(payload) -> Tuple[Tuple[Fraction, ...], ...]:
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError("matrix payload must be an object with 'entries'")
    entries = payload["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("entries must be a list of rows")
    mat = tuple(tuple(fraction_from_json(v) for v in row) for row in entries)
    widths = {len(row) for row in mat}
    if len(widths) > 1:
        raise ValueError("matrix rows must all have the same length")
    if not mat or not mat[0]:
        raise ValueError("a matrix needs at least one row and one column")
    if "rows" in payload and payload["rows"] != len(mat):
        raise ValueError("row count does not match entries")
    if "cols" in payload and payload["cols"] != len(mat[0]):
        raise ValueError("column count does not match entries")
    return mat


def encode_matrix(matrix) -> Dict[str, Any]:
    mat = tuple(tuple(v for v in row) for row in matrix)
    return {
        "rows": len(mat),
        "cols": len(mat[0]) if mat else 0,
        "entries": [[fraction_to_json(v) for v in row] for row in mat],
    }


def decode_unsigned_samples(payload) -> UnsignedSamples:
    if not isinstance(payload, dict) or "sample_set" not in payload or "values" not in payload:
        raise ValueError("payload needs 'sample_set' and 'values'")
    E = decode_sample_set(payload["sample_set"])
    values = payload["values"]
    if not isinstance(values, list):
        raise ValueError("values must be a list")
    return UnsignedSamples(E, tuple(fraction_from_json(v) for v in values))


def encode_recovery(result: RecoveryResult) -> Dict[str, Any]:
    return {
        "status": result.status,
        "solutions": [encode_spline(f) for f in result.solutions],
        "certificate": (
            [encode_spline(result.certificate[0]), encode_spline(result.certificate[1])]
            if result.certificate is not None
            else None
        ),
    }


def encode_counterexample(pair: CounterexamplePair) -> Dict[str, Any]:
    return {
        "f1": encode_spline(pair.f1),
        "f2": encode_spline(pair.f2),
        "nonseparable": list(pair.nonseparable),
    }
