"""Machine- and human-readable reports.

Every CLI operation produces one JSON-able document (stable key order,
versioned schema); the text rendering is derived from the same document, so
the two always agree on numeric fields.  Documents round-trip losslessly
through JSON.
"""

from __future__ import annotations

import json

from ._version import __version__
from .closure import BoundParams, ClosureReport
from .hilbert import SeriesData, hilbert_coefficients
from .ideals import Ideal
from .reductions import ReductionCertificate

SCHEMA_VERSION = "1"
_MAX_SAMPLES_IN_REPORT = 32


def _envelope(operation: str, ring, generators, options: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "rrclosure", "version": __version__},
        "operation": operation,
        "problem": {
            "field": ring.field.name,
            "variables": list(ring.variables),
            "generators": [str(g) for g in generators],
        },
        "options": options,
    }


def ideal_payload(I: Ideal, minimal_generators=None) -> dict:
    """Minimal generators and reduced basis; pass the minimal generators
    when they are known, since finding them costs Groebner bases."""
    if minimal_generators is None:
        minimal_generators = I.minimal_generators()
    return {
        "minimal_generators": [str(g) for g in minimal_generators],
        "reduced_basis": [str(g) for g in I.reduced_basis().polys],
    }


def series_payload(data: SeriesData) -> dict:
    return {
        "numerator": list(data.numerator),
        "denominator_power": data.denominator_power,
        "multiplicity": data.multiplicity,
        "postulation": data.postulation,
        "hilbert_coefficients": list(hilbert_coefficients(data)),
        "mode": data.mode,
        "window_used": data.window_used,
        "sample_count": len(data.samples),
        "samples": list(data.samples[:_MAX_SAMPLES_IN_REPORT]),
    }


def certificate_payload(cert: ReductionCertificate) -> dict:
    return {
        "elements": [str(x) for x in cert.elements],
        "colength": cert.colength,
        "multiplicity": cert.multiplicity,
        "seed": cert.seed,
        "attempts": cert.attempts,
    }


def closure_document(report: ClosureReport, options: dict, operation: str = "closure") -> dict:
    doc = _envelope(operation, report.input_ideal.ring, report.input_ideal.generators, options)
    doc["result"] = {
        "series": series_payload(report.series),
        "reduction": certificate_payload(report.certificate),
        "quotient_series": [series_payload(q) for q in report.quotient_series],
        "postulation_joint": report.postulation_joint,
        "k_used": report.k_used,
        "closure": ideal_payload(report.closure_ideal, report.closure_generators),
        "is_closed": report.is_closed,
        "mode": report.mode,
        "checks_passed": list(report.checks_passed),
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
    }
    return doc


def series_document(I: Ideal, data: SeriesData, options: dict) -> dict:
    doc = _envelope("poincare", I.ring, I.generators, options)
    doc["result"] = {"series": series_payload(data)}
    return doc


def hilbert_document(I: Ideal, n: int, value: int, options: dict) -> dict:
    doc = _envelope("hilbert", I.ring, I.generators, options)
    doc["result"] = {"n": n, "value": value}
    return doc


def reduction_document(I: Ideal, cert: ReductionCertificate, options: dict) -> dict:
    doc = _envelope("reduction", I.ring, I.generators, options)
    doc["result"] = {"reduction": certificate_payload(cert)}
    return doc


def check_closed_document(report: ClosureReport, options: dict) -> dict:
    doc = closure_document(report, options, operation="check-closed")
    doc["result"]["closed"] = report.is_closed
    return doc


def colon_powers_document(I: Ideal, result: Ideal, bounds: BoundParams, k: int,
                          certified: bool, options: dict) -> dict:
    doc = _envelope("colon-powers", I.ring, I.generators, options)
    doc["result"] = {
        "k": k,
        "certified": certified,
        "bounds": bounds._asdict(),
        "closure": ideal_payload(result),
    }
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)


# -- text rendering ----------------------------------------------------------


def series_string(numerator, denominator_power: int) -> str:
    """Poincare series in display form, e.g. (35 + 4X - 2X^2)/(1-X)^2."""
    chunks = []
    for i, a in enumerate(numerator):
        if a == 0 and len(numerator) > 1:
            continue
        mag = abs(a)
        body = str(mag) if i == 0 else (
            ("" if mag == 1 else str(mag)) + ("X" if i == 1 else f"X^{i}")
        )
        if not chunks:
            chunks.append(f"-{body}" if a < 0 else body)
        else:
            chunks.append(f"- {body}" if a < 0 else f"+ {body}")
    top = " ".join(chunks) or "0"
    if denominator_power == 0:
        return top
    power = "" if denominator_power == 1 else f"^{denominator_power}"
    return f"({top})/(1-X){power}"


def render_text(doc: dict) -> str:
    lines = []
    problem = doc["problem"]
    lines.append(f"operation: {doc['operation']}")
    lines.append(f"ring: {problem['field']}[{','.join(problem['variables'])}]")
    lines.append("ideal: " + ", ".join(problem["generators"]))
    result = doc["result"]
    op = doc["operation"]

    def series_lines(prefix: str, payload: dict):
        lines.append(
            f"{prefix}series: "
            + series_string(payload["numerator"], payload["denominator_power"])
        )
        lines.append(f"{prefix}numerator: {payload['numerator']}")
        lines.append(f"{prefix}e0: {payload['multiplicity']}")
        lines.append(f"{prefix}pn: {payload['postulation']}")
        lines.append(f"{prefix}hilbert coefficients: {payload['hilbert_coefficients']}")

    if op in ("closure", "closure-power", "check-closed"):
        series_lines("", result["series"])
        red = result["reduction"]
        lines.append(
            "reduction: "
            + "; ".join(red["elements"])
            + f"  (colength {red['colength']}, attempts {red['attempts']}, seed {red['seed']})"
        )
        for i, q in enumerate(result["quotient_series"]):
            lines.append(f"quotient {i} numerator: {q['numerator']} (pn {q['postulation']})")
        lines.append(f"pn with reduction: {result['postulation_joint']}")
        lines.append(f"k used: {result['k_used']}")
        lines.append("closure: " + ", ".join(result["closure"]["minimal_generators"]))
        lines.append(f"closed: {str(result['is_closed']).lower()}")
        lines.append("checks passed: " + ", ".join(result["checks_passed"]))
    elif op == "poincare":
        series_lines("", result["series"])
    elif op == "hilbert":
        lines.append(f"n: {result['n']}")
        lines.append(f"value: {result['value']}")
    elif op == "reduction":
        red = result["reduction"]
        lines.append("reduction: " + "; ".join(red["elements"]))
        lines.append(f"colength: {red['colength']}")
        lines.append(f"e0: {red['multiplicity']}")
        lines.append(f"attempts: {red['attempts']}")
        lines.append(f"seed: {red['seed']}")
    elif op == "colon-powers":
        lines.append(f"k: {result['k']}")
        lines.append(f"certified: {str(result['certified']).lower()}")
        b = result["bounds"]
        lines.append(
            f"bounds: e0 {b['multiplicity']}, regularity bound {b['regularity_bound']}, "
            f"certified k {b['colon_powers_k']}"
        )
        lines.append("closure: " + ", ".join(result["closure"]["minimal_generators"]))
    else:
        lines.append(json.dumps(result))
    return "\n".join(lines) + "\n"
