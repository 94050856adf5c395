"""cli-io: report documents, JSON schema validation, the result cache."""

import json
import os

import pytest

jsonschema = pytest.importorskip("jsonschema")

from rrclosure import cache, closure, closure_power, poincare_series, reports
from util_algebra import ideal_of, qq_ring

R = qq_ring("x", "y")
OPTIONS = {"mode": "heuristic", "seed": 0, "format": "json"}


def load_schema():
    from importlib import resources

    with resources.files("rrclosure").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def closure_report():
    return closure(ideal_of(R, "x^8", "x^3*y^2", "x^2*y^4", "y^8"), seed=0)


@pytest.fixture(scope="module")
def closure_doc(closure_report):
    return reports.closure_document(closure_report, OPTIONS)


@pytest.fixture(scope="module")
def closure_docs(closure_doc, closure_report):
    """One document of each operation that reports a closure."""
    power = closure_power(ideal_of(R, "x^4", "x^3*y", "x*y^3", "y^4"), 2, seed=0)
    return {
        "closure": closure_doc,
        "closure-power": reports.closure_document(power, dict(OPTIONS, n=2),
                                                  operation="closure-power"),
        "check-closed": reports.check_closed_document(closure_report, OPTIONS),
    }


def test_documents_validate_against_schema(closure_docs):
    schema = load_schema()
    for doc in closure_docs.values():
        jsonschema.validate(doc, schema)
    I = ideal_of(R, "x^2", "x*y", "y^2")
    jsonschema.validate(reports.series_document(I, poincare_series(I), OPTIONS), schema)
    jsonschema.validate(reports.hilbert_document(I, 1, 10, OPTIONS), schema)


@pytest.mark.parametrize("operation", ["closure", "closure-power", "check-closed"])
def test_a_closure_report_without_a_joint_postulation_is_invalid(closure_docs, operation):
    # the chain index always comes from pn(I; x), which every closure reports
    schema = load_schema()
    doc = json.loads(reports.dumps(closure_docs[operation]))
    assert isinstance(doc["result"]["postulation_joint"], int)
    doc["result"]["postulation_joint"] = None
    with pytest.raises(jsonschema.ValidationError, match="None is not of type 'integer'"):
        jsonschema.validate(doc, schema)
    del doc["result"]["postulation_joint"]
    with pytest.raises(jsonschema.ValidationError, match="'postulation_joint' is a required"):
        jsonschema.validate(doc, schema)


def test_document_round_trips_losslessly(closure_doc):
    text = reports.dumps(closure_doc)
    again = reports.loads(text)
    assert again == closure_doc
    assert reports.dumps(again) == text


def test_text_and_json_agree_on_numbers(closure_doc):
    text = reports.render_text(closure_doc)
    result = closure_doc["result"]
    assert f"e0: {result['series']['multiplicity']}" in text
    assert f"pn: {result['series']['postulation']}" in text
    assert f"k used: {result['k_used']}" in text
    assert f"closed: {str(result['is_closed']).lower()}" in text
    assert str(result["series"]["numerator"]) in text


def test_series_display_form():
    assert reports.series_string((35, 4, 4, 4, -2), 2) == "(35 + 4X + 4X^2 + 4X^3 - 2X^4)/(1-X)^2"
    assert reports.series_string((35, 6, 2, 2), 1) == "(35 + 6X + 2X^2 + 2X^3)/(1-X)"
    assert reports.series_string((1,), 2) == "(1)/(1-X)^2"
    assert reports.series_string((3,), 0) == "3"
    assert reports.series_string((18, 3, 0, 1), 2) == "(18 + 3X + X^3)/(1-X)^2"


def test_ideal_payload_uses_minimal_generators():
    I = ideal_of(R, "x", "y", "x + y")
    payload = reports.ideal_payload(I)
    assert payload["minimal_generators"] == ["y", "x"]
    assert payload["reduced_basis"] == ["y", "x"]


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
def test_closure_document_reuses_the_closures_minimal_generators(monkeypatch, field):
    # phi(ex33) is not monomial: finding its closure's minimal generators
    # again would take Groebner bases
    from rrclosure import GF, PolyRing, QQ, ideals

    ring = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y"))
    I = ideal_of(ring, "(x+y)^8", "(x+y)^3*y^2", "(x+y)^2*y^4", "y^8")
    report = closure(I, seed=0)
    runs = []

    def counted(*args, original=ideals._engine_groebner):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    doc = reports.closure_document(report, OPTIONS)
    assert runs == []
    assert doc["result"]["closure"]["minimal_generators"] == [
        str(g) for g in report.closure_ideal.minimal_generators()]


def test_cache_roundtrip(tmp_path):
    doc = {"schema_version": "1", "result": {"value": 42}}
    key = cache.cache_key("QQ", ("x", "y"), ["x", "y"], "hilbert", {"n": 1})
    assert cache.lookup(str(tmp_path), key) is None
    cache.store(str(tmp_path), key, doc)
    assert cache.lookup(str(tmp_path), key) == doc


def test_cache_key_semantics(monkeypatch):
    base = cache.cache_key("QQ", ("x", "y"), ["y", "x"], "closure", {"mode": "heuristic", "seed": 0})
    permuted = cache.cache_key("QQ", ("x", "y"), ["x", "y"], "closure", {"mode": "heuristic", "seed": 0})
    assert base == permuted  # basis strings are sorted into the key
    other_seed = cache.cache_key("QQ", ("x", "y"), ["x", "y"], "closure", {"mode": "heuristic", "seed": 1})
    assert other_seed != base
    other_op = cache.cache_key("QQ", ("x", "y"), ["x", "y"], "poincare", {"mode": "heuristic", "seed": 0})
    assert other_op != base
    # results of another release or report schema are never served
    for name, value in (("__version__", "0.0.0-other"), ("SCHEMA_VERSION", "0")):
        with monkeypatch.context() as m:
            m.setattr(cache, name, value)
            other = cache.cache_key("QQ", ("x", "y"), ["x", "y"], "closure",
                                    {"mode": "heuristic", "seed": 0})
        assert other != base


def test_cache_ignores_corrupt_entries(tmp_path):
    key = cache.cache_key("QQ", ("x",), ["x"], "poincare", {})
    path = os.path.join(str(tmp_path), key + ".json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert cache.lookup(str(tmp_path), key) is None
    cache.store(str(tmp_path), key, {"ok": True})
    assert cache.lookup(str(tmp_path), key) == {"ok": True}


def test_a_failed_store_leaves_no_temporary_file_and_keeps_the_old_entry(tmp_path, monkeypatch):
    key = cache.cache_key("QQ", ("x",), ["x"], "poincare", {})
    cache.store(str(tmp_path), key, {"old": True})

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cache.os, "replace", refuse)
    with pytest.raises(OSError, match="no space left"):
        cache.store(str(tmp_path), key, {"new": True})
    monkeypatch.undo()
    assert os.listdir(tmp_path) == [key + ".json"]
    assert cache.lookup(str(tmp_path), key) == {"old": True}
