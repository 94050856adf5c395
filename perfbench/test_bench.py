"""Tests of the benchmark itself, on its quick (tiny) inputs.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import staircase as st  # noqa: E402
from run import Measurement  # noqa: E402
from workloads import (EX110, EX110_CLOSURE, EX110_NUMERATOR, Op, Workload,  # noqa: E402
                       certificate_failure, skew, term_exponents)

# general checks its answers with sympy, cli its reports with jsonschema
NEEDS = {"general": "sympy", "cli": "jsonschema"}

END_TO_END = {"setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["paper", "corpus", "general", "cli"])
def test_quick_run_reports_every_end_to_end_metric(workload):
    if workload in NEEDS:
        pytest.importorskip(NEEDS[workload])
    doc = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--quick"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert set(doc["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    # the permuted-generator lookup in cli is the one failing operation per round
    per_round = 11 if workload == "cli" else None
    if per_round:
        assert doc["failed"] * per_round == doc["attempted"]
    else:
        assert doc["failed"] == 0


@pytest.mark.parametrize("workload", ["paper", "cli"])
def test_quick_traced_run_reports_the_layers(workload):
    if workload in NEEDS:
        pytest.importorskip(NEEDS[workload])
    doc = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--quick"))
    metrics = doc["metrics"]
    assert "trace.overhead_pct" in metrics
    assert metrics["closure.quotient_poincare_s"]["value"] > 0
    assert metrics["kernels.find_divisor_index_calls"]["value"] > 0
    if workload == "cli":
        assert metrics["cache.hits"]["value"] > 0
        assert metrics["cli.import_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_staircase_matches_the_paper_and_rossi_swanson():
    assert st.multiplicity(EX110) == 45
    assert st.numerator_matches(EX110_NUMERATOR, EX110)
    assert not st.numerator_matches((35, 4, 4, 4, -1), EX110)
    # (x^4, x^3y, xy^3, y^4) has closure (x, y)^4
    kc = st.colon_powers_index(st.multiplicity(skew(4, 4)), 2)
    assert st.colon_powers(skew(4, 4), kc) == {(i, 4 - i) for i in range(5)}


def test_certificate_rejects_answers_outside_the_closure():
    good = {"closure": set(EX110_CLOSURE), "is_closed": False}
    assert certificate_failure(EX110, good, 3) is None
    too_big = {"closure": EX110_CLOSURE | {(5, 3)}, "is_closed": False}
    assert certificate_failure(EX110, too_big, 3) is not None
    too_small = {"closure": {(10, 0), (0, 5)}, "is_closed": False}
    assert certificate_failure(EX110, too_small, 3) is not None


def test_only_the_named_fault_counts_as_failed():
    def op(reason):
        return Op("op", lambda: None, lambda arg: None, lambda raw: reason,
                  known_fault="the named fault")

    m = Measurement()
    m.one_round(Workload(), [op(None), op("the named fault"), op("a wrong closure")])
    assert (m.attempted, m.failed) == (3, 1)
    assert m.wrong == ["op: a wrong closure"]


def test_calibrations_inside_an_operation_are_not_its_time():
    def busy(_):
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass

    m = Measurement(calibrate=True)
    m.one_round(Workload(), [Op("busy", lambda: None, busy, lambda raw: None)])
    cal = m.calibration
    # one calibration before, one after, and one per tick in between
    assert len(cal.samples) >= 4 and cal.stolen > 0
    assert m.raw_times["busy"][0] == pytest.approx(0.6 - cal.stolen, abs=0.02)
    scale = run.REFERENCE_CALIBRATION_S / statistics.median(cal.samples)
    assert m.times()["busy"][0] == pytest.approx(m.raw_times["busy"][0] * scale)


def test_term_exponents():
    assert term_exponents("-x^10 + 3/2*x^8*y - 7*y^5 + 4") == [(10, 0), (8, 1), (0, 5), (0, 0)]


def test_groebner_oracle_decides_equality():
    pytest.importorskip("sympy")
    cases = [
        {"variables": ["x", "y"], "modulus": None, "a": ["(x+y)^2", "y^2"], "b": ["x^2", "x*y", "y^2"]},
        {"variables": ["x", "y"], "modulus": 32003, "a": ["x^2 + 2*x*y", "y^2"], "b": ["x^2", "y^2"]},
    ]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "groebner_oracle.py")],
                          input=json.dumps(cases), capture_output=True, text=True, timeout=120,
                          check=True)
    assert json.loads(proc.stdout) == [False, False]
    cases[0]["b"] = ["x^2 + 2*x*y", "y^2"]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "groebner_oracle.py")],
                          input=json.dumps(cases[:1]), capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(proc.stdout) == [True]
