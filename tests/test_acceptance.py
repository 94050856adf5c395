"""Acceptance suite.

Each criterion runs at its stated tolerance (everything here is exact) and
prints one `[acceptance] criterion N: PASS/FAIL` line.  Run under pytest
(`pytest tests/test_acceptance.py -v -s`) or standalone
(`python tests/test_acceptance.py`).
"""

import sys
import time

from rrclosure import (
    chain_term,
    closure,
    closure_power,
    closure_via_colon_powers,
    colon_powers_threshold,
    hilbert_coefficients,
    poincare_series,
)
from util_algebra import ideal_of, qq_ring, random_instance_corpus

R = qq_ring("x", "y")

EX110 = ("x^10", "y^5", "x*y^4", "x^8*y")
EX110_CLOSURE = ("x^10", "y^5", "x*y^4", "x^7*y^2", "x^6*y^3", "x^8*y")
EX14 = (
    "y^22", "x^4*y^18", "x^7*y^15", "x^8*y^14", "x^11*y^11",
    "x^14*y^8", "x^15*y^7", "x^18*y^4", "x^22",
)
EX33 = ("x^8", "x^3*y^2", "x^2*y^4", "y^8")

_BUNDLE_CACHE = {}


def criterion_1():
    """Example 1.10 pipeline, exact, under 60 s."""
    started = time.perf_counter()
    I = ideal_of(R, *EX110)
    x1, x2 = R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4")
    report = closure(I, reduction=(x1, x2))

    assert report.series.numerator == (35, 4, 4, 4, -2)
    assert report.multiplicity == 45
    assert report.postulation == 2
    by_element = dict(zip(report.certificate.elements, report.quotient_series))
    assert by_element[x1].numerator == (35, 6, 4)
    assert by_element[x2].numerator == (35, 6, 2, 2)
    assert report.postulation_joint == 2
    assert report.closure_ideal.equals(ideal_of(R, *EX110_CLOSURE))
    assert not report.is_closed

    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    return f"numerators, pn and closure exact ({elapsed:.1f}s)"


def criterion_2():
    """Example 1.4: I closed; closure(I^2) = I^2 + two monomials; under 10 min."""
    started = time.perf_counter()
    I = ideal_of(R, *EX14)
    rep = closure(I, seed=0)
    assert rep.is_closed

    rep2 = closure_power(I, 2, seed=0)
    I2 = I.power(2)
    expected = I2 + ideal_of(R, "x^24*y^20", "x^20*y^24")
    assert rep2.closure_ideal.equals(expected)
    assert rep2.closure_ideal.contains_ideal(I2)
    assert not I2.contains_ideal(rep2.closure_ideal)

    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"budget exceeded: {elapsed:.1f}s"
    return f"closed(I) and closure(I^2) exact ({elapsed:.1f}s)"


def criterion_3():
    """Example 3.3 is Ratliff-Rush closed, under 60 s."""
    started = time.perf_counter()
    rep = closure(ideal_of(R, *EX33), seed=0)
    assert rep.is_closed
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    return f"closed ({elapsed:.1f}s)"


def criterion_4():
    """Closure equals the colon-powers formula at its certified index on 20
    random monomial ideals with e0 <= 4."""
    started = time.perf_counter()
    corpus = random_instance_corpus(seed=41, count=20, ring=R, max_pure=4, e0_cap=4)
    for I in corpus:
        rep = closure(I, seed=0)
        e0 = rep.multiplicity
        assert e0 <= 4
        via_powers, bounds, certified = closure_via_colon_powers(I, e0=e0)
        assert certified
        assert bounds.colon_powers_k == 3 * (e0 * (e0 - 1) + 2)
        assert bounds.colon_powers_k == colon_powers_threshold(e0, 2)
        assert via_powers.equals(rep.closure_ideal)
    elapsed = time.perf_counter() - started
    return f"20/20 instances agree at the certified k ({elapsed:.1f}s)"


def _bundles():
    """Per-instance artifacts for the property suites, computed once."""
    if "bundles" in _BUNDLE_CACHE:
        return _BUNDLE_CACHE["bundles"]
    corpus = random_instance_corpus(seed=52, count=50, ring=R, max_pure=5,
                                    max_extra=2, e0_cap=20, skew_prob=0.4)
    bundles = []
    for I in corpus:
        rep = closure(I, seed=101)
        rep_other = closure(I, seed=202)
        pn = rep.postulation_joint
        k_hi = max(rep.k_used + 3, pn + 5, 2)
        chain = {k: chain_term(I, rep.certificate.elements, k) for k in range(1, k_hi + 1)}
        idem = closure(rep.closure_ideal, seed=101)
        closure_series = poincare_series(rep.closure_ideal)
        bundles.append(
            {
                "ideal": I,
                "report": rep,
                "other": rep_other,
                "chain": chain,
                "idempotent": idem,
                "closure_series": closure_series,
            }
        )
    _BUNDLE_CACHE["bundles"] = bundles
    return bundles


def criterion_5():
    """Property suites on 50 random instances (d = 2, e0 <= 20)."""
    started = time.perf_counter()
    bundles = _bundles()
    assert len(bundles) >= 50

    for b in bundles:
        I, rep, chain = b["ideal"], b["report"], b["chain"]
        pn, k_used = rep.postulation_joint, rep.k_used
        assert rep.series.multiplicity <= 20

        # chain monotonicity L_k <= L_{k+1} for 1 <= k <= k_used + 2
        for k in range(1, k_used + 3):
            assert chain[k + 1].contains_ideal(chain[k]), f"monotonicity at k={k}"

        # stabilization L_k = L_{k+1} for pn+1 <= k <= pn+4
        for k in range(max(pn + 1, 1), pn + 5):
            assert chain[k].equals(chain[k + 1]), f"stabilization at k={k}"

        # superficial-element identity (I^{k+1} : x_i) = I^k on the same range
        for x in rep.certificate.elements:
            for k in range(max(pn + 1, 1), pn + 5):
                assert I.power(k + 1).colon(x).equals(I.power(k)), f"colon identity at k={k}"

        assert rep.closure_ideal.equals(chain[rep.k_used])

        # binomial quotient samples, counted on the staircase, against the
        # Groebner engine's colength of the ideal sum
        for x, q in zip(rep.certificate.elements, rep.quotient_series):
            if len(x.terms) == 2:
                for n, sample in enumerate(q.samples):
                    assert sample == (I.power(n + 1) + x).colength(), f"quotient sample at n={n}"

        # extensivity and idempotence
        assert rep.closure_ideal.contains_ideal(I)
        assert b["idempotent"].is_closed
        assert b["idempotent"].closure_ideal.equals(rep.closure_ideal)

        # Hilbert coefficients preserved (j = 0, 1, 2)
        assert hilbert_coefficients(b["closure_series"]) == hilbert_coefficients(rep.series)

        # reduction independence across two seeds
        assert b["other"].closure_ideal.equals(rep.closure_ideal)

    elapsed = time.perf_counter() - started
    return f"6 property suites and a sample cross-check x {len(bundles)} instances ({elapsed:.1f}s)"


def criterion_6():
    """On every closure run: the reduction's colength equals e0 > 0, every
    series matches its Hilbert polynomial from pn on, and the chain has
    stabilized.  Where a proof, by reduction number one or by the integral
    closure, took the place of the stabilization check, the chain is checked
    here."""
    started = time.perf_counter()
    bundles = _bundles()
    reports = [b["report"] for b in bundles] + [b["other"] for b in bundles]
    reports.append(closure(ideal_of(R, *EX110), reduction=(R.parse("y^5+x^10+x^8*y"),
                                                           R.parse("x*y^4"))))
    for rep in reports:
        # e0 from the numerator equals the colength of the certified reduction
        assert rep.certificate.colength == rep.series.multiplicity
        assert "reduction-colength-equals-e0" in rep.checks_passed
        # a positive e0, and h(n) = p(n) for sampled n >= pn
        for series in (rep.series, *rep.quotient_series):
            assert series.multiplicity > 0
            for n in range(max(series.postulation, 0), len(series.samples)):
                assert series.samples[n] == series.polynomial_value(n)
        # a proof by reduction number one samples no windowed series
        if "reduction-number-one" not in rep.checks_passed:
            assert "series-consistent" in rep.checks_passed
        if "chain-stabilization" not in rep.checks_passed:
            assert {"reduction-number-one", "closure-equals-integral-closure"} & set(
                rep.checks_passed)
            I, xs, k = rep.input_ideal, rep.certificate.elements, rep.k_used
            term = chain_term(I, xs, k)
            assert term.equals(rep.closure_ideal)
            assert term.equals(chain_term(I, xs, k + 1))
    elapsed = time.perf_counter() - started
    return (f"{len(reports)} closure runs with colength = e0 > 0, h = p from pn on "
            f"and a stabilized chain ({elapsed:.1f}s)")


CRITERIA = [
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
]


def _announce(number, fn):
    try:
        detail = fn()
    except BaseException as exc:
        print(f"[acceptance] criterion {number}: FAIL — {exc}")
        raise
    print(f"[acceptance] criterion {number}: PASS — {detail}")


def test_criterion_1():
    _announce(1, criterion_1)


def test_criterion_2():
    _announce(2, criterion_2)


def test_criterion_3():
    _announce(3, criterion_3)


def test_criterion_4():
    _announce(4, criterion_4)


def test_criterion_5():
    _announce(5, criterion_5)


def test_criterion_6():
    _announce(6, criterion_6)


if __name__ == "__main__":
    failed = 0
    for number, fn in CRITERIA:
        try:
            _announce(number, fn)
        except BaseException:
            failed += 1
    sys.exit(1 if failed else 0)
