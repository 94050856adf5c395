"""rr-closure: bounds, chain terms, the closure pipeline, colon powers."""

import importlib
import itertools
import random
import sys
from types import SimpleNamespace

import pytest

from rrclosure import (
    BoundParams,
    BoundTooLargeError,
    ElementNotInIdealError,
    Ideal,
    NotMPrimaryError,
    NotSuperficialError,
    certify_sequence,
    chain_term,
    closure,
    closure_power,
    closure_via_colon_powers,
    colon_powers_threshold,
    find_superficial_sequence,
    hilbert_coefficients,
    is_ratliff_rush_closed,
    poincare_series,
    poincare_series_quotient,
    regularity_bound,
)
from util_algebra import ideal_of, minimal_set, qq_ring, random_monomial_mprimary

R = qq_ring("x", "y")
EX110 = ("x^10", "y^5", "x*y^4", "x^8*y")
EX110_CLOSURE = ("x^10", "y^5", "x*y^4", "x^7*y^2", "x^6*y^3", "x^8*y")
EX33 = ("x^8", "x^3*y^2", "x^2*y^4", "y^8")
EX14 = ("y^22", "x^4*y^18", "x^7*y^15", "x^8*y^14", "x^11*y^11", "x^14*y^8", "x^15*y^7",
        "x^18*y^4", "x^22")
SKEW44 = ("x^4", "x^3*y", "x*y^3", "y^4")
# the checks of a report proved by reduction number one, and of a staircase's
PROVED_CHECKS = ("reduction-colength-equals-e0", "reduction-number-one")
PROVED_STAIRCASE_CHECKS = ("e0-newton-polygon", *PROVED_CHECKS)


def test_bound_params_invariants():
    b = BoundParams.for_ideal(45, 2)
    assert b.regularity_bound == 45 * 44 == 1980
    assert b.colon_powers_k == 3 * (1980 + 2) == 5946
    assert colon_powers_threshold(1, 2) == 6
    b1 = BoundParams.for_ideal(5, 1)
    assert b1.regularity_bound == 4
    assert BoundParams.for_ideal(2, 3).regularity_bound == 8


def test_chain_term_examples():
    m = ideal_of(R, "x", "y")
    assert chain_term(m, (R.var("x"), R.var("y")), 1).equals(m)
    I = ideal_of(R, *EX110)
    xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
    assert chain_term(I, xs, 3).equals(ideal_of(R, *EX110_CLOSURE))
    with pytest.raises(ValueError):
        chain_term(m, (R.var("x"), R.var("y")), 0)


def test_closure_golden_example():
    I = ideal_of(R, *EX110)
    xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
    report = closure(I, reduction=xs)
    assert report.k_used == 3
    assert report.postulation_joint == 2
    assert not report.is_closed
    assert report.closure_ideal.equals(ideal_of(R, *EX110_CLOSURE))
    assert {str(g) for g in report.closure_generators} == {
        "x^10",
        "y^5",
        "x*y^4",
        "x^7*y^2",
        "x^6*y^3",
        "x^8*y",
    }
    assert "chain-stabilization" in report.checks_passed
    # d = 2: each quotient series stops exactly where its first difference
    # reaches the reduction's length 45
    assert [q.numerator for q in report.quotient_series] == [(35, 6, 4), (35, 6, 2, 2)]
    assert [len(q.samples) for q in report.quotient_series] == [3, 4]
    assert "quotient-0-exact" in report.checks_passed
    assert "quotient-1-exact" in report.checks_passed


def test_exact_stops_match_the_window_on_the_criterion_5_corpus():
    from test_acceptance import _bundles

    for b in _bundles():
        rep = b["report"]
        for i, (x, stopped) in enumerate(zip(rep.certificate.elements, rep.quotient_series)):
            if "reduction-number-one" in rep.checks_passed:
                # proved, not sampled: every quotient numerator is I's
                assert stopped.numerator == rep.series.numerator
            else:
                assert stopped.exact
                assert f"quotient-{i}-exact" in rep.checks_passed
            windowed = poincare_series_quotient(b["ideal"], x)
            assert stopped.numerator == windowed.numerator
            assert len(stopped.samples) <= len(windowed.samples)


def test_closure_of_regular_ideal():
    m = ideal_of(R, "x", "y")
    report = closure(m, seed=0)
    assert report.is_closed
    assert report.closure_ideal.equals(m)
    assert report.k_used == 1  # pn(m;xs)+1 clamps at 1


def test_closure_of_a_staircase_with_a_huge_pure_power():
    # (x^n, y) is a complete intersection, so closed; the chain colon works on
    # its two corners, not on n heights
    n = 10**6
    I = Ideal.from_exponents(R, [(n, 0), (0, 1)])
    report = closure(I, seed=0)
    assert report.is_closed
    assert report.closure_ideal.monomial_generators() == [(0, 1), (n, 0)]


def test_closure_example_33_closed():
    assert is_ratliff_rush_closed(ideal_of(R, *EX33), seed=0)


def test_closure_requires_m_primary():
    with pytest.raises(NotMPrimaryError) as err:
        closure(ideal_of(R, "x^2", "x*y"))
    assert "pure power" in str(err.value)


def test_closure_extensive_and_idempotent_small():
    I = ideal_of(R, "x^4", "x*y^2", "y^3")
    rep = closure(I, seed=0)
    assert rep.closure_ideal.contains_ideal(I)
    again = closure(rep.closure_ideal, seed=0)
    assert again.is_closed
    assert again.closure_ideal.equals(rep.closure_ideal)


def test_closure_preserves_hilbert_coefficients():
    I = ideal_of(R, *EX110)
    rep = closure(I, seed=0)
    assert hilbert_coefficients(poincare_series(rep.closure_ideal)) == hilbert_coefficients(
        rep.series
    )


def test_closure_power_examples():
    m = ideal_of(R, "x", "y")
    rep = closure_power(m, 3, seed=0)
    assert rep.closure_ideal.equals(m.power(3))
    with pytest.raises(ValueError):
        closure_power(m, 0)


def test_closure_certified_mode():
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    rep = closure(m2, mode="certified", seed=0)
    assert rep.is_closed
    assert rep.mode == "certified"


def test_closure_needs_the_reduction_inside_the_ideal():
    # a given reduction is certified before any colon: y^2 is in m^2, x is not
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    with pytest.raises(ElementNotInIdealError, match="x does not lie in the ideal"):
        closure(m2, reduction=(R.parse("x"), R.parse("y^2")))


def test_closure_takes_no_chain_index():
    # the chain index comes only from pn(I; x): a smaller one gives an ideal
    # inside the closure, so no caller may pass one
    I = ideal_of(R, *EX110)
    with pytest.raises(TypeError):
        closure(I, seed=0, k_override=1)
    rep = closure(I, seed=0)
    assert rep.k_used == max(rep.postulation_joint + 1, 1)
    assert rep.postulation_joint == max(rep.postulation,
                                        *(q.postulation for q in rep.quotient_series))


def test_closure_recovers_from_narrow_window():
    # this staircase has numerator (18, 3, 0, 1): a width-1 window stops at
    # the interior zero, underestimates e0, and must resample with a doubled
    # window (surfaced by the Newton polygon's e0 = 22)
    I = Ideal.from_exponents(R, [(0, 4), (1, 3), (2, 3), (5, 2), (6, 0)])
    narrow = closure(I, seed=0, window=1)
    normal = closure(I, seed=0)
    assert normal.series.numerator == (18, 3, 0, 1)
    assert narrow.series.numerator == normal.series.numerator
    assert narrow.closure_ideal.equals(normal.closure_ideal)
    assert narrow.series.window_used > 1
    assert "e0-newton-polygon" in narrow.checks_passed


def test_e0_mismatch_with_the_newton_polygon_is_a_failed_check(monkeypatch):
    from rrclosure import ChainUnstableError, _kernels

    monkeypatch.setattr(_kernels, "newton_polygon_e0", lambda gens: 44)
    with pytest.raises(ChainUnstableError, match="e0-newton-polygon"):
        closure(ideal_of(R, *EX110), seed=0)


def test_a_failed_check_names_itself_and_the_rounds_run(monkeypatch):
    from rrclosure import ChainUnstableError, _kernels

    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    with monkeypatch.context() as patched:
        patched.setattr(_kernels, "newton_polygon_e0", lambda gens: 44)
        with pytest.raises(ChainUnstableError) as failed:
            closure(m2, mode="certified")
    assert str(failed.value) == "failed checks after 1 round: e0-newton-polygon"
    # a chain that never agrees with its next term fails every heuristic
    # round; ex33 is closed, but with r >= 2, and its closure is not the
    # integral one, so no proof replaces the stabilization check
    monkeypatch.setattr(Ideal, "equals", lambda self, other: False)
    with pytest.raises(ChainUnstableError) as failed:
        closure(ideal_of(R, *EX33), seed=0)
    assert str(failed.value) == (
        "the colon chain did not stabilize at the predicted index; "
        "failed checks after 3 rounds: chain-stabilization")


@pytest.fixture
def poincare_windows(monkeypatch):
    """The window of every ``poincare_series`` call that ``closure`` makes."""
    closure_module = sys.modules["rrclosure.closure"]
    windows = []
    real = closure_module.poincare_series

    def recorded(I, **kwargs):
        windows.append(kwargs["window"])
        return real(I, **kwargs)

    monkeypatch.setattr(closure_module, "poincare_series", recorded)
    return windows


@pytest.mark.parametrize("reduction, message", [
    (("x*y^4",), "need 2 elements (the ring dimension), got 1"),
    # (x^10, y^5) is no reduction of ex110: its colength 50 exceeds e0 = 45
    (("x^10", "y^5"), "length of the candidate reduction at the origin is at least 50, "
                      "expected e0 = 45"),
], ids=["one-element", "x^10,y^5"])
def test_a_reduction_that_fails_against_a_proved_e0_samples_the_series_once(
        poincare_windows, reduction, message):
    # the Newton polygon proves e0 of a two-variable monomial ideal, and the
    # certification reads nothing else of the series: a wider window would
    # repeat the same check, so the first failure is final
    with pytest.raises(NotSuperficialError) as info:
        closure(ideal_of(R, *EX110), reduction=[R.parse(g) for g in reduction])
    assert str(info.value) == message
    assert poincare_windows == [None]


@pytest.mark.parametrize("case, mode, windows", [
    ("phi-ex110-QQ", "heuristic", [None, 10]),
    ("phi-ex110-GF(32003)", "heuristic", [None, 10]),
    ("xyz", "certified", [None]),
    ("xyz", "heuristic", [None, 12]),
], ids=["phi-ex110-QQ", "phi-ex110-GF(32003)", "xyz-certified", "xyz-heuristic"])
def test_a_refused_reduction_resamples_only_while_a_wider_window_can_change_e0(
        poincare_windows, case, mode, windows):
    # no Newton polygon proves e0 here: phi(ex110) is not monomial (phi:
    # x -> x+y), (x, y, z) has three variables.  Certified mode samples to
    # the proved bound, so a wider window changes nothing; heuristic mode
    # resamples once, reads the same e0 and re-raises the same refusal
    from rrclosure import GF, QQ, PolyRing

    if case == "xyz":
        S = qq_ring("x", "y", "z")
        I, reduction = ideal_of(S, "x", "y", "z"), [S.parse(g) for g in ("x", "y", "x+y")]
        message = "at least 2, expected e0 = 1"
    else:
        S = PolyRing(QQ if case.endswith("QQ") else GF(32003), ("x", "y"))
        phi = [S.parse(g.replace("x", "(x+y)")) for g in EX110]
        I, reduction = Ideal(S, phi), phi[:2]
        message = "at least 50, expected e0 = 45"
    with pytest.raises(NotSuperficialError) as info:
        closure(I, reduction=reduction, mode=mode)
    assert str(info.value) == "length of the candidate reduction at the origin is " + message
    assert poincare_windows == windows


def test_phase_times_add_up_over_retry_rounds(monkeypatch):
    # a clock that ticks once per reading times every phase run as 1; the
    # Poincare phase reads h(0..2) for the reduction-number-one shortcut,
    # which the staircase guard then refuses (h(1) - 2*h(0) = 57 - 36 = 21
    # against the Newton polygon's e0 = 22), and then the narrow window fails the
    # first round at the Newton polygon's e0, before the reduction, so the
    # Poincare phase runs three times and the rest once
    closure_module = importlib.import_module("rrclosure.closure")
    clock = SimpleNamespace(perf_counter=itertools.count().__next__)
    monkeypatch.setattr(closure_module, "time", clock)
    I = Ideal.from_exponents(R, [(0, 4), (1, 3), (2, 3), (5, 2), (6, 0)])
    rep = closure(I, seed=0, window=1)
    assert rep.series.window_used == 2
    assert rep.timings == {
        "poincare": 3,
        "reduction": 1,
        "quotient-poincare": 1,
        "chain-colon": 1,
        "stabilization-check": 1,
    }


def test_colon_powers_examples():
    m = ideal_of(R, "x", "y")
    result, bounds, certified = closure_via_colon_powers(m)
    assert bounds.colon_powers_k == 6
    assert certified
    assert result.equals(m)

    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    result, bounds, certified = closure_via_colon_powers(m2)
    assert bounds.colon_powers_k == 42
    assert certified
    assert result.equals(m2)


def test_colon_powers_bound_too_large_and_override():
    I = ideal_of(R, *EX110)
    with pytest.raises(BoundTooLargeError):
        closure_via_colon_powers(I)  # certified k = 5946 over the cap
    result, bounds, certified = closure_via_colon_powers(I, k=4)
    assert not certified
    assert bounds.colon_powers_k == 5946
    assert result.equals(ideal_of(R, *EX110_CLOSURE))


def test_closure_of_skew_quadruple_adds_interior_monomial():
    # the smallest classic non-closed example: x^2*y^2 joins the closure
    I = ideal_of(R, "x^4", "x^3*y", "x*y^3", "y^4")
    rep = closure(I, seed=0)
    assert not rep.is_closed
    assert rep.closure_ideal.equals(I + ideal_of(R, "x^2*y^2"))


def test_closure_of_non_monomial_input():
    I = ideal_of(R, "x^4 + x*y^3", "y^4 + x^3*y", "x^2*y^2")
    rep = closure(I, seed=0)
    assert rep.multiplicity == 16
    assert rep.is_closed
    again = closure(rep.closure_ideal, seed=3)
    assert again.closure_ideal.equals(rep.closure_ideal)
    assert hilbert_coefficients(poincare_series(rep.closure_ideal)) == hilbert_coefficients(
        rep.series
    )


def test_closure_dimension_one():
    from rrclosure import PolyRing, QQ

    S = PolyRing(QQ, ("x",))
    rep = closure(Ideal(S, [S.parse("x^3")]), seed=0)
    assert rep.is_closed
    assert rep.multiplicity == 3
    assert rep.k_used == 1
    # m-primary is required in the polynomial ring itself: x^3+x^4 has a
    # second zero at -1 and is rejected up front
    with pytest.raises(NotMPrimaryError):
        closure(Ideal(S, [S.parse("x^3 + x^4")]), seed=0)


def test_closure_dimension_three():
    from rrclosure import PolyRing, QQ

    T = PolyRing(QQ, ("x", "y", "z"))
    m2 = Ideal(T, [T.parse(s) for s in ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2")])
    rep = closure(m2, seed=0)
    assert rep.is_closed
    assert rep.multiplicity == 8
    mixed = Ideal(T, [T.parse(s) for s in ("x^2", "y^3", "z^3", "x*y*z")])
    rep2 = closure(mixed, seed=0)
    assert rep2.is_closed
    assert rep2.multiplicity == 18
    # the monomial route agrees with the exact colon by tag elimination
    for I, r in ((m2, rep), (mixed, rep2)):
        assert r.closure_ideal.equals(chain_term(I, r.certificate.elements, r.k_used))
    # the exact quotient stop and the Newton polygon's e0 are for d = 2 only
    assert not any(c.endswith("-exact") for c in rep.checks_passed + rep2.checks_passed)
    assert "e0-newton-polygon" not in rep.checks_passed + rep2.checks_passed


def test_closure_dimension_three_with_mixed_generators():
    # its quotient samples I^{n+1} + (x_i) are large staircases plus one
    # polynomial, which the engine takes without pair updates for the monomials
    from rrclosure import PolyRing, QQ

    T = PolyRing(QQ, ("x", "y", "z"))
    I = Ideal(T, [T.parse(s) for s in ("x^3", "y^3", "z^3", "x^2*y", "y^2*z")])
    rep = closure(I, seed=0)
    assert rep.is_closed
    assert rep.k_used == 3
    assert [str(g) for g in rep.closure_ideal.generators] == [
        "z^3", "y^2*z", "y^3", "x^2*y", "x^3"]


def test_monomial_input_never_takes_the_tag_elimination_colon(monkeypatch):
    from rrclosure import PolyRing, QQ

    def forbidden(*args, **kwargs):
        raise AssertionError("a monomial closure reached the exact colon")

    monkeypatch.setattr(importlib.import_module("rrclosure.closure"), "chain_term", forbidden)
    monkeypatch.setattr(importlib.import_module("rrclosure.ideals"), "_tag_intersection",
                        forbidden)
    S = PolyRing(QQ, ("x",))
    assert closure(Ideal(S, [S.parse("x^5")]), seed=0).is_closed
    T = PolyRing(QQ, ("x", "y", "z"))
    rep = closure(Ideal(T, [T.parse(s) for s in ("x^2", "x*y", "y^2", "z^2")]), seed=0)
    assert rep.multiplicity == 8
    # (I^{k+1} : I^k) and every colon of a monomial ideal by monomials take
    # the staircase kernel, whether the divisors come as an ideal, a list or
    # one monomial
    I = ideal_of(R, *EX110)
    A, _, _ = closure_via_colon_powers(I, k=3)
    assert A.equals(ideal_of(R, *EX110_CLOSURE))
    J = Ideal(T, [T.parse(s) for s in ("x^3", "y^3", "z^3", "x^2*y", "y^2*z")])
    for divisors in (J.power(2), list(J.generators), T.parse("x*y*z")):
        assert J.power(3).colon(divisors).monomial_generators() is not None


@pytest.mark.parametrize("case, binomial", [
    ("ex14", True),
    ("ex14-squared", True),
    ("skew44", True),
    ("ex110", False),  # the searched elements are trinomials
])
def test_binomial_quotient_samples_never_reach_the_engine(monkeypatch, case, binomial):
    gens = {"ex110": EX110, "ex14": EX14, "ex14-squared": EX14, "skew44": SKEW44}[case]
    I = ideal_of(R, *gens)
    rep = closure_power(I, 2, seed=0) if case == "ex14-squared" else closure(I, seed=0)
    I, cert = rep.input_ideal, rep.certificate
    assert all(len(x.terms) == (2 if binomial else 3) for x in cert.elements)
    ideals = importlib.import_module("rrclosure.ideals")
    calls = []

    def counted(*args, original=ideals._engine_groebner):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    for x, q in zip(cert.elements, rep.quotient_series):
        samples = poincare_series_quotient(I, x, reduction=cert).samples
        assert bool(calls) is not binomial
        assert samples == q.samples
        assert samples == tuple((I.power(n + 1) + x).colength() for n in range(len(samples)))
        calls.clear()


@pytest.mark.parametrize("case", ["ex110-QQ", "phi-skew33-GF(32003)"])
def test_the_first_quotient_sample_is_the_colength_of_the_ideal(monkeypatch, case):
    # x lies in I, so I + (x) = I: the sample at n = 0 needs no Groebner basis,
    # not even for a trinomial or a non-monomial I
    from rrclosure import GF, PolyRing, hilbert_samuel_quotient

    if case == "ex110-QQ":
        I = ideal_of(R, *EX110)
    else:
        S = PolyRing(GF(32003), ("x", "y"))
        I = Ideal(S, [S.parse(g.replace("x", "(x+y)")) for g in ("x^3", "x^2*y", "x*y^2", "y^3")])
    rep = closure(I, seed=0)
    x = rep.certificate.elements[0]
    if case == "ex110-QQ":
        assert len(x.terms) == 3  # the searched trinomial
    ideals = importlib.import_module("rrclosure.ideals")
    calls = []

    def counted(*args, original=ideals._engine_groebner):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    first = hilbert_samuel_quotient(I, x, 0)
    assert not calls
    assert first == I.colength() == rep.quotient_series[0].samples[0]
    assert first == (I + x).colength()


def assert_staircase_certificate(J, rep):
    # A contains J and A * J^k lies in J^{k+1}, so J <= A <= the closure
    A, k = rep.closure_ideal, rep.k_used
    assert A.contains_ideal(J)
    assert J.power(k + 1).contains_ideal(A.multiply(J.power(k)))


# the closures of the three-vertex skew ideals (x^a, x^{a-1}y, xy^{b-1}, y^b)
# of the benchmark corpus at search seed 1, each listed as its report lists
# it; four more of them have reduction number one (SEED1_PROVED_SKEWS)
SEED1_SKEWS = [
    (("y^4", "x*y^3", "x^4*y", "x^5"), ["y^4", "x*y^3", "x^3*y^2", "x^4*y", "x^5"]),
    (("y^5", "x*y^4", "x^3*y", "x^4"), ["x^3*y", "x^4", "y^5", "x*y^4", "x^2*y^3"]),
]
SEED1_PROVED_SKEWS = [
    # integrally closed
    (("y^3", "x*y^2", "x^3*y", "x^4"), ["y^3", "x*y^2", "x^3*y", "x^4"]),
    (("y^4", "x*y^3", "x^2*y", "x^3"), ["x^2*y", "x^3", "y^4", "x*y^3"]),
    # closed, but not integrally closed
    (("y^3", "x*y^2", "x^4*y", "x^5"), ["y^3", "x*y^2", "x^4*y", "x^5"]),
    (("y^5", "x*y^4", "x^2*y", "x^3"), ["x^2*y", "x^3", "y^5", "x*y^4"]),
]


def count_quotient_series_calls(monkeypatch):
    closure_module = importlib.import_module("rrclosure.closure")
    calls = []

    def counted(*args, original=closure_module.poincare_series_quotient, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(closure_module, "poincare_series_quotient", counted)
    return calls


@pytest.mark.parametrize("gens, closed", SEED1_SKEWS, ids=["+".join(g) for g, _ in SEED1_SKEWS])
def test_seed1_skew_samples_one_quotient_series(monkeypatch, gens, closed):
    # the first vertex draw at seed 1 is degenerate on each of these; the
    # second draw combines the three vertices again, so both elements share
    # one affinely independent support and one quotient series
    calls = count_quotient_series_calls(monkeypatch)
    I = ideal_of(R, *gens)
    rep = closure(I, seed=1)
    assert rep.certificate.attempts == 2
    assert len(calls) == 1
    assert [str(g) for g in rep.closure_generators] == closed
    assert_staircase_certificate(I, rep)


@pytest.mark.parametrize("gens, closed", SEED1_PROVED_SKEWS,
                         ids=["+".join(g) for g, _ in SEED1_PROVED_SKEWS])
def test_seed1_proved_skews_sample_no_quotient_series(monkeypatch, gens, closed):
    # the same degenerate first draw, but r_J(I) <= 1: the search against
    # h(1) - 2*h(0) certifies the second draw, and no quotient series is
    # sampled at all
    calls = count_quotient_series_calls(monkeypatch)
    I = ideal_of(R, *gens)
    rep = closure(I, seed=1)
    assert rep.certificate.attempts == 2
    assert rep.checks_passed == PROVED_STAIRCASE_CHECKS
    assert not calls
    assert [str(g) for g in rep.closure_generators] == closed
    assert_staircase_certificate(I, rep)


def closure_and_quotient_engine_runs(monkeypatch, I, **opts):
    """The closure of I and the list of engine runs made inside
    ``closure._quotient_series``, during the closure and after it."""
    closure_module = importlib.import_module("rrclosure.closure")
    ideals = importlib.import_module("rrclosure.ideals")
    runs, inside = [], []

    def sampled(*args, original=closure_module._quotient_series, **kwargs):
        inside.append(True)
        try:
            return original(*args, **kwargs)
        finally:
            inside.pop()

    def counted(*args, original=ideals._engine_groebner):
        if inside:
            runs.append(args)
        return original(*args)

    monkeypatch.setattr(closure_module, "_quotient_series", sampled)
    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    return closure(I, **opts), runs


# trinomial closures of the benchmark corpus: staircases with one or two
# inner corners on the Newton polygon, at search seeds 0..2
CORPUS_TRINOMIALS = [
    (("y^2", "x*y", "x^5"), 0),
    (("y^4", "x*y", "x^3"), 0),
    (("y^3", "x*y^2", "x^3*y", "x^4"), 1),
    (("y^4", "x*y^3", "x^4*y", "x^5"), 2),
    (("y^5", "x*y^4", "x^3*y", "x^4"), 0),
]


TRINOMIAL_CLOSURES = [(g, 1) for g, _ in SEED1_SKEWS + SEED1_PROVED_SKEWS[2:]] + CORPUS_TRINOMIALS


@pytest.mark.parametrize("gens, seed", TRINOMIAL_CLOSURES,
                         ids=[f"{'+'.join(g)}-seed{s}" for g, s in TRINOMIAL_CLOSURES])
def test_trinomial_quotient_samples_come_from_the_bounds(monkeypatch, gens, seed):
    # every trinomial element has a term on each edge of NP(I), and from
    # n = 1 its floor and ceiling meet: the quotient series run no engine.
    # A closure proved by reduction number one samples none, so they are
    # sampled here, for its certified reduction
    I = ideal_of(R, *gens)
    rep, runs = closure_and_quotient_engine_runs(monkeypatch, I, seed=seed)
    assert all(len(x.terms) == 3 for x in rep.certificate.elements)
    quotients = rep.quotient_series
    if "reduction-number-one" in rep.checks_passed:
        quotients = importlib.import_module("rrclosure.closure")._quotient_series(
            I, rep.certificate)
        assert [q.numerator for q in quotients] == [q.numerator for q in rep.quotient_series]
    assert not runs
    for x, q in zip(rep.certificate.elements, quotients):
        assert q.samples == tuple((I.power(n + 1) + x).colength() for n in range(len(q.samples)))


def test_ex110_searched_still_takes_the_engine_where_the_bounds_stay_apart(monkeypatch):
    from rrclosure import hilbert_samuel_quotient
    from rrclosure.hilbert import _quotient_length

    I = ideal_of(R, *EX110)
    rep, runs = closure_and_quotient_engine_runs(monkeypatch, I, seed=0)
    x, cert = rep.certificate.elements[0], rep.certificate
    assert len(x.terms) == 3
    assert len(runs) == 2  # one series for both elements, engine at n = 1 and 2
    ideals = importlib.import_module("rrclosure.ideals")
    calls = []

    def counted(*args, original=ideals._engine_groebner):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    length, by_engine = _quotient_length(I, x, cert.colength), []
    for n, want in enumerate(rep.quotient_series[0].samples):
        calls.clear()
        assert length(n) == want
        if calls:
            by_engine.append(n)
    assert by_engine == [1, 2]
    # the bounds without the step ceiling give the same samples
    for n in range(5):
        assert hilbert_samuel_quotient(I, x, n) == (I.power(n + 1) + x).colength()


def test_closure_power_of_the_shipped_examples():
    # the searched candidates of these squares combine only the 3 vertices
    # of the Newton polygon, which keeps the QQ truncations J + I^t that
    # certify them small
    rep = closure_power(ideal_of(R, *EX110), 2, seed=0)
    assert rep.certificate.attempts == 1
    assert [str(g) for g in rep.closure_generators] == [
        "y^10", "x*y^9", "x^2*y^8", "x^7*y^7", "x^8*y^6", "x^9*y^5", "x^11*y^4", "x^15*y^3",
        "x^16*y^2", "x^18*y", "x^20"]
    assert not rep.is_closed
    assert_staircase_certificate(ideal_of(R, *EX110).power(2), rep)
    rep = closure_power(ideal_of(R, *EX33), 2, seed=0)
    assert rep.certificate.attempts == 1
    assert rep.is_closed
    assert_staircase_certificate(ideal_of(R, *EX33).power(2), rep)
    assert "e0-newton-polygon" in rep.checks_passed


def test_closure_over_prime_field():
    from rrclosure import GF, PolyRing

    S = PolyRing(GF(32003), ("x", "y"))
    I = Ideal(S, [S.parse(s) for s in EX110])
    rep = closure(I, seed=0)
    expected = Ideal(S, [S.parse(s) for s in EX110_CLOSURE])
    assert rep.closure_ideal.equals(expected)
    assert rep.multiplicity == 45


def test_prime_field_pipeline_matches_rationals():
    from rrclosure import GF, PolyRing
    from util_algebra import random_instance_corpus

    S = PolyRing(GF(32003), ("x", "y"))
    for I in random_instance_corpus(seed=31, count=8, ring=R, max_pure=5,
                                    e0_cap=20, skew_prob=0.5):
        J = Ideal.from_exponents(S, I.monomial_generators())
        rep_q = closure(I, seed=11)
        rep_p = closure(J, seed=11)
        assert rep_p.series.numerator == rep_q.series.numerator
        assert set(rep_p.closure_ideal.monomial_generators()) == set(
            rep_q.closure_ideal.monomial_generators()
        )


def test_reduction_independence_two_seeds():
    I = ideal_of(R, *EX33)
    a = closure(I, seed=1)
    b = closure(I, seed=2)
    assert a.certificate.elements != b.certificate.elements
    assert a.closure_ideal.equals(b.closure_ideal)


def test_chain_monotone_on_golden_example():
    I = ideal_of(R, *EX110)
    rep = closure(I, seed=0)
    xs = rep.certificate.elements
    terms = [chain_term(I, xs, k) for k in range(1, rep.k_used + 3)]
    for earlier, later in zip(terms, terms[1:]):
        assert later.contains_ideal(earlier)


EXACT_CHECKS = (
    "series-consistent",
    "e0-newton-polygon",
    "reduction-colength-equals-e0",
    "quotient-0-consistent",
    "quotient-0-exact",
    "quotient-1-consistent",
    "quotient-1-exact",
    "chain-stabilization",
)


@pytest.mark.parametrize("case", ["ex14-squared", "ex110-paper-reduction"])
def test_reports_are_pinned_in_order(case):
    # reports and cache entries list generators in kernel order, so the
    # order, the samples and the checks are all part of the visible answer
    if case == "ex14-squared":
        rep = closure_power(ideal_of(R, *EX14), 2, seed=0)
        want_gens = (
            "y^44", "x^4*y^40", "x^7*y^37", "x^8*y^36", "x^11*y^33", "x^12*y^32", "x^14*y^30",
            "x^15*y^29", "x^16*y^28", "x^18*y^26", "x^19*y^25", "x^20*y^24", "x^21*y^23",
            "x^22*y^22", "x^23*y^21", "x^24*y^20", "x^25*y^19", "x^26*y^18", "x^28*y^16",
            "x^29*y^15", "x^30*y^14", "x^32*y^12", "x^33*y^11", "x^36*y^8", "x^37*y^7",
            "x^40*y^4", "x^44",
        )
        want_samples = (1020, 3944, 8806, 15604, 24338, 35008, 47614, 62156, 78634)
        want_quotients = ((1020, 2926, 4862), (1020, 2926, 4862))
        want_k = 2
    else:
        xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
        rep = closure(ideal_of(R, *EX110), reduction=xs)
        want_gens = ("y^5", "x*y^4", "x^6*y^3", "x^7*y^2", "x^8*y", "x^10")
        want_samples = (35, 109, 226, 390, 599, 853, 1152, 1496, 1885, 2319)
        want_quotients = ((35, 76, 121), (35, 76, 119, 164))
        want_k = 3
    assert tuple(str(g) for g in rep.closure_generators) == want_gens
    assert rep.series.samples == want_samples
    assert tuple(q.samples for q in rep.quotient_series) == want_quotients
    assert rep.k_used == want_k
    assert rep.checks_passed == EXACT_CHECKS


def _orbit_case(case):
    from rrclosure import PolyRing, QQ

    if case == "ex14":
        closure(ideal_of(R, *EX14), seed=0)
    elif case == "ex14-squared":
        closure_power(ideal_of(R, *EX14), 2, seed=0)
    elif case == "dimension-three":
        T = PolyRing(QQ, ("x", "y", "z"))
        I = Ideal(T, [T.parse(s) for s in ("x^3", "y^3", "z^3", "x^2*y", "y^2*z")])
        assert len(closure(I, seed=0).quotient_series) == 3
    elif case == "ex110-paper-reduction":
        xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
        closure(ideal_of(R, *EX110), reduction=xs)
    elif case == "phi-skew":
        closure(ideal_of(R, "(x+y)^4", "(x+y)^3*y", "(x+y)*y^3", "y^4"), seed=0)
    else:
        xs = (R.parse("x^4 + 2*x^3*y + 3*x*y^3 + 5*y^4"),
              R.parse("2*x^4 - x^3*y + x*y^3 - 3*y^4"))
        closure(ideal_of(R, *SKEW44), reduction=xs)


@pytest.mark.parametrize("case, calls", [
    ("ex14", 1),
    ("ex14-squared", 1),
    ("dimension-three", 1),
    ("ex110-paper-reduction", 2),  # the two elements have different supports
    ("phi-skew", 2),  # not monomial
    ("skew-four-term-reduction", 2),  # four points in the plane: affinely dependent
])
def test_one_quotient_series_per_torus_orbit(monkeypatch, case, calls):
    # the elements of a monomial ideal's reduction that share an affinely
    # independent support are one torus orbit, sampled once
    made = []
    for name in ("rrclosure.closure", "rrclosure.hilbert"):
        module = importlib.import_module(name)

        def counted(*args, original=module.poincare_series_quotient, **kwargs):
            made.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "poincare_series_quotient", counted)
    _orbit_case(case)
    assert len(made) == calls


# -- reduction number one: the proved shortcut --------------------------------

CORPUS_THREE = (("x^2", "y^2", "z^2"), ("x^3", "y^2", "z^2"), ("x^2", "x*y", "y^2", "z^2"))


def _assert_the_old_route_agrees(I, rep):
    # every number of a proved report, recomputed through the public calls
    # that the full pipeline makes
    cert = rep.certificate
    assert rep.is_closed and rep.closure_ideal.equals(I)
    assert rep.series.numerator == poincare_series(I).numerator
    for x, q in zip(cert.elements, rep.quotient_series):
        assert q.numerator == poincare_series_quotient(I, x, reduction=cert).numerator
    assert chain_term(I, cert.elements, rep.k_used + 1).equals(I)
    assert cert.colength == cert.multiplicity == rep.multiplicity


def _assert_the_windowed_search_agrees(I, rep):
    # the certificate is the one the search makes for the windowed series
    assert rep.certificate == find_superficial_sequence(
        I, poincare_series(I).multiplicity, seed=rep.certificate.seed)


def _forbid_sampling_and_colons(monkeypatch):
    """No window, no quotient series, no chain colon, no colength of the
    integral closure (the answer check after the colon) and no power past
    I^3."""
    closure_module = importlib.import_module("rrclosure.closure")
    kernels = importlib.import_module("rrclosure._kernels")

    def forbidden(*args, **kwargs):
        raise AssertionError("a proved closure sampled a series or took a colon")

    for name in ("poincare_series", "poincare_series_quotient", "chain_term",
                 "_monomial_chain_term"):
        monkeypatch.setattr(closure_module, name, forbidden)
    monkeypatch.setattr(kernels, "integral_closure_colength", forbidden)
    power = Ideal.power

    def up_to_the_cube(self, n):
        assert n <= 3, f"a proved closure built the power {n}"
        return power(self, n)

    monkeypatch.setattr(Ideal, "power", up_to_the_cube)


def _recorded_certifications(monkeypatch):
    """(target, passed) for every length test of a candidate reduction, the
    caller's or the search's draws, in order."""
    closure_module = importlib.import_module("rrclosure.closure")
    reductions = importlib.import_module("rrclosure.reductions")
    certify = reductions.certify_sequence
    outcomes = []

    def recorded(I, elements, e0, **kwargs):
        try:
            cert = certify(I, elements, e0, **kwargs)
        except NotSuperficialError:
            outcomes.append((e0, False))
            raise
        outcomes.append((e0, True))
        return cert

    monkeypatch.setattr(reductions, "certify_sequence", recorded)
    monkeypatch.setattr(closure_module, "certify_sequence", recorded)
    return outcomes


@pytest.mark.parametrize("gens", CORPUS_THREE, ids=["+".join(g) for g in CORPUS_THREE])
def test_the_corpus_three_variable_closures_end_at_the_cube(monkeypatch, gens):
    _forbid_sampling_and_colons(monkeypatch)
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, *gens)
    rep = closure(I, seed=0)
    assert rep.checks_passed == PROVED_CHECKS
    assert set(rep.timings) == {"poincare", "reduction"}
    assert rep.series.samples == tuple(I.power(n + 1).colength() for n in range(3))
    assert all(q.samples == (I.colength(),) for q in rep.quotient_series)
    assert rep.certificate.attempts == 1
    assert rep.k_used == 1
    monkeypatch.undo()
    _assert_the_old_route_agrees(I, rep)
    _assert_the_windowed_search_agrees(I, rep)


@pytest.mark.parametrize("gens, numerator", [
    (("x^2", "y^2", "z^2"), (8,)),
    (("x^2", "x*y", "y^2", "z^2"), (6, 2)),
])
def test_certified_mode_proves_reduction_number_one(gens, numerator):
    # the regularity bound asks 25,093 samples of both, past the 4,096 cap
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, *gens)
    with pytest.raises(BoundTooLargeError):
        poincare_series(I, mode="certified")
    rep = closure(I, mode="certified", seed=0)
    assert rep.mode == rep.series.mode == "certified"
    assert rep.checks_passed == PROVED_CHECKS
    assert rep.series.numerator == numerator
    assert all(q.numerator == numerator and q.mode == "certified" for q in rep.quotient_series)
    assert rep.is_closed


def test_a_given_reduction_is_tested_as_given(monkeypatch):
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, "x^2", "x*y", "y^2", "z^2")
    xs = [T.parse(g) for g in ("x^2 + z^2", "y^2 - x*y", "z^2 + 3*x*y")]
    outcomes = _recorded_certifications(monkeypatch)
    rep = closure(I, reduction=xs, seed=4)
    # h = (6, 26, 66): the target is h(1) - 3*h(0) = 8, tested once
    assert outcomes == [(8, True)]
    assert rep.checks_passed == PROVED_CHECKS
    assert rep.certificate == certify_sequence(I, xs, 8, seed=4)
    assert rep.certificate.elements == tuple(xs)
    assert (rep.certificate.seed, rep.certificate.attempts) == (4, 0)
    # an element outside I is refused by the certification, as before
    with pytest.raises(ElementNotInIdealError):
        closure(I, reduction=[T.parse("x"), *xs[1:]])


def test_a_first_draw_that_is_no_reduction_falls_through_to_the_search(monkeypatch):
    # the shape check passes, and the search against h(1) - 3*h(0) = 16
    # refuses the first vertex draw and certifies the second, before any
    # window
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, "x^4", "y^3", "z^2", "x^2*y", "x*z")
    assert [I.power(n + 1).colength() for n in range(3)] == [11, 49, 130]
    outcomes = _recorded_certifications(monkeypatch)
    _forbid_sampling_and_colons(monkeypatch)
    rep = closure(I, seed=0)
    assert outcomes == [(16, False), (16, True)]
    assert rep.certificate.attempts == 2
    assert rep.checks_passed == PROVED_CHECKS
    assert "quotient-poincare" not in rep.timings
    monkeypatch.undo()
    _assert_the_old_route_agrees(I, rep)
    _assert_the_windowed_search_agrees(I, rep)


@pytest.mark.parametrize("case", ["ex110", "phi-ex110", "x^3+y^3+z^3+x^2y+y^2z"])
def test_the_shape_check_spares_the_search_where_reduction_number_one_fails(
        monkeypatch, case):
    # all three fail the shape check, so the only length tests are the
    # round's, against the sampled e0
    outcomes = _recorded_certifications(monkeypatch)
    if case == "ex110":
        I = ideal_of(R, *EX110)
    elif case == "phi-ex110":
        I = ideal_of(R, *(g.replace("x", "(x+y)") for g in EX110))
    else:
        I = ideal_of(qq_ring("x", "y", "z"), "x^3", "y^3", "z^3", "x^2*y", "y^2*z")
    h = [I.power(n + 1).colength() for n in range(3)]
    d = I.ring.dim
    assert h[2] != (d + 1) * h[1] - d * (d + 1) // 2 * h[0]
    rep = closure(I, seed=0)
    assert outcomes and {target for target, _ in outcomes} == {rep.multiplicity}
    assert "reduction-number-one" not in rep.checks_passed


def test_the_staircase_guard_spares_the_search_where_e0_exceeds_the_target(monkeypatch):
    # h = (12, 39, 81) has the shape of r <= 1, but h(1) - 2*h(0) = 15 lies
    # below the Newton polygon's e0 = 16: r >= 2, and no draw could pass
    I = ideal_of(R, "y^4", "x^2*y^3", "x^3*y", "x^4")
    h = [I.power(n + 1).colength() for n in range(3)]
    assert h == [12, 39, 81] and h[2] == 3 * h[1] - 3 * h[0]
    outcomes = _recorded_certifications(monkeypatch)
    rep = closure(I, seed=0)
    assert outcomes == [(16, True)]
    assert rep.multiplicity == 16
    assert rep.series.numerator == (12, 3, 0, 1)
    assert rep.is_closed
    assert [str(g) for g in rep.closure_generators] == ["y^4", "x^3*y", "x^4", "x^2*y^3"]
    assert "chain-stabilization" in rep.checks_passed
    assert "reduction-number-one" not in rep.checks_passed


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
def test_a_shape_without_reduction_number_one_falls_through_after_every_draw(
        monkeypatch, field):
    # in three variables no guard applies: h = (17, 74, 194) has the shape,
    # but h(1) - 3*h(0) = 23 lies below e0 = 24, so the search refuses all
    # its draws and the round runs as before
    from rrclosure import GF, PolyRing, QQ, reductions

    T = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y", "z"))
    I = ideal_of(T, "z^3", "y^2", "x*y*z", "x^3*z^2", "x^4")
    assert [I.power(n + 1).colength() for n in range(3)] == [17, 74, 194]
    outcomes = _recorded_certifications(monkeypatch)
    rep = closure(I, seed=0)
    assert outcomes == [(23, False)] * reductions.DEFAULT_MAX_ATTEMPTS + [(24, True)]
    assert rep.series.numerator == (17, 6, 0, 1)
    assert rep.is_closed
    assert [str(g) for g in rep.closure_generators] == [
        "y^2", "z^3", "x*y*z", "x^4", "x^3*z^2"]
    assert rep.checks_passed[-1] == "chain-stabilization"
    assert rep.certificate.attempts == 1
    # certified mode's sampling bound is out of reach, as it was
    with pytest.raises(BoundTooLargeError, match="needed 7312901 length samples"):
        closure(I, mode="certified", seed=0)


def test_random_three_variable_staircases_agree_with_the_full_pipeline():
    from util_algebra import random_instance_corpus

    T = qq_ring("x", "y", "z")
    proved = 0
    for I in random_instance_corpus(seed=36, count=12, ring=T, max_pure=3):
        rep = closure(I, seed=0)
        if "reduction-number-one" in rep.checks_passed:
            proved += 1
            _assert_the_old_route_agrees(I, rep)
    assert proved == 12


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
def test_phi_images_of_closed_staircases_agree_with_the_full_pipeline(field):
    from rrclosure import GF, PolyRing, QQ

    S = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y"))
    proved = 0
    for exps in ([(0, 3), (1, 1), (3, 0)], [(0, 4), (2, 2), (4, 0)], [(0, 4), (1, 2), (3, 0)],
                 [(0, 3), (2, 1), (4, 0)]):
        assert closure(Ideal.from_exponents(R, exps), seed=0).is_closed
        I = Ideal(S, [(S.var(0) + S.var(1)) ** a * S.var(1) ** b for a, b in exps])  # x -> x+y
        rep = closure(I, seed=0)
        assert rep.is_closed
        if "reduction-number-one" in rep.checks_passed:
            proved += 1
            _assert_the_old_route_agrees(I, rep)
    assert proved == 4


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
def test_every_proved_staircase_and_phi_image_agrees_with_the_windowed_route(field):
    # a property test: over random staircases and their images under
    # x -> x+y, every report proved by reduction number one has the numbers
    # and the certificate of the windowed route, and no other report says so
    from rrclosure import GF, PolyRing, QQ
    from util_algebra import random_instance_corpus

    S = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y"))
    proved = {"staircase": 0, "phi": 0}
    for I in random_instance_corpus(seed=39, count=16, ring=R, max_pure=4, skew_prob=0.4):
        exps = I.monomial_generators()
        images = {"staircase": Ideal.from_exponents(S, exps),
                  "phi": Ideal(S, [(S.var(0) + S.var(1)) ** a * S.var(1) ** b for a, b in exps])}
        for kind, J in images.items():
            rep = closure(J, seed=0)
            if "reduction-number-one" in rep.checks_passed:
                proved[kind] += 1
                _assert_the_old_route_agrees(J, rep)
                _assert_the_windowed_search_agrees(J, rep)
            else:
                assert {"chain-stabilization", "closure-equals-integral-closure"} & set(
                    rep.checks_passed)
    # x -> x+y keeps the reduction number, so the images are proved alike
    assert proved["staircase"] == proved["phi"] > 0, proved


# -- the integral closure: integrally closed staircases, and answers it proves --


def _bar(I, n=1):
    from util_algebra import brute_integral_closure_colength

    return brute_integral_closure_colength(I.monomial_generators(), n)


INTEGRALLY_CLOSED = [
    ("x^5", "x^4*y", "x^3*y^2", "x^2*y^3", "x*y^4", "y^5"),  # (x, y)^5
    ("x^3", "x*y", "y^3"),
    ("x^7", "y"),
    SEED1_PROVED_SKEWS[0][0],
]


@pytest.mark.parametrize("gens", INTEGRALLY_CLOSED, ids=["+".join(g) for g in INTEGRALLY_CLOSED])
@pytest.mark.parametrize("mode", ["heuristic", "certified"])
def test_integrally_closed_staircases_end_at_the_cube(monkeypatch, gens, mode):
    # an integrally closed I has r <= 1 (Huneke; Ooishi), so the shortcut
    # proves it, in either mode, with no power past I^3
    _forbid_sampling_and_colons(monkeypatch)
    I = ideal_of(R, *gens)
    rep = closure(I, mode=mode, seed=0)
    assert rep.checks_passed == PROVED_STAIRCASE_CHECKS
    assert set(rep.timings) == {"poincare", "reduction"}
    assert rep.mode == rep.series.mode == mode
    # every power of I is integrally closed (Zariski): h(n) is the Pick count
    assert rep.series.samples == tuple(_bar(I, n + 1) for n in range(3))
    assert all(q.samples == (I.colength(),) for q in rep.quotient_series)
    monkeypatch.undo()
    _assert_the_old_route_agrees(I, rep)
    _assert_the_windowed_search_agrees(I, rep)


def test_a_given_reduction_of_an_integrally_closed_staircase_is_certified_as_given():
    I = ideal_of(R, "x^2", "x*y", "y^2")
    xs = (R.parse("x^2 + y^2"), R.parse("x*y"))
    rep = closure(I, reduction=xs, seed=3)
    assert rep.checks_passed == PROVED_STAIRCASE_CHECKS
    assert rep.certificate == certify_sequence(I, xs, 4, seed=3)
    with pytest.raises(NotSuperficialError):
        closure(I, reduction=(R.parse("x^2"), R.parse("x*y")))


def test_random_staircases_agree_with_the_integral_closure():
    from util_algebra import random_instance_corpus

    labels = {"integrally-closed": 0, "reduction-number-one": 0,
              "closure-equals-integral-closure": 0}
    for I in random_instance_corpus(seed=38, count=40, ring=R, max_pure=6, max_extra=3,
                                    skew_prob=0.4):
        rep = closure(I, seed=0)
        bar = _bar(I)
        if I.colength() == bar:
            # integrally closed, so r <= 1: always proved
            labels["integrally-closed"] += 1
            assert "reduction-number-one" in rep.checks_passed
        if "reduction-number-one" in rep.checks_passed:
            labels["reduction-number-one"] += 1
            _assert_the_old_route_agrees(I, rep)
        elif "closure-equals-integral-closure" in rep.checks_passed:
            labels["closure-equals-integral-closure"] += 1
            assert rep.closure_ideal.colength() == bar
            assert "chain-stabilization" not in rep.checks_passed
            assert "stabilization-check" not in rep.timings
            assert_staircase_certificate(I, rep)
        else:
            # neither proof applies: the closure lies strictly inside the
            # integral closure, and the chain was checked
            assert rep.closure_ideal.colength() > bar
            assert "chain-stabilization" in rep.checks_passed
    assert all(labels.values()), labels
    assert labels["reduction-number-one"] > labels["integrally-closed"], labels


@pytest.mark.parametrize("case", ["ex110", "ex33", "ex14", "ex14-squared"])
def test_the_paper_examples_keep_the_stabilization_check(case):
    from rrclosure import _kernels

    # none of them is integrally closed, nor is its closure the integral one
    gens = {"ex110": EX110, "ex33": EX33, "ex14": EX14, "ex14-squared": EX14}[case]
    I = ideal_of(R, *gens)
    rep = closure_power(I, 2, seed=0) if case == "ex14-squared" else closure(I, seed=0)
    I = rep.input_ideal
    # the kernel's count, which test_kernels checks against the box search
    bar = _kernels.integral_closure_colength(I.monomial_generators(), 1)
    assert I.colength() > bar
    assert rep.closure_ideal.colength() > bar
    assert "chain-stabilization" in rep.checks_passed
    assert not {"reduction-number-one", "closure-equals-integral-closure"} & set(
        rep.checks_passed)


def test_skew44_closure_is_proved_by_its_integral_closure():
    I = ideal_of(R, *SKEW44)
    for mode in ("heuristic", "certified"):
        rep = closure(I, mode=mode, seed=0)
        assert rep.closure_ideal.equals(I + ideal_of(R, "x^2*y^2"))
        assert rep.closure_ideal.colength() == _bar(I) == 10
        assert "closure-equals-integral-closure" in rep.checks_passed
        assert "chain-stabilization" not in rep.checks_passed
        assert "stabilization-check" not in rep.timings
    # its square is integrally closed (Zariski): colength 36 both ways, so
    # r <= 1 and the shortcut proves it
    square = closure_power(I, 2, seed=0)
    assert square.checks_passed == PROVED_STAIRCASE_CHECKS
    assert square.input_ideal.colength() == _bar(square.input_ideal) == 36
    _assert_the_old_route_agrees(square.input_ideal, square)


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
def test_both_modes_certify_later_draws_before_sampling(monkeypatch, field):
    # the first draw is no reduction; both modes certify the second against
    # h(1) - 3*h(0) before any window, and report the same
    from rrclosure import GF, PolyRing, QQ

    T = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y", "z"))
    I = ideal_of(T, "x^4", "y^3", "z^2", "x^2*y", "x*z")
    outcomes = _recorded_certifications(monkeypatch)
    _forbid_sampling_and_colons(monkeypatch)
    heuristic = closure(I, seed=0)
    certified = closure(I, mode="certified", seed=0)
    assert outcomes == [(16, False), (16, True)] * 2
    assert certified.certificate == heuristic.certificate
    assert certified.certificate.attempts == 2
    assert certified.mode == "certified"
    assert certified.checks_passed == heuristic.checks_passed == PROVED_CHECKS
    for name in ("postulation_joint", "k_used", "closure_generators", "is_closed"):
        assert getattr(certified, name) == getattr(heuristic, name)
    assert certified.series == heuristic.series._replace(mode="certified")
    assert certified.quotient_series == tuple(
        q._replace(mode="certified") for q in heuristic.quotient_series)


def test_a_non_monomial_closure_finds_its_minimal_generators_once(monkeypatch):
    # phi(y^4, x^2*y^2, x^4), x -> x + y: the search's draw and the report
    # both read the minimal generators, a Groebner run per basis element
    ideals = importlib.import_module("rrclosure.ideals")
    runs = []

    def counted(*args, original=ideals._engine_groebner):
        runs.append(args)
        return original(*args)

    I = ideal_of(R, "y^4", "(x+y)^2*y^2", "(x+y)^4")
    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    rep = closure(I, seed=0)
    assert rep.is_closed
    assert len(runs) == 6
    assert I.minimal_generators() is rep.closure_generators
    assert len(runs) == 6


# -- the Newton polygon's length proof changes no report ----------------------


def _newton_identity_corpus():
    """(name, closure call) pairs: plain staircases (x^a, y^b) with up to two
    inner corners and e0 <= 8, the skew ideals (x^a, x^{a-1}y, xy^{b-1}, y^b)
    with 3 <= a, b <= 5 at seeds 0-2, the paper's examples, and random
    staircases over GF(32003) and GF(7)."""
    from rrclosure import GF, PolyRing, _kernels

    plain = set()
    for a, b in itertools.product(range(1, 6), repeat=2):
        inner = [(i, j) for i in range(1, a) for j in range(1, b)]
        for k in range(3):
            for extra in itertools.combinations(inner, k):
                plain.add(tuple(sorted(minimal_set({(a, 0), (0, b), *extra}))))
    calls = [(f"plain {g}", lambda g=g: closure(Ideal.from_exponents(R, g), seed=0))
             for g in sorted(plain) if _kernels.newton_polygon_e0(g) <= 8]
    for a, b, seed in itertools.product(range(3, 6), range(3, 6), range(3)):
        g = sorted(minimal_set({(a, 0), (a - 1, 1), (1, b - 1), (0, b)}))
        calls.append((f"skew{a}{b} seed {seed}",
                      lambda g=g, seed=seed: closure(Ideal.from_exponents(R, g), seed=seed)))
    xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
    calls += [
        ("ex110", lambda: closure(ideal_of(R, *EX110), seed=0)),
        ("ex110 paper reduction", lambda: closure(ideal_of(R, *EX110), reduction=xs)),
        ("ex33", lambda: closure(ideal_of(R, *EX33), seed=0)),
        ("ex14", lambda: closure(ideal_of(R, *EX14), seed=0)),
        ("ex14^2", lambda: closure_power(ideal_of(R, *EX14), 2, seed=0)),
    ]
    rng = random.Random(4003)
    for field in (GF(32003), GF(7)):
        S = PolyRing(field, ("x", "y"))
        for i in range(12):
            g = random_monomial_mprimary(rng, max_pure=5, max_extra=2, skew_prob=0.4)
            calls.append((f"{field} {g} seed {i}",
                          lambda S=S, g=g, i=i: closure(Ideal.from_exponents(S, g), seed=i)))
    return calls


def _all_but_timings(rep):
    return rep._replace(input_ideal=rep.input_ideal.minimal_generators(),
                        closure_ideal=rep.closure_ideal.minimal_generators(), timings=None)


def test_the_newton_length_proof_changes_no_report(monkeypatch):
    # with the Newton polygon's proof patched out every length is Fulton's
    # count; with it in, the reports agree in every field but the timings
    reductions = importlib.import_module("rrclosure.reductions")
    calls = _newton_identity_corpus()
    with monkeypatch.context() as patch:
        patch.setattr(reductions, "_newton_proves", lambda *args: False)
        counted = [_all_but_timings(call()) for _, call in calls]
    proved = []
    newton_proves = reductions._newton_proves

    def recorded(*args):
        proved.append(newton_proves(*args))
        return proved[-1]

    monkeypatch.setattr(reductions, "_newton_proves", recorded)
    for (name, call), want in zip(calls, counted):
        assert _all_but_timings(call()) == want, name
    assert sum(proved) >= len(calls) - 10
