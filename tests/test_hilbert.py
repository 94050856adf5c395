"""hilbert-series: length sampling, numerators, coefficients, postulation."""

import random
from math import comb

import pytest

from rrclosure import (
    BoundTooLargeError,
    ElementNotInIdealError,
    Ideal,
    NotMPrimaryError,
    NotSuperficialError,
    PolyRing,
    QQ,
    ReductionCertificate,
    certify_sequence,
    closure,
    hilbert_coefficients,
    hilbert_samuel,
    hilbert_samuel_quotient,
    poincare_series,
    poincare_series_quotient,
    regularity_bound,
)
from rrclosure import hilbert
from rrclosure.errors import CertifiedBoundViolation
from rrclosure.hilbert import HEURISTIC, _quotient_bounds, _series_from_lengths
from util_algebra import brute_colength, ideal_of, qq_ring, random_instance_corpus

R = qq_ring("x", "y")
EX110 = ("x^10", "y^5", "x*y^4", "x^8*y")
EX14 = ("y^22", "x^4*y^18", "x^7*y^15", "x^8*y^14", "x^11*y^11", "x^14*y^8", "x^15*y^7",
        "x^18*y^4", "x^22")


def ex110():
    return ideal_of(R, *EX110)


def test_hilbert_samuel_values():
    m = ideal_of(R, "x", "y")
    assert hilbert_samuel(m, 2) == 6
    I = ex110()
    assert hilbert_samuel(I, 0) == 35
    assert hilbert_samuel(I, 1) == 109


def test_hilbert_samuel_rejects_non_primary():
    with pytest.raises(NotMPrimaryError):
        hilbert_samuel(ideal_of(R, "x^2", "x*y"), 1)


def test_quotient_lengths():
    m = ideal_of(R, "x", "y")
    assert hilbert_samuel_quotient(m, R.parse("y"), 3) == 4
    I = ex110()
    assert hilbert_samuel_quotient(I, R.parse("x*y^4"), 0) == 35
    # h-values are double partial sums of the quotient numerator
    # 35+6X+2X^2+2X^3: 35, 76, 119, 164, then arithmetic with step 45
    assert hilbert_samuel_quotient(I, R.parse("x*y^4"), 1) == 76
    assert hilbert_samuel_quotient(I, R.parse("x*y^4"), 2) == 119
    with pytest.raises(ElementNotInIdealError):
        hilbert_samuel_quotient(I, R.parse("x"), 0)
    # a binomial element, counted on the staircase, against the engine's
    # colength of the ideal sum; the series samples the same function
    J = ideal_of(R, *EX14)
    for text in ("-5*x^22 + 7*y^22", "x^4*y^18 - 3*x^18*y^4"):
        f = R.parse(text)
        series = poincare_series_quotient(J, f)
        for n in range(4):
            want = (J.power(n + 1) + f).colength()
            assert hilbert_samuel_quotient(J, f, n) == want == series.samples[n]


def test_poincare_regular_maximal_ideal():
    data = poincare_series(ideal_of(R, "x", "y"))
    assert data.numerator == (1,)
    assert data.multiplicity == 1
    assert data.postulation == -2


def test_poincare_golden_example():
    data = poincare_series(ex110())
    assert data.numerator == (35, 4, 4, 4, -2)
    assert data.multiplicity == 45
    assert data.postulation == 2
    assert hilbert_coefficients(data) == (45, 16, 4)


def test_poincare_square_of_maximal_ideal():
    # oracle: h(n) = colength(m^{2n+2}) counted by brute force, then second
    # differences; closed form h(n) = (n+1)(2n+3)
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    for n in range(4):
        exps = m2.power(n + 1).monomial_generators()
        assert brute_colength(exps, 2) == (n + 1) * (2 * n + 3)
    data = poincare_series(m2)
    assert data.numerator == (3, 1)
    assert data.multiplicity == 4
    assert data.postulation == -1
    assert hilbert_coefficients(data) == (4, 1, 0)


def test_quotient_poincare_golden():
    I = ex110()
    q2 = poincare_series_quotient(I, R.parse("x*y^4"))
    assert q2.numerator == (35, 6, 2, 2)
    assert q2.postulation == 2
    q1 = poincare_series_quotient(I, R.parse("y^5+x^10+x^8*y"))
    assert q1.numerator == (35, 6, 4)
    assert q1.postulation == 1


def test_hilbert_coefficients_by_exact_fit():
    # fit p(n) = e0*C(n+2,2) - e1*C(n+1,1) + e2 through exact h-values
    I = ex110()
    samples = {n: hilbert_samuel(I, n) for n in (3, 4, 5)}

    def p(n, e):
        return e[0] * comb(n + 2, 2) - e[1] * comb(n + 1, 1) + e[2]

    data = poincare_series(I)
    coeffs = hilbert_coefficients(data)
    for n, h in samples.items():
        assert p(n, coeffs) == h
    # and the fit is unique: perturbing any coefficient breaks a sample
    for j in range(3):
        bumped = list(coeffs)
        bumped[j] += 1
        assert any(p(n, bumped) != h for n, h in samples.items())


def test_series_internal_checks():
    data = poincare_series(ex110())
    pn = data.postulation
    assert data.samples[pn] == data.polynomial_value(pn)
    assert data.samples[pn - 1] != data.polynomial_value(pn - 1)


@pytest.mark.parametrize("D", range(5))
def test_the_difference_transform_inverts_the_binomial_sum(monkeypatch, D):
    # h(n) = sum_{i <= n} a_i C(n - i + D, D) has generating series
    # f(X)/(1-X)^(D+1); the (D+1)-fold difference transform must give f back,
    # and the Hilbert polynomial must agree with h exactly from pn on
    monkeypatch.setattr(hilbert, "DEFAULT_MAX_SAMPLES", 64)
    rng = random.Random(D)
    for _ in range(60):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))]
        a.append(rng.choice([-1, 1]) * rng.randint(1, 9))

        def h(n):
            return sum(c * comb(n - i + D, D) for i, c in enumerate(a) if i <= n)

        # a window longer than any inner run of zero coefficients
        data = _series_from_lengths(h, D + 1, D, HEURISTIC, len(a) + 1)
        assert data.numerator == tuple(a)
        pn = data.postulation
        for n in range(max(pn, 0), len(data.samples)):
            assert data.polynomial_value(n) == data.samples[n] == h(n)
        if pn > 0:
            assert data.polynomial_value(pn - 1) != h(pn - 1)


def test_joint_postulation_golden():
    I = ex110()
    xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
    assert closure(I, reduction=xs).postulation_joint == 2


def test_joint_postulation_regular():
    m = ideal_of(R, "x", "y")
    assert closure(m, reduction=(R.parse("x"), R.parse("y"))).postulation_joint == -1


@pytest.mark.parametrize("a", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_postulation_of_monomial_complete_intersections(a, b):
    I = ideal_of(R, f"x^{a}", f"y^{b}")
    xs = (R.var("x") ** a, R.var("y") ** b)
    assert closure(I, reduction=xs).postulation_joint <= a + b - 2


def test_certified_mode_small(monkeypatch):
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    heuristic = poincare_series(m2)
    certified = poincare_series(m2, mode="certified")
    assert certified.numerator == heuristic.numerator
    # e0 = 4, bound = 4*3 = 12, so sampling runs to 12 + 1 + 2 + 1 = 16
    assert len(certified.samples) >= 16
    monkeypatch.setattr(hilbert, "DEFAULT_MAX_SAMPLES", 100)
    with pytest.raises(BoundTooLargeError):
        poincare_series(ex110(), mode="certified")


def test_regularity_bound_values():
    assert regularity_bound(5, 1) == 4
    assert regularity_bound(45, 2) == 1980
    assert regularity_bound(2, 3) == 8
    assert regularity_bound(1, 2) == 0


def test_quotient_coefficients_preserved_for_generic_sequence():
    from rrclosure import find_superficial_sequence

    I = ex110()
    e = hilbert_coefficients(poincare_series(I))
    cert = find_superficial_sequence(I, e[0], seed=2)
    for x in cert.elements:
        q = poincare_series_quotient(I, x)
        assert hilbert_coefficients(q) == e[:2]


# -- the certified dimension-one stop of the quotient series ------------------

PAPER_REDUCTION = ("y^5+x^10+x^8*y", "x*y^4")


def test_quotient_series_stop_exactly_on_the_paper_reduction():
    # l = 45; the first differences of the samples are 35, 41, 45 for x1 and
    # 35, 41, 43, 45 for x2, so the stop fires after 3 and 4 samples
    I = ex110()
    xs = tuple(R.parse(s) for s in PAPER_REDUCTION)
    cert = certify_sequence(I, xs, 45)
    assert cert.colength == 45
    q1, q2 = (poincare_series_quotient(I, x, reduction=cert) for x in xs)
    assert (q1.numerator, q1.samples, q1.exact) == ((35, 6, 4), (35, 76, 121), True)
    assert (q2.numerator, q2.samples, q2.exact) == ((35, 6, 2, 2), (35, 76, 119, 164), True)
    for stopped, x in ((q1, xs[0]), (q2, xs[1])):
        windowed = poincare_series_quotient(I, x)
        assert not windowed.exact
        assert windowed.numerator == stopped.numerator
        assert len(windowed.samples) > len(stopped.samples)
        assert stopped.multiplicity == cert.colength
        certified = poincare_series_quotient(I, x, mode="certified", reduction=cert)
        assert certified.samples == stopped.samples
        assert certified.exact


def test_quotient_series_fall_back_when_the_certificate_is_no_reduction(monkeypatch):
    # (x^2, y^3) is no reduction of m^2: its length 6 exceeds e(m^2) = 4, and
    # the first differences stay at 3, 4, 4, ...; the window, or in certified
    # mode the regularity bound, must end the sampling; the cap of 50 makes a
    # missing fallback fail fast
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    x = R.parse("x^2")
    cert = ReductionCertificate((x, R.parse("y^3")), 6, 6, None, 0)
    monkeypatch.setattr(hilbert, "DEFAULT_MAX_SAMPLES", 50)
    heuristic = poincare_series_quotient(m2, x, reduction=cert)
    assert heuristic.numerator == (3, 1)
    assert not heuristic.exact
    assert heuristic.samples == poincare_series_quotient(m2, x).samples
    assert len(heuristic.samples) == 2 + heuristic.window_used
    certified = poincare_series_quotient(m2, x, mode="certified", reduction=cert)
    assert certified.numerator == (3, 1)
    assert not certified.exact
    # e0 estimate 4: regularity bound 4*3 = 12, target 12 + 1 + 1 + 1
    assert len(certified.samples) == 15


def test_quotient_series_reject_a_difference_above_the_certified_length():
    I = ex110()
    x = R.parse("x*y^4")
    forged = ReductionCertificate((R.parse(PAPER_REDUCTION[0]), x), 40, 40, None, 0)
    with pytest.raises(CertifiedBoundViolation, match="41 at n = 1"):
        poincare_series_quotient(I, x, reduction=forged)


def test_quotient_series_ignore_certificates_that_do_not_apply():
    I = ex110()
    xs = tuple(R.parse(s) for s in PAPER_REDUCTION)
    cert = certify_sequence(I, xs, 45)
    other = R.parse("x^10")  # in I, but not an element of the certificate
    assert poincare_series_quotient(I, other, reduction=cert) == poincare_series_quotient(I, other)
    # d = 3 keeps the window: its quotients have dimension two
    T = PolyRing(QQ, ("x", "y", "z"))
    m = Ideal(T, [T.var(v) for v in "xyz"])
    cert3 = certify_sequence(m, m.generators, 1)
    stopped = poincare_series_quotient(m, T.var("x"), reduction=cert3)
    assert stopped == poincare_series_quotient(m, T.var("x"))
    assert not stopped.exact


def test_joint_postulation_certifies_its_sequence():
    with pytest.raises(NotSuperficialError):
        closure(ex110(), reduction=(R.parse("x^10"), R.parse("y^5")))


# -- one quotient series per torus orbit ----------------------------------------


def random_monomial_ideal(rng, ring, max_pure):
    """Random m-primary monomial ideal: every pure power and up to two more."""
    d = ring.dim
    exps = {tuple(rng.randint(1, max_pure) if j == i else 0 for j in range(d)) for i in range(d)}
    for _ in range(rng.randint(0, 2)):
        exps.add(tuple(rng.randint(0, max_pure - 1) for _ in range(d)))
    return Ideal.from_exponents(ring, exps - {(0,) * d})


def random_coefficient(rng, ring):
    p = ring.field.characteristic
    return rng.randrange(1, p) if p else rng.choice((-1, 1)) * rng.randint(1, 9)


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
@pytest.mark.parametrize("d", [2, 3])
def test_one_affinely_independent_support_gives_one_quotient_series(d, field):
    # for a monomial I, f and g with one affinely independent support are one
    # orbit of the torus up to a scalar, so R/(I^{n+1} + (f)) and
    # R/(I^{n+1} + (g)) have the same length for every n
    from rrclosure import GF
    from rrclosure import _kernels as K

    ring = PolyRing(QQ if field == "QQ" else GF(32003), "xyz"[:d])
    rng = random.Random(31 * d + len(field))
    trials = 0
    while trials < (20 if d == 2 else 8):
        I = random_monomial_ideal(rng, ring, 4 if d == 2 else 3)
        gens = I.monomial_generators()
        shifts = [tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(3)]
        pool = sorted({tuple(a + b for a, b in zip(g, s)) for g in gens for s in shifts})
        support = rng.sample(pool, rng.randint(1, min(d + 1, len(pool))))
        if not K.affinely_independent(support):
            continue
        trials += 1
        f, g = (ring.poly({a: random_coefficient(rng, ring) for a in support}) for _ in "fg")
        qf, qg = (poincare_series_quotient(I, x) for x in (f, g))
        assert (qf.numerator, qf.samples, qf.exact) == (qg.numerator, qg.samples, qg.exact)


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
def test_one_orbit_of_a_reduction_shares_the_exact_stop(field):
    # two elements on ex110's Newton vertices (10,0), (1,4), (0,5): with a
    # certificate both stop exactly, at the same sample
    from rrclosure import GF

    ring = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y"))
    I = Ideal(ring, [ring.parse(s) for s in EX110])
    rng = random.Random(5)
    xs = tuple(ring.poly({a: random_coefficient(rng, ring) for a in ((10, 0), (1, 4), (0, 5))})
               for _ in range(2))
    cert = certify_sequence(I, xs, 45)
    q1, q2 = (poincare_series_quotient(I, x, reduction=cert) for x in xs)
    assert q1.exact and q2.exact
    assert (q1.numerator, q1.samples) == (q2.numerator, q2.samples)


# -- quotient samples from bounds ------------------------------------------------


def check_samples_within_bounds(I, cert):
    """(samples checked, samples whose bounds met) over the non-monomial
    elements of ``cert``: every engine-computed sample q(n), n >= 1, of the
    quotient series lies between its floor and ceiling, equals them where
    they meet, and is the sample the series took."""
    checked = met = 0
    for x in cert.elements:
        if len(x.terms) == 1:
            continue
        bounds = _quotient_bounds(I, x, cert.colength)
        samples = poincare_series_quotient(I, x, reduction=cert).samples
        for n in range(1, len(samples)):
            q = (I.power(n + 1) + x).colength()
            floor, ceiling = bounds(n, samples[n - 1])
            assert floor <= q <= ceiling
            if floor == ceiling:
                met += 1
            assert q == samples[n]
            checked += 1
    return checked, met


def test_engine_samples_lie_within_the_bounds_on_random_staircases():
    from rrclosure import find_superficial_sequence

    checked = met = 0
    for seed, I in enumerate(random_instance_corpus(17, 80, R, skew_prob=0.5)):
        e0 = poincare_series(I).multiplicity
        cert = find_superficial_sequence(I, e0, seed=seed % 3)
        c, m = check_samples_within_bounds(I, cert)
        checked, met = checked + c, met + m
    assert met > checked // 2 > 0


@pytest.mark.parametrize("field", ["QQ", "GF(32003)"])
@pytest.mark.parametrize("gens", [("x^3", "x^2*y", "x*y^2", "y^3"),
                                  ("x^3", "x^2*y", "x*y^3", "y^4"), EX110])
def test_engine_samples_lie_within_the_bounds_on_phi_images(gens, field):
    # phi: x -> x + y makes I non-monomial: only the floor h(n) - h(n-1)
    # and the step ceiling apply
    from rrclosure import GF, find_superficial_sequence

    ring = PolyRing(QQ if field == "QQ" else GF(32003), ("x", "y"))
    I = Ideal(ring, [ring.parse(g.replace("x", "(x+y)")) for g in gens])
    cert = find_superficial_sequence(I, poincare_series(I).multiplicity, seed=0)
    checked, met = check_samples_within_bounds(I, cert)
    assert checked >= met > 0  # the floor meets the step ceiling at the exact stop


def test_the_closure_ceiling_needs_a_term_on_every_edge():
    # NP(I) has the edges (0,3)-(1,1) and (1,1)-(3,0); x^3 misses the first,
    # and (I^2 : x^3) = (x^3, xy, y^2) holds y^2, under that edge, so it is
    # not inside the integral closure of I and h(1) - colength(I-bar) = 11
    # is no ceiling of q(1) = 12
    from rrclosure import _kernels as K

    I = ideal_of(R, "x^3", "x*y", "y^3")
    gens = I.monomial_generators()
    x3 = R.parse("x^3")
    assert I.power(2).colon(x3).monomial_generators() == [(0, 2), (1, 1), (3, 0)]
    assert I.power(2).colength() - K.integral_closure_colength(gens, 1) == 11
    assert hilbert_samuel_quotient(I, x3, 1) == 12 == (I.power(2) + x3).colength()
    missed = R.parse("x^3 + x^2*y^2 + x*y^2")  # no term on the first edge
    assert _quotient_bounds(I, missed) is None
    for n in range(1, 4):
        assert hilbert_samuel_quotient(I, missed, n) == (I.power(n + 1) + missed).colength()
    # x^3 + y^3 has a term on both edges: the bounds meet, at the true samples
    both = _quotient_bounds(I, R.parse("x^3 + y^3"))
    assert [both(n) for n in (1, 2, 3)] == [(11, 11), (17, 17), (23, 23)]
    assert [(I.power(n + 1) + R.parse("x^3 + y^3")).colength() for n in (1, 2, 3)] == [11, 17, 23]


def test_a_floor_above_the_certified_ceiling_raises():
    # the certificate's colength is patched from 45 to 40: at n = 1 the floor
    # is the true q(1) = 76, above q(0) + 40 = 75, and the series must not
    # take the ceiling as its sample and stop exactly
    I = ex110()
    xs = tuple(R.parse(s) for s in PAPER_REDUCTION)
    forged = ReductionCertificate(xs, 40, 40, None, 0)
    with pytest.raises(CertifiedBoundViolation,
                       match="floor 76 at n = 1 exceeds the certified ceiling 75"):
        poincare_series_quotient(I, xs[0], reduction=forged)
    with pytest.raises(CertifiedBoundViolation):
        poincare_series_quotient(I, xs[0], mode="certified", reduction=forged)
