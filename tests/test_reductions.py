"""reductions: certification, random search, reduction numbers."""

import pytest

from rrclosure import (
    ElementNotInIdealError,
    GenericityFailureError,
    Ideal,
    NotSuperficialError,
    certify_sequence,
    find_superficial_sequence,
    poincare_series,
    reduction_number,
)
from rrclosure import ideals
from util_algebra import ideal_of, qq_ring

R = qq_ring("x", "y")


def test_certify_worked_example_sequence():
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    cert = certify_sequence(I, (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4")), 45)
    assert cert.colength == 45 == cert.multiplicity


def test_certify_rejections():
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    cert = certify_sequence(m2, (R.parse("x^2"), R.parse("y^2")), 4)
    assert cert.colength == 4
    # (x^2, xy) has infinite local length: the scan stops once its rising
    # lower bound passes e0, so the message gives a bound, not a length
    with pytest.raises(NotSuperficialError, match=r"is at least \d+, expected e0 = 4"):
        certify_sequence(m2, (R.parse("x^2"), R.parse("x*y")), 4)
    # below e0 the scan runs to stabilization, so the length is exact
    with pytest.raises(NotSuperficialError, match=r"is 4, expected e0 = 5"):
        certify_sequence(m2, (R.parse("x^2"), R.parse("y^2")), 5)
    with pytest.raises(ElementNotInIdealError):
        certify_sequence(m2, (R.parse("x"), R.parse("y^2")), 4)


def test_certifying_ex110_truncates_by_the_third_power_of_i(monkeypatch):
    # the candidate's truncations J + I^t have colengths 35, 45, 45 at
    # t = 1, 2, 3: four Buchberger runs with J's own; truncating by powers
    # of m took m^11, m^12, m^22 and m^23
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    elements = find_superficial_sequence(I, 45, seed=0).elements
    runs, powers = [], []
    engine, power = ideals._engine_groebner, Ideal.power

    def counted_engine(polys, ring):
        runs.append(len(polys))
        return engine(polys, ring)

    def counted_power(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(ideals, "_engine_groebner", counted_engine)
    monkeypatch.setattr(Ideal, "power", counted_power)
    cert = certify_sequence(I, elements, 45)
    assert cert.colength == 45
    assert len(runs) == 4
    assert max(powers) == 3


def test_find_for_regular_ideal():
    m = ideal_of(R, "x", "y")
    cert = find_superficial_sequence(m, 1, seed=0)
    assert cert.colength == 1
    assert len(cert.elements) == 2


def test_find_determinism_and_seed_sensitivity():
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    a = find_superficial_sequence(I, 45, seed=5)
    b = find_superficial_sequence(I, 45, seed=5)
    c = find_superficial_sequence(I, 45, seed=6)
    assert a.elements == b.elements and a.attempts == b.attempts
    assert c.elements != a.elements
    assert a.colength == c.colength == 45


def test_find_failure_reports_genericity():
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    with pytest.raises(GenericityFailureError):
        find_superficial_sequence(I, 44, seed=0, max_attempts=2)  # wrong e0 never certifies


def test_reduction_numbers_small():
    m = ideal_of(R, "x", "y")
    assert reduction_number(m, m) == 0
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    J = ideal_of(R, "x^2", "y^2")
    # m^4 = J*m^2 but m^2 != J
    assert m2.power(2).equals(J.multiply(m2))
    assert not m2.equals(J)
    assert reduction_number(m2, J) == 1


def test_reduction_number_regression():
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    J = ideal_of(R, "y^5+x^10+x^8*y", "x*y^4")
    r = reduction_number(I, J)
    assert r == 3  # frozen regression constant; the certified bound is only 1980
    assert r <= 1980


def test_reduction_number_with_generic_reduction():
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    cert = find_superficial_sequence(m2, 4, seed=1)
    r = reduction_number(m2, cert.ideal())
    assert r <= 1


def test_reduction_number_needs_the_reduction_inside_the_ideal():
    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    with pytest.raises(ElementNotInIdealError):
        reduction_number(m2, ideal_of(R, "x", "y^2"))


def test_reduction_number_r_max_exceeded():
    from rrclosure import RMaxExceededError

    m2 = ideal_of(R, "x^2", "x*y", "y^2")
    J = ideal_of(R, "x^2", "y^2")
    with pytest.raises(RMaxExceededError):
        reduction_number(m2, J, r_max=0)


def test_superficial_identity_holds_for_generic_sequences():
    from rrclosure import poincare_series_quotient

    I = ideal_of(R, "x^8", "x^3*y^2", "x^2*y^4", "y^8")
    data = poincare_series(I)
    cert = find_superficial_sequence(I, data.multiplicity, seed=0)
    pn_all = [data.postulation] + [
        poincare_series_quotient(I, x).postulation for x in cert.elements
    ]
    pn = max(pn_all)
    for x in cert.elements:
        for k in range(pn + 1, pn + 4):
            assert I.power(k + 1).colon(x).equals(I.power(k))


def test_corollary_length_bound_spot_check():
    # tiny multiplicities: the colon identity at k = f(e0,d)+2 directly
    cases = (
        (("x", "y"), 1),
        (("x", "y^2"), 2),
        (("x", "y^3"), 3),
        (("x^2", "x*y", "y^2"), 4),
    )
    for gens, e0 in cases:
        I = ideal_of(R, *gens)
        cert = find_superficial_sequence(I, e0, seed=0)
        k = e0 * (e0 - 1) + 2  # f(e0, 2) + 2
        for x in cert.elements:
            assert I.power(k + 1).colon(x).equals(I.power(k))


EX14 = ("y^22", "x^4*y^18", "x^7*y^15", "x^8*y^14", "x^11*y^11", "x^14*y^8", "x^15*y^7",
        "x^18*y^4", "x^22")


def supports(elements):
    return {t for x in elements for t in x.terms}


def test_monomial_search_starts_from_the_newton_polygon_vertices():
    # ex14^2 has 25 minimal generators, all on x + y = 44: the first
    # candidate combines x^44 and y^44 alone, and certifies
    I = ideal_of(R, *EX14).power(2)
    e0 = poincare_series(I).multiplicity
    cert = find_superficial_sequence(I, e0, seed=0)
    assert cert.attempts == 1
    assert supports(cert.elements) <= {(44, 0), (0, 44)}
    assert cert.colength == e0 == 4 * 484


def test_failed_vertex_candidate_falls_back_to_every_generator(monkeypatch):
    # at seed 1 the vertex candidate of (y^3, xy^2, x^3y, x^4) is degenerate:
    # its two elements differ by a multiple of y^2(x + 2y), and the length
    # test rejects it; the second attempt combines all four generators
    from rrclosure import closure, reductions

    I = ideal_of(R, "y^3", "x*y^2", "x^3*y", "x^4")
    assert poincare_series(I).multiplicity == 11
    seen = []
    certify = reductions.certify_sequence

    def recorded(I, elements, e0, **kw):
        try:
            cert = certify(I, elements, e0, **kw)
        except NotSuperficialError as exc:
            seen.append((elements, str(exc)))
            raise
        seen.append((elements, None))
        return cert

    monkeypatch.setattr(reductions, "certify_sequence", recorded)
    cert = find_superficial_sequence(I, 11, seed=1)
    assert cert.attempts == 2
    (first, message), (second, ok) = seen
    assert supports(first) <= {(0, 3), (1, 2), (4, 0)}
    assert Ideal(R, first).contains(R.parse("y^2*(x + 2*y)"))
    assert message.endswith("is at least 12, expected e0 = 11")
    assert ok is None and supports(second) == {(0, 3), (1, 2), (3, 1), (4, 0)}
    with pytest.raises(GenericityFailureError):
        find_superficial_sequence(I, 11, seed=1, max_attempts=1)
    rep = closure(I, seed=1)
    assert rep.certificate.attempts == 2
    assert rep.is_closed
    assert [str(g) for g in rep.closure_generators] == ["y^3", "x*y^2", "x^3*y", "x^4"]


def test_vertex_candidates_in_three_variables():
    # the inner generators lie on edges of the triangle of pure powers
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, "x^3", "y^3", "z^3", "x^2*y", "y^2*z")
    cert = find_superficial_sequence(I, 27, seed=0)
    assert cert.attempts == 1
    assert supports(cert.elements) <= {(3, 0, 0), (0, 3, 0), (0, 0, 3)}


def test_non_monomial_input_searches_every_generator(monkeypatch):
    from rrclosure import _kernels

    def forbidden(*args, **kwargs):
        raise AssertionError("a non-monomial ideal has no Newton polyhedron here")

    monkeypatch.setattr(_kernels, "newton_vertices", forbidden)
    I = ideal_of(R, "x^4 + x*y^3", "y^4 + x^3*y", "x^2*y^2")
    cert = find_superficial_sequence(I, 16, seed=0)
    assert cert.colength == 16
