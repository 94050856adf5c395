"""reductions: certification and random search."""

import itertools
import random

import pytest

from rrclosure import (
    GF,
    QQ,
    ElementNotInIdealError,
    GenericityFailureError,
    Ideal,
    NotSuperficialError,
    PolyRing,
    certify_sequence,
    find_superficial_sequence,
    poincare_series,
)
from rrclosure import ideals, reductions
from util_algebra import (
    brute_newton_vertices,
    ideal_of,
    qq_ring,
    random_polynomial,
    random_staircase,
)

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


def _counted_certification(monkeypatch, I, elements, e0):
    """Certify with the engine and Ideal.power counted; the ideal's own
    m-primary witness and membership bases are built beforehand."""
    I.require_m_primary()
    assert all(I.contains(x) for x in elements)
    runs, powers = [], []
    engine, power = ideals._engine_groebner, Ideal.power

    def counted_engine(*args):
        runs.append(args)
        return engine(*args)

    def counted_power(self, n):
        powers.append(n)
        return power(self, n)

    with monkeypatch.context() as patch:
        patch.setattr(ideals, "_engine_groebner", counted_engine)
        patch.setattr(Ideal, "power", counted_power)
        cert = certify_sequence(I, elements, e0)
    return cert, runs, powers


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
@pytest.mark.parametrize("case", ["ex110", "phi-ex33"])
def test_two_variable_certification_runs_no_groebner_basis(monkeypatch, field, case):
    # the searched candidate's local length is its intersection number at the
    # origin, counted on the two elements: no truncation J + I^t is built
    S = PolyRing(field, ("x", "y"))
    if case == "ex110":
        I, e0 = ideal_of(S, "x^10", "y^5", "x*y^4", "x^8*y"), 45
    else:
        I, e0 = ideal_of(S, "(x+y)^8", "(x+y)^3*y^2", "(x+y)^2*y^4", "y^8"), 40
    assert poincare_series(I).multiplicity == e0
    elements = find_superficial_sequence(I, e0, seed=0).elements
    cert, runs, powers = _counted_certification(monkeypatch, I, elements, e0)
    assert cert.colength == e0
    assert runs == [] and powers == []


def test_three_variable_certification_still_scans_truncations(monkeypatch):
    # (1 + x) is a unit at the origin, so the candidate keeps its local length
    # but gains zeros elsewhere: the colength squeeze fails and J + I^t runs
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, "x^2", "y^2", "z^2", "x*y")
    elements = find_superficial_sequence(I, 8, seed=0).elements
    moved = (elements[0] * T.parse("1 + x"),) + elements[1:]
    assert Ideal(T, moved).colength() > 8
    cert, runs, powers = _counted_certification(monkeypatch, I, moved, 8)
    assert cert.colength == 8
    assert runs and powers


def _through_origin(f):
    return f - f.ring.const(f.terms.get((0,) * f.ring.dim, 0))


def _random_element(rng, S, x_heavy):
    # several pure-x terms in both elements make Fulton's count cancel the
    # top x-term of one, then of the other, swapping the two back and forth
    if not x_heavy:
        return _through_origin(random_polynomial(rng, S, max_terms=4, max_exp=4))
    pure_x = S.poly({(rng.randint(1, 6), 0): rng.randint(1, 5) for _ in range(rng.randint(2, 4))})
    return _through_origin(random_polynomial(rng, S, max_terms=6, max_exp=4)) + pure_x


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
def test_intersection_number_agrees_with_the_m_adic_scan(field):
    # the oracle truncates J by powers of m and takes colengths with the
    # Groebner engine; Fulton's count shares none of that code
    S = PolyRing(field, ("x", "y"))
    m = ideal_of(S, "x", "y")
    rng = random.Random(2025)
    cap = 12
    pairs = 0
    finite = []
    while pairs < 180:
        x_heavy = pairs >= 120
        f, g = _random_element(rng, S, x_heavy), _random_element(rng, S, x_heavy)
        if f.is_zero() or g.is_zero():
            continue
        pairs += 1
        got = reductions._intersection_number(f, g, cap)
        J = Ideal(S, [f, g])
        want = J.colength_at_origin(expect=cap, by=m)
        if want <= cap:
            assert got == want, (f, g)
            finite.append((f, g, want))
        else:
            # above the cap only a lower bound is known, and it must hold
            assert got > cap, (f, g)
            assert J.colength_at_origin(expect=got - 1, by=m) >= got, (f, g)
    assert len(finite) >= 50
    # each cap set to the true length and to one less
    for f, g, length in finite:
        assert reductions._intersection_number(f, g, length) == length
        if length:
            assert reductions._intersection_number(f, g, length - 1) == length


def test_intersection_number_bounds_a_length_past_the_cap_honestly():
    # cut at degree 10, y^2 - x^11 loses x^11 and (y^2, xy + x^9) counts 18,
    # but the length is 13: once a term is dropped only cap + 1 is a bound
    f, g = R.parse("y^2 - x^11"), R.parse("x*y + x^9")
    assert Ideal(R, [f, g]).colength_at_origin(by=ideal_of(R, "x", "y")) == 13
    assert reductions._intersection_number(f, g, 13) == 13
    assert reductions._intersection_number(f, g, 10) == 11
    # with no term dropped the count itself is a bound: (x^10, y^5) has 50
    assert reductions._intersection_number(R.parse("x^10"), R.parse("y^5"), 45) == 50


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
def test_intersection_number_of_common_components_and_units(field):
    S = PolyRing(field, ("x", "y"))
    rng = random.Random(7)
    for h in ("x + y", "y", "x", "y - x^2", "x*y + y^2"):
        h = S.parse(h)
        for _ in range(10):
            f = _through_origin(random_polynomial(rng, S, max_terms=3, max_exp=3)) + S.parse("x^2")
            g = random_polynomial(rng, S, max_terms=3, max_exp=3) + S.parse("y^3")
            assert reductions._intersection_number(h * f, h * g, 10) > 10
    for _ in range(20):
        f = random_polynomial(rng, S, max_terms=3, max_exp=3) + S.one
        g = random_polynomial(rng, S, max_terms=3, max_exp=3)
        if f.terms.get((0, 0)):  # a unit at the origin
            assert reductions._intersection_number(f, g, 10) == 0
            assert reductions._intersection_number(g, f, 0) == 0


def test_intersection_number_keeps_the_x_parts_apart_when_it_swaps():
    # f - g = x(1 + x^3): length 1.  Cancelling x^4, then x^3, swaps the two
    # elements twice; each must keep its own pure-x exponents, or the count
    # reads ord_x of the wrong element and comes out 2
    f, g = R.parse("x + x^2 + x^3 + x^4 + y"), R.parse("x^2 + x^3 + y")
    for cap in range(4, 13):
        assert reductions._intersection_number(f, g, cap) == 1
        assert reductions._intersection_number(g, f, cap) == 1
    # the same pair with y^4 lies in (x, y^4), e0 = 4, and certifies
    I = ideal_of(R, "x", "y^4")
    f, g = R.parse("x + x^2 + x^3 + x^4 + y^4"), R.parse("x^2 + x^3 + y^4")
    assert Ideal(R, [f, g]).colength_at_origin(by=ideal_of(R, "x", "y")) == 4
    assert certify_sequence(I, (f, g), 4).colength == 4


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
def test_intersection_number_of_two_graphs_is_the_order_of_their_difference(field):
    # on the smooth curve y = -p(x), g = q(x) + y restricts to q - p, so
    # I_0(p + y, q + y) = ord_x(p - q), infinite when p = q.  Every pair of
    # x-parts with coefficients 0, 1, 2 on x..x^4 runs the cancellations in
    # every order, swaps included
    S = PolyRing(field, ("x", "y"))
    y = S.parse("y")
    parts = [S.poly({(i, 0): c for i, c in enumerate(cs, 1) if c})
             for cs in itertools.product((0, 1, 2), repeat=4)]
    for p, q in itertools.product(parts, repeat=2):
        got = reductions._intersection_number(p + y, q + y, 6)
        if p == q:
            assert got > 6
        else:
            assert got == min(i for i, _ in (p - q).terms), (p, q)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
@pytest.mark.parametrize("gens, e0, elements, most_steps", [
    (("x^40", "y^40"), 1600, ("x^40", "x*y^40"), 0),
    (("x^20", "y^20"), 400, ("(x+y)*(x^20 + 2*y^20 + x^21*y)", "(x+y)*(3*x^20 - y^20 + x*y^20)"), 0),
    (("x^5", "y^100"), 500, ("(x+y)*(x^5 + y^100 - x^6*y)", "(x+y)*(2*x^5 - y^100 + y^101)"), 50),
], ids=["x40", "x20y20", "x5y100"])
def test_common_components_are_rejected_with_bounded_work(
        monkeypatch, field, gens, e0, elements, most_steps):
    # the count stops once it, or the product of the two orders, passes e0,
    # and drops every term of degree above what is left of e0: these common
    # components end within a few cancellations of a few terms each, where
    # J + I^t took Buchberger runs
    S = PolyRing(field, ("x", "y"))
    I = ideal_of(S, *gens)
    elements = tuple(S.parse(x) for x in elements)
    steps = []
    cancel = reductions._cancel_top

    def counted_cancel(F, G, *args):
        steps.append(len(F) + len(G))
        return cancel(F, G, *args)

    monkeypatch.setattr(reductions, "_cancel_top", counted_cancel)
    with pytest.raises(NotSuperficialError, match=rf"is at least \d+, expected e0 = {e0}"):
        certify_sequence(I, elements, e0)
    # x5y100 takes 39 cancellations of at most 86 terms
    assert len(steps) <= most_steps
    assert all(terms <= 100 for terms in steps)


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


def test_find_failure_reports_genericity(monkeypatch):
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    monkeypatch.setattr(reductions, "DEFAULT_MAX_ATTEMPTS", 2)
    with pytest.raises(GenericityFailureError, match="in 2 attempts"):
        find_superficial_sequence(I, 44, seed=0)  # wrong e0 never certifies


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


def _recorded_certifications(monkeypatch, reject_first=False):
    """Every candidate that ``find_superficial_sequence`` certifies, with the
    refusal's message or None; ``reject_first`` refuses the first candidate
    before the length test sees it."""
    seen = []
    certify = reductions.certify_sequence

    def recorded(I, elements, e0, **kw):
        try:
            if reject_first and not seen:
                raise NotSuperficialError("rejected by the test")
            cert = certify(I, elements, e0, **kw)
        except NotSuperficialError as exc:
            seen.append((elements, str(exc)))
            raise
        seen.append((elements, None))
        return cert

    monkeypatch.setattr(reductions, "certify_sequence", recorded)
    return seen


def test_failed_vertex_candidate_redraws_from_the_vertex_pool(monkeypatch):
    # at seed 1 the vertex candidate of (y^3, xy^2, x^3y, x^4) is degenerate:
    # its two elements differ by a multiple of y^2(x + 2y), and the length
    # test rejects it; in two variables the vertices are exact, so the second
    # attempt draws from them again, and x^3y stays out
    from rrclosure import closure

    I = ideal_of(R, "y^3", "x*y^2", "x^3*y", "x^4")
    assert poincare_series(I).multiplicity == 11
    seen = _recorded_certifications(monkeypatch)
    cert = find_superficial_sequence(I, 11, seed=1)
    assert cert.attempts == 2
    (first, message), (second, ok) = seen
    assert supports(first) <= {(0, 3), (1, 2), (4, 0)}
    assert Ideal(R, first).contains(R.parse("y^2*(x + 2*y)"))
    assert message.endswith("is at least 12, expected e0 = 11")
    assert ok is None and supports(second) <= {(0, 3), (1, 2), (4, 0)}
    with monkeypatch.context() as patched:
        patched.setattr(reductions, "DEFAULT_MAX_ATTEMPTS", 1)
        with pytest.raises(GenericityFailureError):
            find_superficial_sequence(I, 11, seed=1)
    rep = closure(I, seed=1)
    assert rep.certificate.attempts == 2
    assert rep.is_closed
    assert [str(g) for g in rep.closure_generators] == ["y^3", "x*y^2", "x^3*y", "x^4"]


def test_failed_vertex_candidate_in_three_variables_combines_every_generator(monkeypatch):
    # in d >= 3 random weights can miss a vertex, so only the first attempt
    # draws from the vertices found
    T = qq_ring("x", "y", "z")
    I = ideal_of(T, "x^3", "y^3", "z^3", "x^2*y", "y^2*z")
    seen = _recorded_certifications(monkeypatch, reject_first=True)
    cert = find_superficial_sequence(I, 27, seed=0)
    assert cert.attempts == 2
    (first, message), (second, ok) = seen
    assert message == "rejected by the test"
    assert supports(first) <= {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
    assert ok is None
    assert all(supports([x]) == set(I.monomial_generators()) for x in second)


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


@pytest.mark.parametrize("field, gens, seed, attempts", [
    ("QQ", ("y^3", "x*y^2", "x^3*y", "x^4"), 1, 2),
    ("QQ", ("x^4", "y^3", "z^2", "x^2*y", "x*z"), 0, 2),
    ("GF(32003)", ("x^4 + x*y^3", "y^4 + x^3*y", "x^2*y^2"), 0, 1),
])
def test_the_search_certifies_the_candidate_draws_in_order(field, gens, seed, attempts):
    # one draw law: closure() tests the first draw before any search
    variables = ("x", "y", "z") if "z" in "".join(gens) else ("x", "y")
    S = PolyRing(QQ if field == "QQ" else GF(32003), variables)
    I = ideal_of(S, *gens)
    cert = find_superficial_sequence(I, poincare_series(I).multiplicity, seed=seed)
    assert cert.attempts == attempts
    draws = list(itertools.islice(reductions.candidate_sequences(I, seed), attempts))
    assert cert.elements == tuple(draws[-1])


# -- the Newton polygon's proof of a vertex-supported pair's length ----------

NEWTON_FIELDS = [QQ, GF(32003), GF(7), GF(3)]
NEWTON_IDS = ["QQ", "GF(32003)", "GF(7)", "GF(3)"]


def _staircases(seed, count):
    """Random two-variable staircases with their Newton vertices in x order
    and their e0, from the test's own hull."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = random_staircase(rng, 2, max_pure=6, max_extra=3)
        vertices = sorted(brute_newton_vertices(gens))
        e0 = sum((x1 - x0) * (y0 + y1) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]))
        out.append((gens, vertices, e0))
    return rng, out


def _edge_minors(S, vertices, f, g):
    F = S.field
    a = [f.terms.get(v, F.zero) for v in vertices]
    b = [g.terms.get(v, F.zero) for v in vertices]
    return [F.add(F.mul(a[i], b[i + 1]), F.neg(F.mul(a[i + 1], b[i])))
            for i in range(len(vertices) - 1)]


def _vertex_pair(rng, S, vertices, degenerate):
    """Two elements on exactly the vertices with nonzero coefficients; with
    ``degenerate``, the minor of one edge is forced to zero."""
    F = S.field
    p = F.characteristic

    def coeff():
        return F(rng.randrange(1, p) if p else rng.choice((-1, 1)) * rng.randint(1, 9))

    a = [coeff() for _ in vertices]
    b = [coeff() for _ in vertices]
    if degenerate:
        i = rng.randrange(len(vertices) - 1)
        b[i + 1] = F.mul(F.mul(a[i + 1], b[i]), F.inv(a[i]))  # a_i b_{i+1} = a_{i+1} b_i
    return S.poly(dict(zip(vertices, a))), S.poly(dict(zip(vertices, b)))


def _outcome(I, pair, e0):
    try:
        cert = certify_sequence(I, pair, e0, seed=5, attempts=3)
    except NotSuperficialError as exc:
        return str(exc)
    return cert


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
def test_the_newton_route_passes_exactly_when_fulton_counts_e0(monkeypatch, field):
    # nonzero edge minors prove the length e0 (Kushnirenko), and a zero
    # minor makes it larger: Fulton's count agrees on every pair, and the
    # certificate or refusal is the one Fulton alone gives
    S = PolyRing(field, ("x", "y"))
    rng, staircases = _staircases(4001, 100)
    seen = {True: 0, False: 0}
    for gens, vertices, e0 in staircases:
        I = Ideal.from_exponents(S, gens)
        for k in range(6):
            pair = _vertex_pair(rng, S, vertices, degenerate=k % 2 == 1)
            proved = reductions._newton_proves(I, pair, e0)
            assert proved == all(_edge_minors(S, vertices, *pair))
            assert proved == (reductions._intersection_number(*pair, e0) == e0)
            seen[proved] += 1
            for target in (e0 - 1, e0, e0 + 1):
                routed = _outcome(I, pair, target)
                with monkeypatch.context() as patch:
                    patch.setattr(reductions, "_newton_proves", lambda *args: False)
                    assert _outcome(I, pair, target) == routed
    assert seen[True] >= 100 and seen[False] >= 300


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
def test_non_degenerate_draws_certify_without_fulton(monkeypatch, field):
    def forbidden(*args):
        raise AssertionError("Fulton's count ran on a non-degenerate vertex draw")

    monkeypatch.setattr(reductions, "_intersection_number", forbidden)
    S = PolyRing(field, ("x", "y"))
    _, staircases = _staircases(4002, 30)
    certified = 0
    for seed, (gens, vertices, e0) in enumerate(staircases):
        I = Ideal.from_exponents(S, gens)
        for draw in itertools.islice(reductions.candidate_sequences(I, seed), 3):
            if all(_edge_minors(S, vertices, *draw)):
                cert = certify_sequence(I, draw, e0)
                assert cert.colength == cert.multiplicity == e0
                certified += 1
    assert certified >= 30


def _counted_fulton(monkeypatch):
    counted = []
    fulton = reductions._intersection_number

    def spy(f, g, cap):
        counted.append(cap)
        return fulton(f, g, cap)

    monkeypatch.setattr(reductions, "_intersection_number", spy)
    return counted


def test_a_degenerate_draw_reaches_fulton_and_keeps_its_refusal(monkeypatch):
    # the first draw of (y^3, xy^2, x^3y, x^4) at seed 1 has a zero minor on
    # its first edge
    I = ideal_of(R, "y^3", "x*y^2", "x^3*y", "x^4")
    first = next(reductions.candidate_sequences(I, 1))
    assert _edge_minors(R, [(0, 3), (1, 2), (4, 0)], *first)[0] == 0
    counted = _counted_fulton(monkeypatch)
    with pytest.raises(NotSuperficialError, match=r"is at least 12, expected e0 = 11$"):
        certify_sequence(I, first, 11)
    assert counted == [11]


def test_the_papers_reduction_is_no_vertex_pair_and_reaches_fulton(monkeypatch):
    # y^5 + x^10 + x^8y carries x^8y, which is no vertex of ex110's polygon
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    xs = (R.parse("y^5+x^10+x^8*y"), R.parse("x*y^4"))
    counted = _counted_fulton(monkeypatch)
    assert certify_sequence(I, xs, 45).colength == 45
    with pytest.raises(NotSuperficialError, match=r"is at least 45, expected e0 = 44$"):
        certify_sequence(I, xs, 44)
    with pytest.raises(NotSuperficialError, match=r"is 45, expected e0 = 46$"):
        certify_sequence(I, xs, 46)
    assert counted == [45, 44, 46]
