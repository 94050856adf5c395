"""ideal-engine: reduced bases, normal forms, Buchberger criterion."""

import random
from fractions import Fraction

import pytest

from rrclosure import GF, INFINITE, Ideal, PolyRing, groebner_basis, ideals, normal_form
from util_algebra import (
    brute_colength,
    degrevlex_max,
    ideal_of,
    minimal_set,
    qq_ring,
    random_polynomial,
)

R = qq_ring("x", "y")


def test_redundant_generator_removed():
    basis = groebner_basis([R.parse("x"), R.parse("y"), R.parse("x + y")])
    assert [str(p) for p in basis.polys] == ["y", "x"]


def test_single_buchberger_step():
    basis = groebner_basis([R.parse("x^2 + y^2"), R.parse("y^2")])
    assert {str(p) for p in basis.polys} == {"x^2", "y^2"}


def test_single_generator_is_its_own_basis():
    S = PolyRing(R.field, ("x",))
    basis = groebner_basis([S.parse("x^2 - x")])
    assert [str(p) for p in basis.polys] == ["x^2 - x"]


def test_normal_form_examples():
    S = PolyRing(R.field, ("x",))
    basis = groebner_basis([S.parse("x^2 - x")])
    assert normal_form(S.parse("x^2"), basis) == S.parse("x")
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    for g in I.generators:
        assert normal_form(g, I.reduced_basis()).is_zero()
    # x^7y^2 lies outside I (but inside its closure)
    assert not normal_form(R.parse("x^7*y^2"), I.reduced_basis()).is_zero()


def test_normal_form_undoes_the_fraction_free_scale():
    # modulo x - y/3 the remainder of f(x, y) is f(y/3, y); the integer
    # engine reaches it only up to a scale, which normal_form divides out
    basis = groebner_basis([R.parse("3*x - y")])
    assert normal_form(R.parse("x^2"), basis) == R.monomial((0, 2), Fraction(1, 9))
    half_x_plus_one = R.monomial((1, 0), Fraction(1, 2)) + R.one
    assert normal_form(half_x_plus_one, basis) == R.monomial((0, 1), Fraction(1, 6)) + R.one
    # 80 reduction steps, so the engine also strips a common content on the way
    basis = groebner_basis([R.parse("3*x - 2*y")])
    f = R.parse("x + 2*y") ** 80
    assert normal_form(f, basis) == R.monomial((0, 80), Fraction(8, 3) ** 80)


def test_normal_form_over_prime_field():
    S = PolyRing(GF(7), ("x", "y"))
    basis = groebner_basis([S.parse("3*x - y")])  # monic: x - 5*y
    assert normal_form(S.parse("x^2"), basis) == S.parse("4*y^2")  # 5^2 = 4 mod 7
    assert normal_form(S.parse("x + y") ** 10, basis) == S.parse("y^10")  # 6^10 = 1 mod 7


def test_basis_is_monic_and_sorted():
    basis = groebner_basis([R.parse("2*x^2 + y"), R.parse("3*y^3")])
    key = R.order.key
    lms = [p.leading_monomial() for p in basis.polys]
    assert lms == sorted(lms, key=key)
    assert all(p.leading_coefficient() == 1 for p in basis.polys)


def spolynomial(f, g):
    ring = f.ring
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    L = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = ring.monomial(tuple(a - b for a, b in zip(L, lmf)))
    mg = ring.monomial(tuple(a - b for a, b in zip(L, lmg)))
    return mf * f.monic() - mg * g.monic()


# the engine packs each monomial into one int with a field per exponent and
# per order sum, so more variables mean more fields; F_p is the modular path.
# QQ[x, y] keeps the plain seed as its id.
CRITERION_RINGS = {
    "": R,
    "QQ[x,y,z]-": qq_ring("x", "y", "z"),
    "GF(32003)[x,y]-": PolyRing(GF(32003), ("x", "y")),
    "GF(32003)[x,y,z]-": PolyRing(GF(32003), ("x", "y", "z")),
}


@pytest.mark.parametrize(
    "ring, seed",
    [(ring, seed) for ring in CRITERION_RINGS.values() for seed in range(8)],
    ids=[f"{name}{seed}" for name in CRITERION_RINGS for seed in range(8)],
)
def test_buchberger_criterion_randomized(ring, seed):
    rng = random.Random(seed)
    polys = []
    while len(polys) < 3:
        p = random_polynomial(rng, ring, max_terms=3, max_exp=3)
        if not p.is_zero():
            polys.append(p)
    basis = groebner_basis(polys, ring)
    if not basis.polys:
        return
    for i in range(len(basis.polys)):
        for j in range(i + 1, len(basis.polys)):
            s = spolynomial(basis.polys[i], basis.polys[j])
            assert basis.normal_form(s).is_zero()
    # the basis generates the same ideal: generators reduce to zero both ways
    regenerated = groebner_basis(list(basis.polys), ring)
    assert regenerated.polys == basis.polys
    for p in polys:
        assert basis.normal_form(p).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_fast_zero_test_agrees_with_exact_normal_form(seed):
    # membership by integer pseudo-reduction against the engine's minimal
    # basis must agree with the exact remainder modulo the reduced basis
    rng = random.Random(40 + seed)
    gens = []
    while len(gens) < 3:
        p = random_polynomial(rng, R, max_terms=3, max_exp=3)
        if not p.is_zero():
            gens.append(p)
    basis = groebner_basis(gens, R)
    ideal = Ideal(R, gens)
    for _ in range(25):
        f = random_polynomial(rng, R, max_terms=5, max_exp=5)
        exact = basis.normal_form(f)
        assert ideal.contains(f) == exact.is_zero()
        # remainders are fully reduced: reducing again changes nothing
        assert basis.normal_form(exact) == exact
        # membership of f - NF(f) always holds
        assert ideal.contains(f - exact)
    assert ideal._basis is None  # membership built no reduced basis


def test_membership_and_the_m_primary_check_interreduce_nothing(monkeypatch):
    # any Groebner basis decides membership, so a non-monomial ideal reduces
    # by the engine's minimal basis and never builds the reduced one
    calls = []
    interreduce = ideals._interreduce

    def counted(basis, ring):
        calls.append(len(basis))
        return interreduce(basis, ring)

    monkeypatch.setattr(ideals, "_interreduce", counted)
    I = ideal_of(R, "x^2 + y^3", "y^4")
    I.require_m_primary()
    assert I.contains(R.parse("x^2*y")) and not I.contains(R.parse("x^2"))
    # finite colength, but a zero at (1, 0): x^D fails the membership test
    J = ideal_of(R, "x^2 - x", "y^2")
    assert "x^4 does not lie in the ideal" in J.m_primary_witness()
    # a minimal basis whose every term lies in the leading ideal spans a
    # monomial ideal: phi((x, y)^3) for phi: x -> x + y is (x, y)^3
    K = ideal_of(R, "(x + y)^3", "(x + y)^2*y", "(x + y)*y^2", "y^3")
    K.require_m_primary()
    assert K.monomial_generators() == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert I.monomial_generators() is None
    assert calls == []
    assert I._basis is None and J._basis is None and K._basis is None


def test_tag_elimination_interreduces_only_the_tag_free_elements(monkeypatch):
    seen = []
    interreduce = ideals._interreduce

    def recorded(basis, ring):
        seen.append((ring, list(basis.lms)))
        return interreduce(basis, ring)

    monkeypatch.setattr(ideals, "_interreduce", recorded)
    a = [R.parse("x^3 + x*y^2"), R.parse("y^4")]
    b = [R.parse("x^2*y - y^3"), R.parse("x^5")]
    polys = ideals._tag_intersection(R, a, b)
    ((S, lms),) = seen
    unpack = ideals._packing(S).unpack
    assert all(unpack(lm)[0] == 0 for lm in lms)
    assert len(lms) == len(polys) > 1
    monkeypatch.undo()
    assert Ideal(R, polys).reduced_basis().polys == tuple(polys)


@pytest.mark.parametrize("seed", range(4))
def test_intersection_membership_oracle(seed):
    rng = random.Random(70 + seed)
    A = groebner_basis([random_polynomial(rng, R, 3, 3) + R.parse("x^4"),
                        random_polynomial(rng, R, 2, 2) + R.parse("y^4")], R)
    B = groebner_basis([random_polynomial(rng, R, 3, 3) + R.parse("x^3*y"),
                        random_polynomial(rng, R, 2, 2) + R.parse("y^3")], R)
    from rrclosure import Ideal

    IA = Ideal(R, A.polys, basis=A)
    IB = Ideal(R, B.polys, basis=B)
    inter = IA.intersection(IB)
    for g in inter.generators:
        assert IA.contains(g) and IB.contains(g)
    for _ in range(20):
        f = random_polynomial(rng, R, max_terms=4, max_exp=6)
        assert inter.contains(f) == (IA.contains(f) and IB.contains(f))


def test_normal_form_is_linear():
    rng = random.Random(11)
    I = ideal_of(R, "x^3 - y", "y^2")
    basis = I.reduced_basis()
    for _ in range(10):
        f = random_polynomial(rng, R)
        g = random_polynomial(rng, R)
        lhs = basis.normal_form(f + g)
        rhs = basis.normal_form(f) + basis.normal_form(g)
        assert lhs == rhs


def test_prime_field_basis():
    S = PolyRing(GF(32003), ("x", "y"))
    gens = [S.parse("x^2 + y^2"), S.parse("x*y - 1")]
    basis = groebner_basis(gens, S)
    for p in basis.polys:
        assert p.leading_coefficient() == 1
    assert Ideal(S, gens).contains(S.parse("x^2 + y^2"))
    assert not Ideal(S, gens).contains(S.parse("x"))


def test_unit_ideal_detection():
    basis = groebner_basis([R.parse("x + 1"), R.parse("x")], R)
    assert [str(p) for p in basis.polys] == ["1"]


def test_zero_input_rejected_gracefully():
    basis = groebner_basis([R.zero, R.parse("x")], R)
    assert [str(p) for p in basis.polys] == ["x"]


EX14 = ("y^22", "x^4*y^18", "x^7*y^15", "x^8*y^14", "x^11*y^11", "x^14*y^8", "x^15*y^7",
        "x^18*y^4", "x^22")


def test_monomial_generators_enter_without_a_pair_update(monkeypatch):
    # a staircase M plus one binomial: the engine appends the generators of M
    # as they are, and runs the Gebauer-Moeller update only for the binomial
    # and for the remainders that the run adds after it
    update, sizes = ideals._update_pairs, []

    def counted(basis, pairs, new_lm, packing):
        sizes.append(len(basis))
        return update(basis, pairs, new_lm, packing)

    monkeypatch.setattr(ideals, "_update_pairs", counted)
    monomials = list(ideal_of(R, *EX14).power(4).generators)
    binomial = R.parse("x^40*y^40 + x^50*y^20")
    engine = ideals._engine_groebner(monomials + [binomial], R)
    assert all(len(g.terms) == 1 for g in monomials)
    # each call sees every monomial generator already in place, then one more
    # element per earlier call: the binomial, then each remainder
    assert sizes == list(range(len(monomials), len(monomials) + len(sizes)))
    assert 1 <= len(sizes) < len(monomials)
    basis = ideals.ReducedBasis._from_engine(engine, R)
    assert all(basis.normal_form(g).is_zero() for g in monomials + [binomial])


def sympy_reduced_basis(polys, ring):
    """Reduced degrevlex basis by sympy, as a set of monic term sets."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(ring.variables)
    p = ring.field.characteristic
    opts = {"modulus": p} if p else {"domain": "QQ"}
    exprs = []
    for f in polys:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
        exprs.append(sympy.Poly.from_dict(terms, *gens, **opts).as_expr())
    out = set()
    for g in sympy.groebner(exprs, *gens, order="grevlex", **opts).polys:
        # Poly.monic() divides by the lex leading coefficient, so divide here
        terms = g.terms(order="grevlex")
        if p:
            inv = pow(int(terms[0][1]), -1, p)
            out.add(frozenset((e, int(c) * inv % p) for e, c in terms))
        else:
            lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
            out.add(frozenset((e, Fraction(int(c.p), int(c.q)) / lc) for e, c in terms))
    return out


@pytest.mark.parametrize(
    "ring, seed",
    [(ring, seed) for ring in CRITERION_RINGS.values() for seed in range(10)],
    ids=[f"{name or 'QQ[x,y]-'}{seed}" for name in CRITERION_RINGS for seed in range(10)],
)
def test_staircase_plus_polynomials_matches_sympy(ring, seed):
    # the monomial generators skip the pair update, so check the whole reduced
    # basis, not only the Buchberger criterion, against an independent engine
    rng = random.Random(500 + seed)
    staircase = set()
    while not staircase:
        staircase = minimal_set(
            tuple(rng.randint(0, 5) for _ in range(ring.dim)) for _ in range(rng.randint(2, 6))
        ) - {(0,) * ring.dim}
    polys = [ring.monomial(e) for e in sorted(staircase)]
    extra = rng.randint(1, 2)
    while len(polys) < len(staircase) + extra:
        f = random_polynomial(rng, ring, max_terms=3, max_exp=3)
        if len(f.terms) > 1:
            polys.append(f)
    rng.shuffle(polys)
    expected = sympy_reduced_basis(polys, ring)
    basis = groebner_basis(polys, ring)
    assert {frozenset(g.terms.items()) for g in basis.polys} == expected


def test_a_new_leading_monomial_retires_the_live_elements_it_divides(monkeypatch):
    # the Gebauer-Moeller update pairs a new element with the live elements
    # only, then retires those whose leading monomial the new one divides:
    # they stay in the basis, where they still reduce
    packing = ideals._packing(R)
    monomials = list(ideal_of(R, *EX14).power(4).generators)
    binomial = R.parse("x^40*y^40 + x^50*y^20")
    basis = ideals._Basis()
    for lm in sorted(packing.pack(g.leading_monomial()) for g in monomials):
        basis.append({lm: 1}, lm)
    terms = ideals._engine_terms(binomial, None, packing.pack)
    new_lm = max(terms)
    divided = [i for i, lm in enumerate(basis.lms) if not (lm - new_lm) & packing.guard]
    assert len(divided) >= 2
    _, added = ideals._update_pairs(basis, {}, new_lm, packing)
    basis.append(terms, new_lm)
    m = len(monomials)
    assert len(basis) == m + 1
    assert basis.live == [i for i in range(m) if i not in divided] + [m]
    assert added and all(j == m for (_, j), _ in added)

    # a whole run on the same input makes fewer lcms than pairing with every
    # element did: 755 lcms before elements retired
    calls = []
    lcm = type(packing).lcm

    def counted(self, a, b):
        calls.append(1)
        return lcm(self, a, b)

    monkeypatch.setattr(type(packing), "lcm", counted)
    engine = ideals._engine_groebner(monomials + [binomial], R)
    assert len(calls) < 755
    basis = ideals.ReducedBasis._from_engine(engine, R)
    assert all(basis.normal_form(g).is_zero() for g in monomials + [binomial])


def staircase_plus_polynomials(ring, seed):
    """The staircase and the polynomials of the sympy test's case ``seed``."""
    rng = random.Random(500 + seed)
    staircase = set()
    while not staircase:
        staircase = minimal_set(
            tuple(rng.randint(0, 5) for _ in range(ring.dim)) for _ in range(rng.randint(2, 6))
        ) - {(0,) * ring.dim}
    polys = [ring.monomial(e) for e in sorted(staircase)]
    extra = rng.randint(1, 2)
    while len(polys) < len(staircase) + extra:
        f = random_polynomial(rng, ring, max_terms=3, max_exp=3)
        if len(f.terms) > 1:
            polys.append(f)
    return staircase, polys[len(staircase):]


@pytest.mark.parametrize(
    "ring, seed",
    [(ring, seed) for ring in CRITERION_RINGS.values() for seed in range(10)],
    ids=[f"{name or 'QQ[x,y]-'}{seed}" for name in CRITERION_RINGS for seed in range(10)],
)
def test_colength_counts_the_leading_staircase_without_a_reduced_basis(ring, seed, monkeypatch):
    staircase, extras = staircase_plus_polynomials(ring, seed)
    I = Ideal.from_exponents(ring, staircase) + Ideal(ring, extras)
    expected = sympy_reduced_basis(I.generators, ring)
    want = brute_colength([degrevlex_max([e for e, _ in g]) for g in expected], ring.dim)
    assert I.colength() == (INFINITE if want is None else want)
    assert I._basis is None
    known_monomial = I.monomial_generators() is not None
    runs = []
    engine = ideals._engine_groebner

    def counted(polys, ring):
        runs.append(1)
        return engine(polys, ring)

    monkeypatch.setattr(ideals, "_engine_groebner", counted)
    basis = I.reduced_basis()
    assert not runs
    assert known_monomial == basis.is_monomial()
    assert basis == Ideal(ring, I.generators).reduced_basis()
    assert {frozenset(g.terms.items()) for g in basis.polys} == expected
