"""Metamorphic checks: the closure commutes with the change of coordinates
phi: x -> x + y.

The closure of phi(I) runs the general path (Groebner bases and the exact
colon chain by tag elimination), while the closure of the monomial I runs the
staircase path; phi of the latter is the expected answer, so no outside
algebra system is needed.
"""

import pytest

from rrclosure import GF, QQ, Ideal, PolyRing, closure

SKEW = [(4, 0), (3, 1), (1, 3), (0, 4)]  # its closure adds x^2*y^2


def phi(S: PolyRing, e):
    """x -> x + y on the monomial with exponent vector e."""
    return (S.var(0) + S.var(1)) ** e[0] * S.monomial((0,) + tuple(e[1:]))


@pytest.mark.parametrize(
    "field, variables, exps",
    [
        (QQ, ("x", "y"), SKEW),
        (GF(32003), ("x", "y"), SKEW),
        (QQ, ("x", "y", "z"), [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2)]),
    ],
    ids=["skew-QQ", "skew-GF32003", "xyz-QQ"],
)
def test_closure_commutes_with_x_to_x_plus_y(field, variables, exps):
    S = PolyRing(field, variables)
    monomial = closure(Ideal.from_exponents(S, exps), seed=0)
    moved = Ideal(S, [phi(S, e) for e in exps])
    assert moved.monomial_generators() is None
    general = closure(moved, seed=0)
    want = Ideal(S, [phi(S, e) for e in monomial.closure_ideal.monomial_generators()])
    assert general.closure_ideal.equals(want)
    assert general.is_closed == monomial.is_closed
    assert general.is_closed == (exps != SKEW)
