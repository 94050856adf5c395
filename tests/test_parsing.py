"""cli-io: the problem-file grammar and polynomial syntax."""

import argparse

import pytest

from rrclosure import GF, ParseError, PolyRing, ProblemFile, QQ, parse_polynomial, parse_problem

R = PolyRing(QQ, ("x", "y"))


def test_parse_golden_ideals():
    pf = parse_problem("ring: QQ[x,y]\nideal: x^10, y^5, x*y^4, x^8*y\n")
    assert pf.ring == R
    assert [str(g) for g in pf.generators] == ["x^10", "y^5", "x*y^4", "x^8*y"]

    pf33 = parse_problem("ideal: x^8, x^3*y^2, x^2*y^4, y^8\n")
    assert pf33.ring.variables == ("x", "y")  # inferred, alphabetical
    assert [str(g) for g in pf33.generators] == ["x^8", "x^3*y^2", "x^2*y^4", "y^8"]


def test_parse_reduction_and_overrides():
    text = (
        "# Example with everything\n"
        "ring: QQ[x,y]\n"
        "ideal: x^10, y^5, x*y^4, x^8*y\n"
        "reduction: y^5+x^10+x^8*y, x*y^4\n"
    )
    pf = parse_problem(text)
    assert pf.reduction is not None and len(pf.reduction) == 2
    assert [str(x) for x in pf.reduction] == ["x^10 + x^8*y + y^5", "x*y^4"]
    # run options are flags, not problem entries
    for entry in ("mode: heuristic", "seed: 7", "k: 3"):
        with pytest.raises(ParseError, match="line 5: unknown entry"):
            parse_problem(text + entry + "\n")


def test_problem_round_trip():
    text = "ring: QQ[x,y]\nideal: x^2, x*y, y^2\nreduction: x^2 - y^2, x*y\n"
    pf = parse_problem(text)
    pf2 = parse_problem(pf.render())
    assert pf2.ring == pf.ring
    assert pf2.generators == pf.generators
    assert pf2.reduction == pf.reduction


def test_a_problem_file_holds_no_run_option():
    # mode, seed and k are flags only: no value is settable in two places
    from rrclosure.cli import build_parser

    assert ProblemFile._fields == ("ring", "generators", "reduction")
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions}
        assert not dests & set(ProblemFile._fields), name


@pytest.mark.parametrize("text, message", [
    ("x + ", "expected a number, variable or parenthesized expression"),
    ("x ^ y", "exponent must be a nonnegative integer"),
    ("x + z", "unknown variable 'z'"),
    ("x $ y", "unexpected character '$'"),
    ("(x", "expected ')'"),
    ("x y", "unexpected trailing 'y'"),
    ("1/0*x", "bad rational coefficient"),
])
def test_syntax_error_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, R)
    assert err.value.position is not None
    assert message in str(err.value)


def test_unary_minus_inside_a_product():
    assert parse_polynomial("x*-y", R) == -R.parse("x*y")


@pytest.mark.parametrize("text, message", [
    ("ideal: x - x\n", "zero generator in 'ideal:'"),
    ("ring: QQ[x,y]\n", "nonempty 'ideal:' entry"),
    ("ring: QQ[x,x]\nideal: x\n", "variable names must be distinct"),
    ("ideal: x\nmode: quick\n", "unknown entry 'mode'"),
    ("ideal: x\nideal: y\n", "duplicate entry 'ideal'"),
    ("stuff: x\n", "unknown entry 'stuff'"),
    ("ideal: x), y\n", "unbalanced ')'"),
    ("ideal: (x, y\n", "unbalanced '('"),
    ("foo\n", "line 1: expected 'key: value'"),
    ("ring: ZZ[x]\nideal: x\n", "bad ring descriptor 'ZZ[x]'"),
    ("ring: QQ[]\nideal: x\n", "ring declares no variables"),
    ("ideal: 3\n", "cannot infer variables"),
    ("ideal: x, , y\n", "empty expression in 'ideal:'"),
])
def test_problem_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert message in str(err.value)


def test_prime_field_ring_line():
    pf = parse_problem("ring: Fp:32003[x,y]\nideal: x^2 + 31*y, y^3\n")
    assert pf.ring.field == GF(32003)
    assert pf.generators[0].coefficient((0, 1)) == 31


def test_rational_coefficients_round_trip():
    f = R.parse("1/2*x + 3*y^2 - 7")
    assert parse_polynomial(str(f), R) == f
    assert f.coefficient((1, 0)).denominator == 2


def test_parenthesized_powers():
    f = R.parse("(x + y)^3")
    assert f == R.parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    pf = parse_problem("ideal: (x+y)^2, y^2\n")
    assert len(pf.generators) == 2
