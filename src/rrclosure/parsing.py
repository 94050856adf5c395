"""Input grammar: polynomial expressions and problem files.

Polynomial expressions use `^` for powers, `*` for products, `+`/`-` and
parentheses, with integer (or `a/b` rational) coefficients, e.g.
``x^10 + y^5 - 3*x*y^4``.  Problem files are line-oriented::

    ring: QQ[x,y]            # or Fp:<prime>[x,y]; optional, defaults to QQ
    ideal: x^10, y^5, x*y^4, x^8*y
    reduction: y^5+x^10+x^8*y, x*y^4   # optional

`#` starts a comment.  When the ring line is missing, the field defaults to
QQ and the variables are inferred from the expressions in alphabetical
order.  A file states the problem only: the mode, seed and chain index of
a run are command-line flags.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import FieldError, ParseError
from .polynomials import Polynomial, PolyRing
from .scalars import QQ, PrimeField

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", position=pos)
            break
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _ExprParser:
    """Recursive descent over + - * ^ with unary minus and parentheses."""

    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", position=pos)

    def parse(self) -> Polynomial:
        poly = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", position=pos)
        return poly

    def expression(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.take()
            negate = value == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", position=pos)
            return base**value
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.take()
        if kind == "num":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num" or v3 == 0:
                    raise ParseError("bad rational coefficient", position=p3)
                return self.ring.const(Fraction(value, v3))
            return self.ring.const(value)
        if kind == "name":
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}", position=pos)
            return self.ring.var(value)
        if kind == "op" and value == "(":
            poly = self.expression()
            self.expect_op(")")
            return poly
        if kind == "op" and value == "-":
            return -self.atom()
        raise ParseError("expected a number, variable or parenthesized expression", position=pos)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression into a polynomial of ``ring``."""
    return _ExprParser(_tokenize(text), ring).parse()


_RING_LINE = re.compile(r"^\s*(?:QQ|Fp:(?P<p>\d+))\s*\[\s*(?P<vars>[^\]]*)\]\s*$")


class ProblemFile(NamedTuple):
    """Parsed problem: ring, generators and an optional reduction."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    reduction: tuple[Polynomial, ...] | None = None

    def render(self) -> str:
        lines = [
            f"ring: {self.ring.field.name}[{','.join(self.ring.variables)}]",
            "ideal: " + ", ".join(str(g) for g in self.generators),
        ]
        if self.reduction is not None:
            lines.append("reduction: " + ", ".join(str(g) for g in self.reduction))
        return "\n".join(lines) + "\n"


def _split_top_level(text: str):
    """Split on commas that are not nested in parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", position=i)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise ParseError("unbalanced '('")
    parts.append(text[start:])
    return parts


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; raises ParseError with positions on bad input."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key not in ("ring", "ideal", "reduction"):
            raise ParseError(f"line {lineno}: unknown entry {key!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate entry {key!r}")
        entries[key] = value.strip()

    if "ideal" not in entries or not entries["ideal"]:
        raise ParseError("problem file must declare a nonempty 'ideal:' entry")

    field = QQ
    if "ring" in entries:
        m = _RING_LINE.match(entries["ring"])
        if m is None:
            raise ParseError(f"bad ring descriptor {entries['ring']!r}")
        if m.group("p") is not None:
            try:
                field = PrimeField(int(m.group("p")))
            except FieldError as exc:
                raise ParseError(f"bad ring declaration: {exc}") from None
        variables = tuple(v.strip() for v in m.group("vars").split(",") if v.strip())
        if not variables:
            raise ParseError("ring declares no variables")
    else:
        names = set()
        for chunk in (entries["ideal"], entries.get("reduction", "")):
            for kind, value, _ in _tokenize(chunk.replace(",", "+")):
                if kind == "name":
                    names.add(value)
        if not names:
            raise ParseError("cannot infer variables; add a 'ring:' line")
        variables = tuple(sorted(names))

    try:
        ring = PolyRing(field, variables)
    except ValueError as exc:
        raise ParseError(f"bad ring declaration: {exc}") from None

    def parse_list(source: str, label: str):
        polys = []
        for chunk in _split_top_level(source):
            if not chunk.strip():
                raise ParseError(f"empty expression in '{label}:'")
            poly = parse_polynomial(chunk, ring)
            if poly.is_zero():
                raise ParseError(f"zero generator in '{label}:'")
            polys.append(poly)
        return tuple(polys)

    generators = parse_list(entries["ideal"], "ideal")
    reduction = parse_list(entries["reduction"], "reduction") if "reduction" in entries else None
    return ProblemFile(ring, generators, reduction)
