"""Sparse multivariate polynomials over an exact field.

A ring is a descriptor (field, variable names, term order); polynomials are
immutable term maps from exponent tuples to nonzero field elements.  All
arithmetic is exact; values can be shared freely across threads.
"""

from __future__ import annotations

from . import _kernels
from .errors import ExponentOverflowError, RingMismatchError, ZeroPolynomialError
from .orders import MAX_EXPONENT, TermOrder, degrevlex
from .scalars import QQ

_NAME_OK = str.isidentifier


class PolyRing:
    """Descriptor of a polynomial ring k[x_1..x_d] with a global term order."""

    __slots__ = ("field", "variables", "order", "dim", "_zero", "_one")

    def __init__(self, field=QQ, variables=("x", "y"), order: TermOrder | None = None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for name in variables:
            if not _NAME_OK(name):
                raise ValueError(f"bad variable name {name!r}")
        self.field = field
        self.variables = variables
        self.dim = len(variables)
        self.order = order if order is not None else degrevlex()
        self._zero = Polynomial(self, {})
        self._one = Polynomial(self, {(0,) * self.dim: field.one})

    @property
    def zero(self) -> "Polynomial":
        return self._zero

    @property
    def one(self) -> "Polynomial":
        return self._one

    def poly(self, terms) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient} data."""
        clean = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != self.dim or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {self!r}")
            if any(e > MAX_EXPONENT for e in exps):
                raise ExponentOverflowError(f"exponent in {exps!r} exceeds {MAX_EXPONENT}")
            c = self.field(coeff)
            if c != self.field.zero:
                clean[exps] = c
        return Polynomial(self, clean)

    def monomial(self, exps, coeff=1) -> "Polynomial":
        return self.poly({tuple(exps): coeff})

    def const(self, value) -> "Polynomial":
        return self.poly({(0,) * self.dim: value})

    def var(self, which) -> "Polynomial":
        if isinstance(which, str):
            which = self.variables.index(which)
        exps = [0] * self.dim
        exps[which] = 1
        return self.monomial(exps)

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(i) for i in range(self.dim))

    def parse(self, text: str) -> "Polynomial":
        from .parsing import parse_polynomial

        return parse_polynomial(text, self)

    def monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field}[{','.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial; terms map exponent tuples to coefficients."""

    __slots__ = ("ring", "terms", "_lead", "_hashed")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lead = None
        self._hashed = None

    # -- basic queries ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_term(self):
        """The maximal (exponent tuple, coefficient) pair under the ring's order."""
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        if self._lead is None:
            self._lead = max(self.terms, key=self.ring.order.key)
        return self._lead, self.terms[self._lead]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coefficient(self):
        return self.leading_term()[1]

    def sorted_terms(self, reverse: bool = True):
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=reverse)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def monic(self) -> "Polynomial":
        _, lc = self.leading_term()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"mixing rings {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        field = self.ring.field
        zero = field.zero
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = field.add(terms.get(e, zero), c)
            if v == zero:
                terms.pop(e, None)
            else:
                terms[e] = v
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar) -> "Polynomial":
        field = self.ring.field
        c = field(scalar)
        if c == field.zero:
            return self.ring.zero
        mul = field.mul
        return Polynomial(self.ring, {e: mul(v, c) for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero
        if len(self.terms) > len(other.terms):
            self, other = other, self
        field = self.ring.field
        zero = field.zero
        add, mul = field.add, field.mul
        out = {}
        mono_mul = _kernels.mono_mul
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                v = add(out.get(e, zero), mul(c1, c2))
                if v == zero:
                    out.pop(e, None)
                else:
                    out[e] = v
        for e in out:
            if any(x > MAX_EXPONENT for x in e):
                raise ExponentOverflowError("product exceeds the exponent width")
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers need a nonnegative integer exponent")
        if n == 0:
            return self.ring.one
        if self.terms and self.total_degree() * n > MAX_EXPONENT:
            raise ExponentOverflowError(f"degree {self.total_degree()}^{n} exceeds the exponent width")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hashed is None:
            self._hashed = hash((self.ring, frozenset(self.terms.items())))
        return self._hashed

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        chunks = []
        for exps, coeff in self.sorted_terms():
            mono = self.ring.monomial_str(exps)
            cs = field.to_str(coeff)
            negative = cs.startswith("-")
            if negative:
                cs = cs[1:]
            if mono == "1":
                body = cs
            elif cs == "1":
                body = mono
            else:
                body = f"{cs}*{mono}"
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"
