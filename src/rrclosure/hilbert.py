"""Hilbert-Samuel functions, Poincare-series numerators, multiplicities,
Hilbert coefficients and postulation numbers.

The numerator of PS_I(X) = f(X)/(1-X)^d is recovered from length samples
h(n) = colength(I^{n+1}): since the generating series of h is
f(X)/(1-X)^{d+1}, the coefficients a_i are the (d+1)-fold backward
differences of the h-sequence.  The quotient variant I/(x) works the same
way one dimension down, sampling colength(I^{n+1} + (x)), which is
colength(I) at n = 0 since x lies in I.

Sampling ends after ``window`` zero differences (heuristic mode) or at the
regularity bound (certified mode).  For d = 2 and x one element of a
certified reduction (x, y) with local length l = colength(R/(x, y)), the
quotient series has an exact stop: R/(x) is Cohen-Macaulay of dimension
one and y is regular on it, so with bars for images in R/(x),
y*Ibar^n <= Ibar^{n+1} <= Ibar^n and every first difference
q(n) - q(n-1) = length(Ibar^n / Ibar^{n+1}) is at most l, with equality iff
Ibar^{n+1} = y*Ibar^n, which then holds for all later n (Northcott 1960;
Huneke-Swanson, ch. 8 and 11).  The first n with difference l fixes the
numerator; the window or the bound remains the fallback.

In two variables a quotient sample q(n) = colength(I^{n+1} + (x)), n >= 1,
that would need a Groebner basis is first bounded, and taken from the
bounds when they meet (``_quotient_bounds``).  Multiplication by x gives
the exact sequence
0 -> R/(I^{n+1} : x) -> R/I^{n+1} -> R/(I^{n+1} + (x)) -> 0, so
q(n) = h(n) - length(R/(I^{n+1} : x)) with h(n) = colength(I^{n+1}), which
the Poincare series has sampled.  An ideal inside the colon gives a floor,
one around it a ceiling:
- Floor, any I: x lies in I, so I^n <= (I^{n+1} : x) and
  q(n) >= h(n) - h(n-1).
- Floor, monomial I: m*x is in the monomial ideal I^{n+1} iff each of its
  terms is, so a monomial m lies in (I^{n+1} : x) iff m*t lies in I^{n+1}
  for every term t of x.  Those monomials span
  M_n = intersection over t of (I^{n+1} : t), one
  ``_kernels.staircase_colon``, with I^n <= M_n <= (I^{n+1} : x), so
  q(n) >= h(n) - colength(M_n), the sharper floor.
- Ceiling, x an element of a certified reduction (x, y): the step bound
  q(n) <= q(n-1) + l of the exact stop above.
- Ceiling, monomial I with x having a term on every compact edge E of its
  Newton polygon NP(I): E has a primitive inner normal w_E > 0, and
  v_E(f) = min of <w_E, t> over the terms t of f is a valuation: the
  w_E-initial forms of f and g multiply to that of f*g, so
  v_E(f*g) = v_E(f) + v_E(g).  NP(I) is cut out by the half-planes
  <w_E, -> >= v_E(I) of its compact edges and the two axes, and the
  monomials on or above n*NP(I) span the integral closure of I^n
  (Huneke-Swanson 1.4.2), so f lies in it iff v_E(f) >= n*v_E(I) for every
  E.  A term of x on E gives v_E(x) = v_E(I), and f*x in I^{n+1} gives
  v_E(f) >= (n+1)*v_E(I) - v_E(x) = n*v_E(I).  So (I^{n+1} : x) lies in
  the integral closure of I^n, and q(n) <= h(n) minus its colength
  (``_kernels.integral_closure_polynomial``).  A missed edge loses this: for
  I = (x^3, xy, y^3) and x = x^3, (I^2 : x^3) = (x^3, xy, y^2) holds y^2,
  which lies under the edge from (0, 3) to (1, 1).
A floor above a ceiling can come only from a certificate whose colength
is not l, and raises ``CertifiedBoundViolation``, as a difference above
the step bound does.

The closure pipeline (``closure._quotient_series``) samples a reduction's
quotient series once per torus orbit, by this argument.  The torus (k*)^d
acts by x_j -> t_j*x_j and fixes every monomial ideal (Miller-Sturmfels,
ch. 3).  Let f and g have the same term support S and
let S be affinely independent.  Fix a_s in S.  The characters
t -> t^(a - a_s), a in S, are then independent, so the torus maps onto
(kbar*)^(|S|-1) and g = c*t(f) for some t and some nonzero c over the
algebraic closure.  For a monomial I, t maps I^{n+1} + (f) onto
I^{n+1} + (g).  Colengths do not change under this automorphism or under
the field extension, so the samples, the numerator and the exact stop of
f and g agree.  The Newton-vertex search gives every element of a
monomial I's first candidate reduction the same support.

A binomial x needs no Groebner basis when I is monomial in two variables
(binomial normal forms, Eisenbud-Sturmfels 1996; the corner chains of
Miller-Sturmfels, ch. 3).  Let J = I^{n+1} and let x have the terms
x^a and x^b, neither dividing the other, ordered so that a_x < b_x and
a_y > b_y.  Then x = c*u*g with c a unit, u = x^a_x*y^b_y and
g = y^q + c'*x^p, where p = b_x - a_x, q = a_y - b_y and c' != 0.  Since
(J + (u*g)) : u = (J : u) + (g), multiplication by u maps R/(K + (g)),
K = J : u, onto (J + (u))/(J + (x)), so
colength(J + (x)) = colength(J + (u)) + colength(K + (g)).  R/(g) is free
over k[x] on 1, y, ..., y^{q-1}, and there x^i*y^j is a unit times
x^{i + p*(j // q)}*y^{j % q}.  K is spanned by monomials, so its image is
the sum over r < q of x^{e_r}*k[x]*y^r, with e_r the least exponent of x
over K's monomials with j % q = r.  The least such monomial above K's
corner (i, j) keeps i and moves j up to the residue r, which gives
e_r = min over corners of i + p*(j // q) + p*[r < j % q], and
colength(K + (g)) = sum over r < q of e_r, which
``_kernels.binomial_quotient_colength`` counts in runs of equal e_r.
"""

from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple

from . import _kernels
from .errors import (
    BoundTooLargeError,
    CertifiedBoundViolation,
    ElementNotInIdealError,
    ZeroPolynomialError,
)
from .ideals import Ideal
from .polynomials import Polynomial

DEFAULT_MAX_SAMPLES = 4096

HEURISTIC = "heuristic"
CERTIFIED = "certified"


def regularity_bound(e: int, d: int) -> int:
    """Upper bound for the regularity of the associated graded ring, as a
    function of multiplicity e and dimension d: e-1 in dimension one,
    e^(2(d-1)!-1) * (e-1)^((d-1)!) otherwise."""
    if e < 1 or d < 1:
        raise ValueError("multiplicity and dimension must be positive")
    if d == 1:
        return e - 1
    f = factorial(d - 1)
    return e ** (2 * f - 1) * (e - 1) ** f


class SeriesData(NamedTuple):
    """Poincare-series numerator plus the invariants read off from it.

    ``exact`` is true when sampling ended at the certified dimension-one stop
    rather than at the window or the regularity bound.
    """

    numerator: tuple[int, ...]
    denominator_power: int
    mode: str
    window_used: int
    samples: tuple[int, ...]
    exact: bool = False

    @property
    def multiplicity(self) -> int:
        return sum(self.numerator)

    @property
    def postulation(self) -> int:
        return len(self.numerator) - 1 - self.denominator_power

    def polynomial_value(self, n: int) -> int:
        """Hilbert-Samuel polynomial evaluated at n."""
        D = self.denominator_power
        coeffs = hilbert_coefficients(self)
        return sum((-1) ** j * coeffs[j] * _binom(n + D - j, D - j) for j in range(D + 1))


def _binom(n: int, k: int) -> int:
    """Binomial coefficient as a polynomial in n (n may be negative)."""
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def hilbert_coefficients(data: SeriesData) -> tuple[int, ...]:
    """e_j = sum_i C(i, j) a_i for j = 0..denominator_power."""
    a = data.numerator
    return tuple(sum(comb(i, j) * a[i] for i in range(len(a))) for j in range(data.denominator_power + 1))


def _require_quotient_element(I: Ideal, x: Polynomial):
    """Guard of the quotient functions: I is m-primary and x a nonzero element of I."""
    I.require_m_primary()
    if x.is_zero():
        raise ZeroPolynomialError("the quotient element must be nonzero")
    if not I.contains(x):
        raise ElementNotInIdealError(f"{x} does not lie in the ideal")


def hilbert_samuel(I: Ideal, n: int) -> int:
    """h_I(n) = colength(I^{n+1}); powers are cached on the ideal."""
    I.require_m_primary()
    if n < 0:
        raise ValueError("the Hilbert-Samuel function is indexed by n >= 0")
    return I.power(n + 1).colength()


def _quotient_bounds(I: Ideal, x: Polynomial, step_bound=None):
    """The function (n, previous) -> (floor, ceiling) that bounds
    q(n) = colength(I^{n+1} + (x)), n >= 1, in two variables, given
    ``previous`` = q(n-1) or None (proofs in the module docstring); None
    when no ceiling applies.

    The floor is h(n) - colength(M_n), M_n = (I^{n+1} : supp x) the
    monomial part of (I^{n+1} : x), for a monomial I, and h(n) - h(n-1)
    otherwise.  The ceiling is the least of q(n-1) + ``step_bound``, when x
    is an element of a certified reduction of colength ``step_bound`` and
    q(n-1) is known, and, for a monomial I and an x with a term on every
    compact edge of NP(I), h(n) minus the colength of the integral closure
    of I^n.  A floor above the ceiling raises ``CertifiedBoundViolation``.
    """
    mono = I.monomial_generators()
    terms = list(x.terms)
    closed = mono is not None and _kernels.meets_every_edge(mono, terms)
    if step_bound is None and not closed:
        return None
    if closed:  # colength of the integral closure of I^n: (e0*n^2 + c*n) / 2
        e0, c = _kernels.integral_closure_polynomial(mono)

    def bounds(n: int, previous=None):
        power = I.power(n + 1)
        h = power.colength()
        if mono is None:
            floor = h - I.power(n).colength()
        else:
            colon = _kernels.staircase_colon(power.monomial_generators(), terms)
            floor = h - _kernels.staircase_colength(colon, 2)
        ceiling = None if step_bound is None or previous is None else previous + step_bound
        if closed:
            top = h - (e0 * n * n + c * n) // 2
            ceiling = top if ceiling is None else min(ceiling, top)
        if ceiling is not None and floor > ceiling:
            raise CertifiedBoundViolation(
                f"quotient length floor {floor} at n = {n} exceeds the certified "
                f"ceiling {ceiling}"
            )
        return floor, ceiling

    return bounds


def _quotient_length(I: Ideal, x: Polynomial, step_bound=None):
    """The function n -> colength(I^{n+1} + (x)) that both quotient
    functions sample.  At n = 0 it is colength(I), since x lies in I; the
    ideal caches it, and a closure's Poincare series has already computed
    it, so that sample builds no basis.  For a monomial I and a monomial x
    the ideal sum is a staircase.  For a monomial I in two variables and a
    binomial x whose terms do not divide each other it is counted on the
    staircase of I^{n+1} (``_kernels.binomial_quotient_colength``, see the
    module docstring).  Every other sample in two variables has a ceiling
    when ``step_bound`` is given (q(n-1) + ``step_bound``) or x has a term
    on every compact edge of NP(I); it is then bounded first
    (``_quotient_bounds``) and taken from the bounds when they meet.  The
    ideal sum and its Groebner basis are the fallback, and the only route
    in three or more variables, where no ceiling applies.
    """
    mono = I.monomial_generators()
    terms = list(x.terms)
    count = lambda n: (I.power(n + 1) + x).colength()
    bounds = None  # set when count(n) needs the engine and a ceiling may spare it
    if I.ring.dim == 2 and (mono is None or len(terms) > 1):
        a, b = terms[0], terms[-1]
        if mono is not None and len(terms) == 2 and (a[0] - b[0]) * (a[1] - b[1]) < 0:
            count = lambda n: _kernels.binomial_quotient_colength(
                I.power(n + 1).monomial_generators(), a, b)
        else:
            bounds = _quotient_bounds(I, x, step_bound)
    taken = {}  # n -> q(n), for the step ceiling

    def length(n: int) -> int:
        if n == 0:
            q = I.colength()
        elif bounds is not None:
            floor, ceiling = bounds(n, taken.get(n - 1))
            q = floor if floor == ceiling else count(n)
        else:
            q = count(n)
        taken[n] = q
        return q

    return length


def hilbert_samuel_quotient(I: Ideal, x: Polynomial, n: int) -> int:
    """Hilbert-Samuel function of the image of I in R/(x): colength(I^{n+1} + (x))."""
    _require_quotient_element(I, x)
    if n < 0:
        raise ValueError("the Hilbert-Samuel function is indexed by n >= 0")
    return _quotient_length(I, x)(n)


def _trimmed(diffs) -> list[int]:
    """The differences without their trailing zeros."""
    cut = len(diffs)
    while cut and diffs[cut - 1] == 0:
        cut -= 1
    return diffs[:cut]


def _sampling_window(mode, window, d_ring) -> int:
    """The window in force: ``window``, or d + 3 when it is None; raises
    ValueError for an unknown mode or a window below 1."""
    if mode not in (HEURISTIC, CERTIFIED):
        raise ValueError(f"unknown mode {mode!r}")
    window = window if window is not None else d_ring + 3
    if window < 1:
        raise ValueError("window must be positive")
    return window


def _series_from_lengths(length_fn, d_ring, d_eff, mode, window, step_bound=None) -> SeriesData:
    """Sample length_fn(0), length_fn(1), ... until the numerator is fixed.

    Sampling ends at the first of: a first difference equal to
    ``step_bound`` (the exact dimension-one stop, when given); ``window``
    consecutive zero numerator differences (heuristic mode); the regularity
    bound, re-estimated as e0 grows, once the window has passed (certified
    mode).  More than ``DEFAULT_MAX_SAMPLES`` samples raise
    :class:`BoundTooLargeError`.
    """
    window = _sampling_window(mode, window, d_ring)
    depth = d_eff + 1
    signed = [(-1) ** j * comb(depth, j) for j in range(depth + 1)]

    samples: list[int] = []
    diffs: list[int] = []
    zero_run = 0
    target = None  # certified mode: sample count to reach, once the window passed
    exact = False
    while True:
        n = len(samples)
        if n >= DEFAULT_MAX_SAMPLES:
            raise BoundTooLargeError(
                f"needed {n + 1} length samples but the cap is {DEFAULT_MAX_SAMPLES}"
            )
        samples.append(length_fn(n))
        diffs.append(sum(signed[j] * samples[n - j] for j in range(depth + 1) if n - j >= 0))

        if step_bound is not None:
            step = samples[n] - (samples[n - 1] if n else 0)
            if step > step_bound:
                raise CertifiedBoundViolation(
                    f"length difference {step} at n = {n} exceeds the certified "
                    f"bound {step_bound}"
                )
            if step == step_bound:
                exact = True
                break

        if target is None:
            zero_run = zero_run + 1 if diffs[n] == 0 else 0
            if zero_run < window:
                continue
            if mode == HEURISTIC:
                break
        if target is None or n + 1 >= target:
            # pn(I; -) <= regularity_bound(e0, d) + 1, so the numerator degree
            # is at most bound + 1 + d_eff; re-estimated in case e0 grows
            e0_est = sum(_trimmed(diffs))
            target = regularity_bound(max(e0_est, 1), d_ring) + 1 + d_eff + 1
            if target <= n + 1:
                break
            if target > DEFAULT_MAX_SAMPLES and step_bound is None:  # nothing ends it sooner
                raise BoundTooLargeError(
                    f"needed {target} length samples but the cap is {DEFAULT_MAX_SAMPLES}"
                )

    numerator = tuple(_trimmed(diffs)) or (0,)
    return SeriesData(
        numerator=numerator,
        denominator_power=d_eff,
        mode=mode,
        window_used=window,
        samples=tuple(samples),
        exact=exact,
    )


def poincare_series(
    I: Ideal,
    mode: str = HEURISTIC,
    window: int | None = None,
) -> SeriesData:
    """Numerator of PS_I(X) = f(X)/(1-X)^d, with e0 and pn read off it."""
    I.require_m_primary()
    d = I.ring.dim
    return _series_from_lengths(lambda n: I.power(n + 1).colength(), d, d, mode, window)


def poincare_series_quotient(
    I: Ideal,
    x: Polynomial,
    mode: str = HEURISTIC,
    window: int | None = None,
    reduction=None,
) -> SeriesData:
    """Poincare data of the image of I in R/(x) (denominator power d-1).

    ``reduction`` is a ``ReductionCertificate``; when d = 2 and x is one of
    its elements, sampling stops exactly at the first difference equal to
    its colength, and q(n-1) plus that colength caps each sample, so that a
    sample whose floor meets the cap needs no Groebner basis (see the
    module docstring and ``_quotient_length``).
    """
    _require_quotient_element(I, x)
    d = I.ring.dim
    step_bound = None
    if reduction is not None and d == 2 and x in reduction.elements:
        step_bound = reduction.colength
    return _series_from_lengths(
        _quotient_length(I, x, step_bound), d, d - 1, mode, window, step_bound
    )

