"""Ratliff-Rush closure of an m-primary ideal.

The pipeline: (1) Poincare series of I, sampled from the colengths of
its powers, gives e0 and pn(I); for a monomial I in two variables e0 must
equal 2 * covol of its Newton polygon (``e0-newton-polygon`` in
``checks_passed``; a mismatch fails the round), and the powers are
multiplied by the Newton-vertex generators alone once those give the next
power (``Ideal._next_power``); (2) a certified superficial sequence
x_1..x_d, whose search starts from the Newton polyhedron's vertices for a
monomial I, and stays on them in two variables; (3) quotient Poincare
series give pn(I; x_1..x_d), sampled from colength(I^{n+1} + (x_i)),
which is colength(I) at n = 0 and, for a monomial I in two variables and
a binomial x_i, is counted on the staircase of I^{n+1} with no Groebner
basis (``_kernels.binomial_quotient_colength``); every other sample in two
variables is taken from a floor and a ceiling where they meet, which for
the trinomials of the Newton-vertex search is most of them
(``hilbert._quotient_bounds``), and from a Groebner basis otherwise; (4) the
closure is the colon (I^{k+1} : (x_1^k..x_d^k)) at
k = max(pn(I;xs)+1, 1).  For a monomial I, in any number of variables,
step (4) takes only the monomial part of that colon, on the staircase of
I^{k+1}, since the closure is monomial there; it needs only the term
supports of the x_i^k and x_i^{k+1}, which ``ideals.power_supports`` finds
with no polynomial built.  Every other input takes the exact colon by tag
elimination (``chain_term``).  For d = 2 each quotient series of step (3)
stops exactly where its first difference reaches the certified local
length of R/(x_1, x_2), recorded as ``quotient-i-exact`` in
``checks_passed``; the sampling window (heuristic) or the regularity bound
(certified) is only the fallback.  For a monomial I, elements of step (2)
with one affinely independent support lie in one torus orbit and share one
quotient series (``_quotient_series``; the proof is in the ``hilbert``
module docstring).  In heuristic mode the run additionally verifies that
the colon chain has stabilized at k.  A failed round is retried with a
doubled sampling window only when a wider window can change what failed
(``closure`` states the rule).  The alternative colon-powers route
(I^{k+1} : I^k) is exposed for cross-validation at its certified threshold.

Every input first tries a proved shortcut, reduction number one, which
reads only h(n) = colength(I^{n+1}) for n = 0, 1, 2 and needs no window, no
quotient series and no colon.  Let J = (x_1..x_d) lie in I and have finite
length at the origin.  R is Cohen-Macaulay there, so x_1..x_d is a regular
sequence and J/J*I = (R/I)^d; since J*I lies in I^2,
    lambda(R/J) = lambda(R/J*I) - d*h(0) >= h(1) - d*h(0),
with equality exactly when J*I = I^2 (Huneke-Swanson ch. 8, 11).  So the
length test that certifies a reduction (``reductions.certify_sequence``),
run against h(1) - d*h(0) in place of e0, passes exactly on the J with
J*I = I^2.  Such a J is a minimal reduction of I with r_J(I) <= 1, and
gr_I(R) is Cohen-Macaulay (Goto-Shimoda 1979; Valla 1979), so every power
of I is Ratliff-Rush closed (Heinzer-Lantz-Shah 1992): the closure is I.
The Poincare series is then (h(0) + (e0 - h(0))X)/(1-X)^d with
e0 = lambda(R/J) = h(1) - d*h(0) (Huneke 1987; Ooishi 1987), and each x_i*
is regular on gr_I(R), so every quotient series has the same numerator
(Valabrega-Valla 1978).  No sampled number enters the proof.
- The shape check.  That series gives h(2) = (d+1)*h(1) - d(d+1)/2*h(0).
  When it fails, r_J(I) >= 2 for every J, and the run goes on as above.
- The staircase guard.  For a monomial I in two variables e0 is the Newton
  polygon's, and a minimal reduction J has lambda(R/J) = e0, so r_J(I) <= 1
  exactly when e0 = h(1) - 2*h(0).  Otherwise no draw can pass, and none
  is made.
The caller's reduction is certified as given; otherwise the search
certifies its draws (``reductions.candidate_sequences``), in both modes.
r_J(I) <= 1 for one minimal reduction J makes e0 - e1 = lambda(R/I), which
gives it for every one (Huneke 1987; Ooishi 1987); so where r <= 1, the
targets h(1) - d*h(0) and e0 agree, and the search ends at the draw that
step (2) would certify, with the same certificate.  A pass lists
``reduction-colength-equals-e0`` and ``reduction-number-one`` in
``checks_passed``, after ``e0-newton-polygon`` for a staircase, and reports
the series proved: each lists only the samples it read (h(0..2) for I,
h(0) for a quotient), and its ``window_used`` is the window in force.  A
refused reduction, or a search that certifies no draw, leaves the run to
steps (1)-(4).

For a monomial ideal in two variables, an answer L of step (4) whose
colength equals that of the integral closure Ibar of I, which Pick's
theorem counts on the Newton polygon (``_kernels.integral_closure_colength``),
is proved: L <= closure(I) (``_monomial_chain_term``) <= Ibar, so
L = closure(I) = Ibar.  It lists ``closure-equals-integral-closure`` in
place of the stabilization check.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import _kernels
from .errors import (
    BoundTooLargeError,
    ChainUnstableError,
    GenericityFailureError,
    NotSuperficialError,
)
from .hilbert import (
    HEURISTIC,
    SeriesData,
    _sampling_window,
    _trimmed,
    poincare_series,
    poincare_series_quotient,
    regularity_bound,
)
from .ideals import Ideal, power_supports
from .reductions import (
    ReductionCertificate,
    certify_sequence,
    find_superficial_sequence,
)

DEFAULT_COLON_POWERS_CAP = 512
_STABILITY_RETRIES = 3


class BoundParams(NamedTuple):
    """Certified thresholds derived from multiplicity and dimension."""

    multiplicity: int
    dim: int
    regularity_bound: int
    colon_powers_k: int

    @classmethod
    def for_ideal(cls, e0: int, d: int) -> "BoundParams":
        f_value = regularity_bound(e0, d)
        return cls(e0, d, f_value, (d + 1) * (f_value + 2))


def colon_powers_threshold(e0: int, d: int) -> int:
    """Certified k for the closure formula (I^{k+1} : I^k)."""
    return BoundParams.for_ideal(e0, d).colon_powers_k


def chain_term(I: Ideal, elements, k: int) -> Ideal:
    """The k-th term (I^{k+1} : (x_1^k, ..., x_d^k)) of the colon chain, exact.

    ``closure`` uses it for every input but a monomial ideal, where it takes
    the monomial part of this term instead.
    """
    if k < 1:
        raise ValueError("chain terms are indexed by k >= 1")
    return I.power(k + 1).colon([x**k for x in elements])


def _monomial_chain_term(I: Ideal, supports, k: int) -> Ideal:
    """M_k, the monomial part of L_k = (I^{k+1} : (x_1^k, ..., x_d^k)), for
    a monomial I, given the term supports of the powers x_i^k.

    A monomial m has m*f in the monomial ideal I^{k+1} iff m*t does for
    every term t of f, so M_k is the intersection of (I^{k+1} : t) over the
    terms of every x_i^k.  At k >= pn(I; x), L_k is the closure (Elias),
    which is monomial (Heinzer-Lantz-Shah), so M_k = L_k there.  Below that
    M_k still lies in the closure: M_k is in L_k, and with r the reduction
    number of (x) and n = d(k-1)+1, every monomial of (x)^n has an
    x_i-exponent >= k, so (x)^n is in (x_1^k, ..., x_d^k)(x)^{(d-1)(k-1)},
    and m in L_k gives m*I^{n+r} = m*(x)^n*I^r in I^{n+r+1}.
    """
    exps = _kernels.staircase_colon(I.power(k + 1).monomial_generators(), supports)
    return Ideal._from_minimal(I.ring, exps)


def _quotient_series(I: Ideal, reduction, **opts) -> tuple[SeriesData, ...]:
    """The quotient series of I for every element of the certified
    ``reduction``, one ``poincare_series_quotient`` call per torus orbit
    (see the ``hilbert`` module docstring): for a monomial I, elements whose
    term supports are equal and affinely independent share one; every other
    element, and every element for any other I, gets its own.
    """
    monomial = I.monomial_generators() is not None
    by_support: dict = {}
    out = []
    for x in reduction.elements:
        support = frozenset(x.terms)
        q = by_support.get(support)
        if q is None:
            q = poincare_series_quotient(I, x, reduction=reduction, **opts)
            if monomial and _kernels.affinely_independent(support):
                by_support[support] = q
        out.append(q)
    return tuple(out)


class ClosureReport(NamedTuple):
    """Everything a closure run certifies, for reporting and cross-checks."""

    input_ideal: Ideal
    series: SeriesData
    certificate: ReductionCertificate
    quotient_series: tuple[SeriesData, ...]
    postulation_joint: int
    k_used: int
    closure_ideal: Ideal
    closure_generators: tuple
    is_closed: bool
    mode: str
    checks_passed: tuple[str, ...]
    timings: dict

    @property
    def multiplicity(self) -> int:
        return self.series.multiplicity

    @property
    def postulation(self) -> int:
        return self.series.postulation


def closure(
    I: Ideal,
    reduction=None,
    mode: str = HEURISTIC,
    seed: int = 0,
    window: int | None = None,
) -> ClosureReport:
    """Compute the Ratliff-Rush closure with a full certificate report.

    ``reduction`` may be a sequence of polynomials to use (certified before
    use); otherwise a generic one is searched, deterministically in ``seed``.
    The chain index is always Elias': k = max(pn(I; x_1..x_d) + 1, 1), with
    pn(I; x_1..x_d) the largest postulation number of I and of its quotient
    series (``postulation_joint``); a smaller k gives only an ideal inside
    the closure.

    Every input first tries the reduction-number-one shortcut of the module
    docstring, which returns I, proved closed, in either mode.  Otherwise a
    failed round is retried, with a doubled window, only when a wider window
    can change what failed.  Certified mode samples to the proved bound and runs one
    round.  In heuristic mode a failed check resamples, up to
    ``_STABILITY_RETRIES`` rounds; a failed certification reads only e0 and
    the seed, so it is final when the Newton polygon proves e0 or the
    resampled e0 is the one it was refused against.
    """
    I.require_m_primary()
    mono = I.monomial_generators()
    d = I.ring.dim
    in_force = _sampling_window(mode, window, d)
    newton_e0 = None
    if mono is not None and d == 2:
        # e0 is proven by the Newton polygon, and checks the series
        newton_e0 = _kernels.newton_polygon_e0(mono)
    timings: dict = {}  # phase -> seconds, summed over retry rounds

    def timed(phase: str, fn, *args, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0

    def certified_reduction(e0: int) -> ReductionCertificate:
        if reduction is not None:
            return timed("reduction", certify_sequence, I, reduction, e0, seed=seed)
        return timed("reduction", find_superficial_sequence, I, e0, seed=seed)

    # reduction number one (module docstring): the shape check, the
    # staircase guard, then the length test against h(1) - d*h(0)
    h = timed("poincare", lambda: tuple(I.power(n + 1).colength() for n in range(3)))
    e0 = h[1] - d * h[0]
    if h[2] == (d + 1) * h[1] - d * (d + 1) // 2 * h[0] and newton_e0 in (None, e0):
        try:
            cert = certified_reduction(e0)
        except (GenericityFailureError, NotSuperficialError):
            pass  # no draw has J*I = I^2: the round below decides
        else:
            # J*I = I^2: I is closed, h(n) is the Hilbert polynomial from
            # n = 0, and every quotient series has I's numerator
            series = SeriesData(tuple(_trimmed([h[0], e0 - h[0]])), d, mode, in_force, h)
            q = series._replace(denominator_power=d - 1, samples=h[:1])
            pn_joint = max(series.postulation, q.postulation)
            checks = ("reduction-colength-equals-e0", "reduction-number-one")
            if newton_e0 is not None:
                checks = ("e0-newton-polygon", *checks)
            return ClosureReport(
                input_ideal=I,
                series=series,
                certificate=cert,
                quotient_series=(q,) * d,
                postulation_joint=pn_joint,
                k_used=max(pn_joint + 1, 1),
                closure_ideal=I,
                closure_generators=I.minimal_generators(),
                is_closed=True,
                mode=mode,
                checks_passed=checks,
                timings=timings,
            )

    win = window
    refusal = refused_e0 = None  # the last failed certification and the e0 it read
    for round_no in range(_STABILITY_RETRIES if mode == HEURISTIC else 1):
        if round_no:  # the previous round failed
            win = series.window_used * 2
        series = timed("poincare", poincare_series, I, mode=mode, window=win)
        e0 = series.multiplicity
        if e0 == refused_e0:
            raise refusal  # the same e0 and seed: the same refusal
        refusal = refused_e0 = None
        passed: list[str] = []
        failures: list[str] = []
        # a numerator is the difference transform of its samples, so it
        # reproduces them and the Hilbert polynomial from pn on by
        # construction; only its sum, e0, can come out wrong
        if e0 > 0:
            passed.append("series-consistent")
        else:
            failures.append("series:positive-multiplicity")
        if newton_e0 is not None:
            if e0 != newton_e0:
                # a wrong numerator: no candidate could certify against it
                failures.append("e0-newton-polygon")
                continue
            passed.append("e0-newton-polygon")

        # a wrong heuristic e0 usually dies right here: no candidate can
        # certify against it, and the doubled window may correct it
        try:
            cert = certified_reduction(e0)
        except (GenericityFailureError, NotSuperficialError) as exc:
            if newton_e0 is not None:
                raise  # e0 is proved: a wider window repeats the same search
            refusal, refused_e0 = exc, e0
            continue
        passed.append("reduction-colength-equals-e0")

        quotients = timed("quotient-poincare", _quotient_series, I, cert, mode=mode, window=win)
        for i, q in enumerate(quotients):
            if q.multiplicity > 0:
                passed.append(f"quotient-{i}-consistent")
            else:
                failures.append(f"quotient-{i}:positive-multiplicity")
            if q.exact:
                passed.append(f"quotient-{i}-exact")
        pn_joint = max(series.postulation, *(q.postulation for q in quotients))
        k = max(pn_joint + 1, 1)

        # one generator per element: the supports of x_i^k, then of x_i^(k+1)
        supports = [power_supports(x, k) for x in cert.elements] if mono is not None else None

        def step(j: int) -> Ideal:
            if supports is None:
                return chain_term(I, cert.elements, j)
            return _monomial_chain_term(I, [t for s in supports for t in next(s)], j)

        result = timed("chain-colon", step, k)
        if newton_e0 is not None and (
                result.colength() == _kernels.integral_closure_colength(mono, 1)):
            # result <= closure <= integral closure, of equal colength
            passed.append("closure-equals-integral-closure")
        elif mode == HEURISTIC:
            stable = timed("stabilization-check", lambda: result.equals(step(k + 1)))
            (passed if stable else failures).append("chain-stabilization")
        if not failures:
            break
    else:
        if refusal is not None:
            raise refusal
        rounds = f"{round_no + 1} round" + ("s" if round_no else "")
        unstable = "chain-stabilization" in failures
        raise ChainUnstableError(
            ("the colon chain did not stabilize at the predicted index; " if unstable else "")
            + f"failed checks after {rounds}: {', '.join(sorted(set(failures)))}"
        )

    return ClosureReport(
        input_ideal=I,
        series=series,
        certificate=cert,
        quotient_series=quotients,
        postulation_joint=pn_joint,
        k_used=k,
        closure_ideal=result,
        closure_generators=result.minimal_generators(),
        is_closed=result.equals(I),
        mode=mode,
        checks_passed=tuple(passed),
        timings=timings,
    )


def closure_power(I: Ideal, n: int, **opts) -> ClosureReport:
    """Closure of I^n."""
    if n < 1:
        raise ValueError("closure_power is indexed by n >= 1")
    return closure(I.power(n), **opts)


def is_ratliff_rush_closed(I: Ideal, **opts) -> bool:
    return closure(I, **opts).is_closed


def closure_via_colon_powers(I: Ideal, k: int | None = None, e0: int | None = None):
    """The closure as (I^{k+1} : I^k) at the certified threshold.

    Returns (ideal, BoundParams, certified).  A ``k`` below the threshold is
    accepted but flagged uncertified; without an override the certified k
    must stay under ``DEFAULT_COLON_POWERS_CAP`` (BOUND_TOO_LARGE otherwise).
    """
    I.require_m_primary()
    if e0 is None:
        e0 = poincare_series(I).multiplicity
    bounds = BoundParams.for_ideal(e0, I.ring.dim)
    certified_k = bounds.colon_powers_k
    if k is None:
        if certified_k > DEFAULT_COLON_POWERS_CAP:
            raise BoundTooLargeError(
                f"certified colon-powers index {certified_k} exceeds the cap "
                f"{DEFAULT_COLON_POWERS_CAP}; "
                "pass an explicit k to run uncertified"
            )
        k = certified_k
    return I.power(k + 1).colon(I.power(k)), bounds, k >= certified_k
