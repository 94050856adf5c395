"""The benchmark's workloads: inputs built from the seed, timed operations
and the checks of every answer.

An operation has three parts: ``prepare`` builds fresh inputs (untimed, so
no Ideal carries cached powers from an earlier round), ``run`` is the timed
call into rrclosure, and ``check`` tests the answer against computations
made apart from the package (untimed).  It returns None for a right answer
and a reason otherwise.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import staircase as st

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PRIME = 32003
VARIABLES = ("x", "y", "z")

# -- the paper's examples and published values --------------------------------

EX110 = ((10, 0), (0, 5), (1, 4), (8, 1))
EX110_REDUCTION = ("y^5+x^10+x^8*y", "x*y^4")
EX110_NUMERATOR = (35, 4, 4, 4, -2)
EX110_QUOTIENTS = ((35, 6, 4), (35, 6, 2, 2))
EX110_CLOSURE = {(10, 0), (0, 5), (1, 4), (7, 2), (6, 3), (8, 1)}
EX33 = ((8, 0), (3, 2), (2, 4), (0, 8))
EX14 = ((0, 22), (4, 18), (7, 15), (8, 14), (11, 11), (14, 8), (15, 7), (18, 4), (22, 0))
EX14_SQUARE_EXTRA = {(24, 20), (20, 24)}


def skew(a: int, b: int) -> tuple:
    """(x^a, x^{a-1}y, xy^{b-1}, y^b), the family with strictly larger closures."""
    return tuple(sorted(st.minimalize({(a, 0), (a - 1, 1), (1, b - 1), (0, b)})))


def monomial_string(exps) -> str:
    parts = []
    for v, e in zip(VARIABLES, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) or "1"


def exponents_of(text: str) -> tuple:
    """Exponent vector of a printed monomial in x and y such as ``x^6*y^3``."""
    exps = dict.fromkeys(VARIABLES[:2], 0)
    if text.strip() != "1":
        for factor in text.strip().split("*"):
            name, _, power = factor.partition("^")
            exps[name] = int(power) if power else 1
    return tuple(exps[v] for v in VARIABLES[:2])


_TERM_SPLIT = re.compile(r"\s+[-+]\s+")
_COEFF = re.compile(r"^\d+(/\d+)?(\*|$)")


def term_exponents(poly: str) -> list:
    """Exponent vectors of the terms of a printed polynomial in x and y."""
    out = []
    for term in _TERM_SPLIT.split(poly.strip()):
        mono = _COEFF.sub("", term.strip().lstrip("-").strip())
        out.append(exponents_of(mono or "1"))
    return out


def monomial_set(polys):
    """Exponents of a generator list that is all monomials, else None."""
    out = set()
    for p in polys:
        if len(p.terms) != 1:
            return None
        out.add(next(iter(p.terms)))
    return out


@dataclass
class Op:
    name: str
    prepare: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object], str | None]
    # the check's reason for the named cache fault: an operation that fails
    # with it counts as failed, with any other reason as a wrong answer
    known_fault: str | None = None


class Workload:
    """Inputs and operations of one workload; the constructor is the set-up."""

    name = ""
    round_seconds = 1.0  # nominal time of one round, which sets the rounds a run makes
    in_process = True  # operations run in this process (not in child processes)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def begin_round(self) -> None:
        pass

    def end_round(self) -> None:
        pass

    def finish(self) -> list[str]:
        """Checks made once per run on everything answered; reasons for wrong answers."""
        return []

    def close(self) -> None:
        pass


# -- in-process closures --------------------------------------------------------


def closure_answer(report) -> dict:
    return {
        "numerator": tuple(report.series.numerator),
        "quotients": tuple(tuple(q.numerator) for q in report.quotient_series),
        "closure": monomial_set(report.closure_generators),
        "is_closed": report.is_closed,
        "k_used": report.k_used,
    }


LOWER_BOUND_INDEX = 12


@functools.cache
def colon_powers(gens: tuple, k: int) -> frozenset:
    """(I^{k+1} : I^k), kept for the run: every round checks the same ideals."""
    return frozenset(st.colon_powers(gens, k))


@functools.cache
def expected_closure(gens: tuple) -> frozenset:
    """Ĩ from the paper (ex110, ex33, ex14) or from (I^{k+1} : I^k) at the
    certified index (two variables)."""
    if gens == EX110:
        return frozenset(EX110_CLOSURE)
    if gens in (EX33, EX14):
        return frozenset(gens)
    return colon_powers(gens, st.colon_powers_index(st.multiplicity(gens), 2))


def certificate_failure(gens, answer: dict, k: int, equality_cap: int | None = None):
    """A ⊇ I and A·I^k ⊆ I^{k+1} prove I ⊆ A ⊆ Ĩ.  In two variables, with
    ``equality_cap`` given, A must also equal (I^{k+1} : I^k) at the
    certified index when that index is at most the cap, and contain it at
    index LOWER_BOUND_INDEX otherwise."""
    A = answer["closure"]
    if A is None:
        return "closure of a monomial ideal is not monomial"
    if not st.contains_ideal(A, gens):
        return "closure does not contain the ideal"
    if not st.contains_ideal(st.power(gens, k + 1), st.product(A, st.power(gens, k))):
        return f"closure times I^{k} is not inside I^{k + 1}"
    if answer["is_closed"] != (A == st.minimalize(gens)):
        return "is_closed disagrees with the closure"
    if equality_cap is not None and len(next(iter(gens))) == 2:
        kc = st.colon_powers_index(st.multiplicity(gens), 2)
        if kc <= equality_cap:
            if A != colon_powers(tuple(sorted(gens)), kc):
                return f"closure differs from (I^{kc + 1} : I^{kc})"
        elif not st.contains_ideal(A, colon_powers(tuple(sorted(gens)), LOWER_BOUND_INDEX)):
            # every (I^{n+1} : I^n) lies in Ĩ, so a closure must contain it
            return f"closure misses part of (I^{LOWER_BOUND_INDEX + 1} : I^{LOWER_BOUND_INDEX})"
    return None


class Paper(Workload):
    """The paper's worked examples, in process."""

    name = "paper"
    round_seconds = 30.0
    SHORT_REPEATS = 10

    def __init__(self, seed: int, quick: bool):
        from rrclosure import QQ, PolyRing

        self.R = R = PolyRing(QQ, ("x", "y"))
        mono = lambda exps: [R.monomial(e) for e in exps]  # noqa: E731
        self.gens = {"ex110": mono(EX110), "ex33": mono(EX33), "ex14": mono(EX14)}
        self.reduction = tuple(R.parse(s) for s in EX110_REDUCTION)
        # the short examples run SHORT_REPEATS times a round, so that their
        # median time is taken over more than the run's single round
        names = ["ex110-paper-reduction", "ex110-searched", "ex33"] * self.SHORT_REPEATS
        if not quick:
            names += ["ex14", "ex14-squared"]
        random.Random(seed).shuffle(names)
        self.names = names

    def ops(self) -> list[Op]:
        import rrclosure.closure  # noqa: F401

        mod = sys.modules["rrclosure.closure"]  # names patched by the tracer live here
        from rrclosure import Ideal

        R = self.R

        def fresh(key):
            return lambda: Ideal(R, self.gens[key])

        table = {
            "ex110-paper-reduction": (fresh("ex110"),
                                      lambda I: mod.closure(I, reduction=self.reduction, seed=0),
                                      self._check_ex110_reduction),
            "ex110-searched": (fresh("ex110"), lambda I: mod.closure(I, seed=0),
                               self._check_ex110),
            "ex33": (fresh("ex33"), lambda I: mod.closure(I, seed=0), self._closed(EX33)),
            "ex14": (fresh("ex14"), lambda I: mod.closure(I, seed=0), self._closed(EX14)),
            "ex14-squared": (fresh("ex14"), lambda I: mod.closure_power(I, 2, seed=0),
                             self._check_ex14_square),
        }
        return [Op(n, table[n][0], table[n][1], lambda rep, c=table[n][2]: c(closure_answer(rep)))
                for n in self.names]

    @staticmethod
    def _check_ex110(ans):
        if ans["numerator"] != EX110_NUMERATOR:
            return f"ex110 numerator {ans['numerator']}"
        if ans["closure"] != EX110_CLOSURE or ans["is_closed"]:
            return "ex110 closure differs from the paper's"
        return None

    def _check_ex110_reduction(self, ans):
        if ans["quotients"] != EX110_QUOTIENTS:
            return f"ex110 quotient numerators {ans['quotients']}"
        return self._check_ex110(ans)

    @staticmethod
    def _closed(gens):
        def check(ans):
            if ans["closure"] != set(gens) or not ans["is_closed"]:
                return "a closed example came out not closed"
            return None

        return check

    @staticmethod
    def _check_ex14_square(ans):
        want = st.minimalize(st.power(EX14, 2) | EX14_SQUARE_EXTRA)
        if ans["closure"] != want or ans["is_closed"]:
            return "closure of ex14^2 differs from ex14^2 + (x^24y^20, x^20y^24)"
        return None


SKEW_REPEATS = 3  # closures of each skew ideal, each with its own reduction search


def corpus_instances(quick: bool) -> list[tuple]:
    """(generators, search seed) pairs: two-variable staircases (x^a, y^b)
    plus up to two inner corners with e0 <= 8, every skew ideal with
    3 <= a, b <= 5 and e0 <= 20 SKEW_REPEATS times, and three small ideals
    in three variables.

    The skew ideals are 40 % of the closures, and the closures that are not
    closed 15 %, close to the 20 of 50 and 7 of 50 of the acceptance suite's
    random corpus.  Plain staircases are almost always closed, and those
    with e0 above 8 cost up to seconds each.
    """
    plain = set()
    for a in range(1, 6):
        for b in range(1, 6):
            inner = [(i, j) for i in range(1, a) for j in range(1, b)]
            for k in range(3):
                for extra in itertools.combinations(inner, k):
                    plain.add(tuple(sorted(st.minimalize({(a, 0), (0, b), *extra}))))
    skews = {skew(a, b) for a in range(3, 6) for b in range(3, 6)}
    plain = sorted(p for p in plain - skews if st.multiplicity(p) <= 8)
    skews = sorted(s for s in skews if st.multiplicity(s) <= 20)
    three = [((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((3, 0, 0), (0, 2, 0), (0, 0, 2)),
             ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2))]
    if quick:
        plain, skews, three = plain[::9], [skew(3, 3), skew(4, 4)], three[:1]
    return ([(gens, 0) for gens in plain + three]
            + [(gens, r) for gens in skews for r in range(SKEW_REPEATS)])


class Corpus(Workload):
    """Small m-primary monomial ideals; the seed orders them.  Each closure's
    superficial-sequence search has a fixed seed, so that every run does the
    same work: the cost of a search depends on its seed, by up to 1.8 times."""

    name = "corpus"
    round_seconds = 10.0
    COLON_POWERS_CAP = 100  # certified index up to which equality is checked too

    def __init__(self, seed: int, quick: bool):
        from rrclosure import QQ, PolyRing

        instances = corpus_instances(quick)
        random.Random(seed).shuffle(instances)
        rings = {2: PolyRing(QQ, ("x", "y")), 3: PolyRing(QQ, ("x", "y", "z"))}
        self.items = [(gens, rings[len(gens[0])], search) for gens, search in instances]

    def ops(self) -> list[Op]:
        import rrclosure.closure  # noqa: F401

        mod = sys.modules["rrclosure.closure"]
        from rrclosure import Ideal

        ops = []
        for gens, R, search in self.items:
            name = "+".join(monomial_string(e) for e in gens) + f" search {search}"
            ops.append(Op(
                name,
                lambda gens=gens, R=R: Ideal.from_exponents(R, gens),
                lambda I, search=search: mod.closure(I, seed=search),
                lambda rep, gens=gens: certificate_failure(
                    gens, closure_answer(rep), rep.k_used, self.COLON_POWERS_CAP),
            ))
        return ops


class General(Workload):
    """phi(I) for phi: x -> x+y, so every monomial fast path is bypassed;
    half the closures over QQ and half over GF(32003).  The seed orders them.

    The expected answer is phi(Ĩ), with Ĩ from ``expected_closure``; sympy
    decides the equality once per run, in a child process.
    """

    name = "general"
    round_seconds = 5.0

    def __init__(self, seed: int, quick: bool):
        from rrclosure import GF, QQ, PolyRing

        fields = {None: PolyRing(QQ, ("x", "y")), PRIME: PolyRing(GF(PRIME), ("x", "y"))}
        if quick:
            cases = [("skew33", skew(3, 3), None), ("skew33", skew(3, 3), PRIME),
                     ("skew44", skew(4, 4), PRIME)]
        else:
            # ex110 and ex33 over QQ take about 5 s each, which left room for
            # one round a run and spreads above 20 %; ex110 runs over GF(p)
            cases = [("ex110", EX110, PRIME),
                     ("skew44", skew(4, 4), None), ("skew44", skew(4, 4), PRIME),
                     ("skew34", skew(3, 4), None), ("skew34", skew(3, 4), PRIME),
                     ("skew53", skew(5, 3), None)]
        random.Random(seed).shuffle(cases)
        self.cases = []
        for label, gens, p in cases:
            R = fields[p]
            polys = [R.parse(self.phi(monomial_string(e))) for e in gens]
            self.cases.append((label, gens, p, R, polys))
        self.answers: dict = {}

    @staticmethod
    def phi(text: str) -> str:
        return text.replace("x", "(x+y)")

    def ops(self) -> list[Op]:
        import rrclosure.closure  # noqa: F401

        mod = sys.modules["rrclosure.closure"]
        from rrclosure import Ideal

        ops = []
        for label, gens, p, R, polys in self.cases:
            name = f"{label}-{'QQ' if p is None else 'GF'}"

            def check(rep, gens=gens, p=p):
                answer = tuple(str(g) for g in rep.closure_generators)
                self.answers.setdefault((gens, p), set()).add(answer)
                return None

            ops.append(Op(name, lambda R=R, polys=polys: Ideal(R, polys),
                          lambda I: mod.closure(I, seed=0), check))
        return ops

    def finish(self) -> list[str]:
        cases, labels = [], []
        for (gens, p), answers in sorted(self.answers.items(), key=repr):
            want = [self.phi(monomial_string(e)) for e in sorted(expected_closure(gens))]
            for answer in sorted(answers):
                cases.append({"variables": ["x", "y"], "modulus": p, "a": list(answer), "b": want})
                labels.append(f"phi({'+'.join(map(monomial_string, gens))}) over "
                              f"{'QQ' if p is None else 'GF'}")
        if not cases:
            return []
        proc = subprocess.run([sys.executable, os.path.join(HERE, "groebner_oracle.py")],
                              input=json.dumps(cases), capture_output=True, text=True,
                              timeout=150, check=False)
        if proc.returncode != 0:
            return ["the sympy oracle failed: " + proc.stderr.strip()[-300:]]
        verdicts = json.loads(proc.stdout)
        return [f"closure of {label} is not phi of the closure"
                for label, ok in zip(labels, verdicts) if not ok]


# -- the command line -------------------------------------------------------------

# a cache hit returns the first caller's report, so a later call with the
# generators permuted gets the first caller's generators back
ECHO_FAULT = "the report echoes the first caller's generators"

PROBLEMS = {"ex110": EX110, "ex33": EX33, "ex14": EX14, "skew44": skew(4, 4)}

# (subcommand, problem, extra arguments); each runs cold, then warm.  The
# shipped problems give every subcommand but closure-power, whose reduction
# search on their squares runs for seconds to minutes; it takes skew44, a
# problem file the benchmark writes.
CLI_CALLS = [
    ("closure", "ex110", ("--reduction-from-file",)),
    ("closure", "ex110", ()),
    ("closure", "ex33", ()),
    ("closure", "skew44", ()),
    ("check-closed", "ex110", ("--reduction-from-file",)),
    ("check-closed", "ex33", ()),
    ("closure-power", "skew44", ("--n", "2")),
    ("poincare", "ex110", ()),
    ("poincare", "ex33", ()),
    ("poincare", "ex14", ()),
    ("hilbert", "ex110", ("--n", "3")),
    ("hilbert", "ex33", ("--n", "3")),
    ("hilbert", "ex14", ("--n", "2")),
    ("reduction", "ex110", ("--reduction-from-file",)),
    ("reduction", "ex110", ()),
    ("reduction", "ex33", ()),
    ("reduction", "ex14", ()),
    ("colon-powers", "ex110", ("--k", "3")),
    ("colon-powers", "ex33", ("--k", "3")),
    ("colon-powers", "ex14", ("--k", "2")),
]
QUICK_CLI_CALLS = [CLI_CALLS[0], CLI_CALLS[8], CLI_CALLS[11], CLI_CALLS[15], CLI_CALLS[18]]


def is_power_of_maximal(gens) -> bool:
    """(x, y)^D: every monomial of one degree D."""
    degrees = {sum(e) for e in gens}
    return len(degrees) == 1 and len(set(gens)) == degrees.pop() + 1


def cli_value_failure(sub: str, problem: str, extra: tuple, doc: dict):
    """Checks a JSON report against the paper and the staircase arithmetic."""
    gens = PROBLEMS[problem]
    result = doc["result"]
    echoed = doc["problem"]["generators"]
    if sub == "closure-power":
        # the report describes I^n, the ideal whose closure it is
        if {exponents_of(g) for g in echoed} != st.power(gens, 2):
            return "closure-power report does not describe I^2"
    elif echoed != [monomial_string(e) for e in gens]:
        return "the report echoes other generators than the call's"
    if doc["options"].get("format") != "json":
        return "the report echoes another format than the call's"
    if sub in ("closure", "check-closed", "closure-power", "poincare"):
        series = result["series"]
        base = gens if sub != "closure-power" else st.power(gens, 2)
        if not st.numerator_matches(series["numerator"], base):
            return "numerator does not reproduce the Hilbert function"
        if series["multiplicity"] != st.multiplicity(base):
            return "e0 differs from twice the area under the Newton polygon"
        if problem == "ex110" and sub != "closure-power" and (
                tuple(series["numerator"]) != EX110_NUMERATOR or series["postulation"] != 2):
            return "ex110 series differs from the paper's"
    if sub in ("closure", "check-closed"):
        A = {exponents_of(g) for g in result["closure"]["minimal_generators"]}
        if A != expected_closure(gens) or result["is_closed"] != (A == set(gens)):
            return "closure differs from the expected one"
        if sub == "check-closed" and result["closed"] != result["is_closed"]:
            return "check-closed verdict disagrees with the closure"
        if "--reduction-from-file" in extra and tuple(
                tuple(q["numerator"]) for q in result["quotient_series"]) != EX110_QUOTIENTS:
            return "ex110 quotient numerators differ from the paper's"
    elif sub == "closure-power":
        answer = {"closure": {exponents_of(g) for g in result["closure"]["minimal_generators"]},
                  "is_closed": result["is_closed"]}
        square = st.power(gens, 2)
        if is_power_of_maximal(square) and answer["closure"] != square:
            # a power of the maximal ideal is integrally closed, so Ratliff-Rush closed
            return "closure of a power of the maximal ideal is not the ideal itself"
        return certificate_failure(square, answer, result["k_used"])
    elif sub == "hilbert":
        if result["value"] != st.hilbert_function(gens, result["n"]):
            return "Hilbert-Samuel value differs from colength(I^{n+1})"
    elif sub == "reduction":
        red = result["reduction"]
        if red["colength"] != red["multiplicity"] or red["multiplicity"] != st.multiplicity(gens):
            return "reduction colength differs from e0"
        for element in red["elements"]:
            if not all(st.contains(gens, t) for t in term_exponents(element)):
                return f"reduction element {element} is not in the ideal"
    elif sub == "colon-powers":
        k = result["k"]
        A = {exponents_of(g) for g in result["closure"]["minimal_generators"]}
        if A != colon_powers(gens, k):
            return f"colon-powers answer differs from (I^{k + 1} : I^{k})"
        if result["certified"] != (k >= st.colon_powers_index(st.multiplicity(gens), 2)):
            return "certified flag is wrong"
    return None


class Cli(Workload):
    """The ``rrclosure`` command on problems/*.ideal, one child process at a
    time.  Every call runs against an empty cache directory (compute and
    store), then again (lookup); a last call looks up ex110 with its
    generators permuted and the text format.  The seed orders the calls."""

    name = "cli"
    round_seconds = 9.0
    in_process = False

    def __init__(self, seed: int, quick: bool):
        from rrclosure import parsing
        import rrclosure.cli  # noqa: F401

        tag = f"{os.getpid()}"
        self.problems = {}
        self.written = {}
        for name in PROBLEMS:
            path = os.path.join(ROOT, "problems", name + ".ideal")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            else:
                path = os.path.join(OUT, f"{name}-{tag}.ideal")
                text = ("ring: QQ[x,y]\nideal: "
                        + ", ".join(monomial_string(e) for e in PROBLEMS[name]) + "\n")
                self.written[path] = text
            parsing.parse_problem(text)
            self.problems[name] = path
        self.permuted = os.path.join(OUT, f"ex110-permuted-{tag}.ideal")
        self.permuted_gens = [monomial_string(e) for e in reversed(EX110)]
        self.written[self.permuted] = ("ring: QQ[x,y]\nideal: " + ", ".join(self.permuted_gens)
                                       + "\nreduction: " + ", ".join(EX110_REDUCTION) + "\n")
        calls = list(QUICK_CLI_CALLS if quick else CLI_CALLS)
        rng = random.Random(seed)
        self.cold = rng.sample(calls, len(calls))
        self.warm = rng.sample(calls, len(calls))
        self.cache_dir = os.path.join(OUT, f"cli-cache-{tag}")
        self.trace_dir = None
        self.env = dict(os.environ)
        self.env.pop("RRCLOSURE_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        with open(os.path.join(ROOT, "src", "rrclosure", "schema", "report.schema.json"),
                  encoding="utf-8") as fh:
            self.schema = json.load(fh)
        self.cold_out: dict = {}
        self.calls = 0

    def begin_round(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.cold_out = {}

    def end_round(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def close(self) -> None:
        self.end_round()
        for path in self.written:
            if os.path.exists(path):
                os.unlink(path)

    def command(self, argv) -> list:
        if self.trace_dir is None:
            return [sys.executable, "-m", "rrclosure.cli", *argv]
        self.calls += 1
        trace = os.path.join(self.trace_dir, f"call-{self.calls}.json")
        return [sys.executable, os.path.join(HERE, "cli_child.py"), trace, *argv]

    def invoke(self, argv):
        # no timeout, which would make the final wait poll (see run.setup_seconds)
        proc = subprocess.run(self.command(argv), cwd=ROOT, env=self.env,
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self) -> list[Op]:
        import jsonschema

        validator = jsonschema.Draft7Validator(self.schema)
        os.makedirs(OUT, exist_ok=True)
        for path, text in self.written.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        ops = []
        for phase, calls in (("cold", self.cold), ("warm", self.warm)):
            for sub, problem, extra in calls:
                argv = [sub, self.problems[problem], *extra, "--format", "json",
                        "--cache", self.cache_dir]
                key = (sub, problem, extra)
                ops.append(Op(f"{phase}:{sub} {problem} {' '.join(extra)}".strip(),
                              lambda argv=argv: argv, self.invoke,
                              lambda out, key=key, phase=phase: self._check(key, phase, out,
                                                                            validator)))
        argv = ["closure", self.permuted, "--reduction-from-file", "--format", "text",
                "--cache", self.cache_dir]
        ops.append(Op("warm:closure ex110 permuted, text", lambda: argv, self.invoke,
                      self._check_permuted, known_fault=ECHO_FAULT))
        return ops

    def _check(self, key, phase, out, validator):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        if phase == "cold":
            self.cold_out[key] = stdout
        elif stdout != self.cold_out.get(key):
            return "warm answer differs from the cold one"
        doc = json.loads(stdout)
        errors = sorted(validator.iter_errors(doc), key=str)
        if errors:
            return "report does not validate: " + errors[0].message
        return cli_value_failure(*key, doc)

    def _check_permuted(self, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        if {exponents_of(g) for g in lines.get("closure", "").split(", ")} != EX110_CLOSURE:
            return "closure differs from the paper's"
        if lines.get("ideal") != ", ".join(self.permuted_gens):
            return ECHO_FAULT
        return None


WORKLOADS = {w.name: w for w in (Paper, Corpus, General, Cli)}
