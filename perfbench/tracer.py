"""Spans and counts recorded from outside rrclosure, for the traced run.

``Tracer.install`` wraps public functions of each module: the closure
phases, the ideal calculus, reductions, Hilbert sampling, the monomial
kernels and, inside CLI child processes, parsing, reports and the cache.
Each wrapped call appends a span (name, start, end, parent) to arrays kept
in memory; ``summary`` derives each name's self time as span minus the
time its child spans cover.  Two kernel functions that run millions of
times are only counted.

Functions that other modules imported by name are patched in every module
that holds the name.  The closure phases are patched inside the
``rrclosure.closure`` module, reached through ``sys.modules`` because the
package attribute ``rrclosure.closure`` is the function.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# closure phases are reported as whole span time; every other name as self time
PHASES = {
    "closure.poincare": "closure.poincare_s",
    "closure.reduction": "closure.reduction_s",
    "closure.quotient_poincare": "closure.quotient_poincare_s",
    "closure.chain_colon": "closure.chain_colon_s",
    "closure.stabilization": "closure.stabilization_s",
}
SELF_TIMES = {
    "ideals.reduced_basis": "ideals.reduced_basis_s",
    "ideals.intersection": "ideals.intersection_s",
    "ideals.colon": "ideals.colon_s",
    "ideals.exact_divide": "ideals.exact_divide_s",
    "ideals.power": "ideals.power_s",
    "ideals.colength": "ideals.colength_s",
    "ideals.m_primary_witness": "ideals.m_primary_witness_s",
    "reductions.certify": "reductions.certify_s",
    "kernels.staircase_colength": "kernels.staircase_colength_s",
    "kernels.minimalize": "kernels.minimalize_s",
    "kernels.monomial_product": "kernels.monomial_product_s",
    "kernels.monomial_colon_single": "kernels.monomial_colon_single_s",
    "kernels.monomial_intersection": "kernels.monomial_intersection_s",
    "parsing.parse_problem": "parsing.parse_problem_s",
    "reports.render": "reports.render_s",
    "cache.lookup": "cache.lookup_s",
    "cache.store": "cache.store_s",
}
COUNTS = (
    "hilbert.samples",
    "hilbert.quotient_samples",
    "ideals.groebner_runs",
    "ideals.exact_divide_calls",
    "ideals.colength_at_origin_calls",
    "ideals.m_primary_witness_calls",
    "reductions.certify_calls",
    "kernels.find_divisor_index_calls",
    "kernels.mono_mul_calls",
    "cache.hits",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.basis_max = 0
        self.closures = 0
        self.rounds = 0
        self._state: list[dict] = []  # one entry per closure call in progress
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("trace spans closed out of order")

    def _timed(self, name: str, fn, count: str | None = None):
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_all(self, owners, attr: str, make) -> None:
        """Give every module in ``owners`` that holds ``attr`` one shared wrapper."""
        original = getattr(owners[0], attr)
        new = make(original)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._patch(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- closure phases --------------------------------------------------------

    def _phase(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self._state:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _closure(self, fn):
        def wrapper(*args, **kwargs):
            self.closures += 1
            state = {"chain": None, "stab": None, "await_equals": False}
            self._state.append(state)
            idx = self.open("closure")
            try:
                return fn(*args, **kwargs)
            finally:
                if state["stab"] is not None:
                    self.close(state["stab"])
                self.close(idx)
                self._state.pop()

        return wrapper

    def _poincare(self, fn):
        samples = self._samples("hilbert.samples", fn)

        def wrapper(*args, **kwargs):
            if self._state:
                # every retry round of closure() starts with the Poincare series
                self.rounds += 1
                self._state[-1]["chain"] = None
            return samples(*args, **kwargs)

        return self._phase("closure.poincare", wrapper)

    def _samples(self, count: str, fn):
        def wrapper(*args, **kwargs):
            data = fn(*args, **kwargs)
            self.counts[count] += len(data.samples)
            return data

        return wrapper

    def _chain_term(self, fn):
        """First chain term of a round is the chain colon; the next one, at
        k + 1 with the same elements, opens the stabilization check, which
        lasts until the following ``Ideal.equals`` returns."""

        def wrapper(I, elements, k):
            if not self._state:
                return fn(I, elements, k)
            state = self._state[-1]
            prev = state["chain"]
            if prev is not None and prev[0] is I and prev[1] == tuple(elements) and k == prev[2] + 1:
                state["stab"] = self.open("closure.stabilization")
                result = fn(I, elements, k)
                state["await_equals"] = True
                return result
            state["chain"] = (I, tuple(elements), k)
            idx = self.open("closure.chain_colon")
            try:
                return fn(I, elements, k)
            finally:
                self.close(idx)

        return wrapper

    def _equals(self, fn):
        def wrapper(a, b):
            result = fn(a, b)
            if self._state and self._state[-1]["await_equals"]:
                state = self._state[-1]
                state["await_equals"] = False
                self.close(state["stab"])
                state["stab"] = None
            return result

        return wrapper

    def _reduced_basis(self, fn):
        timed = self._timed("ideals.reduced_basis", fn)

        def wrapper(ideal):
            fresh = ideal._basis is None
            basis = timed(ideal)
            if fresh and not basis.is_monomial():
                self.counts["ideals.groebner_runs"] += 1
                if len(basis) > self.basis_max:
                    self.basis_max = len(basis)
            return basis

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, cli: bool = False) -> None:
        import rrclosure  # noqa: F401  (loads every module below)

        kernels = sys.modules["rrclosure._kernels"]
        ideals = sys.modules["rrclosure.ideals"]
        hilbert = sys.modules["rrclosure.hilbert"]
        reductions = sys.modules["rrclosure.reductions"]
        closure = sys.modules["rrclosure.closure"]
        owners = [closure, reductions, hilbert]
        if cli:
            cli_mod = sys.modules["rrclosure.cli"]
            owners.append(cli_mod)

        for name in ("staircase_colength", "minimalize", "monomial_product",
                     "monomial_colon_single", "monomial_intersection"):
            self._patch(kernels, name, self._timed("kernels." + name, getattr(kernels, name)))
        for name in ("find_divisor_index", "mono_mul"):
            self._patch(kernels, name, self._counted(f"kernels.{name}_calls", getattr(kernels, name)))

        Ideal = ideals.Ideal
        self._patch(Ideal, "reduced_basis", self._reduced_basis(Ideal.reduced_basis))
        for name in ("intersection", "colon", "power", "colength"):
            self._patch(Ideal, name, self._timed("ideals." + name, getattr(Ideal, name)))
        self._patch(Ideal, "colength_at_origin",
                    self._timed("ideals.colength_at_origin", Ideal.colength_at_origin,
                                "ideals.colength_at_origin_calls"))
        self._patch(Ideal, "m_primary_witness",
                    self._timed("ideals.m_primary_witness", Ideal.m_primary_witness,
                                "ideals.m_primary_witness_calls"))
        self._patch(Ideal, "equals", self._equals(Ideal.equals))
        self._patch(ideals, "exact_divide",
                    self._timed("ideals.exact_divide", ideals.exact_divide,
                                "ideals.exact_divide_calls"))

        self._patch_all(owners, "certify_sequence",
                        lambda f: self._timed("reductions.certify", f, "reductions.certify_calls"))
        # phase wrappers go on the closure module's own names
        self._patch(closure, "certify_sequence",
                    self._phase("closure.reduction", closure.certify_sequence))
        self._patch(closure, "find_superficial_sequence",
                    self._phase("closure.reduction", closure.find_superficial_sequence))
        self._patch(closure, "poincare_series", self._poincare(closure.poincare_series))
        self._patch(closure, "poincare_series_quotient",
                    self._phase("closure.quotient_poincare",
                                self._samples("hilbert.quotient_samples",
                                              closure.poincare_series_quotient)))
        self._patch(closure, "chain_term", self._chain_term(closure.chain_term))
        self._patch_all([closure] + ([cli_mod] if cli else []), "closure", self._closure)
        for name in ("poincare_series", "poincare_series_quotient"):
            count = "hilbert.samples" if name == "poincare_series" else "hilbert.quotient_samples"
            self._patch_all([hilbert] + ([cli_mod] if cli else []), name,
                            lambda f, c=count: self._samples(c, f))

        if cli:
            reports = sys.modules["rrclosure.reports"]
            cache = sys.modules["rrclosure.cache"]
            self._patch(cli_mod, "parse_problem",
                        self._timed("parsing.parse_problem", cli_mod.parse_problem))
            for name in ("render_text", "dumps"):
                self._patch(reports, name, self._timed("reports.render", getattr(reports, name)))
            self._patch(cache, "store", self._timed("cache.store", cache.store))
            lookup = self._timed("cache.lookup", cache.lookup)

            def counted_lookup(directory, key):
                hit = lookup(directory, key)
                if hit is not None:
                    self.counts["cache.hits"] += 1
                return hit

            self._patch(cache, "lookup", counted_lookup)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Totals per name: span time, self time and counts."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        span_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            span_ns[name] += dur
            self_ns[name] += dur - child[i]
        return {
            "span_s": {k: v / 1e9 for k, v in span_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "counts": dict(self.counts),
            "basis_max": self.basis_max,
            "closures": self.closures,
            "rounds": self.rounds,
            "spans": n,
        }

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans and the summary as one JSON document."""
        doc = {
            "names": self.names,
            "spans": {
                "name": list(self.name_of),
                "start_ns": list(self.start),
                "end_ns": list(self.end),
                "parent": list(self.parent),
            },
            "summary": self.summary(),
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
