"""Ideal equality decided by sympy, in a process of its own.

Reads a JSON list of cases from stdin, each
``{"variables": [...], "modulus": p or null, "a": [poly, ...], "b": [poly, ...]}``
with polynomials written as rrclosure prints them (``^`` for powers), and
prints a JSON list of booleans: whether the two generator lists span the
same ideal, by comparing their reduced Groebner bases over QQ or GF(p).

It runs apart from the benchmark process so that sympy's memory does not
count in the measured peak RSS.

    python3 perfbench/groebner_oracle.py < cases.json
"""

import json
import sys

import sympy


def reduced_basis(polys, gens, modulus):
    exprs = [sympy.sympify(p.replace("^", "**"), locals={str(g): g for g in gens}) for p in polys]
    opts = {"order": "grevlex"}
    if modulus is not None:
        opts["modulus"] = modulus
    return set(sympy.groebner(exprs, *gens, **opts).exprs)


def main() -> int:
    cases = json.load(sys.stdin)
    verdicts = []
    for case in cases:
        gens = sympy.symbols(case["variables"])
        a = reduced_basis(case["a"], gens, case["modulus"])
        b = reduced_basis(case["b"], gens, case["modulus"])
        verdicts.append(a == b)
    json.dump(verdicts, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
