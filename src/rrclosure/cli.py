"""Command-line interface.

Subcommands: closure, closure-power, poincare, hilbert, reduction,
check-closed, colon-powers.  Exit codes: 0 success, 1 computation error
(typed message on stderr), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from . import cache as cache_mod
from . import reports
from .closure import (
    closure,
    closure_power,
    closure_via_colon_powers,
)
from .errors import ParseError, RRClosureError
from .hilbert import hilbert_samuel, poincare_series
from .ideals import Ideal
from .parsing import parse_problem
from .reductions import certify_sequence, find_superficial_sequence


def _int_at_least(least: int):
    """An argparse type for ints >= ``least``; a smaller one is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-number as an "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrclosure",
        description="Exact Ratliff-Rush closures of m-primary ideals, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ``least_n`` is the least --n the command accepts; None means no --n
    def common(sp, *, mode=True, seed=True, k=False, least_n=None, reduction=False):
        sp.add_argument("problem", help="path to a problem file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--cache", metavar="DIR", default=None,
                        help="result cache directory (or set RRCLOSURE_CACHE_DIR)")
        if mode:
            sp.add_argument("--mode", choices=("heuristic", "certified"), default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if k:
            sp.add_argument("--k", type=_int_at_least(1), default=None)
        if least_n is not None:
            sp.add_argument("--n", type=_int_at_least(least_n), required=True)
        if reduction:
            sp.add_argument("--reduction-from-file", action="store_true",
                            help="use the problem file's reduction: entry instead of searching")

    common(sub.add_parser("closure", help="Ratliff-Rush closure with certificates"),
           reduction=True)
    common(sub.add_parser("closure-power", help="closure of I^n"), least_n=1, reduction=True)
    common(sub.add_parser("poincare", help="Poincare series numerator, e0 and pn"), seed=False)
    common(sub.add_parser("hilbert", help="Hilbert-Samuel value at n"),
           mode=False, seed=False, least_n=0)
    common(sub.add_parser("reduction", help="find or certify a superficial sequence"),
           mode=False, reduction=True)
    common(sub.add_parser("check-closed", help="is the ideal Ratliff-Rush closed?"),
           reduction=True)
    common(sub.add_parser("colon-powers", help="closure via (I^{k+1}:I^k)"),
           mode=False, seed=False, k=True)
    return parser


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}") from None
    return parse_problem(text)


def _run(args) -> dict:
    problem = _load_problem(args.problem)
    ring = problem.ring
    ideal = Ideal(ring, problem.generators)

    mode = getattr(args, "mode", None) or "heuristic"
    seed = getattr(args, "seed", None) or 0
    k = getattr(args, "k", None)

    reduction = None
    if getattr(args, "reduction_from_file", False):
        if problem.reduction is None:
            raise ParseError("--reduction-from-file given but the file has no 'reduction:' entry")
        reduction = problem.reduction

    command = args.command
    options = {"mode": mode, "seed": seed, "format": args.format}
    if k is not None:
        options["k"] = k
    if command in ("hilbert", "closure-power"):
        options["n"] = args.n

    cache_dir = args.cache or cache_mod.default_cache_dir()
    key = None
    if cache_dir is not None:
        basis_strings = [str(p) for p in ideal.reduced_basis().polys]
        params = {name: value for name, value in options.items() if name != "format"}
        if reduction is not None:
            params["reduction"] = [str(x) for x in reduction]
        key = cache_mod.cache_key(ring.field.name, ring.variables, basis_strings,
                                  command, params)
        hit = cache_mod.lookup(cache_dir, key)
        # an entry that decodes but is no report is a miss, recomputed and overwritten
        if isinstance(hit, dict) and "problem" in hit and "result" in hit:
            return hit

    if command == "closure":
        report = closure(ideal, reduction=reduction, mode=mode, seed=seed)
        doc = reports.closure_document(report, options)
    elif command == "closure-power":
        report = closure_power(ideal, args.n, reduction=reduction, mode=mode, seed=seed)
        doc = reports.closure_document(report, options, operation="closure-power")
    elif command == "check-closed":
        report = closure(ideal, reduction=reduction, mode=mode, seed=seed)
        doc = reports.check_closed_document(report, options)
    elif command == "poincare":
        data = poincare_series(ideal, mode=mode)
        doc = reports.series_document(ideal, data, options)
    elif command == "hilbert":
        value = hilbert_samuel(ideal, args.n)
        doc = reports.hilbert_document(ideal, args.n, value, options)
    elif command == "reduction":
        e0 = poincare_series(ideal).multiplicity
        if reduction is not None:
            cert = certify_sequence(ideal, reduction, e0, seed=seed)
        else:
            cert = find_superficial_sequence(ideal, e0, seed=seed)
        doc = reports.reduction_document(ideal, cert, options)
    elif command == "colon-powers":
        result, bounds, certified = closure_via_colon_powers(ideal, k=k)
        used_k = k if k is not None else bounds.colon_powers_k
        doc = reports.colon_powers_document(ideal, result, bounds, used_k, certified, options)
    else:  # pragma: no cover - argparse enforces the choices
        raise RRClosureError(f"unknown command {command!r}")

    if key is not None:
        try:
            cache_mod.store(cache_dir, key, doc)
        except OSError as exc:  # like an unreadable entry, an unusable cache costs only reuse
            print(f"warning: cannot store in the cache directory {cache_dir}: {exc.strerror}",
                  file=sys.stderr)
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _run(args)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except RRClosureError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(reports.dumps(doc))
    else:
        sys.stdout.write(reports.render_text(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
