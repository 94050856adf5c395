"""Kernel backend selection.

The compiled extension is used when available; set ``RRCLOSURE_BACKEND=pure``
to force the Python fallback or ``RRCLOSURE_BACKEND=cython`` to require the
extension (ImportError if it was not built).
"""

import os

_requested = os.environ.get("RRCLOSURE_BACKEND", "auto").lower()

if _requested in ("auto", "cython", "fast"):
    try:
        from . import fast as _impl
    except ImportError:
        if _requested != "auto":
            raise
        from . import pure as _impl
elif _requested in ("pure", "py", "python"):
    from . import pure as _impl
else:
    raise RuntimeError(f"unknown RRCLOSURE_BACKEND value {_requested!r}")

BACKEND = _impl.BACKEND_NAME

mono_mul = _impl.mono_mul
mono_divides = _impl.mono_divides
mono_div = _impl.mono_div
mono_lcm = _impl.mono_lcm
find_divisor_index = _impl.find_divisor_index
minimalize = _impl.minimalize
monomial_product = _impl.monomial_product
monomial_sum = _impl.monomial_sum
monomial_colon_single = _impl.monomial_colon_single
monomial_intersection = _impl.monomial_intersection
monomial_contains = _impl.monomial_contains
staircase_colength = _impl.staircase_colength
