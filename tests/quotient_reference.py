"""Window-loop reference for ``hopfsurf.quotient.reduce_point``.

This is the reduction that the fast path in ``quotient`` short-cuts: it
always tries the whole window floor(t) + (-1, 0, 1), smallest index first,
and builds its ``HopfPoint`` through the public constructor.  The tests
require ``reduce_point`` to reproduce it down to the float bits, or to
raise the same error with the same message.
"""

import math

from hopfsurf.errors import EvaluationError
from hopfsurf.quotient import (HopfPoint, _deck_divide, _in_fundamental_domain,
                               _log_modulus, _quotient_point, _shell_violation)


def reference_reduce_point(pt, params):
    z, w = _quotient_point(pt)
    la, lb = params.log_abs_a, params.log_abs_b
    n0 = math.floor(max(_log_modulus(z) / la, _log_modulus(w) / lb))
    window = []
    for n in (n0 - 1, n0, n0 + 1):
        try:
            rz = _deck_divide(z, params.a, n, la)
            rw = _deck_divide(w, params.b, n, lb)
            if _in_fundamental_domain(rz, rw, params):
                break
        except OverflowError:  # |rep| > DBL_MAX; n0 + 1 never overflows
            continue
        window.append((n, rz, rw))
    else:
        v, n, rz, rw = min((_shell_violation(rz, rw, params), n, rz, rw)
                           for n, rz, rw in window)
        if v > 1e-12:
            raise EvaluationError(
                f"could not reduce {pt} into the fundamental shell")
    return HopfPoint(rep_z=rz, rep_w=rw, lift_index=n,
                     on_Ta=(w == 0), on_Tb=(z == 0))


def point_bits(pt):
    """Every field of a HopfPoint, floats as their hex strings."""
    return (pt.rep_z.real.hex(), pt.rep_z.imag.hex(), pt.rep_w.real.hex(),
            pt.rep_w.imag.hex(), pt.lift_index, pt.on_Ta, pt.on_Tb)
