"""Analyze's numbers against values computed from outside the code, at 40 digits."""

import math

import mpmath

from dsfield.catalog import build_case
from dsfield.field import decay_profile


def test_dromion_decay_is_its_closed_form_peak_to_two_ulp():
    # f = 1 + p + q + 2pq with det = 1, so U = 4pq / f^2; on the diagonal
    # p = q = x it peaks where 1 - 2x^2 = 0, at (sqrt 2 - 1)^2 = 3 - 2 sqrt 2
    # whatever t: the hump travels without changing its height.  The ascent,
    # climbing rounding noise on the flat top, ends between -1.97 and +1.03
    # ulp of it
    e = build_case("dromion")
    with mpmath.workdps(40):
        exact = 3 - 2 * mpmath.sqrt(2)
        ulp = math.ulp(float(exact))
        res = decay_profile(e.spec, e.window, (0.0, 0.3, 0.5, 1.0, 2.0), grid_n=160)
        off = [float((mpmath.mpf(v) - exact) / ulp) for _, v in res.decay_series]
    assert [t for t, _ in res.decay_series] == [0.0, 0.3, 0.5, 1.0, 2.0]
    assert max(map(abs, off)) <= 2.0, off
