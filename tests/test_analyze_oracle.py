"""Analyze's numbers against values computed from outside the code, at 40 digits."""

import functools
import math

import mpmath
import pytest
import sympy as sp

from dsfield.catalog import build_case
from dsfield.field import decay_profile

from conftest import analysis_grid, peak_at
from test_sympy_oracle import E, T, Z, closed_form


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
        series = decay_profile(e.spec, analysis_grid(e.spec, e.window, 160),
                               (0.0, 0.3, 0.5, 1.0, 2.0))
        off = [float((mpmath.mpf(v) - exact) / ulp) for _, v in series]
    assert [t for t, _ in series] == [0.0, 0.3, 0.5, 1.0, 2.0]
    assert max(map(abs, off)) <= 2.0, off


@functools.cache
def intensity_oracle(name):
    """U of case ``name`` as an mpmath function of (x, y, t), built from the
    closed-form profiles."""
    spec = build_case(name).spec
    a = spec.coeffs
    p, q = closed_form(spec.p, Z), closed_form(spec.q, E)
    f = a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q
    u = sp.lambdify((Z, E, T), 4 * a.det * sp.diff(p, Z) * sp.diff(q, E) / f ** 2, "mpmath")
    return lambda x, y, t: u((x - y) / mpmath.sqrt(2), (x + y) / mpmath.sqrt(2), t)


# (case, window, t, the largest ulp distance of the polished peak value from
# the exact one): double_instanton at the README's times and at 0.3 on
# [-12, 12]^2, breather on its case window; each bound is the measured
# distance plus 2 ulp
INSTANTON_WINDOW = ((-12.0, 12.0), (-12.0, 12.0))
PEAKS = (("double_instanton", INSTANTON_WINDOW, 0.0, 4.4),
         ("double_instanton", INSTANTON_WINDOW, 3.0, 4.4),
         ("double_instanton", INSTANTON_WINDOW, 6.0, 14.5),
         ("double_instanton", INSTANTON_WINDOW, 0.3, 3.9),
         ("breather", None, 0.3, 2.2),
         ("breather", None, 1.1, 3.9))


@pytest.mark.parametrize("name, window, t, bound", PEAKS)
def test_refined_peak_is_a_stationary_point_of_log_u(name, window, t, bound):
    # from the polished peak at analyze's default grid (96), mpmath at 40
    # digits solves grad log U = 0 on the closed form, derivatives by
    # mpmath.diff: the root is a strict maximum, the polished value is within
    # ``bound`` ulp of U there and its point within 1e-10 grid steps
    e = build_case(name)
    window = window or e.window
    value, (x, y) = peak_at(e.spec, window, t, 96)
    u = intensity_oracle(name)
    with mpmath.workdps(40):
        log_u = lambda x, y: mpmath.log(u(x, y, mpmath.mpf(t)))      # noqa: E731
        grad = lambda x, y: [mpmath.diff(log_u, (x, y), n) for n in ((1, 0), (0, 1))]  # noqa: E731
        hess = lambda x, y: mpmath.matrix(                             # noqa: E731
            [[mpmath.diff(log_u, (x, y), n) for n in row] for row in (((2, 0), (1, 1)),
                                                                        ((1, 1), (0, 2)))])
        xr, yr = mpmath.findroot(grad, (mpmath.mpf(x), mpmath.mpf(y)), J=hess)
        Hr, exact = hess(xr, yr), u(xr, yr, mpmath.mpf(t))
        off = float((mpmath.mpf(value) - exact) / math.ulp(float(exact)))
        steps = float(mpmath.hypot(x - xr, y - yr)) / ((window[0][1] - window[0][0]) / 95)
    assert Hr[0, 0] < 0 and mpmath.det(Hr) > 0
    assert abs(off) <= bound, off
    assert steps <= 1e-10, steps
