"""Independent symbolic oracle: sympy differentiates the catalog's closed
forms and mpmath evaluates them at 40 digits, against the jets of the
profiles, of f and of log U at a few points per case; and sympy proves the
separable identity that the bilinear2 check reads and the separated form of
the envelope residual that the bilinear1 and pde1 checks read."""

import dataclasses

import mpmath
import numpy as np
import pytest
import sympy as sp

from dsfield.ansatz import (
    SeparationCoefficients,
    eval_f,
    eval_intensity,
    rotate,
)
from dsfield.catalog import build_case, case_names
from dsfield.field import _log_intensity_jets

from conftest import profile_jets3, random_spec

Z, E, T = sp.symbols("zeta eta t", real=True)

# (x, y, t) inside every case window, clear of the tan pole box of periodic
# (|zeta|, |eta| < 1.24) and of the double_instanton pole at zeta = -1
POINTS = ((0.37, -0.81, 0.3), (1.3, 0.45, 1.1), (-0.2, 0.9, 2.5))
REL = 1e-12


def closed_form(profile, s):
    """The profile as a sympy expression in (s, T)."""
    family = profile.family
    if family == "expsum":
        return sum(sp.Float(a) * sp.exp(sp.Float(k) * s + sp.Float(l) * T + sp.Float(th))
                   for a, k, l, th in zip(profile.A, profile.K, profile.L, profile.theta))
    base = sp.exp(s + 2 * T + 1) + sp.exp(s + T + 1)
    return {
        "breather_p": 1 + sp.exp(s * sp.cos(T) ** 2),
        "breather_q": sp.exp(s + sp.cos(T) ** 2),
        "tancos": 1 + sp.exp(sp.tan(s) * sp.cos(T) + 1),
        "instanton_p": base + sp.exp(-1 / (s ** 3 + 1) + 2 * T + 1),
        "instanton_q": base,
    }[family]


def evaluate(expr, points, names):
    """expr at each point, its coordinates named ``names``."""
    fn = sp.lambdify([sp.Symbol(k, real=True) for k in names], expr, "mpmath")
    with mpmath.workdps(40):
        return [float(fn(*(mpmath.mpf(v) for v in pt))) for pt in points]


def assert_close(got, want, what):
    assert abs(got - want) <= REL * abs(want), (what, got, want)


@pytest.mark.parametrize("name", case_names())
def test_profile_jets_match_sympy(name):
    # all ten entries of each profile's order-3 jet in (s, t), and those of
    # the box jets (1, 1) and (3, 0) that U_t and the peak ascent read
    spec = build_case(name).spec
    s = sp.Symbol("s", real=True)
    at = [(c, t) for x, y, t in POINTS for c in rotate(x, y)]
    for profile in (spec.p, spec.q):
        expr = closed_form(profile, s)
        jets = {order: [profile.jet3(c, t, order) for c, t in at]
                for order in (3, (1, 1), (3, 0))}
        for a, b in jets[3][0].layout.index:
            want = evaluate(sp.diff(expr, s, a, T, b), at, "st")
            for order, js in jets.items():
                if (a, b) not in js[0].layout.pos:
                    continue
                for jet, w, pt in zip(js, want, at):
                    assert_close(float(jet[a, b]), w, (profile.family, order, pt, a, b))


@pytest.mark.parametrize("name", case_names())
def test_f_jet_matches_sympy(name):
    # all entries of f's order-2 jet in (zeta, eta, t)
    spec = build_case(name).spec
    a = spec.coeffs
    p, q = closed_form(spec.p, Z), closed_form(spec.q, E)
    f = a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q
    at = [rotate(x, y) + (t,) for x, y, t in POINTS]
    taus = [eval_f(spec, *profile_jets3(spec, *pt)) for pt in at]
    assert all(len(tau.entries) == 10 for tau in taus)
    for n, (i, j, k) in enumerate(taus[0].layout.index):
        want = evaluate(sp.diff(f, Z, i, E, j, T, k), at, ("zeta", "eta", "t"))
        for tau, w, pt in zip(taus, want, at):
            assert_close(float(tau.entries[n]), w, (i, j, k, pt))


# seeded conftest.random_spec specs off the catalog (det < 0 for seeds 0,
# 4 and 5); seed 2 is taken with a3 = 0
RANDOM_SPECS = {f"random{seed}": seed for seed in (0, 1, 2, 4, 5)}


def _spec_and_points(name):
    """The spec ``name`` names and (x, y, t) points to check it at: POINTS
    for a catalog case; for a random spec the first three of a fixed set
    where U > 0 and |f| > 0.1."""
    if name not in RANDOM_SPECS:
        return build_case(name).spec, POINTS
    spec = random_spec(np.random.default_rng(RANDOM_SPECS[name]))
    if name == "random2":
        a = spec.coeffs
        spec = dataclasses.replace(spec, coeffs=SeparationCoefficients(a.a0, a.a1, a.a2, 0.0))
    x, y, t = np.array([(x, y, t) for x in (-1.1, -0.4, 0.3, 0.9)
                        for y in (-0.8, 0.2, 1.0) for t in (0.3, 1.2)]).T
    zeta, eta = rotate(x, y)
    u = eval_intensity(spec, *profile_jets3(spec, zeta, eta, t, (1, 0)))[0]
    f = eval_f(spec, *profile_jets3(spec, zeta, eta, t), order=0).value
    points = [tuple(pt) for pt in np.column_stack([x, y, t])[(u > 0) & (np.abs(f) > 0.1)]]
    assert len(points) >= 3, name
    return spec, points[:3]


@pytest.mark.parametrize("name", (*case_names(), *RANDOM_SPECS))
def test_log_intensity_gradient_and_hessian_match_sympy(name):
    # gradient and Hessian of log U in (x, y), U = 4 det p_zeta q_eta / f^2:
    # sympy differentiates log U = log|p_zeta| + log|q_eta| - 2 log|f| + c
    # in (zeta, eta), and d/dx = (d/dzeta + d/deta)/sqrt2,
    # d/dy = (d/deta - d/dzeta)/sqrt2
    spec, points = _spec_and_points(name)
    a = spec.coeffs
    p, q = closed_form(spec.p, Z), closed_form(spec.q, E)
    f = a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q
    u = 4 * a.det * sp.diff(p, Z) * sp.diff(q, E) / f ** 2
    log_abs = lambda g: sp.log(g ** 2) / 2                         # noqa: E731
    log_u = log_abs(sp.diff(p, Z)) + log_abs(sp.diff(q, E)) - 2 * log_abs(f)
    dx = lambda g: (sp.diff(g, Z) + sp.diff(g, E)) / sp.sqrt(2)    # noqa: E731
    dy = lambda g: (sp.diff(g, E) - sp.diff(g, Z)) / sp.sqrt(2)    # noqa: E731
    grad = [dx(log_u), dy(log_u)]
    hess = [[dx(g), dy(g)] for g in grad]
    at = [rotate(x, y) + (t,) for x, y, t in points]
    names = ("zeta", "eta", "t")
    got_u, got_g, got_h = _log_intensity_jets(dataclasses.replace(spec, valid_mask=None),
                                              np.array([pt[2] for pt in points]),
                                              np.array([pt[:2] for pt in points]))
    for n, w in enumerate(evaluate(u, at, names)):
        assert_close(got_u[n], w, ("U", points[n]))
    for i in range(2):
        for n, w in enumerate(evaluate(grad[i], at, names)):
            assert_close(got_g[n, i], w, ("g", i, points[n]))
        for j in range(2):
            for n, w in enumerate(evaluate(hess[i][j], at, names)):
                assert_close(got_h[n, i, j], w, ("H", i, j, points[n]))


def test_separable_cross_identity():
    # every f = a0 + a1 p + a2 q + a3 p q has f f_ze - f_z f_e =
    # (a0 a3 - a1 a2) p_z q_e, the closed form the bilinear2 check reads
    p, q = sp.Function("p")(Z), sp.Function("q")(E)
    a0, a1, a2, a3 = sp.symbols("a0:4")
    f = a0 + a1 * p + a2 * q + a3 * p * q
    cross = f * sp.diff(f, Z, E) - sp.diff(f, Z) * sp.diff(f, E)
    assert sp.simplify(cross - (a0 * a3 - a1 * a2) * sp.diff(p, Z) * sp.diff(q, E)) == 0


def test_envelope_residual_separates_into_line_terms():
    # for any line functions P, Q, p, q, p0, q0, with conj(P) and conj(Q)
    # independent, the envelope equation's residual for u = P Q / f and phi
    # by eval_phi's formula is verify's form from line terms; f is replaced
    # by a symbol while the terms are collected, then substituted back
    p, P, P_bar, p0 = (sp.Function(n)(Z, T) for n in ("p", "P", "P_bar", "p0"))
    q, Q, Q_bar, q0 = (sp.Function(n)(E, T) for n in ("q", "Q", "Q_bar", "q0"))
    a0, a1, a2, a3, beta, gamma = sp.symbols("a0:4 beta gamma")
    d = sp.diff
    f = a0 + a1 * p + a2 * q + a3 * p * q
    u = P * Q / f
    phi = (-(d(f, Z) + d(f, E)) ** 2 / f ** 2 + (d(f, Z, 2) + 2 * d(f, Z, E) + d(f, E, 2)) / f
           + p0 + q0)
    abs_u2 = P * P_bar * Q * Q_bar / f ** 2
    residual = (sp.I * d(u, T) + beta / 2 * (d(u, Z, 2) + d(u, E, 2))
                + beta * (phi - abs_u2 / 2) * u - sp.I * gamma * u)

    def line_terms(P, p, p0, s, own, other):
        L = sp.I * d(P, T) / P + beta * (d(P, s, 2) / P / 2 + p0) - sp.I * gamma / 2
        k = -sp.I * d(p, T) - beta * d(P, s) / P * d(p, s) + beta * d(p, s, 2) / 2
        return L * (a0 + own * p) + own * k, L * (other + a3 * p) + a3 * k

    (X0, X1), (Y0, Y1) = line_terms(P, p, p0, Z, a1, a2), line_terms(Q, q, q0, E, a2, a1)
    det = a0 * a3 - a1 * a2
    separated = P * Q / f ** 2 * (X0 + X1 * q + Y0 + p * Y1 + beta * (
        4 * det * d(p, Z) * d(q, E) - P * P_bar * Q * Q_bar) / f / 2)
    F = sp.Symbol("F")
    gap = sp.expand(F ** 3 * (residual - separated).xreplace({f: F}))
    assert sp.expand(gap.subs(F, f)) == 0


def test_carrier_line_terms_are_the_line_identities():
    # for the carrier P = a e^{ir} of real line functions a, r, the line terms
    # L = i P_t/P + beta (P_zz/(2 P) + p0) - i gamma/2 and
    # k = -i p_t - beta (P_z/P) p_z + beta p_zz/2, and |P|^2, are the forms verify
    # reads from the line entries: Re L = beta p0 - r_t + (beta/2)(a_zz/a - r_z^2),
    # the background relation; Im L = a_t/a + beta (a_z r_z/a + r_zz/2) - gamma/2,
    # the separation bracket less gamma/2; P_z/P = a_z/a + i r_z; and a^2
    a, r, p, p0 = (sp.Function(n, real=True)(Z, T) for n in ("a", "r", "p", "p0"))
    beta, gamma = sp.symbols("beta gamma", real=True)
    d = sp.diff
    P = a * sp.exp(sp.I * r)
    carrier = (sp.I * d(P, T) / P + beta * (d(P, Z, 2) / P / 2 + p0) - sp.I * gamma / 2,
               -sp.I * d(p, T) - beta * d(P, Z) / P * d(p, Z) + beta * d(p, Z, 2) / 2,
               P * sp.conjugate(P))
    bracket = d(a, T) / a + beta * (d(a, Z) * d(r, Z) / a + d(r, Z, 2) / 2)
    lines = (beta * p0 - d(r, T) + beta / 2 * (d(a, Z, 2) / a - d(r, Z) ** 2)
             + sp.I * (bracket - gamma / 2),
             -sp.I * d(p, T) - beta * (d(a, Z) / a + sp.I * d(r, Z)) * d(p, Z)
             + beta * d(p, Z, 2) / 2,
             a ** 2)
    for got, want in zip(carrier, lines):
        assert sp.simplify(sp.expand(got - want)) == 0
