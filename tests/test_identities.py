"""Symbolic verification of every hand-derived reduction used by the checks.

These are the calculus/algebra steps the interval checks take as given; sympy
re-derives each one exactly.
"""

import sympy as sp

t, s, a, X, u, x = sp.symbols("t s a X u x", positive=True)


def test_case2_second_derivative_reduction():
    f = sp.tan(t) / (-2 * sp.log(sp.cos(t))) ** 2
    multiplier = 2 * sp.log(sp.cos(t)) ** 4 * sp.cos(t) ** 3 / sp.sin(t)
    target = sp.log(sp.cos(t)) ** 2 + 3 * sp.log(sp.cos(t)) + 3 * sp.sin(t) ** 2
    assert sp.simplify(sp.diff(f, t, 2) * multiplier - target) == 0


def test_case2_exponential_substitution():
    # with s = -ln cos t: s^2 - 3s + 3 sin^2 t = s^2 - 3s + 3 - 3 e^{-2s}
    expr = (
        sp.log(sp.cos(t)) ** 2
        + 3 * sp.log(sp.cos(t))
        + 3 * sp.sin(t) ** 2
    ).subs(sp.log(sp.cos(t)), -s)
    reduced = s**2 - 3 * s + 3 - 3 * sp.exp(-2 * s)
    # sin^2 t = 1 - cos^2 t = 1 - e^{-2s}
    expr = expr.subs(sp.sin(t) ** 2, 1 - sp.exp(-2 * s))
    assert sp.simplify(expr - reduced) == 0


def test_tangent_term_second_derivative():
    L = t * sp.log((sp.pi - t) / t)
    neg_l2 = 1 / (sp.pi - t) + sp.pi / (sp.pi - t) ** 2 + 1 / t
    assert sp.simplify(sp.diff(L, t, 2) + neg_l2) == 0


def test_gauss_factor_convexity_sign():
    E = sp.exp(-t**2 / sp.sqrt(2))
    assert sp.simplify(sp.diff(E, t, 2) - E * (2 * t**2 - sp.sqrt(2))) == 0


def test_cos_square_primitive():
    F23 = (-sp.cos(2 * t) / t**2 + 2 * sp.sin(2 * t) / t - 4 * sp.Ci(2 * t) - 1 / t**2) / 4
    assert sp.simplify(sp.diff(F23, t) - sp.cos(t) ** 2 / t**3) == 0


def test_cos_square_over_t4_closed_form():
    # cond2's I1 = int_{pi/2}^inf cos^2 t / t^4 dt = (2/3)(1/pi - si(pi)),
    # si = Si - pi/2, from the primitive that vanishes at +infinity
    si = lambda z: sp.Si(z) - sp.pi / 2
    H = lambda z: -sp.cos(z) / (3 * z**3) + sp.sin(z) / (6 * z**2) + sp.cos(z) / (6 * z) + si(z) / 6
    F = -1 / (6 * t**3) + 4 * H(2 * t)
    assert sp.simplify(sp.diff(F, t) - sp.cos(t) ** 2 / t**4) == 0
    assert sp.limit(F, t, sp.oo) == 0
    assert sp.simplify(-F.subs(t, sp.pi / 2) - sp.Rational(2, 3) * (1 / sp.pi - si(sp.pi))) == 0


def test_cos_primitive():
    Fc = (-sp.cos(t) / t**2 + sp.sin(t) / t - sp.Ci(t)) / 2
    assert sp.simplify(sp.diff(Fc, t) - sp.cos(t) / t**3) == 0


def test_gaussian_cubic_antiderivative():
    c1, c2 = sp.symbols("c1 c2", positive=True)
    U = X**2 / sp.sqrt(2)
    closed = (c1 / sp.sqrt(2)) * (1 - sp.exp(-U)) + c2 * (1 - (1 + U) * sp.exp(-U))
    integrand = sp.exp(-X**2 / sp.sqrt(2)) * (c1 * X + c2 * X**3)
    assert sp.simplify(sp.diff(closed, X) - integrand) == 0


def test_gaussian_over_cube_closed_form():
    B = sp.exp(-a**2 / sp.sqrt(2)) / (2 * a**2) + sp.Ei(-a**2 / sp.sqrt(2)) / (
        2 * sp.sqrt(2)
    )
    assert sp.simplify(sp.diff(B, a) + sp.exp(-a**2 / sp.sqrt(2)) / a**3) == 0


def test_ln_bound_derivatives():
    m1 = sp.log(1 + x) - x + x**2 / 2
    assert sp.simplify(sp.diff(m1, x) - x**2 / (1 + x)) == 0
    m2 = u + u**2 / (2 * (1 - u)) + sp.log(1 - u)
    assert sp.simplify(sp.diff(m2, u) - u**2 / (2 * (1 - u) ** 2)) == 0


def test_exp_bounds_derivatives():
    m = 1 - x + x**2 / 2 - sp.exp(-x)
    assert sp.simplify(sp.diff(m, x, 2) - (1 - sp.exp(-x))) == 0
    assert m.subs(x, 0) == 0
    assert sp.diff(m, x).subs(x, 0) == 0


def test_geometric_series_reduction_case1():
    # pi^5 - (pi^2 + 3 pi t + 6 t^2)(pi - t)^3 = t^3 (10 pi^2 - 15 pi t + 6 t^2)
    lhs = sp.pi**5 - (sp.pi**2 + 3 * sp.pi * t + 6 * t**2) * (sp.pi - t) ** 3
    rhs = t**3 * (10 * sp.pi**2 - 15 * sp.pi * t + 6 * t**2)
    assert sp.expand(lhs - rhs) == 0


def test_case2_cubic_reduction():
    lhs = (s**2 - 3 * s + 3) * (1 + 2 * s + 2 * s**2) - 3
    rhs = s * (2 * s * (s - 1) ** 2 + 3 - s)
    assert sp.expand(lhs - rhs) == 0


def test_square_expansion_case1():
    lhs = (1 + t**2 / 6 + 2 * t**4 / 45) ** 2
    rhs = 1 + t**2 / 3 + sp.Rational(7, 60) * t**4 + sp.Rational(2, 135) * t**6 + sp.Rational(4, 2025) * t**8
    assert sp.expand(lhs - rhs) == 0


def test_quadratic_positive_form():
    assert sp.expand(
        sp.pi**3 - 3 * sp.pi**2 * t + 3 * sp.pi * t**2
        - sp.pi * (3 * (t - sp.pi / 2) ** 2 + sp.pi**2 / 4)
    ) == 0


def test_b_squared_over_144():
    # (t^4/(6 sqrt 2))^2 / 2 = t^8/144
    assert sp.simplify((t**4 / (6 * sp.sqrt(2))) ** 2 / 2 - t**8 / 144) == 0


def test_simpson_peano_kernel():
    # quad._cell's remainder: Simpson's rule on [-h, h] has the error
    # E(f) = int K f'' with K(v) = E applied to x -> (x - v)_+.  For v in
    # (0, h) only the node h lies above v; for v in (-h, 0), 0 and h do
    h, v, y = sp.symbols("h v y", positive=True)
    rule = lambda g: h / 3 * (g(-h) + 4 * g(0) + g(h))
    E = lambda g: sp.integrate(g(y), (y, -h, h)) - rule(g)
    plus = lambda nodes, w: sp.integrate(y - w, (y, w, h)) - h / 3 * sum(
        c * (n - w) for c, n in nodes)
    k_right = plus([(1, h)], v)  # K(v), 0 < v < h
    k_left = plus([(4, 0), (1, h)], -v)  # K(-v)
    assert sp.expand(k_left - k_right) == 0  # K is even
    assert sp.factor(k_right - (h - v) * (h - 3 * v) / 6) == 0
    # K >= 0 on [0, h/3], <= 0 on [h/3, h]; int K = 0, int K+ = (2h)^3/162
    assert sp.integrate(k_right, (v, 0, h)) == 0
    k_pos = 2 * sp.integrate(k_right, (v, 0, h / 3))
    k_neg = -2 * sp.integrate(k_right, (v, h / 3, h))
    assert sp.simplify(k_pos - (2 * h) ** 3 / 162) == 0
    assert sp.simplify(k_neg - (2 * h) ** 3 / 162) == 0
    # Peano's theorem at f = y^4 (f'' = 12 y^2): E(f) = int K f''
    peano = (sp.integrate(k_right * 12 * v**2, (v, 0, h))
             + sp.integrate(k_left * 12 * v**2, (v, 0, h)))
    assert sp.simplify(E(lambda z: z**4) - peano) == 0


def test_cos_power_mean_wallis_identities():
    # quad._cos_power_mean: m_t = (2/pi) int_0^{pi/2} cos^t u du is
    # Gamma((t+1)/2) / (sqrt(pi) Gamma(t/2 + 1)) (the Beta integral), which
    # sympy confirms at t = 1, 2, 3, 5; from it the Wallis step
    # m_t = m_{t+2} (t+2)/(t+1) and m_t m_{t+1} = 2/(pi (t+1)) for all t
    m = lambda z: sp.gamma((z + 1) / 2) / (sp.sqrt(sp.pi) * sp.gamma(z / 2 + 1))
    for n in map(sp.Integer, (1, 2, 3, 5)):
        mean = 2 / sp.pi * sp.integrate(sp.cos(u) ** n, (u, 0, sp.pi / 2))
        assert sp.simplify(mean - m(n)) == 0, n
    # expand_func writes Gamma(x + 1) as x Gamma(x)
    assert sp.simplify(sp.expand_func(m(t + 2) * (t + 2) / (t + 1) - m(t))) == 0
    assert sp.simplify(sp.expand_func(m(t) * m(t + 1)) - 2 / (sp.pi * (t + 1))) == 0


def test_haagerup_identity_limit_at_p2():
    # npcheck.haagerup_gap: H(p, n) = K(p) (n^(p/2) B_p^p - E|S_n|^p) with
    # K(p) = Gamma(-p) cos(pi p/2) and B_p^p = 2^(p/2) Gamma((p+1)/2)/sqrt(pi).
    # The bracket vanishes at p = 2 and (p - 2) K(p) -> 1/2, so H(2, n) is half
    # the bracket's slope there: (n/4)(2 - gamma + ln(n/2)) - E[S_n^2 ln|S_n|]/2
    p, n = sp.symbols("p n", positive=True)
    K = sp.gamma(-p) * sp.cos(sp.pi * p / 2)
    gauss = n ** (p / 2) * 2 ** (p / 2) * sp.gamma((p + 1) / 2) / sp.sqrt(sp.pi)
    assert sp.limit((p - 2) * K, p, 2) == sp.Rational(1, 2)
    slope = sp.expand_func(sp.diff(gauss, p).subs(p, 2))
    assert sp.simplify(slope - n / 2 * (2 - sp.EulerGamma + sp.log(n / 2))) == 0
    # and the limit of the identity itself at n = 2 and 4, where
    # E|S_n|^p = 2^(1-n) sum_{j < n/2} C(n, j) (n - 2j)^p
    for m in (2, 4):
        pairs = [(sp.Rational(2 * sp.binomial(m, j), 2**m), m - 2 * j) for j in range(m // 2)]
        moment = sum(w * sp.Integer(x) ** p for w, x in pairs)
        limit = sp.Rational(m, 4) * (2 - sp.EulerGamma + sp.log(sp.Rational(m, 2))) - sum(
            w * x**2 * sp.log(x) for w, x in pairs) / 2
        assert sp.simplify(sp.limit(K * (gauss.subs(n, m) - moment), p, 2) - limit) == 0, m
