"""Field layer: exact arithmetic in Q(t)(x), derivations, Hermite reduction,
residues, antiderivatives, and logarithmic-derivative membership."""

import fractions
import math

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from pdgal3.errors import ExpressionParseError
from pdgal3.ratfunc import (
    COEFF_FIELD,
    FIELD,
    ONE,
    RatFunc,
    T,
    X,
    ZERO,
    _poly,
    d_t,
    d_x,
    from_low_coeffs,
    horowitz_reduce,
    is_log_derivative,
    ratfunc,
    rational_antiderivative,
    residue_at,
    residues,
    t,
    x,
)


def rf(s):
    return ratfunc(s)


#: pairwise coprime, irreducible over Q(t)
LOG_FACTORS = [x, x - 1, x - t, x**2 - t, x**2 + t * x + 1]


@st.composite
def log_terms(draw):
    """Up to four (f, c) with distinct f in LOG_FACTORS and c a nonzero
    rational with denominator up to 100.  The denominators divide one drawn
    m0 <= 100: the reference search below takes m steps, and the witness has
    degree m * |c| in each f."""
    m0 = draw(st.integers(1, 100))
    divisors = [d for d in range(1, m0 + 1) if m0 % d == 0]
    fs = draw(st.lists(st.sampled_from(LOG_FACTORS), max_size=4, unique=True))
    return [(f, fractions.Fraction(draw(st.sampled_from([-2, -1, 1, 2])),
                                   draw(st.sampled_from(divisors))))
            for f in fs]


def _ref_is_log_derivative(a, m_max):
    """The bounded search that is_log_derivative replaced: Hermite reduction,
    pole factors through sympy expressions, then m = 1, ..., m_max in turn."""
    if a.is_zero:
        return 1, ONE
    g, polypart, h = horowitz_reduce(a)
    if not polypart.is_zero or not g.is_zero or a != h:
        return None
    cleared = sp.fraction(sp.together(h.denominator.as_expr()))[0]
    factor_res = []
    for fe, _ in sp.factor_list(cleared, x, t)[1]:
        f = _poly(fe, x)
        if f.degree() == 0:
            continue
        f = f.monic()
        res = residue_at(h, f)
        if res.degree() > 0:
            return None
        val = sp.cancel(res.as_expr())
        if val.free_symbols:
            return None
        factor_res.append((f, sp.Rational(val)))
    for m in range(1, m_max + 1):
        if all((m * q).is_integer for _, q in factor_res):
            r = ONE
            for f, q in factor_res:
                r = r * RatFunc(f.as_expr()) ** int(m * q)
            return m, r
    return None


# -- random rational functions for property tests ------------------------------

_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def rat_funcs(draw):
    """Small random elements of Q(t)(x) with denominators that stay nonzero."""
    num = sum(
        draw(_coeffs) * x**i * t**j for i in range(3) for j in range(2)
    )
    den_choices = [
        sp.S.One, x, x + 1, x - 1, x - t, x**2 + 1, x * (x - t),
    ]
    den = draw(st.sampled_from(den_choices))
    return RatFunc(num) / RatFunc(den)


# -- arithmetic ----------------------------------------------------------------


class TestArith:
    def test_add(self):
        assert rf("t/x") + rf("1/x") == rf("(t+1)/x")

    def test_mul_inverse_pair(self):
        assert rf("x/(x-t)") * rf("(x-t)/x") == ONE

    def test_div(self):
        assert ONE / rf("x^2-t") == rf("1/(x^2-t)")

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_canonical_equal_values_identical(self):
        a = rf("1/(1-x)")
        b = rf("-1/(x-1)")
        assert a == b
        assert a.to_string() == b.to_string()
        assert hash(a) == hash(b)

    def test_coercions(self):
        assert RatFunc(fractions.Fraction(1, 2)) == rf("1/2")
        assert 1 + X == rf("x+1")
        assert 2 * T == rf("2*t")

    @given(rat_funcs(), rat_funcs(), rat_funcs())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a - b) + b == a


# -- the cached x-structure ----------------------------------------------------

_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
#: leading x-coefficients of denominators, non-monic in t among them
_den_leads = [sp.S.One, sp.Integer(2), t, 3 * t - 1, t**2 + 1, -2 * t**2 + t]


@st.composite
def x_structured(draw):
    """Zero, constants in Q, x-free elements of Q(t), and general elements
    whose denominator has a non-monic polynomial in t as x-leading coefficient."""
    kind = draw(st.sampled_from(["zero", "rational", "x-free", "general"]))
    if kind == "zero":
        return ZERO
    if kind == "rational":
        return RatFunc(draw(_fracs))
    xdeg = 0 if kind == "x-free" else draw(st.integers(0, 3))
    num = sum(draw(_fracs) * x**i * t**j for i in range(xdeg + 1) for j in range(3))
    m = 0 if kind == "x-free" else draw(st.integers(0, 2))
    den = draw(st.sampled_from(_den_leads)) * x**m + sum(
        draw(_fracs) * x**i * t**j for i in range(m) for j in range(2)
    )
    return RatFunc(num) / RatFunc(den)


def _reference_pair(r):
    """The x-structure through sympy expressions: FracElement -> expr -> Poly."""
    num = _poly(FIELD.to_sympy(r._elem.numer), x)
    den = _poly(FIELD.to_sympy(r._elem.denom), x)
    lc = den.LC()
    if lc != 1:
        num = num.quo_ground(lc)
        den = den.monic()
    return num, den


def _same_polys(ps, qs):
    return all(
        (p.rep, p.domain, p.gens) == (q.rep, q.domain, q.gens)
        for p, q in zip(ps, qs)
    )


class TestMonicPair:
    @given(x_structured())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy_route(self, a):
        assert _same_polys(a.monic_pair(), _reference_pair(a))

    def test_non_monic_t_leading_coefficient(self):
        a = rf("(t*x + 1)/((t^2 + 1)*x^2 + t)")
        num, den = a.monic_pair()
        assert den.LC() == 1
        assert sp.cancel(den.as_expr() - x**2 - t / (t**2 + 1)) == 0
        assert _same_polys((num, den), _reference_pair(a))

    @given(x_structured(), x_structured())
    @settings(max_examples=40, deadline=None)
    def test_pairs_follow_construction(self, a, b):
        pair = a.monic_pair()
        assert RatFunc(a)._pair is pair
        derived = [a + b, a * b, a.d_x()] + ([a / b] if b else [])
        for c in derived:
            assert c._pair is None
            assert _same_polys(c.monic_pair(), _reference_pair(c))
        assert a.monic_pair() is pair


class TestParsePrint:
    def test_roundtrip(self):
        for s in ["t/x", "(3*x^2+t)/((x-1)^2*(x^2-t)*x)", "x^3 - 1/2", "0"]:
            v = rf(s)
            assert RatFunc.parse(v.to_string()) == v

    def test_caret_power(self):
        assert rf("x^2") == RatFunc(x**2)
        assert "^" in rf("x^2").to_string()

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse("x + y")

    def test_rejects_functions(self):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse("sin(x)")

    def test_rejects_garbage(self):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse("x +* 2")

    def test_rejects_non_rational(self):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse("x^(1/2)")


# -- derivations ---------------------------------------------------------------


class TestDerivations:
    def test_d_x_simple(self):
        assert d_x(rf("1/x")) == rf("-1/x^2")

    def test_d_t_simple(self):
        assert d_t(rf("t/x")) == rf("1/x")

    def test_d_t_chain(self):
        assert d_t(rf("1/(x-t)")) == rf("1/(x-t)^2")

    @given(rat_funcs())
    @settings(max_examples=100, deadline=None)
    def test_commute(self, a):
        assert d_x(d_t(a)) == d_t(d_x(a))

    @given(rat_funcs(), rat_funcs())
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, a, b):
        assert d_x(a * b) == d_x(a) * b + a * d_x(b)


# -- Hermite reduction and residues --------------------------------------------


class TestPartialFractions:
    def test_residue_element_x2_minus_1(self):
        # 1/(x^2-1): simultaneous residue x/2 mod (x^2-1)
        res = residues(rf("1/(x^2-1)"))
        assert len(res) == 1
        blk = res[0]
        assert blk.pole == sp.Poly(x**2 - 1, x, domain="QQ(t)")
        assert blk.residue.as_expr() == x / 2

    def test_pure_square_no_residue(self):
        assert residues(rf("1/x^2")) == []

    def test_moving_pole(self):
        g, pp, h = horowitz_reduce(rf("t*x/(x-t)"))
        assert g == ZERO and pp.as_expr() == t
        assert h == rf("t^2/(x-t)")
        res = residues(rf("t*x/(x-t)"))
        assert len(res) == 1 and res[0].residue.as_expr() == t**2

    @given(rat_funcs())
    @settings(max_examples=40, deadline=None)
    def test_horowitz_identity(self, a):
        g, pp, h = horowitz_reduce(a)
        assert d_x(g) + RatFunc(pp.as_expr()) + h == a
        # h is proper with squarefree denominator
        if not h.is_zero:
            den = h.denominator
            assert sp.gcd(den, den.diff()).degree() == 0


_QT_COEFFS = st.sampled_from([0, 1, -3, t, t**2 - 1, 1 / t, (t + 2) / (3 * t - 1),
                              sp.Rational(5, 7) / (t**2 + 1)])


@given(st.lists(_QT_COEFFS, max_size=4),
       st.sampled_from([1, x, x - t, 2 * t * x**2 - 1, (x - 1) / (t + 1)]))
@settings(max_examples=60, deadline=None)
def test_from_low_coeffs_matches_expression_route(cs, den):
    """The cleared build equals the sympy expression it replaced."""
    coeffs = [COEFF_FIELD.from_sympy(sp.sympify(c)) for c in cs]
    got = from_low_coeffs(coeffs, _poly(den, x))
    want = RatFunc(sum((sp.sympify(c) * x**k for k, c in enumerate(cs)),
                       sp.S.Zero) / den)
    assert got == want


class TestAntiderivative:
    def test_simple(self):
        assert rational_antiderivative(rf("1/x^2")) == rf("-1/x")

    def test_log_obstruction(self):
        assert rational_antiderivative(rf("1/x")) is None

    def test_mixed(self):
        got = rational_antiderivative(rf("1/(x-t)^2 + 3*x"))
        assert got is not None
        assert d_x(got) == rf("1/(x-t)^2 + 3*x")
        assert got - rf("-1/(x-t) + 3*x^2/2") == ZERO

    @given(rat_funcs())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_up_to_constant(self, a):
        f = rational_antiderivative(d_x(a))
        assert f is not None
        diff = f - a
        assert d_x(diff).is_zero  # differ by an element of Q(t)


class TestLogDerivative:
    def test_log_x(self):
        assert is_log_derivative(rf("1/x")) == (1, X)

    def test_t_residue_fails(self):
        assert is_log_derivative(rf("t/x")) is None

    def test_half_integer(self):
        m, r = is_log_derivative(rf("3/(2*x)"))
        assert (m, r) == (2, rf("x^3"))

    def test_double_pole_fails(self):
        assert is_log_derivative(rf("1/x^2")) is None

    def test_polynomial_part_fails(self):
        assert is_log_derivative(rf("1 + 1/x")) is None

    def test_exact_order(self):
        assert is_log_derivative(rf("1/(5*x)")) == (5, X)
        assert is_log_derivative(rf("1/(65*x)")) == (65, X)

    def test_moving_pole(self):
        assert is_log_derivative(rf("2/(x-t)")) == (1, rf("(x-t)^2"))

    @given(rat_funcs())
    @settings(max_examples=40, deadline=None)
    def test_witness_identity(self, a):
        out = is_log_derivative(a)
        if out is not None:
            m, r = out
            assert m * a * r - d_x(r) == ZERO

    @given(log_terms(), st.sampled_from([0, t, x, t * x**2, 1 / (x - 2)**2]))
    @settings(max_examples=60, deadline=None)
    def test_matches_bounded_search(self, terms, bump):
        """a = sum c_i f_i'/f_i, perhaps with a t-dependent residue, a
        polynomial part or a double pole added: the exact order equals the
        old bounded search run with the order known by construction."""
        a = sum((RatFunc(sp.Rational(c.numerator, c.denominator)
                         * sp.diff(f, x) / f) for f, c in terms), ZERO)
        m = math.lcm(*(c.denominator for _, c in terms))
        if bump == t:  # a residue that depends on t
            a = a + rf("t/(x-2)")
        elif bump != 0:
            a = a + RatFunc(bump)
        out = is_log_derivative(a)
        assert out == _ref_is_log_derivative(a, m)
        assert (out is not None) == (bump == 0)
        if out is not None:
            assert out[0] == m
