"""Field layer: exact arithmetic in Q(t)(x), derivations, Hermite reduction,
residues, antiderivatives, and logarithmic-derivative membership."""

import fractions
import math
import time
import warnings

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

from pdgal3 import ratfunc as ratfunc_module
from pdgal3.errors import ExpressionParseError, UnsupportedError
from pdgal3.ratfunc import (
    COEFF_FIELD,
    FIELD,
    MAX_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_WITNESS_DEGREE,
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
    low_coeffs,
    ratfunc,
    rational_antiderivative,
    residue_matrix,
    residues,
    t,
    x,
)
from util import residue_at


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
        res = residue_at(h, f.monic())
        if res.degree() > 0:
            return None
        val = sp.cancel(res.as_expr())
        if val.free_symbols:
            return None
        factor_res.append((fe, sp.Rational(val)))
    for m in range(1, m_max + 1):
        if all((m * q).is_integer for _, q in factor_res):
            return m, _ref_witness([(fe, int(m * q)) for fe, q in factor_res])
    return None


def _ref_witness(powers):
    """prod f^k over (fe, k), f = fe / lc_x(fe) monic in x, as one fraction
    without a multivariate gcd: the fe are distinct irreducibles, so only
    the powers of their leading coefficients in Q[t] can cancel."""
    ring = FIELD.field.ring
    num, den = ring.one, ring.one
    cnum, cden = sp.S.One, sp.S.One
    for fe, k in powers:
        lc = sp.Poly(fe, x).LC()
        if k > 0:
            num, cden = num * ring.from_expr(fe) ** k, cden * lc**k
        else:
            den, cnum = den * ring.from_expr(fe) ** -k, cnum * lc**-k
    g = sp.gcd(cnum, cden)
    num *= ring.from_expr(sp.cancel(cnum / g))
    den *= ring.from_expr(sp.cancel(cden / g))
    return RatFunc(FIELD.field.raw_new(num, den))


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

    @pytest.mark.parametrize("value", [None, 1.5, [1], COEFF_FIELD.one])
    def test_unknown_values_rejected(self, value):
        # None once became 0, and a float or a list escaped as AttributeError
        with pytest.raises(TypeError, match="not an element of Q"):
            RatFunc(value)

    def test_accepted_values(self):
        for value in (RatFunc(2), 2, fractions.Fraction(4, 2), sp.Integer(2),
                      FIELD(2)):
            assert RatFunc(value) == rf("2")
        assert RatFunc(x / (x - t)) == rf("x/(x-t)")

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


# -- the expression parser: grammar, caps, agreement with the sympy route ------


def _reference_parse(text):
    """The parser that RatFunc.parse replaced: sympy's parse_expr, then
    cancel(together(.)) into FIELD.  None where it gives no element of
    Q(t)(x): a pole such as x/0, also where a later step hides it, as
    x/0^-1 = x/zoo = 0 does; a non-integer power; ..."""
    kw = {"local_dict": {"t": t, "x": x},
          "transformations": standard_transformations + (convert_xor,)}
    try:
        raw = parse_expr(text, evaluate=False, **kw)
        if any(sub.doit().has(sp.zoo, sp.nan)
               for sub in sp.preorder_traversal(raw)):
            return None
        expr = parse_expr(text, **kw)
        return RatFunc(FIELD.from_sympy(sp.cancel(sp.together(expr))))
    except Exception:
        return None


@st.composite
def grammar_texts(draw):
    """Random strings of the parser's grammar: integers, t, x, + - * /,
    ^ and **, unary signs, parentheses, negative exponents and
    right-associative chains such as x^2^2.  A power has a base of degree
    at most 2 and |exponent| <= 4, and there are at most 8 atoms, so every
    value stays under MAX_DEGREE."""
    gap = draw(st.sampled_from(["", " "]))
    name = st.sampled_from(["x", "t"])
    atom = name | st.integers(0, 12).map(str)
    base = atom | st.tuples(atom, st.sampled_from("+-*"), atom).map(
        lambda p: f"({p[0]}{gap}{p[1]}{gap}{p[2]})")
    e = st.integers(0, 2).map(str)
    exponent = st.tuples(st.sampled_from(["", "-", "+"]), e,
                         st.none() | e).map(
        lambda p: p[0] + p[1] + ("" if p[2] is None else "^" + p[2]))
    exponent = exponent | exponent.map(lambda s: f"({s})")
    power = st.tuples(base, st.sampled_from(["^", "**"]), exponent).map(
        "".join)

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda p: f"{p[0]}{gap}{p[1]}{gap}{p[2]}")
        signed = st.tuples(st.sampled_from("-+"), inner).map("".join)
        return binary | signed | inner.map(lambda s: f"({s})")

    return draw(st.recursive(atom | power, extend, max_leaves=8))


#: a fraction sum that costs 0.03 s, erased by *0, so that copies of it
#: add work but not degree
ERASED_SUM = "((1+x+t)^8/(1-x+t)^8 + (2+x+t)^8/(2-x-t)^8)*0"

#: inputs over a cap; the first five are far over it
OVERSIZED = [
    pytest.param("x^(10^9)", id="exponent"),
    pytest.param("(1+x+t)^100000", id="power-degree-huge"),
    pytest.param("7" * 10**6, id="literal-1e6-digits"),
    pytest.param("-" * 100000 + "x", id="unary-chain"),
    pytest.param("+".join(["x"] * 100000), id="sum-chain"),
    pytest.param("7" * 2000, id="literal-digits"),
    pytest.param("0x" + "f" * 2000, id="hex-literal-digits"),
    pytest.param("1e5000", id="decimal-exponent"),
    pytest.param("-" * 9000 + "x", id="parser-memory"),
    pytest.param("+".join(["x"] * 4000), id="parser-recursion"),
    pytest.param("(1+x+t)^65", id="power-degree"),
    pytest.param("(1+x+t)^60*(1+x+t)^60", id="product-degree"),
    pytest.param("1/(1+x+t)^40 + 1/(1-x+t)^40", id="fraction-sum-degree"),
    pytest.param("((10^99)^99)^99", id="power-bits"),
    pytest.param("(10^99)^49", id="power-print-bits"),
    pytest.param("*".join(["1e999"] * 3), id="product-bits"),
    pytest.param(ERASED_SUM.replace("8", "32"), id="work-one-sum"),
    pytest.param("+".join([ERASED_SUM] * 200), id="work-chain"),
]


class TestParser:
    @pytest.mark.parametrize("text", OVERSIZED)
    def test_caps_reject_before_evaluating(self, text, monkeypatch):
        """Each is an ExpressionParseError, quickly, and no value over the
        caps is ever built: every power and every binary operation the
        parser runs is recorded."""
        built = []
        frac_pow = type(FIELD.one).__pow__
        binop = ratfunc_module._binop

        def record(value):
            built.append(value)
            return value

        monkeypatch.setattr(type(FIELD.one), "__pow__",
                            lambda a, n: record(frac_pow(a, n)))
        monkeypatch.setattr(ratfunc_module, "_binop",
                            lambda *args: record(binop(*args)))
        start = time.perf_counter()
        with pytest.raises(ExpressionParseError):
            RatFunc.parse(text)
        assert time.perf_counter() - start < 10
        assert all(ratfunc_module._degree(v) <= MAX_DEGREE
                   and ratfunc_module._bits(v) <= MAX_BITS
                   for v in built)

    def test_caps_admit_the_bounds(self):
        assert RatFunc.parse("x^64") == X**64
        assert RatFunc.parse(f"2^{MAX_EXPONENT}") == RatFunc(2**MAX_EXPONENT)
        assert RatFunc.parse("(x+1)^64/(x+1)^63") == X + 1

    def test_work_cap_bounds_the_whole_parse(self):
        """Each copy passes the degree and bit caps; the work of all of
        them together does not."""
        assert RatFunc.parse("+".join([ERASED_SUM] * 5)) == ZERO
        with pytest.raises(ExpressionParseError, match="work above"):
            RatFunc.parse("+".join([ERASED_SUM] * 200))

    def test_accepted_coefficients_print(self):
        """MAX_BITS keeps every coefficient under the 4300 digits that
        Python converts to a string by default."""
        assert RatFunc.parse("(10^99)^24*x").to_string() == f"{10**2376}*x"
        with pytest.raises(ExpressionParseError, match="bits"):
            RatFunc.parse("(10^99)^49")

    def test_zero_to_the_zero_is_one(self):
        assert RatFunc.parse("0^0") == ONE
        assert RatFunc.parse("(x-x)^0") == ONE

    @pytest.mark.parametrize("text", ["x/0", "0^-1", "(x-x)^-1", "1/(t-t)"])
    def test_poles_rejected(self, text):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse(text)

    @pytest.mark.parametrize("text", [
        "True", "x*1j", "__import__('os')", "x.real", "[x]",
        "x if t else 1", "lambda: 1", "", "x + y", "sin(x)",
        "x // 2", "x % 2", "not x", "~x", "'x'", "x < 1", "(x, t)",
        "x^x", "4^(1/2)", "x\u00b2",
    ])
    def test_rejects_outside_grammar(self, text):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse(text)

    @pytest.mark.parametrize("text, value", [
        ("0.5", fractions.Fraction(1, 2)),
        ("0.1", fractions.Fraction(1, 10)),
        ("1e3", 1000),
        ("1.5e-3", fractions.Fraction(3, 2000)),
        ("0.3333", fractions.Fraction(3333, 10000)),
        (".25", fractions.Fraction(1, 4)),
    ])
    def test_decimal_literal_is_exact(self, text, value):
        assert RatFunc.parse(text) == RatFunc(value)

    def test_decimal_coefficient(self):
        assert RatFunc.parse("2.5*x") == RatFunc(fractions.Fraction(5, 2)) * X

    @pytest.mark.parametrize("text", ["x^0.5", "x^2.0", "x^1e0"])
    def test_decimal_exponent_rejected(self, text):
        with pytest.raises(ExpressionParseError):
            RatFunc.parse(text)

    @pytest.mark.parametrize("text", ["1if x else 2", "0x1for"])
    def test_tokenizer_warning_is_a_parse_error(self, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExpressionParseError):
                RatFunc.parse(text)
        assert caught == []

    def test_layout(self):
        assert RatFunc.parse("  (x\n + t) ") == X + T
        assert RatFunc.parse("1_000*x") == 1000 * X

    @given(grammar_texts())
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy_route(self, text):
        ref = _reference_parse(text)
        if ref is None:
            with pytest.raises(ExpressionParseError):
                RatFunc.parse(text)
        else:
            assert RatFunc.parse(text).xt_pair() == ref.xt_pair()

    @given(st.text(alphabet="0123456789tx+-*/^() .abyzXT[]{}'\"_,e",
                   max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_parse_errors(self, text):
        try:
            value = RatFunc.parse(text)
        except ExpressionParseError:
            return
        assert isinstance(value, RatFunc)


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

    def test_residue_element_matches_reference(self):
        a = rf("(t+2)/(t^2+1) * (x+t)/(x^2-1)")
        [blk] = residues(a)
        assert blk.residue == residue_at(a, blk.pole)
        assert blk.residue.degree() == 1

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


#: (a, f): a with a Q(t) coefficient in its numerator, at a linear f, at
#: two irreducible quadratics, at the reducible squarefree denominator that
#: `residues` passes, and at an f that does not divide a's denominator
RESIDUE_CASES = [
    ("(t^2+1)/(3*t-1) * (x+1)/((x-t)*(x+2))", x - t),
    ("(t+2)/(t-1) * (x+t)/(x^2-t) + 1/x", x**2 - t),
    ("(t*x-1)/((t^2+1)*(x^2+t*x+1)) + x/(x-1)", x**2 + t * x + 1),
    ("(t+2)/(t^2+1) * (x+t)/(x^2-1)", x**2 - 1),
    ("t/x", x**2 - t),
]


@pytest.mark.parametrize("text, f", RESIDUE_CASES)
def test_residue_matrix_column_is_the_residue_element(text, f):
    """Column 0 of the 1 x 1 residue matrix of a's stored numerator and
    denominator is a's residue element at f, by the per-element route."""
    a, fp = rf(text), _poly(f, x)
    num, den = a.xt_pair()
    R, r = residue_matrix(((num,),), den, fp)
    assert len(R) == fp.degree()
    col = [COEFF_FIELD.field.new(row[0], r) for row in R]
    assert col == low_coeffs(residue_at(a, fp), fp.degree())


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
        # the leading coefficients t of the lifts t*x - 1 and t*x - 2 cancel
        assert is_log_derivative(rf("1/(x-1/t) - 1/(x-2/t)")) == (
            1, rf("(t*x-1)/(t*x-2)"))

    def test_witness_degree_cap(self):
        n = MAX_WITNESS_DEGREE
        assert is_log_derivative(RatFunc(n) / X) == (1, X**n)
        with pytest.raises(UnsupportedError, match="witness"):
            is_log_derivative(RatFunc(n + 1) / X)

    def test_witness_cap_raises_before_building(self, monkeypatch):
        """m = 97 * 89 * 83 = 716539, and the witness would have x-degree
        m/97 + m/89 + m/83 = 24071: the cap raises before any power of a
        pole factor is taken."""
        a = rf("1/(97*x) + 1/(89*(x-1)) + 1/(83*(x-t))")

        def no_power(*args):
            raise AssertionError("the witness was multiplied out")

        monkeypatch.setattr(RatFunc, "__pow__", no_power)
        with pytest.raises(UnsupportedError, match="degree 24071 "):
            is_log_derivative(a)

    def test_witness_takes_no_product(self, monkeypatch):
        """Three pole factors, one of them with a t-dependent leading
        coefficient: r is built without a RatFunc product or power."""
        a = rf("3/(2*x) - 1/(x-1) + t/(2*(t*x-1))")

        def no_product(*args):
            raise AssertionError("the witness was built from RatFunc products")

        monkeypatch.setattr(RatFunc, "__mul__", no_product)
        monkeypatch.setattr(RatFunc, "__pow__", no_product)
        m, r = is_log_derivative(a)
        monkeypatch.undo()
        assert (m, r) == (2, rf("x^3 * (x - 1/t) / (x-1)^2"))
        assert m * a * r - d_x(r) == ZERO

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
