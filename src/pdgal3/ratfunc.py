"""Exact arithmetic in K = Q(t)(x) with the two commuting derivations d_x, d_t.

Elements are kept in a canonical form (reduced fraction with sign-normalized
denominator), so equality of values is equality of representations.  The
x-structure (numerator/denominator as polynomials in x over Q(t), monic
denominator) is exposed for the integration and residue machinery; each
element computes it once, straight from its Q[t, x] numerator and denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp
from sympy import Poly, QQ
from sympy.parsing.sympy_parser import (
    parse_expr,
    standard_transformations,
    convert_xor,
)

from .errors import ExpressionParseError

t, x = sp.symbols("t x")

#: the flat field Q(t, x); used as canonical storage
FIELD = QQ.frac_field(t, x)
#: the coefficient field Q(t)
COEFF_FIELD = QQ.frac_field(t)

_PARSE_TRANSFORMS = standard_transformations + (convert_xor,)


def _poly(expr, *gens, **kw):
    return Poly(expr, *gens, domain=COEFF_FIELD, **kw)


class RatFunc:
    """An element of Q(t)(x), immutable and canonical."""

    __slots__ = ("_elem", "_pair")

    def __init__(self, value):
        if isinstance(value, RatFunc):
            self._elem = value._elem
            self._pair = value._pair
            return
        self._pair = None
        if isinstance(value, Fraction):
            value = sp.Rational(value.numerator, value.denominator)
        if isinstance(value, (int, sp.Rational)):
            elem = FIELD.from_sympy(sp.Rational(value))
        elif isinstance(value, sp.Expr):
            elem = FIELD.from_sympy(sp.cancel(sp.together(value)))
        else:
            elem = value  # assumed FracElement of FIELD
        self._elem = _normalize(elem)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RatFunc":
        """Parse the expression grammar: integers, t, x, + - * / ^, parens."""
        try:
            expr = parse_expr(
                text,
                local_dict={"t": t, "x": x},
                global_dict={
                    "Integer": sp.Integer,
                    "Rational": sp.Rational,
                    "Float": sp.Float,
                    "Symbol": sp.Symbol,
                },
                transformations=_PARSE_TRANSFORMS,
                evaluate=True,
            )
        except Exception as exc:  # sympy raises a zoo of parse errors
            raise ExpressionParseError(f"cannot parse {text!r}: {exc}") from exc
        if not isinstance(expr, sp.Expr):
            raise ExpressionParseError(f"not an expression: {text!r}")
        bad = expr.free_symbols - {t, x}
        if bad:
            raise ExpressionParseError(f"unknown symbols {bad} in {text!r}")
        if expr.atoms(sp.Function):
            raise ExpressionParseError(f"function calls not allowed in {text!r}")
        if not expr.is_rational_function(t, x):
            raise ExpressionParseError(f"not a rational function: {text!r}")
        return cls(expr)

    # -- canonical accessors -------------------------------------------------

    @property
    def expr(self) -> sp.Expr:
        num, den = self.monic_pair()
        d = den.as_expr()
        return num.as_expr() if d == 1 else num.as_expr() / d

    def xt_pair(self):
        """(numerator, denominator) as stored: PolyElements of Q[t, x]."""
        return self._elem.numer, self._elem.denom

    def monic_pair(self):
        """(numerator, denominator) as Polys in x over Q(t), denominator monic.

        Computed on first use and kept: the terms of the Q[t, x] numerator
        and denominator are grouped by x-exponent into Q(t) coefficients, and
        both are divided by the denominator's leading one."""
        if self._pair is None:
            num = _x_coeffs(self._elem.numer)
            den = _x_coeffs(self._elem.denom)
            lc = den[max(den)]
            self._pair = tuple(
                Poly.from_dict(
                    {(k,): COEFF_FIELD.field.new(c, lc) for k, c in p.items()},
                    x, domain=COEFF_FIELD,
                )
                for p in (num, den)
            )
        return self._pair

    @property
    def numerator(self) -> Poly:
        return self.monic_pair()[0]

    @property
    def denominator(self) -> Poly:
        return self.monic_pair()[1]

    def to_string(self) -> str:
        return sp.sstr(self.expr).replace("**", "^")

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._elem

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return RatFunc(self._elem + _coerce(other)._elem)

    __radd__ = __add__

    def __sub__(self, other):
        return RatFunc(self._elem - _coerce(other)._elem)

    def __rsub__(self, other):
        return RatFunc(_coerce(other)._elem - self._elem)

    def __mul__(self, other):
        return RatFunc(self._elem * _coerce(other)._elem)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero in Q(t)(x)")
        return RatFunc(self._elem / o._elem)

    def __rtruediv__(self, other):
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(t)(x)")
        return RatFunc(_coerce(other)._elem / self._elem)

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero to a negative power")
            return RatFunc(self._elem ** n)
        return RatFunc(self._elem ** n)

    def __neg__(self):
        return RatFunc(-self._elem)

    def __eq__(self, other):
        try:
            return self._elem == _coerce(other)._elem
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(self._elem)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"RatFunc({self.to_string()})"

    # -- derivations ---------------------------------------------------------

    def d_x(self) -> "RatFunc":
        return RatFunc(self._elem.diff(_GEN_X))

    def d_t(self) -> "RatFunc":
        return RatFunc(self._elem.diff(_GEN_T))


_GEN_T, _GEN_X = FIELD.field.gens
_T_RING = COEFF_FIELD.field.ring
_TX_RING = FIELD.field.ring


def _x_coeffs(p):
    """{x-exponent: Q[t] coefficient} of a PolyElement of Q[t, x]."""
    by_k = {}
    for (i, k), c in p.terms():
        by_k.setdefault(k, {})[(i,)] = c
    return {k: _T_RING.from_dict(d) for k, d in by_k.items()}


def _normalize(elem):
    """Sign-normalize: sympy's from_sympy can leave a unit in the denominator."""
    if not elem:
        return FIELD.zero
    lc = elem.denom.LC
    if lc != 1:
        elem = elem.field.raw_new(
            elem.numer.quo_ground(lc), elem.denom.quo_ground(lc)
        )
    return elem


def _coerce(value) -> RatFunc:
    return value if isinstance(value, RatFunc) else RatFunc(value)


ZERO = RatFunc(0)
ONE = RatFunc(1)
X = RatFunc(x)
T = RatFunc(t)


def ratfunc(value) -> RatFunc:
    """Coerce ints, Fractions, sympy expressions or strings into RatFunc."""
    if isinstance(value, str):
        return RatFunc.parse(value)
    return _coerce(value)


def d_x(a) -> RatFunc:
    return _coerce(a).d_x()


def d_t(a) -> RatFunc:
    return _coerce(a).d_t()


# -- integration and residues ------------------------------------------------


@dataclass(frozen=True)
class ResidueData:
    """Rothstein-Trager residue block: the residue of the input at every root
    of the squarefree monic `pole`, encoded as one element of Q(t)[x]/(pole)."""

    pole: Poly
    residue: Poly

    def __post_init__(self):
        assert self.pole.LC() == 1


def horowitz_reduce(a):
    """Hermite-Ostrogradsky: a = d_x(g) + polypart + h with h proper and
    squarefree-denominator.  Returns (g, polypart as Poly, h)."""
    a = _coerce(a)
    num, den = a.monic_pair()
    polypart, rem = num.div(den)
    if den.degree() == 0:
        return ZERO, polypart, ZERO
    dden = den.diff()
    q1 = den.gcd(dden)
    q2 = den.quo(q1)
    if q1.degree() == 0:
        return ZERO, polypart, from_low_coeffs(low_coeffs(rem), den)
    # rem/den = (A/q1)' + B/q2, deg A < deg q1, deg B < deg q2.
    # Multiplied by den:  rem = A'*q2 - A*s + B*q1,  s := q1'*q2/q1 (a poly).
    s = (q1.diff() * q2).quo(q1)
    m, n = q1.degree(), q2.degree()
    # columns: coefficients of A (x^0..x^{m-1}) then of B (x^0..x^{n-1});
    # rows: coefficients of x^0..x^{m+n-1} in the identity above.
    cols = []
    for i in range(m):
        xi = _poly(x ** i, x)
        cols.append(xi.diff() * q2 - xi * s)
    for i in range(n):
        cols.append(_poly(x ** i, x) * q1)
    coeffs = [low_coeffs(c, m + n) for c in cols]
    from .linalg import solve_affine

    vals, _ = solve_affine([list(row) for row in zip(*coeffs)],
                           low_coeffs(rem, m + n))
    if vals is None:
        raise RuntimeError("Hermite reduction system must be solvable")
    return from_low_coeffs(vals[:m], q1), polypart, from_low_coeffs(vals[m:], q2)


def low_coeffs(p: Poly, n: int | None = None) -> list:
    """The coefficients of x^0, x^1, ... in p, as Q(t) domain elements; with
    n, exactly those of x^0, ..., x^(n-1)."""
    c = p.rep.to_list()[::-1]
    if n is None:
        return c
    return c[:n] + [COEFF_FIELD.zero] * (n - len(c))


def from_low_coeffs(coeffs, den: Poly) -> RatFunc:
    """(c_0 + c_1 x + ...) / den for Q(t) domain elements c_k and a Poly den
    in x over Q(t): numerator and denominator are cleared once, by the lcm
    of all their coefficients' denominators, into Q[t, x]."""
    dens = low_coeffs(den)
    lcm = _T_RING.one
    for c in (*coeffs, *dens):
        lcm = lcm.lcm(c.denom)

    def lift(cs):
        return _TX_RING.from_dict({
            (i, k): v
            for k, c in enumerate(cs)
            for (i,), v in (c.numer * lcm.exquo(c.denom)).terms()
        })

    return RatFunc(FIELD.field.new(lift(coeffs), lift(dens)))


def residue_at(a, f: Poly) -> Poly:
    """Residue element of a at the monic squarefree factor f of its
    denominator, as an element of Q(t)[x]/(f): (num · den′⁻¹) mod f, whose
    value at each root of f is the residue of a there (Bronstein, Symbolic
    Integration I, the Rothstein-Trager residue).  Zero when f does not
    divide the denominator; f must not divide it twice."""
    num, den = _coerce(a).monic_pair()
    if not den.rem(f).is_zero:
        return f.zero
    return (num * den.diff().invert(f)).rem(f)


def residues(a) -> list[ResidueData]:
    """Residues of a as one block over the squarefree denominator of its
    Hermite-reduced part, or [] when a has no residues (Rothstein-Trager
    style, no root isolation)."""
    _, _, h = horowitz_reduce(a)
    if h.is_zero:
        return []
    q = h.denominator
    return [ResidueData(pole=q, residue=residue_at(h, q))]


def rational_antiderivative(a):
    """F with d_x(F) = a, or None when no rational antiderivative exists."""
    a = _coerce(a)
    g, polypart, h = horowitz_reduce(a)
    if not h.is_zero:
        return None
    return g + from_low_coeffs(low_coeffs(polypart.integrate()), polypart.one)


def pole_factors(values):
    """Irreducible monic factors over Q(t) of all denominators, each with its
    largest multiplicity.

    Each distinct denominator is factored once over Q[x, t] from its stored
    Q[t, x] form; the factors come in the order of sympy's sorted factor
    list in (x, t), as `sp.factor_list` gives them."""
    out = {}
    for den in dict.fromkeys(ratfunc(v).xt_pair()[1] for v in values):
        if den.degree(1) <= 0:  # free of x, the ring's second generator
            continue
        p = Poly.from_dict({(k, i): c for (i, k), c in den.terms()}, x, t,
                           domain=QQ)
        for fac, e in sorted(p.factor_list()[1], key=_factor_key):
            if fac.degree(x) > 0:
                fp = _in_x(fac)
                out[fp] = max(out.get(fp, 0), e)
    return out


def _factor_key(item):
    """The sort key of sympy's `factor_list` for factors in the same gens."""
    fac, e = item
    rep = fac.rep.to_list()
    return len(rep), e, rep


def _in_x(p: Poly) -> Poly:
    """A Poly in (x, t) over Q as a monic Poly in x over Q(t)."""
    by_k = {}
    for (k, i), c in p.terms():
        by_k.setdefault(k, {})[(i,)] = c
    coeffs = {k: _T_RING.from_dict(d) for k, d in by_k.items()}
    lc = coeffs[max(coeffs)]
    return Poly.from_dict(
        {(k,): COEFF_FIELD.field.new(c, lc) for k, c in coeffs.items()},
        x, domain=COEFF_FIELD,
    )


def _as_rational(c):
    """c in Q(t) as a Fraction, or None when c depends on t."""
    if not (c.numer.is_ground and c.denom.is_ground):
        return None
    q = c.numer.LC / c.denom.LC
    return Fraction(int(q.numerator), int(q.denominator))


def is_log_derivative(a):
    """(m, r) with m the least positive integer such that m*a = d_x(r)/r for
    some r in K, or None when there is no such m.

    Such an m exists exactly when a is proper with a squarefree denominator
    and its residue at every irreducible pole factor f is a t-free rational
    number rho_f; then m is the lcm of their denominators and r is the
    product of the f^(m*rho_f).
    """
    a = _coerce(a)
    factors = pole_factors([a])
    num, den = a.monic_pair()
    if any(e > 1 for e in factors.values()) or num.degree() >= den.degree():
        return None
    rho = {}
    for f in factors:
        res = residue_at(a, f)
        # a residue of positive degree differs between the roots of f
        q = _as_rational(res.rep.LC()) if res.degree() <= 0 else None
        if q is None:
            return None
        rho[f] = q
    m = math.lcm(*(q.denominator for q in rho.values()))
    r = ONE
    for f, q in rho.items():
        r = r * from_low_coeffs(low_coeffs(f), f.one) ** int(m * q)
    return m, r
