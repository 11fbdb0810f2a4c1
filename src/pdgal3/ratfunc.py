"""Exact arithmetic in K = Q(t)(x) with the two commuting derivations d_x, d_t.

Elements are kept in a canonical form (reduced fraction with sign-normalized
denominator), so equality of values is equality of representations.  The
x-structure (numerator/denominator as polynomials in x over Q(t), monic
denominator) is exposed for the integration and residue machinery; each
element computes it once, straight from its Q[t, x] numerator and denominator.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import sympy as sp
from sympy import Poly, QQ

from .errors import ExpressionParseError, UnsupportedError

t, x = sp.symbols("t x")

#: the flat field Q(t, x); used as canonical storage
FIELD = QQ.frac_field(t, x)
#: the coefficient field Q(t)
COEFF_FIELD = QQ.frac_field(t)

#: caps on one input expression, and on the x-degree of the witness r that
#: `is_log_derivative` builds, each checked before the work it bounds
MAX_TEXT = 10_000       # characters
MAX_DIGITS = 1_000      # digits of a numeric literal, decimal exponent included
MAX_EXPONENT = 1_000    # |n| in a power
MAX_DEGREE = 64         # total degree in t, x, predicted for each operation
MAX_BITS = 8_192        # coefficient bit length, predicted for each operation
MAX_WORK = 5 * 10**8    # work units of all operations together (see _Parse)
MAX_WITNESS_DEGREE = 2_048  # sum of m * |rho_f| * deg f in is_log_derivative


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
        elif FIELD.of_type(value):
            elem = value
        else:
            raise TypeError(f"not an element of Q(t)(x): {value!r}")
        self._elem = _normalize(elem)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RatFunc":
        """Parse the expression grammar: int and decimal literals, t, x,
        unary + -, binary + - * /, and ^ or ** with an integer exponent.

        The text goes through `ast.parse` and a whitelist of node types, each
        evaluated in FIELD arithmetic; nothing else is accepted and nothing
        is executed.  Every failure, the caps included, is an
        ExpressionParseError."""
        # ASCII keeps the node offsets, counted in UTF-8 bytes, on characters
        if not isinstance(text, str) or not text.isascii():
            raise _reject(text, "not an ASCII string")
        if len(text) > MAX_TEXT:
            raise _reject(text, f"longer than {MAX_TEXT} characters")
        src = text.strip().replace("^", "**")
        try:
            with warnings.catch_warnings():  # raised here, not printed
                warnings.simplefilter("error", SyntaxWarning)
                tree = ast.parse(src, mode="eval")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            raise _reject(text, str(exc) or "nested too deeply") from None
        return cls(_evaluate(tree.body, _Parse(text, src))[0])

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

        Computed on first use and kept: `in_x` of the Q[t, x] numerator and
        denominator, both divided by the denominator's leading coefficient."""
        if self._pair is None:
            lc = _lc_x(self._elem.denom)
            self._pair = tuple(in_x(p, lc) for p in self.xt_pair())
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
#: x as a generator of Q[t, x]
_X = _TX_RING.gens[1]


def _x_coeffs(p):
    """{x-exponent: Q[t] coefficient} of a PolyElement of Q[t, x]."""
    by_k = {}
    for (i, k), c in p.terms():
        by_k.setdefault(k, {})[(i,)] = c
    return {k: _T_RING.from_dict(d) for k, d in by_k.items()}


def _lc_x(p):
    """The leading coefficient in x of p in Q[t, x], as an element of Q[t]."""
    k = p.degree(1)
    return _T_RING.from_dict({(i,): c for (i, j), c in p.terms() if j == k})


def in_x(p, lc=None) -> Poly:
    """p/lc as a Poly in x over Q(t), for p in Q[t, x] and lc in Q[t] (1
    when None): the one way from Q[t, x] to Q(t)[x]; `lift` is the way
    back."""
    qt = COEFF_FIELD.field
    return Poly.from_dict(
        {(k,): qt.field_new(c) if lc is None else qt.new(c, lc)
         for k, c in _x_coeffs(p).items()}, x, domain=COEFF_FIELD)


def lift(cs, m=None):
    """m * (c_0 + c_1 x + ...) in Q[t, x], for Q(t) values c_k whose
    denominators divide m in Q[t]; m is their lcm unless given."""
    if m is None:
        m = functools.reduce(lambda a, b: a.lcm(b), (c.denom for c in cs))
    return _TX_RING.from_dict({
        (i, k): v for k, c in enumerate(cs)
        for (i,), v in (c.numer * m.exquo(c.denom)).terms()})


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


# -- the expression parser ---------------------------------------------------

_FRAC = FIELD.field
_NAMES = {"t": _GEN_T, "x": _GEN_X}
_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul, ast.Div: operator.truediv}


def _reject(text, why) -> ExpressionParseError:
    r = repr(text)
    return ExpressionParseError(
        f"{why} in {r if len(r) <= 60 else r[:57] + '...'}")


def _degree(elem) -> int:
    """Largest total degree in t, x of the numerator and the denominator."""
    return max(sum(m) for p in (elem.numer, elem.denom) for m in p.itermonoms())


def _bits(elem) -> int:
    """Largest bit length of a numerator or denominator of a coefficient."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for p in (elem.numer, elem.denom) for c in p.itercoeffs())


class _Parse:
    """One parse: its text, and the work its operations have been charged.

    An operation costs s * sqrt(s) work units, where s = terms * (bits + 64):
    `terms` counts the terms of the operands (of the result, for a power)
    and `bits` is the predicted coefficient size.  That is about the cost of
    the integer products that a polynomial product or gcd of that size runs
    to.  Sums, products, quotients and powers of dense fractions in t and x
    took at most about 5 s per 10**9 units on a 2-core x86 box, so MAX_WORK
    bounds a whole parse, not only each operation, to a few seconds."""

    def __init__(self, text, src):
        self.text, self.src, self.work = text, src, 0

    def reject(self, why) -> ExpressionParseError:
        return _reject(self.text, why)

    def charge(self, degree, bits, terms):
        """Admit an operation, or raise, before it runs."""
        if degree > MAX_DEGREE:
            raise self.reject(f"degree above {MAX_DEGREE}")
        if bits > MAX_BITS:
            raise self.reject(f"coefficients above {MAX_BITS} bits")
        size = terms * (bits + 64)
        self.work += size * math.isqrt(size)
        if self.work > MAX_WORK:
            raise self.reject(f"work above {MAX_WORK} units")


def _evaluate(node, parse):
    """(value in FIELD, has a decimal literal) of a parsed expression.

    Children first, on an explicit stack: a chain such as 1+1+...+1 nests
    deeper than Python's recursion limit."""
    todo, done = [(node, False)], []
    while todo:
        node, ready = todo.pop()
        if not ready and isinstance(node, ast.BinOp):
            todo += [(node, True), (node.right, False), (node.left, False)]
        elif not ready and isinstance(node, ast.UnaryOp):
            todo += [(node, True), (node.operand, False)]
        else:
            done.append(_node_value(node, done, parse))
    return done[0]


def _node_value(node, done, parse):
    """Value of one whitelisted node, its operands popped from `done`."""
    if isinstance(node, ast.BinOp):
        (b, b_dec), (a, a_dec) = done.pop(), done.pop()
        op = type(node.op)
        if op is ast.Pow:
            if b_dec:
                raise parse.reject("decimal exponent")
            return _power(a, b, parse), a_dec
        if op not in _ARITH:
            raise parse.reject(f"operator {op.__name__} not allowed")
        if op is ast.Div and not b:
            raise parse.reject("division by zero")
        return _binop(op, a, b, parse), a_dec or b_dec
    if isinstance(node, ast.UnaryOp):
        value, dec = done.pop()
        if isinstance(node.op, ast.USub):
            return -value, dec
        if isinstance(node.op, ast.UAdd):
            return value, dec
        raise parse.reject(f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise parse.reject(f"unknown symbol {node.id!r}")
        return _NAMES[node.id], False
    if isinstance(node, ast.Constant):
        return _literal(node, parse)
    raise parse.reject(f"{type(node).__name__} not allowed")


def _literal(node, parse):
    """An int or decimal literal, at its exact value."""
    if type(node.value) not in (int, float):
        raise parse.reject(f"literal {node.value!r} not allowed")
    if node.end_col_offset - node.col_offset > MAX_DIGITS:
        raise parse.reject(f"literal longer than {MAX_DIGITS} digits")
    if type(node.value) is int:
        return _FRAC.raw_new(_TX_RING(node.value)), False
    # the decimal the text spells, not the binary float Python reads
    d = Decimal(ast.get_source_segment(parse.src, node))
    if len(d.as_tuple().digits) + abs(d.as_tuple().exponent) > MAX_DIGITS:
        raise parse.reject(f"literal longer than {MAX_DIGITS} digits")
    q = Fraction(d)
    return _FRAC.raw_new(_TX_RING(QQ(q.numerator, q.denominator))), True


def _binop(op, a, b, parse):
    """a op b in FIELD, once charged.  A value of degree <= MAX_DEGREE has at
    most 2145 < 2**12 terms, so a coefficient of a product, or of the
    numerator a.n*b.d + b.n*a.d of a sum, has at most 13 bits more than the
    two it is built from."""
    da, db = _degree(a), _degree(b)
    poly = a.denom.is_ground and b.denom.is_ground
    parse.charge(max(da, db) if poly and op is not ast.Mult else da + db,
                 _bits(a) + _bits(b) + 13,
                 sum(len(p) for p in (a.numer, a.denom, b.numer, b.denom)))
    return _ARITH[op](a, b)


def _power(base, exp, parse):
    """base ** exp for an integer-valued constant exp, once charged.  A
    polynomial of k terms to the n has at most comb(k + n - 1, n) terms,
    and coefficients of at most n * (bits + log2 k) bits."""
    if not (exp.numer.is_ground and exp.denom.is_ground):
        raise parse.reject("non-constant exponent")
    q = exp.numer.LC / exp.denom.LC
    if q.denominator != 1:
        raise parse.reject("non-integer exponent")
    n = int(q.numerator)
    if abs(n) > MAX_EXPONENT:
        raise parse.reject(f"exponent above {MAX_EXPONENT}")
    if n == 0:
        return _FRAC.one  # 0^0 = 1, as sympy has it
    if n < 0 and not base:
        raise parse.reject("zero to a negative power")
    m, degree = abs(n), _degree(base) * abs(n)
    dense = (degree + 1) * (degree + 2) // 2
    terms = [len(p) for p in (base.numer, base.denom)]
    parse.charge(degree, m * (_bits(base) + max(terms).bit_length()),
                 sum(min(math.comb(k + m - 1, m), dense) for k in terms))
    return base ** n


ZERO = RatFunc(0)
ONE = RatFunc(1)
X = RatFunc(x)
T = RatFunc(t)


def ratfunc(value) -> RatFunc:
    """Coerce ints, Fractions, sympy expressions or strings into RatFunc."""
    if isinstance(value, str):
        return RatFunc.parse(value)
    return _coerce(value)


def to_coeff(v):
    """v as an element of Q(t): a Q(t) domain element, or anything `ratfunc`
    accepts that is free of x; a ValueError when it depends on x."""
    if COEFF_FIELD.of_type(v):
        return v
    r = ratfunc(v)
    if not r.d_x().is_zero:
        raise ValueError(f"{r} is not x-free")
    return COEFF_FIELD.convert_from(r._elem, FIELD)


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
    m = functools.reduce(lambda a, b: a.lcm(b),
                         (c.denom for c in (*coeffs, *dens)))
    return RatFunc(FIELD.field.new(lift(coeffs, m), lift(dens, m)))


def _square(flat) -> list:
    n = math.isqrt(len(flat))
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _over_lcm(pairs):
    """(nums, d) with num/den = nums[i]/d for the i-th (num, den) of `pairs`,
    polynomials of one ring, and d the lcm of the distinct dens."""
    dens = dict.fromkeys(den for _, den in pairs)
    d = functools.reduce(lambda a, b: a.lcm(b), dens)
    co = {den: d.exquo(den) for den in dens}
    return [num * co[den] for num, den in pairs], d


def _qt_matrix(rows):
    """(R, r) with R/r the square matrix `rows` of Q(t) values."""
    nums, r = _over_lcm([(v.numer, v.denom) for row in rows for v in row])
    return _square(nums), r


def residue_matrix(N, d, f: Poly):
    """(R, r): the residue matrix of A = N/d at f, for N a square matrix over
    Q[t, x] and d in Q[t, x], as R/r with R over Q[t] and r in Q[t]; zero
    where f does not divide d.  The package's one residue routine.

    f must be monic and squarefree and divide d at most once (no factor of
    f divides d/f), so that d' is invertible modulo f.  At f = x - p/q, R/r
    is N(p/q)/d'(p/q), homogenized by q^D.  For deg f = k > 1, d' is
    inverted modulo f once, and each residue N_ij/d' mod f is replaced by
    its multiplication matrix on 1, x, ..., x^(k-1) in Q(t)[x]/(f).  So for
    1 x 1 matrices, column 0 of R/r is the residue element: the coefficients
    of (N/d') mod f, whose value at each root of f is the residue there
    (Bronstein, Symbolic Integration I, the Rothstein-Trager residue); the
    residue is one t-free rational c exactly when the column is (c, 0, ...)
    with c in Q."""
    n, k = len(N), f.degree()
    zero = ([[_T_RING.zero] * (n * k) for _ in range(n * k)], _T_RING.one)
    dd = d.diff(_X)
    if k == 1:
        c = low_coeffs(f)[0]
        p, q = -c.numer, c.denom  # f = x - p/q
        D = max(v.degree(1) for v in (d, *itertools.chain(*N)))
        pw, qw = [_T_RING.one], [_T_RING.one]
        for _ in range(D):
            pw.append(pw[-1] * p)
            qw.append(qw[-1] * q)
        w = [a * b for a, b in zip(pw, reversed(qw))]  # p^j * q^(D-j)

        def at_root(v):
            return sum((cj * w[j] for j, cj in _x_coeffs(v).items()),
                       _T_RING.zero)

        if at_root(d):
            return zero
        return [[at_root(v) for v in row] for row in N], at_root(dd)
    if in_x(d).rem(f):
        return zero
    inv = in_x(dd).invert(f)
    powers = [_poly(x**j, x) for j in range(k)]
    rows = [[None] * (n * k) for _ in range(n * k)]
    for i in range(n):
        for j in range(n):
            r = (in_x(N[i][j]) * inv).rem(f)
            for m, xm in enumerate(powers):
                col = low_coeffs((r * xm).rem(f), k)
                for l in range(k):
                    rows[i * k + l][j * k + m] = col[l]
    return _qt_matrix(rows)


def _residue_column(a, f: Poly) -> list:
    """The residue element of a at f, read off a's stored numerator and
    denominator: column 0 of their 1 x 1 `residue_matrix`, as Q(t) values."""
    num, den = a.xt_pair()
    R, r = residue_matrix(((num,),), den, f)
    return [COEFF_FIELD.field.new(row[0], r) for row in R]


def residues(a) -> list[ResidueData]:
    """Residues of a as one block over the squarefree denominator of its
    Hermite-reduced part, or [] when a has no residues (Rothstein-Trager
    style, no root isolation)."""
    _, _, h = horowitz_reduce(a)
    if h.is_zero:
        return []
    q = h.denominator
    col = _residue_column(h, q)
    residue = Poly.from_list(col[::-1], x, domain=COEFF_FIELD)
    return [ResidueData(pole=q, residue=residue)]


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
                f = _TX_RING.from_dict({(i, k): c
                                        for (k, i), c in fac.terms()})
                fp = in_x(f, _lc_x(f))
                out[fp] = max(out.get(fp, 0), e)
    return out


def _factor_key(item):
    """The sort key of sympy's `factor_list` for factors in the same gens."""
    fac, e = item
    rep = fac.rep.to_list()
    return len(rep), e, rep


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
    product of the f^(m*rho_f), f monic in x, built as one fraction with
    no multivariate gcd: the powers with rho_f > 0 over those with
    rho_f < 0, each f as its primitive lift over its leading coefficient in
    Q[t], whose powers alone can cancel.  Raises UnsupportedError, before
    r is multiplied out, when its x-degree, the sum of m*|rho_f|*deg f, is
    above MAX_WITNESS_DEGREE.
    """
    a = _coerce(a)
    factors = pole_factors([a])
    num, den = a.xt_pair()
    if (any(e > 1 for e in factors.values())
            or num.degree(_X) >= den.degree(_X)):
        return None
    rho = {}
    for f in factors:
        c, *rest = _residue_column(a, f)
        # an x-dependent residue element differs between the roots of f
        q = None if any(rest) else _as_rational(c)
        if q is None:
            return None
        rho[f] = q
    m = math.lcm(*(q.denominator for q in rho.values()))
    degree = sum(m * abs(q) * f.degree() for f, q in rho.items())
    if degree > MAX_WITNESS_DEGREE:
        raise UnsupportedError(
            f"log-derivative witness of degree {degree} in x, above "
            f"{MAX_WITNESS_DEGREE}")
    # each f is l/c for its primitive lift l and c = lc_x(l) in Q[t]; the l
    # are distinct irreducibles, so only the powers of the c can cancel
    num = den = _TX_RING.one
    cnum = cden = _T_RING.one
    for f, q in rho.items():
        l, k = lift(low_coeffs(f)), int(m * q)
        if k > 0:
            num, cden = num * l**k, cden * _lc_x(l)**k
        else:
            den, cnum = den * l**-k, cnum * _lc_x(l)**-k
    if cnum != 1 and cden != 1:
        g = cnum.gcd(cden)
        cnum, cden = cnum.exquo(g), cden.exquo(g)
    if cnum != 1:
        num *= cnum.set_ring(_TX_RING)
    if cden != 1:
        den *= cden.set_ring(_TX_RING)
    return m, RatFunc(FIELD.field.raw_new(num, den))
