"""Constancy, telescopers, rank-1 groups, character lattices."""

import math
import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from pdgal3.errors import IncompleteSearchError
from pdgal3.integrability import (
    _hnf_rows,
    character_lattice,
    integer_kernel,
    is_constant,
    rank1_group,
    telescoper,
)
from pdgal3.oreops import DELTA, IDENTITY_OP, OreOp
from pdgal3.ratfunc import (
    COEFF_FIELD,
    FIELD,
    ZERO,
    RatFunc,
    d_t,
    d_x,
    horowitz_reduce,
    is_log_derivative,
    pole_factors,
    ratfunc,
    rational_antiderivative,
)
from pdgal3.systems import DiffSystem, gauge, mat_inv
from util import random_invertible, residue_at

t, x = sp.symbols("t x")


def R(s):
    return RatFunc.parse(s)


# -- constancy ------------------------------------------------------------------------


def test_constant_t_free():
    M = DiffSystem([["1/x", "1"], ["0", "0"]])
    w = is_constant(M)
    assert w is not None and w.verify(M)
    assert all(v.is_zero for row in w.B for v in row)


def test_constant_gauge_of_t_free():
    rng = random.Random(7)
    M0 = DiffSystem([["1/x", "1/(x-1)"], ["0", "2/x"]])
    P = random_invertible(rng, 2)
    M = gauge(M0, mat_inv(P))
    w = is_constant(M)
    assert w is not None and w.verify(M)


def test_non_constant_rank1():
    assert is_constant(DiffSystem([["t/x"]])) is None


def test_non_constant_2dim():
    assert is_constant(DiffSystem([["t/x", "0"], ["0", "0"]])) is None


def test_witness_identity_is_checked():
    M = DiffSystem([["t*x"]])  # polynomial entry: solver may be incomplete
    try:
        is_constant(M)
    except IncompleteSearchError:
        pass


# -- telescoper -----------------------------------------------------------------------


def test_telescoper_values():
    assert telescoper(R("1/x")) == DELTA
    assert telescoper(R("1/(x-t)")) == DELTA
    assert telescoper(R("1/x + 1/(x-t)")) == DELTA
    op = telescoper(R("t/(x-t)"))
    assert op.order == 1
    # L = delta - 1/t
    assert sp.simplify(COEFF_FIELD.to_sympy(op.coeffs[0]) + 1 / t) == 0


def test_telescoper_no_residues_is_identity():
    assert telescoper(R("1/x**2")) == IDENTITY_OP
    assert telescoper(R("x + 3")) == IDENTITY_OP


def test_telescoper_joint_order_two():
    # residues t at x and 1 at x-1: the joint minimal annihilator of (t, 1)
    L = telescoper(R("t/x + 1/(x-1)"))
    assert L == OreOp([0, 0, 1])
    assert L.apply(ratfunc(t)).is_zero and L.apply(ratfunc(1)).is_zero


def test_telescoper_output_certifies():
    """L(f) must have a rational antiderivative in x."""
    for s in ["1/x", "1/(x-t)", "t/(x-t)", "1/x + 1/(x-t)"]:
        f = R(s)
        op = telescoper(f)
        total = sum(
            (RatFunc(FIELD.convert_from(c, COEFF_FIELD)) * _dtk(f, k)
             for k, c in enumerate(op.coeffs)),
            RatFunc(0),
        )
        assert rational_antiderivative(total) is not None, s


def _dtk(f, k):
    out = f
    for _ in range(k):
        out = d_t(out)
    return out


def test_rank1_group_exact_order_five():
    """sum_{i=1..5} 1/((t-i)(x-i)): the telescoper of its t-derivative has
    order 5, the degree of the pole block, and certifies itself."""
    a5 = R(" + ".join(f"1/((t-{i})*(x-{i}))" for i in range(1, 6)))
    g = rank1_group(a5)
    assert g.family == "rank1-delta" and g.flags == ()
    L = g.data["op"]
    assert L.order == 5
    assert rational_antiderivative(L.apply(d_t(a5))) is not None


#: irreducible pole factors over Q(t), with their degrees in x
_POLES = [(x, 1), (x - 1, 1), (x - t, 1), (x**2 - t, 2)]
_QT = st.sampled_from([sp.S.Zero, sp.S.One, sp.S(-2), t, 1 / t, 1 / (t + 1)])


@st.composite
def _residue_sums(draw):
    """(f, deg q): residues drawn at poles from _POLES, perhaps with an
    exact part and a polynomial part that carry no residue."""
    f, deg_q = ZERO, 0
    for p, d in draw(st.lists(st.sampled_from(_POLES), min_size=1,
                              max_size=4, unique=True)):
        r = sum(draw(_QT) * x**k for k in range(d))
        if r != 0:
            f = f + RatFunc(r / p)
            deg_q += d
    if draw(st.booleans()):
        f = f + R("t/(x-2)^2 + x")
    return f, deg_q


@given(_residue_sums())
@settings(max_examples=25, deadline=None)
def test_telescoper_exact_order_property(case):
    """The telescoper always exists, its order is at most deg q, and L(f)
    has a rational antiderivative."""
    f, deg_q = case
    L = telescoper(f)
    assert L is not None and L.order <= deg_q
    assert rational_antiderivative(L.apply(f)) is not None


# -- rank-1 groups ---------------------------------------------------------------------


def test_rank1_group_finite():
    g = rank1_group(R("1/x"))
    assert g.family == "finite-cyclic" and g.data["order"] == 1
    g2 = rank1_group(R("1/(2*x)"))
    assert g2.family == "finite-cyclic" and g2.data["order"] == 2


def test_rank1_group_order_above_64():
    g = rank1_group(R("1/(65*x)"))
    assert g.family == "finite-cyclic"
    assert g.data == {"order": 65, "witness": R("x")}


def test_rank1_group_delta():
    g = rank1_group(R("t/x"))
    assert g.family == "rank1-delta"
    assert g.data["op"] == DELTA
    assert g.member([["5"]])
    assert not g.member([["t"]])


# -- character lattice -------------------------------------------------------------------


def test_character_lattice_example():
    lat = character_lattice([R("t/x"), R("1/x"), R("0")])
    assert lat.generators == ((0, 0, 1), (0, 1, 0))
    for m, r in zip(lat.generators, lat.witnesses):
        total = sum(
            (RatFunc(int(mi)) * a for mi, a in zip(m, [R("t/x"), R("1/x"), R("0")])),
            RatFunc(0),
        )
        assert (total * r - d_x(r)).is_zero


def test_character_lattice_dependent_entries():
    lat = character_lattice([R("t/x"), R("2*t/x")])
    assert lat.generators == ((2, -1),)


def test_character_lattice_trivial_entries():
    lat = character_lattice([R("0"), R("0")])
    assert lat.generators == ((0, 1), (1, 0))


@pytest.mark.parametrize("entry, generators", [
    ("1/x", ((1,),)),
    ("1/(13*x)", ((13,),)),
    ("t/x", ()),
    ("x", ()),
])
def test_character_lattice_one_entry(entry, generators):
    lat = character_lattice([R(entry)])
    assert lat.generators == generators
    assert lat.witnesses == ((R("x"),) if generators else ())


def test_integer_kernel_saturated():
    # kernel of [2 4] over Z is generated by (2, -1)
    gens = integer_kernel([[2, 4]])
    assert any(list(g) in ([2, -1], [-2, 1]) for g in gens)


def _expression_route_generators(entries):
    """Lattice generators by the expression route: Q-linear rows read off
    sympy expressions over their lcm, and a saturated integer kernel by
    unimodular column reduction."""

    def qt_rows(values):
        exprs = [sp.together(sp.sympify(v)) for v in values]
        den = sp.lcm([sp.fraction(e)[1] for e in exprs]) if exprs else sp.S.One
        cols, monos = [], {}
        for e in (sp.expand(sp.cancel(e * den)) for e in exprs):
            p = sp.Poly(e, x, t) if e != 0 else None
            cols.append(dict(zip(p.monoms(), p.coeffs())) if p else {})
            for mon in cols[-1]:
                monos.setdefault(mon, len(monos))
        return [[sp.Rational(c.get(mon, 0)) for c in cols] for mon in monos]

    def t_const(e):
        num, den = sp.fraction(sp.together(sp.cancel(sp.sympify(e))))
        quo = sp.Poly(num, t).div(sp.Poly(den, t))[0]
        return sp.Rational(quo.nth(0)) if quo.degree() >= 0 else sp.S.Zero

    def kernel(rows):
        M = sp.Matrix(rows)
        n = M.cols
        V = sp.eye(n)
        col = 0
        for row in range(M.rows):
            if col >= n:
                break
            while True:
                nz = [j for j in range(col, n) if M[row, j] != 0]
                if not nz:
                    break
                j0 = min(nz, key=lambda j: abs(M[row, j]))
                if j0 != col:
                    M.col_swap(col, j0)
                    V.col_swap(col, j0)
                a = M[row, col]
                others = [j for j in range(col + 1, n) if M[row, j] != 0]
                if not others:
                    col += 1
                    break
                for j in others:
                    q = M[row, j] // a
                    M[:, j] -= q * M[:, col]
                    V[:, j] -= q * V[:, col]
        return [tuple(V[:, j]) for j in range(col, n)]

    n = len(entries)
    reduced = [horowitz_reduce(a) for a in entries]
    qrows = qt_rows([g.expr for g, _, _ in reduced])
    qrows += qt_rows([p.as_expr() for _, p, _ in reduced])
    hs = [h for _, _, h in reduced]
    cong = []
    for f in sorted(pole_factors(hs), key=lambda f: sp.default_sort_key(f.as_expr())):
        consts, rests = [], []
        for h in hs:
            rho = residue_at(h, f)
            c = t_const(rho.nth(0)) if rho.degree() >= 0 else sp.S.Zero
            consts.append(c)
            rests.append(sp.expand(rho.as_expr() - c))
        qrows += qt_rows(rests)
        cong.append(consts)
    s = len(cong)
    big = []
    for r in qrows:
        den = math.lcm(*(v.q for v in r))
        row = [int(v * den) for v in r]
        if any(row):
            big.append(row + [0] * s)
    for i, c in enumerate(cong):
        den = math.lcm(*(sp.Rational(v).q for v in c))
        big.append([int(sp.Rational(v) * den) for v in c]
                   + [-den if k == i else 0 for k in range(s)])
    return _hnf_rows([k[:n] for k in kernel(big or [[0] * (n + s)])])


_LOG_POLES = [x, x - 1, x - t, x**2 - t]
_LOG_COEFFS = st.sampled_from([1, -1, 2, sp.Rational(1, 2), sp.Rational(-2, 3),
                               t, 1 + t])
_EXTRAS = st.sampled_from([0, x, t * x, 3, t, 1 / (x - 2)**2, t / (x - 2)**2])


@st.composite
def _lattice_entry(draw):
    """Σ c·f'/f over some f in _LOG_POLES, plus t-terms, polynomial parts
    or exact parts."""
    e = draw(_EXTRAS)
    for f in draw(st.lists(st.sampled_from(_LOG_POLES), max_size=3, unique=True)):
        e += draw(_LOG_COEFFS) * sp.diff(f, x) / f
    return RatFunc(e)


@given(st.lists(_lattice_entry(), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_character_lattice_matches_expression_route(entries):
    lat = character_lattice(entries)
    assert lat.generators == _expression_route_generators(entries)
    want = []
    for m in lat.generators:
        total = sum((int(mi) * a for mi, a in zip(m, entries)), ZERO)
        want.append(is_log_derivative(total)[1])
    assert lat.witnesses == tuple(want)
