"""Constancy, telescopers, rank-1 groups, character lattices."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from pdgal3.errors import IncompleteSearchError
from pdgal3.integrability import (
    character_lattice,
    integer_kernel,
    is_constant,
    rank1_group,
    telescoper,
)
from pdgal3.oreops import DELTA, IDENTITY_OP, OreOp
from pdgal3.ratfunc import (
    ZERO,
    RatFunc,
    d_t,
    d_x,
    ratfunc,
    rational_antiderivative,
)
from pdgal3.systems import DiffSystem, gauge
from util import random_invertible

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
    M = gauge(M0, P)
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
    assert sp.simplify(sp.sympify(op.coeffs[0]) + 1 / t) == 0


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
            (ratfunc(sp.sympify(c)) * _dtk(f, k) for k, c in enumerate(op.coeffs)),
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
    assert lat.contains((0, 2, -3))
    assert not lat.contains((1, 0, 0))


def test_character_lattice_dependent_entries():
    lat = character_lattice([R("t/x"), R("2*t/x")])
    assert lat.contains((2, -1))
    assert not lat.contains((1, 0))


def test_character_lattice_trivial_entries():
    lat = character_lattice([R("0"), R("0")])
    assert lat.contains((1, 0)) and lat.contains((0, 1))


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
