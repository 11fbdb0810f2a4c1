"""Monic operators in delta over Q(t): normalization, printing and action."""

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from pdgal3.oreops import DELTA, IDENTITY_OP, OreOp
from pdgal3.ratfunc import COEFF_FIELD, RatFunc, d_t, ratfunc, t


class TestNormalization:
    def test_made_monic(self):
        L = OreOp([t, 2])
        assert L.coeffs == (COEFF_FIELD.from_sympy(t / 2), COEFF_FIELD.one)
        assert L == OreOp([t / 2, 1])

    def test_trailing_zeros_trimmed(self):
        assert OreOp([0, 1, 0]) == DELTA
        assert OreOp([0, 1, 0]).order == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            OreOp([0, 0])
        with pytest.raises(ValueError):
            OreOp([])

    def test_unknown_coefficients_rejected(self):
        # None was once read as 0, so OreOp([None, 1]) == DELTA
        with pytest.raises(TypeError):
            OreOp([None, 1])

    def test_coefficients_must_be_x_free(self):
        assert OreOp([RatFunc(t), 1]) == OreOp([t, 1])
        with pytest.raises(ValueError):
            OreOp([ratfunc("x"), 1])

    def test_to_string(self):
        assert IDENTITY_OP.to_string() == "1"
        assert DELTA.to_string() == "delta"
        assert OreOp([-2 / t, 0, 1]).to_string() == "-2/t + delta^2"


def _old_to_string(coeffs):
    """The printing of sympy-expression coefficients: made monic and
    canonical with `cancel`, printed with `sstr`."""
    cs = [sp.cancel(sp.sympify(c)) for c in coeffs]
    cs = [sp.cancel(c / cs[-1]) for c in cs]
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        mon = "delta" if i == 1 else f"delta^{i}"
        if i == 0:
            parts.append(sp.sstr(c).replace("**", "^"))
        elif c == 1:
            parts.append(mon)
        else:
            parts.append(f"({sp.sstr(c).replace('**', '^')})*{mon}")
    return " + ".join(parts)


_T_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda cs: sum(c * t**k for k, c in enumerate(cs)))
_QT_VALUE = st.tuples(_T_POLY, _T_POLY.filter(lambda p: p != 0)).map(
    lambda nd: nd[0] / nd[1])


@given(st.lists(_QT_VALUE, min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
@settings(max_examples=100, deadline=None)
def test_to_string_matches_expression_printing(coeffs):
    assert OreOp(coeffs).to_string() == _old_to_string(coeffs)


class TestApply:
    def test_delta_kills_constants(self):
        assert DELTA.apply(1).is_zero
        assert DELTA.apply(ratfunc("t/x")) == ratfunc("1/x")

    def test_kills_power(self):
        assert OreOp([-2 / t, 1]).apply(ratfunc(t**2)).is_zero

    def test_kills_rational(self):
        r = (t + 1) / (t - 1)
        L = OreOp([sp.cancel(-sp.diff(r, t) / r), 1])
        assert L.apply(ratfunc(r)).is_zero

    def test_x_dependent_argument(self):
        f = ratfunc("t^2/(x-t)")
        assert IDENTITY_OP.apply(f) == f
        assert OreOp([t, 1]).apply(f) == ratfunc(t) * f + d_t(f)
