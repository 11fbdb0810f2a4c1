"""Monic operators in delta over Q(t): normalization, printing and action."""

import pytest
import sympy as sp

from pdgal3.oreops import DELTA, IDENTITY_OP, OreOp
from pdgal3.ratfunc import RatFunc, d_t, ratfunc, t


class TestNormalization:
    def test_made_monic(self):
        L = OreOp([t, 2])
        assert L.coeffs == (t / 2, 1)
        assert L == OreOp([t / 2, 1])

    def test_trailing_zeros_trimmed(self):
        assert OreOp([0, 1, 0]) == DELTA
        assert OreOp([0, 1, 0]).order == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            OreOp([0, 0])
        with pytest.raises(ValueError):
            OreOp([])

    def test_coefficients_must_be_x_free(self):
        assert OreOp([RatFunc(t), 1]) == OreOp([t, 1])
        with pytest.raises(ValueError):
            OreOp([ratfunc("x"), 1])

    def test_to_string(self):
        assert IDENTITY_OP.to_string() == "1"
        assert DELTA.to_string() == "delta"
        assert OreOp([-2 / t, 0, 1]).to_string() == "-2/t + delta^2"


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
