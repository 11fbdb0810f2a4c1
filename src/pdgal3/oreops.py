"""Monic operators in delta over Q(t) and their action.

An OreOp c_0 + c_1*delta + ... + delta^h is the form in which telescopers
and rank-1 delta-groups are reported; delta acts on Q(t)(x) as d/dt.  The
coefficients are Q(t) domain elements.
"""

from __future__ import annotations

import sympy as sp

from .ratfunc import COEFF_FIELD, FIELD, RatFunc, d_t, ratfunc, to_coeff


class OreOp:
    """A monic operator c_0 + c_1*delta + ... + delta^h over Q(t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [to_coeff(c) for c in coeffs]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs or not cs[-1]:
            raise ValueError("zero operator is not representable (monic)")
        lc = cs[-1]
        self.coeffs = tuple(c / lc for c in cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, OreOp) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"OreOp({self.to_string()})"

    def to_string(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            s = sp.sstr(COEFF_FIELD.to_sympy(c)).replace("**", "^")
            mon = "delta" if i == 1 else f"delta^{i}"
            if i == 0:
                parts.append(s)
            elif c == 1:
                parts.append(mon)
            else:
                parts.append(f"({s})*{mon}")
        return " + ".join(parts)

    # -- action ---------------------------------------------------------------

    def apply(self, f):
        """L(f) for f in Q(t)(x); delta acts as d/dt."""
        out = ratfunc(0)
        cur = ratfunc(f)
        for c in self.coeffs:
            out = out + RatFunc(FIELD.convert_from(c, COEFF_FIELD)) * cur
            cur = d_t(cur)
        return out


IDENTITY_OP = OreOp([1])
DELTA = OreOp([0, 1])
