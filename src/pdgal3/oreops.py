"""Monic operators in delta over Q(t) and their action.

An OreOp c_0 + c_1*delta + ... + delta^h is the form in which telescopers
and rank-1 delta-groups are reported; delta acts on Q(t)(x) as d/dt.
"""

from __future__ import annotations

import sympy as sp

from .ratfunc import RatFunc, d_t, ratfunc


def _coeff(v) -> sp.Expr:
    """Coerce a coefficient into a canonical element of Q(t)."""
    if isinstance(v, RatFunc):
        return v.coeff_value()
    return sp.cancel(sp.sympify(v))


class OreOp:
    """A monic operator c_0 + c_1*delta + ... + delta^h over Q(t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_coeff(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs or cs[-1] == 0:
            raise ValueError("zero operator is not representable (monic)")
        lc = cs[-1]
        if lc != 1:
            cs = [sp.cancel(c / lc) for c in cs]
        self.coeffs = tuple(cs)

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
            if c == 0:
                continue
            mon = "1" if i == 0 else ("delta" if i == 1 else f"delta^{i}")
            if i == 0:
                parts.append(sp.sstr(c).replace("**", "^"))
            elif c == 1:
                parts.append(mon)
            else:
                parts.append(f"({sp.sstr(c).replace('**', '^')})*{mon}")
        return " + ".join(parts) if parts else "0"

    # -- action ---------------------------------------------------------------

    def apply(self, f):
        """L(f) for f in Q(t)(x); delta acts as d/dt."""
        f = ratfunc(f)
        out = ratfunc(0)
        cur = f
        for c in self.coeffs:
            out = out + RatFunc(c) * cur
            cur = d_t(cur)
        return out


IDENTITY_OP = OreOp([1])
DELTA = OreOp([0, 1])
