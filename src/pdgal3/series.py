"""Truncated power-series fundamental matrices at an ordinary point.

This is the brute-force oracle for the category constructions: solutions are
computed directly from the recurrence (k+1) U_{k+1} = sum_j A_j U_{k-j}, so
identities like "the Kronecker product of two fundamental series solves the
tensor system" can be checked literally.

Every coefficient is kept in common-denominator form: one matrix of Z[t]
numerators over one scalar Z[t] denominator. With L the lcm of the entries'
denominators at x0, the system series is A_k = P_k / L^(k+1) and the
fundamental series is U_k = Q_k / (k! L^k), where

    Q_{k+1} = sum_j k!/(k-j)! P_j Q_{k-j}.

So the recurrence multiplies integer polynomials and takes no gcd. The check
in `satisfies`, like the block, Kronecker and inverse series, brings the
terms of each coefficient to one denominator with one scalar lcm, and then
compares numerators: no entry is ever cancelled. Canonical Q(t) values are
made only when `coeffs` is read, with one cancel per entry.

The oracle imports only `ratfunc` and `systems`, never the linear algebra,
solvers or modules that it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb, lcm

import sympy as sp
from sympy import ZZ

from .ratfunc import COEFF_FIELD, FIELD
from .systems import DiffSystem

_QT = COEFF_FIELD.field.ring
_ZT = _QT.clone(domain=ZZ)
_T = _ZT.gens[0]
_X = FIELD.field.ring.gens[1]
_Z0, _Z1 = _ZT.zero, _ZT.one


# -- Z[t] matrices ----------------------------------------------------------------


def _zeros(n, m):
    return [[_Z0] * m for _ in range(n)]


def _identity(n):
    return [[_Z1 if i == j else _Z0 for j in range(n)] for i in range(n)]


def _scaled(X, s):
    """The matrix s X, for s an integer or a Z[t] polynomial."""
    if s == 1:
        return X
    return [[v * s for v in row] for row in X]


def _dense(p):
    """Coefficient list of a Z[t] polynomial, constant term first."""
    c = [0] * (p.degree() + 1) if p else []
    for (e,), v in p.items():
        c[e] = v
    return c


def _matsum(products):
    """sum of X Y over the (X, Y) pairs given, over Z[t].

    This is where the oracle spends its time: each entry is summed on dense
    coefficient lists of Python integers and made a polynomial once."""
    dense = [([[_dense(v) for v in row] for row in X],
              [[_dense(v) for v in row] for row in Y]) for X, Y in products]
    n, m = len(products[0][0]), len(products[0][1][0])
    out = []
    for i in range(n):
        row = []
        for c in range(m):
            acc = []
            for X, Y in dense:
                for a, Yl in zip(X[i], Y):
                    b = Yl[c]
                    if not a or not b:
                        continue
                    acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
                    for e1, v1 in enumerate(a):
                        if v1:
                            for e, v2 in enumerate(b, e1):
                                acc[e] += v1 * v2
            row.append(_ZT.from_dict({(e,): v for e, v in enumerate(acc) if v}))
        out.append(row)
    return out


def _freeze(X):
    return tuple(tuple(row) for row in X)


def _lcm(polys):
    """The lcm over Z[t] of the distinct polynomials given."""
    return reduce(lambda a, b: a.lcm(b), dict.fromkeys(polys), _Z1)


# -- the system series ------------------------------------------------------------


def _denominators(*polys):
    """The lcm of the denominators of the rational coefficients of polys."""
    return lcm(*(v.denominator for f in polys for v in f.values()))


def _cleared(f, s):
    """The integer terms of s f, for f a polynomial over Q and s an integer
    that clears f's denominators."""
    return {m: v.numerator * (s // v.denominator) for m, v in f.items()}


def _x_coeffs(f, s):
    """{x-exponent: Z[t] coefficient} of s f, for f in Q[t, x]."""
    by_k = {}
    for (i, k), v in _cleared(f, s).items():
        by_k.setdefault(k, {})[(i,)] = v
    return {k: _ZT.from_dict(d) for k, d in by_k.items()}


def _shift(coeffs, p, q, e, N):
    """Coefficients 0..N in y of q^e f(y + p/q), for f = sum coeffs[k] x^k
    with every k <= e; all of them lie in Z[t]."""
    out = []
    for i in range(N + 1):
        acc = _Z0
        for k, v in coeffs.items():
            if k >= i:
                acc += v * (comb(k, i) * p ** (k - i) * q ** (e - k + i))
        out.append(acc)
    return out


def _entry_series(a, p, q, N):
    """(s, d0) with a = sum_k s[k] / d0^(k+1) (x - p/q)^k through order N.

    Read from the entry's Q[t, x] numerator and denominator, cleared to
    Z[t, x]; d0 is the denominator's value at x0 = p/q."""
    num, den = a.xt_pair()
    s = _denominators(num, den)
    nk, dk = _x_coeffs(num, s), _x_coeffs(den, s)
    e = max(max(nk), max(dk))
    nc = _shift(nk, p, q, e, N)
    dc = _shift(dk, p, q, e, N)
    d0 = dc[0]
    if not d0:
        raise ValueError(f"x0 = {sp.Rational(p, q)} is a pole")
    d0pow = [_Z1]
    for _ in range(N):
        d0pow.append(d0pow[-1] * d0)
    # den a = num, coefficient k: s_k = nc_k d0^k - sum_j dc_j s_{k-j} d0^(j-1)
    s = []
    for k in range(N + 1):
        acc = nc[k] * d0pow[k]
        for j in range(1, k + 1):
            if dc[j] and s[k - j]:
                acc -= dc[j] * s[k - j] * d0pow[j - 1]
        s.append(acc)
    return s, d0


def _system_series(M: DiffSystem, x0, N):
    """(P, L): the Taylor coefficients of the system matrix at x0 are
    P[k] / L^(k+1), for k = 0..N, with P[k] a matrix over Z[t]."""
    x0 = sp.Rational(x0)
    p, q = int(x0.p), int(x0.q)
    n = M.dim
    ent, memo = {}, {}  # prolongations repeat the entries of A
    for i in range(n):
        for j in range(n):
            a = M.A[i][j]
            if a:
                if a not in memo:
                    memo[a] = _entry_series(a, p, q, N)
                ent[i, j] = memo[a]
    L = _lcm(d0 for _, d0 in ent.values())
    P = [_zeros(n, n) for _ in range(N + 1)]
    for (i, j), (s, d0) in ent.items():
        m = L.exquo(d0)
        mk = m
        for k in range(N + 1):
            P[k][i][j] = s[k] * mk
            mk *= m
    return P, L


# -- series matrices --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeriesMatrix:
    """Truncated matrix series U = sum_k U_k (x-x0)^k, U_k = nums[k] / dens[k].

    nums[k] is a matrix (tuple of tuples) over Z[t]; dens[k] is one nonzero
    Z[t] polynomial, shared by the whole coefficient matrix."""

    x0: sp.Rational
    nums: tuple
    dens: tuple

    @property
    def order(self):
        return len(self.dens) - 1

    @property
    def dim(self):
        return len(self.nums[0])

    @cached_property
    def coeffs(self):
        """The coefficient matrices as canonical Q(t) elements."""
        new = COEFF_FIELD.field.new
        out = []
        for Q, D in zip(self.nums, self.dens):
            d = D.set_ring(_QT)
            out.append(tuple(tuple(new(v.set_ring(_QT), d) for v in row)
                             for row in Q))
        return tuple(out)

    def coeff_exprs(self, k):
        """Coefficient matrix k as sympy expressions."""
        return [[COEFF_FIELD.to_sympy(v) for v in row] for row in self.coeffs[k]]

    @classmethod
    def from_coeffs(cls, x0, coeffs):
        """The series with the given coefficient matrices of Q(t) elements."""
        nums, dens = [], []
        for C in coeffs:
            pairs = []
            for row in C:
                out = []
                for v in row:
                    s = _denominators(v.numer, v.denom)
                    out.append(tuple(_ZT.from_dict(_cleared(f, s))
                                     for f in (v.numer, v.denom)))
                pairs.append(out)
            D = _lcm(b for row in pairs for _, b in row)
            nums.append(_freeze([[a * D.exquo(b) for a, b in row] for row in pairs]))
            dens.append(D)
        return cls(x0=sp.Rational(x0), nums=tuple(nums), dens=tuple(dens))


def ordinary_point(M: DiffSystem) -> sp.Rational:
    """Smallest non-negative integer that is a pole of no entry."""
    dens = [v.xt_pair()[1] for row in M.A for v in row]
    c = 0
    while any(not d.subs(_X, c) for d in dens):
        c += 1
    return sp.Integer(c)


def fundamental_series(M: DiffSystem, x0=None, N=8) -> SeriesMatrix:
    """The unique truncated U with U(x0) = I and dU/dx = A U through x^N."""
    if x0 is None:
        x0 = ordinary_point(M)
    x0 = sp.Rational(x0)
    P, L = _system_series(M, x0, N)
    n = M.dim
    Q, D = [_identity(n)], [_Z1]
    for k in range(N):
        products = []
        f = 1  # k! / (k-j)!
        for j in range(k + 1):
            products.append((_scaled(P[j], f), Q[k - j]))
            f *= k - j
        Q.append(_matsum(products))
        D.append(D[-1] * ((k + 1) * L))
    return SeriesMatrix(x0=x0, nums=tuple(map(_freeze, Q)), dens=tuple(D))


def delta_series(U: SeriesMatrix) -> SeriesMatrix:
    """Termwise d/dt of the coefficients (no longer I at x0 in general)."""
    nums, dens = [], []
    for Q, D in zip(U.nums, U.dens):
        # d/dt (Q/D) = (Q' D/g - Q D'/g) / (D D/g), g = gcd(D, D')
        dD = D.diff(_T)
        g = D.gcd(dD)
        a, b = D.exquo(g), dD.exquo(g)
        nums.append(_freeze([[v.diff(_T) * a - v * b for v in row] for row in Q]))
        dens.append(D * a)
    return SeriesMatrix(x0=U.x0, nums=tuple(nums), dens=tuple(dens))


# -- oracle-side series algebra -------------------------------------------------


def _aligned(*series):
    x0 = series[0].x0
    N = min(s.order for s in series)
    if any(s.x0 != x0 for s in series):
        raise ValueError("series expanded at different points")
    return x0, N


def series_kron(U: SeriesMatrix, V: SeriesMatrix) -> SeriesMatrix:
    x0, N = _aligned(U, V)
    p, q = U.dim, V.dim
    nums, dens = [], []
    for k in range(N + 1):
        terms = [U.dens[j] * V.dens[k - j] for j in range(k + 1)]
        R = _lcm(terms)
        pairs = [(_scaled(U.nums[j], R.exquo(d)), V.nums[k - j])
                 for j, d in enumerate(terms)]
        nums.append(tuple(
            tuple(sum((A[i1][j1] * B[i2][j2] for A, B in pairs), _Z0)
                  for j1 in range(p) for j2 in range(q))
            for i1 in range(p) for i2 in range(q)))
        dens.append(R)
    return SeriesMatrix(x0=x0, nums=tuple(nums), dens=tuple(dens))


def series_inverse(U: SeriesMatrix) -> SeriesMatrix:
    """Inverse series; requires U(x0) = I (fundamental matrices qualify)."""
    n = U.dim
    if U.nums[0] != _freeze(_scaled(_identity(n), U.dens[0])):
        raise ValueError("series inverse implemented for U(x0) = I only")
    # U(x0) = I, so (U inv)_k = 0 gives inv_k = -sum_{j>=1} U_j inv_{k-j}
    Y, E = [_identity(n)], [_Z1]
    for k in range(1, U.order + 1):
        terms = [U.dens[j] * E[k - j] for j in range(1, k + 1)]
        R = _lcm(terms)
        Y.append(_matsum([(_scaled(U.nums[j], -R.exquo(d)), Y[k - j])
                          for j, d in enumerate(terms, 1)]))
        E.append(R)
    return SeriesMatrix(x0=U.x0, nums=tuple(map(_freeze, Y)), dens=tuple(E))


def series_transpose(U: SeriesMatrix) -> SeriesMatrix:
    nums = tuple(tuple(zip(*Q)) for Q in U.nums)
    return SeriesMatrix(x0=U.x0, nums=nums, dens=U.dens)


def series_block(blocks, x0, N) -> SeriesMatrix:
    """Assemble a block matrix series from a grid of SeriesMatrix/None."""
    dims_r = [next(b for b in row if b is not None).dim for row in blocks]
    dims_c = []
    for j in range(len(blocks[0])):
        dims_c.append(next(row[j] for row in blocks if row[j] is not None).dim)
    present = [b for row in blocks for b in row if b is not None]
    nums, dens = [], []
    for k in range(N + 1):
        R = _lcm(b.dens[k] for b in present)
        M = []
        for bi, row in enumerate(blocks):
            parts = [
                _scaled(blk.nums[k], R.exquo(blk.dens[k])) if blk is not None
                else _zeros(dims_r[bi], dims_c[bj])
                for bj, blk in enumerate(row)
            ]
            M.extend([v for part in rows for v in part] for rows in zip(*parts))
        nums.append(_freeze(M))
        dens.append(R)
    return SeriesMatrix(x0=sp.Rational(x0), nums=tuple(nums), dens=tuple(dens))


def satisfies(M: DiffSystem, U: SeriesMatrix) -> bool:
    """Does dU/dx = A U hold through order U.order - 1?"""
    if M.dim != U.dim:
        raise ValueError("system and series differ in dimension")
    N = U.order
    P, L = _system_series(M, U.x0, N)
    Lpow = [_Z1]
    for _ in range(N + 1):
        Lpow.append(Lpow[-1] * L)
    for k in range(N):
        # A_j U_{k-j} = P_j Q_{k-j} / (L^(j+1) D_{k-j}): sum over one R
        terms = [Lpow[j + 1] * U.dens[k - j] for j in range(k + 1)]
        R = _lcm(terms)
        S = _matsum([(_scaled(P[j], R.exquo(d)), U.nums[k - j])
                     for j, d in enumerate(terms)])
        lhs = _scaled(U.nums[k + 1], (k + 1) * R)
        D = U.dens[k + 1]
        # (k+1) Q_{k+1} / D_{k+1} == S / R, cross-multiplied
        for lrow, srow in zip(lhs, S):
            for a, b in zip(lrow, srow):
                if a != D * b:
                    return False
    return True
