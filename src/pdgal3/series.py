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

So the recurrence multiplies integer polynomials and takes no gcd. The
block, Kronecker and inverse series bring the terms of each coefficient to
one denominator with one scalar lcm; no entry is ever cancelled. Canonical
Q(t) values are made only when `coeffs` is read, with one cancel per entry.

`satisfies` takes one denominator for the whole series U_m = Q_m / D_m:
with Delta = lcm(D_0, ..., D_N), W_m = (L^m Delta / D_m) Q_m lies in Z[t],
and multiplying the recurrence at order k by L^(k+1) Delta turns it into

    (k+1) W_{k+1} = sum_{j<=k} P_j W_{k-j},    k < N,

an identity over Z[t] with no denominator, checked with no lcm per order.

Sums of products over Z[t] run on Python integers by Kronecker
substitution (Harvey, J. Symbolic Comput. 2009): p is packed as p(T),
T = 2^B, a ring homomorphism Z[t] -> Z, so a sum of matrix products is
big-integer multiply-adds. B comes from the operands: with
H >= sum_l ||X_il||_1 ||Y_lc||_inf >= ||sum_l X_il Y_lc||_inf, B is the
least with 2H < T. That makes both uses of the packed value exact:

- unpacking: the balanced base-T digits of r(T), each in [-T/2, T/2), are
  the coefficients of r when ||r||_inf <= H < T/2;
- the zero test: if r = lhs - rhs != 0 with both sides bounded by H, then
  ||r||_inf <= 2H <= T - 1, and for d = deg r
  |r(T)| >= T^d - (T - 1)(1 + T + ... + T^(d-1)) = 1, so r(T) != 0.

`satisfies` compares packed values and never unpacks. `_matsum` (for
the fundamental and inverse series), `series_kron` and the Taylor
recurrence of each system entry unpack every entry once; the last bounds H
by running its recurrence on l1 norms. The block and delta series only
scale entries and differentiate, and stay in PolyElement arithmetic.

The oracle imports only `ratfunc` and `systems`, never the linear algebra,
solvers or modules that it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


# -- Z[t] products by Kronecker substitution ----------------------------------------


def _bits(H):
    """The least B >= 1 with 2 H < 2^B."""
    return (2 * H).bit_length() or 1


def _pack(p, B):
    """p(2^B) as one Python integer, for p in Z[t]."""
    return sum(v << B * e for (e,), v in p.items())


def _unpack(n, B):
    """The p in Z[t] with p(2^B) = n and every coefficient in
    [-2^(B-1), 2^(B-1)): the balanced base-2^B digits of n."""
    T = 1 << B
    half, mask = T >> 1, T - 1
    terms, e = {}, 0
    while n:
        c = n & mask
        if c >= half:
            c -= T
        if c:
            terms[(e,)] = c
        n = (n - c) >> B
        e += 1
    return _ZT.from_dict(terms)


def _norm1(p):
    return sum(map(abs, p.values()))


def _row_norm1(X):
    """max over the rows i of X of sum_l ||X_il||_1."""
    return max(sum(map(_norm1, row)) for row in X)


def _norm_inf(Y):
    """The largest absolute coefficient of any entry of Y."""
    return max((abs(v) for row in Y for p in row for v in p.values()), default=0)


def _packed(X, B, s=1):
    """The entries of X packed at t = 2^B, each times the integer s."""
    return [[s * _pack(v, B) for v in row] for row in X]


def _packed_sum(pairs):
    """sum of X Y over pairs of packed matrices: big-integer multiply-adds."""
    n, m = len(pairs[0][0]), len(pairs[0][1][0])
    return [[sum(a * Y[l][c] for X, Y in pairs for l, a in enumerate(X[i]) if a)
             for c in range(m)]
            for i in range(n)]


def _matsum(products):
    """sum of s X Y over the (s, X, Y) given, with s in Z[t] and X, Y
    matrices over Z[t].

    One substitution t = 2^B serves the whole sum, with B from the bound
    H = sum ||s||_1 max_i sum_l ||X_il||_1 max ||Y_lc||_inf on every
    coefficient of the result; each entry is unpacked once."""
    B = _bits(sum(_norm1(s) * _row_norm1(X) * _norm_inf(Y) for s, X, Y in products))
    pairs = [(_packed(X, B, _pack(s, B)), _packed(Y, B)) for s, X, Y in products]
    return [[_unpack(v, B) for v in row] for row in _packed_sum(pairs)]


def _freeze(X):
    return tuple(tuple(row) for row in X)


def _lcm(polys):
    """The lcm over Z[t] of the distinct polynomials given.

    The denominators of a series mostly divide one another, so a division
    test comes before each gcd: a divisor of the lcm so far is skipped, and
    a multiple of it replaces it."""
    out = _Z1
    for p in dict.fromkeys(polys):
        if not p.rem(out):
            out = p
        elif out.rem(p):
            out = out.lcm(p)
    return out


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


def _taylor(a, p, q, N):
    """(nc, dc): coefficients 0..N in y = x - p/q of the entry's numerator
    and denominator, read from Q[t, x] and cleared to Z[t, x]."""
    num, den = a.xt_pair()
    s = _denominators(num, den)
    nk, dk = _x_coeffs(num, s), _x_coeffs(den, s)
    e = max(max(nk), max(dk))
    dc = _shift(dk, p, q, e, N)
    if not dc[0]:
        raise ValueError(f"x0 = {sp.Rational(p, q)} is a pole")
    return _shift(nk, p, q, e, N), dc


def _entry_series(nc, dc, m):
    """P with a = sum_k P[k] / L^(k+1) y^k through the order of nc, for
    the entry a of Taylor data (nc, dc) and L = m d0, d0 = dc[0].

    P[k] = s[k] m^(k+1), where den a = num gives
    s[k] = nc[k] d0^k - sum_{j>=1} dc[j] s[k-j] d0^(j-1). This runs at
    t = 2^B, with B from the same recurrence on l1 norms."""
    nn, dn = list(map(_norm1, nc)), list(map(_norm1, dc))
    h = []  # h[k] >= ||s[k]||_1
    for k, v in enumerate(nn):
        h.append(v * dn[0] ** k
                 + sum(dn[j] * h[k - j] * dn[0] ** (j - 1) for j in range(1, k + 1)))
    mu = _norm1(m)
    B = _bits(max(v * mu ** (k + 1) for k, v in enumerate(h)))
    ncp, dcp = [_pack(v, B) for v in nc], [_pack(v, B) for v in dc]
    d0pow = [1]
    for _ in nc:
        d0pow.append(d0pow[-1] * dcp[0])
    s = []
    for k, v in enumerate(ncp):
        s.append(v * d0pow[k]
                 - sum(dcp[j] * s[k - j] * d0pow[j - 1] for j in range(1, k + 1)))
    mp = _pack(m, B)
    out, mk = [], mp
    for v in s:
        out.append(_unpack(v * mk, B))
        mk *= mp
    return out


def _system_series(M: DiffSystem, x0, N):
    """(P, L): the Taylor coefficients of the system matrix at x0 are
    P[k] / L^(k+1), for k = 0..N, with P[k] a matrix over Z[t]."""
    x0 = sp.Rational(x0)
    p, q = int(x0.p), int(x0.q)
    n = M.dim
    memo = {}  # prolongations repeat the entries of A
    for row in M.A:
        for a in row:
            if a and a not in memo:
                memo[a] = _taylor(a, p, q, N)
    L = _lcm(dc[0] for _, dc in memo.values())
    for a, (nc, dc) in memo.items():
        memo[a] = _entry_series(nc, dc, L.exquo(dc[0]))
    P = [_zeros(n, n) for _ in range(N + 1)]
    for i, row in enumerate(M.A):
        for j, a in enumerate(row):
            if a:
                for k, v in enumerate(memo[a]):
                    P[k][i][j] = v
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
            products.append((_ZT(f), P[j], Q[k - j]))
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
    """U (x) V; coefficient k is sum_j s_j U_j (x) V_{k-j} over one R, with
    each entry bounded by sum_j ||s_j||_1 ||U_j||_1 ||V_{k-j}||_inf."""
    x0, N = _aligned(U, V)
    p, q = U.dim, V.dim
    nums, dens = [], []
    for k in range(N + 1):
        terms = [U.dens[j] * V.dens[k - j] for j in range(k + 1)]
        R = _lcm(terms)
        s = [R.exquo(d) for d in terms]
        B = _bits(sum(_norm1(c) * _row_norm1(U.nums[j]) * _norm_inf(V.nums[k - j])
                      for j, c in enumerate(s)))
        pairs = [(_packed(U.nums[j], B, _pack(c, B)), _packed(V.nums[k - j], B))
                 for j, c in enumerate(s)]
        nums.append(tuple(
            tuple(_unpack(sum(X[i1][j1] * Y[i2][j2] for X, Y in pairs), B)
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
        Y.append(_matsum([(-R.exquo(d), U.nums[j], Y[k - j])
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
    """Does dU/dx = A U hold through order U.order - 1?

    Checked as (k+1) W_{k+1} = sum_j P_j W_{k-j} on packed integers (see the
    module docstring)."""
    if M.dim != U.dim:
        raise ValueError("system and series differ in dimension")
    N = U.order
    P, L = _system_series(M, U.x0, N)
    Delta = _lcm(U.dens)
    # W_m = c_m Q_m with c_m = L^m Delta / D_m in Z[t]
    c, Lm = [], _Z1
    for D in U.dens:
        c.append(Lm * Delta.exquo(D))
        Lm *= L
    # H bounds both sides at every order; Wn[m] >= ||W_m||_inf
    Pn = [_row_norm1(X) for X in P[:N]]
    Wn = [_norm1(a) * _norm_inf(Q) for a, Q in zip(c, U.nums)]
    B = _bits(max((max((k + 1) * Wn[k + 1],
                       sum(Pn[j] * Wn[k - j] for j in range(k + 1)))
                   for k in range(N)), default=0))
    Pp = [_packed(X, B) for X in P[:N]]
    W = [_packed(Q, B, _pack(a, B)) for a, Q in zip(c, U.nums)]
    for k in range(N):
        S = _packed_sum([(Pp[j], W[k - j]) for j in range(k + 1)])
        for wrow, srow in zip(W[k + 1], S):
            for w, v in zip(wrow, srow):
                if (k + 1) * w != v:
                    return False
    return True
