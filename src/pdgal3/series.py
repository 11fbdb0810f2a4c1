"""Truncated power-series fundamental matrices at an ordinary point.

This is the brute-force oracle for the category constructions: solutions are
computed directly from the recurrence (k+1) U_{k+1} = sum_j A_j U_{k-j}, with
exact Q(t) coefficients, so identities like "the Kronecker product of two
fundamental series solves the tensor system" can be checked literally.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .ratfunc import COEFF_FIELD, x
from .systems import DiffSystem

_T = COEFF_FIELD.field.gens[0]
_ZERO = COEFF_FIELD.zero
_ONE = COEFF_FIELD.one
_RING = COEFF_FIELD.field.ring


def _taylor(p, x0, N):
    """Coefficients 0..N of p(x + x0) for a Poly in x over Q(t)."""
    c = p.shift(x0).rep.to_list()[::-1]
    return (c + [_ZERO] * (N + 1))[: N + 1]


def _entry_series(a, x0, N):
    """Taylor coefficients of a RatFunc at x = x0 (ordinary), length N+1."""
    num, den = a.monic_pair()
    nc = _taylor(num, x0, N)
    dc = _taylor(den, x0, N)
    if not dc[0]:
        raise ValueError(f"x0 = {x0} is a pole")
    inv0 = _ONE / dc[0]
    inv = [inv0]
    for k in range(1, N + 1):
        acc = _ZERO
        for j in range(1, k + 1):
            acc += dc[j] * inv[k - j]
        inv.append(-inv0 * acc)
    out = []
    for k in range(N + 1):
        acc = _ZERO
        for j in range(k + 1):
            acc += nc[j] * inv[k - j]
        out.append(acc)
    return out


def _mzero(n, m=None):
    m = n if m is None else m
    return [[_ZERO] * m for _ in range(n)]


def _mid(n):
    M = _mzero(n)
    for i in range(n):
        M[i][i] = _ONE
    return M


def _cauchy(X, Y, k):
    """Coefficient k of the product of matrix series X and Y, uncancelled.

    Entry (i, m) is sum_j sum_l X[j][i][l] Y[k-j][l][m], returned as a
    (numerator, denominator) pair over Q[t]. Terms are summed per distinct
    denominator without any gcd; a Q(t) add or multiply cancels every time,
    and that cancellation is where a series product spends its time.
    """
    n, q, m = len(X[0]), len(Y[0]), len(Y[0][0])
    out = []
    for i in range(n):
        row = []
        for c in range(m):
            by_den = {}
            for j in range(k + 1):
                Xi, Yj = X[j][i], Y[k - j]
                for l in range(q):
                    a, b = Xi[l], Yj[l][c]
                    if not a or not b:
                        continue
                    d = a.denom * b.denom
                    prev = by_den.get(d)
                    nn = a.numer * b.numer
                    by_den[d] = nn if prev is None else prev + nn
            num, den = _RING.zero, _RING.one
            for d, nn in by_den.items():
                g = den.gcd(d)
                dg = d.exquo(g)
                num, den = num * dg + nn * den.exquo(g), den * dg
            row.append((num, den))
        out.append(row)
    return out


def _normal(pair, scale=1):
    """The Q(t) element num / (scale * den) of an uncancelled pair."""
    num, den = pair
    return COEFF_FIELD.field.new(num, den * scale)


@dataclass(frozen=True)
class SeriesMatrix:
    """Truncated fundamental matrix: U = sum coeffs[k] (x-x0)^k, U(x0)=I."""

    x0: sp.Rational
    order: int
    coeffs: tuple  # tuple of matrices (tuples of tuples of Q(t) elements)

    @property
    def dim(self):
        return len(self.coeffs[0])

    def coeff_exprs(self, k):
        """Coefficient matrix k as sympy expressions."""
        return [[COEFF_FIELD.to_sympy(v) for v in row] for row in self.coeffs[k]]


def _freeze(coeffs):
    return tuple(tuple(tuple(row) for row in M) for M in coeffs)


def ordinary_point(M: DiffSystem) -> sp.Rational:
    """Smallest non-negative integer that is a pole of no entry."""
    c = 0
    while True:
        ok = True
        for row in M.A:
            for v in row:
                den = v.denominator
                if sp.cancel(den.as_expr().subs(x, c)) == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return sp.Integer(c)
        c += 1


def system_series(M: DiffSystem, x0, N):
    """Taylor coefficients of the system matrix, as Q(t)-matrices."""
    n = M.dim
    ent = [[_entry_series(M.A[i][j], x0, N) for j in range(n)] for i in range(n)]
    return [
        [[ent[i][j][k] for j in range(n)] for i in range(n)]
        for k in range(N + 1)
    ]


def fundamental_series(M: DiffSystem, x0=None, N=8) -> SeriesMatrix:
    """The unique truncated U with U(x0) = I and dU/dx = A U through x^N."""
    if x0 is None:
        x0 = ordinary_point(M)
    x0 = sp.Rational(x0)
    A = system_series(M, x0, N)
    n = M.dim
    U = [_mid(n)]
    for k in range(N):
        acc = _cauchy(A, U, k)
        U.append([[_normal(v, k + 1) for v in row] for row in acc])
    return SeriesMatrix(x0=x0, order=N, coeffs=_freeze(U))


def delta_series(U: SeriesMatrix) -> SeriesMatrix:
    """Termwise d/dt of the coefficients (no longer I at x0 in general)."""
    out = [
        [[v.diff(_T) for v in row] for row in M] for M in U.coeffs
    ]
    return SeriesMatrix(x0=U.x0, order=U.order, coeffs=_freeze(out))


# -- oracle-side series algebra -------------------------------------------------


def _aligned(*series):
    x0 = series[0].x0
    N = min(s.order for s in series)
    if any(s.x0 != x0 for s in series):
        raise ValueError("series expanded at different points")
    return x0, N


def series_mul(U: SeriesMatrix, V: SeriesMatrix) -> SeriesMatrix:
    x0, N = _aligned(U, V)
    out = [
        [[_normal(v) for v in row] for row in _cauchy(U.coeffs, V.coeffs, k)]
        for k in range(N + 1)
    ]
    return SeriesMatrix(x0=x0, order=N, coeffs=_freeze(out))


def series_kron(U: SeriesMatrix, V: SeriesMatrix) -> SeriesMatrix:
    x0, N = _aligned(U, V)
    p, q = U.dim, V.dim
    out = []
    for k in range(N + 1):
        acc = _mzero(p * q)
        for j in range(k + 1):
            A, B = U.coeffs[j], V.coeffs[k - j]
            for i1 in range(p):
                for i2 in range(q):
                    row = acc[i1 * q + i2]
                    for j1 in range(p):
                        a = A[i1][j1]
                        if not a:
                            continue
                        for j2 in range(q):
                            row[j1 * q + j2] += a * B[i2][j2]
        out.append(acc)
    return SeriesMatrix(x0=x0, order=N, coeffs=_freeze(out))


def series_inverse(U: SeriesMatrix) -> SeriesMatrix:
    """Inverse series; requires U(x0) = I (fundamental matrices qualify)."""
    n = U.dim
    if U.coeffs[0] != tuple(tuple(r) for r in _mid(n)):
        raise ValueError("series inverse implemented for U(x0) = I only")
    # U(x0) = I, so (U inv)_k = 0 gives inv_k = -sum_{j>=1} U_j inv_{k-j}
    inv = [_mid(n)]
    for k in range(1, U.order + 1):
        acc = _cauchy(U.coeffs[1:], inv, k - 1)
        inv.append([[-_normal(v) for v in row] for row in acc])
    return SeriesMatrix(x0=U.x0, order=U.order, coeffs=_freeze(inv))


def series_transpose(U: SeriesMatrix) -> SeriesMatrix:
    out = [
        [[M[i][j] for i in range(len(M))] for j in range(len(M[0]))]
        for M in U.coeffs
    ]
    return SeriesMatrix(x0=U.x0, order=U.order, coeffs=_freeze(out))


def series_block(blocks, x0, N) -> SeriesMatrix:
    """Assemble a block matrix series from a grid of SeriesMatrix/None."""
    dims_r = [next(b for b in row if b is not None).dim for row in blocks]
    dims_c = []
    for j in range(len(blocks[0])):
        dims_c.append(next(row[j] for row in blocks if row[j] is not None).dim)
    total_r = sum(dims_r)
    total_c = sum(dims_c)
    out = []
    for k in range(N + 1):
        M = _mzero(total_r, total_c)
        r0 = 0
        for bi, row in enumerate(blocks):
            c0 = 0
            for bj, blk in enumerate(row):
                if blk is not None:
                    C = blk.coeffs[k]
                    for i in range(dims_r[bi]):
                        for j in range(dims_c[bj]):
                            M[r0 + i][c0 + j] = C[i][j]
                c0 += dims_c[bj]
            r0 += dims_r[bi]
        out.append(M)
    return SeriesMatrix(x0=x0, order=N, coeffs=_freeze(out))


def satisfies(M: DiffSystem, U: SeriesMatrix) -> bool:
    """Does dU/dx = A U hold through order U.order - 1?"""
    N = U.order
    A = system_series(M, U.x0, N)
    for k in range(N):
        acc = _cauchy(A, U.coeffs, k)
        # (k+1) u == num/den, cross-multiplied: no cancellation needed
        for i in range(M.dim):
            for j in range(U.dim):
                u = U.coeffs[k + 1][i][j]
                num, den = acc[i][j]
                if (k + 1) * u.numer * den != num * u.denom:
                    return False
    return True
