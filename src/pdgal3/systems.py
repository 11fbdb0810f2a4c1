"""Differential systems dY/dx = A*Y over Q(t)(x) and the category
constructions on them: direct sum, tensor, dual, Hom, exterior powers,
prolongation, and gauge transformations."""

from __future__ import annotations

from itertools import combinations

from .linalg import mat_inv
from .ratfunc import ONE, ZERO, ratfunc


# -- plain matrix helpers over RatFunc -----------------------------------------


def mat(rows):
    """Coerce a nested list (strings/ints/sympy/RatFunc) into a RatFunc grid."""
    return tuple(tuple(ratfunc(v) for v in row) for row in rows)


def mat_identity(n):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_sub(A, B):
    return tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_neg(A):
    return tuple(tuple(-a for a in row) for row in A)


def mat_mul(A, B):
    n = len(B)
    return tuple(
        tuple(
            sum((ra[k] * B[k][j] for k in range(n)), ZERO)
            for j in range(len(B[0]))
        )
        for ra in A
    )


def mat_transpose(A):
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_d_x(A):
    return tuple(tuple(a.d_x() for a in row) for row in A)


def mat_d_t(A):
    return tuple(tuple(a.d_t() for a in row) for row in A)


def mat_eq(A, B):
    return len(A) == len(B) and all(
        ra == rb for ra, rb in zip(A, B)
    )


def vec(U):
    """Column-stacked vector of a matrix (column-major)."""
    m, n = len(U), len(U[0])
    return tuple(U[i][j] for j in range(n) for i in range(m))


def unvec(v, m, n):
    return tuple(tuple(v[j * m + i] for j in range(n)) for i in range(m))


# -- differential systems ------------------------------------------------------


class DiffSystem:
    """An n x n matrix A over Q(t)(x), read as the system dY/dx = A*Y."""

    __slots__ = ("A",)

    def __init__(self, rows):
        A = mat(rows)
        if any(len(row) != len(A) for row in A):
            raise ValueError("system matrix must be square")
        self.A = A

    @property
    def dim(self) -> int:
        return len(self.A)

    def __eq__(self, other):
        return isinstance(other, DiffSystem) and mat_eq(self.A, other.A)

    def __hash__(self):
        return hash(self.A)

    def __repr__(self):
        rows = "; ".join(
            ", ".join(v.to_string() for v in row) for row in self.A
        )
        return f"DiffSystem[{rows}]"

    def to_strings(self):
        return [[v.to_string() for v in row] for row in self.A]


def direct_sum(M1: DiffSystem, M2: DiffSystem) -> DiffSystem:
    n1, n2 = M1.dim, M2.dim
    rows = [
        list(M1.A[i]) + [ZERO] * n2 for i in range(n1)
    ] + [
        [ZERO] * n1 + list(M2.A[i]) for i in range(n2)
    ]
    return DiffSystem(rows)


def tensor(M1: DiffSystem, M2: DiffSystem) -> DiffSystem:
    """kron(A, I) + kron(I, B), row and column index i1*dim(M2) + i2, written
    entry by entry: A[i1][j1] where i2 = j2, B[i2][j2] where i1 = j1, their
    sum where both hold, ZERO elsewhere.  No product is taken."""
    A, B = M1.A, M2.A
    n1, n2 = M1.dim, M2.dim

    def entry(i1, i2, j1, j2):
        if i1 == j1:
            return A[i1][i1] + B[i2][i2] if i2 == j2 else B[i2][j2]
        return A[i1][j1] if i2 == j2 else ZERO

    return DiffSystem([[entry(i1, i2, j1, j2)
                        for j1 in range(n1) for j2 in range(n2)]
                       for i1 in range(n1) for i2 in range(n2)])


def dual(M: DiffSystem) -> DiffSystem:
    return DiffSystem(mat_neg(mat_transpose(M.A)))


def hom(M1: DiffSystem, M2: DiffSystem) -> DiffSystem:
    """Hom(M1, M2) = dual(M1) (x) M2; solutions are the morphisms M1 -> M2."""
    return tensor(dual(M1), M2)


def wedge(M: DiffSystem, k: int) -> DiffSystem:
    """k-th exterior power: the k-th additive compound matrix."""
    n = M.dim
    if not 1 <= k <= n:
        raise ValueError(f"wedge power {k} out of range for dim {n}")
    idx = list(combinations(range(n), k))
    A = M.A
    rows = []
    for I in idx:
        row = []
        for J in idx:
            if I == J:
                row.append(sum((A[i][i] for i in I), ZERO))
                continue
            dI = [i for i in I if i not in J]
            dJ = [j for j in J if j not in I]
            if len(dI) != 1:
                row.append(ZERO)
                continue
            i, j = dI[0], dJ[0]
            sign = (-1) ** (I.index(i) + J.index(j))
            row.append(A[i][j] if sign == 1 else -A[i][j])
        rows.append(row)
    return DiffSystem(rows)


def prolong(M: DiffSystem) -> DiffSystem:
    """First prolongation: the block system [[A, dA/dt], [0, A]]."""
    n = M.dim
    dA = mat_d_t(M.A)
    rows = [
        list(M.A[i]) + list(dA[i]) for i in range(n)
    ] + [
        [ZERO] * n + list(M.A[i]) for i in range(n)
    ]
    return DiffSystem(rows)


def gauge(M: DiffSystem, B) -> DiffSystem:
    """Basis change Y = B*Z: the system dZ/dx = B^{-1} (A B - dB/dx) Z.
    Gauging by B and then by C is gauging by B*C."""
    B = mat(B)
    return DiffSystem(mat_mul(mat_inv(B), mat_sub(mat_mul(M.A, B), mat_d_x(B))))
