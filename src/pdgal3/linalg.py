"""Exact linear algebra over Q(t) and K = Q(t)(x): the package's one
elimination path.

Every solve, inverse, kernel, rank and basis completion is read off one
reduced row echelon form, computed by sympy's DomainMatrix rref (sparse
Gauss-Jordan over the field).  The Q(t) entry points take and return Q(t)
domain elements (ints are converted); the K entry points take and return
RatFunc values.  They differ only in the conversion at the boundary.
"""

from __future__ import annotations

from sympy.polys.matrices import DomainMatrix

from .ratfunc import COEFF_FIELD, FIELD, ONE, RatFunc, ZERO, ratfunc


def _rref(rows, ncols, domain):
    """(RREF rows as lists of domain elements, pivot column indices)."""
    R, pivots = DomainMatrix(rows, (len(rows), ncols), domain).rref()
    return R.to_list(), list(pivots)


def _kernel(R, pivots, n, domain):
    """The RREF kernel basis over the first n columns: one vector per free
    column, with entries in the domain of R."""
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [domain.zero] * n
        v[f] = domain.one
        for r, p in enumerate(pivots):
            if p < n:
                v[p] = -R[r][f]
        basis.append(v)
    return basis


# -- over Q(t), Q(t) domain elements at the boundary ------------------------------


def solve_affine(A, b):
    """All solutions of A v = b over Q(t).

    A: list of rows of Q(t) domain elements or ints; b: a list of the same.
    Returns (particular, kernel_basis) as Q(t) domain elements; particular
    is None when the system is inconsistent.
    """
    if not A:
        return [], []
    n = len(A[0])
    R, pivots = _rref(
        [[COEFF_FIELD.convert(v) for v in row] + [COEFF_FIELD.convert(c)]
         for row, c in zip(A, b)],
        n + 1, COEFF_FIELD,
    )
    kernel = _kernel(R, pivots, n, COEFF_FIELD)
    if n in pivots:
        return None, kernel
    part = [COEFF_FIELD.zero] * n
    for r, p in enumerate(pivots):
        part[p] = R[r][n]
    return part, kernel


def nullspace(A):
    """Kernel basis of A over Q(t), as Q(t) domain elements."""
    if not A or not A[0]:
        return []
    n = len(A[0])
    R, pivots = _rref([[COEFF_FIELD.convert(v) for v in row] for row in A],
                      n, COEFF_FIELD)
    return _kernel(R, pivots, n, COEFF_FIELD)


# -- over K = Q(t)(x), RatFunc values at the boundary ------------------------------


def _k_rref(rows):
    rows = [[ratfunc(v)._elem for v in row] for row in rows]
    return _rref(rows, len(rows[0]), FIELD)


def mat_inv(A):
    """Inverse over Q(t)(x); raises ValueError on a singular matrix."""
    n = len(A)
    R, pivots = _k_rref(
        [list(row) + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(A)]
    )
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(RatFunc(e) for e in row[n:]) for row in R)


def k_solve_right(S, C):
    """B with S*B = C for S with independent columns; None when C is not in
    the column span.  Raises ValueError on rank-deficient S."""
    k = len(S[0])
    R, pivots = _k_rref([list(rs) + list(rc) for rs, rc in zip(S, C)])
    if pivots[:k] != list(range(k)):
        raise ValueError("rank-deficient subspace basis")
    if len(pivots) > k:
        return None
    return tuple(tuple(RatFunc(e) for e in R[j][k:]) for j in range(k))


def k_nullspace(rows):
    """Basis of the right kernel of a matrix over K (columns as vectors)."""
    if not rows:
        return []
    R, pivots = _k_rref(rows)
    return [[RatFunc(e) for e in v]
            for v in _kernel(R, pivots, len(R[0]), FIELD)]


def pivot_columns(A):
    """Indices of the RREF pivot columns of A over K: the columns that are
    not in the span of the columns before them."""
    return _k_rref(A)[1]


def column_rank(S):
    return len(pivot_columns(S))
