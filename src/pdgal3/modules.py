"""Submodules, quotients, morphisms and composition factors of differential
systems.

A subspace given by a basis matrix S (independent columns over K) is invariant
for dY/dx = A Y exactly when A*S - dS/dx = S*B for some matrix B over K; B is
then the system induced on the subspace.  A basis P means Y = P*Z, and
`gauge(M, P)` is the system of Z: any completion P = [S | E] gives A block
upper-triangular form with upper-left block B.  Bases compose by products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate

from . import solvers
from .errors import CertificateError, IncompleteSearchError, NonFuchsianError
from .linalg import column_rank, k_nullspace, k_solve_right, pivot_columns
from .ratfunc import ZERO, is_log_derivative, ratfunc
from .solvers import particular_solution, rational_solutions
from .systems import (
    DiffSystem,
    direct_sum,
    dual,
    gauge,
    hom,
    mat,
    mat_d_x,
    mat_identity,
    mat_mul,
    mat_sub,
    unvec,
    vec,
)


# -- facts shared within one analysis --------------------------------------------


class Analysis:
    """Facts about the systems met while analysing one input, keyed on the
    system matrix, so that each is computed once.  One object per analysis
    (a `dispatch` call makes its own), so nothing outlives it.

    Holds the results of `solvers.hyperexponential_classes`, which nothing
    else calls; a NonFuchsianError it raised is kept and raised again."""

    def __init__(self):
        self._classes = {}

    def classes(self, M: DiffSystem, what: str):
        """(classes, complete) of solvers.hyperexponential_classes(M), once
        per matrix, shared (do not modify).  Raises IncompleteSearchError
        naming the search `what` when it found none and was not complete."""
        if M.A not in self._classes:
            try:
                self._classes[M.A] = solvers.hyperexponential_classes(M)
            except NonFuchsianError as exc:
                self._classes[M.A] = exc
        out = self._classes[M.A]
        if isinstance(out, NonFuchsianError):
            raise out.with_traceback(None)
        if not any(out):  # no class, and the search was not complete
            raise IncompleteSearchError(f"{what} not provably complete")
        return out


# -- basis completion ----------------------------------------------------------


def _pivot_basis(S):
    """[S | I_n] restricted to its pivot columns: the independent columns of
    S in order, then the standard vectors completing them; and their indices."""
    n = len(S)
    aug = tuple(tuple(row) + e for row, e in zip(S, mat_identity(n)))
    keep = pivot_columns(aug)
    return tuple(tuple(row[j] for j in keep) for row in aug), keep


def complete_basis(S):
    """An invertible P = [S | standard vectors] extending the columns of S."""
    S = mat(S)
    k = len(S[0])
    P, keep = _pivot_basis(S)
    if keep[:k] != list(range(k)):
        raise ValueError("could not complete basis")
    return P


# -- invariance and sub/quotient --------------------------------------------------


def is_invariant(M: DiffSystem, S):
    """B with A*S - dS/dx = S*B when span(S) is invariant, else None."""
    S = mat(S)
    C = mat_sub(mat_mul(M.A, S), mat_d_x(S))
    return k_solve_right(S, C)


def _lower_left_zero(T, k):
    """Whether the rows from k on of T are zero in the columns before k."""
    return all(v.is_zero for row in T[k:] for v in row[:k])


def sub_quotient(M: DiffSystem, S):
    """(B, N, D, P): gauge(M, P) = [[B, N], [0, D]] for completion P of S.

    Returns None when span(S) is not invariant, i.e. when the lower-left
    block of that gauge is not zero."""
    S = mat(S)
    P = complete_basis(S)
    k = len(S[0])
    T = gauge(M, P).A
    if not _lower_left_zero(T, k):
        return None
    B = tuple(row[:k] for row in T[:k])
    N = tuple(row[k:] for row in T[:k])
    D = tuple(row[k:] for row in T[k:])
    return DiffSystem(B), N, DiffSystem(D), P


def split(B: DiffSystem, N, D: DiffSystem):
    """F over K with dF/dx = B F - F D - N, or None when none exists, so
    that the basis [[I, -F], [0, I]] gauges [[B, N], [0, D]] to diag(B, D).

    Such an F exists iff the extension of D by B with class N splits.
    Raises IncompleteSearchError when the search for F is not complete."""
    # vec(F) column-major: d vecF = hom(D, B) vecF - vecN, where
    # hom(D, B) = I (x) B - D^T (x) I
    sol = particular_solution(hom(D, B), [-v for v in vec(N)],
                              "splitting search")
    return None if sol is None else unvec(sol, B.dim, D.dim)


def split_extension(M: DiffSystem, S):
    """(complement basis | None, B, D) for an invariant S, with B the system
    on span(S) and D the one on the quotient.  The n x (n-k) complement
    basis spans an invariant complement, where the system is D.  Raises
    IncompleteSearchError as `split` does."""
    sq = sub_quotient(M, S)
    if sq is None:
        raise ValueError("split_extension requires an invariant subspace")
    B, N, D, P = sq
    F = split(B, N, D)
    if F is None:
        return None, B, D
    # complement columns: P * [[-F], [I]]
    block = tuple(tuple(-v for v in row) for row in F) + mat_identity(D.dim)
    comp = mat_mul(P, block)
    assert is_invariant(M, comp) == D.A
    return comp, B, D


# -- morphisms ---------------------------------------------------------------------


def morphisms(M1: DiffSystem, M2: DiffSystem):
    """(basis, complete): a basis of the matrices U over K with
    dU/dx = A2 U - U A1, and whether the search for them was complete."""
    space = rational_solutions(hom(M1, M2))
    return [unvec(v, M2.dim, M1.dim) for v in space.basis], space.complete


def rank1_isomorphism(a, b):
    """u in K* with du/dx = (b - a) u, i.e. [[a]] isomorphic to [[b]]."""
    out = is_log_derivative(ratfunc(b) - ratfunc(a))
    return out[1] if out is not None and out[0] == 1 else None


# -- composition factors ------------------------------------------------------------


@dataclass(frozen=True)
class ModuleDiag:
    """Composition-factor data: T = gauge(M, basis) is block upper
    triangular, with diagonal blocks of sizes dims in order, sub first."""

    basis: tuple   # Y = basis * Z
    T: DiffSystem  # gauge(M, basis)
    dims: tuple    # block sizes, summing to M.dim

    @property
    def blocks(self):
        """T's diagonal blocks, as systems."""
        out, start = [], 0
        for d in self.dims:
            out.append(DiffSystem(tuple(
                row[start:start + d] for row in self.T.A[start:start + d])))
            start += d
        return tuple(out)


@dataclass(frozen=True)
class FlagCertificate:
    """An increasing chain of invariant subspaces, each a basis matrix."""

    subspaces: tuple

    def triangularize(self, M: DiffSystem) -> ModuleDiag:
        """M in the basis of pivot columns of [S1 | S2 | ... | I], whose
        first dim(Sj) columns span Sj.  Raises CertificateError unless the
        flag is one: T's zeros below its diagonal blocks show invariance."""
        n = M.dim
        subspaces = [mat(S) for S in self.subspaces]
        if any(len(S) != n for S in subspaces):
            raise CertificateError(f"flag subspaces must have {n} rows")
        dims = [len(S[0]) for S in subspaces]
        if any(a >= b for a, b in zip([0] + dims, dims + [n + 1])):
            raise CertificateError("flag dimensions must strictly increase")
        if any(column_rank(S) != k for S, k in zip(subspaces, dims)):
            raise CertificateError("flag subspace columns must be independent")
        basis, keep = _pivot_basis(
            tuple(tuple(v for S in subspaces for v in S[i]) for i in range(n)))
        # [S1 | ... | Sj] has rank dim(Sj) exactly when S(j-1) lies in Sj
        if [sum(p < e for p in keep) for e in accumulate(dims)] != dims:
            raise CertificateError("flag subspaces are not nested")
        T = gauge(M, basis)
        if not all(_lower_left_zero(T.A, k) for k in dims):
            raise CertificateError("flag subspace is not invariant")
        sizes = [b - a for a, b in zip([0] + dims, dims + [n]) if b > a]
        return ModuleDiag(basis, T, tuple(sizes))


def _line_from_classes(M: DiffSystem, an: Analysis):
    classes, _ = an.classes(M, "composition-factor search")
    if not classes:
        return None
    return min(classes, key=lambda c: c[0].to_string())[1].basis[0]


def _decompose_blocks(M: DiffSystem, an: Analysis):
    """(basis, dims) with gauge(M, basis) block upper triangular with blocks
    of sizes dims, each <= 2 whenever lines/colines exist."""
    n = M.dim
    if n == 1:
        return mat_identity(1), [1]
    v = _line_from_classes(M, an)
    if v is not None:
        S = tuple((val,) for val in v)
        _, _, D, P1 = sub_quotient(M, S)
        Bd, dims_d = _decompose_blocks(D, an)
        Q = direct_sum(DiffSystem(mat_identity(1)), DiffSystem(Bd)).A
        return mat_mul(P1, Q), [1] + dims_d
    if n == 2:
        return mat_identity(2), [2]
    # no invariant line: look for a coline (an invariant plane) via the dual
    w = _line_from_classes(dual(M), an)
    if w is None:
        return mat_identity(n), [n]
    S_cols = k_nullspace([tuple(w)])
    S = tuple(tuple(c[i] for c in S_cols) for i in range(n))
    B, _, D, P1 = sub_quotient(M, S)
    Bb, dims_b = _decompose_blocks(B, an)
    Q = direct_sum(DiffSystem(Bb), DiffSystem(mat_identity(D.dim))).A
    return mat_mul(P1, Q), dims_b + [D.dim]


def diag_decompose(M: DiffSystem, cert: FlagCertificate = None,
                   analysis: Analysis = None) -> ModuleDiag:
    """Composition factors of M (dim <= 3), via hyperexponential lines, or a
    supplied invariant flag for non-Fuchsian systems.  The line search reads
    and fills `analysis`, a fresh Analysis when none is given.  Raises
    IncompleteSearchError where a block is not provably simple."""
    if M.dim > 3:
        raise ValueError("diag_decompose implemented for dim <= 3")
    an = analysis if analysis is not None else Analysis()
    if cert is not None:
        # refine any 2-dim block that still has an invariant line
        return _refine(cert.triangularize(M), an)
    try:
        basis, dims = _decompose_blocks(M, an)
    except NonFuchsianError:
        raise NonFuchsianError(
            "composition-factor search needs simple finite poles; supply a "
            "flag certificate"
        )
    return ModuleDiag(basis, gauge(M, basis), tuple(dims))


def _refine(D: ModuleDiag, an: Analysis) -> ModuleDiag:
    """Split the certificate blocks that do admit invariant lines, raising
    IncompleteSearchError where a block is not provably simple."""
    dims, trans = [], []
    for b in D.blocks:
        try:
            Bb, sub = _decompose_blocks(b, an)
        except NonFuchsianError as exc:
            raise IncompleteSearchError(
                "certificate block not provably simple: it has a pole of "
                "order above 1, where the line search is not complete"
            ) from exc
        dims.extend(sub)
        trans.append(DiffSystem(Bb))
    if len(dims) == len(D.dims):
        return D
    Q = functools.reduce(direct_sum, trans).A
    # gauge(D.T, Q) = gauge(M, D.basis * Q)
    return ModuleDiag(mat_mul(D.basis, Q), gauge(D.T, Q), tuple(dims))


def semisimplify(M: DiffSystem, diag: ModuleDiag = None):
    """(is_semisimple, basis, blocks): when semisimple, gauge(M, basis) is
    the direct sum of the irreducible blocks, else basis and blocks are
    None.  Raises IncompleteSearchError as `split` does."""
    D = diag if diag is not None else diag_decompose(M)
    blocks = D.blocks
    if len(blocks) == 1:
        return True, D.basis, list(blocks)
    # T = [[B, N], [0, R]] with B the first block and R the rest
    n, k = D.T.dim, D.dims[0]
    A = D.T.A
    N = tuple(row[k:] for row in A[:k])
    R = DiffSystem(tuple(row[k:] for row in A[k:]))
    F = split(blocks[0], N, R)
    if F is None:
        return False, None, None
    sub_ok, U2, blocks2 = semisimplify(
        R, ModuleDiag(mat_identity(n - k), R, D.dims[1:])
    )
    if not sub_ok:
        return False, None, None
    # the basis [[I, -F], [0, I]] takes T to diag(B, R), then U2 acts on R
    U = tuple(e + tuple(-v for v in row)
              for e, row in zip(mat_identity(k), mat_mul(F, U2)))
    U += tuple((ZERO,) * k + row for row in U2)
    return True, mat_mul(D.basis, U), [blocks[0]] + blocks2
