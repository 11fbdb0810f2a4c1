"""Submodules, quotients, morphisms and composition factors of differential
systems.

A subspace given by a basis matrix S (independent columns over K) is invariant
for dY/dx = A Y exactly when A*S - dS/dx = S*B for some matrix B over K; B is
then the system induced on the subspace, and gauging by the inverse of any
completion [S | E] puts A in block upper-triangular form with upper-left
block B.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import solvers
from .errors import CertificateError, NonFuchsianError
from .linalg import k_nullspace, k_solve_right, mat_inv, pivot_columns
from .ratfunc import ONE, ZERO, is_log_derivative, ratfunc
from .solvers import SolutionSpace, is_fuchsian, rational_solutions
from .systems import (
    DiffSystem,
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

    Holds the results of `solvers.hyperexponential_classes`; a
    NonFuchsianError it raised is kept and raised again."""

    def __init__(self):
        self._classes = {}

    def hyperexponential_classes(self, M: DiffSystem):
        """solvers.hyperexponential_classes(M), computed once per matrix.
        The result is shared: callers must not modify it."""
        if M.A not in self._classes:
            try:
                self._classes[M.A] = solvers.hyperexponential_classes(M)
            except NonFuchsianError as exc:
                self._classes[M.A] = exc
        out = self._classes[M.A]
        if isinstance(out, NonFuchsianError):
            raise out.with_traceback(None)
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


def sub_quotient(M: DiffSystem, S):
    """(B, N, D, P): gauge(M, P^{-1}) = [[B, N], [0, D]] for completion P of S.

    Returns None when span(S) is not invariant."""
    S = mat(S)
    if is_invariant(M, S) is None:
        return None
    P = complete_basis(S)
    k = len(S[0])
    Mt = gauge(M, mat_inv(P))
    n = M.dim
    B = tuple(tuple(Mt.A[i][j] for j in range(k)) for i in range(k))
    N = tuple(tuple(Mt.A[i][j] for j in range(k, n)) for i in range(k))
    D = tuple(tuple(Mt.A[i][j] for j in range(k, n)) for i in range(k, n))
    for i in range(k, n):
        for j in range(k):
            assert Mt.A[i][j].is_zero
    return DiffSystem(B), N, DiffSystem(D), P


def split_extension(M: DiffSystem, S):
    """(complement basis | None, complete flag) for an invariant S.

    The complement exists iff dF/dx = B F - F D - N has a rational solution;
    the returned n x (n-k) basis spans an invariant complement of span(S)."""
    sq = sub_quotient(M, S)
    if sq is None:
        raise ValueError("split_extension requires an invariant subspace")
    B, N, D, P = sq
    k, q = B.dim, D.dim
    # vec(F) column-major: d vecF = hom(D, B) vecF - vecN, where
    # hom(D, B) = I (x) B - D^T (x) I
    space = rational_solutions(hom(D, B), [-v for v in vec(N)])
    if space.particular is None:
        return None, space.complete
    F = unvec(space.particular, k, q)
    # complement columns: P * [[-F], [I]]
    block = tuple(
        tuple(-F[i][j] for j in range(q)) for i in range(k)
    ) + mat_identity(q)
    comp = mat_mul(P, block)
    assert is_invariant(M, comp) is not None
    return comp, space.complete


# -- morphisms ---------------------------------------------------------------------


def morphisms(M1: DiffSystem, M2: DiffSystem) -> SolutionSpace:
    """Basis of matrices U over K with dU/dx = A2 U - U A1."""
    H = hom(M1, M2)
    space = rational_solutions(H)
    reshape = lambda v: unvec(v, M2.dim, M1.dim)
    return SolutionSpace(
        particular=None,
        basis=[reshape(v) for v in space.basis],
        complete=space.complete,
        notes=space.notes,
    )


def rank1_isomorphism(a, b):
    """u in K* with du/dx = (b - a) u, i.e. [[a]] isomorphic to [[b]]."""
    out = is_log_derivative(ratfunc(b) - ratfunc(a))
    return out[1] if out is not None and out[0] == 1 else None


# -- composition factors ------------------------------------------------------------


@dataclass(frozen=True)
class FlagCertificate:
    """An increasing chain of invariant subspaces, each a basis matrix."""

    subspaces: tuple

    def verify(self, M: DiffSystem) -> "FlagCertificate":
        prev_dim = 0
        prev = None
        for S in self.subspaces:
            S = mat(S)
            k = len(S[0])
            if not (prev_dim < k <= M.dim):
                raise CertificateError("flag dimensions must strictly increase")
            if is_invariant(M, S) is None:
                raise CertificateError("flag subspace is not invariant")
            if prev is not None and k_solve_right(S, prev) is None:
                raise CertificateError("flag subspaces are not nested")
            prev, prev_dim = S, k
        return FlagCertificate(subspaces=tuple(mat(S) for S in self.subspaces))


@dataclass(frozen=True)
class ModuleDiag:
    """Composition-factor data: gauge(M, P) is block upper triangular with
    the listed diagonal blocks (in triangular order)."""

    blocks: tuple  # of DiffSystem, triangular order (sub first)
    P: tuple       # gauge(M, P) block upper triangular


def _line_from_classes(M: DiffSystem, an: Analysis):
    classes, _ = an.hyperexponential_classes(M)
    if not classes:
        return None
    return min(classes, key=lambda c: c[0].to_string())[1].basis[0]


def _decompose_blocks(M: DiffSystem, an: Analysis):
    """(blocks, P) with gauge(M, P) block upper triangular, blocks of dim
    <= 2 whenever lines/colines exist."""
    n = M.dim
    if n == 1:
        return [M], mat_identity(1)
    v = _line_from_classes(M, an)
    if v is not None:
        S = tuple((val,) for val in v)
        B, _, D, P1 = sub_quotient(M, S)
        blocks_d, Pd = _decompose_blocks(D, an)
        # combined: gauge by diag(1, Pd) after gauge by P1^{-1}
        Q = _block_diag(mat_identity(1), Pd)
        return [B] + blocks_d, mat_mul(Q, mat_inv(P1))
    if n == 2:
        return [M], mat_identity(2)
    # no invariant line: look for a coline (an invariant plane) via the dual
    w = _line_from_classes(dual(M), an)
    if w is None:
        return [M], mat_identity(n)
    S_cols = k_nullspace([tuple(w)])
    S = tuple(tuple(c[i] for c in S_cols) for i in range(n))
    B, _, D, P1 = sub_quotient(M, S)
    blocks_b, Pb = _decompose_blocks(B, an)
    Q = _block_diag(Pb, mat_identity(D.dim))
    return blocks_b + [D], mat_mul(Q, mat_inv(P1))


def _block_diag(A, B):
    na, nb = len(A), len(B)
    rows = [list(A[i]) + [ZERO] * nb for i in range(na)]
    rows += [[ZERO] * na + list(B[i]) for i in range(nb)]
    return mat(rows)


def _triangularize_with_cert(M: DiffSystem, cert: FlagCertificate):
    cert = cert.verify(M)
    n = M.dim
    P, _ = _pivot_basis(
        tuple(tuple(v for S in cert.subspaces for v in S[i]) for i in range(n))
    )
    dims = [len(S[0]) for S in cert.subspaces]
    if dims[-1] < n:
        dims.append(n)
    Pinv = mat_inv(P)
    Mt = gauge(M, Pinv)
    blocks = []
    start = 0
    for d in dims:
        blocks.append(
            DiffSystem(
                tuple(tuple(Mt.A[i][j] for j in range(start, d))
                      for i in range(start, d))
            )
        )
        start = d
    return blocks, Pinv


def diag_decompose(M: DiffSystem, cert: FlagCertificate = None,
                   analysis: Analysis = None) -> ModuleDiag:
    """Composition factors of M (dim <= 3), via hyperexponential lines, or a
    supplied invariant flag for non-Fuchsian systems.  The line search reads
    and fills `analysis`, a fresh Analysis when none is given."""
    if M.dim > 3:
        raise ValueError("diag_decompose implemented for dim <= 3")
    an = analysis if analysis is not None else Analysis()
    if cert is not None:
        blocks, P = _triangularize_with_cert(M, cert)
        # refine any 2-dim block that still has an invariant line
        return _refine(ModuleDiag(blocks=tuple(blocks), P=P), an)
    try:
        blocks, P = _decompose_blocks(M, an)
    except NonFuchsianError:
        raise NonFuchsianError(
            "composition-factor search needs simple finite poles; supply a "
            "flag certificate"
        )
    return ModuleDiag(blocks=tuple(blocks), P=P)


def _refine(D: ModuleDiag, an: Analysis) -> ModuleDiag:
    """Split 2-dim certificate blocks that do admit invariant lines."""
    out_blocks = []
    trans = []
    changed = False
    for b in D.blocks:
        if b.dim == 2 and is_fuchsian(b):
            sub, Pb = _decompose_blocks(b, an)
            if len(sub) > 1:
                out_blocks.extend(sub)
                trans.append(Pb)
                changed = True
                continue
        out_blocks.append(b)
        trans.append(mat_identity(b.dim))
    if not changed:
        return D
    Q = trans[0]
    for Tb in trans[1:]:
        Q = _block_diag(Q, Tb)
    return ModuleDiag(blocks=tuple(out_blocks), P=mat_mul(Q, D.P))


def semisimplify(M: DiffSystem, diag: ModuleDiag = None):
    """(is_semisimple, P, blocks): when semisimple, gauge(M, P) is the direct
    sum of the irreducible blocks.  Second return is None when undecided
    (incomplete solver)."""
    D = diag if diag is not None else diag_decompose(M)
    if len(D.blocks) == 1:
        return True, mat(D.P), list(D.blocks)
    Mt = gauge(M, D.P)
    k = D.blocks[0].dim
    S = tuple(tuple(ONE if i == j else ZERO for j in range(k))
              for i in range(Mt.dim))
    comp, complete = split_extension(Mt, S)
    if comp is None:
        if not complete:
            return None, None, None
        return False, None, None
    B2 = is_invariant(Mt, comp)
    rest = DiffSystem(B2)
    sub_ok, P2, blocks2 = semisimplify(
        rest, ModuleDiag(blocks=D.blocks[1:], P=mat_identity(rest.dim))
    )
    if sub_ok is not True:
        return sub_ok, None, None
    # assemble: new basis columns [e_1..e_k | comp * P2-transport]
    comp_t = mat_mul(comp, mat_inv(mat(P2)))
    P_cols = tuple(
        tuple(
            (ONE if i == j else ZERO) if j < k else comp_t[i][j - k]
            for j in range(Mt.dim)
        )
        for i in range(Mt.dim)
    )
    P_total = mat_mul(mat_inv(P_cols), mat(D.P))
    return True, P_total, [D.blocks[0]] + blocks2
