"""Constancy testing, residue telescoping, rank-1 groups, character lattices.

The telescoper of f ∈ K = Q(t)(x) is the minimal monic L ∈ Q(t)[δ] with
L(f) ∈ ∂K.  Since an element of K is a ∂-derivative iff all its x-residues
vanish, and taking residues commutes with δ (with the induced action on the
residue elements of each squarefree pole block), L is the joint minimal
annihilator of the residue elements of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import sympy as sp
from sympy import Poly

from .errors import IncompleteSearchError
from .groups import Named
from .linalg import solve_affine
from .oreops import IDENTITY_OP, OreOp
from .ratfunc import (
    COEFF_FIELD,
    ZERO,
    d_t,
    horowitz_reduce,
    is_log_derivative,
    low_coeffs,
    pole_factors,
    ratfunc,
    residue_at,
    residues,
    t,
    x,
)
from .systems import (
    DiffSystem,
    mat_d_t,
    mat_identity,
    mat_kron,
    mat_sub,
    mat_transpose,
    unvec,
    vec,
)


# -- constancy -------------------------------------------------------------------


@dataclass(frozen=True)
class ConstancyWitness:
    """B with ∂B − δA = AB − BA for the source system A."""

    B: tuple

    def verify(self, M: DiffSystem) -> bool:
        A = M.A
        n = M.dim
        for i in range(n):
            for j in range(n):
                lhs = self.B[i][j].d_x() - A[i][j].d_t()
                rhs = sum(
                    (A[i][k] * self.B[k][j] - self.B[i][k] * A[k][j] for k in range(n)),
                    ZERO,
                )
                if lhs != rhs:
                    return False
        return True


def is_constant(M: DiffSystem, bound: int = 10):
    """Witness B solving ∂B = AB − BA + δA, or None when provably absent.

    Raises IncompleteSearchError when the bounded search finds nothing but is
    not provably complete.
    """
    from .solvers import rational_solutions

    n = M.dim
    eye = mat_identity(n)
    coeff = mat_sub(mat_kron(eye, M.A), mat_kron(mat_transpose(M.A), eye))
    rhs = vec(mat_d_t(M.A))
    space = rational_solutions(coeff, rhs, bound=bound)
    if space.particular is None:
        if space.complete:
            return None
        raise IncompleteSearchError(
            "constancy search not provably complete: " + "; ".join(space.notes)
        )
    w = ConstancyWitness(B=tuple(tuple(r) for r in unvec(space.particular, n, n)))
    if not w.verify(M):
        raise RuntimeError("constancy witness failed verification")
    return w


# -- telescoper -------------------------------------------------------------------


_T = COEFF_FIELD.field.gens[0]


def _d_t(p: Poly) -> Poly:
    """p with each of its Q(t) coefficients differentiated in t."""
    return Poly.from_list([c.diff(_T) for c in p.rep.to_list()], x,
                          domain=COEFF_FIELD)


def telescoper(f):
    """Minimal monic L ∈ Q(t)[δ] with L(f) ∈ ∂K.

    L is the minimal annihilator of f's residue element ρ in K_q =
    Q(t)[x]/(q), q the squarefree denominator of f's Hermite-reduced part,
    under δρ = ρ_t − ρ_x · q_t · q_x⁻¹ (mod q).  K_q has dimension deg q over
    Q(t), so some δʰρ with h ≤ deg q lies in the span of ρ, …, δʰ⁻¹ρ; the
    first such h is the order of L.
    """
    blocks = residues(ratfunc(f))
    if not blocks:
        return IDENTITY_OP
    q, rho = blocks[0].pole, blocks[0].residue
    n = q.degree()
    shift = (_d_t(q) * q.diff().invert(q)).rem(q)
    cols = [low_coeffs(rho, n)]
    while True:
        rho = (_d_t(rho) - rho.diff() * shift).rem(q)
        row = low_coeffs(rho, n)
        part, _ = solve_affine([list(r) for r in zip(*cols)], [-c for c in row])
        if part is not None:
            return OreOp([COEFF_FIELD.to_sympy(c) for c in part] + [1])
        cols.append(row)


# -- rank-1 groups ----------------------------------------------------------------


def rank1_group(a) -> Named:
    """The parameterized Galois group of ∂y = a·y as a subgroup of GL₁."""
    a = ratfunc(a)
    hit = is_log_derivative(a)
    if hit is not None:
        m, r = hit
        return Named(
            dim=1,
            family="finite-cyclic",
            data={"order": m, "witness": r},
        )
    return Named(dim=1, family="rank1-delta", data={"op": telescoper(d_t(a))})


# -- character lattices ------------------------------------------------------------


@dataclass(frozen=True)
class CharacterLattice:
    """Lattice of m ∈ Zⁿ with Σ mᵢaᵢ = ∂r/r for some r ∈ K, with witnesses."""

    n: int
    generators: tuple  # tuple of integer tuples, Hermite normal form
    witnesses: tuple  # RatFunc r per generator

    def contains(self, m) -> bool:
        """Exact membership via the generator matrix (solve over Q, check Z)."""
        if not self.generators:
            return all(v == 0 for v in m)
        G = sp.Matrix(self.generators).T
        try:
            sol, params = G.gauss_jordan_solve(sp.Matrix([int(v) for v in m]))
        except ValueError:
            return False
        sol = sol.subs({p: 0 for p in params})
        return all(v.is_integer for v in sol) and list(G * sol) == [
            sp.Integer(v) for v in m
        ]


def integer_kernel(rows):
    """Basis of the saturated integer kernel {z ∈ Zⁿ : Mz = 0} via unimodular
    column reduction."""
    M = sp.Matrix([[sp.Integer(v) for v in row] for row in rows])
    n = M.cols
    V = sp.eye(n)
    col = 0
    for row in range(M.rows):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if M[row, j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(M[row, j]))
            if j0 != col:
                M.col_swap(col, j0)
                V.col_swap(col, j0)
            a = M[row, col]
            others = [j for j in range(col + 1, n) if M[row, j] != 0]
            if not others:
                col += 1
                break
            for j in others:
                q = M[row, j] // a
                M[:, j] -= q * M[:, col]
                V[:, j] -= q * V[:, col]
    return [tuple(V[:, j]) for j in range(col, n)]


def _hnf_rows(gens):
    """Row-style Hermite normal form of a generator list (deterministic basis)."""
    if not gens:
        return ()
    from sympy.matrices.normalforms import hermite_normal_form

    G = sp.Matrix([list(g) for g in gens])
    # hermite_normal_form works on columns; transpose to normalize rows
    H = hermite_normal_form(G.T).T
    rows = [tuple(int(v) for v in H.row(i)) for i in range(H.rows)]
    rows = [r for r in rows if any(r)]
    # sign-normalize each row: first nonzero entry positive
    out = []
    for r in rows:
        lead = next(v for v in r if v)
        out.append(tuple(-v for v in r) if lead < 0 else r)
    return tuple(sorted(out))


def _qt_linear_rows(values):
    """Q-linear conditions Σ mᵢ·vᵢ = 0 for vᵢ ∈ Q(t)[x]: clear denominators
    and read off coefficient rows indexed by monomials x^a t^b."""
    exprs = [sp.together(sp.sympify(v)) for v in values]
    dens = [sp.fraction(e)[1] for e in exprs]
    den = sp.lcm(dens) if dens else sp.S.One
    cleared = [sp.expand(sp.cancel(e * den)) for e in exprs]
    monomap = {}
    cols = []
    for e in cleared:
        if e == 0:
            cols.append({})
            continue
        p = sp.Poly(e, x, t)
        cols.append({mon: c for mon, c in zip(p.monoms(), p.coeffs())})
        for mon in p.monoms():
            monomap.setdefault(mon, len(monomap))
    rows = []
    for mon in monomap:
        rows.append([sp.Rational(c.get(mon, 0)) for c in cols])
    return rows


def _t_const_part(e):
    """Q-linear projection Q(t) → Q: constant term of the polynomial part."""
    e = sp.cancel(sp.sympify(e))
    num, den = sp.fraction(sp.together(e))
    pnum = sp.Poly(num, t)
    pden = sp.Poly(den, t)
    quo = pnum.div(pden)[0]
    return sp.Rational(quo.nth(0)) if quo.degree() >= 0 else sp.S.Zero


def character_lattice(diag) -> CharacterLattice:
    """All m ∈ Zⁿ with Σ mᵢaᵢ a logarithmic ∂-derivative, with witnesses.

    The computation is exact: Q-linear residue conditions plus integrality
    congruences are solved by a saturated integer-kernel computation.
    """
    entries = [ratfunc(a) for a in diag]
    n = len(entries)

    reduced = [horowitz_reduce(a) for a in entries]
    # Q-linear conditions: the ∂-exact part g and the polynomial part must
    # cancel Q-linearly (both lie in complements of the log-derivative image).
    qrows = []
    qrows.extend(_qt_linear_rows([g.expr for g, _, _ in reduced]))
    qrows.extend(_qt_linear_rows([p.as_expr() for _, p, _ in reduced]))

    # residue conditions per irreducible pole factor
    hs = [h for _, _, h in reduced]
    cong_rows = []  # rational rows whose pairing with m must be an integer
    factors = pole_factors(hs)
    for f in sorted(factors, key=lambda f: sp.default_sort_key(f.as_expr())):
        consts = []
        rests = []
        for h in hs:
            rho = residue_at(h, f)
            c = _t_const_part(rho.nth(0)) if rho.degree() >= 0 else sp.S.Zero
            consts.append(c)
            rests.append(sp.expand(rho.as_expr() - c))
        qrows.extend(_qt_linear_rows(rests))
        cong_rows.append(consts)

    # assemble integer system: R m = 0 and C m ∈ Z^s  ⇔  [R 0; D·C  -D·I](m,w)=0
    def _int_rows(rows):
        out = []
        for r in rows:
            den = math.lcm(*(sp.Rational(v).q for v in r))
            row = [int(sp.Rational(v) * den) for v in r]
            if any(row):
                out.append(row)
        return out

    R = _int_rows(qrows)
    s = len(cong_rows)
    big = []
    for r in R:
        big.append(r + [0] * s)
    for i, c in enumerate(cong_rows):
        den = math.lcm(*(sp.Rational(v).q for v in c))
        row = [int(sp.Rational(v) * den) for v in c]
        tail = [0] * s
        tail[i] = -int(den)
        big.append(row + tail)
    if not big:
        big = [[0] * (n + s)]
    kernel = integer_kernel(big)
    gens = _hnf_rows([k[:n] for k in kernel])

    witnesses = []
    for m in gens:
        total = sum((int(mi) * a for mi, a in zip(m, entries)), ZERO)
        hit = is_log_derivative(total)
        if hit is None or hit[0] != 1 or not _witness_ok(total, hit[1]):
            raise RuntimeError(f"lattice generator {m} failed witness verification")
        witnesses.append(hit[1])
    return CharacterLattice(n=n, generators=gens, witnesses=tuple(witnesses))


def _witness_ok(total, r) -> bool:
    return (total * r - r.d_x()).is_zero
