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
from sympy import QQ, ZZ, Poly
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from .groups import Named
from .linalg import solve_affine
from .oreops import IDENTITY_OP, OreOp
from .ratfunc import (
    COEFF_FIELD,
    ZERO,
    _over_lcm,
    _residue_column,
    d_t,
    from_low_coeffs,
    horowitz_reduce,
    is_log_derivative,
    low_coeffs,
    pole_factors,
    ratfunc,
    residues,
    x,
)
from .solvers import particular_solution
from .systems import DiffSystem, hom, mat_d_t, unvec, vec


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
    n = M.dim
    # vec(B) column-major: d vecB = hom(M, M) vecB + vec(δA)
    sol = particular_solution(hom(M, M), vec(mat_d_t(M.A)), "constancy search",
                              bound=bound)
    if sol is None:
        return None
    w = ConstancyWitness(B=tuple(tuple(r) for r in unvec(sol, n, n)))
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
            return OreOp(part + [1])
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


def integer_kernel(rows):
    """Basis of the saturated integer kernel {z ∈ Zⁿ : Mz = 0}: the columns
    of V past the rank in the Smith form U·M·V = S, V unimodular."""
    S, _, V = smith_normal_decomp(sp.Matrix(rows), domain=ZZ)
    rank = sum(1 for i in range(min(S.shape)) if S[i, i])
    return [tuple(V[:, j]) for j in range(rank, V.cols)]


def _hnf_rows(gens):
    """Row-style Hermite normal form of a generator list (deterministic basis)."""
    if not gens:
        return ()
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
    """Q-linear conditions Σ mᵢ·vᵢ = 0 for RatFunc values vᵢ: over one common
    Q[t, x] denominator, one row per monomial tᵃxᵇ of the numerators."""
    nums, _ = _over_lcm([v.xt_pair() for v in values])
    cols = [dict(num.terms()) for num in nums]
    monos = dict.fromkeys(mon for c in cols for mon in c)
    return [[c.get(mon, QQ.zero) for c in cols] for mon in monos]


def _t_const_part(c):
    """Q-linear projection Q(t) → Q: constant term of the polynomial part."""
    return (c.numer // c.denom).coeff(1)


def _int_row(row):
    """A row of rationals times the lcm of their denominators, and that lcm."""
    den = math.lcm(*(int(v.denominator) for v in row))
    return [int(v.numerator) * (den // int(v.denominator)) for v in row], den


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
    qrows = _qt_linear_rows([g for g, _, _ in reduced])
    qrows += _qt_linear_rows([from_low_coeffs(low_coeffs(p), p.one)
                              for _, p, _ in reduced])

    # residue conditions per irreducible pole factor: the Q(t)-part beyond
    # the rational constant must cancel, the constants must pair to integers
    hs = [h for _, _, h in reduced]
    cong_rows = []
    factors = pole_factors(hs)
    for f in sorted(factors, key=lambda f: sp.default_sort_key(f.as_expr())):
        consts = []
        rests = []
        for h in hs:
            cs = _residue_column(h, f)
            c = _t_const_part(cs[0])
            consts.append(c)
            rests.append(from_low_coeffs([cs[0] - c] + cs[1:], f.one))
        qrows += _qt_linear_rows(rests)
        cong_rows.append(consts)

    # assemble integer system: R m = 0 and C m ∈ Z^s  ⇔  [R 0; D·C  -D·I](m,w)=0
    s = len(cong_rows)
    big = [_int_row(r)[0] + [0] * s for r in qrows]
    for i, c in enumerate(cong_rows):
        row, den = _int_row(c)
        tail = [0] * s
        tail[i] = -den
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
