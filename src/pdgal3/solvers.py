"""Rational and hyperexponential solutions of dY/dx = A Y + b over Q(t)(x).

Complete answers are produced for systems with simple finite poles and a
regular or regular-singular point at infinity (universal denominator from
integer local exponents, polynomial degree from exponents at infinity);
anything else falls back to a configured bound with complete=False.  A
caller that needs a decision asks `particular_solution`, which raises
IncompleteSearchError where such a bounded search finds nothing.

A solve has two steps: the local data of A (its pole factors, the integer
local exponents at each, omega and the leading matrix at infinity), then
one ansatz for the numerators over the universal denominator.

Local exponents at a pole factor f of degree d come from one characteristic
polynomial over Q(t): each residue r in Q(t)[x]/(f) becomes its d x d
multiplication matrix r(C_f), C_f the companion matrix of f, and the
characteristic polynomial of the n*d x n*d block matrix is the norm
Res_x(f, det(lam*I - R)), taken fraction-free over Z[t].  Its Q(t) roots
come from one factorization in (lam, t); its integer roots, which give the
universal denominator and the degree bound, are the rational roots of the
gcd of its coefficients in t.

The hyperexponential search computes these roots once per pole factor.  For
a candidate character r = sum e_f * f'/f it solves A - r*I with local data
shifted from A's own, not recomputed: f stays a pole unless A's residue
matrix there is e_f*I, and the integer exponents at f are the integers
among rho - e_f, rho a Q(t) root.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import sympy as sp
from sympy import Poly, ZZ
from sympy.polys.matrices import DomainMatrix

from .errors import IncompleteSearchError, NonFuchsianError
from .linalg import solve_affine
from .ratfunc import (
    COEFF_FIELD,
    FIELD,
    RatFunc,
    ZERO,
    _T_RING,
    _as_rational,
    _poly,
    from_low_coeffs,
    low_coeffs,
    pole_factors,
    ratfunc,
    residue_at,
    t,
    x,
)
from .systems import DiffSystem

#: the eigenvalue variable of characteristic polynomials
_LAM = sp.Dummy("lam")
#: the default ansatz bound where local exponents bound nothing
_BOUND = 10
#: Z[t], where characteristic polynomials are taken fraction-free
_ZT = ZZ[t]
_ZT_RING = _ZT.ring


@dataclass
class SolutionSpace:
    """Rational solutions of one linear system: a particular solution (None
    when the system is inconsistent) plus a basis of the homogeneous space."""

    particular: object  # list[RatFunc] | None
    basis: list
    complete: bool
    notes: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


# -- local data at the singularities -------------------------------------------


def _cleared(v: RatFunc, c: Poly) -> Poly:
    """v * c as a Poly in x; c must be a multiple of v's denominator."""
    num, den = v.monic_pair()
    q, rem = c.div(den)
    if not rem.is_zero:
        raise RuntimeError(f"{sp.sstr(c.as_expr())} does not clear {v}")
    return num * q


def _charpoly(rows):
    """det(lam*I - M) of a square matrix M over Q(t), times a nonzero
    element of Q[t], as a Poly in (lam, t) over ZZ.

    Fraction-free: with M = N/d, N over Z[t] and d in Z[t], the
    characteristic polynomial sum c_k lam^(n-k) of N is taken over Z[t], and
    d^n det(lam*I - M) = sum c_k d^(n-k) lam^(n-k)."""
    n = len(rows)
    flat = [v for row in rows for v in row]
    d = functools.reduce(lambda a, b: a.lcm(b), (v.denom for v in flat))
    nums = [v.numer * d.exquo(v.denom) for v in flat]
    scale = math.lcm(*(c.denominator for p in [d, *nums] for c in p.coeffs()))
    d, *nums = ((p * scale).set_ring(_ZT_RING) for p in [d, *nums])
    cp = DomainMatrix(
        [nums[i * n:(i + 1) * n] for i in range(n)], (n, n), _ZT
    ).charpoly()
    terms = {}
    for k, c in enumerate(cp):
        for (j,), v in (c * d ** (n - k)).terms():
            terms[(n - k, j)] = v
    return Poly.from_dict(terms, _LAM, t, domain=ZZ)


def _residue_charpoly(A, f: Poly):
    """Res_x(f, det(lam*I - R)) for the residue matrix R of A at f: the
    characteristic polynomial of R as a Q(t)-linear map of K_f^n, K_f =
    Q(t)[x]/(f), each entry r replaced by its multiplication matrix r(C_f)
    on the basis 1, x, ..., x^(d-1).  For deg f = 1 that is R itself."""
    n, d = len(A), f.degree()
    powers = [_poly(x**k, x) for k in range(d)]
    rows = [[None] * (n * d) for _ in range(n * d)]
    for i in range(n):
        for j in range(n):
            r = residue_at(A[i][j], f)
            for k, xk in enumerate(powers):
                col = low_coeffs((r * xk).rem(f), d)
                for m in range(d):
                    rows[i * d + m][j * d + k] = col[m]
    return _charpoly(rows)


def _qt_roots(cp: Poly) -> list:
    """Roots in Q(t) of cp(lam, t), each repeated by its multiplicity, in
    the order of sympy's sorted factor list."""
    roots = []
    for fac, mult in sp.factor_list(cp, polys=True)[1]:
        if fac.degree(_LAM) == 1:
            c = ({}, {})
            for (k, j), v in fac.terms():
                c[k][(j,)] = v
            c0, c1 = (_T_RING.from_dict(d) for d in c)
            roots += [COEFF_FIELD.field.new(-c0, c1)] * mult
    return roots


def _int_roots(cp: Poly) -> list:
    """Sorted integer roots lam of cp(lam, t) = 0, identically in t: the
    rational roots of the gcd over Q of cp's t-coefficients."""
    by_t = {}
    for (k, j), v in cp.terms():
        by_t.setdefault(j, {})[(k,)] = v
    g = functools.reduce(
        Poly.gcd, (Poly.from_dict(c, _LAM, domain=ZZ) for c in by_t.values())
    )
    return sorted({int(r) for r in g.ground_roots() if r.is_Integer})


def _degree_at_infinity(v: RatFunc):
    if v.is_zero:
        return None
    num, den = v.monic_pair()
    return num.degree() - den.degree()


def _infinity_data(A):
    """(omega, leading matrix at infinity as rows of Q(t) elements).

    omega is the growth order of A at infinity (entry degrees); the matrix is
    the coefficient of x^omega.
    """
    degs = [[_degree_at_infinity(v) for v in row] for row in A]
    finite = [d for row in degs for d in row if d is not None]
    omega = max(finite, default=-1)
    lead = [
        [v.numerator.rep.LC() if d == omega else COEFF_FIELD.zero
         for v, d in zip(row, drow)]
        for row, drow in zip(A, degs)
    ]
    return omega, lead


# -- the solver ----------------------------------------------------------------


def _bounded(factors, omega, lead) -> bool:
    """True when local exponents bound the rational solutions: every finite
    pole simple, and infinity regular-singular or of invertible leading
    matrix."""
    return all(e <= 1 for e in factors.values()) and (
        omega <= -1
        or bool(DomainMatrix(lead, (len(lead),) * 2, COEFF_FIELD).det())
    )


def _local_data(A):
    """(factors, exps, omega, lead) of the matrix A: its pole factors with
    their multiplicities; the sorted integer local exponents at each factor,
    or None when they bound nothing (see `_bounded`); omega and the leading
    matrix at infinity."""
    factors = pole_factors([v for row in A for v in row])
    omega, lead = _infinity_data(A)
    exps = None
    if _bounded(factors, omega, lead):
        exps = {f: _int_roots(_residue_charpoly(A, f)) for f in factors}
    return factors, exps, omega, lead


def rational_solutions(A, b=None, bound=_BOUND) -> SolutionSpace:
    """All rational solutions of dY/dx = A Y + b.

    A: DiffSystem or nested list; b: vector (list) or None for homogeneous.
    Complete for simple finite poles and regular(-singular) infinity, else a
    bounded search flagged complete=False.
    """
    if isinstance(A, DiffSystem):
        A = A.A
    A = tuple(tuple(ratfunc(v) for v in row) for row in A)
    return _ansatz(A, b, _local_data(A), bound)


def particular_solution(A, b, what, bound=_BOUND):
    """A rational solution of dY/dx = A Y + b, or None when none exists.

    Raises IncompleteSearchError, naming the search `what`, when the bounded
    search finds none but is not provably complete: a decision procedure
    reads "none found" as "none exists" only when the search was complete.
    """
    space = rational_solutions(A, b, bound)
    if space.particular is None and not space.complete:
        raise IncompleteSearchError(
            f"{what} not provably complete: " + "; ".join(space.notes))
    return space.particular


def _ansatz(A, b, local, bound) -> SolutionSpace:
    """rational_solutions(A, b, bound), given A's `_local_data`."""
    factors_A, exps, omega, lead = local
    n = len(A)
    bvec = (
        [ZERO] * n if b is None else [ratfunc(v) for v in b]
    )
    b_zero = all(v.is_zero for v in bvec)
    factors_b = pole_factors(bvec)
    all_factors = sorted(
        set(factors_A) | set(factors_b), key=lambda f: sp.default_sort_key(f.as_expr())
    )
    notes = []

    complete = True
    if exps is not None:
        # universal denominator from integer local exponents
        den_exp = {
            f: max(0, -min(exps.get(f, ()), default=0), factors_b.get(f, 0) - 1)
            for f in all_factors
        }
        bdegs = [_degree_at_infinity(v) for v in bvec]
        bdegs = [d for d in bdegs if d is not None]
        if omega <= -1:
            # degree bound from exponents at infinity; the residue matrix
            # there is the leading matrix when omega = -1, else zero
            cands = _int_roots(_charpoly(lead)) if omega == -1 else [0]
            if bdegs:
                cands.append(max(bdegs) + 1)
            d_max = max(cands) if cands else None
        else:
            # irregular infinity with invertible leading matrix: degrees are
            # capped by the inhomogeneous term alone
            d_max = (max(bdegs) - omega) if bdegs else None
            notes.append("irregular-infinity-invertible-leading-matrix")
    else:
        complete = False
        notes.append("bound-limited")
        den_exp = {f: bound for f in all_factors}
        d_max = bound

    d_u = _poly(1, x)
    for f, e in den_exp.items():
        if e > 0:
            d_u = d_u * f**e
    if d_max is None:
        ndeg = -1
    else:
        ndeg = d_u.degree() + d_max

    if ndeg < 0:
        if b_zero:
            return SolutionSpace(
                particular=[ZERO] * n, basis=[], complete=complete,
                notes=tuple(notes),
            )
        return SolutionSpace(
            particular=None, basis=[], complete=complete, notes=tuple(notes)
        )

    # ansatz Y = (sum_k c_k x^k) / d_u.  The linear map c -> dY - AY - b is
    # cleared by cden = prod f^E_f, a multiple of every denominator in it:
    # d(x^k/d_u) has f^(e_f+1), A x^k/d_u has f^(e_f+a_f) and b has f^(b_f).
    # With P = cden/d_u and S = P d_u'/d_u, the unknown c_(i,k) contributes
    # k x^(k-1) P - x^k S to entry i and -x^k A[r][i] P to every entry r.
    P = _poly(1, x)
    for f, e in den_exp.items():
        E = max(e + factors_A.get(f, 0), e + 1 if e > 0 else 0,
                factors_b.get(f, 0))
        P = P * f ** (E - e)
    S = _poly(0, x)
    for f, e in den_exp.items():
        if e > 0:
            S = S + e * f.diff() * P.exquo(f)
    T = [
        [low_coeffs(-_cleared(A[r][i], P) - (S if r == i else 0))
         for i in range(n)]
        for r in range(n)
    ]
    Pc = low_coeffs(P)
    cden = P * d_u
    bc = [low_coeffs(_cleared(v, cden)) for v in bvec]
    maxdeg = max(
        [ndeg + len(c) - 1 for row in T for c in row]
        + [ndeg + len(Pc) - 2] + [len(c) - 1 for c in bc] + [0]
    )
    zero = COEFF_FIELD.zero

    def at(c, d):
        return c[d] if 0 <= d < len(c) else zero

    def entry(r, d, i, k):
        """Coefficient of x^d in entry r of the image of c_(i,k)."""
        v = at(T[r][i], d - k)
        if r == i and k:
            v = v + k * at(Pc, d - k + 1)
        return v

    rows = []
    rhs = []
    for r in range(n):
        for d in range(maxdeg + 1):
            rows.append(
                [entry(r, d, i, k) for i in range(n) for k in range(ndeg + 1)]
            )
            rhs.append(at(bc[r], d))
    part, kern = solve_affine(rows, rhs)

    def to_vec(coeffs):
        w = ndeg + 1
        return [from_low_coeffs(coeffs[i * w:(i + 1) * w], d_u)
                for i in range(n)]

    basis = [to_vec(v) for v in kern]
    particular = None
    if part is not None:
        particular = to_vec(part) if not b_zero else [ZERO] * n
    return SolutionSpace(
        particular=particular, basis=basis, complete=complete, notes=tuple(notes)
    )


# -- hyperexponential solutions --------------------------------------------------


def is_fuchsian(M: DiffSystem) -> bool:
    """Simple finite poles and proper entries (regular-singular infinity)."""
    flat = [v for row in M.A for v in row]
    if any(e > 1 for e in pole_factors(flat).values()):
        return False
    omega, _ = _infinity_data(M.A)
    return omega <= -1


def hyperexponential_classes(M: DiffSystem):
    """All classes exp(int r) * (rational solution space), r with simple poles.

    Returns (list of (RatFunc, SolutionSpace), notes).  Requires a Fuchsian
    system; candidates come from Q(t)-rational local exponents.
    """
    A = M.A
    n = M.dim
    factor_dict = pole_factors([v for row in A for v in row])
    if any(e > 1 for e in factor_dict.values()):
        raise NonFuchsianError(
            "hyperexponential search requires simple finite poles; supply an "
            "invariant-flag certificate instead"
        )
    notes = []
    factors = sorted(factor_dict, key=lambda f: sp.default_sort_key(f.as_expr()))
    roots = {}
    per_factor = []
    for f in factors:
        qt = roots[f] = _qt_roots(_residue_charpoly(A, f))
        cp_deg = n * f.degree()
        if len(qt) < cp_deg:
            notes.append(
                f"non-Q(t) local exponents at {sp.sstr(f.as_expr())} skipped"
            )
        uniq = []
        for r in qt:
            if r not in uniq:
                uniq.append(r)
        per_factor.append(uniq if uniq else [COEFF_FIELD.zero])

    # all candidate characters r = sum e_f * f'/f, with their e_f
    candidates = [(ZERO, ())]
    for f, eigs in zip(factors, per_factor):
        dlog = from_low_coeffs(low_coeffs(f.diff()), f)
        candidates = [
            (c + RatFunc(FIELD.convert_from(e, COEFF_FIELD)) * dlog, es + (e,))
            for c, es in candidates for e in eigs
        ]
    out = []
    for r, es in _class_reps(candidates):
        shifted = tuple(
            tuple(A[i][j] - (r if i == j else ZERO) for j in range(n))
            for i in range(n)
        )
        local = _shifted_local(shifted, roots, dict(zip(factors, es)))
        space = _ansatz(shifted, None, local, _BOUND)
        if space.basis:
            out.append((r, space))
        if not space.complete:
            notes.append("bound-limited")
    return out, tuple(notes)


def _class_reps(candidates):
    """The first candidate (c, es) of each class modulo logarithmic
    derivatives.  Over distinct irreducible f, c - c' = sum (e_f - e'_f) *
    f'/f is one exactly when every e_f - e'_f is an integer."""
    reps = []
    for c, es in candidates:
        if not any(all(_as_int(e - d) is not None for e, d in zip(es, ds))
                   for _, ds in reps):
            reps.append((c, es))
    return reps


def _shifted_local(S, roots, shift):
    """`_local_data` of S = A - r*I for a Fuchsian A and r = sum e_f * f'/f,
    from the Q(t) roots of A's residue characteristic polynomials.

    The residue matrix of S at f is R_f - e_f*I, so f stays a pole of S
    unless R_f = e_f*I, and its characteristic polynomial is chi_f(lam + e_f).
    An integer root l of that makes l + e_f a Q(t) root of chi_f, so the
    integer exponents at f are the integers among the rho - e_f."""
    factors = {
        f: 1 for f in roots
        if any(v.denominator.rem(f).is_zero for row in S for v in row)
    }
    omega, lead = _infinity_data(S)
    exps = None
    if _bounded(factors, omega, lead):
        exps = {
            f: sorted({k for rho in roots[f]
                       if (k := _as_int(rho - shift[f])) is not None})
            for f in factors
        }
    return factors, exps, omega, lead


def _as_int(c):
    """c in Q(t) as an int, or None when it is not an integer."""
    q = _as_rational(c)
    return q.numerator if q is not None and q.denominator == 1 else None
