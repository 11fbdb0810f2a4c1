"""Rational and hyperexponential solutions of dY/dx = A Y + b over Q(t)(x).

Complete answers are produced for systems with simple finite poles and a
regular or regular-singular point at infinity (universal denominator from
integer local exponents, polynomial degree from exponents at infinity);
anything else falls back to a configured bound with complete=False.  A
caller that needs a decision asks `particular_solution`, which raises
IncompleteSearchError where such a bounded search finds nothing; the class
search returns its completeness beside its classes, for `modules.Analysis`.

A solve reads A once, as A = N/d (`_Quotient`): N a matrix over Q[t, x] and
d the lcm of the Q[t, x] denominators that the entries store.  Everything
else is ring arithmetic on N and d, with no per-entry cancellation in Q(t).
A solve has two steps: the local data of A (its pole factors, the integer
local exponents at each, omega and the leading matrix at infinity), then
one ansatz for the numerators over the universal denominator.

Local exponents at a simple pole factor f come from A's residue matrix
there, again one matrix over Q[t] over one denominator, read off N and d by
`ratfunc.residue_matrix`, the package's one residue routine.  At f of
degree k > 1 it is the n*k x n*k matrix of A's residues as a map of
(Q(t)[x]/(f))^n, so its characteristic polynomial is the norm
Res_x(f, det(lam*I - R)).  It is taken fraction-free over Z[t].  Its Q(t)
roots come from one factorization in (lam, t); its integer roots, which
give the universal denominator and the degree bound, are the rational roots
of the gcd of its coefficients in t.  The conversions between Q[t, x] and
Q(t)[x] are `ratfunc.in_x` and `ratfunc.lift`, one each way.

The ansatz rows are the x-coefficients of the equation times K = M*d_u, d_u
the monic universal denominator and M a multiple of d in Q[t, x], so that
the A-part of a row is N*(M/d).  M need not be the least such multiple: a
nonzero Q(t) constant scales every row by itself, and a factor g in
Q(t)[x] maps the coefficient rows of the equation E to those of g*E, which
span the same space because multiplication by g is injective.  Either way
the reduced row echelon form, and so every answer, is unchanged.  The rows
enter `linalg._certified_rref` as Q[t] ring elements, which it evaluates at
integer points of t.  d_u itself stays monic: the unknowns are the
numerators' coefficients over it, so it fixes the solution vectors.

The answers are assembled from the certified form, with no Q(t) value and
no multivariate gcd.  For a free column f the unknown j is N_j/Q_f, N_j and
Q_f in Q[t], so entry i of its vector is P_i/(Q_f*D) with
P_i = lc_x(D) * sum_k N_(i,k) x^k and D = prod l_f^e_f, l_f the lift of the
pole factor f, so that d_u = D/lc_x(D).  The l_f are primitive in Q[t][x],
irreducible and pairwise distinct, so D is primitive, and by Gauss's lemma
gcd(P_i, Q_f*D) = gcd(cont_x(P_i), Q_f) * prod l_f^min(v_f(P_i), e_f):
univariate gcds in Q[t], then trial division by each l_f at most e_f
times.  The quotient is in lowest terms, and dividing both parts by the
denominator's leading coefficient gives the canonical RatFunc.

The hyperexponential search computes these roots once per pole factor f.
A candidate character r = sum e_f * f'/f takes one root e_f at each f.  Two
differ by a logarithmic derivative exactly when every e_f differs by an
integer, so the search takes the product of each factor's roots modulo Z.
With c in Q[t] clearing the e_f, A - r*I is
(c*N - sum e_f*c*f'*(d/f)*I)/(c*d), and its local data at f is read from
one table per factor (`_factor_local`).  A found class's r is one fraction
over c * prod l_f (`_character`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import sympy as sp
from sympy import Poly, ZZ
from sympy.polys.matrices import DomainMatrix

from .errors import IncompleteSearchError, NonFuchsianError
from .linalg import _certified_rref
from .ratfunc import (
    COEFF_FIELD,
    FIELD,
    RatFunc,
    ZERO,
    _T_RING,
    _TX_RING,
    _X,
    _as_rational,
    _lc_x,
    _over_lcm,
    _square,
    _x_coeffs,
    lift,
    low_coeffs,
    pole_factors,
    ratfunc,
    residue_matrix,
    t,
)
from .systems import DiffSystem

#: the eigenvalue variable of characteristic polynomials
_LAM = sp.Dummy("lam")
#: the default ansatz bound where local exponents bound nothing
_BOUND = 10
#: Z[t], where characteristic polynomials are taken fraction-free
_ZT = ZZ[t]
_ZT_RING = _ZT.ring
#: a polynomial of Q[t] as its canonical Q(t) value
_qt = COEFF_FIELD.field.field_new


@dataclass
class SolutionSpace:
    """Rational solutions of one linear system: a particular solution (None
    when the system is inconsistent) plus a basis of the homogeneous space."""

    particular: object  # list[RatFunc] | None
    basis: list
    complete: bool


# -- one common denominator ------------------------------------------------------


class _Quotient(NamedTuple):
    """A square matrix A over Q(t)(x) as A = N/d: N its rows over Q[t, x],
    d in Q[t, x], `poles` the irreducible monic factors f over Q(t) of d
    with their multiplicities, and `lifts` each f as `lift` of its
    coefficients."""

    N: tuple
    d: object
    poles: dict
    lifts: dict


def _exquo(a, c):
    """a / c for polynomials of one ring; c must divide a."""
    q, rem = a.div(c)
    if rem:
        raise RuntimeError(f"{c} does not divide {a}")
    return q


def _common(A) -> _Quotient:
    """The matrix A of RatFunc values over the lcm of its entries'
    denominators."""
    flat = [v for row in A for v in row]
    nums, d = _over_lcm([v.xt_pair() for v in flat])
    poles = pole_factors(flat)
    return _Quotient(tuple(map(tuple, _square(nums))), d, poles,
                     {f: lift(low_coeffs(f)) for f in poles})


# -- local data at the singularities -------------------------------------------


def _charpoly(R, r):
    """det(lam*I - R/r), for a square matrix R over Q[t] and r in Q[t],
    times a nonzero element of Q[t], as a Poly in (lam, t) over ZZ.

    Fraction-free: the characteristic polynomial sum c_k lam^(n-k) of R is
    taken over Z[t], and r^n det(lam*I - R/r) = sum c_k r^(n-k) lam^(n-k)."""
    n = len(R)
    flat = [v for row in R for v in row]
    scale = math.lcm(*(c.denominator for p in [r, *flat] for c in p.coeffs()))
    r, *flat = ((p * scale).set_ring(_ZT_RING) for p in [r, *flat])
    cp = DomainMatrix(_square(flat), (n, n), _ZT).charpoly()
    terms = {}
    for k, c in enumerate(cp):
        for (j,), v in (c * r ** (n - k)).terms():
            terms[(n - k, j)] = v
    return Poly.from_dict(terms, _LAM, t, domain=ZZ)


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


def _infinity_data(N, d):
    """(omega, (L, l)) for A = N/d: omega is the growth order of A at
    infinity (entry degrees), and L/l the leading matrix there, the
    coefficient of x^omega, with L over Q[t] and l the leading coefficient
    of d in x."""
    dx = d.degree(1)
    omega = max((v.degree(1) - dx for row in N for v in row if v), default=-1)
    L = [[_lc_x(v) if v.degree(1) - dx == omega else _T_RING.zero
          for v in row] for row in N]
    return omega, (L, _lc_x(d))


# -- the solver ----------------------------------------------------------------


def _bounded(factors, omega, lead) -> bool:
    """True when local exponents bound the rational solutions: every finite
    pole simple, and infinity regular-singular or of invertible leading
    matrix."""
    L, _ = lead
    return all(e <= 1 for e in factors.values()) and (
        omega <= -1
        or bool(DomainMatrix([[_qt(v) for v in row] for row in L],
                             (len(L),) * 2, COEFF_FIELD).det())
    )


def _local_data(q: _Quotient):
    """(factors, exps, omega, lead) of A = q: its pole factors with their
    multiplicities; the sorted integer local exponents at each factor, or
    None when they bound nothing (see `_bounded`); omega and the leading
    matrix at infinity (see `_infinity_data`)."""
    omega, lead = _infinity_data(q.N, q.d)
    exps = None
    if _bounded(q.poles, omega, lead):
        exps = {f: _int_roots(_charpoly(*residue_matrix(q.N, q.d, f)))
                for f in q.poles}
    return q.poles, exps, omega, lead


def rational_solutions(A, b=None, bound=_BOUND) -> SolutionSpace:
    """All rational solutions of dY/dx = A Y + b.

    A: DiffSystem or nested list; b: vector (list) or None for homogeneous.
    Complete for simple finite poles and regular(-singular) infinity, else a
    bounded search flagged complete=False.
    """
    if isinstance(A, DiffSystem):
        A = A.A
    q = _common(tuple(tuple(ratfunc(v) for v in row) for row in A))
    return _ansatz(q, b, _local_data(q), bound)


def particular_solution(A, b, what, bound=_BOUND):
    """A rational solution of dY/dx = A Y + b, or None when none exists.

    Raises IncompleteSearchError, naming the search `what`, when the bounded
    search finds none but is not provably complete: a decision procedure
    reads "none found" as "none exists" only when the search was complete.
    """
    space = rational_solutions(A, b, bound)
    if space.particular is None and not space.complete:
        raise IncompleteSearchError(f"{what} not provably complete: "
                                    "bound-limited")
    return space.particular


def _ansatz(q: _Quotient, b, local, bound) -> SolutionSpace:
    """rational_solutions(A, b, bound) for A = q, given its local data
    (`_local_data`, or `_shifted_local` for a shifted matrix)."""
    factors_A, exps, omega, lead = local
    n = len(q.N)
    bvec = [ZERO] * n if b is None else [ratfunc(v) for v in b]
    b_zero = all(v.is_zero for v in bvec)
    factors_b = pole_factors(bvec)
    bnums, bden = _over_lcm([v.xt_pair() for v in bvec])
    all_factors = sorted(
        set(factors_A) | set(factors_b), key=lambda f: sp.default_sort_key(f.as_expr())
    )
    complete = True
    if exps is not None:
        # universal denominator from integer local exponents
        den_exp = {
            f: max(0, -min(exps.get(f, ()), default=0), factors_b.get(f, 0) - 1)
            for f in all_factors
        }
        bdegs = [v.degree(1) - bden.degree(1) for v in bnums if v]
        if omega <= -1:
            # degree bound from exponents at infinity; the residue matrix
            # there is the leading matrix when omega = -1, else zero
            cands = _int_roots(_charpoly(*lead)) if omega == -1 else [0]
            if bdegs:
                cands.append(max(bdegs) + 1)
            d_max = max(cands) if cands else None
        else:
            # irregular infinity with invertible leading matrix: degrees are
            # capped by the inhomogeneous term alone
            d_max = (max(bdegs) - omega) if bdegs else None
    else:
        complete = False
        den_exp = {f: bound for f in all_factors}
        d_max = bound

    # D is d_u = prod f^e_f up to a factor in Q(t), over Q[t, x]
    lifts = {f: q.lifts[f] if f in q.lifts else lift(low_coeffs(f))
             for f in den_exp}
    D = math.prod((lifts[f] ** e for f, e in den_exp.items()),
                  start=_TX_RING.one)
    ndeg = -1 if d_max is None else D.degree(1) + d_max
    if ndeg < 0:
        return SolutionSpace([ZERO] * n if b_zero else None, [], complete)

    # ansatz Y = (sum_k c_k x^k) / d_u.  The linear map c -> dY - AY - b is
    # cleared by K = M*d_u, with M = d*X in Q[t, x] a multiple of
    # prod f^(E_f - e_f): d(x^k/d_u) has f^(e_f+1), A x^k/d_u has f^(e_f+a_f)
    # and b has f^(b_f).  X = mu*Xb with mu = D/d_u in Q(t), and Xb carries
    # lc(bden), a multiple of bden's x-free part, so that K*b = d*Xb*D*b is
    # over Q[t, x] too.  With S = M d_u'/d_u, the unknown c_(i,k) contributes
    # k x^(k-1) M - x^k S to entry i and -x^k N[r][i] X to every entry r.
    Xb = _lc_x(bden).set_ring(_TX_RING)
    for f, e in den_exp.items():
        E = max(e + factors_A.get(f, 0), e + 1 if e > 0 else 0,
                factors_b.get(f, 0))
        Xb *= lifts[f] ** (E - e - factors_A.get(f, 0))
    X = Xb * _lc_x(D).set_ring(_TX_RING)
    M = q.d * X
    S = sum((e * lifts[f].diff(_X) * _exquo(M, lifts[f])
             for f, e in den_exp.items() if e > 0), _TX_RING.zero)
    T = [
        [_x_coeffs(-q.N[r][i] * X - (S if r == i else 0)) for i in range(n)]
        for r in range(n)
    ]
    Mc = _x_coeffs(M)
    bc = ([{}] * n if b_zero
          else [_x_coeffs(_exquo(q.d * Xb * D, bden) * v) for v in bnums])
    maxdeg = max(
        [ndeg + max(c, default=-1) for row in T for c in row]
        + [ndeg + max(Mc) - 1] + [max(c, default=-1) for c in bc] + [0]
    )
    zero = _T_RING.zero

    def entry(r, d, i, k):
        """Coefficient of x^d in entry r of the image of c_(i,k)."""
        c = T[r][i].get(d - k, zero)
        if r == i and k and d - k + 1 in Mc:
            return c + k * Mc[d - k + 1]
        return c

    rows = []
    rhs = []
    for r in range(n):
        for d in range(maxdeg + 1):
            rows.append(
                [entry(r, d, i, k) for i in range(n) for k in range(ndeg + 1)]
            )
            rhs.append(bc[r].get(d, zero))
    pivots, cols = _certified_rref(rows, rhs)
    w, lc = ndeg + 1, _lc_x(D)
    parts = [(lifts[f], e) for f, e in den_exp.items() if e > 0]

    def to_vec(f, sign):
        """The answer of free column f: unknown j is sign*N_j/Q_f, so entry
        i is lc * sum_k N_(i*w+k) x^k / (Q_f * D), up to the sign."""
        Q, nums = cols[f]
        Q = _T_RING.from_list(Q)
        coeffs = [{} for _ in range(n)]
        for j, N in nums.items():
            if N:
                coeffs[j // w][j % w] = _T_RING.from_list(N) * sign
        if f < n * w:
            coeffs[f // w][f % w] = Q
        return [_entry(_TX_RING({(i, k): v for k, c in cs.items()
                                 for (i,), v in (lc * c).terms()}), Q, parts)
                for cs in coeffs]

    basis = [to_vec(f, -1) for f in range(n * w) if f not in pivots]
    particular = None
    if n * w not in pivots:
        particular = to_vec(n * w, 1) if not b_zero else [ZERO] * n
    return SolutionSpace(particular=particular, basis=basis, complete=complete)


def _cancel_content(num, c):
    """(num/g, c/g) for num in Q[t, x], c in Q[t] and g = gcd(cont_x(num), c),
    by univariate gcds: the gcd with c of each x-coefficient in turn."""
    g = c
    for v in _x_coeffs(num).values():
        if g.is_ground:
            return num, c
        g = g.gcd(v)
    if g.is_ground:
        return num, c
    return _exquo(num, g.set_ring(_TX_RING)), _exquo(c, g)


def _entry(num, c, parts) -> RatFunc:
    """num / (c * D) in lowest terms, for num in Q[t, x], c in Q[t] and
    D = prod l^e over parts [(l, e)], distinct primitive irreducibles l of
    Q[t][x]: the content gcd, then trial division by each l at most e times
    (see the module docstring)."""
    if not num:
        return ZERO
    num, c = _cancel_content(num, c)
    den = c.set_ring(_TX_RING)
    for l, e in parts:
        while e and num.degree(1) >= l.degree(1):
            q, r = num.div(l)
            if r:
                break
            num, e = q, e - 1
        den *= l ** e
    return RatFunc(FIELD.field.raw_new(num, den))


# -- hyperexponential solutions --------------------------------------------------


def hyperexponential_classes(M: DiffSystem):
    """All classes exp(int r) * (rational solution space), r with simple poles.

    Returns (list of (RatFunc, SolutionSpace), complete).  Requires simple
    finite poles; candidates come from Q(t)-rational local exponents, one
    per class modulo Z at each pole factor, and complete is False when one
    outside Q(t) was skipped or an ansatz was bounded: then a class may be
    missing.
    """
    q = _common(M.A)
    if any(e > 1 for e in q.poles.values()):
        raise NonFuchsianError(
            "hyperexponential search requires simple finite poles; supply an "
            "invariant-flag certificate instead"
        )
    complete = True
    factors = sorted(q.poles, key=lambda f: sp.default_sort_key(f.as_expr()))
    local, reps = {}, []
    for f in factors:
        local[f], reps_f, found = _factor_local(q, f)
        reps.append(reps_f)
        complete = complete and found

    # one candidate character r = sum e_f * f'/f per class of the e_f
    dlogs = _dlogs(q)
    out = []
    for es in itertools.product(*reps):
        shift = dict(zip(factors, es))
        shifted = _shift(q, dlogs, shift)
        space = _ansatz(shifted, None, _shifted_local(shifted, local, shift),
                        _BOUND)
        if space.basis:
            out.append((_character(q.lifts, shift), space))
        complete = complete and space.complete
    return out, complete


def _factor_local(q: _Quotient, f):
    """(local, reps, found) at the pole factor f of A = q, from the Q(t)
    roots rho of A's residue characteristic polynomial chi_f there.

    The residue matrix of A - r*I at f is R_f - e_f*I, so f stays a pole
    unless R_f = e_f*I: for a root e_f, unless R_f is scalar.  Its
    characteristic polynomial is chi_f(lam + e_f), so the integer exponents
    at f are the integers among the rho - e_f.  local maps each distinct
    rho, or 0 when there is none, as e_f to that pair; reps keeps the first
    root of each class modulo Z; found says that every root is in Q(t)."""
    R, r = residue_matrix(q.N, q.d, f)
    qt = _qt_roots(_charpoly(R, r))
    stays = any(v != (R[0][0] if i == j else 0)
                for i, row in enumerate(R) for j, v in enumerate(row))
    roots = list(dict.fromkeys(qt))
    diffs = {e: [_as_int(rho - e) for rho in roots]
             for e in roots or [COEFF_FIELD.zero]}
    local = {e: (stays, sorted({k for k in ks if k is not None}))
             for e, ks in diffs.items()}
    reps = [e for i, (e, ks) in enumerate(diffs.items())
            if all(k is None for k in ks[:i])]
    return local, reps, len(qt) == len(R)


def _character(lifts, shift) -> RatFunc:
    """r = sum e_f * f'/f, e_f = shift[f], as one fraction: with c in Q[t]
    clearing the e_f, and l_f = lifts[f] over the f with e_f != 0,
    r = (sum c*e_f * l_f' * prod_(g != f) l_g) / (c * prod l_f).  Modulo
    l_f the numerator is c*e_f * l_f' * prod_(g != f) l_g, not zero, so only
    its Q[t] content can cancel, against c."""
    shift = {lifts[f]: e for f, e in shift.items() if e}
    c = functools.reduce(lambda a, b: a.lcm(b),
                         (e.denom for e in shift.values()), _T_RING.one)
    den = math.prod(shift, start=_TX_RING.one)
    num = sum(((e.numer * _exquo(c, e.denom)).set_ring(_TX_RING)
               * l.diff(_X) * _exquo(den, l) for l, e in shift.items()),
              _TX_RING.zero)
    num, c = _cancel_content(num, c)
    return RatFunc(FIELD.field.raw_new(num, c.set_ring(_TX_RING) * den))


def _dlogs(q: _Quotient) -> dict:
    """{f: d*f'/f} over Q[t, x] for the pole factors f of q."""
    return {f: lf.diff(_X) * _exquo(q.d, lf) for f, lf in q.lifts.items()}


def _shift(q: _Quotient, dlogs, shift) -> _Quotient:
    """A - r*I for A = q and r = sum e_f * f'/f, e_f = shift[f]: with c in
    Q[t] clearing the e_f, (c*N - sum e_f*c*dlogs[f]*I)/(c*d)."""
    c = functools.reduce(lambda a, b: a.lcm(b),
                         (e.denom for e in shift.values()), _T_RING.one)
    diag = sum((dlogs[f] * (e.numer * _exquo(c, e.denom)).set_ring(_TX_RING)
                for f, e in shift.items() if e), _TX_RING.zero)
    c = c.set_ring(_TX_RING)
    return q._replace(
        N=tuple(tuple(v * c - (diag if i == j else 0) for j, v in enumerate(row))
                for i, row in enumerate(q.N)),
        d=q.d * c)


def _shifted_local(q: _Quotient, local, shift):
    """`_local_data` of q = A - r*I for a Fuchsian A and r = sum e_f * f'/f,
    e_f = shift[f]: each finite pole's read off local[f][e_f] (see
    `_factor_local`), with no Q(t) arithmetic, and infinity's from q."""
    factors = {f: 1 for f, e in shift.items() if local[f][e][0]}
    omega, lead = _infinity_data(q.N, q.d)
    exps = None
    if _bounded(factors, omega, lead):
        exps = {f: local[f][shift[f]][1] for f in factors}
    return factors, exps, omega, lead


def _as_int(c):
    """c in Q(t) as an int, or None when it is not an integer."""
    q = _as_rational(c)
    return q.numerator if q is not None and q.denominator == 1 else None
