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
there, again one matrix over Q[t] over one denominator.  At f = x - p/q it
is N(p/q)/d'(p/q), both sides homogenized by q^D.  At f of degree k > 1, d'
is inverted modulo f once, and each residue r = N_ij/d' in Q(t)[x]/(f)
becomes its k x k multiplication matrix r(C_f), C_f the companion matrix of
f; the characteristic polynomial of the n*k x n*k block matrix is the norm
Res_x(f, det(lam*I - R)).  It is taken fraction-free over Z[t].  Its Q(t)
roots come from one factorization in (lam, t); its integer roots, which
give the universal denominator and the degree bound, are the rational roots
of the gcd of its coefficients in t.

The ansatz rows are the x-coefficients of the equation times K = M*d_u, d_u
the monic universal denominator and M a multiple of d in Q[t, x], so that
the A-part of a row is N*(M/d).  M need not be the least such multiple: a
nonzero Q(t) constant scales every row by itself, and a factor g in
Q(t)[x] maps the coefficient rows of the equation E to those of g*E, which
span the same space because multiplication by g is injective.  Either way
the reduced row echelon form, and so every answer, is unchanged.  The rows
enter `solve_affine` as Q[t] ring elements, which it evaluates at integer
points of t; no Q(t) value is made for them, only for the answers it
returns.  d_u itself stays monic: the unknowns are the numerators'
coefficients over it, so it fixes the solution vectors.

The hyperexponential search computes these roots once per pole factor.  For
a candidate character r = sum e_f * f'/f, with c in Q[t] clearing the e_f,
A - r*I = (c*N - sum e_f*c*f'*(d/f)*I)/(c*d).  Its local data is shifted
from A's own, not recomputed: f stays a pole unless A's residue matrix there
is e_f*I, and the integer exponents at f are the integers among rho - e_f,
rho a Q(t) root.
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
from .linalg import solve_affine
from .ratfunc import (
    COEFF_FIELD,
    FIELD,
    RatFunc,
    ZERO,
    _T_RING,
    _TX_RING,
    _as_rational,
    _poly,
    _x_coeffs,
    from_low_coeffs,
    low_coeffs,
    pole_factors,
    ratfunc,
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
#: x as a generator of Q[t, x]
_X = _TX_RING.gens[1]
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
    with their multiplicities, and `lifts` each f as `_lift(f)`."""

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


def _square(flat) -> list:
    n = math.isqrt(len(flat))
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _over_lcm(pairs):
    """(nums, d) with num/den = nums[i]/d for the i-th (num, den) of `pairs`,
    polynomials of one ring, and d the lcm of the distinct dens."""
    dens = dict.fromkeys(den for _, den in pairs)
    d = functools.reduce(lambda a, b: a.lcm(b), dens)
    co = {den: _exquo(d, den) for den in dens}
    return [num * co[den] for num, den in pairs], d


def _common(A) -> _Quotient:
    """The matrix A of RatFunc values over the lcm of its entries'
    denominators."""
    flat = [v for row in A for v in row]
    nums, d = _over_lcm([v.xt_pair() for v in flat])
    poles = pole_factors(flat)
    return _Quotient(tuple(map(tuple, _square(nums))), d, poles,
                     {f: _lift(f) for f in poles})


def _lc_x(p):
    """The leading coefficient in x of p in Q[t, x], as an element of Q[t]."""
    k = p.degree(1)
    return _T_RING.from_dict({(i,): c for (i, j), c in p.terms() if j == k})


def _lift(f: Poly):
    """A Poly f in x over Q(t) times the lcm of its coefficients'
    denominators, in Q[t, x]."""
    cs = low_coeffs(f)
    m = functools.reduce(lambda a, b: a.lcm(b), (c.denom for c in cs))
    return _TX_RING.from_dict({
        (i, k): v for k, c in enumerate(cs)
        for (i,), v in (c.numer * _exquo(m, c.denom)).terms()})


def _in_x(p) -> Poly:
    """p in Q[t, x] as a Poly in x over Q(t)."""
    return Poly.from_dict({(k,): _qt(c) for k, c in _x_coeffs(p).items()},
                          x, domain=COEFF_FIELD)


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


def _qt_matrix(rows):
    """(R, r) with R/r the square matrix `rows` of Q(t) values: the front
    through which Q(t) values reach `_charpoly`."""
    nums, r = _over_lcm([(v.numer, v.denom) for row in rows for v in row])
    return _square(nums), r


def _residue_matrix(N, d, f: Poly):
    """(R, r): the residue matrix of A = N/d at an irreducible monic f that
    divides d at most once, as R/r with R over Q[t] and r in Q[t]; zero
    where f does not divide d.  For deg f = k > 1 it is the matrix of the
    residue matrix as a Q(t)-linear map of K_f^n, K_f = Q(t)[x]/(f), each
    entry replaced by its multiplication matrix on 1, x, ..., x^(k-1)."""
    n, k = len(N), f.degree()
    zero = ([[_T_RING.zero] * (n * k) for _ in range(n * k)], _T_RING.one)
    dd = d.diff(_X)
    if k == 1:
        c = low_coeffs(f)[0]
        p, q = -c.numer, c.denom  # f = x - p/q
        D = max(v.degree(1) for v in (d, *itertools.chain(*N)))
        pw, qw = [_T_RING.one], [_T_RING.one]
        for _ in range(D):
            pw.append(pw[-1] * p)
            qw.append(qw[-1] * q)
        w = [a * b for a, b in zip(pw, reversed(qw))]  # p^j * q^(D-j)

        def at_root(v):
            return sum((cj * w[j] for j, cj in _x_coeffs(v).items()),
                       _T_RING.zero)

        if at_root(d):
            return zero
        return [[at_root(v) for v in row] for row in N], at_root(dd)
    if _in_x(d).rem(f):
        return zero
    inv = _in_x(dd).invert(f)
    powers = [_poly(x**j, x) for j in range(k)]
    rows = [[None] * (n * k) for _ in range(n * k)]
    for i in range(n):
        for j in range(n):
            r = (_in_x(N[i][j]) * inv).rem(f)
            for m, xm in enumerate(powers):
                col = low_coeffs((r * xm).rem(f), k)
                for l in range(k):
                    rows[i * k + l][j * k + m] = col[l]
    return _qt_matrix(rows)


def _scalar(R, r):
    """s in Q(t) with R/r = s*I, or None when R is not scalar."""
    s = R[0][0]
    if any(v != (s if i == j else 0)
           for i, row in enumerate(R) for j, v in enumerate(row)):
        return None
    return COEFF_FIELD.field.new(s, r)


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
        exps = {f: _int_roots(_charpoly(*_residue_matrix(q.N, q.d, f)))
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
    lift = {f: q.lifts[f] if f in q.lifts else _lift(f) for f in den_exp}
    D = math.prod((lift[f] ** e for f, e in den_exp.items()), start=_TX_RING.one)
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
        Xb *= lift[f] ** (E - e - factors_A.get(f, 0))
    X = Xb * _lc_x(D).set_ring(_TX_RING)
    M = q.d * X
    S = sum((e * lift[f].diff(_X) * _exquo(M, lift[f])
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
    part, kern = solve_affine(rows, rhs)
    d_u = _in_x(D).monic()

    def to_vec(coeffs):
        w = ndeg + 1
        return [from_low_coeffs(coeffs[i * w:(i + 1) * w], d_u)
                for i in range(n)]

    basis = [to_vec(v) for v in kern]
    particular = None
    if part is not None:
        particular = to_vec(part) if not b_zero else [ZERO] * n
    return SolutionSpace(particular=particular, basis=basis, complete=complete)


# -- hyperexponential solutions --------------------------------------------------


def hyperexponential_classes(M: DiffSystem):
    """All classes exp(int r) * (rational solution space), r with simple poles.

    Returns (list of (RatFunc, SolutionSpace), complete).  Requires simple
    finite poles; candidates come from Q(t)-rational local exponents, and
    complete is False when one outside Q(t) was skipped or an ansatz was
    bounded: then a class may be missing.
    """
    q = _common(M.A)
    if any(e > 1 for e in q.poles.values()):
        raise NonFuchsianError(
            "hyperexponential search requires simple finite poles; supply an "
            "invariant-flag certificate instead"
        )
    complete = True
    factors = sorted(q.poles, key=lambda f: sp.default_sort_key(f.as_expr()))
    roots, scalars = {}, {}
    per_factor = []
    for f in factors:
        R, r = _residue_matrix(q.N, q.d, f)
        qt = roots[f] = _qt_roots(_charpoly(R, r))
        scalars[f] = _scalar(R, r)
        complete = complete and len(qt) == len(R)
        per_factor.append(list(dict.fromkeys(qt)) or [COEFF_FIELD.zero])

    # one candidate character r = sum e_f * f'/f per choice of the e_f
    dlogs = _dlogs(q)
    out = []
    for es in _class_reps(list(itertools.product(*per_factor))):
        shift = dict(zip(factors, es))
        shifted = _shift(q, dlogs, shift)
        space = _ansatz(shifted, None,
                        _shifted_local(shifted, roots, scalars, shift), _BOUND)
        if space.basis:
            r = sum((RatFunc(FIELD.convert_from(e, COEFF_FIELD))
                     * from_low_coeffs(low_coeffs(f.diff()), f)
                     for f, e in shift.items()), ZERO)
            out.append((r, space))
        complete = complete and space.complete
    return out, complete


def _class_reps(candidates):
    """The first exponent tuple es of each class of the characters
    sum e_f * f'/f modulo logarithmic derivatives.  Over distinct
    irreducible f, two differ by one exactly when every difference of their
    e_f is an integer."""
    reps = []
    for es in candidates:
        if not any(all(_as_int(e - d) is not None for e, d in zip(es, ds))
                   for ds in reps):
            reps.append(es)
    return reps


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


def _shifted_local(q: _Quotient, roots, scalars, shift):
    """`_local_data` of q = A - r*I for a Fuchsian A and r = sum e_f * f'/f,
    from the Q(t) roots of A's residue characteristic polynomials and the
    scalars s_f with R_f = s_f*I (None where R_f is not scalar).

    The residue matrix of A - r*I at f is R_f - e_f*I, so f stays a pole
    unless R_f = e_f*I, and its characteristic polynomial is chi_f(lam + e_f).
    An integer root l of that makes l + e_f a Q(t) root of chi_f, so the
    integer exponents at f are the integers among the rho - e_f."""
    factors = {f: 1 for f in roots
               if scalars[f] is None or scalars[f] != shift[f]}
    omega, lead = _infinity_data(q.N, q.d)
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
