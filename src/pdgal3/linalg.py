"""Exact linear algebra over Q(t) and K = Q(t)(x): the package's one
elimination path.

Over K, every inverse, kernel, rank and basis completion is read off one
reduced row echelon form, computed by sympy's DomainMatrix rref (sparse
Gauss-Jordan over the field); the K entry points take and return RatFunc
values.

Over Q(t), `_certified_rref` returns the RREF solution of [A|b] without
eliminating over Q(t), in the form that its certificate proves: the pivot
columns, and for every free column f (the column b included) one Q[t]
denominator Q_f and the Q[t] numerators N_q over it, one per pivot q < f,
so that col_f * Q_f = sum of N_q * col_q.  The RREF entry of row q in
column f is N_q/Q_f.  A caller that builds its own values from the answer,
as the rational solver does, reads this form; `solve_affine` is its Q(t)
view, canonical Q(t) domain elements (`nullspace` is its homogeneous case).
Both take Q(t) domain elements, Q[t] ring elements or ints, and work in
three steps (McClellan, JACM 1973; Kaltofen-Lee-Lobo, ISSAC 2000):

- Specialize.  Each row is cleared of its denominators, and of those of its
  coefficients, into Z[t] (scaling a row keeps the RREF).  [A|b] is
  evaluated at the integer points t = 1, -1, 2, -2, ... modulo a prime p
  below 2**127 and reduced over GF(p) by Gauss-Jordan.  A column set
  independent at a point mod p is independent over Q(t) (its minor is a
  nonzero polynomial), so the Q(t) rank profile is the least one seen,
  ordered by (-rank, then the pivots lexicographically).  Only points that
  show it are kept; a smaller one restarts the collection.  A point keeps
  only the entries of its free (non-pivot) columns, and no point is used
  twice, not even mod another prime.
- Reconstruct.  Each entry of a free column is rebuilt mod p from its
  values by Newton interpolation or, where that is no polynomial, by
  rational reconstruction (extended Euclid; the candidate of maximal
  quotient degree).  A spare point must confirm each entry, and too few
  points double their number.  One running common denominator Q, monic,
  carried from column to column, makes most entries polynomials.  The
  images mod successive primes are joined by CRT (a change of degrees
  starts them over), and each coefficient is lifted to the fraction it
  determines with MARGIN bits to spare (Wang's reconstruction); where one
  has none, the next prime joins.
- Certify over Z[t].  For every free column f, with numerators N_q over the
  pivots q < f: col_f * Q_f == sum of N_q * col_q.  For f = n, the column
  b, that is A * part == b.  A failed certificate doubles the points at the
  same prime, up to the bound below, then asks for the next prime.

Why the result is exact.  The pivots P are independent at a point, so over
Q(t).  Each free column is certified to lie in the span of the pivot
columns before it, so the columns before any j span what the pivots before
j span: every j in P is a Q(t) greedy pivot and no other column is.  The
certified coefficients are then the unique RREF entries.  When b is a
pivot, the system is inconsistent: rank [A|b] > rank A.

Termination.  Let B be the sum of the r largest row degrees, r <= n + 1.
The entries, times Q, are quotients of r x r minors, of degree <= B each.
A prime is bad when the pivot minor vanishes mod p, or when it divides a
denominator or a leading coefficient of the answer: finitely many are.
For a good prime at most B points are unlucky (roots of the pivot minor
mod p), and from 4B + 2 good points on every reconstruction is the image
of the answer.  Once the primes of one run of images multiply past
2**(MARGIN + 1) * H**2, H the largest numerator or denominator of a
coefficient, the lift is the answer, and it certifies.  A run of `window`
primes without a certificate may hold a bad prime: it is dropped, and the
window and the points double, so a run of good primes comes that is long
enough.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from sympy import QQ, ZZ
from sympy.ntheory import prevprime
from sympy.polys.densearith import dup_add, dup_mul
from sympy.polys.galoistools import gf_div, gf_eval, gf_mul, gf_strip, gf_sub
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement

from .ratfunc import COEFF_FIELD, FIELD, ONE, RatFunc, ZERO, _T_RING, ratfunc


# -- over Q(t): specialize, reconstruct, certify ---------------------------------
#
# A polynomial in t is a coefficient list, highest degree first (sympy's dup
# form): over Z once a row is cleared, over GF(p) once specialized, over Q
# once lifted.

#: bits to spare in a rational reconstruction of a coefficient: a residue
#: that is no image of a small fraction passes with odds about 2**-MARGIN
MARGIN = 20


def _point(j: int) -> int:
    """The j-th evaluation point of t: 1, -1, 2, -2, 3, ..."""
    return (j // 2 + 1) * (-1) ** j


def _primes():
    """The moduli: the primes from 2**127 - 1 (a Mersenne prime) down."""
    p = 2**127 - 1
    while True:
        yield p
        p = prevprime(p)


def _cleared(row) -> dict:
    """{column: integer coefficient list} of the nonzero entries of a row of
    Q[t] or Q(t) values or ints, times one nonzero element of Q[t]."""
    nums, fracs = {}, {}
    for j, v in enumerate(row):
        if not v:
            continue
        if not isinstance(v, PolyElement):
            v = COEFF_FIELD.convert(v)
            if v.denom != _T_RING.one:
                fracs[j] = v
                continue
            v = v.numer
        nums[j] = v
    if fracs:
        den = functools.reduce(PolyElement.lcm, (v.denom for v in fracs.values()))
        nums = {j: p * den for j, p in nums.items()}
        nums.update((j, v.numer * den.exquo(v.denom)) for j, v in fracs.items())
    return _integer({j: p.to_dense() for j, p in nums.items()})


def _integer(dense: dict) -> dict:
    """The coefficient lists over Q of `dense`, all times one positive
    integer, as integer lists."""
    scale = math.lcm(*(c.denominator for cs in dense.values() for c in cs))
    return {j: [c.numerator * (scale // c.denominator) for c in cs]
            for j, cs in dense.items()}


def _subtract(r: dict, a: int, s: dict, p: int) -> None:
    """r -= a*s over GF(p), in place, dropping zeros."""
    for j, v in s.items():
        if w := (r.get(j, 0) - a * v) % p:
            r[j] = w
        else:
            del r[j]


def _rref_at(rows, t0: int, p: int):
    """(RREF rows [{column: value}], pivots) over GF(p) of the rows at
    t = t0: each row is reduced by the pivot rows so far, and its leading
    entry then clears its column from them."""
    reduced = {}
    for row in rows:
        r = {j: v for j, cs in row.items() if (v := gf_eval(cs, t0, p, ZZ))}
        for c in [c for c in r if c in reduced]:
            _subtract(r, r[c], reduced[c], p)
        if r:
            c = min(r)
            inv = pow(r[c], -1, p)
            r = {j: v * inv % p for j, v in r.items()}
            for s in reduced.values():
                if c in s:
                    _subtract(s, s[c], r, p)
            reduced[c] = r
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], tuple(pivots)


def _times_linear(P, a: int, p: int):
    """P * (t - a) over GF(p)."""
    return [(u - a * v) % p for u, v in zip(P + [0], [0] + P)]


class _Nodes(NamedTuple):
    """Evaluation points of t over GF(p), with M = prod (t - a) over them and
    the inverses of their differences."""
    points: list
    p: int
    M: list
    inv: dict


def _nodes(points, p: int) -> _Nodes:
    M = [1]
    for a in points:
        M = _times_linear(M, a, p)
    diffs = {a - b for i, a in enumerate(points) for b in points[:i]}
    return _Nodes(points, p, M, {d: pow(d, -1, p) for d in diffs})


def _reconstruct(nodes: _Nodes, ys):
    """(N, D), D monic, over GF(p) with N/D = ys at the points, confirmed by
    a spare point; None when the points do not determine one."""
    points, p = nodes.points, nodes.p
    k = len(points)
    c = list(ys)
    for i in range(1, k):
        for j in range(k - 1, i - 1, -1):
            c[j] = (c[j] - c[j - 1]) * nodes.inv[points[j] - points[j - i]] % p
    P = [c[-1]]
    for j in range(k - 2, -1, -1):
        P = _times_linear(P, points[j], p)
        P[-1] = (P[-1] + c[j]) % p
    P = gf_strip(P)
    if 2 * len(P) < k + 1:
        return P, [1]
    # maximal quotient rational reconstruction: the candidate (r, s), with
    # r = s*P mod M, has deg r + deg s = k - deg q for its quotient q, and
    # no quotient after r1 can be longer than deg r1
    r0, r1, s0, s1 = nodes.M, P, [], [1]
    best, top = None, 1
    while r1:
        q, r = gf_div(r0, r1, p, ZZ)
        if len(q) - 1 > top:
            best, top = (r1, s1), len(q) - 1
        if len(r1) - 1 <= top:
            break
        r0, r1, s0, s1 = r1, r, s1, gf_sub(s0, gf_mul(q, s1, p, ZZ), p, ZZ)
    if best is None or not all(gf_eval(best[1], a, p, ZZ) for a in points):
        return None
    N, D = best
    lc = pow(D[0], -1, p)
    return [v * lc % p for v in N], [v * lc % p for v in D]


def _column(nodes: _Nodes, vals, Q, qs):
    """(Q, qs, [N_r]) over GF(p): the entry r of the column is N_r/Q at every
    point, vals holding one list of entries per point.  Q starts as the given
    running denominator, with its values qs at the points, and grows by the
    denominators found; None when an entry is not reconstructed."""
    p = nodes.p
    nums = []
    for r in range(len(vals[0])):
        ys = [v[r] * q % p for v, q in zip(vals, qs)]
        if not any(ys):
            nums.append([])
            continue
        rec = _reconstruct(nodes, ys)
        if rec is None:
            return None
        N, D = rec
        if len(D) > 1:
            nums = [gf_mul(m, D, p, ZZ) for m in nums]
            Q = gf_mul(Q, D, p, ZZ)
            qs = [q * gf_eval(D, a, p, ZZ) % p
                  for q, a in zip(qs, nodes.points)]
        nums.append(N)
    return Q, qs, nums


def _columns(points, values, pivots, p: int):
    """{free column f: (Q_f, {pivot q < f: N_q})} over GF(p), one running
    denominator carried from column to column; None when an entry is not
    reconstructed."""
    nodes = _nodes(points, p)
    cols = {}
    Q, qs = [1], [1] * len(points)
    for f in values[0]:
        col = _column(nodes, [v[f] for v in values], Q, qs)
        if col is None:
            return None
        Q, qs, nums = col
        cols[f] = Q, dict(zip(pivots, nums))
    return cols


def _rational(u: int, m: int):
    """a/b in Q with a = b*u mod m, |a| and b below sqrt(m / 2**(MARGIN+1))
    (Wang's reconstruction, MARGIN bits to spare); None when there is none."""
    bound = math.isqrt(m >> (MARGIN + 1))
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return QQ(r1, s1)


def _certified(rows, cols) -> bool:
    """Whether col_f * Q_f == sum of N_q * col_q over Q[t], for every free
    column f with cols[f] = (Q_f, {q: N_q})."""
    for f, (Q, nums) in cols.items():
        w = _integer({f: Q} | {q: [-v for v in N] for q, N in nums.items()})
        for row in rows:
            acc = []
            for j, ws in w.items():
                if j in row:
                    acc = dup_add(acc, dup_mul(row[j], ws, ZZ), ZZ)
            if acc:
                return False
    return True


def _specialized(rows, ncols):
    """(pivots, {free column f: (Q_f, {pivot q < f: N_q})}) of the RREF of
    the cleared rows over Q(t), certified, with coefficients in Q."""
    degs = sorted((max(map(len, row.values())) - 1 for row in rows if row),
                  reverse=True)
    bound = 4 * sum(degs[:ncols]) + 2
    js = itertools.count()  # no point is used twice, not even mod another p
    best, k = None, 2
    images, window = None, 4  # (shape, residues, modulus, primes), its cap
    for p in _primes():
        rows_p = [{j: [c % p for c in cs] for j, cs in row.items()}
                  for row in rows]
        points, values, skipped, trial = [], [], 0, None
        while skipped <= bound:
            t0 = _point(next(js))
            R, pivots = _rref_at(rows_p, t0, p)
            key = (-len(pivots), pivots)
            if best is not None and key > best:
                skipped += 1
                continue
            if key != best:
                best, points, values, images, trial = key, [], [], None, None
            points.append(t0)
            values.append({f: [R[r].get(f, 0) for r, q in enumerate(pivots)
                               if q < f]
                           for f in range(ncols) if f not in pivots})
            if len(points) < k:
                continue
            cols = _columns(points, values, pivots, p)
            if cols is not None:
                trial = _combined(images, cols, p)
                cand = _as_fractions(trial, cols)
                if cand is None:
                    break  # the primes so far do not determine it
                if _certified(rows, cand):
                    return pivots, cand
            if k >= bound:
                break
            k *= 2  # too few points for a reconstruction, or a wrong one
        if trial is not None:
            images = trial
        if images is not None and images[3] >= window:
            # no certificate from `window` primes: one of them may be bad;
            # start over with twice as many primes and points
            images, window = None, 2 * window
            k = max(k, min(2 * k, bound))


def _combined(images, cols, p: int):
    """The images mod the primes so far, with `cols` mod p joined by CRT;
    a new start when the shapes differ."""
    shape = [(len(Q), [len(N) for N in nums.values()])
             for Q, nums in cols.values()]
    flat = [c for Q, nums in cols.values()
            for c in itertools.chain(Q, *nums.values())]
    if images is None or images[0] != shape:
        return shape, flat, p, 1
    _, old, m, n = images
    inv = pow(m, -1, p)
    return shape, [u + m * ((v - u) * inv % p) for u, v in zip(old, flat)], \
        m * p, n + 1


def _as_fractions(images, cols):
    """`cols` with every coefficient the fraction its images determine;
    None when one has no reconstruction."""
    lifted = []
    for u in images[1]:
        if (v := _rational(u, images[2])) is None:
            return None
        lifted.append(v)
    it = iter(lifted)
    return {f: ([next(it) for _ in Q],
                {q: [next(it) for _ in N] for q, N in nums.items()})
            for f, (Q, nums) in cols.items()}


def _certified_rref(A, b):
    """The RREF solution of [A|b] over Q(t) in its certified form, for a
    nonempty A with rows as in `solve_affine`: (pivots, cols), pivots the
    pivot columns of [A|b], and cols[f] = (Q_f, {pivot q < f: N_q}) for
    every free column f, column n being b, with Q_f and N_q in Q[t] as
    coefficient lists over Q, highest degree first."""
    return _specialized([_cleared(list(row) + [c]) for row, c in zip(A, b)],
                        len(A[0]) + 1)


def solve_affine(A, b):
    """All solutions of A v = b over Q(t): the Q(t) view of `_certified_rref`.

    A: list of rows of Q(t) domain elements, Q[t] ring elements or ints; b:
    a list of the same.  Returns (particular, kernel_basis) as Q(t) domain
    elements, those of the RREF of [A|b]; particular is None when the system
    is inconsistent.
    """
    if not A:
        return [], []
    n = len(A[0])
    pivots, cols = _certified_rref(A, b)

    def vector(f, sign):
        Q, nums = cols[f]
        Q = _T_RING.from_list(Q)
        v = [COEFF_FIELD.zero] * n
        for p, N in nums.items():
            if N:
                N = _T_RING.from_list([sign * c for c in N])
                v[p] = (COEFF_FIELD.field.field_new(N) if Q == 1
                        else COEFF_FIELD.field.new(N, Q))
        return v

    kernel = []
    for f in range(n):
        if f not in pivots:
            v = vector(f, -1)
            v[f] = COEFF_FIELD.one
            kernel.append(v)
    return (vector(n, 1) if n not in pivots else None), kernel


def nullspace(A):
    """Kernel basis of A over Q(t), as Q(t) domain elements."""
    return solve_affine(A, [0] * len(A))[1]


# -- over K = Q(t)(x), RatFunc values at the boundary ------------------------------


def _k_rref(rows):
    rows = [[ratfunc(v)._elem for v in row] for row in rows]
    R, pivots = DomainMatrix(rows, (len(rows), len(rows[0])), FIELD).rref()
    return R.to_list(), list(pivots)


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
    """Basis of the right kernel of a matrix over K (columns as vectors): the
    RREF kernel basis, one vector per free column."""
    if not rows:
        return []
    R, pivots = _k_rref(rows)
    n = len(R[0])
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [ZERO] * n
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = RatFunc(-R[r][f])
            basis.append(v)
    return basis


def pivot_columns(A):
    """Indices of the RREF pivot columns of A over K: the columns that are
    not in the span of the columns before them."""
    return _k_rref(A)[1]


def column_rank(S):
    return len(pivot_columns(S))
