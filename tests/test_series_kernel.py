"""The series oracle's Z[t] kernel: products by Kronecker substitution, and
the one-denominator check in `satisfies`."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from pdgal3 import series
from pdgal3.series import (
    SeriesMatrix,
    delta_series,
    fundamental_series,
    ordinary_point,
    satisfies,
    series_block,
    series_kron,
)
from pdgal3.systems import prolong
from util import random_fuchsian

_ZT = series._ZT
_T = series._T

#: coefficients up to 2^256 in absolute value, with zero and the bounds
coeffs = st.one_of(st.just(0), st.integers(-(2**256), 2**256),
                   st.sampled_from([2**256, -(2**256), 2**255, -(2**255)]))


@st.composite
def zt_polys(draw, max_degree=40):
    """Z[t] polynomials of degree up to max_degree, zero included; the
    leading coefficient takes either sign."""
    cs = draw(st.lists(coeffs, max_size=max_degree + 1))
    return _ZT.from_dict({(e,): c for e, c in enumerate(cs) if c})


def zt_matrices(n, m):
    return st.lists(st.lists(zt_polys(), min_size=m, max_size=m),
                    min_size=n, max_size=n)


@st.composite
def matrix_products(draw):
    """1 to 3 triples (s, X, Y) with X of size n x l and Y of size l x m."""
    n, l, m = (draw(st.integers(1, 3)) for _ in range(3))
    return [(draw(zt_polys()), draw(zt_matrices(n, l)), draw(zt_matrices(l, m)))
            for _ in range(draw(st.integers(1, 3)))]


def _reference_matsum(products):
    """sum of s X Y in sympy PolyElement arithmetic."""
    n, m = len(products[0][1]), len(products[0][2][0])
    return [[sum((s * X[i][l] * Y[l][c] for s, X, Y in products
                  for l in range(len(Y))), _ZT.zero)
             for c in range(m)]
            for i in range(n)]


@given(matrix_products())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_polyelement_arithmetic(products):
    assert series._matsum(products) == _reference_matsum(products)


@st.composite
def series_pairs(draw):
    """Two series at one point, of order 0 to 2 and dimension 1 or 2, with
    random numerators over random nonzero denominators."""
    N = draw(st.integers(0, 2))

    def one(n):
        dens = [draw(zt_polys(3).filter(bool)) for _ in range(N + 1)]
        return SeriesMatrix(x0=0, nums=tuple(series._freeze(draw(zt_matrices(n, n)))
                                             for _ in range(N + 1)),
                            dens=tuple(dens))

    return one(draw(st.integers(1, 2))), one(draw(st.integers(1, 2)))


@given(series_pairs())
@settings(max_examples=25, deadline=None)
def test_kron_matches_polyelement_arithmetic(UV):
    """Each coefficient of series_kron equals sum_j U_j (x) V_{k-j} in
    PolyElement arithmetic, over its own denominator."""
    U, V = UV
    K = series_kron(U, V)
    p, q = U.dim, V.dim
    for k in range(U.order + 1):
        R = K.dens[k]
        for i1, i2, j1, j2 in itertools.product(range(p), range(q), range(p), range(q)):
            want = sum((U.nums[j][i1][j1] * V.nums[k - j][i2][j2]
                        * R.exquo(U.dens[j] * V.dens[k - j]) for j in range(k + 1)),
                       _ZT.zero)
            assert K.nums[k][i1 * q + i2][j1 * q + j2] == want


@given(zt_polys(), st.integers(0, 70))
@settings(max_examples=100, deadline=None)
def test_unpack_inverts_pack(p, extra):
    B = series._bits(max(map(abs, p.values()), default=0)) + extra
    assert series._unpack(series._pack(p, B), B) == p


def _criterion_1_block(N):
    """(prolonged system, block series) of the first 2 x 2 sample of
    criterion 1 whose series has t in its denominators."""
    rng = random.Random(101)
    for n in [1] * 18 + [2] * 28:
        M = random_fuchsian(rng, n)
        if n == 2:
            Mp = prolong(M)
            x0 = ordinary_point(Mp)
            U = fundamental_series(M, x0, N=N)
            if U.dens[-1].degree() > 0:
                return Mp, series_block([[U, delta_series(U)], [None, U]], x0, N)
    raise AssertionError("criterion 1 has no such sample")


def _moved(U, m, i, j, d):
    """U with d added to entry (i, j) of numerator m."""
    nums = [list(map(list, Q)) for Q in U.nums]
    nums[m][i][j] += d
    return SeriesMatrix(x0=U.x0, nums=tuple(map(series._freeze, nums)), dens=U.dens)


def test_carry_adversarial_perturbations_rejected():
    """2^b t^e - t^(e+1) vanishes at t = 2^b, so a substitution t = 2^B
    with B fixed (say 64) would accept the moved block for b = B."""
    Mp, blk = _criterion_1_block(8)
    assert satisfies(Mp, blk)
    n, N = blk.dim, blk.order
    for b in range(1, 301):
        e = b % 3
        d = 2**b * _T**e - _T**(e + 1)
        assert not d(2**b)
        m, i, j = 1 + b % N, b % n, (b // n) % n
        assert not satisfies(Mp, _moved(blk, m, i, j, d)), (b, m, i, j, e)


def test_no_per_order_lcm(monkeypatch):
    """satisfies takes as many lcms at order 3 as at order 8."""
    lcm, calls = series._lcm, []

    def counted(polys):
        calls.append(1)
        return lcm(polys)

    counts = {}
    for N in (3, 8):
        Mp, blk = _criterion_1_block(N)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(series, "_lcm", counted)
            assert satisfies(Mp, blk)
        counts[N] = len(calls)
    assert counts[3] == counts[8], counts
