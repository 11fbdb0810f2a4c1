"""Category constructions on differential systems, checked both on paper
examples and against the power-series oracle."""

import math
import random

import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

from pdgal3.linalg import column_rank
from pdgal3.ratfunc import COEFF_FIELD, RatFunc, t, x
from pdgal3.series import (
    SeriesMatrix,
    delta_series,
    fundamental_series,
    ordinary_point,
    satisfies,
    series_block,
    series_inverse,
    series_kron,
    series_transpose,
)
from pdgal3.systems import (
    DiffSystem,
    direct_sum,
    dual,
    gauge,
    hom,
    mat,
    mat_identity,
    mat_inv,
    mat_mul,
    prolong,
    tensor,
    wedge,
)
from util import FUCHSIAN_DENS, random_fuchsian

A2 = DiffSystem([["1/x", "t"], ["0", "1/(x-t)"]])
B1 = DiffSystem([["t/(x+2)"]])
W3 = DiffSystem([["1/x", "t", "0"], ["1", "2/(x-1)", "t"], ["0", "0", "1/(x-t)"]])


class TestConstructions:
    def test_tensor_rank1_characters_add(self):
        assert tensor(DiffSystem([["t/x"]]), DiffSystem([["1/x"]])) == DiffSystem(
            [["(t+1)/x"]]
        )

    def test_dual_rank1(self):
        assert dual(DiffSystem([["t/x"]])) == DiffSystem([["-t/x"]])

    def test_wedge_top_is_trace(self):
        assert wedge(W3, 3) == DiffSystem([["1/x + 2/(x-1) + 1/(x-t)"]])

    def test_prolong_display(self):
        assert prolong(DiffSystem([["t/x"]])) == DiffSystem(
            [["t/x", "1/x"], ["0", "t/x"]]
        )

    def test_prolong_zero(self):
        assert prolong(DiffSystem([["0"]])) == DiffSystem([["0", "0"], ["0", "0"]])

    def test_prolong_t_free_is_block_diagonal(self):
        M = DiffSystem([["1/x", "1"], ["0", "2/(x-1)"]])
        P = prolong(M)
        for i in range(2):
            for j in range(2):
                assert P.A[i][2 + j].is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(A2, 3)
        with pytest.raises(ValueError):
            DiffSystem([["1", "2"]])


def _kron(A, B):
    """Kronecker product; row/column index i1*rows(B) + i2.  The reference
    that `tensor` no longer multiplies out."""
    return tuple(
        tuple(A[i1][j1] * B[i2][j2] for j1 in range(len(A[0]))
              for j2 in range(len(B[0])))
        for i1 in range(len(A)) for i2 in range(len(B)))


def _ref_tensor(M1, M2):
    """kron(A, I) + kron(I, B), through products with ONE and ZERO."""
    K1 = _kron(M1.A, mat_identity(M2.dim))
    K2 = _kron(mat_identity(M1.dim), M2.A)
    return [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(K1, K2)]


class TestTensor:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_kronecker_reference(self, data):
        """Entry by entry, as stored numerator and denominator."""
        M1, M2 = data.draw(fuchsian_systems()), data.draw(fuchsian_systems())
        got = tensor(M1, M2).A
        want = _ref_tensor(M1, M2)
        assert [[v.xt_pair() for v in row] for row in got] == [
            [v.xt_pair() for v in row] for row in want]

    def test_takes_no_product(self, monkeypatch):
        M1, M2 = W3, A2

        def no_product(*args):
            raise AssertionError("tensor multiplied two entries")

        monkeypatch.setattr(RatFunc, "__mul__", no_product)
        monkeypatch.setattr(RatFunc, "__rmul__", no_product)
        got = tensor(M1, M2)
        monkeypatch.undo()
        assert got == DiffSystem(_ref_tensor(M1, M2))


class TestGauge:
    def test_identity(self):
        assert gauge(A2, mat_identity(2)) == A2

    def test_scalar_example(self):
        # Y = x*Z: x*dZ/dx + Z = 0
        assert gauge(DiffSystem([["0"]]), [["x"]]) == DiffSystem([["-1/x"]])

    def test_action_law(self):
        P = [["x", "1"], ["0", "x-t"]]
        Q = [["1", "t"], ["x", "1"]]
        assert gauge(gauge(A2, P), Q) == gauge(A2, mat_mul(mat(P), mat(Q)))

    def test_inverse_gauge_roundtrip(self):
        P = mat([["x", "1"], ["t", "x-t"]])
        assert gauge(gauge(A2, P), mat_inv(P)) == A2

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            gauge(A2, [["1", "1"], ["1", "1"]])


class TestSeriesOracle:
    def test_exponential(self):
        U = fundamental_series(DiffSystem([["1"]]), 0, 4)
        assert [U.coeff_exprs(k)[0][0] for k in range(5)] == [
            1,
            1,
            sp.Rational(1, 2),
            sp.Rational(1, 6),
            sp.Rational(1, 24),
        ]

    def test_trivial(self):
        U = fundamental_series(DiffSystem([["0"]]), 5, 4)
        assert all(U.coeff_exprs(k)[0][0] == (1 if k == 0 else 0) for k in range(5))

    def test_moving_coefficient(self):
        # dY/dx = t/(x+1) Y at 0: 1 + t x + (t^2 - t) x^2/2 + ...
        from sympy.abc import t as ts

        U = fundamental_series(DiffSystem([["t/(x+1)"]]), 0, 3)
        got = [sp.cancel(U.coeff_exprs(k)[0][0]) for k in range(3)]
        assert got == [1, ts, sp.cancel(ts**2 / 2 - ts / 2)]

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            fundamental_series(DiffSystem([["1/x"]]), 0, 4)

    def test_ordinary_point_deterministic(self):
        assert ordinary_point(DiffSystem([["1/x"]])) == 1
        assert ordinary_point(A2) == 1
        assert ordinary_point(B1) == 0

    def test_delta_of_constant_series(self):
        U = fundamental_series(DiffSystem([["1"]]), 0, 4)
        dU = delta_series(U)
        assert all(
            v == 0 for k in range(5) for row in dU.coeff_exprs(k) for v in row
        )

    def test_delta_constant_term_zero(self):
        U = fundamental_series(B1, 0, 5)
        assert all(v == 0 for row in delta_series(U).coeff_exprs(0) for v in row)


class TestFunctoriality:
    N = 6

    def test_tensor_identity(self):
        UA = fundamental_series(A2, 1, self.N)
        UB = fundamental_series(B1, 1, self.N)
        assert satisfies(tensor(A2, B1), series_kron(UA, UB))

    def test_dual_identity(self):
        UA = fundamental_series(A2, 1, self.N)
        assert satisfies(dual(A2), series_transpose(series_inverse(UA)))

    def test_direct_sum_identity(self):
        UA = fundamental_series(A2, 1, self.N)
        UB = fundamental_series(B1, 1, self.N)
        blk = series_block([[UA, None], [None, UB]], 1, self.N)
        assert satisfies(direct_sum(A2, B1), blk)

    def test_prolongation_identity(self):
        UA = fundamental_series(A2, 1, self.N)
        blk = series_block([[UA, delta_series(UA)], [None, UA]], 1, self.N)
        assert satisfies(prolong(A2), blk)

    def test_hom_dimension(self):
        assert hom(A2, W3).dim == 6

    def test_prolongation_identity_randomized(self):
        rng = random.Random(7)
        for _ in range(5):
            M = random_fuchsian(rng, rng.randint(1, 3))
            U = fundamental_series(M, None, 5)
            blk = series_block(
                [[U, delta_series(U)], [None, U]], U.x0, 5
            )
            assert satisfies(prolong(M), blk)

    def test_wedge2_identity(self):
        # minors of the fundamental matrix solve the compound system
        from itertools import combinations

        from pdgal3.ratfunc import COEFF_FIELD
        from pdgal3.series import SeriesMatrix

        N = self.N
        U3 = fundamental_series(W3, None, N)
        idx = list(combinations(range(3), 2))

        def entry(i, j):
            return [U3.coeffs[k][i][j] for k in range(N + 1)]

        def smul(u, v):
            return [
                sum((u[j] * v[k - j] for j in range(k + 1)), COEFF_FIELD.zero)
                for k in range(N + 1)
            ]

        def minor(I, J):
            a = smul(entry(I[0], J[0]), entry(I[1], J[1]))
            b = smul(entry(I[0], J[1]), entry(I[1], J[0]))
            return [u - v for u, v in zip(a, b)]

        minors = {(I, J): minor(I, J) for I in idx for J in idx}
        coeffs = [
            [[minors[(I, J)][k] for J in idx] for I in idx] for k in range(N + 1)
        ]
        C = SeriesMatrix.from_coeffs(U3.x0, coeffs)
        assert satisfies(wedge(W3, 2), C)


def _reference_series(M, x0, N):
    """U_0..U_N by the plain recurrence (k+1) U_{k+1} = sum_j A_j U_{k-j} in
    Q(t), with A_k = (d^k A/dx^k)(x0) / k! evaluated on sympy expressions."""
    n = M.dim
    A, D = [], M.A
    for k in range(N + 1):
        A.append([[COEFF_FIELD.from_sympy(sp.cancel(v.expr.subs(x, x0))) / math.factorial(k)
                   for v in row] for row in D])
        D = [[v.d_x() for v in row] for row in D]
    zero, one = COEFF_FIELD.zero, COEFF_FIELD.one
    U = [[[one if i == j else zero for j in range(n)] for i in range(n)]]
    for k in range(N):
        U.append([[sum((A[j][i][l] * U[k - j][l][c]
                        for j in range(k + 1) for l in range(n)), zero) / (k + 1)
                   for c in range(n)] for i in range(n)])
    return [tuple(map(tuple, C)) for C in U]


def _ref_ordinary_point(M):
    c = 0
    while any(sp.cancel(v.denominator.as_expr().subs(x, c)) == 0
              for row in M.A for v in row):
        c += 1
    return c


@st.composite
def fuchsian_systems(draw, sizes=(1, 2, 3)):
    """n x n systems whose entries are sums c/q, c in Z + Z t, q in
    FUCHSIAN_DENS: simple poles at 0, 1, -1 and t only."""
    n = draw(st.sampled_from(sizes))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1),
                                            st.sampled_from(FUCHSIAN_DENS)),
                                  max_size=2))
            row.append(RatFunc(sum(((a + b * t) / q for a, b, q in terms), sp.S.Zero)))
        rows.append(row)
    return DiffSystem(rows)


#: expansion points: the ordinary point the oracle picks, integers and 1/2
POINTS = [None, 2, -3, sp.Rational(1, 2)]


def _perturbed(U, data):
    """U with one entry of one coefficient k >= 1 moved by t.

    Coefficient 0 is left alone: U + t E_ij still solves the system when
    column i of A is zero, and satisfies is right to accept it."""
    k = data.draw(st.integers(1, U.order))
    i = data.draw(st.integers(0, U.dim - 1))
    j = data.draw(st.integers(0, U.dim - 1))
    coeffs = [[list(row) for row in C] for C in U.coeffs]
    coeffs[k][i][j] += COEFF_FIELD.from_sympy(t)
    return SeriesMatrix.from_coeffs(U.x0, coeffs)


class TestSeriesProperties:
    @given(fuchsian_systems(), st.sampled_from(POINTS), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_plain_recurrence(self, M, x0, N):
        x0 = ordinary_point(M) if x0 is None else x0
        assert fundamental_series(M, x0, N).coeffs == tuple(_reference_series(M, x0, N))

    @given(fuchsian_systems())
    @settings(max_examples=30, deadline=None)
    def test_ordinary_point_matches_sympy_route(self, M):
        assert ordinary_point(prolong(M)) == _ref_ordinary_point(prolong(M))

    @given(fuchsian_systems(), st.sampled_from(POINTS), st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_perturbed_prolongation_rejected(self, M, x0, N, data):
        Mp = prolong(M)
        x0 = ordinary_point(Mp) if x0 is None else x0
        U = fundamental_series(M, x0, N)
        blk = series_block([[U, delta_series(U)], [None, U]], x0, N)
        assert satisfies(Mp, SeriesMatrix.from_coeffs(x0, blk.coeffs))
        assert not satisfies(Mp, _perturbed(blk, data))

    @given(fuchsian_systems((1, 2)), fuchsian_systems((1, 2)),
           st.sampled_from([2, sp.Rational(1, 2)]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_perturbed_kron_rejected(self, MA, MB, x0, data):
        K = series_kron(fundamental_series(MA, x0, 4), fundamental_series(MB, x0, 4))
        assert satisfies(tensor(MA, MB), K)
        assert not satisfies(tensor(MA, MB), _perturbed(K, data))

    @given(fuchsian_systems(), st.sampled_from([2, sp.Rational(1, 2)]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_perturbed_dual_rejected(self, M, x0, data):
        D = series_transpose(series_inverse(fundamental_series(M, x0, 4)))
        assert satisfies(dual(M), D)
        assert not satisfies(dual(M), _perturbed(D, data))

    def test_half_integer_point(self):
        # (x / x0)^t at x0 = 1/2 is (1 + 2y)^t, y = x - 1/2
        from sympy.abc import t as ts

        U = fundamental_series(DiffSystem([["t/x"]]), sp.Rational(1, 2), 3)
        got = [sp.factor(U.coeff_exprs(k)[0][0]) for k in range(4)]
        want = [sp.factor(sp.expand_func(sp.binomial(ts, k)) * 2**k) for k in range(4)]
        assert got == want

    def test_pole_at_half_integer_rejected(self):
        with pytest.raises(ValueError):
            fundamental_series(DiffSystem([["1", "t/(2*x-1)"], ["0", "1"]]),
                               sp.Rational(1, 2), 3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            satisfies(A2, fundamental_series(B1, 0, 3))


class TestMatrixHelpers:
    def test_det_inverse(self):
        P = mat([["x", "1", "0"], ["t", "x-t", "1"], ["0", "1", "x"]])
        Pi = mat_inv(P)
        assert mat_mul(P, Pi) == mat_identity(3)
        assert column_rank(P) == 3
