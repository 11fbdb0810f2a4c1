"""Invariant subspaces, morphisms, extensions, composition factors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pdgal3.errors import CertificateError
from pdgal3.galois3 import classify2
from pdgal3.linalg import column_rank
from pdgal3.modules import (
    FlagCertificate,
    complete_basis,
    diag_decompose,
    is_invariant,
    k_nullspace,
    k_solve_right,
    morphisms,
    rank1_isomorphism,
    semisimplify,
    split_extension,
    sub_quotient,
)
from pdgal3.ratfunc import ZERO, d_x, ratfunc
from pdgal3.systems import (
    DiffSystem,
    direct_sum,
    dual,
    gauge,
    mat,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_transpose,
    prolong,
    vec,
)
from util import (FLAG_CERTS, LINE_E1, PLANE_E12, REFINABLE, hidden_sum3,
                  random_fuchsian, random_invertible)

M_TRI = DiffSystem([["t/x", "1"], ["0", "0"]])
M_NILP = DiffSystem([["0", "1"], ["0", "0"]])
M_JORDAN = prolong(DiffSystem([["t/x"]]))  # [[t/x, 1/x], [0, t/x]], non-split


class TestInvariant:
    def test_e1_upper_triangular(self):
        B = is_invariant(M_TRI, [["1"], ["0"]])
        assert B == ((ratfunc("t/x"),),)

    def test_e2_not_invariant(self):
        assert is_invariant(M_NILP, [["0"], ["1"]]) is None

    def test_sloped_line(self):
        # span (x, 1): A*S - dS/dx = 0 = S*0
        B = is_invariant(M_NILP, [["x"], ["1"]])
        assert B == ((ZERO,),)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            is_invariant(M_NILP, [["0"], ["0"]])

    def test_block_triangular_gauge(self):
        # the defining identity implies the triangular gauge form
        B, N, D, P = sub_quotient(M_TRI, [["1"], ["0"]])
        Mt = gauge(M_TRI, P)
        assert Mt.A[1][0].is_zero
        assert Mt.A[0][0] == B.A[0][0]


class TestSplitExtension:
    def test_nilpotent_splits(self):
        comp, B, D = split_extension(M_NILP, [["1"], ["0"]])
        assert comp is not None
        assert is_invariant(M_NILP, comp) == D.A
        assert is_invariant(M_NILP, [["1"], ["0"]]) == B.A

    def test_log_extension_does_not_split(self):
        comp, _, _ = split_extension(
            DiffSystem([["1/x", "1"], ["0", "0"]]), [["1"], ["0"]]
        )
        assert comp is None

    def test_prolongation_does_not_split(self):
        comp, _, _ = split_extension(M_JORDAN, [["1"], ["0"]])
        assert comp is None

    def test_scalar_self_extension_splits(self):
        # [[t/x, 1],[0, t/x]]: dF/dx = -1 is rationally solvable
        comp, _, _ = split_extension(
            DiffSystem([["t/x", "1"], ["0", "t/x"]]), [["1"], ["0"]]
        )
        assert comp is not None


class TestMorphisms:
    def test_endomorphisms_of_rank1(self):
        basis, complete = morphisms(DiffSystem([["t/x"]]), DiffSystem([["t/x"]]))
        assert complete and len(basis) == 1
        assert basis[0] == ((ratfunc(1),),)

    def test_no_morphism_on_non_integer_twist(self):
        basis, complete = morphisms(DiffSystem([["t/x"]]), DiffSystem([["0"]]))
        assert basis == [] and complete

    def test_double_dual(self):
        # dual is an involution, and the identity W -> dual(dual(W)) lies in
        # the span of the computed morphisms
        W = DiffSystem([["1/x", "t"], ["1", "0"]])
        WW = dual(dual(W))
        assert WW == W
        basis, _ = morphisms(W, WW)
        cols = tuple(zip(*(vec(U) for U in basis)))
        ident = tuple((v,) for v in vec(mat_identity(2)))
        assert k_solve_right(cols, ident) is not None

    def test_morphism_identity_exact(self):
        M1 = DiffSystem([["1/x", "1"], ["0", "2/x"]])
        M2 = DiffSystem([["1/x", "0"], ["0", "2/x"]])
        for U in morphisms(M1, M2)[0]:
            # dU/dx = A2 U - U A1
            for i in range(2):
                for j in range(2):
                    lhs = d_x(U[i][j])
                    rhs = sum(
                        (M2.A[i][k] * U[k][j] for k in range(2)), ZERO
                    ) - sum((U[i][k] * M1.A[k][j] for k in range(2)), ZERO)
                    assert lhs == rhs

    def test_rank1_isomorphism(self):
        u = rank1_isomorphism(ratfunc("t/x"), ratfunc("t/x + 2/x"))
        assert u is not None
        assert d_x(u) == (ratfunc("2/x")) * u
        assert rank1_isomorphism(ratfunc("t/x"), ratfunc("0")) is None


class TestDecompose:
    def test_already_triangular(self):
        V = DiffSystem(
            [["t/x", "1", "0"], ["0", "t/x", "1"], ["0", "0", "0"]]
        )
        D = diag_decompose(V)
        facs = sorted(b.to_strings() for b in D.blocks)
        assert facs == [[["0"]], [["t/x"]], [["t/x"]]]
        Vt = gauge(V, D.basis)
        assert all(Vt.A[i][j].is_zero for i in range(3) for j in range(i))

    def test_direct_sum_of_simple(self):
        W = DiffSystem([["0", "t/x"], ["1/(x-1)", "0"]])  # no rational lines
        assert len(diag_decompose(W).blocks) == 1
        V = direct_sum(W, DiffSystem([["0"]]))
        D = diag_decompose(V)
        assert sorted(b.dim for b in D.blocks) == [1, 2]

    def test_line_at_quadratic_pole_found(self):
        # e1 spans an invariant line whose character -2x/(x^2-t) has the
        # Q(t) residue -1 at both roots of x^2 - t
        W = DiffSystem([["-2*x/(x^2-t)", "1/x"], ["0", "0"]])
        assert [b.dim for b in diag_decompose(W).blocks] == [1, 1]
        assert classify2(W) == "CQ"

    def test_gauge_scrambled_factors_match(self):
        rng = random.Random(11)
        V = DiffSystem([["t/x", "1", "0"], ["0", "0", "1"], ["0", "0", "1/x"]])
        P = random_invertible(rng, 3)
        D0 = diag_decompose(V)
        D1 = diag_decompose(gauge(V, mat_inv(P)))
        f0 = [b.A[0][0] for b in D0.blocks]
        f1 = [b.A[0][0] for b in D1.blocks]
        # 1-dim factors pair up via rank-1 isomorphisms
        assert len(f0) == len(f1) == 3
        used = set()
        for a in f0:
            hit = next(
                j
                for j, b in enumerate(f1)
                if j not in used and rank1_isomorphism(a, b) is not None
            )
            used.add(hit)

    def test_flag_certificate(self):
        V = DiffSystem(
            [["t/x", "1", "0"], ["0", "t/x", "1"], ["0", "0", "0"]]
        )
        cert = FlagCertificate(
            subspaces=(
                mat([["1"], ["0"], ["0"]]),
                mat([["1", "0"], ["0", "1"], ["0", "0"]]),
            )
        )
        D = diag_decompose(V, cert)
        assert len(D.blocks) == 3
        Vt = gauge(V, D.basis)
        assert all(Vt.A[i][j].is_zero for i in range(3) for j in range(i))

    @pytest.mark.parametrize("cert", ["line", "plane"])
    def test_partial_certificate_refined(self, cert):
        D = diag_decompose(REFINABLE, FLAG_CERTS[cert])
        assert [b.A[0][0] for b in D.blocks] == [
            ratfunc("t/x"), ratfunc("0"), ratfunc("1/x")]

    @pytest.mark.parametrize("name, cert", [
        ("refinable", "none"), ("refinable", "full"), ("refinable", "line"),
        ("refinable", "plane"), ("hidden-sum", "none"), ("hidden-sum", "full"),
    ])
    def test_module_diag_carries_its_normal_form(self, name, cert):
        # search, full-certificate and refined partial-certificate routes
        M = REFINABLE if name == "refinable" else hidden_sum3()
        D = diag_decompose(M, FLAG_CERTS[cert])
        assert D.T == gauge(M, D.basis)
        assert sum(D.dims) == M.dim
        start = 0
        for d, b in zip(D.dims, D.blocks):
            rows = range(start, start + d)
            assert b.A == tuple(D.T.A[i][start:start + d] for i in rows)
            assert all(D.T.A[i][j].is_zero for i in range(start + d, M.dim)
                       for j in rows)
            start += d

    def test_bad_certificate_rejected(self):
        V = DiffSystem([["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]])
        cert = FlagCertificate(subspaces=(mat([["0"], ["1"], ["0"]]),))
        with pytest.raises(ValueError):
            diag_decompose(V, cert)

    @pytest.mark.parametrize("subspaces, message", [
        ((PLANE_E12, LINE_E1), "strictly increase"),
        ((LINE_E1, LINE_E1), "strictly increase"),
        ((LINE_E1, (("1",), ("0",))), "3 rows"),
        # the pivot count of [S1 | S2] alone would pass S2 = (e2, e2)
        ((LINE_E1, (("0", "0"), ("1", "1"), ("0", "0"))), "independent"),
        ((LINE_E1, (("0", "0"), ("1", "0"), ("0", "1"))), "not nested"),
        (((("0",), ("1",), ("0",)),), "not invariant"),
    ])
    def test_each_bad_certificate_has_its_message(self, subspaces, message):
        # every coordinate subspace of the diagonal system is invariant, and
        # e2 is not invariant for the triangular one
        V = (REFINABLE if message == "not invariant" else
             DiffSystem([["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]]))
        with pytest.raises(CertificateError, match=message):
            diag_decompose(V, FlagCertificate(subspaces=subspaces))

    def test_empty_certificate_is_the_trivial_flag(self):
        # its one block is V; like every certificate block, it is then
        # searched for lines
        D = FlagCertificate(subspaces=()).triangularize(REFINABLE)
        assert D.dims == (3,) and D.T == REFINABLE
        D = diag_decompose(REFINABLE, FlagCertificate(subspaces=()))
        assert D.dims == (1, 1, 1)


class TestSemisimplify:
    def test_diagonal(self):
        S3 = DiffSystem([["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]])
        ok, P, blocks = semisimplify(S3)
        assert ok is True and len(blocks) == 3

    def test_split_but_hidden(self):
        ok, P, blocks = semisimplify(DiffSystem([["t/x", "1"], ["0", "t/x"]]))
        assert ok is True
        assert gauge(DiffSystem([["t/x", "1"], ["0", "t/x"]]), P) == DiffSystem(
            [["t/x", "0"], ["0", "t/x"]]
        )

    @pytest.mark.parametrize("cert", ["none", "full"])
    def test_three_blocks_split_by_one_gauge(self, cert):
        V = hidden_sum3()
        ok, P, blocks = semisimplify(V, diag_decompose(V, FLAG_CERTS[cert]))
        assert ok is True and len(blocks) == 3
        Vt = gauge(V, P)
        assert all(Vt.A[i][j].is_zero for i in range(3) for j in range(3)
                   if i != j)

    def test_nonsplit(self):
        ok, _, _ = semisimplify(M_JORDAN)
        assert ok is False

    def test_gauge_invariant_verdict(self):
        rng = random.Random(5)
        P = random_invertible(rng, 2)
        ok1, _, _ = semisimplify(M_JORDAN)
        ok2, _, _ = semisimplify(gauge(M_JORDAN, mat_inv(P)))
        assert ok1 == ok2 is False
        D = DiffSystem([["t/x", "0"], ["0", "1/x"]])
        assert semisimplify(gauge(D, mat_inv(P)))[0] is True


class TestLinearAlgebraHelpers:
    def test_solve_right(self):
        S = mat([["1"], ["x"]])
        C = mat([["t"], ["t*x"]])
        assert k_solve_right(S, C) == ((ratfunc("t"),),)
        assert k_solve_right(S, mat([["1"], ["0"]])) is None

    def test_nullspace(self):
        null = k_nullspace(mat([["1", "x", "0"]]))
        assert len(null) == 2
        for v in null:
            assert (v[0] + ratfunc("x") * v[1]).is_zero

    def test_complete_basis(self):
        P = complete_basis(mat([["x"], ["1"], ["0"]]))
        assert column_rank(P) == len(P)

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError):
            mat_inv(mat([["x", "1"], ["x^2", "x"]]))

    def test_solve_right_rank_deficient_and_inconsistent(self):
        with pytest.raises(ValueError):
            k_solve_right(mat([["1", "x"], ["t", "t*x"]]), mat([["1"], ["t"]]))
        S = mat([["1"], ["x"], ["0"]])
        assert k_solve_right(S, mat([["t"], ["t*x"], ["1"]])) is None

    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_random_gauge_properties(self, seed, n):
        rng = random.Random(seed)
        P = random_invertible(rng, n)
        assert mat_mul(mat_inv(P), P) == mat_identity(n)
        k = rng.randint(1, n)
        S = tuple(row[:k] for row in P)
        Q = complete_basis(S)
        assert tuple(row[:k] for row in Q) == S
        assert column_rank(Q) == len(Q)
        # k independent rows plus a dependent one: an (n-k)-dim kernel
        rows = mat_transpose(S)
        rows += (tuple(ratfunc("x") * v for v in rows[0]),)
        null = k_nullspace(rows)
        assert len(null) == n - k
        for v in null:
            for row in rows:
                assert sum((a * b for a, b in zip(row, v)), ZERO).is_zero
