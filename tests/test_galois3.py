"""Case dispatch for 3-dim systems: typing, branch selection, emitted groups."""

from itertools import combinations

import sympy as sp

import pytest
from hypothesis import given, settings, strategies as st

from pdgal3.errors import (IncompleteSearchError, NonFuchsianError,
                           PdgalError, UnsupportedError)
from pdgal3.galois3 import _dual_diag, classify2, dispatch
from pdgal3.groups import Deferred, Explicit, Pullback, jet
from pdgal3.modules import (Analysis, FlagCertificate, diag_decompose,
                            semisimplify, split_extension)
from pdgal3.ratfunc import d_t, rational_antiderivative
from pdgal3.systems import DiffSystem, dual, gauge, mat, mat_inv, mat_mul
from util import FLAG_CERTS, REFINABLE, hidden_sum3

t = sp.Symbol("t")

CERT2 = FlagCertificate(subspaces=((("1",), ("0",)),))
CERT3 = FlagCertificate(
    subspaces=(
        (("1",), ("0",), ("0",)),
        (("1", "0"), ("0", "1"), ("0", "0")),
    )
)


def S(rows):
    return DiffSystem(rows)


# -- classify2 ---------------------------------------------------------------------------


def test_classify2_cq():
    assert classify2(S([["0", "1"], ["0", "0"]]), CERT2) == "CQ"
    assert classify2(S([["1/x", "1/(x-1)"], ["0", "0"]]), CERT2) == "CQ"


def test_classify2_cr():
    assert classify2(S([["t/x", "0"], ["0", "0"]]), CERT2) == "CR"
    # [[t/x, 1],[0,0]] splits via F = x/(t-1), hence completely reducible
    assert classify2(S([["t/x", "1"], ["0", "0"]]), CERT2) == "CR"


def test_classify2_nc():
    assert classify2(S([["t/x", "1/(x-1)"], ["0", "0"]]), CERT2) == "NC"


def test_classify2_dim_check():
    with pytest.raises(ValueError):
        classify2(S([["0"]]))


#: entries c*f'/f of the triangular pieces drawn below
_DLOG_POLES = ["x", "x-1", "x+1", "x-t"]
_DLOG_COEFFS = ["1", "-1", "2", "1/2", "-3/2", "t", "-t", "2*t"]
_OFF_DIAGONAL = ["0", "1", "1/x", "1/(x-1)", "t/(x+1)", "x"]


def _dlog_sum(draw):
    terms = draw(st.lists(
        st.tuples(st.sampled_from(_DLOG_COEFFS), st.sampled_from(_DLOG_POLES)),
        max_size=2))
    return " + ".join(f"({c})/({f})" for c, f in terms) or "0"


@st.composite
def _triangular_pieces(draw):
    return S([[_dlog_sum(draw), draw(st.sampled_from(_OFF_DIAGONAL))],
              ["0", _dlog_sum(draw)]])


def _classify2_by_semisimplify(W):
    """classify2 through semisimplify, as the dispatcher once typed its
    pieces."""
    D = diag_decompose(W, CERT2)
    u1, u2 = D.blocks[0].A[0][0], D.blocks[1].A[0][0]
    if rational_antiderivative(d_t(u1 - u2)) is not None:
        return "CQ"
    ss, _, _ = semisimplify(W, D)
    return "CR" if ss else "NC"


def _type_or_incomplete(classify, W):
    try:
        return classify(W)
    except IncompleteSearchError:
        return "incomplete"


@given(_triangular_pieces())
@settings(max_examples=60, deadline=None)
def test_classify2_matches_semisimplify_route(W):
    assert (_type_or_incomplete(lambda V: classify2(V, CERT2), W)
            == _type_or_incomplete(_classify2_by_semisimplify, W))


# -- semisimple groups through dispatch ----------------------------------------------------


def test_diag_group_torus():
    r, g = dispatch(
        S([["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]]), CERT3)
    assert r.case_path == "SEMISIMPLE"
    assert g.family == "torus"
    assert g.data["lattice"] == ((0, 0, 1), (0, 1, 0))
    eqs = g.to_explicit().equations
    assert jet(2, 2) - 1 in eqs and jet(3, 3) - 1 in eqs
    assert jet(1, 1) * jet(1, 1, 2) - jet(1, 1, 1) ** 2 in eqs


def test_diag_group_trivial_factors():
    r, g = dispatch(S([["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]))
    assert r.case_path == "SEMISIMPLE"
    eqs = g.to_explicit().equations
    assert all(jet(i, i) - 1 in eqs for i in (1, 2, 3))


# -- dispatch: structural guards ------------------------------------------------------------


def test_dispatch_rejects_wrong_dimension():
    with pytest.raises(UnsupportedError):
        dispatch(S([["0", "0"], ["0", "0"]]))


# -- dispatch: branch fixtures ---------------------------------------------------------------


def test_dispatch_semisimple_torus():
    r, g = dispatch(S([["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]]),
                    CERT3)
    assert r.case_path == "SEMISIMPLE"
    assert g.family == "torus"
    assert g.member([["5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert not g.member([["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_dispatch_decomposable_non_constant():
    r, g = dispatch(
        S([["t/x", "1/(x-1)", "0"], ["0", "0", "0"], ["0", "0", "1/x"]]),
        CERT3)
    assert r.case_path == "DECOMPOSABLE"
    assert r.type_tags == ("NC",)
    eqs = g.to_explicit().equations
    # the G_a coordinate (1,2) is unconditioned
    assert all(not e.degree(jet(1, 2)) for e in eqs)
    assert jet(2, 1) in eqs and jet(1, 3) in eqs


def test_dispatch_decomposable_constant_quotient_is_deferred():
    r, g = dispatch(
        S([["1/x", "1", "0"], ["0", "0", "0"], ["0", "0", "t/x"]]),
        CERT3)
    assert r.case_path == "DECOMPOSABLE"
    assert r.type_tags == ("CQ",)
    assert isinstance(g, Deferred) and g.partial is not None
    assert any("tau(G)=0" in note for note in r.tau_notes)


def test_dispatch_indecomposable_2dim():
    r, g = dispatch(
        S([["0", "1/x", "0"], ["t/(x-1)", "0", "1/(x+1)"], ["0", "0", "0"]]),
        None)
    assert r.case_path == "INDECOMPOSABLE-2DIM"
    eqs = g.to_explicit().equations
    det2 = jet(1, 1) * jet(2, 2) - jet(1, 2) * jet(2, 1) - 1
    assert det2 in eqs
    # full unipotent column is free
    assert all(not e.degree(jet(1, 3)) for e in eqs)
    assert all(not e.degree(jet(2, 3)) for e in eqs)


def test_dispatch_cqcq_deferred():
    r, g = dispatch(
        S([["0", "1/x", "0"], ["0", "0", "1/x"], ["0", "0", "0"]]), CERT3)
    assert r.case_path == "(CQ,CQ)"
    assert isinstance(g, Deferred)
    assert g.member([["1", "3", "5"], ["0", "1", "7"], ["0", "0", "1"]])
    assert not g.member([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_dispatch_cr_cq_nc():
    r, g = dispatch(
        S([["t/x", "0", "1/(x-1)"], ["0", "0", "1/x"], ["0", "0", "0"]]),
        CERT3)
    assert r.case_path == "(CR,CQ,NC)"
    eqs = g.to_explicit().equations
    assert jet(1, 2) in eqs
    assert all(not e.degree(jet(1, 3)) for e in eqs)  # Z free


def test_dispatch_cr_nc_cq_routes_through_permutation():
    r, g = dispatch(
        S([["1/x", "0", "1/(x-1)"], ["0", "t/x", "1/(x+1)"], ["0", "0", "0"]]),
        CERT3)
    assert r.case_path == "(CR,NC,CQ)→permute→(CR,CQ,NC)"
    eqs = g.to_explicit().equations
    assert jet(1, 1) - 1 in eqs
    # the NC coordinate (2,3) is unconditioned after the permutation
    assert all(not e.degree(jet(2, 3)) for e in eqs)


def test_dispatch_cr_nc_nc():
    r, g = dispatch(
        S([["t/x", "0", "1/(x-1)"], ["0", "t/(x-1)", "1/x"], ["0", "0", "0"]]),
        CERT3)
    assert r.case_path == "(CR,NC,NC)"
    eqs = g.to_explicit().equations
    for free in [jet(1, 3), jet(2, 3)]:
        assert all(not e.degree(free) for e in eqs)


def test_dispatch_ncnc_noncommutative():
    r, g = dispatch(
        S([["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"], ["0", "0", "-t/x"]]),
        CERT3)
    assert r.case_path == "(NC,NC)-noncommutative"


@pytest.mark.parametrize("m", [12, 13])
def test_dispatch_ncnc_finite_order_is_flagged(m):
    """With middle entry -1/(2m*x), a1 - 2*a2 + a3 = 1/(m*x) has the exact
    order m, whatever m is: the report flags the identity-component level."""
    r, g = dispatch(
        S([["t/x", "1/(x-1)", "0"], ["0", f"-1/({2 * m}*x)", "1/(x+1)"],
           ["0", "0", "-t/x"]]),
        CERT3)
    assert r.case_path == "(NC,NC)-noncommutative"
    assert r.flags == ("identity-component-level",)
    assert g.flags == ("identity-component-level",)


def test_dispatch_ncnc_commutative():
    r, g = dispatch(
        S([["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x-1)"], ["0", "0", "-t/x"]]),
        CERT3)
    assert r.case_path == "(NC,NC)-commutative"
    eqs = g.to_explicit().equations
    # no condition on the (1,3) entry: determined by V2
    assert all(not e.degree(jet(1, 3)) for e in eqs)


def test_dispatch_cqnc_ru():
    r, g = dispatch(
        S([["0", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"], ["0", "0", "t/x"]]),
        CERT3)
    assert r.case_path == "(CQ,NC)-Ru"


CQNC_V2_SEMISIMPLE = [["0", "0", "1/(x-1)"], ["0", "0", "1/(x+1)"],
                      ["0", "0", "t/x"]]


@pytest.mark.parametrize("cert", [CERT3, None])
def test_dispatch_cqnc_v2_semisimple(cert):
    r, g = dispatch(S(CQNC_V2_SEMISIMPLE), cert)
    assert r.case_path == "(CQ,NC)-V2semisimple"
    assert r.flags == ()
    assert isinstance(g, Explicit)
    assert g.member([["1", "0", "5"], ["0", "1", "7"], ["0", "0", "1"]])
    assert not g.member([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_dispatch_simple_3dim_semisimple():
    r, g = dispatch(
        S([["0", "1/x", "0"], ["0", "0", "1/(x-1)"], ["t/(x+1)", "0", "0"]]))
    assert r.case_path == "SEMISIMPLE"
    assert r.flags == ("quasi-simple-closure-unchecked",)
    assert isinstance(g, Pullback)


def test_dispatch_incomplete_constancy_search_is_undecided():
    # W = [[0, 1], [x^2 + t, 0]] is irregular at infinity, so the searches
    # for its invariant lines and for a constancy witness of its trace-zero
    # part are bounded; finding none there is no proof that W is simple, nor
    # that W⊗W* is non-constant.  The line search of the certificate block
    # comes first
    r, g = dispatch(S([["0", "1", "0"], ["x^2+t", "0", "0"], ["0", "0", "0"]]),
                    FLAG_CERTS["plane"])
    assert r.case_path == "UNDECIDED"
    assert r.flags == ("bound-limited", "deferred")
    assert isinstance(g, Deferred) and g.partial is None
    assert g.reduction == "composition-factor search not provably complete"


#: the diagonal (x+1)/(x^2-t) has residues outside Q(t) at the roots of
#: x^2 - t, so the line search on V2 alone does not find e1
CQNC_UNDECIDED = [["(x+1)/(x^2-t)", "1/(x-1)", "0"],
                  ["0", "(x+1)/(x^2-t)", "1/(x+1)"], ["0", "0", "t/x"]]


def test_dispatch_cqnc_residues_outside_qt_are_undecided():
    # the V2 test once ran its own line search, missed e1 and raised
    # "V2 expected to split"
    r, g = dispatch(S(CQNC_UNDECIDED), CERT3)
    assert r.case_path == "(CQ,NC)-undecided"
    assert r.flags == ("bound-limited", "deferred")
    assert isinstance(g, Deferred)


@pytest.mark.parametrize("cert", ["none", "empty", "line", "plane", "full"])
def test_dispatch_refined_partial_flag(cert):
    # with a partial flag the certificate's 2-dim piece splits into lines,
    # and the result is the one of the full flag and of no certificate.  The
    # empty flag's one block splits too: it was once read as simple, and V
    # as SEMISIMPLE
    r, g = dispatch(REFINABLE, FLAG_CERTS[cert])
    assert r.case_path == "(NC,CQ)→dual→(CQ,NC)-Ru"
    assert r.flags == g.flags == ("tau0-partial-on-(1,2)",)


def test_dispatch_certified_dual_route_reads_the_flag(monkeypatch):
    # the →dual→ route reads dual(V)'s flag off the certified one, and
    # neither piece of the flag splits, so V has no line summand: there is
    # no class search at all
    from pdgal3 import solvers

    calls = _counting(monkeypatch, solvers, "hyperexponential_classes")
    r, _ = dispatch(REFINABLE, FLAG_CERTS["full"])
    assert r.case_path == "(NC,CQ)→dual→(CQ,NC)-Ru"
    assert calls == []


@pytest.mark.parametrize("cert", ["none", "full"])
def test_dispatch_semisimple_under_unipotent_gauge(cert):
    r, _ = dispatch(hidden_sum3(), FLAG_CERTS[cert])
    assert r.case_path == "SEMISIMPLE"


@pytest.mark.parametrize("cert", ["none", "full"])
def test_printed_gauges_are_inverse_bases(cert):
    # a report prints P with Z = P*Y: its inverse is the basis of the normal form
    V = hidden_sum3()
    r, _ = dispatch(V, FLAG_CERTS[cert])
    certs = dict(r.certificates)
    T = gauge(V, mat_inv(certs["gauge"])).A
    assert all(T[i][j].is_zero for i in range(3) for j in range(i))
    T = gauge(V, mat_inv(certs["semisimple-gauge"])).A
    assert all(T[i][j].is_zero for i in range(3) for j in range(3) if i != j)


def test_dispatch_cqnc_prolongation():
    r, g = dispatch(
        S([["t/x", "1/x", "0"], ["0", "t/x", "1/(x-1)"], ["0", "0", "0"]]),
        CERT3)
    assert r.case_path == "(CQ,NC)-prolongation"
    assert "prolongation-embedding-certified" in r.flags
    # normal-form member: [[a*c, a'*c, v'*c],[0, a*c, v*c],[0,0,c]]
    a, v, c = sp.Integer(5), t**2, sp.Integer(1)
    ok = [[a * c, sp.diff(a, t) * c, sp.diff(v, t) * c],
          [0, a * c, v * c], [0, 0, c]]
    bad = [[a * c, sp.diff(a, t) * c, 1], [0, a * c, v * c], [0, 0, c]]
    assert g.member(ok)
    assert not g.member(bad)


def test_prolongation_embedding_is_exact(monkeypatch):
    # U1, U2 and U1 + U2 all have rank 2, and U1 + 2*U2 = diag(1, 1, -2) is
    # injective: the basis and the pairwise sums once missed it
    from pdgal3 import galois3

    U1 = mat([["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"],
              ["0", "0", "0"]])
    U2 = mat([["0", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"],
              ["0", "0", "0"]])
    Mt = S(PROLONGATION)
    a = [Mt.A[i][i] for i in range(3)]
    for basis, complete, found in [([U1, U2], False, mat(
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-2"],
             ["0", "0", "0"]])), ([U1], True, None)]:
        monkeypatch.setattr(galois3, "morphisms",
                            lambda M1, M2: (basis, complete))
        assert galois3._prolongation_embedding(Mt, a) == found
    # no injective combination, and a morphism may be missing
    monkeypatch.setattr(galois3, "morphisms", lambda M1, M2: ([U1], False))
    with pytest.raises(IncompleteSearchError,
                       match="^prolongation-embedding search not provably"):
        galois3._prolongation_embedding(Mt, a)


def test_dispatch_non_fuchsian_certificate_block_is_undecided():
    # a diagonal system: the certificate plane's block [[t/x^2, 0], [0, 0]]
    # has invariant lines, but its double pole stops the class search.  It
    # once counted as a simple factor failing the SL2-closure hypothesis.
    # The reduction names the double pole: it once advised supplying the
    # certificate that was supplied
    r, g = dispatch(S([["t/x^2", "0", "0"], ["0", "0", "0"], ["0", "0", "t/x"]]),
                    FLAG_CERTS["plane"])
    assert r.case_path == "UNDECIDED"
    assert r.flags == ("bound-limited", "deferred")
    assert g.reduction.startswith("certificate block not provably simple: it "
                                  "has a pole of order above 1")
    assert "certificate instead" not in g.reduction


def test_unsplit_pieces_prove_no_line_summand(monkeypatch):
    # neither piece of the certified flag splits, so V has no line summand
    # and its class search, which its double pole would stop, never runs
    from pdgal3 import solvers

    V = S([["t/x", "1/(x-1)", "1/x^2"], ["0", "0", "1/x"], ["0", "0", "0"]])
    calls = _counting(monkeypatch, solvers, "hyperexponential_classes")
    r, _ = dispatch(V, CERT3)
    assert r.case_path == "(NC,CQ)→dual→(CQ,NC)-prolongation"
    assert V.A not in [M.A for (M,) in calls]


def test_dispatch_gauge_invariant_label():
    V = S([["t/x", "1/(x-1)", "0"], ["0", "0", "0"], ["0", "0", "1/x"]])
    r1, _ = dispatch(V, CERT3)
    # the inverse of [[1, 0, 0], [0, t, 0], [0, 1, 1]]
    P = [["1", "0", "0"], ["0", "1/t", "0"], ["0", "-1/t", "1"]]
    r2, _ = dispatch(gauge(V, P), None)
    assert r1.case_path == r2.case_path == "DECOMPOSABLE"


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_dispatch_dual_label(monkeypatch):
    # the →dual→ route enters where the line search would, and dispatch does
    # not re-enter itself.  No piece of the input's flag splits, so the
    # input has no line summand, and the line search runs on neither flag
    from pdgal3 import galois3

    searches = _counting(monkeypatch, galois3, "_find_line_summand")
    dispatches = _counting(monkeypatch, galois3, "dispatch")
    V = S([["t/x", "1/x", "0"], ["0", "t/x", "1/(x-1)"], ["0", "0", "0"]])
    r, _ = galois3.dispatch(dual(V), None)
    assert r.case_path.endswith("(CQ,NC)-prolongation")
    assert "→dual→" in r.case_path
    assert searches == []
    assert len(dispatches) == 1


def _inv_t(M):
    return sp.Matrix([[sp.sympify(v) for v in row] for row in M]).inv().T.tolist()


def test_dispatch_indecomposable_2dim_dual():
    # dual(V) has the 2-dim factor as a quotient: the dual route computes on
    # V and pulls the group back along the inverse transpose
    from test_acceptance import BRANCH_FIXTURES

    V, cert, members, nonmembers = BRANCH_FIXTURES["INDECOMPOSABLE-2DIM"]
    native, _ = dispatch(V, cert)
    r, g = dispatch(dual(V), None)
    assert r.case_path == "INDECOMPOSABLE-2DIM(dual)"
    assert r.type_tags == native.type_tags
    assert r.flags == native.flags
    assert all(g.member(_inv_t(M)) for M in members)
    assert not any(g.member(_inv_t(M)) for M in nonmembers)


#: x-free bases over Q(t), which keep a system's poles
_XFREE_BASES = [[["1", "t", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                [["1", "0", "0"], ["0", "1", "0"], ["t+1", "2", "1"]]]


@pytest.mark.parametrize("name", ["SEMISIMPLE", "DECOMPOSABLE",
                                  "INDECOMPOSABLE-2DIM", "(CQ,CQ)",
                                  "(CR,NC,NC)", "(CQ,NC)-prolongation"])
def test_dual_diag_is_a_decomposition_of_the_dual(name):
    # in the basis (B⁻¹)ᵀ·J, dual(V) is −J·Tᵀ·J: block upper triangular,
    # with the blocks in reverse order
    from test_acceptance import BRANCH_FIXTURES

    V, cert, _, _ = BRANCH_FIXTURES[name]
    for P in [None] + _XFREE_BASES:
        if P is not None:
            # Y = P*Z: a subspace S of Y is P⁻¹·S in Z
            V = gauge(V, P)
            cert = cert and FlagCertificate(tuple(
                mat_mul(mat_inv(mat(P)), mat(Sj)) for Sj in cert.subspaces))
        D = diag_decompose(V, cert)
        Vd, Dd = _dual_diag(V, D)
        assert Vd == dual(V)
        assert Dd.dims == D.dims[::-1]
        assert gauge(Vd, Dd.basis) == Dd.T
        T, start = Dd.T.A, 0
        for d in Dd.dims:
            start += d
            assert all(v.is_zero for row in T[start:] for v in row[:start])


def test_dispatch_decomposable_dual(monkeypatch):
    # dual(V) = L* ⊕ W* exactly when V = L ⊕ W: the line search on dual(V)
    # finds its own summand, with no route through V
    from pdgal3 import galois3
    from test_acceptance import BRANCH_FIXTURES

    V, _, _, _ = BRANCH_FIXTURES["DECOMPOSABLE"]
    searches = _counting(monkeypatch, galois3, "_find_line_summand")
    r, _ = dispatch(dual(V), None)
    assert r.case_path == "DECOMPOSABLE"
    assert r.type_tags == ("NC",)
    assert r.flags == ()
    assert [M.A for M, _ in searches] == [dual(V).A]


def test_candidate_lines_propagates_bugs(monkeypatch):
    # a system that the class search cannot take leaves the line search
    # undecided, never "no line"; a bug must surface
    from pdgal3 import galois3, solvers

    def raising(exc):
        def fake(M):
            raise exc
        return fake

    M = S([["t/x", "0"], ["0", "0"]])
    monkeypatch.setattr(solvers, "hyperexponential_classes",
                        raising(NonFuchsianError("irregular")))
    with pytest.raises(IncompleteSearchError,
                       match="^line-summand search not provably complete: "
                       "irregular$"):
        galois3._find_line_summand(M, Analysis())
    monkeypatch.setattr(solvers, "hyperexponential_classes",
                        raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError):
        galois3._find_line_summand(M, Analysis())


def test_line_search_tries_every_candidate(monkeypatch):
    # an undecided split is neither a summand nor proof of none: the search
    # goes on, and the dispatch is undecided only when no candidate splits
    from pdgal3 import galois3
    from test_acceptance import BRANCH_FIXTURES

    # on dual(DECOMPOSABLE) the first candidate has no complement and the
    # second splits off; the first piece of (CR,NC,NC) splits, so its line
    # search runs, and no candidate splits off
    for name, case_path in [("DECOMPOSABLE", "DECOMPOSABLE"),
                            ("(CR,NC,NC)", "UNDECIDED")]:
        V, cert, _, _ = BRANCH_FIXTURES[name]
        if name == "DECOMPOSABLE":
            V, cert = dual(V), None
        calls, inner = [], galois3.split_extension

        def first_undecided(M, S_):
            calls.append(S_)
            if len(calls) == 1:
                raise IncompleteSearchError("first split undecided")
            return inner(M, S_)

        monkeypatch.setattr(galois3, "split_extension", first_undecided)
        r, g = dispatch(V, cert)
        monkeypatch.undo()
        assert r.case_path == case_path
        if case_path == "UNDECIDED":
            assert r.flags == ("bound-limited", "deferred")
            assert g.reduction == "first split undecided"
        else:
            assert len(calls) == 2


#: diagonal entries of the drawn systems; a small pool, so that a class
#: space is sometimes 2- or 3-dimensional
_DIAGONAL = ["0", "t/x", "1/(x-1)", "-t/(x+1)"]
_SIMPLE_POLES = ["0", "1/x", "1/(x-1)", "t/(x+1)"]


@st.composite
def _scrambled_triangular(draw):
    """An upper triangular system, decomposable (only b12 nonzero) or with a
    full flag, in the basis P·G for a permutation P and G = L·U in GL3(Q)."""
    a = [draw(st.sampled_from(_DIAGONAL)) for _ in range(3)]
    b12, b13, b23 = (draw(st.sampled_from(_SIMPLE_POLES)) for _ in range(3))
    if draw(st.booleans()):  # decomposable: span(e1, e2) ⊕ span(e3)
        b13 = b23 = "0"
    V = S([[a[0], b12, b13], ["0", a[1], b23], ["0", "0", a[2]]])
    small = st.integers(-2, 2)
    L = sp.Matrix(3, 3, lambda i, j: 1 if i == j else
                  (draw(small) if i > j else 0))
    U = sp.Matrix(3, 3, lambda i, j: draw(st.sampled_from([1, -1, 2])) if i == j
                  else (draw(small) if i < j else 0))
    perm = draw(st.permutations(range(3)))
    P = sp.Matrix(3, 3, lambda i, j: 1 if perm[i] == j else 0)
    return gauge(V, (P * L * U).tolist())


def _ref_find_line_summand(V, an):
    """The line search as it once was: each class's basis vectors and their
    pairwise sums, first on V and then on dual(V).  Returns the summand
    found, whether it was found on dual(V), and whether the class searches
    and every split that was rejected on the way were complete."""
    complete = True
    for on_dual, M in ((False, V), (True, dual(V))):
        try:
            classes, searched = an.classes(M, "reference line search")
        except PdgalError:
            complete = False
            continue
        complete = complete and searched
        for _, space in classes:
            sums = [tuple(a + b for a, b in zip(u, v))
                    for u, v in combinations(space.basis, 2)]
            for v in list(space.basis) + sums:
                S_ = tuple((x,) for x in v)
                try:
                    comp, B, D = split_extension(M, S_)
                except IncompleteSearchError:
                    complete = False
                    continue
                if comp is not None:
                    return (S_, comp, B, D), on_dual, complete
    return None, False, complete


@given(_scrambled_triangular())
@settings(max_examples=25, deadline=None)
def test_line_search_on_class_bases_matches_reference(V):
    # a summand found by pairwise sums or on dual(V) is found by the basis
    # vectors of V's own classes; and where no split was left undecided the
    # two searches pick the same line
    from pdgal3 import galois3

    ref, on_dual, complete = _ref_find_line_summand(V, Analysis())
    try:
        found = galois3._find_line_summand(V, Analysis())
    except IncompleteSearchError:
        # an undecided split of one of V's basis vectors, which the
        # reference tries too unless it finds a summand first
        assert not complete
        found = None
    if ref is not None:
        assert found is not None
    if complete:
        assert not on_dual
        assert (found is None) == (ref is None)
        assert found is None or found[0] == ref[0]


# -- one line search per matrix per dispatch ------------------------------------


PROLONGATION = [["t/x", "1/x", "0"], ["0", "t/x", "1/(x-1)"], ["0", "0", "0"]]


def test_dispatch_searches_each_matrix_once(monkeypatch):
    # dispatch(dual(V)) searches 4 distinct matrices: V, dual(V) and a 2-dim
    # block of each.  Before the per-dispatch Analysis it searched 7 times;
    # before the (CQ,NC) case read V2 off its entries, it also searched V2
    from pdgal3 import solvers

    calls = _counting(monkeypatch, solvers, "hyperexponential_classes")
    r, _ = dispatch(dual(S(PROLONGATION)), None)
    assert r.case_path.endswith("(CQ,NC)-prolongation")
    matrices = [M.A for (M,) in calls]
    assert len(matrices) == len(set(matrices)) == 4


def test_each_dispatch_computes_afresh(monkeypatch):
    from pdgal3 import solvers

    calls = _counting(monkeypatch, solvers, "hyperexponential_classes")
    V = dual(S(PROLONGATION))
    first, _ = dispatch(V, None)
    n = len(calls)
    second, _ = dispatch(V, None)
    assert len(calls) == 2 * n
    assert calls[n:] == calls[:n]
    assert first == second


def test_diag_decompose_leaves_memoized_classes_unchanged():
    # diag_decompose reads the classes it picks a line from; it must not
    # reorder the shared list that the line-summand search reads next
    from pdgal3 import solvers

    M = S([["t/x", "0", "0"], ["0", "-t/(x-1)", "0"], ["0", "0", "0"]])
    an = Analysis()
    classes, complete = an.classes(M, "test search")
    assert [r.to_string() for r, _ in classes] != sorted(
        r.to_string() for r, _ in classes)
    before = [(r, list(s.basis)) for r, s in classes]
    diag_decompose(M, None, an)
    assert an.classes(M, "test search") == (classes, complete)
    assert [(r, s.basis) for r, s in classes] == before
    fresh, _ = solvers.hyperexponential_classes(M)
    assert [(r, s.basis) for r, s in fresh] == before


def test_analysis_keeps_a_non_fuchsian_raise(monkeypatch):
    from pdgal3 import solvers

    calls = _counting(monkeypatch, solvers, "hyperexponential_classes")
    an = Analysis()
    M = S([["1/x^2", "0"], ["0", "0"]])
    for _ in range(2):
        with pytest.raises(NonFuchsianError):
            an.classes(M, "test search")
    assert len(calls) == 1
