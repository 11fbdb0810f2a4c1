"""Rational and hyperexponential solutions of linear systems."""

import random

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from pdgal3.errors import IncompleteSearchError, NonFuchsianError
from pdgal3.linalg import solve_affine
from pdgal3.ratfunc import (
    COEFF_FIELD,
    RatFunc,
    ZERO,
    _TX_RING,
    _poly,
    d_x,
    from_low_coeffs,
    low_coeffs,
    pole_factors,
    ratfunc,
    residue_at,
    residues,
    t,
    x,
)
from pdgal3.solvers import (
    SolutionSpace,
    _charpoly,
    _common,
    _exquo,
    _infinity_data,
    _int_roots,
    _qt_matrix,
    _qt_roots,
    _residue_matrix,
    hyperexponential_classes,
    particular_solution,
    rational_solutions,
)
from pdgal3.systems import DiffSystem, direct_sum, mat
from util import random_fuchsian


def check_solution(A, y, b=None):
    """Exact verification of dY/dx - A Y - b = 0."""
    A = mat(A)
    n = len(A)
    b = [ZERO] * n if b is None else [ratfunc(v) for v in b]
    for i in range(n):
        lhs = d_x(y[i]) - sum((A[i][j] * y[j] for j in range(n)), ZERO) - b[i]
        assert lhs.is_zero


class TestRationalSolutions:
    def test_basic_pole(self):
        s = rational_solutions([["1/x"]])
        assert s.complete and len(s.basis) == 1
        assert s.basis[0][0] == ratfunc("x") * (s.basis[0][0] / ratfunc("x"))
        check_solution([["1/x"]], s.basis[0])

    def test_exponential_has_no_rational_solution(self):
        s = rational_solutions([["1"]])
        assert s.complete and s.basis == []

    def test_upper_triangular_jordan(self):
        # y2' = (t/x) y2 and y1' = (t/x) y1 + y2 admit no rational solutions
        s = rational_solutions([["t/x", "1"], ["0", "t/x"]])
        assert s.basis == []

    def test_inhomogeneous(self):
        s = rational_solutions([["0"]], ["1"])
        assert s.particular == [ratfunc("x")]
        assert s.basis == [[ratfunc(1)]]
        check_solution([["0"]], s.particular, ["1"])

    def test_non_integer_exponent_empty(self):
        # morphisms([[t/x]], [[0]]): du/dx = -(t/x) u has exponent -t not in Z
        s = rational_solutions([["-t/x"]])
        assert s.complete and s.basis == []

    def test_inconsistent(self):
        # df/dx = 1/x has no rational solution
        s = rational_solutions([["0"]], ["1/x"])
        assert s.complete and s.particular is None

    def test_incomplete_flagged(self):
        s = rational_solutions([["1/x^2"]])
        assert not s.complete

    def test_particular_solution_decides_or_raises(self):
        # a solution; None when provably none exists; a raise when the
        # bounded search at the double pole of 1/x^2 finds none
        assert particular_solution([["0"]], ["1/x^2"], "search") == [
            ratfunc("-1/x")]
        assert particular_solution([["0"]], ["1/x"], "search") is None
        with pytest.raises(IncompleteSearchError,
                           match="^test search not provably complete"):
            particular_solution([["1/x^2"]], ["1/x"], "test search")

    def test_positive_exponents(self):
        s = rational_solutions([["2/x"]])
        assert s.complete and s.basis == [[ratfunc("x^2")]]

    def test_moving_pole(self):
        s = rational_solutions([["3/(x-t)"]])
        assert s.complete and len(s.basis) == 1
        check_solution([["3/(x-t)"]], s.basis[0])

    def test_coupled_system(self):
        A = [["1/x", "1/x"], ["0", "2/x"]]
        s = rational_solutions(A)
        assert s.complete and len(s.basis) == 2
        for v in s.basis:
            check_solution(A, v)

    def test_randomized_verification(self):
        rng = random.Random(3)
        for _ in range(8):
            M = random_fuchsian(rng, 2)
            s = rational_solutions(M)
            for v in s.basis:
                check_solution(M.A, v)

    def test_solution_space_dim(self):
        assert len(rational_solutions([["0", "0"], ["0", "0"]]).basis) == 2

    def test_quadratic_pole_solution_found(self):
        # 1/(x^2-t) solves y' = -2x/(x^2-t) y: the exponent at x^2-t is -1
        s = rational_solutions([["-2*x/(x^2-t)"]])
        assert s.complete and s.basis == [[ratfunc("1/(x^2-t)")]]


class TestClearingDenominator:
    """The ansatz is cleared by prod f^E_f with E_f = max(e_f + a_f,
    e_f + 1 when e_f > 0, b_f); one case for each term that can set E_f."""

    @staticmethod
    def check_space(A, s, b=None):
        if s.particular is not None:
            check_solution(A, s.particular, b)
        for v in s.basis:
            check_solution(A, v)

    def test_double_pole_of_b_outside_A(self):
        # y = 1/(x-1) solves y' = y/x + b; b has (x-1)^2, A has no x-1
        A, b = [["1/x"]], ["-1/(x-1)^2 - 1/(x*(x-1))"]
        s = rational_solutions(A, b)
        assert s.complete
        assert s.particular is not None and len(s.basis) == 1
        self.check_space(A, s, b)
        assert ((s.particular[0] - ratfunc("1/(x-1)")) / s.basis[0][0]).d_x().is_zero

    def test_poles_of_A_with_den_exp_zero(self):
        # positive exponents 1 at x-t and 3 at x: d_u = 1, E_f = a_f
        A = [["1/(x-t)", "0"], ["0", "3/x"]]
        s = rational_solutions(A)
        assert s.complete and len(s.basis) == 2
        self.check_space(A, s)
        A1, b1 = [["2/x"]], ["1"]
        s = rational_solutions(A1, b1)
        assert s.complete
        assert s.particular is not None and len(s.basis) == 1
        self.check_space(A1, s, b1)

    def test_bound_limited_double_pole(self):
        # y2 = c, y1 = -c/x + d - 1/(2x^2): the double pole makes it
        # non-Fuchsian, so den_exp = bound at x and E_x = 2 + 2
        A, b = [["0", "1/x^2"], ["0", "0"]], ["1/x^3", "0"]
        s = rational_solutions(A, b, bound=2)
        assert not s.complete
        assert s.particular is not None and len(s.basis) == 2
        self.check_space(A, s, b)
        # at x-1, outside A, den_exp is the bound 2: b's pole order 2 leaves
        # E_f = den_exp + 1, and order 4 sets E_f = b_f, where the particular
        # solution would need (x-1)^3, beyond the bound
        for bx, solvable in ((["1/(x-1)^2", "0"], True),
                             (["1/(x-1)^4", "0"], False)):
            s = rational_solutions(A, bx, bound=2)
            assert not s.complete
            assert (s.particular is not None) == solvable and len(s.basis) == 2
            self.check_space(A, s, bx)

    def test_uncleared_entry_raises(self):
        # the exact divisions that clear the ansatz over Q[t, x]: x does not
        # clear 1/x^2
        tt, xx = _TX_RING.gens
        assert _exquo(xx**2 * tt, xx) == xx * tt
        with pytest.raises(RuntimeError):
            _exquo(xx, xx**2)


# -- local exponents ---------------------------------------------------------
#
# The expression route the solver used before the norm went through
# DomainMatrix, kept as the reference: a sympy Matrix of residues, a
# Berkowitz det, Res_x(f, .) and an expression factor_list.


def _ref_qt_roots(expr, lam):
    num = sp.expand(sp.fraction(sp.together(sp.cancel(expr)))[0])
    if num == 0:
        return []
    roots = []
    for fac, mult in sp.factor_list(num, lam, t)[1]:
        p = sp.Poly(fac, lam)
        if p.degree() == 1:
            c1, c0 = p.all_coeffs()
            roots += [sp.cancel(-sp.sympify(c0) / sp.sympify(c1))] * mult
    return roots


def _ref_ints(roots):
    return sorted({int(r) for r in roots if r.is_Integer})


def _ref_residue_exponents(A, f):
    """(Q(t) roots with multiplicity, integer roots) of Res_x(f, det(lam - R))."""
    n = len(A)
    lam = sp.Dummy("lam")
    R = sp.Matrix(
        [[residue_at(A[i][j], f).as_expr() for j in range(n)] for i in range(n)]
    )
    cp = (lam * sp.eye(n) - R).det(method="berkowitz")
    qt = _ref_qt_roots(sp.resultant(f.as_expr(), sp.together(cp), x), lam)
    return qt, _ref_ints(qt)


def _ref_matrix_ints(M):
    lam = sp.Dummy("lam")
    cp = (lam * sp.eye(M.rows) - M).det(method="berkowitz")
    return _ref_ints(_ref_qt_roots(cp, lam))


def _as_exprs(roots):
    return [COEFF_FIELD.to_sympy(r) for r in roots]


def _same_roots(new, ref):
    return len(new) == len(ref) and all(
        sp.cancel(a - b) == 0 for a, b in zip(_as_exprs(new), ref)
    )


def _qt_rows(M):
    return [[COEFF_FIELD.from_sympy(sp.sympify(v)) for v in row] for row in M]


def _residue_charpoly(A, f):
    """The residue characteristic polynomial of the matrix A at f, through
    the solver's common denominator."""
    q = _common(A)
    return _charpoly(*_residue_matrix(q.N, q.d, f))


def _lead_values(lead):
    """The leading matrix L/l at infinity as rows of Q(t) values."""
    L, l = lead
    return [[COEFF_FIELD.field.new(v, l) for v in row] for row in L]


def _infinity(A):
    """(omega, (L, l)) of the matrix A, through its common denominator."""
    q = _common(A)
    return _infinity_data(q.N, q.d)


POLE_FACTORS = [x, x - 1, x - t, x**2 - t, x**2 + t * x + 1]
EXPONENTS = [0, 1, 2, -1, -3, t, t + 1, -t, sp.Rational(1, 2), 1 / (t + 1)]


@st.composite
def residue_systems(draw):
    """(A, poles): n x n systems, n in {1, 2, 3}, with simple poles at some
    of POLE_FACTORS.  At each pole the residue matrix is an integer
    conjugate of a triangular one whose diagonal is drawn from EXPONENTS
    (so exponents repeat and are often integers), plus, at quadratic poles,
    an optional x-dependent part that gives exponents outside Q(t)."""
    n = draw(st.integers(1, 3))
    poles = draw(st.lists(st.sampled_from(POLE_FACTORS), min_size=1,
                          max_size=2, unique=True))
    A = sp.zeros(n, n)
    for f in poles:
        T = sp.Matrix(n, n, lambda i, j: (
            draw(st.sampled_from(EXPONENTS)) if i == j
            else draw(st.sampled_from([0, 0, 1, t])) if i < j else 0))
        G = sp.eye(n)
        for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
            i, j = draw(st.permutations(range(n)))[:2]
            E = sp.eye(n)
            E[i, j] = draw(st.integers(-2, 2))
            G = G * E
        A += G.inv() * T * G * sp.diff(f, x) / f
        if sp.degree(f, x) == 2 and draw(st.booleans()):
            A += sp.Matrix(n, n, lambda i, j: draw(st.integers(-1, 1))) * x / f
    rows = [[RatFunc(A[i, j]) for j in range(n)] for i in range(n)]
    return rows, [_poly(f, x) for f in poles]


class TestLocalExponents:
    @given(residue_systems())
    @settings(max_examples=40, deadline=None)
    def test_matches_expression_route(self, case):
        A, poles = case
        for f in poles:
            cp = _residue_charpoly(A, f)
            qt, ints = _ref_residue_exponents(A, f)
            assert _same_roots(_qt_roots(cp), qt)
            assert _int_roots(cp) == ints

    def test_t_dependent_root_is_not_integer(self):
        # (lam - t)(lam - 2): lam = 2 is the only integer root
        cp = _residue_charpoly(mat([["t/x", "0"], ["0", "2/x"]]), _poly(x, x))
        assert _int_roots(cp) == [2]
        assert sorted(map(str, _as_exprs(_qt_roots(cp)))) == ["2", "t"]

    def test_t_free_irreducible_quadratic(self):
        cp = _charpoly(*_qt_matrix(_qt_rows([[0, 1], [2, 0]])))
        assert _qt_roots(cp) == [] and _int_roots(cp) == []

    def test_quadratic_pole_doubles_the_exponents(self):
        # residue -1 at both roots of x^2 - t in each entry of the diagonal
        A = mat([["-2*x/(x^2-t)", "0"], ["0", "-2*x/(x^2-t)"]])
        cp = _residue_charpoly(A, _poly(x**2 - t, x))
        assert cp.degree(cp.gens[0]) == 4
        assert _as_exprs(_qt_roots(cp)) == [-1] * 4 and _int_roots(cp) == [-1]

    def test_singular_leading_matrix_at_infinity(self):
        A = mat([["x", "0"], ["0", "1"]])
        omega, lead = _infinity(A)
        assert omega == 1
        assert not DomainMatrix(_lead_values(lead), (2, 2), COEFF_FIELD).det()
        s = rational_solutions(A)
        assert not s.complete

    def test_regular_leading_matrix_at_infinity(self):
        A = mat([["x", "1"], ["0", "2*x+t"]])
        omega, lead = _infinity(A)
        lead = _lead_values(lead)
        assert omega == 1 and lead == _qt_rows([[1, 0], [0, 2]])
        assert DomainMatrix(lead, (2, 2), COEFF_FIELD).det() == 2
        s = rational_solutions(A)
        assert s.complete and s.basis == []

    @pytest.mark.parametrize("A", [
        [["0", "0"], ["0", "0"]],
        [["2/x", "0"], ["1/(x-1)", "-1/x"]],
        [["t/(x-t)", "1/x"], ["0", "(3*x+1)/(x^2-t)"]],
    ])
    def test_fuchsian_infinity_matches_expression_route(self, A):
        omega, lead = _infinity(mat(A))
        assert omega <= -1
        M = sp.Matrix([[COEFF_FIELD.to_sympy(v) for v in row]
                       for row in _lead_values(lead)])
        assert _int_roots(_charpoly(*lead)) == _ref_matrix_ints(M)


@pytest.mark.parametrize("c", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("f", [x**2 - t, x**2 + t * x + 1])
def test_log_derivative_residue(c, f):
    """c*f'/f has residue c at every root of f, and f^c is found when c < 0."""
    fp = _poly(f, x)
    a = RatFunc(c * sp.diff(f, x) / f)
    assert residue_at(a, fp) == _poly(c, x)
    assert [(r.pole, r.residue) for r in residues(a)] == [(fp, _poly(c, x))]
    if c < 0:
        s = rational_solutions([[a]])
        assert s.complete and len(s.basis) == 1
        ratio = s.basis[0][0] / RatFunc(f**c)
        assert ratio.d_x().is_zero and not ratio.is_zero


class TestHyperexponential:
    def test_diagonal(self):
        M = DiffSystem([["t/x", "0"], ["0", "1/x"]])
        classes, _ = hyperexponential_classes(M)
        rs = sorted(r.to_string() for r, _ in classes)
        assert rs == ["1/x", "t/x"]
        for r, space in classes:
            v = space.basis[0]
            # dv/dx = A v - r v
            for i in range(2):
                lhs = d_x(v[i]) - sum(
                    (M.A[i][j] * v[j] for j in range(2)), ZERO
                ) + r * v[i]
                assert lhs.is_zero

    def test_nilpotent(self):
        M = DiffSystem([["0", "1"], ["0", "0"]])
        classes, _ = hyperexponential_classes(M)
        assert len(classes) == 1
        r, space = classes[0]
        assert r.is_zero and space.basis[0] == [ratfunc(1), ratfunc(0)]

    def test_jordan_single_class(self):
        M = DiffSystem([["t/x", "1/x"], ["0", "t/x"]])
        classes, _ = hyperexponential_classes(M)
        assert len(classes) == 1
        r, space = classes[0]
        assert r == ratfunc("t/x") and space.basis[0] == [ratfunc(1), ratfunc(0)]

    def test_class_count_diagonal(self):
        # pairwise inequivalent characters: one class per diagonal entry
        M = DiffSystem([["t/x", "0", "0"], ["0", "t/(x-1)", "0"], ["0", "0", "0"]])
        assert len(hyperexponential_classes(M)[0]) == 3

    def test_integer_shifted_characters_merged(self):
        # 1/(x-1) is a logarithmic derivative: merged into the trivial class
        M = DiffSystem([["t/x", "0", "0"], ["0", "1/(x-1)", "0"], ["0", "0", "0"]])
        classes, _ = hyperexponential_classes(M)
        assert sorted(len(s.basis) for _, s in classes) == [1, 2]

    def test_equivalent_characters_merged(self):
        # eigenvalues t and t+1 at x differ by a logarithmic derivative
        M = DiffSystem([["t/x", "0"], ["0", "(t+1)/x"]])
        classes, _ = hyperexponential_classes(M)
        assert len(classes) == 1
        assert len(classes[0][1].basis) == 2

    def test_repeated_exponent_not_noted(self):
        # both local exponents at x are 1: counted with multiplicity they
        # fill the characteristic polynomial, so nothing is skipped
        _, complete = hyperexponential_classes(
            DiffSystem([["1/x", "0"], ["0", "1/x"]])
        )
        assert complete

    def test_only_true_skip_noted(self):
        # at the roots of x^2 - t one exponent is 1/2 ± 1/(2 sqrt(t)), not in
        # Q(t); at x both exponents are 0
        _, complete = hyperexponential_classes(
            DiffSystem([["(x+1)/(x^2-t)", "1/x"], ["0", "0"]])
        )
        assert not complete

    def test_bounded_ansatz_is_incomplete(self):
        # simple finite poles, but infinity is irregular with a singular
        # leading matrix: every ansatz is bounded, and none finds a class
        assert hyperexponential_classes(
            DiffSystem([["0", "1"], ["x^2+t", "0"]])) == ([], False)

    def test_quadratic_pole_exponents_in_qt(self):
        # the residue of 2x/(x^2-t) is 1 at both roots: nothing is skipped
        classes, complete = hyperexponential_classes(
            DiffSystem([["2*x/(x^2-t)"]])
        )
        assert complete
        assert [len(space.basis) for _, space in classes] == [1]

    def test_non_fuchsian_rejected(self):
        with pytest.raises(NonFuchsianError):
            hyperexponential_classes(DiffSystem([["1/x^2"]]))


# -- the shifted route of the hyperexponential search --------------------------
#
# The search used to solve rational_solutions(A - r*I) from scratch for each
# candidate character r; that loop is kept here as the reference.


def _ref_hyperexponential_classes(M, residue_charpoly=_residue_charpoly,
                                  solve=rational_solutions):
    from pdgal3.ratfunc import FIELD, is_log_derivative

    A, n = M.A, M.dim
    factors = sorted(pole_factors([v for row in A for v in row]),
                     key=lambda f: sp.default_sort_key(f.as_expr()))
    complete, per_factor = True, []
    for f in factors:
        qt = _qt_roots(residue_charpoly(A, f))
        complete = complete and len(qt) == n * f.degree()
        uniq = []
        for r in qt:
            if r not in uniq:
                uniq.append(r)
        per_factor.append(uniq or [COEFF_FIELD.zero])
    candidates = [ZERO]
    for f, eigs in zip(factors, per_factor):
        dlog = RatFunc(f.diff().as_expr() / f.as_expr())
        candidates = [c + RatFunc(FIELD.convert_from(e, COEFF_FIELD)) * dlog
                      for c in candidates for e in eigs]
    reps = []
    for c in candidates:
        if not any((h := is_log_derivative(c - r)) is not None and h[0] == 1
                   for r in reps):
            reps.append(c)
    out = []
    for r in reps:
        space = solve(
            [[A[i][j] - (r if i == j else ZERO) for j in range(n)]
             for i in range(n)])
        if space.basis:
            out.append((r, space))
        complete = complete and space.complete
    return out, complete


def _same_classes(M, **reference):
    classes, complete = hyperexponential_classes(M)
    ref, ref_complete = _ref_hyperexponential_classes(M, **reference)
    assert complete == ref_complete
    assert [r for r, _ in classes] == [r for r, _ in ref]
    for (_, s), (_, s_ref) in zip(classes, ref):
        assert s.basis == s_ref.basis
        assert s.complete == s_ref.complete
    return classes, complete


SHIFT_POLES = [x, x - 1, x - t, x**2 - t]
SHIFT_EXPONENTS = [0, 1, -1, -2, t, t + 1, sp.Rational(1, 2)]


@st.composite
def shifted_systems(draw):
    """Fuchsian n x n systems, n in {1, 2, 3}, with simple poles at some of
    SHIFT_POLES.  A residue matrix is either scalar (so that f drops out of
    A - r*I for the candidate that takes that exponent there) or an integer
    conjugate of a triangular one; quadratic poles may get an x-dependent
    part with exponents outside Q(t).  At infinity: a pair of poles whose
    residues cancel (omega <= -2), the plain sum of poles (omega = -1), or
    an added constant or linear matrix (omega >= 0)."""
    n = draw(st.integers(1, 3))
    poles = draw(st.lists(st.sampled_from(SHIFT_POLES), min_size=1,
                          max_size=2, unique=True))
    A = sp.zeros(n, n)
    for f in poles:
        if draw(st.booleans()):
            T = draw(st.sampled_from(SHIFT_EXPONENTS)) * sp.eye(n)
        else:
            T = sp.Matrix(n, n, lambda i, j: (
                draw(st.sampled_from(SHIFT_EXPONENTS)) if i == j
                else draw(st.sampled_from([0, 1, t])) if i < j else 0))
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            G = sp.eye(n)
            G[i, j] = draw(st.integers(-2, 2))
            T = G.inv() * T * G
        A += T * sp.diff(f, x) / f
        if sp.degree(f, x) == 2 and draw(st.booleans()):
            A += sp.Matrix(n, n, lambda i, j: draw(st.integers(-1, 1))) * x / f
    infinity = draw(st.sampled_from(["<=-2", "-1", ">=0"]))
    if infinity == "<=-2":
        R = sp.Matrix(n, n, lambda i, j: draw(st.sampled_from([0, 1, t])))
        A += R * (1 / (x - 1) - 1 / (x + 1))
    elif infinity == ">=0":
        C = sp.Matrix(n, n, lambda i, j: draw(st.sampled_from([0, 0, 1])))
        A += C * x ** draw(st.integers(0, 1))
    return DiffSystem([[RatFunc(A[i, j]) for j in range(n)]
                       for i in range(n)])


def _check_shifted_local_data(M):
    """For every choice of one Q(t) exponent e_f per pole factor (0 where
    there is none), the shifted quotient is A - r*I, and its local data
    shifted from A's equals the local data computed from scratch: the same
    poles, integer exponents and infinity."""
    import itertools

    from pdgal3.ratfunc import FIELD
    from pdgal3.solvers import (_dlogs, _local_data, _scalar, _shift,
                                _shifted_local)

    A, n = M.A, M.dim
    q = _common(A)
    factors = list(q.poles)
    residues = {f: _residue_matrix(q.N, q.d, f) for f in factors}
    roots = {f: _qt_roots(_charpoly(*residues[f])) for f in factors}
    scalars = {f: _scalar(*residues[f]) for f in factors}
    dlogs = _dlogs(q)
    dropped = 0
    for es in itertools.product(*(roots[f] or [COEFF_FIELD.zero]
                                  for f in factors)):
        r = sum((RatFunc(FIELD.convert_from(e, COEFF_FIELD))
                 * RatFunc(f.diff().as_expr() / f.as_expr())
                 for f, e in zip(factors, es)), ZERO)
        S = tuple(tuple(A[i][j] - (r if i == j else ZERO) for j in range(n))
                  for i in range(n))
        shift = dict(zip(factors, es))
        Sq = _shift(q, dlogs, shift)
        assert [[RatFunc(FIELD.field.new(v, Sq.d)) for v in row]
                for row in Sq.N] == [list(row) for row in S]
        factors_S, exps, omega, lead = _shifted_local(Sq, roots, scalars, shift)
        ref = _local_data(_common(S))
        assert (factors_S, exps, omega) == ref[:3]
        assert _lead_values(lead) == _lead_values(ref[3])
        dropped += len(factors_S) < len(factors)
    return dropped


class TestShiftedRoute:
    @given(shifted_systems())
    @settings(max_examples=30, deadline=None)
    def test_matches_solving_each_shift_from_scratch(self, M):
        _same_classes(M)

    @given(shifted_systems())
    @settings(max_examples=30, deadline=None)
    def test_shifted_local_data_equals_recomputed(self, M):
        _check_shifted_local_data(M)

    @pytest.mark.parametrize("rows, drops", [
        # R_x = t*I: the candidate with e_x = t leaves no pole at x
        ([["t/x", "0"], ["0", "t/x + 1/(x-1)"]], True),
        ([["t/x"]], True),
        # only A_11 loses its pole at x; A_22 keeps it
        ([["t/x", "0"], ["0", "1/x + 1/(x-1)"]], False),
        # scalar residue at x^2 - t
        ([["2*t*x/(x^2-t)", "0"], ["0", "2*t*x/(x^2-t)"]], True),
    ])
    def test_pole_dropped_by_the_shift(self, rows, drops):
        classes, _ = _same_classes(DiffSystem(rows))
        assert classes
        assert bool(_check_shifted_local_data(DiffSystem(rows))) == drops

    @pytest.mark.parametrize("rows", [
        # omega <= -2: the residues at 1 and -1 cancel at infinity
        [["1/(x-1) - 1/(x+1)", "0"], ["0", "t/x"]],
        # omega = -1
        [["t/x", "1/x"], ["0", "-1/(x-1)"]],
        # omega = 0 and 1: invertible, then singular leading matrix
        [["1 + t/x", "0"], ["0", "1"]],
        [["x", "0"], ["0", "1/x"]],
    ])
    def test_each_kind_of_infinity(self, rows):
        _same_classes(DiffSystem(rows))

    def test_non_qt_exponents_at_a_quadratic_pole(self):
        _, complete = _same_classes(
            DiffSystem([["(x+1)/(x^2-t)", "1/x"], ["0", "0"]]))
        assert not complete


# -- candidate characters modulo logarithmic derivatives ----------------------

CLASS_EXPONENTS = [0, 1, -1, 2, sp.Rational(1, 2), sp.Rational(-3, 2), t, t + 1,
                   t - 2, 2 * t, t + sp.Rational(1, 2)]


@given(st.lists(
    st.tuples(st.sampled_from(SHIFT_POLES),
              st.lists(st.sampled_from(CLASS_EXPONENTS), min_size=1,
                       max_size=3, unique=True)),
    max_size=3, unique_by=lambda p: p[0]))
@settings(max_examples=80, deadline=None)
def test_class_reps_match_log_derivative_dedupe(per_factor):
    """Comparing exponent differences with `_as_int` keeps the same
    candidates as asking `is_log_derivative` of each difference c - r."""
    from pdgal3.ratfunc import is_log_derivative
    from pdgal3.solvers import _class_reps

    candidates = [(ZERO, ())]
    for f, exps in per_factor:
        dlog = RatFunc(sp.diff(f, x) / f)
        candidates = [
            (c + RatFunc(e) * dlog, es + (COEFF_FIELD.from_sympy(e),))
            for c, es in candidates for e in exps
        ]
    ref = []
    for c, es in candidates:
        if not any((h := is_log_derivative(c - r)) is not None and h[0] == 1
                   for r, _ in ref):
            ref.append((c, es))
    assert _class_reps([es for _, es in candidates]) == [es for _, es in ref]


# -- pole factors from the stored Q[t, x] form ---------------------------------


def _ref_den_factor_dict(values):
    """The route through sympy expressions that pole_factors replaced:
    factor_list over Q[x, t] after clearing denominators in t."""
    out = {}
    for den in dict.fromkeys(ratfunc(v).denominator for v in values):
        if den.degree() == 0:
            continue
        cleared = sp.fraction(sp.together(den.as_expr()))[0]
        for fac, e in sp.factor_list(cleared, x, t)[1]:
            fp = _poly(fac, x)
            if fp.degree() == 0:
                continue
            fp = fp.monic()
            out[fp] = max(out.get(fp, 0), e)
    return out


DEN_FACTORS = [x, x - 1, 1 - x, x - t, x**2 - t, 2 * x + 3, t * x - 1,
               x**2 + t * x + 1, -x**2 + 2, x + t / 2, t, t + 1, 3]


@given(st.lists(
    st.tuples(
        st.sampled_from([1, x, t, x**2 - t, t * x + 2]),
        st.lists(st.tuples(st.sampled_from(DEN_FACTORS), st.integers(1, 3)),
                 max_size=4)),
    min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_pole_factors_match_expression_route(entries):
    from pdgal3.ratfunc import pole_factors

    values = []
    for num, dens in entries:
        den = sp.Integer(1)
        for f, e in dens:
            den *= f**e
        values.append(RatFunc(num / den))
    new, ref = pole_factors(values), _ref_den_factor_dict(values)
    assert list(new.items()) == list(ref.items())
    assert all(f.domain == COEFF_FIELD and f.LC() == 1 for f in new)


# -- one common denominator against the per-entry route --------------------------
#
# Before a solve wrote A as N/d, it read every entry on its own: the residue
# by `residue_at`, the degree at infinity and the leading coefficient by
# `monic_pair`, and each ansatz row by clearing the entry with a division of
# Polys over Q(t).  That route is kept here as the reference.


def _ref_cleared(v, c):
    num, den = v.monic_pair()
    q, rem = c.div(den)
    assert rem.is_zero
    return num * q


def _ref_residue_charpoly(A, f):
    n, k = len(A), f.degree()
    powers = [_poly(x**j, x) for j in range(k)]
    rows = [[None] * (n * k) for _ in range(n * k)]
    for i in range(n):
        for j in range(n):
            r = residue_at(A[i][j], f)
            for m, xm in enumerate(powers):
                col = low_coeffs((r * xm).rem(f), k)
                for l in range(k):
                    rows[i * k + l][j * k + m] = col[l]
    return _charpoly(*_qt_matrix(rows))


def _ref_degree(v):
    num, den = v.monic_pair()
    return None if v.is_zero else num.degree() - den.degree()


def _ref_local_data(A):
    factors = pole_factors([v for row in A for v in row])
    degs = [[_ref_degree(v) for v in row] for row in A]
    omega = max((d for row in degs for d in row if d is not None), default=-1)
    lead = [[v.numerator.rep.LC() if d == omega else COEFF_FIELD.zero
             for v, d in zip(row, drow)] for row, drow in zip(A, degs)]
    exps = None
    if all(e <= 1 for e in factors.values()) and (
            omega <= -1
            or DomainMatrix(lead, (len(A),) * 2, COEFF_FIELD).det()):
        exps = {f: _int_roots(_ref_residue_charpoly(A, f)) for f in factors}
    return factors, exps, omega, lead


def _ref_rational_solutions(A, b=None, bound=10):
    """rational_solutions(A, b, bound) on the per-entry route."""
    A = mat(A.A if isinstance(A, DiffSystem) else A)
    n = len(A)
    factors_A, exps, omega, lead = _ref_local_data(A)
    bvec = [ZERO] * n if b is None else [ratfunc(v) for v in b]
    b_zero = all(v.is_zero for v in bvec)
    factors_b = pole_factors(bvec)
    all_factors = sorted(set(factors_A) | set(factors_b),
                         key=lambda f: sp.default_sort_key(f.as_expr()))
    complete = True
    if exps is not None:
        den_exp = {f: max(0, -min(exps.get(f, ()), default=0),
                          factors_b.get(f, 0) - 1) for f in all_factors}
        bdegs = [d for d in map(_ref_degree, bvec) if d is not None]
        if omega <= -1:
            cands = ([0] if omega < -1
                     else _int_roots(_charpoly(*_qt_matrix(lead))))
            cands += [max(bdegs) + 1] if bdegs else []
            d_max = max(cands) if cands else None
        else:
            d_max = (max(bdegs) - omega) if bdegs else None
    else:
        complete = False
        den_exp = {f: bound for f in all_factors}
        d_max = bound
    d_u, P, S = _poly(1, x), _poly(1, x), _poly(0, x)
    for f, e in den_exp.items():
        d_u = d_u * f**e
        E = max(e + factors_A.get(f, 0), e + 1 if e > 0 else 0,
                factors_b.get(f, 0))
        P = P * f ** (E - e)
    ndeg = -1 if d_max is None else d_u.degree() + d_max
    if ndeg < 0:
        return SolutionSpace([ZERO] * n if b_zero else None, [], complete)
    for f, e in den_exp.items():
        if e > 0:
            S = S + e * f.diff() * P.exquo(f)
    T = [[low_coeffs(-_ref_cleared(A[r][i], P) - (S if r == i else 0))
          for i in range(n)] for r in range(n)]
    Pc = low_coeffs(P)
    bc = [low_coeffs(_ref_cleared(v, P * d_u)) for v in bvec]
    maxdeg = max([ndeg + len(c) - 1 for row in T for c in row]
                 + [ndeg + len(Pc) - 2] + [len(c) - 1 for c in bc] + [0])

    def at(c, d):
        return c[d] if 0 <= d < len(c) else COEFF_FIELD.zero

    rows, rhs = [], []
    for r in range(n):
        for d in range(maxdeg + 1):
            rows.append([at(T[r][i], d - k) + (k * at(Pc, d - k + 1)
                                               if r == i and k else 0)
                         for i in range(n) for k in range(ndeg + 1)])
            rhs.append(at(bc[r], d))
    part, kern = solve_affine(rows, rhs)

    def to_vec(cs):
        w = ndeg + 1
        return [from_low_coeffs(cs[i * w:(i + 1) * w], d_u) for i in range(n)]

    particular = None
    if part is not None:
        particular = [ZERO] * n if b_zero else to_vec(part)
    return SolutionSpace(particular, [to_vec(v) for v in kern], complete)


def _monic_in_lam(cp):
    lam = cp.gens[0]
    return sp.Poly(cp.as_expr(), lam, domain=sp.QQ.frac_field(t)).monic()


MIXED_DENS = [x, x - 1, x - t, 2 * x + t, t * x - 1, x**2 - t]
MIXED_NUMS = [0, 1, -1, 2, -2, t, -t, t - 1]
RHS_ENTRIES = [0, 1, t, 1 / x, t / (x - 1), x, 1 / ((t + 1) * (x**2 - t)),
               1 / (x - t) ** 2]


@st.composite
def mixed_denominator_systems(draw):
    """(A, b): Fuchsian n x n systems, n in {2, 3}, each entry a sum of up
    to two proper terms c/f over up to three of MIXED_DENS (numerators of
    degree one less than f), some of them divided by the x-free t + 1; b
    None or a vector of RHS_ENTRIES."""
    n = draw(st.integers(2, 3))
    dens = draw(st.lists(st.sampled_from(MIXED_DENS), min_size=1, max_size=3,
                         unique=True))
    A = []
    for _ in range(n * n):
        v = sp.S.Zero
        for _ in range(draw(st.integers(0, 2))):
            f = draw(st.sampled_from(dens))
            num = draw(st.sampled_from(MIXED_NUMS))
            if sp.degree(f, x) == 2:
                num = num * x + draw(st.sampled_from(MIXED_NUMS))
            v += num / f / (t + 1 if draw(st.booleans()) else 1)
        A.append(RatFunc(v))
    b = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(RHS_ENTRIES), min_size=n, max_size=n)))
    return tuple(tuple(A[i * n:(i + 1) * n]) for i in range(n)), b


@given(mixed_denominator_systems())
@example((((RatFunc(-t / (t * x - 1)), ZERO), (ZERO, ZERO)), [1, 0]))
@settings(max_examples=25, deadline=None)
def test_common_denominator_matches_per_entry_route(case):
    """Residue characteristic polynomials, local data, rational solutions
    and hyperexponential classes read off A = N/d equal the per-entry
    route's."""
    from pdgal3.solvers import _local_data

    A, b = case
    q = _common(A)
    for f in q.poles:
        assert _monic_in_lam(_residue_charpoly(A, f)) == _monic_in_lam(
            _ref_residue_charpoly(A, f))
    factors, exps, omega, lead = _local_data(q)
    ref = _ref_local_data(A)
    assert (factors, exps, omega) == ref[:3]
    assert _lead_values(lead) == ref[3]
    s, s_ref = rational_solutions(A, b), _ref_rational_solutions(A, b)
    assert (s.particular, s.basis, s.complete) == (
        s_ref.particular, s_ref.basis, s_ref.complete)
    _same_classes(DiffSystem(A), residue_charpoly=_ref_residue_charpoly,
                  solve=_ref_rational_solutions)


PROLONGATION = [["t/x", "1/x", "0"], ["0", "t/x", "1/(x-1)"], ["0", "0", "0"]]


def test_solves_read_no_entry_on_its_own(monkeypatch):
    """The solves of the (CQ,NC)-prolongation fixture and its dual, with
    and without b, call neither `residue_at` nor `monic_pair`, and give the
    per-entry route's answers."""
    import sys

    from pdgal3 import ratfunc as ratfunc_module
    from pdgal3.systems import dual

    def solves(solve):
        out = []
        for M in (DiffSystem(PROLONGATION), dual(DiffSystem(PROLONGATION))):
            for b in (None, ["1/x", "0", "t"], ["1/x^2", "1", "0"]):
                s = solve(M, b)
                out.append((s.particular, s.basis, s.complete))
            out.append([(r, s.basis) for r, s in hyperexponential_classes(M)[0]])
        return out

    ref = solves(_ref_rational_solutions)
    assert [len(c) for c in ref[3::4]] == [1, 1]
    calls = []

    def counting(inner, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapper

    inner = ratfunc_module.residue_at
    for name, mod in list(sys.modules.items()):
        if name.startswith("pdgal3") and getattr(mod, "residue_at", None) is inner:
            monkeypatch.setattr(mod, "residue_at", counting(inner, "residue_at"))
    monkeypatch.setattr(RatFunc, "monic_pair",
                        counting(RatFunc.monic_pair, "monic_pair"))
    assert solves(rational_solutions) == ref
    assert calls == []
