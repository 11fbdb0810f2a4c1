"""The Q(t) solve: `solve_affine` specializes t, reconstructs and certifies,
and must return exactly the RREF solution of an elimination over Q(t)."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from pdgal3 import linalg
from pdgal3.integrability import is_constant
from pdgal3.linalg import nullspace, solve_affine
from pdgal3.ratfunc import COEFF_FIELD, RatFunc, _T_RING
from pdgal3.systems import DiffSystem

T = _T_RING.gens[0]
ROOT = Path(__file__).resolve().parent.parent


def _reference(A, b):
    """(particular, kernel) read off DomainMatrix(...).rref() over Q(t)."""
    n = len(A[0])
    rows = [[COEFF_FIELD.convert(v) for v in row] + [COEFF_FIELD.convert(c)]
            for row, c in zip(A, b)]
    R, pivots = DomainMatrix(rows, (len(rows), n + 1), COEFF_FIELD).rref()
    R = R.to_list()
    kernel = []
    for f in range(n):
        if f in pivots:
            continue
        v = [COEFF_FIELD.zero] * n
        v[f] = COEFF_FIELD.one
        for r, p in enumerate(pivots):
            if p < f:
                v[p] = -R[r][f]
        kernel.append(v)
    if n in pivots:
        return None, kernel
    part = [COEFF_FIELD.zero] * n
    for r, p in enumerate(pivots):
        part[p] = R[r][n]
    return part, kernel


def _check(A, b):
    got = solve_affine(A, b)
    assert got == _reference(A, b)
    part, kernel = got
    assert all(COEFF_FIELD.of_type(v) for v in (part or []) + sum(kernel, []))
    assert nullspace(A) == kernel


_COEFF = st.integers(-3, 3)
_POLY = st.lists(_COEFF, min_size=1, max_size=4).map(
    lambda cs: sum((c * T ** k for k, c in enumerate(cs)), _T_RING.zero))
_NONZERO = _POLY.filter(bool)


def _entry():
    """0 (often), an int, a Q[t] ring element, its Q(t) value, or a Q(t)
    value with a denominator."""
    return st.one_of(
        st.just(0), st.just(0), _COEFF, _POLY,
        _POLY.map(COEFF_FIELD.field.field_new),
        st.tuples(_POLY, _NONZERO).map(
            lambda nd: COEFF_FIELD.field.new(nd[0], nd[1])),
    )


@st.composite
def _systems(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    A = [[draw(_entry()) for _ in range(n)] for _ in range(m)]
    b = [draw(_entry()) for _ in range(m)]
    kind = draw(st.sampled_from(["random", "consistent", "dependent rows",
                                 "dependent columns", "t-free row",
                                 "zero row"]))
    conv = COEFF_FIELD.convert
    if kind == "consistent":
        v = [conv(draw(_entry())) for _ in range(n)]
        b = [sum((conv(a) * c for a, c in zip(row, v)), COEFF_FIELD.zero)
             for row in A]
    elif kind == "dependent rows" and m > 1:
        c0, c1 = conv(draw(_entry())), conv(draw(_entry()))
        A[-1] = [c0 * conv(u) + c1 * conv(w) for u, w in zip(A[0], A[1])]
        b[-1] = c0 * conv(b[0]) + c1 * conv(b[1]) + conv(draw(_entry()))
    elif kind == "dependent columns" and n > 1:
        c = conv(draw(_entry()))
        for row in A:
            row[-1] = c * conv(row[0])
    elif kind == "t-free row":
        A[0] = [draw(_COEFF) for _ in range(n)]
    elif kind == "zero row":
        A[0] = [0] * n
    return A, b


@given(_systems())
@settings(max_examples=100, deadline=None)
def test_solve_affine_is_the_rref_solution(system):
    _check(*system)


def test_solve_affine_inconsistent_and_rank_deficient():
    # b = e_1 outside the span of rank-1 columns (t, t^2) and (1, t)
    A = [[T, 1], [T**2, T]]
    assert solve_affine(A, [1, 0])[0] is None
    _check(A, [1, 0])
    _check(A, [T + 1, T**2 + T])
    _check([[0, 0], [0, 0]], [0, 0])
    _check([[0, 0]], [1])


def test_unlucky_points_restart_the_collection(monkeypatch):
    # det A = (t - t1)(t - t2) vanishes at the first two points, where the
    # rank of [A|b] stays 2 with pivots (1, 2) instead of (0, 1)
    t1, t2 = linalg._point(0), linalg._point(1)
    u = (T - t1) * (T - t2)
    A = [[u, 1], [2 * u, 3]]
    b = [1, T]
    seen = []
    real = linalg._rref_at

    def recording(rows, t0, p):
        R, pivots = real(rows, t0, p)
        seen.append((t0, pivots))
        return R, pivots

    monkeypatch.setattr(linalg, "_rref_at", recording)
    _check(A, b)
    assert seen[:2] == [(t1, (1, 2)), (t2, (1, 2))]
    assert seen[2][1] == (0, 1)


def test_a_wrong_reconstruction_fails_the_certificate(monkeypatch):
    real_rec, real_cert = linalg._reconstruct, linalg._certified
    wrong, verdicts = [], []

    def once_wrong(nodes, ys):
        rec = real_rec(nodes, ys)
        if rec is not None and not wrong:
            N, D = rec
            wrong.append(len(nodes.points))
            return N[:-1] + [(N[-1] + 1) % nodes.p], D
        return rec

    def certified(rows, cols):
        verdicts.append(real_cert(rows, cols))
        return verdicts[-1]

    monkeypatch.setattr(linalg, "_reconstruct", once_wrong)
    monkeypatch.setattr(linalg, "_certified", certified)
    A = [[T, 1, 0], [1, T**2, 1]]
    b = [T + 1, 2]
    assert solve_affine(A, b) == _reference(A, b)
    assert wrong and False in verdicts and verdicts[-1] is True


def _recording_primes(monkeypatch):
    used = []
    real = linalg._rref_at

    def recording(rows, t0, p):
        if p not in used:
            used.append(p)
        return real(rows, t0, p)

    monkeypatch.setattr(linalg, "_rref_at", recording)
    return used


def test_large_coefficients_take_several_primes(monkeypatch):
    # 2**200 + 1 has no image of bits to spare modulo one prime below 2**127
    used = _recording_primes(monkeypatch)
    _check([[T, 1], [1, T]], [2**200 + 1, 0])
    assert len(used) >= 2


def test_a_bad_prime_is_discarded(monkeypatch):
    # modulo the first prime p0 the row is t-free, and the answer's
    # denominator t + 1/p0 has no image there
    used = _recording_primes(monkeypatch)
    p0 = next(linalg._primes())
    _check([[p0 * T + 1, 1]], [0])
    assert used[0] == p0 and len(used) >= 2


def test_a_wrong_image_is_dropped_with_its_window(monkeypatch):
    # the first prime's image is wrong in one coefficient, and the answer
    # needs several primes: no lift certifies until the run of images that
    # holds the wrong one is dropped
    used = _recording_primes(monkeypatch)
    real_rec = linalg._reconstruct
    wrong = []

    def once_wrong(nodes, ys):
        rec = real_rec(nodes, ys)
        if rec is None or wrong:
            return rec
        wrong.append(nodes.p)
        N, D = rec
        return N[:-1] + [(N[-1] + 1) % nodes.p], D

    monkeypatch.setattr(linalg, "_reconstruct", once_wrong)
    _check([[T, 1], [1, T]], [2**200 + 1, 0])
    assert wrong == used[:1] and len(used) > 4


def test_constancy_solve_runs_no_elimination_over_qt(monkeypatch):
    # the largest ansatz of the constancy benchmark: no RREF over Q(t)
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    doc = next(s.doc for s in workloads.constancy(1)
               if s.name == "gauged t-free #0")
    M = DiffSystem([[RatFunc.parse(v) for v in row] for row in doc["matrix"]])
    domains = []
    real = DomainMatrix.rref

    def recording(self, *args, **kwargs):
        domains.append(self.domain)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(DomainMatrix, "rref", recording)
    assert is_constant(M, bound=2) is not None
    assert COEFF_FIELD not in domains


@pytest.mark.parametrize("A", [[[0]], [[1, T], [T, T**2]], [[T, 0, 1]]])
def test_nullspace_is_the_homogeneous_solve(A):
    assert nullspace(A) == _reference(A, [0] * len(A))[1]
    assert nullspace([]) == []
    assert all(v == 0 for v in solve_affine(A, [0] * len(A))[0])
