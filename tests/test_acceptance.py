"""Acceptance gate: one test per primary criterion, one pass/fail line each.

Each criterion prints `criterion N (<name>): PASS in <s>s` on success; a
failure raises with the criterion named, so the pytest -v report shows exactly
one pass/fail line per criterion.
"""

import random
import time

import sympy as sp

from pdgal3.galois3 import classify2, dispatch
from pdgal3.integrability import character_lattice, is_constant, rank1_group, telescoper
from pdgal3.modules import FlagCertificate
from pdgal3.oreops import DELTA
from pdgal3.ratfunc import (COEFF_FIELD, FIELD, RatFunc, d_t, d_x,
                            rational_antiderivative, residues)
from pdgal3.series import delta_series, fundamental_series, ordinary_point, satisfies, series_block
from pdgal3.systems import DiffSystem, dual, gauge, mat_inv, prolong
from util import random_fuchsian

t, x = sp.symbols("t x")

CERT2 = FlagCertificate(subspaces=((("1",), ("0",)),))
CERT3 = FlagCertificate(
    subspaces=(
        (("1",), ("0",), ("0",)),
        (("1", "0"), ("0", "1"), ("0", "0")),
    )
)


class _criterion:
    def __init__(self, num, name, budget):
        self.num, self.name, self.budget = num, name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num} ({self.name}): {status} in {elapsed:.1f}s")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.num} exceeded {self.budget}s budget"
            )
        return False


# -- 1: prolongation identity -------------------------------------------------------


def test_criterion_1_prolongation_identity():
    with _criterion(1, "prolongation identity", 30):
        rng = random.Random(101)
        sizes = [1] * 18 + [2] * 28 + [3] * 4
        for i, n in enumerate(sizes):
            M = random_fuchsian(rng, n)
            Mp = prolong(M)
            x0 = ordinary_point(Mp)
            U = fundamental_series(M, x0, N=8)
            block = series_block([[U, delta_series(U)], [None, U]], x0, 8)
            assert satisfies(Mp, block), f"sample {i} (n={n})"


# -- 2: constancy soundness/completeness --------------------------------------------


def _random_qx_system(rng, n):
    """Random Fuchsian system over Q(x): no t anywhere."""
    dens = [x, x - 1, x + 1]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            val = sp.S.Zero
            for _ in range(rng.randint(0, 2)):
                val += sp.Rational(rng.randint(-3, 3)) / rng.choice(dens)
            row.append(RatFunc(val))
        rows.append(row)
    return DiffSystem(rows)


def _mild_invertible(rng, n, xdep):
    """Random invertible matrix over Q(t)(x), kept low-degree so the witness
    search stays inside a small ansatz bound."""
    from pdgal3.systems import mat, mat_identity, mat_mul

    pool = [sp.S.One, x, t, x - t] if xdep else [sp.S.One, t, t ** 2]
    P = mat_identity(n)
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = [[sp.S.One if a == b else sp.S.Zero for b in range(n)]
             for a in range(n)]
        E[i][j] = rng.choice(pool) * rng.choice([1, -1])
        P = mat_mul(mat(E), P)
    return P


def test_criterion_2_constancy():
    with _criterion(2, "constancy on constructed instances", 60):
        rng = random.Random(202)
        for i in range(30):
            A0 = _random_qx_system(rng, 2)
            P = _mild_invertible(rng, 2, xdep=(i % 2 == 0))
            M = gauge(A0, mat_inv(P))
            w = is_constant(M, bound=2)
            assert w is not None, f"gauged sample {i}"
            assert w.verify(M), f"witness identity failed on sample {i}"
        # non-constant rank-1 instances: nonzero t-dependent residue
        assert is_constant(DiffSystem([["t/x"]])) is None
        for i in range(10):
            c1 = rng.choice([1, 2, 3, -1, -2])
            c0 = rng.randint(-3, 3)
            d = rng.choice(["x", "x-1", "x+1"])
            f = f"({c1}*t + {c0})/({d})"
            assert is_constant(DiffSystem([[f]])) is None, f


# -- 3: telescoper minimality --------------------------------------------------------


def _dtk(f, k):
    for _ in range(k):
        f = d_t(f)
    return f


def _residue_matrix(f, H):
    """Column k holds the aligned residue coefficients of d_t^k(f).

    A monic order-h operator L with L(f) integrable exists iff column h lies
    in the span of columns 0..h-1 (integrability = all residues vanish, since
    polynomial parts and higher-order pole parts always integrate).
    """
    per_k, slots = [], {}
    for k in range(H + 1):
        data = {}
        for rd in residues(_dtk(f, k)):
            key = sp.srepr(rd.pole.as_expr())
            slots.setdefault(key, rd.pole.degree())
            data[key] = sp.together(rd.residue.as_expr())
        per_k.append(data)
    rows = []
    for key in sorted(slots):
        for i in range(slots[key]):
            rows.append([sp.expand(d.get(key, sp.S.Zero)).coeff(x, i)
                         for d in per_k])
    return sp.Matrix(rows)


def test_criterion_3_telescoper_minimality():
    with _criterion(3, "telescoper minimality", 10):
        for s in ["1/x", "1/(x-t)", "t/(x-t)", "1/x + 1/(x-t)"]:
            f = RatFunc.parse(s)
            op = telescoper(f)
            h = op.order
            # soundness: L(f) has a rational antiderivative
            total = sum(
                (RatFunc(FIELD.convert_from(c, COEFF_FIELD)) * _dtk(f, k)
                 for k, c in enumerate(op.coeffs)),
                RatFunc(0),
            )
            assert rational_antiderivative(total) is not None, s
            # minimality: columns 0..h-1 of the residue obstruction matrix are
            # independent (so no monic L of order < h integrates), and column
            # h is in their span (consistent with the returned order)
            R = _residue_matrix(f, h)
            assert R[:, :h].rank(simplify=True) == h, s
            assert R.rank(simplify=True) == h, s


# -- 4: classify2 trichotomy -----------------------------------------------------------


def _xfree_gauge(rng):
    """Random invertible 2x2 over Q(t): x-free, so gauging preserves the
    Fuchsian shape (and therefore solver completeness)."""
    vals = ["1", "t", "t+1", "2", "t**2"]
    a = rng.choice(vals)
    b = rng.choice(vals)
    return [["1", a], ["0", "1"]], [["1", "0"], [b, "1"]]


def test_criterion_4_classify2_trichotomy():
    with _criterion(4, "classify2 trichotomy", 60):
        rng = random.Random(404)
        chis = ["0", "t/x", "2*t/(x-1)", "t/(x+1)"]

        def cq_fixture():
            chi = rng.choice(chis)
            u = rng.choice(["1/x", "2/(x-1)", "3/x + 1/(x+1)"])
            b = rng.choice(["0", "1", "1/x"])
            return DiffSystem([[f"({chi}) + {u}", b], ["0", chi]])

        def cr_fixture():
            chi = rng.choice(chis)
            c = rng.choice([1, 2, 3, -1])
            d = rng.randint(-2, 2)
            u = f"({c}*t + {d})/x"
            return DiffSystem([[f"({chi}) + {u}", "0"], ["0", chi]])

        def nc_fixture():
            chi = rng.choice(chis)
            k = rng.choice([1, 2, 3, -1])
            c = rng.choice([1, 2, -1])
            return DiffSystem(
                [[f"({chi}) + {k}*t/x", f"{c}/(x-1)"], ["0", chi]]
            )

        fixtures = []
        for mk, label in [(cq_fixture, "CQ"), (cr_fixture, "CR"),
                          (nc_fixture, "NC")]:
            for _ in range(10):
                V = mk()
                assert classify2(V, CERT2) == label, V.to_strings()
                fixtures.append((V, label))
        # gauge invariance on all fixtures (x-free gauges over Q(t))
        for V, label in fixtures:
            up, low = _xfree_gauge(rng)
            P = rng.choice([up, low])
            assert classify2(gauge(V, mat_inv(P))) == label, (V.to_strings(), P)


# -- 5: dispatcher branch correctness ---------------------------------------------------

# fixture, certificate, member matrices, non-member matrices
BRANCH_FIXTURES = {
    "SEMISIMPLE": (
        DiffSystem([["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]]),
        CERT3,
        [[["5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["5", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]],
    ),
    "DECOMPOSABLE": (
        DiffSystem([["t/x", "1/(x-1)", "0"], ["0", "0", "0"],
                    ["0", "0", "1/x"]]),
        CERT3,
        [[["1", "5", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["5", "5", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["5", "1", "0"], ["0", "0", "1"]],
         [["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    ),
    "INDECOMPOSABLE-2DIM": (
        DiffSystem([["0", "1/x", "0"], ["t/(x-1)", "0", "1/(x+1)"],
                    ["0", "0", "0"]]),
        None,
        [[["1", "0", "3"], ["0", "1", "5"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "3", "1"]],
         [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    ),
    "(CQ,CQ)": (
        DiffSystem([["0", "1/x", "0"], ["0", "0", "1/x"], ["0", "0", "0"]]),
        CERT3,
        [[["1", "3", "5"], ["0", "1", "7"], ["0", "0", "1"]]],
        [[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    ),
    "(CR,CQ,NC)": (
        DiffSystem([["t/x", "0", "1/(x-1)"], ["0", "0", "1/x"],
                    ["0", "0", "0"]]),
        CERT3,
        [[["5", "0", "9"], ["0", "1", "4"], ["0", "0", "1"]]],
        [[["5", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    ),
    "(CR,NC,NC)": (
        DiffSystem([["t/x", "0", "1/(x-1)"], ["0", "t/(x-1)", "1/x"],
                    ["0", "0", "0"]]),
        CERT3,
        [[["5", "0", "9"], ["0", "7", "4"], ["0", "0", "1"]]],
        [[["5", "0", "0"], ["2", "7", "0"], ["0", "0", "1"]],
         [["5", "0", "0"], ["0", "7", "0"], ["0", "0", "2"]]],
    ),
    "(NC,NC)-commutative": (
        DiffSystem([["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x-1)"],
                    ["0", "0", "-t/x"]]),
        CERT3,
        [[["1", "0", "5"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]],
    ),
    "(NC,NC)-noncommutative": (
        DiffSystem([["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"],
                    ["0", "0", "-t/x"]]),
        CERT3,
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]],
    ),
    "(CQ,NC)-prolongation": (
        # prolongation of the 2-dim NC module [[t/x, 1/(x-1)], [0, 0]]
        DiffSystem([["t/x", "1/x", "0"], ["0", "t/x", "1/(x-1)"],
                    ["0", "0", "0"]]),
        CERT3,
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["5", "0", "2*t"], ["0", "5", "t**2"], ["0", "0", "1"]]],
        [[["5", "0", "1"], ["0", "5", "t**2"], ["0", "0", "1"]],
         [["5", "1", "0"], ["0", "5", "0"], ["0", "0", "1"]]],
    ),
}


def test_criterion_5_branch_correctness():
    with _criterion(5, "dispatcher branch correctness", 120):
        for label, (V, cert, members, nonmembers) in BRANCH_FIXTURES.items():
            report, group = dispatch(V, cert)
            assert report.case_path == label, (label, report.case_path)
            for M in members:
                assert group.member(M), (label, M)
            for M in nonmembers:
                assert not group.member(M), (label, M)


# -- 6: duality and permutation symmetries --------------------------------------------


def test_criterion_6_dual_and_permutation():
    with _criterion(6, "duality and permutation symmetries", 120):
        flag_fixtures = {
            k: v for k, v in BRANCH_FIXTURES.items()
            if k.startswith("(")
        }
        # extra flag fixtures not in the branch table
        flag_fixtures["(CQ,NC)-Ru"] = (
            DiffSystem([["0", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"],
                        ["0", "0", "t/x"]]), CERT3, [], [])
        flag_fixtures["(CR,NC,CQ)→permute→(CR,CQ,NC)"] = (
            DiffSystem([["1/x", "0", "1/(x-1)"], ["0", "t/x", "1/(x+1)"],
                        ["0", "0", "0"]]), CERT3, [], [])
        for label, (V, cert, _, _) in flag_fixtures.items():
            native, _ = dispatch(V, cert)
            assert native.case_path == label
            terminal = native.case_path.split("→")[-1]
            dual_report, _ = dispatch(dual(V), None)
            assert dual_report.case_path.split("→")[-1] == terminal, (
                label, dual_report.case_path)
            if dual_report.case_path != native.case_path:
                assert "→dual→" in dual_report.case_path, dual_report.case_path
        # the (CR,NC,CQ) fixture routes through the documented permutation
        perm_report, _ = dispatch(
            DiffSystem([["1/x", "0", "1/(x-1)"], ["0", "t/x", "1/(x+1)"],
                        ["0", "0", "0"]]), CERT3)
        assert "→permute→(CR,CQ,NC)" in perm_report.case_path


# -- 7: torus machinery ---------------------------------------------------------------


def test_criterion_7_torus_machinery():
    with _criterion(7, "torus machinery", 10):
        entries = [RatFunc.parse(s) for s in ["t/x", "1/x", "0"]]
        lat = character_lattice(entries)
        assert lat.generators == ((0, 0, 1), (0, 1, 0))
        # every generator's witness satisfies  (m·a) r = r'
        for m, r in zip(lat.generators, lat.witnesses):
            total = sum(
                (RatFunc(int(mi)) * a for mi, a in zip(m, entries)),
                RatFunc(0),
            )
            assert (total * r - d_x(r)).is_zero
        g1 = rank1_group(RatFunc.parse("t/x"))
        assert g1.family == "rank1-delta" and g1.data["op"] == DELTA
        # 3-dim torus membership on diagonal samples
        _, torus = dispatch(
            DiffSystem([["t/x", "0", "0"], ["0", "1/x", "0"],
                        ["0", "0", "0"]]), CERT3)
        assert torus.member([["5", "0", "0"], ["0", "1", "0"],
                             ["0", "0", "1"]])
        assert not torus.member([["t", "0", "0"], ["0", "1", "0"],
                                 ["0", "0", "1"]])
        assert not torus.member([["5", "0", "0"], ["0", "2", "0"],
                                 ["0", "0", "1"]])
        assert not torus.member([["5", "0", "0"], ["0", "1", "0"],
                                 ["0", "0", "3"]])
