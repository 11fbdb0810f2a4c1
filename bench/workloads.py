"""Input generators for the four benchmark workloads.

Every generator returns a list of `System` records in an order drawn from
the benchmark seed.  Each record carries the
plain `pdgal3/1` document the program receives and the answer known by
construction, which the benchmark checks with its own code.  Inputs are built
with sympy here, not with the package, so the program under test never
produces its own inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import sympy as sp

t, x = sp.symbols("t x")

SCHEMA = "pdgal3/1"
ACCEPTANCE = "tests/test_acceptance.py"
GALOIS3 = "tests/test_galois3.py"

FLAG3 = [[["1"], ["0"], ["0"]], [["1", "0"], ["0", "1"], ["0", "0"]]]
IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@dataclass
class System:
    """One benchmark input and its expected answer."""

    name: str
    kind: str          # "analyze", "constancy" or "oracle"
    doc: dict          # the pdgal3/1 file content
    expect: dict       # answer known by construction
    source: str        # test or generator the system comes from
    members: list = field(default_factory=list)
    nonmembers: list = field(default_factory=list)

    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True) + "\n"


def _doc(rows, flag=None) -> dict:
    doc = {"schema": SCHEMA, "dim": len(rows), "matrix": rows}
    if flag is not None:
        doc["certificates"] = {"flag": flag}
    return doc


def _strings(M) -> list:
    return [[str(sp.cancel(M[i, j])) for j in range(M.cols)]
            for i in range(M.rows)]


def _matrix(rows) -> sp.Matrix:
    return sp.Matrix([[sp.sympify(v, locals={"t": t, "x": x}) for v in row]
                      for row in rows])


# -- fixtures copied from the test suite -----------------------------------------------

# name: (matrix, flag certificate or None, members, non-members, source test)
FIXTURES = {
    "SEMISIMPLE": (
        [["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]], FLAG3,
        [[["5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["5", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "DECOMPOSABLE": (
        [["t/x", "1/(x-1)", "0"], ["0", "0", "0"], ["0", "0", "1/x"]], FLAG3,
        [[["1", "5", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["5", "5", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["5", "1", "0"], ["0", "0", "1"]],
         [["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "INDECOMPOSABLE-2DIM": (
        [["0", "1/x", "0"], ["t/(x-1)", "0", "1/(x+1)"], ["0", "0", "0"]],
        None,
        [[["1", "0", "3"], ["0", "1", "5"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "3", "1"]],
         [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "(CQ,CQ)": (
        [["0", "1/x", "0"], ["0", "0", "1/x"], ["0", "0", "0"]], FLAG3,
        [[["1", "3", "5"], ["0", "1", "7"], ["0", "0", "1"]]],
        [[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "(CR,CQ,NC)": (
        [["t/x", "0", "1/(x-1)"], ["0", "0", "1/x"], ["0", "0", "0"]], FLAG3,
        [[["5", "0", "9"], ["0", "1", "4"], ["0", "0", "1"]]],
        [[["5", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "(CR,NC,NC)": (
        [["t/x", "0", "1/(x-1)"], ["0", "t/(x-1)", "1/x"], ["0", "0", "0"]],
        FLAG3,
        [[["5", "0", "9"], ["0", "7", "4"], ["0", "0", "1"]]],
        [[["5", "0", "0"], ["2", "7", "0"], ["0", "0", "1"]],
         [["5", "0", "0"], ["0", "7", "0"], ["0", "0", "2"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "(NC,NC)-commutative": (
        [["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x-1)"], ["0", "0", "-t/x"]],
        FLAG3,
        [[["1", "0", "5"], ["0", "1", "0"], ["0", "0", "1"]]],
        [[["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "(NC,NC)-noncommutative": (
        [["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"], ["0", "0", "-t/x"]],
        FLAG3,
        [IDENTITY3],
        [[["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    "(CQ,NC)-prolongation": (
        [["t/x", "1/x", "0"], ["0", "t/x", "1/(x-1)"], ["0", "0", "0"]], FLAG3,
        [IDENTITY3,
         [["5", "0", "2*t"], ["0", "5", "t**2"], ["0", "0", "1"]]],
        [[["5", "0", "1"], ["0", "5", "t**2"], ["0", "0", "1"]],
         [["5", "1", "0"], ["0", "5", "0"], ["0", "0", "1"]]],
        ACCEPTANCE + "::BRANCH_FIXTURES",
    ),
    # The tests name no member matrices for the last three fixtures.  The
    # identity lies in every group; the permute fixture's non-member follows
    # from the equation jet(1,1) - 1 that its test asserts.
    "(CQ,NC)-Ru": (
        [["0", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"], ["0", "0", "t/x"]],
        FLAG3, [IDENTITY3], [],
        GALOIS3 + "::test_dispatch_cqnc_ru",
    ),
    "(CR,NC,CQ)→permute→(CR,CQ,NC)": (
        [["1/x", "0", "1/(x-1)"], ["0", "t/x", "1/(x+1)"], ["0", "0", "0"]],
        FLAG3, [IDENTITY3],
        [[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        GALOIS3 + "::test_dispatch_cr_nc_cq_routes_through_permutation",
    ),
    "DECOMPOSABLE-CQ": (
        [["1/x", "1", "0"], ["0", "0", "0"], ["0", "0", "t/x"]], FLAG3,
        [IDENTITY3], [],
        GALOIS3 + "::test_dispatch_decomposable_constant_quotient_is_deferred",
    ),
}

#: expected case path of a fixture, where it differs from its name
CASE_PATH = {"DECOMPOSABLE-CQ": "DECOMPOSABLE"}

#: the flag fixtures of criterion 6 (test_criterion_6_dual_and_permutation)
FLAG_FIXTURES = [k for k in FIXTURES if k.startswith("(")]

#: entries of the x-free gauges over Q(t), as in _xfree_gauge of criterion 4
XFREE_VALUES = ["1", "t", "t+1", "2", "t**2"]
OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]


def terminal_case(case_path: str) -> str:
    """The label that dual and Q(t)-gauge preserve (criterion 6)."""
    return case_path.split("→")[-1].replace("(dual)", "")


def certified(seed: int) -> list:
    """Every case-path fixture with its flag certificate, in seeded order."""
    out = []
    for name, (rows, flag, members, nonmembers, source) in FIXTURES.items():
        out.append(System(
            name=name, kind="analyze", doc=_doc(rows, flag),
            expect={"case_path": CASE_PATH.get(name, name)},
            source=source, members=members, nonmembers=nonmembers,
        ))
    random.Random(seed).shuffle(out)
    return out


def uncertified_system(name, pos, c) -> System:
    """The dual of a flag fixture under the x-free gauge I + c*e_ij, with no
    certificate."""
    i, j = pos
    P = sp.eye(3)
    P[i, j] = sp.sympify(c, locals={"t": t})
    # dual is -A^T; an x-free gauge P acts by P A P^-1
    A = P * (-_matrix(FIXTURES[name][0]).T) * P.inv()
    return System(
        name=f"dual {name} gauge ({i + 1},{j + 1})={c}", kind="analyze",
        doc=_doc(_strings(A)),
        expect={"terminal": terminal_case(CASE_PATH.get(name, name))},
        source=FIXTURES[name][4] + " + " + ACCEPTANCE + "::_xfree_gauge",
    )


def uncertified(seed: int) -> list:
    """Every flag fixture, dualized and scrambled by an x-free gauge drawn
    with criterion 4's seed, in seeded order."""
    rng = random.Random(CRITERION_4_SEED)
    out = [uncertified_system(name, rng.choice(OFF_DIAGONAL), rng.choice(XFREE_VALUES))
           for name in FLAG_FIXTURES]
    random.Random(seed).shuffle(out)
    return out


def _random_qx_system(rng, n):
    """A Fuchsian n x n system over Q(x), as in criterion 2."""
    dens = [x, x - 1, x + 1]
    return sp.Matrix(n, n, lambda i, j: sum(
        (sp.Rational(rng.randint(-3, 3)) / rng.choice(dens)
         for _ in range(rng.randint(0, 2))), sp.S.Zero))


def _mild_invertible(rng, n, xdep):
    """A product of elementary matrices over Q(t)(x), as in criterion 2."""
    pool = [sp.S.One, x, t, x - t] if xdep else [sp.S.One, t, t ** 2]
    P = sp.eye(n)
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = sp.eye(n)
        E[i, j] = rng.choice(pool) * rng.choice([1, -1])
        P = E * P
    return P


#: the seeds criteria 1, 2 and 4 draw their systems with
CRITERION_1_SEED, CRITERION_2_SEED, CRITERION_4_SEED = 101, 202, 404

#: gauged t-free systems per constancy workload, and non-constant rank-1 ones
CONSTANT_SYSTEMS = 16
NONCONSTANT_SYSTEMS = 4

def constancy(seed: int) -> list:
    """The first systems of criterion 2's stream: gauges of t-free Fuchsian
    2x2 systems (constant by construction) and rank-1 systems with a
    t-dependent residue (non-constant), in seeded order."""
    corpus = random.Random(CRITERION_2_SEED)
    out = []
    for i in range(CONSTANT_SYSTEMS):
        A0 = _random_qx_system(corpus, 2)
        P = _mild_invertible(corpus, 2, xdep=(i % 2 == 0))
        A = P * A0 * P.inv() + sp.diff(P, x) * P.inv()
        out.append(System(
            name=f"gauged t-free #{i}", kind="constancy", doc=_doc(_strings(A)),
            expect={"constant": True},
            source=ACCEPTANCE + "::test_criterion_2_constancy (gauged)",
        ))
    for i in range(NONCONSTANT_SYSTEMS):
        c1 = corpus.choice([1, 2, 3, -1, -2])
        c0 = corpus.randint(-3, 3)
        d = corpus.choice(["x", "x-1", "x+1"])
        out.append(System(
            name=f"rank-1 ({c1}*t+{c0})/({d})", kind="constancy",
            doc=_doc([[f"({c1}*t + {c0})/({d})"]]),
            expect={"constant": False},
            source=ACCEPTANCE + "::test_criterion_2_constancy (non-constant)",
        ))
    random.Random(seed).shuffle(out)
    return out


#: system sizes of the oracle workload (criterion 1 mixes sizes 1, 2 and 3)
ORACLE_SIZES = [1] * 6 + [2] * 22 + [3] * 2
FUCHSIAN_DENS = [x, x + 1, x - 1, x - t]


def oracle(seed: int) -> list:
    """Random Fuchsian systems (tests/util.py::random_fuchsian) drawn with
    criterion 1's seed, checked with the criterion-1 prolongation identity,
    in seeded order."""
    corpus = random.Random(CRITERION_1_SEED)
    out = []
    for k, n in enumerate(ORACLE_SIZES):
        A = sp.Matrix(n, n, lambda i, j: sum(
            ((corpus.randint(-3, 3) + corpus.randint(-1, 1) * t)
             / corpus.choice(FUCHSIAN_DENS)
             for _ in range(corpus.randint(0, 2))), sp.S.Zero))
        out.append(System(
            name=f"random Fuchsian #{k} (n={n})", kind="oracle",
            doc=_doc(_strings(A)), expect={"satisfies": True},
            source=ACCEPTANCE + "::test_criterion_1_prolongation_identity",
        ))
    random.Random(seed).shuffle(out)
    return out


WORKLOADS = {
    "certified": certified,
    "uncertified": uncertified,
    "constancy": constancy,
    "oracle": oracle,
}
