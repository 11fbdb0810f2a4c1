"""Shared helpers for the test suite: deterministic random Fuchsian systems."""

import random

import sympy as sp

from pdgal3.modules import FlagCertificate
from pdgal3.ratfunc import RatFunc, ratfunc, t, x
from pdgal3.systems import DiffSystem, gauge

#: denominators used by the randomized Fuchsian generators
FUCHSIAN_DENS = [x, x + 1, x - 1, x - t]


def random_fuchsian(rng: random.Random, n: int) -> DiffSystem:
    """An n x n system whose entries are sums c*p/q with q in FUCHSIAN_DENS.

    Every finite singularity is a simple pole and infinity is regular or
    regular-singular (entries are proper).
    """
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            val = sp.S.Zero
            for _ in range(rng.randint(0, 2)):
                num = rng.randint(-3, 3) + rng.randint(-1, 1) * t
                den = rng.choice(FUCHSIAN_DENS)
                val += num / den
            row.append(RatFunc(val))
        rows.append(row)
    return DiffSystem(rows)


def residue_at(a, f):
    """Reference residue element of a at the monic squarefree factor f of
    its denominator, as a Poly in x over Q(t): (num * den'^(-1)) mod f from
    a's `monic_pair`, the per-element route that `ratfunc.residue_matrix`
    replaced.  Zero when f does not divide the denominator; f must not
    divide it twice."""
    num, den = ratfunc(a).monic_pair()
    if not den.rem(f).is_zero:
        return f.zero
    return (num * den.diff().invert(f)).rem(f)


def random_invertible(rng: random.Random, n: int):
    """A random invertible n x n matrix over Q(t)(x) (unit determinant by
    construction: product of elementary matrices)."""
    from pdgal3.systems import mat, mat_identity, mat_mul

    P = mat_identity(n)
    entries = [sp.S.One, x, t, x - t, x + 1, sp.S.One + t * x]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = [[sp.S.One if a == b else sp.S.Zero for b in range(n)] for a in range(n)]
        E[i][j] = rng.choice(entries) * rng.randint(-2, 2)
        P = mat_mul(mat(E), P)
    return P


# -- systems shared by the module-layer and dispatcher tests -------------------


LINE_E1 = (("1",), ("0",), ("0",))
PLANE_E12 = (("1", "0"), ("0", "1"), ("0", "0"))

#: flag certificates on Q(t)(x)^3: none, the empty flag, the line e1 alone,
#: the plane (e1, e2) alone, and the full standard flag
FLAG_CERTS = {"none": None,
              "empty": FlagCertificate(subspaces=()),
              "line": FlagCertificate(subspaces=(LINE_E1,)),
              "plane": FlagCertificate(subspaces=(PLANE_E12,)),
              "full": FlagCertificate(subspaces=(LINE_E1, PLANE_E12))}

#: a full flag whose 2-dim pieces, [[t/x, 1/(x-1)], [0, 0]] on (e1, e2) and
#: [[0, 1/(x+1)], [0, 1/x]] on V/e1, each have an invariant line, so a
#: partial flag certificate is refined to three 1-dim blocks
REFINABLE = DiffSystem([["t/x", "1/(x-1)", "0"], ["0", "0", "1/(x+1)"],
                        ["0", "0", "1/x"]])


def hidden_sum3() -> DiffSystem:
    """diag(t/x, 1/(x-1), 0) in the unipotent basis [[1, -x, x^2-1],
    [0, 1, -x], [0, 0, 1]], the inverse of [[1, x, 1], [0, 1, x], [0, 0, 1]]:
    semisimple, and upper triangular but not diagonal in the standard
    basis."""
    D = DiffSystem([["t/x", "0", "0"], ["0", "1/(x-1)", "0"], ["0", "0", "0"]])
    return gauge(D, [["1", "-x", "x^2-1"], ["0", "1", "-x"], ["0", "0", "1"]])
