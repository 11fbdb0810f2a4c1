"""Data model for differential-algebraic subgroups of GL_n.

Equations are delta-polynomials in jet symbols y{i}{j}_{k} (the k-th
t-derivative of the matrix entry (i,j), 1-based) with Q(t) coefficients.
Groups are Explicit equation sets, Named standard families, pullbacks of
groups along representations intersected with an ambient closure, or Deferred
reductions (honest hand-offs carrying the exact remaining statement).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import sympy as sp

from .ratfunc import COEFF_FIELD, t

_JET_RE = re.compile(r"^y(\d+)_(\d+)_(\d+)$")


def jet(i: int, j: int, k: int = 0) -> sp.Symbol:
    """The k-th delta-derivative of entry (i, j), 1-based indices."""
    return sp.Symbol(f"y{i}_{j}_{k}")


def jet_matrix(n: int, k: int = 0):
    return sp.Matrix([[jet(i + 1, j + 1, k) for j in range(n)] for i in range(n)])


def _jet_info(s: sp.Symbol):
    m = _JET_RE.match(s.name)
    if not m:
        return None
    return tuple(int(g) for g in m.groups())


def total_delta(expr: sp.Expr) -> sp.Expr:
    """Formal t-derivative: jets are shifted, explicit t is differentiated."""
    expr = sp.sympify(expr)
    out = expr.diff(t)
    for s in expr.free_symbols:
        info = _jet_info(s)
        if info is not None:
            i, j, k = info
            out += expr.diff(s) * jet(i, j, k + 1)
    return out


def normalize_equation(e: sp.Expr) -> sp.Expr:
    """Canonical form: cleared t-denominators, expanded, scaled monic on the
    leading jet monomial."""
    e = sp.cancel(sp.sympify(e))
    num = sp.fraction(e)[0]
    num = sp.expand(num)
    if num == 0:
        return sp.S.Zero
    jets = sorted(
        (s for s in num.free_symbols if _jet_info(s) is not None),
        key=sp.default_sort_key,
    )
    if not jets:
        return sp.S.One  # a nonzero constant equation: inconsistent marker
    p = sp.Poly(num, *jets)
    lc = p.coeffs()[0]
    return sp.expand(sp.cancel(num / lc))


def _subs_jets_for_matrix(equations, M):
    """Substitution map sending jets to t-derivatives of the entries of M."""
    subs = {}
    for e in equations:
        for s in sp.sympify(e).free_symbols:
            info = _jet_info(s)
            if info is None:
                continue
            i, j, k = info
            subs[s] = sp.diff(sp.sympify(M[i - 1][j - 1]), t, k)
    return subs


# -- representations ------------------------------------------------------------


@dataclass(frozen=True)
class RepMap:
    """A matrix of expressions in source jets defining a homomorphism into
    GL(target_dim)."""

    source_dim: int
    target_dim: int
    entries: tuple  # target_dim x target_dim of sympy Exprs in source jets
    name: str = "rep"

    def apply_to_matrix(self, M):
        """Evaluate on a concrete matrix over Q(t) (entries sympy exprs)."""
        subs = _subs_jets_for_matrix(
            [e for row in self.entries for e in row], M
        )
        return [
            [sp.cancel(sp.sympify(e).subs(subs)) for e in row]
            for row in self.entries
        ]

def det_rep(n: int) -> RepMap:
    return RepMap(
        source_dim=n,
        target_dim=1,
        entries=((jet_matrix(n).det(),),),
        name="det",
    )


def invtranspose_rep(n: int) -> RepMap:
    """Y ↦ (Y⁻¹)ᵀ, entries rational in the jets."""
    Y = jet_matrix(n)
    inv_t = Y.adjugate().T / Y.det()
    return RepMap(
        source_dim=n,
        target_dim=n,
        entries=tuple(tuple(sp.cancel(inv_t[i, j]) for j in range(n))
                      for i in range(n)),
        name="inverse-transpose",
    )


def block_rep(n: int, rows, name="block") -> RepMap:
    """Restriction to a block: entry (a,b) of the image is y_{rows[a],rows[b]}."""
    m = len(rows)
    return RepMap(
        source_dim=n,
        target_dim=m,
        entries=tuple(
            tuple(jet(rows[a] + 1, rows[b] + 1) for b in range(m))
            for a in range(m)
        ),
        name=name,
    )


# -- group descriptions ----------------------------------------------------------


class GroupDescription:
    """Base: a differential-algebraic subgroup of GL_dim."""

    def to_explicit(self) -> "Explicit":
        raise NotImplementedError

    def member(self, M) -> bool:
        """Evaluate all delta-equations at a concrete invertible matrix over
        Q(t), with delta = d/dt."""
        M = [[sp.sympify(v) for v in row] for row in M]
        det = sp.cancel(sp.Matrix(M).det())
        if det == 0:
            raise ValueError("membership test requires an invertible matrix")
        return self._member(M)

    def _member(self, M) -> bool:
        ex = self.to_explicit()
        subs = _subs_jets_for_matrix(ex.equations, M)
        return all(sp.cancel(sp.sympify(e).subs(subs)) == 0 for e in ex.equations)


@dataclass(frozen=True)
class Explicit(GroupDescription):
    dim: int
    equations: tuple
    flags: tuple = ()

    def __post_init__(self):
        norm = {e for e in map(normalize_equation, self.equations) if e != 0}
        object.__setattr__(self, "equations",
                           tuple(sorted(norm, key=sp.default_sort_key)))

    def to_explicit(self):
        return self


@dataclass(frozen=True)
class Named(GroupDescription):
    dim: int
    family: str
    data: dict = field(default_factory=dict)
    flags: tuple = ()

    def to_explicit(self) -> Explicit:
        return Explicit(
            dim=self.dim, equations=tuple(self._equations()), flags=self.flags
        )

    def _equations(self):
        n = self.dim
        fam = self.family
        if fam == "finite-cyclic":
            m = self.data["order"]
            return [jet(1, 1) ** m - 1]
        if fam == "rank1-delta":
            op = self.data["op"]
            return [rank1_delta_equation(op)]
        if fam == "torus":
            return off_diagonal_zeros(n) + torus_diagonal(self.data)
        if fam in ("sl2-constant-conjugate", "sl-constant-conjugate"):
            eqs = [jet_matrix(n).det() - 1]
            eqs += [jet(i, j, 1) for i in range(1, n + 1) for j in range(1, n + 1)]
            return eqs
        raise ValueError(f"unknown family {fam!r}")


def rank1_delta_equation(op, i: int = 1) -> sp.Expr:
    """The delta-polynomial numerator of L(delta(z)/z) for z = y{i}_{i}."""
    z0, z1 = jet(i, i, 0), jet(i, i, 1)
    w = z1 / z0
    out = sp.S.Zero
    cur = w
    for c in op.coeffs:
        out += COEFF_FIELD.to_sympy(c) * cur
        cur = total_delta(cur)
    return sp.fraction(sp.together(sp.expand(out)))[0]


def off_diagonal_zeros(n: int):
    """y_ij = 0 for every off-diagonal entry."""
    return [jet(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def torus_diagonal(data: dict):
    """Diagonal-group equations on the diagonal jets: lattice binomials and
    per-entry rank-1 delta/finite conditions."""
    eqs = []
    for gen in data.get("lattice", ()):  # integer vectors
        pos = sp.S.One
        neg = sp.S.One
        for i, m in enumerate(gen):
            if m > 0:
                pos *= jet(i + 1, i + 1) ** int(m)
            elif m < 0:
                neg *= jet(i + 1, i + 1) ** int(-m)
        eqs.append(pos - neg)
    for i, (kind, value) in enumerate(data.get("entries", ())):
        if kind == "finite":
            eqs.append(jet(i + 1, i + 1) ** int(value) - 1)
        elif kind == "delta":
            eqs.append(rank1_delta_equation(value, i + 1))
        else:
            raise ValueError(f"unknown torus entry kind {kind!r}")
    return eqs


@dataclass(frozen=True)
class Pullback(GroupDescription):
    """Intersection of preimages of groups under representations, within an
    optional ambient closure."""

    dim: int
    components: tuple  # of (RepMap, GroupDescription)
    ambient: Explicit = None
    flags: tuple = ()

    def to_explicit(self) -> Explicit:
        eqs = []
        if self.ambient is not None:
            eqs.extend(self.ambient.equations)
        for rep, g in self.components:
            eqs.extend(pullback(rep, g).equations)
        return Explicit(dim=self.dim, equations=tuple(eqs), flags=self.flags)

    def _member(self, M):
        if self.ambient is not None and not self.ambient._member(M):
            return False
        return all(g._member(rep.apply_to_matrix(M)) for rep, g in self.components)


@dataclass(frozen=True)
class Deferred(GroupDescription):
    """A branch whose completion needs an out-of-scope subroutine; carries the
    exact reduction statement and any partial data."""

    dim: int
    reduction: str
    data: dict = field(default_factory=dict)
    partial: GroupDescription = None
    flags: tuple = ("deferred",)

    def to_explicit(self):
        raise ValueError(
            f"deferred group description cannot be made explicit: "
            f"{self.reduction}"
        )

    def _member(self, M):
        # best-effort: test against the partial (over-)group when available
        if self.partial is not None:
            return self.partial._member(M)
        raise ValueError(
            f"membership undecidable for deferred description: {self.reduction}"
        )


def pullback(rep: RepMap, g: GroupDescription) -> Explicit:
    """Substitute the representation entries into the target equations."""
    ex = g.to_explicit()
    subs = {}
    for e in ex.equations:
        for s in sp.sympify(e).free_symbols:
            info = _jet_info(s)
            if info is None:
                continue
            i, j, k = info
            v = sp.sympify(rep.entries[i - 1][j - 1])
            for _ in range(k):
                v = total_delta(v)
            subs[s] = v
    eqs = tuple(sp.sympify(e).xreplace(subs) for e in ex.equations)
    return Explicit(dim=rep.source_dim, equations=eqs, flags=ex.flags)


@dataclass(frozen=True)
class CaseReport:
    """Machine-checkable trace of a dispatcher run."""

    case_path: str
    type_tags: tuple = ()
    certificates: tuple = ()
    flags: tuple = ()
    tau_notes: tuple = ()
