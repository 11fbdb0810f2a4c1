"""Data model for differential-algebraic subgroups of GL_n.

Equations are delta-polynomials over Q(t) in the jets y{i}_{j}_{k}, the k-th
t-derivative of the matrix entry (i, j), 1-based.  They live in sparse rings
over COEFF_FIELD whose generators are the jets with i, j <= n and k <= order,
sorted by name, in lex order: one ring per (n, order), built on first use.
Both grow with the equations from (3, 2), so the jets that the equation
builders combine share a ring.  An equation is kept monic in lex order, and
`as_expr` is the one place where it becomes a sympy expression, for printing
and sorting.

Groups are Explicit equation sets, Named standard families, pullbacks of
groups along representations intersected with an ambient closure, or Deferred
reductions (honest hand-offs carrying the exact remaining statement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod

import sympy as sp
from sympy import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement, PolyRing

from .ratfunc import COEFF_FIELD, t, to_coeff

_T = COEFF_FIELD.field.gens[0]
_name = "y%d_%d_%d".__mod__
#: the jet polynomials of one (n, order) must share one ring object, so the
#: rings are kept for the process; they hold no analysis state
_RINGS = {}  # (n, order) -> jet ring
_JETS = {}   # jet ring -> (the (i, j, k) of each generator, their positions)


def _ring(n: int, order: int) -> PolyRing:
    key = (max(n, 3), max(order, 2))
    if key not in _RINGS:
        r = range(1, key[0] + 1)
        jets = sorted(product(r, r, range(key[1] + 1)), key=_name)
        ring = _RINGS[key] = PolyRing(list(map(_name, jets)), COEFF_FIELD, lex)
        _JETS[ring] = jets, {jet: g for g, jet in enumerate(jets)}
    return _RINGS[key]


def jet(i: int, j: int, k: int = 0) -> PolyElement:
    """The k-th delta-derivative of entry (i, j), 1-based indices."""
    ring = _ring(max(i, j), k)
    return ring.gens[_JETS[ring][1][(i, j, k)]]


def jet_matrix(n: int):
    return tuple(tuple(jet(i + 1, j + 1) for j in range(n)) for i in range(n))


def _poly(e) -> PolyElement:
    """A jet polynomial, or a Q(t) constant as one."""
    return e if isinstance(e, PolyElement) else _ring(0, 0)(COEFF_FIELD.convert(e))


def _present(p) -> list:
    """The (i, j, k) of the jets in p."""
    return [_JETS[p.ring][0][g] for g, e in enumerate(p.degrees()) if e > 0]


def _in_jet_ring(polys, extra: int = 0) -> list:
    """The polys in the smallest jet ring that holds their jets and `extra`
    orders more."""
    jets = [jet for p in polys for jet in _present(p)]
    ring = _ring(max((max(i, j) for i, j, _ in jets), default=0),
                 max((k for _, _, k in jets), default=0) + extra)
    return [p.set_ring(ring) for p in polys]


def _delta(p) -> PolyElement:
    """δp in p's own ring, which must hold the jets one order above p's."""
    jets, index = _JETS[p.ring]
    out = p.ring.from_dict({m: c.diff(_T) for m, c in p.iterterms()})
    for g, e in enumerate(p.degrees()):
        if e > 0:
            i, j, k = jets[g]
            out += p.diff(g) * p.ring.gens[index[(i, j, k + 1)]]
    return out


def normalize_equation(e) -> PolyElement:
    """Canonical form: divided by the lex-leading coefficient; 0 stays 0."""
    return _poly(e).monic()


def _quotient_derivatives(num, den, k: int):
    """([N_0, ..., N_k], den), one ring, with δʲ(num/den) = N_j / den^(j+1)."""
    num, den = _in_jet_ring([num, den], extra=k)
    out = [num]
    dden = _delta(den) if k else None
    for j in range(k):
        out.append(_delta(out[j]) * den - (j + 1) * out[j] * dden)
    return out, den


def _substituted(p, value):
    """(c·∏ value(jet)^e, ∑ (k + 1)·e) for each term c·∏ jet^e of p, k the
    order of each jet."""
    jets = _JETS[p.ring][0]
    for m, c in p.iterterms():
        w = 0
        for jet, e in zip(jets, m):
            if e:
                c, w = value(jet) ** e * c, w + (jet[2] + 1) * e
        yield c, w


def _at(M):
    """value(jet) = δᵏ M[i-1][j-1] for a matrix M over Q(t), computed once."""
    cache = {}

    def value(jet):
        i, j, k = jet
        if jet not in cache:
            cache[jet] = value((i, j, k - 1)).diff(_T) if k else M[i - 1][j - 1]
        return cache[jet]

    return value


def _evaluate(p, value):
    return sum((c for c, _ in _substituted(p, value)), COEFF_FIELD.zero)


def _det(rows):
    """Expansion along the first row, in any commutative ring; 1 if empty."""
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows))) if rows else 1


def as_expr(p) -> sp.Expr:
    """p as a sympy expression: the numerator of each coefficient expanded
    over its denominator term by term, as sympy's `expand` writes it."""
    return sp.Add(*(QQ.to_sympy(q) * t ** i / c.denom.as_expr()
                    * sp.Mul(*(s ** e for s, e in zip(p.ring.symbols, m) if e))
                    for m, c in p.iterterms() for (i,), q in c.numer.iterterms()))


def to_string(p, den=1) -> str:
    """The printed form of p / den, for jet polynomials p and den."""
    return str(as_expr(p) / as_expr(_poly(den)))


# -- representations ------------------------------------------------------------


@dataclass(frozen=True)
class RepMap:
    """A homomorphism into GL(target_dim): Y ↦ entries / denom, jet
    polynomials in the source jets."""

    source_dim: int
    target_dim: int
    entries: tuple  # target_dim x target_dim
    name: str = "rep"
    denom: PolyElement = 1

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(tuple(map(_poly, row)) for row in self.entries))
        object.__setattr__(self, "denom", _poly(self.denom))

    def apply_to_matrix(self, M):
        """Evaluate on a concrete matrix over Q(t), into Q(t) elements."""
        value = _at([[to_coeff(v) for v in row] for row in M])
        d = _evaluate(self.denom, value)
        return [[_evaluate(e, value) / d for e in row] for row in self.entries]


def det_rep(n: int) -> RepMap:
    return RepMap(n, 1, ((_det(jet_matrix(n)),),), name="det")


def invtranspose_rep(n: int) -> RepMap:
    """Y ↦ (Y⁻¹)ᵀ: the cofactors of Y over det Y."""
    Y = jet_matrix(n)
    cof = tuple(tuple((-1) ** (i + j) * _det([r[:j] + r[j + 1:] for a, r in enumerate(Y)
                                              if a != i]) for j in range(n))
                for i in range(n))
    return RepMap(n, n, cof, name="inverse-transpose", denom=_det(Y))


def block_rep(n: int, rows, name="block") -> RepMap:
    """Restriction to a block: entry (a,b) of the image is y_{rows[a],rows[b]}."""
    return RepMap(n, len(rows), tuple(tuple(jet(a + 1, b + 1) for b in rows)
                                      for a in rows), name=name)


# -- group descriptions ----------------------------------------------------------


class GroupDescription:
    """Base: a differential-algebraic subgroup of GL_dim."""

    def to_explicit(self) -> "Explicit":
        raise NotImplementedError

    def member(self, M) -> bool:
        """Evaluate all delta-equations at a concrete invertible dim x dim
        matrix over Q(t), with delta = d/dt.  Entries are read by
        `to_coeff`: text is parsed, never evaluated."""
        rows = [[to_coeff(v) for v in row] for row in M]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("membership test requires a square matrix")
        if n != self.dim:
            raise ValueError(f"membership test requires a {self.dim}x{self.dim} "
                             f"matrix, not {n}x{n}")
        if not _det(rows):
            raise ValueError("membership test requires an invertible matrix; "
                             "this one is singular")
        return self._member(rows)

    def _member(self, M) -> bool:
        value = _at(M)
        return all(not _evaluate(e, value) for e in self.to_explicit().equations)


@dataclass(frozen=True)
class Explicit(GroupDescription):
    dim: int
    equations: tuple
    flags: tuple = ()

    def __post_init__(self):
        eqs = [e for e in map(normalize_equation, self.equations) if e]
        object.__setattr__(self, "equations", tuple(sorted(
            set(_in_jet_ring(eqs)),
            key=lambda e: sp.default_sort_key(as_expr(e)))))

    def to_explicit(self):
        return self


@dataclass(frozen=True)
class Named(GroupDescription):
    dim: int
    family: str
    data: dict = field(default_factory=dict)
    flags: tuple = ()

    def to_explicit(self) -> Explicit:
        return self._explicit

    @cached_property
    def _explicit(self) -> Explicit:  # built once; `member` reads it
        return Explicit(dim=self.dim, equations=tuple(self._equations()),
                        flags=self.flags)

    def _equations(self):
        n = self.dim
        fam = self.family
        if fam == "finite-cyclic":
            return [jet(1, 1) ** self.data["order"] - 1]
        if fam == "rank1-delta":
            return [rank1_delta_equation(self.data["op"])]
        if fam == "torus":  # off the diagonal, zeros
            return [jet(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                    if i != j] + torus_diagonal(self.data)
        if fam in ("sl2-constant-conjugate", "sl-constant-conjugate"):
            eqs = [_det(jet_matrix(n)) - 1]
            eqs += [jet(i, j, 1) for i in range(1, n + 1) for j in range(1, n + 1)]
            return eqs
        raise ValueError(f"unknown family {fam!r}")


def rank1_delta_equation(op, i: int = 1) -> PolyElement:
    """The numerator of L(δz/z) for z = y{i}_{i}: with δᵏ(δz/z) = N_k/z^(k+1),
    it is ∑ c_k N_k z^(h-k), h the order of L."""
    nums, z = _quotient_derivatives(jet(i, i, 1), jet(i, i, 0), op.order)
    return sum(n * c * z ** (op.order - k)
               for k, (n, c) in enumerate(zip(nums, op.coeffs)))


def torus_diagonal(data: dict):
    """Diagonal-group equations on the diagonal jets: lattice binomials and
    per-entry rank-1 delta/finite conditions."""
    eqs = []
    for gen in data.get("lattice", ()):  # integer vectors
        y = [jet(i + 1, i + 1) for i in range(len(gen))]
        eqs.append(prod(y[i] ** int(m) for i, m in enumerate(gen) if m > 0)
                   - prod(y[i] ** int(-m) for i, m in enumerate(gen) if m < 0))
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
    """g's equations with each target jet y{i}_{j}_{k} replaced at once by
    δᵏ of the entry (i, j) of rep, and multiplied by the power of rep.denom
    that clears their denominators."""
    ex = g.to_explicit()
    top = {}
    for i, j, k in (jet for e in ex.equations for jet in _present(e)):
        top[(i, j)] = max(top.get((i, j), 0), k)
    nums = {(i, j, k): n for (i, j), h in top.items() for k, n in enumerate(
        _quotient_derivatives(rep.entries[i - 1][j - 1], rep.denom, h)[0])}
    *lifted, den = _in_jet_ring([*nums.values(), rep.denom])
    value = dict(zip(nums, lifted)).__getitem__
    eqs = []
    for e in ex.equations:
        terms = list(_substituted(e, value))
        w_top = max(w for _, w in terms)
        eqs.append(sum((den ** (w_top - w) * c for c, w in terms), den.ring.zero))
    return Explicit(dim=rep.source_dim, equations=tuple(eqs), flags=ex.flags)


@dataclass(frozen=True)
class CaseReport:
    """Machine-checkable trace of a dispatcher run."""

    case_path: str
    type_tags: tuple = ()
    certificates: tuple = ()
    flags: tuple = ()
    tau_notes: tuple = ()
