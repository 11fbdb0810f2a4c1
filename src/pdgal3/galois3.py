"""Parameterized differential Galois groups of third-order systems.

The dispatcher triangularizes the input, types the 2-dimensional pieces by the
CQ/CR/NC trichotomy (constant quotient / completely reducible / non-constant
with full unipotent radical), and assembles the group as equations, pullbacks
along representations, or honest Deferred reductions, together with a
machine-checkable CaseReport.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, product

from .errors import IncompleteSearchError, NonFuchsianError, UnsupportedError
from .groups import (
    CaseReport,
    Deferred,
    Explicit,
    GroupDescription,
    Named,
    Pullback,
    RepMap,
    block_rep,
    det_rep,
    invtranspose_rep,
    jet,
    pullback,
    torus_diagonal,
)
from .integrability import character_lattice, is_constant, rank1_group
from .linalg import column_rank, mat_inv
from .modules import (
    Analysis,
    FlagCertificate,
    ModuleDiag,
    diag_decompose,
    rank1_isomorphism,
    semisimplify,
    split,
    split_extension,
    sub_quotient,
    morphisms,
)
from .ratfunc import (
    RatFunc,
    ZERO,
    d_t,
    is_log_derivative,
    ratfunc,
    rational_antiderivative,
)
from .solvers import particular_solution
from .systems import DiffSystem, dual, hom, mat, mat_transpose, prolong, tensor


# -- 2-dimensional trichotomy ---------------------------------------------------------


def _extension(a1, b, a2):
    """The rational F with ∂F = (a1 − a2)F − b, or None when none exists;
    raises as `split` does.  Gauging [[a1, b], [0, a2]] by the basis
    [[1, −F], [0, 1]] gives diag(a1, a2)."""
    F = split(DiffSystem([[a1]]), [[b]], DiffSystem([[a2]]))
    return F[0][0] if F is not None else None


def _pair_type(a1, a2, F):
    """The type of a triangular system [[a1, b], [0, a2]] whose splitting
    by `_extension` is F: CQ when δ(a1 − a2) is a ∂-derivative, else CR when
    it splits and NC when it provably does not."""
    if rational_antiderivative(d_t(a1 - a2)) is not None:
        return "CQ"
    return "CR" if F is not None else "NC"


def classify2(W: DiffSystem, cert: FlagCertificate = None) -> str:
    """Type of a 2-dim system: CQ (constant character quotient), CR
    (completely reducible, non-constant), NC (non-constant, G_a radical)."""
    if W.dim != 2:
        raise ValueError("classify2 needs a 2-dimensional system")
    D = diag_decompose(W, cert)
    if len(D.dims) == 1:
        return "CR"  # simple, hence semisimple
    T = D.T.A
    return _pair_type(T[0][0], T[1][1], _extension(T[0][0], T[0][1], T[1][1]))


# -- building blocks for equation sets --------------------------------------------------


def _rank1_entry(a: RatFunc):
    """Per-entry condition for the torus family, from rank1_group."""
    g = rank1_group(a)
    if g.family == "finite-cyclic":
        return ("finite", g.data["order"])
    return ("delta", g.data["op"])


def _torus(entries):
    """Diagonal-group description for 1-dim factors a_1..a_n, and the lattice."""
    lat = character_lattice([ratfunc(a) for a in entries])
    per_entry = [_rank1_entry(ratfunc(a)) for a in entries]
    g = Named(
        dim=len(entries),
        family="torus",
        data={"lattice": lat.generators, "entries": per_entry},
    )
    return g, lat


def _cq_equation(i: int, j: int):
    """delta(y_ii / y_jj) = 0, cleared: y_jj*delta(y_ii) - y_ii*delta(y_jj)."""
    return jet(j, j, 0) * jet(i, i, 1) - jet(i, i, 0) * jet(j, j, 1)


def _zeros(positions):
    return [jet(i, j) for (i, j) in positions]


def _flag_group(entries, zero_positions, cq_pairs, flags=()):
    """Triangular-case equations: zero entries, diagonal torus conditions,
    and constant-ratio conditions; all other entries unconditioned."""
    torus, _ = _torus(entries)
    eqs = _zeros(zero_positions) + torus_diagonal(torus.data)
    eqs += [_cq_equation(i, j) for (i, j) in cq_pairs]
    return Explicit(dim=len(entries), equations=tuple(eqs), flags=tuple(flags))


def _transport(g: GroupDescription, rep: RepMap) -> GroupDescription:
    """Express a group computed in transformed coordinates in the original
    ones, by pulling it back along the coordinate representation.  Rational
    reps (inverse-transpose) stay structural: flattening their pulled-back
    delta-equations is infeasible, while membership stays cheap."""
    if isinstance(g, Deferred):
        partial = _transport(g.partial, rep) if g.partial is not None else None
        return replace(g, dim=rep.source_dim, partial=partial)
    if rep.denom == 1:
        return pullback(rep, g)
    return Pullback(dim=rep.source_dim, components=((rep, g),), flags=g.flags)


# -- the semisimple case -----------------------------------------------------------------


def _sl_part(W: DiffSystem):
    """Trace-zero subsystem of hom(W, W) for a 2-dim block, and its constancy."""
    H = hom(W, W)
    # columns: vec (column-major) of [[1,0],[0,-1]], [[0,0],[1,0]], [[0,1],[0,0]]
    S = mat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["-1", "0", "0"]])
    B, _, _, _ = sub_quotient(H, S)
    return is_constant(B)


def _sym_square(W: DiffSystem):
    T = tensor(W, W)
    # symmetric vectors: e1⊗e1, e1⊗e2 + e2⊗e1, e2⊗e2 (column-major coords)
    S = mat([["1", "0", "0"], ["0", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    B, _, _, _ = sub_quotient(T, S)
    return B


def _semisimple_group(blocks, an, free_upper=False):
    """Group of a direct sum of blocks of dims summing to 3.

    blocks are in coordinate order; their line searches read and fill the
    Analysis an.  With free_upper the strictly upper-block entries are left
    unconditioned (used when only the lower zeros are known to cut out the
    ambient group).
    """
    n = sum(b.dim for b in blocks)
    dims = [b.dim for b in blocks]
    notes, certs = [], []
    offs = [sum(dims[:k]) for k in range(len(dims))]

    if all(d == 1 for d in dims):
        g, lat = _torus([b.A[0][0] for b in blocks])
        certs.append(("character-lattice", lat.generators))
        notes.append("tau(G)=0: commutative identity component")
        return g, notes, certs

    if dims == [3]:
        V = blocks[0]
        tr = sum((V.A[i][i] for i in range(3)), ZERO)
        tr_g = rank1_group(tr)
        shifted = DiffSystem(
            tuple(
                tuple(V.A[i][j] - (tr / 3 if i == j else ZERO)
                      for j in range(3))
                for i in range(3)
            )
        )
        w = is_constant(shifted)
        comps = [(det_rep(3), tr_g)]
        flags = ()
        if w is not None:
            comps.append(
                (block_rep(3, range(3), name="id"),
                 Named(dim=3, family="sl-constant-conjugate",
                       flags=("up-to-conjugation",)))
            )
            certs.append(("constancy-witness", w.B))
        else:
            flags = ("quasi-simple-closure-unchecked",)
        notes.append("simple 3-dim: determined by det character and the "
                     "trace-zero constancy dichotomy")
        return Pullback(dim=3, components=tuple(comps), flags=flags), notes, certs

    # one 2-dim simple block W plus (possibly) a 1-dim block U
    wi = dims.index(2)
    W = blocks[wi]
    woff = offs[wi]
    wrows = [woff, woff + 1]
    what = "SL2-closure check"
    if _classes(W, an, what)[0] or _classes(_sym_square(W), an, what)[0]:
        return (
            Deferred(
                dim=n,
                reduction="2-dim factor fails the SL2-closure hypothesis; a "
                "Kovacic-type second-order subroutine is required",
            ),
            ["closure hypothesis failed for the 2-dim factor"],
            certs,
        )

    zero_pos = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            same_block = any(
                offs[k] < i <= offs[k] + dims[k] and offs[k] < j <= offs[k] + dims[k]
                for k in range(len(dims))
            )
            if same_block:
                continue
            if free_upper and j > i:
                continue
            zero_pos.append((i, j))
    ambient = Explicit(dim=n, equations=tuple(_zeros(zero_pos)))

    trW = W.A[0][0] + W.A[1][1]
    det_entry = (jet(wrows[0] + 1, wrows[0] + 1) * jet(wrows[1] + 1, wrows[1] + 1)
                 - jet(wrows[0] + 1, wrows[1] + 1) * jet(wrows[1] + 1, wrows[0] + 1))
    ui = dims.index(1)
    uoff = offs[ui]
    aU = blocks[ui].A[0][0]
    torus2, lat = _torus([trW, aU])
    certs.append(("character-lattice", lat.generators))
    rep = RepMap(
        source_dim=3,
        target_dim=2,
        entries=((det_entry, 0),
                 (0, jet(uoff + 1, uoff + 1))),
        name="wedge2W-plus-U",
    )
    comps = [(rep, torus2)]
    notes.append("tau=0 on wedge^2 W + U: commutative identity component")

    w = _sl_part(W)
    flags = ("finite-primitive-closure-unchecked",)
    if w is not None:
        flags = flags + ("up-to-conjugation",)
        comps.append(
            (block_rep(n, wrows, name="W-block"),
             Named(dim=2, family="sl2-constant-conjugate",
                   flags=("up-to-conjugation",)))
        )
        certs.append(("constancy-witness", w.B))
        notes.append("W⊗W* dichotomy: constant; SL2-conjugate-to-constants part")
    else:
        notes.append("W⊗W* dichotomy: non-constant; full SL2 part")
    return Pullback(dim=n, components=tuple(comps), ambient=ambient,
                    flags=flags), notes, certs


# -- decomposability probing ------------------------------------------------------------


def _classes(M: DiffSystem, an: Analysis, what):
    """an.classes(M, what); a system it cannot take is an incomplete search."""
    try:
        return an.classes(M, what)
    except NonFuchsianError as exc:
        raise IncompleteSearchError(
            f"{what} not provably complete: {exc}") from exc


def _find_line_summand(M: DiffSystem, an: Analysis):
    """(S, comp, B, D), M = span(S) ⊕ comp with systems B and D, or None
    when M provably has no line summand.

    The candidates are the basis vectors of M's hyperexponential classes: in
    one class space the vectors without an invariant complement form a
    subspace, so if any vector of it splits off, some basis vector does.
    When none splits, an incomplete class search or the first undecided
    split raises IncompleteSearchError."""
    classes, complete = _classes(M, an, "line-summand search")
    undecided = None if complete else IncompleteSearchError(
        "line-summand search not provably complete")
    for v in [v for _, space in classes for v in space.basis]:
        S = tuple((x,) for x in v)
        try:
            comp, B, D = split_extension(M, S)
        except IncompleteSearchError as exc:
            undecided = undecided or exc
            continue
        if comp is not None:
            return S, comp, B, D
    if undecided is not None:
        raise undecided
    return None


# -- the dispatcher ----------------------------------------------------------------------


def dispatch(V: DiffSystem, cert: FlagCertificate = None):
    """(CaseReport, GroupDescription) for a 3-dim system.

    The line search runs on V alone: dual(V) = L* ⊕ W* exactly when
    V = L ⊕ W.  One Analysis serves the whole call, so the classes of each
    matrix it meets are computed once.  A search, the decomposition's too,
    that finds nothing without proof that nothing exists makes the report
    undecided, with the certificates found before it."""
    if V.dim != 3:
        raise UnsupportedError("dispatch requires a 3-dimensional system")
    an, certs = Analysis(), []
    return _or_undecided("UNDECIDED", (), certs,
                         lambda: _classify(V, cert, certs, an))


def _or_undecided(label, tags, certs, stage):
    """stage(), or the undecided report with case path label when a search
    in it raised IncompleteSearchError: the one place where incompleteness
    becomes a report, a Deferred group whose reduction is the error."""
    try:
        return stage()
    except IncompleteSearchError as exc:
        flags = ("bound-limited", "deferred")
        return (CaseReport(case_path=label, type_tags=tags,
                           certificates=tuple(certs), flags=flags),
                Deferred(dim=3, reduction=str(exc), flags=flags))


def _factor_certs(D):
    """The certificates of the composition factors D of a system."""
    # a printed gauge P is the inverse of its basis: Z = P*Y
    return [("gauge", mat_inv(D.basis)),
            ("factors", tuple(b.A for b in D.blocks))]


def _classify(V, cert, certs, an):
    """The verdict on V, whose composition factors it adds to certs.  A line
    summand L splits a piece of a full flag V1 ⊂ V2 ⊂ V (V2 = V1 ⊕ (V2 ∩ W)
    when V = V1 ⊕ W, V2 = V1 ⊕ L when L ⊂ V2, else V = V2 ⊕ L), so the line
    search runs only when a piece splits."""
    D = diag_decompose(V, cert, an)
    certs += _factor_certs(D)
    ss, basis, ssblocks = semisimplify(V, D)
    if ss:
        g, notes, more = _semisimple_group(ssblocks, an)
        return CaseReport(
            case_path="SEMISIMPLE",
            type_tags=(),
            certificates=tuple(
                certs + [("semisimple-gauge", mat_inv(basis))] + more),
            flags=tuple(g.flags),
            tau_notes=tuple(notes),
        ), g
    if sorted(D.dims) == [1, 2]:
        return _case_indecomposable_2dim(V, D, certs, an)
    splits = _splits(D.T.A)
    found = any(F is not None for F in splits) and _find_line_summand(V, an)
    if found:
        return _case_decomposable(found, certs)
    return _case_full_flag(V, D, splits, certs, an, cert is not None)


def _splits(A):
    """The splittings (`_extension`) of the two pieces of a full flag A."""
    return tuple(_extension(A[i][i], A[i][i + 1], A[i + 1][i + 1])
                 for i in range(2))


def _dual_diag(V, D):
    """(dual(V), its decomposition read off D).  With T = gauge(V, B),
    gauge(dual(V), (B⁻¹)ᵀ) = −Tᵀ; the anti-diagonal permutation J turns
    that into −J·Tᵀ·J = gauge(dual(V), (B⁻¹)ᵀ·J), block upper triangular
    with D's blocks in reverse order."""
    n = V.dim
    basis = tuple(row[::-1] for row in mat_transpose(mat_inv(D.basis)))
    T = tuple(tuple(-D.T.A[n - 1 - j][n - 1 - i] for j in range(n))
              for i in range(n))
    return dual(V), ModuleDiag(basis, DiffSystem(T), D.dims[::-1])


def _via_dual(Vd, stage, label, type_tags=()):
    """The dual route: stage(Vd) on Vd = dual(V), its case path written into
    the format string label and type_tags put before its own, and its group
    pulled back to V along the inverse transpose."""
    report, g = stage(Vd)
    report = replace(report, case_path=label.format(report.case_path),
                     type_tags=type_tags + report.type_tags)
    return report, _transport(g, invtranspose_rep(3))


def _case_decomposable(found, certs):
    S, comp, BU, BW = found
    # W = complement, non-semisimple (else V would be semisimple)
    DW = diag_decompose(BW)
    w1 = DW.blocks[0].A[0][0]
    w2 = DW.blocks[-1].A[0][0]
    a_u = BU.A[0][0]
    entries = (w1, w2, a_u)
    certs = certs + [("summand-line", tuple(v[0] for v in S)),
                     ("summand-complement", comp),
                     ("diag-entries", entries)]
    if rational_antiderivative(d_t(w1 - w2)) is not None:
        partial = _flag_group(
            entries,
            [(2, 1), (3, 1), (3, 2), (1, 3), (2, 3)],
            [(1, 2)],
            flags=("tau0-partial",),
        )
        g = Deferred(
            dim=3,
            reduction="tau(G)=0: W1 ⊗ W2* constant; complete via a "
            "constant-system algorithm",
            partial=partial,
        )
        return CaseReport(
            case_path="DECOMPOSABLE",
            type_tags=("CQ",),
            certificates=tuple(certs),
            flags=("deferred",),
            tau_notes=("tau(G)=0 by the constant-quotient premise and the "
                       "type inequality tau(G)=max(tau(H),tau(G/H))",),
        ), g
    g = _flag_group(entries, [(2, 1), (3, 1), (3, 2), (1, 3), (2, 3)], [])
    return CaseReport(
        case_path="DECOMPOSABLE",
        type_tags=("NC",),
        certificates=tuple(certs),
        flags=(),
        tau_notes=("G determined by V^diag within the stabilizer of W0; the "
                   "G_a kernel block (1,2) is unconditioned",),
    ), g


def _case_indecomposable_2dim(V, D, certs, an):
    if D.dims[0] != 2:
        Vd, Dd = _dual_diag(V, D)
        return _via_dual(
            Vd, lambda W: _case_indecomposable_2dim(W, Dd, certs, an),
            "{}(dual)")
    W, U = D.blocks
    Wtest = tensor(dual(U), W)  # W1* ⊗ W2, 2-dimensional
    w = is_constant(Wtest)
    if w is not None:
        return CaseReport(
            case_path="INDECOMPOSABLE-2DIM",
            type_tags=("constant",),
            certificates=tuple(certs + [("constancy-witness", w.B)]),
            flags=("deferred",),
            tau_notes=("tau(G)=0: W1*⊗W2 constant; "
                       "tau(G)=max(tau(ker),tau(image)) with both of type 0",),
        ), Deferred(
            dim=3,
            reduction="tau(G)=0: complete via a constant-system algorithm",
        )
    g, notes, more = _semisimple_group([W, U], an, free_upper=True)
    return CaseReport(
        case_path="INDECOMPOSABLE-2DIM",
        type_tags=("non-constant",),
        certificates=tuple(certs + more),
        flags=tuple(g.flags),
        tau_notes=tuple(notes) + (
            "R_u(G) is the full 2-dim unipotent block; G determined by "
            "V^diag",
        ),
    ), g


def _case_full_flag(V, D, splits, certs, an, certified):
    """V with a full flag D, no line summand, and `splits` of its two pieces
    (`_splits`).  Once the types (t1, t2) of the pieces are known, an
    incomplete search makes it (t1,t2)-undecided."""
    A = D.T.A
    t1, t2 = (_pair_type(A[i][i], A[i + 1][i + 1], F)
              for i, F in enumerate(splits))
    certs = certs + [("diag-entries", tuple(A[i][i] for i in range(3))),
                     ("pair", (t1, t2))]
    return _or_undecided(
        f"({t1},{t2})-undecided", (t1, t2), certs,
        lambda: _case_pair(V, D, (t1, t2), splits[0], certs, an, certified))


def _case_pair(V, D, types, F12, certs, an, certified):
    """The full-flag case of V by the types of its two pieces."""
    Mt = D.T
    a = [Mt.A[i][i] for i in range(3)]
    t1, t2 = types

    if types in {("CQ", "CR"), ("NC", "CR"), ("NC", "CQ")}:
        # a certified flag of V gives one of dual(V); without a certificate
        # dual(V) is searched for a flag of its own, the one whose basis the
        # reports are written in
        if certified:
            Vd, Dd = _dual_diag(V, D)
        else:
            Vd = dual(V)
            Dd = diag_decompose(Vd, analysis=an)
        return _via_dual(
            Vd, lambda W: _case_full_flag(W, Dd, _splits(Dd.T.A),
                                          _factor_certs(Dd), an, certified),
            f"({t1},{t2})→dual→{{}}", types)

    if types == ("CQ", "CQ"):
        partial = _flag_group(
            tuple(a), [(2, 1), (3, 1), (3, 2)],
            [(1, 2), (2, 3), (1, 3)], flags=("tau0-partial",),
        )
        return CaseReport(
            case_path="(CQ,CQ)",
            type_tags=types,
            certificates=tuple(certs),
            flags=("deferred",),
            tau_notes=("tau(G)=0: V^diag constant",),
        ), Deferred(
            dim=3,
            reduction="tau(G)=0: complete via a constant-system algorithm",
            partial=partial,
        )

    if types == ("CR", "CR"):
        raise IncompleteSearchError(
            "(CR,CR) forces a line summand that the line search did not find")
    if t1 == "CR":
        return _case_cr(Mt, a, F12, certs, t2)
    if types == ("NC", "NC"):
        return _case_ncnc(a, Mt.A[0][1], Mt.A[1][2], certs)
    return _case_cqnc(Mt, a, certs)  # the last of the nine pairs, (CQ,NC)


def _case_cr(Mt, a, F, certs, t2):
    # F splits V2: the basis [[1, −F, 0], [0, 1, 0], [0, 0, 1]] clears the
    # (1,2) entry, keeps the diagonal and makes the (1,3) entry b13 + F*b23
    b13 = Mt.A[0][2] + F * Mt.A[1][2]
    t3 = _pair_type(a[0], a[2], _extension(a[0], b13, a[2]))
    certs = certs + [("third-type", t3)]
    if t3 == "CR":
        raise IncompleteSearchError(
            f"(CR,{t2},CR) forces a line summand that the line search did "
            "not find")

    # (t2, t3) is never (CQ, CQ): CQ is additive in the diagonal, so δ(a1 − a2)
    # = δ(a1 − a3) − δ(a2 − a3) would be a ∂-derivative, and t1 would be CQ.
    if (t2, t3) == ("CQ", "NC"):
        g = _flag_group(
            tuple(a), [(2, 1), (3, 1), (3, 2), (1, 2)], [(2, 3)],
            flags=("tau0-partial-on-(2,3)",),
        )
        return CaseReport(
            case_path="(CR,CQ,NC)",
            type_tags=("CR", "CQ", "NC"),
            certificates=tuple(certs),
            flags=g.flags,
            tau_notes=("G determined by (B', V1 ⊕ V/V1); the G_a kernel "
                       "block (1,3) is unconditioned",),
        ), g

    if (t2, t3) == ("NC", "CQ"):
        # swapping V1 and U only permutes the diagonal
        sigma = [1, 0, 2]
        gp = _flag_group(
            tuple(a[k] for k in sigma), [(2, 1), (3, 1), (3, 2), (1, 2)],
            [(2, 3)], flags=("tau0-partial-on-(2,3)",),
        )
        # conjugation by the permutation matrix of sigma
        g = _transport(gp, block_rep(3, sigma, name="permute"))
        return CaseReport(
            case_path="(CR,NC,CQ)→permute→(CR,CQ,NC)",
            type_tags=("CR", "NC", "CQ"),
            certificates=tuple(certs),
            flags=gp.flags,
            tau_notes=("permuted V1 and U, then: G determined by "
                       "(B', V1 ⊕ V/V1)",),
        ), g

    # (CR,NC,NC)
    g = _flag_group(tuple(a), [(2, 1), (3, 1), (3, 2), (1, 2)], [])
    return CaseReport(
        case_path="(CR,NC,NC)",
        type_tags=("CR", "NC", "NC"),
        certificates=tuple(certs),
        flags=(),
        tau_notes=("G determined by V2 ⊕ V/V2; the full unipotent Y block "
                   "(1,3),(2,3) is unconditioned",),
    ), g


def _case_ncnc(a, b12, b23, certs):
    iso = is_log_derivative(a[0] - 2 * a[1] + a[2])
    if iso is None or iso[0] != 1:
        flags = () if iso is None else ("identity-component-level",)
        return _ncnc_noncommutative(a, certs, flags)
    _, s = iso
    # commutative [G,G] iff the (2,3)-class is a constant multiple of the
    # s-twisted (1,2)-class: solve d(f) = (a2-a3) f - c*(b12/s) + b23, d(c)=0
    aug = DiffSystem([[a[1] - a[2], -(b12 / s)], [ZERO, ZERO]])
    f = particular_solution(aug, [b23, ZERO], "(NC,NC) commutator test")
    certs = certs + [("isotypic-witness", s)]
    if f is None:
        return _ncnc_noncommutative(a, certs, ())
    g = _flag_group(tuple(a), [(2, 1), (3, 1), (3, 2)], [],
                    flags=("identity-component-level",))
    return CaseReport(
        case_path="(NC,NC)-commutative",
        type_tags=("NC", "NC"),
        certificates=tuple(certs + [("proportionality", f)]),
        flags=("identity-component-level",),
        tau_notes=("[G,G] commutative: G determined by V2; closure "
                   "conditions on the (2,3) entry are not computed",),
    ), g


def _ncnc_noncommutative(a, certs, flags):
    g = _flag_group(tuple(a), [(2, 1), (3, 1), (3, 2)], [], flags=flags)
    return CaseReport(
        case_path="(NC,NC)-noncommutative",
        type_tags=("NC", "NC"),
        certificates=tuple(certs),
        flags=flags,
        tau_notes=("[G,G] non-commutative: [B,B] ⊂ G, so G determined by "
                   "V^diag",),
    ), g


def _case_cqnc(Mt, a, certs):
    if _extension(a[0], Mt.A[0][1], a[1]) is not None:
        g = _flag_group(tuple(a), [(2, 1), (3, 1), (3, 2), (1, 2)],
                        [(1, 2)])
        return CaseReport(
            case_path="(CQ,NC)-V2semisimple",
            type_tags=("CQ", "NC"),
            certificates=tuple(certs),
            flags=(),
            tau_notes=("V2 semisimple: G determined by V2 ⊕ V/V2 with the "
                       "Y block unconditioned",),
        ), g

    # R_u(G') = 1 iff V1 ≅ V2/V1 (witness u) and the extension class of
    # V2 ⊗ (V/V2)* lies on the prolongation line: for some lambda in Q(t)
    # and rational f, df/dx = b12*u - lambda * delta(a1 - a3).
    riso = rank1_isomorphism(a[0], a[1])
    prol_witness = None
    if riso is not None:
        coeff = [[ZERO, -d_t(a[0] - a[2])], [ZERO, ZERO]]
        rhs = [Mt.A[0][1] * riso, ZERO]
        prol_witness = particular_solution(coeff, rhs, "reductivity test")
    if prol_witness is None:
        g = _flag_group(tuple(a), [(2, 1), (3, 1), (3, 2)], [(1, 2)],
                        flags=("tau0-partial-on-(1,2)",))
        return CaseReport(
            case_path="(CQ,NC)-Ru",
            type_tags=("CQ", "NC"),
            certificates=tuple(certs),
            flags=g.flags,
            tau_notes=("R_u(G') nontrivial: Z ⊂ G, so G determined by "
                       "V2 ⊕ V/V2 with the Y block unconditioned",),
        ), g

    # prolongation branch: V1 ≅ V2/V1, G' reductive
    emb = _prolongation_embedding(Mt, a)
    flags = ["structural", "prolongation-embedding-certified" if emb is not None
             else "prolongation-embedding-not-found"]
    certs = certs + [
        ("rank1-isomorphism", riso),
        ("reductivity-witness", prol_witness),
    ]
    b12, b23 = Mt.A[0][1], Mt.A[1][2]
    normalized = (
        a[0] == a[1]
        and b12 == d_t(a[1] - a[2])
        and Mt.A[0][2] == d_t(b23)
    )
    comps = ((block_rep(3, [1, 2], name="V/V1"),
              _flag_group((a[1], a[2]), [(2, 1)], [])),)
    eqs = _zeros([(2, 1), (3, 1), (3, 2)])
    if normalized:
        y = jet
        eqs += [
            y(1, 1) - y(2, 2),
            y(1, 2) * y(3, 3) - y(3, 3) * jet(2, 2, 1) + y(2, 2) * jet(3, 3, 1),
            y(1, 3) * y(3, 3) - y(3, 3) * jet(2, 3, 1) + y(2, 3) * jet(3, 3, 1),
        ]
    else:
        flags.append("non-normalized-basis")
    g = Pullback(dim=3, components=comps,
                 ambient=Explicit(dim=3, equations=tuple(eqs)),
                 flags=tuple(flags))
    certs = certs + [("embedding-into-prolongation", emb)]
    return CaseReport(
        case_path="(CQ,NC)-prolongation",
        type_tags=("CQ", "NC"),
        certificates=tuple(certs),
        flags=tuple(flags),
        tau_notes=("V lies in the tensor category generated by the first "
                   "prolongation of V/V1",),
    ), g


def _prolongation_embedding(Mt, a):
    """Injective morphism of the det-shifted system into the prolongation of
    the shifted V/V1, or None when provably there is none.  Σ c_i·U_i over a
    basis U_i of the morphisms is injective when a 3×3 minor, of total degree
    3 in the c_i, is nonzero; then so is its part in the variables of one of
    its monomials, somewhere on {0, 1, 2, 3}^3.  So the c in {0, 1, 2, 3}^k
    with at most 3 nonzero entries decide, tried by sum.  Raises
    IncompleteSearchError when none is injective and a morphism may be
    missing."""
    chi = a[2]
    Vsh = DiffSystem(
        [[Mt.A[i][j] - (chi if i == j else ZERO) for j in range(3)]
         for i in range(3)]
    )
    Wsh = DiffSystem([[a[1] - chi, Mt.A[1][2]], [ZERO, ZERO]])
    basis, complete = morphisms(Vsh, prolong(Wsh))
    k = len(basis)
    grid = {tuple(dict(zip(pos, c)).get(i, 0) for i in range(k))
            for pos in combinations(range(k), min(k, 3))
            for c in product(range(4), repeat=min(k, 3))}
    for c in sorted(grid, key=lambda c: (sum(c), c))[1:]:
        U = tuple(tuple(sum((ci * Ui[r][s] for ci, Ui in zip(c, basis) if ci),
                            ZERO) for s in range(3)) for r in range(4))
        if column_rank(U) == 3:
            return U
    if not complete:
        raise IncompleteSearchError(
            "prolongation-embedding search not provably complete")
    return None
