"""Group descriptions: jets, normalization, membership, representations."""

import sympy as sp

from pdgal3.groups import (
    Deferred,
    Explicit,
    Named,
    Pullback,
    RepMap,
    block_rep,
    det_rep,
    jet,
    jet_matrix,
    normalize_equation,
    pullback,
    total_delta,
)
from pdgal3.oreops import DELTA

t = sp.Symbol("t")


def test_jet_symbols():
    assert str(jet(1, 2)) == "y1_2_0"
    assert str(jet(3, 3, 2)) == "y3_3_2"
    assert jet_matrix(2)[0, 1] == jet(1, 2)


def test_total_delta_shifts_jets_and_differentiates_t():
    e = t * jet(1, 1) ** 2
    out = total_delta(e)
    assert sp.expand(out - (jet(1, 1) ** 2 + 2 * t * jet(1, 1) * jet(1, 1, 1))) == 0


def test_normalize_equation_clears_denominators_and_is_monic():
    e = jet(1, 1) / t - jet(2, 2) / t
    n = normalize_equation(e)
    assert n == jet(1, 1) - jet(2, 2)
    # scalar multiples normalize to the same canonical form
    assert normalize_equation(3 * t * e) == n
    assert normalize_equation(sp.S.Zero) == 0


def test_explicit_dedupes_and_sorts():
    g = Explicit(dim=2, equations=(jet(2, 1), 5 * jet(2, 1), sp.S.Zero))
    assert g.equations == (jet(2, 1),)


def test_member_requires_invertible():
    g = Explicit(dim=2, equations=(jet(2, 1),))
    try:
        g.member([["1", "0"], ["1", "0"]])
        assert False
    except ValueError:
        pass


def test_member_explicit():
    g = Explicit(dim=2, equations=(jet(2, 1), jet(1, 1) * jet(1, 1, 1)))
    assert g.member([["5", "7"], ["0", "2"]])
    assert not g.member([["5", "0"], ["3", "2"]])  # lower entry
    assert not g.member([["t", "0"], ["0", "2"]])  # delta condition


def test_identity_in_every_named_family():
    I2 = [["1", "0"], ["0", "1"]]
    for fam, data in [
        ("torus", {"lattice": ((1, -1),), "entries": ()}),
        ("sl2-constant-conjugate", {}),
    ]:
        assert Named(dim=2, family=fam, data=data).member(I2), fam
    assert Named(dim=1, family="finite-cyclic", data={"order": 3}).member([["1"]])
    assert Named(dim=1, family="rank1-delta", data={"op": DELTA}).member([["1"]])


def test_named_torus_binomials():
    g = Named(
        dim=2,
        family="torus",
        data={"lattice": ((1, -2),), "entries": ()},
    )
    assert g.member([["t**2", "0"], ["0", "t"]])
    assert not g.member([["t", "0"], ["0", "t"]])


def test_rank1_delta_member():
    g = Named(dim=1, family="rank1-delta", data={"op": DELTA})
    # delta(delta(y)/y) = 0 accepts constants, rejects t
    assert g.member([["7"]])
    assert not g.member([["t"]])


def test_rep_apply_and_compose():
    d = det_rep(2)
    M = [["t", "1"], ["0", "t"]]
    img = d.apply_to_matrix(M)
    assert sp.simplify(img[0][0] - t**2) == 0
    b = block_rep(3, [0, 1])
    M3 = [["1", "2", "0"], ["3", "4", "0"], ["0", "0", "1"]]
    assert b.apply_to_matrix(M3) == [[1, 2], [3, 4]]


def test_rep_multiplicative_on_samples():
    """det and block reps are group homomorphisms on concrete matrices."""
    A = sp.Matrix([[t, 1], [0, 2]])
    B = sp.Matrix([[1, t**2], [0, t]])
    d = det_rep(2)
    dA = d.apply_to_matrix([[A[0, 0], A[0, 1]], [A[1, 0], A[1, 1]]])[0][0]
    dB = d.apply_to_matrix([[B[0, 0], B[0, 1]], [B[1, 0], B[1, 1]]])[0][0]
    AB = A * B
    dAB = d.apply_to_matrix([[AB[0, 0], AB[0, 1]], [AB[1, 0], AB[1, 1]]])[0][0]
    assert sp.simplify(dAB - dA * dB) == 0


def test_pullback_substitutes_delta_jets():
    inner = Named(dim=1, family="rank1-delta", data={"op": DELTA})
    g = pullback(det_rep(2), inner)
    # membership via the pulled-back equations matches membership via the rep
    M_ok = [["3", "0"], ["0", "5"]]
    M_bad = [["t", "0"], ["0", "1"]]
    assert g.member(M_ok)
    assert not g.member(M_bad)


def test_pullback_swap_is_simultaneous():
    """Permutation reps must substitute all jets simultaneously."""
    sigma_entries = (
        (jet(2, 2), jet(2, 1)),
        (jet(1, 2), jet(1, 1)),
    )
    rep = RepMap(source_dim=2, target_dim=2, entries=sigma_entries, name="swap")
    inner = Explicit(dim=2, equations=(jet(1, 1) - 1, jet(2, 1)))
    out = pullback(rep, inner)
    assert set(out.equations) == {jet(2, 2) - 1, jet(1, 2)}


def test_pullback_group_member():
    comp = (block_rep(2, [0, 1]), Explicit(dim=2, equations=(jet(2, 1),)))
    g = Pullback(dim=2, components=(comp,))
    assert g.member([["1", "5"], ["0", "1"]])
    assert not g.member([["1", "0"], ["5", "1"]])


def test_deferred_member_uses_partial():
    partial = Explicit(dim=1, equations=(jet(1, 1) - 1,))
    g = Deferred(dim=1, reduction="needs external algorithm", partial=partial)
    assert g.member([["1"]])
    assert not g.member([["2"]])
    bare = Deferred(dim=1, reduction="nothing known")
    try:
        bare.member([["1"]])
        assert False
    except ValueError:
        pass


def test_deferred_to_explicit_raises():
    g = Deferred(dim=1, reduction="r")
    try:
        g.to_explicit()
        assert False
    except ValueError:
        pass
