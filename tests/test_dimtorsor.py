import random

import pytest

from satokit.abgroup import AbelianGroup, GroupHom, ZZ, format_group, parse_group
from satokit.detline import DetRule
from satokit.dimtorsor import (DimTheory, RelTheory, mu_combine,
                               pushout_along, torsor_difference)
from satokit.exactlin import F2, F5
from satokit.laurent import LaurentMatrix, LaurentPoly
from satokit.tate import (TateSpace, lattice_join, lattice_normalize,
                          relative_index, split_tate_ses, standard_lattice,
                          twist_tate_ses)
from satokit.verify import TwistedChain, rand_lattice

K1 = TateSpace(F5, 1)
K2 = TateSpace(F5, 2)


def test_group_parsing_roundtrip():
    for text in ("Z", "Z/6", "Z+Z/2", "0"):
        assert format_group(parse_group(text)) == text
    g = parse_group("Z/4+Z")
    assert g.factors == (4, 0)
    with pytest.raises(ValueError):
        parse_group("Z/1")


def test_group_elem_arithmetic():
    g = AbelianGroup((3, 0))
    a = g.elem((2, 5))
    b = g.elem((2, -1))
    assert (a + b).coords == (1, 4)
    assert (-a).coords == (1, -5)
    assert a.scale(3).coords == (0, 15)


def test_hom_well_defined_check():
    z6 = AbelianGroup((6,))
    z3 = AbelianGroup((3,))
    GroupHom(z6, z3, [[1]])  # 6 * 1 = 0 mod 3, fine
    with pytest.raises(ValueError):
        GroupHom(z3, z6, [[1]])  # 3 * 1 != 0 mod 6


def test_eval_reldim_examples():
    chi = DimTheory.universal()
    d = RelTheory.standard(chi, K1)
    assert d.eval(d.base) == ZZ.zero()
    assert d.eval(standard_lattice(K1, -2)).coords == (2,)
    z3 = AbelianGroup((3,))
    chi3 = DimTheory(z3, z3.elem((1,)))
    d3 = RelTheory.standard(chi3, K1)
    assert d3.eval(standard_lattice(K1, -5)).coords == (2,)  # 5 mod 3


def test_eval_independent_of_anchor():
    chi = DimTheory.universal()
    d = RelTheory.standard(chi, K1, ZZ.elem((4,)))
    re = d.re_anchor(standard_lattice(K1, -3))
    for shift in range(-2, 3):
        lat = standard_lattice(K1, shift)
        assert d.eval(lat) == re.eval(lat)
    assert d == re


def test_torsor_difference():
    chi = DimTheory.universal()
    d1 = RelTheory.standard(chi, K1, ZZ.elem((4,)))
    d2 = RelTheory.standard(chi, K1, ZZ.elem((1,)))
    assert torsor_difference(d1, d1).is_zero()
    assert torsor_difference(d1, d2).coords == (3,)
    # anchored at different lattices with equal values: difference is the
    # index shift
    d3 = RelTheory(chi, K1, standard_lattice(K1, -1), ZZ.zero())
    d4 = RelTheory.standard(chi, K1)
    # oracle: evaluate both at O; d4(O) = 0, d3(O) = index(O, t^-1 O) = -1
    assert torsor_difference(d4, d3).coords == (1,)


def test_free_and_transitive():
    chi = DimTheory.universal()
    d = RelTheory.standard(chi, K1)
    for g in (ZZ.elem((1,)), ZZ.elem((-2,)), ZZ.elem((7,))):
        assert d.translate(g) != d
        assert torsor_difference(d.translate(g), d) == g


def diag_lattice(space, shifts):
    lo, hi = min(shifts), max(shifts)
    n = space.rank
    f = space.field
    rows = []
    for i, a in enumerate(shifts):
        for e in range(a, hi):
            row = [f.zero()] * ((hi - lo) * n)
            row[(e - lo) * n + i] = f.one()
            rows.append(row)
    return lattice_normalize(space, lo, hi, rows)


def test_mu_combine_split_example():
    chi = DimTheory.universal()
    ses = split_tate_ses(F5, 1, 1)
    d1 = RelTheory.standard(chi, K1)
    d2 = RelTheory.standard(chi, K1)
    d = mu_combine(ses, d1, d2)
    # coordinate oracle: t^-1 O (+) t O has index 1 - 1 = 0 against O^2
    assert d.eval(diag_lattice(K2, [-1, 1])).coords == (0,)
    assert d.eval(standard_lattice(K2)).coords == (0,)


def test_mu_combine_nonzero_anchors():
    chi = DimTheory.universal()
    ses = split_tate_ses(F5, 1, 1)
    d1 = RelTheory.standard(chi, K1, ZZ.elem((5,)))
    d2 = RelTheory.standard(chi, K1, ZZ.elem((-3,)))
    d = mu_combine(ses, d1, d2)
    assert d.eval(standard_lattice(K2)).coords == (2,)


def test_mu_balanced():
    chi = DimTheory.universal()
    ses = split_tate_ses(F5, 1, 1)
    d1 = RelTheory.standard(chi, K1, ZZ.elem((2,)))
    d2 = RelTheory.standard(chi, K1, ZZ.elem((1,)))
    g = ZZ.elem((4,))
    left = mu_combine(ses, d1.translate(g), d2)
    right = mu_combine(ses, d1, d2.translate(g))
    both = mu_combine(ses, d1, d2).translate(g)
    assert left == right == both


def _aut(rng, field, n):
    one = LaurentPoly.one(field)
    z = LaurentPoly.zero(field)
    rows = [[one if i == j else z for j in range(n)] for i in range(n)]
    inv = [[one if i == j else z for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    p = LaurentPoly(field, [(rng.randint(-1, 1), rng.randrange(1, field.p))])
    rows[i][j] = p
    inv[i][j] = p.neg()
    return LaurentMatrix(field, rows, n), LaurentMatrix(field, inv, n)


def test_mu_associativity_on_filtration():
    # X1 = k((t)) c X2 = k((t))^2 c X3 = k((t))^3, coordinate splits twisted
    from satokit.tate import compose_filtration
    rng = random.Random(7)
    chi = DimTheory.universal()
    for _ in range(10):
        a23, a23i = _aut(rng, F5, 3)
        a12, a12i = _aut(rng, F5, 2)
        ses23 = twist_tate_ses(split_tate_ses(F5, 2, 1), a23, a23i)
        ses12 = twist_tate_ses(split_tate_ses(F5, 1, 1), a12, a12i)
        d1 = RelTheory.standard(chi, K1, ZZ.elem((rng.randint(-3, 3),)))
        d21 = RelTheory.standard(chi, K1, ZZ.elem((rng.randint(-3, 3),)))
        d32 = RelTheory.standard(chi, K1, ZZ.elem((rng.randint(-3, 3),)))
        # X2 with the nested theory, then along ses23
        d12 = mu_combine(ses12, d1, d21)
        left = mu_combine(ses23, d12, d32)
        # right association: combine (d21, d32) on X3/X1 first, whose
        # sequence is the coordinate split in compose_filtration's coordinates
        sesq = split_tate_ses(F5, 1, 1)
        d23 = mu_combine(sesq, d21, d32)
        ses13 = compose_filtration(ses23, ses12)
        right = mu_combine(ses13, d1, d23)
        probe = diag_lattice(TateSpace(F5, 3), [rng.randint(-1, 1)
                                                for _ in range(3)])
        assert left.eval(probe) == right.eval(probe)
        assert left == right


def test_mu_symmetry_for_split_sequences():
    # swapping the two factors and swapping the coordinate blocks leaves the
    # combined values fixed (the strictly symmetric case)
    chi = DimTheory.universal()
    ses_ab = split_tate_ses(F5, 1, 2)
    ses_ba = split_tate_ses(F5, 2, 1)
    k2 = TateSpace(F5, 2)
    d1 = RelTheory.standard(chi, K1, ZZ.elem((2,)))
    d2 = RelTheory.standard(chi, k2, ZZ.elem((-1,)))
    mu_ab = mu_combine(ses_ab, d1, d2)
    mu_ba = mu_combine(ses_ba, d2, d1)
    for shifts in [(0, 0, 0), (-1, 2, 0), (1, -2, 3)]:
        u = diag_lattice(TateSpace(F5, 3), list(shifts))
        swapped = diag_lattice(TateSpace(F5, 3),
                               list(shifts[1:]) + [shifts[0]])
        assert mu_ab.eval(u) == mu_ba.eval(swapped)


def test_pushout_along():
    chi = DimTheory.universal()
    d = RelTheory.standard(chi, K1, ZZ.elem((3,)))
    ident = GroupHom.identity(ZZ)
    assert pushout_along(ident, d) == d
    doubling = GroupHom(ZZ, ZZ, [[2]])
    assert pushout_along(doubling, d).base_value.coords == (6,)
    z2 = AbelianGroup((2,))
    red = GroupHom(ZZ, z2, [[1]])
    pushed = pushout_along(red, d)
    assert pushed.base_value.coords == (1,)
    # evaluating then mapping equals mapping then evaluating
    lat = standard_lattice(K1, -3)
    assert pushed.eval(lat) == red(d.eval(lat))


# values taken before dimensional and determinantal theories shared RelTheory
@pytest.mark.parametrize("seed, field, want", [
    (1, F2, [(-6, 1), (-4, 5), (-2, 5), (0, 3), (-6, 1), (0, 3)]),
    (2, F5, [(-2, 0), (-4, 5), (-2, 0), (-10, 2), (-4, 1), (-10, 2)]),
    (3, F2, [(0, 2), (2, 4), (2, 1), (2, 4), (8, 4), (2, 4)]),
    (4, F5, [(0, 1), (-3, 0), (2, 0), (1, 4), (0, 1), (-5, 1)]),
])
def test_mu_combine_values_on_twisted_chains(seed, field, want):
    rng = random.Random(seed)
    chain = TwistedChain(rng, field, 1, 2, 3)
    k1 = TateSpace(field, 1)
    g = parse_group("Z+Z/6")
    chi = DimTheory(g, g.elem((2, 5)))
    d1, d21, d32 = (RelTheory.standard(chi, k1, g.elem(
        (rng.randint(-3, 3), rng.randint(0, 5)))) for _ in range(3))
    d12 = mu_combine(chain.ses12, d1, d21)
    d123 = mu_combine(chain.ses23, d12, d32)
    got = []
    for _ in range(3):
        got.append(d12.eval(rand_lattice(rng, TateSpace(field, 2), 1)).coords)
        got.append(d123.eval(rand_lattice(rng, chain.total, 1)).coords)
    assert got == want


RULES = [(DimTheory.universal(), ZZ.elem((2,))), (DetRule(F5), (1, 3))]


@pytest.mark.parametrize("rule, value", RULES)
def test_anchor_lattice_must_be_in_the_space(rule, value):
    with pytest.raises(ValueError, match="anchor lattice is not in the space"):
        RelTheory(rule, K1, standard_lattice(K2), value)


@pytest.mark.parametrize("rule, value", RULES)
def test_theory_equality_against_other_objects(rule, value):
    d = RelTheory.standard(rule, K1, value)
    assert not d == None  # noqa: E711
    assert d != None  # noqa: E711
    assert d not in [None, 0, "d"]
    assert d in [None, d.re_anchor(standard_lattice(K1, 2))]
