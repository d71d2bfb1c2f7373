import itertools
import random
import sys
from pathlib import Path

import pytest

from satokit.abgroup import AbelianGroup, ZZ, format_group, parse_group
from satokit.complexes import (STANDARD, circle, full_simplex,
                               projective_plane, simplex_boundary, sphere_3,
                               torus)
from satokit.fileio import format_simplicial_set, parse_simplicial_set
from satokit.simptors import (
    MAX_DIM_CAP, Cochain, CohomologyResult, ComplexError, DegreeRangeError,
    GerbeError, GerbeRep, MultTorsorRep, canonical_factors, check_mult_torsor,
    coboundary_matrix, evaluate_even_odd, gerbe_to_torsor, street_boundaries,
    validate_simplicial_set,
)

from test_cli import _grid_torus_sset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402

Z2 = AbelianGroup((2,))
Z4 = AbelianGroup((4,))


def _torsor_class(t):
    """Coordinates of the class of a torsor's alpha in H^(degree+1)."""
    return CohomologyResult(t.complex, t.degree + 1, t.group).classify(
        t.alpha)


def _is_zero(cls):
    return not any(map(any, cls))


def test_validate_standard_simplex():
    d2 = full_simplex(2)
    assert d2.n_simplices(0) == 3
    assert d2.n_simplices(1) == 3
    assert d2.n_simplices(2) == 1


def test_validate_detects_corruption():
    data = [
        ("0", 0, ()), ("1", 0, ()), ("2", 0, ()),
        ("01", 1, ("1", "0")), ("02", 1, ("2", "0")), ("12", 1, ("2", "1")),
        # wrong face: d_0 should be "12"
        ("012", 2, ("02", "02", "01")),
    ]
    with pytest.raises(ComplexError) as exc:
        validate_simplicial_set(data)
    assert "(i, j)" in str(exc.value) or "identity" in str(exc.value)


def _vertices(*names):
    return [(v, 0, ()) for v in names]


def _triangle(a, b, c):
    """x = (A, B, C) over the edges A = a, B = b, C = c.  Its identities
    read B[0] == A[0] at (i, j) = (0, 1), C[0] == A[1] at (0, 2) and
    C[1] == B[1] at (1, 2)."""
    return _vertices("p", "q", "r", "s", "t") + [
        ("A", 1, a), ("B", 1, b), ("C", 1, c), ("x", 2, ("A", "B", "C"))]


def _tetrahedron(top_faces):
    """The 3-simplex of vertex words with the top faces given."""
    cx = full_simplex(3)
    return [(sid, d, cx.faces[sid]) for d in range(3)
            for sid in cx.ids(d)] + [("0123", 3, top_faces)]


# malformed (id, dim, faces) inputs and the exact message of the first fault:
# per simplex in input order the dimension and face count, then per simplex
# and face index the dangling and wrong-dimension faces, then the identities
# with j ascending and then i
MALFORMED = [
    ("negative dimension", [("x", -1, ())], "negative dimension -1 of 'x'"),
    ("vertex with faces", _vertices("p") + [("q", 0, ("p",))],
     "vertex 'q' with faces"),
    ("wrong face count", _vertices("p") + [("a", 1, ("p",))],
     "simplex 'a' needs 2 faces"),
    ("dangling face", _vertices("p") + [("a", 1, ("p", "zzz"))],
     "dangling face id 'zzz' of 'a'"),
    ("wrong dimension",
     _vertices("p") + [("a", 1, ("p", "p")), ("b", 1, ("a", "p"))],
     "face 'a' of 'b' has wrong dimension"),
    ("identity (0, 1)", _triangle(("p", "q"), ("s", "r"), ("q", "r")),
     "identity failure at 'x': (i, j) = (0, 1)"),
    ("identity (0, 2)", _triangle(("p", "q"), ("p", "r"), ("s", "r")),
     "identity failure at 'x': (i, j) = (0, 2)"),
    ("identity (1, 2)", _triangle(("p", "q"), ("p", "r"), ("q", "s")),
     "identity failure at 'x': (i, j) = (1, 2)"),
    ("identity (0, 2) of a 3-simplex",
     _tetrahedron(("123", "023", "012", "013")),
     "identity failure at '0123': (i, j) = (0, 2)"),
    # two faults: the one found first is reported
    ("identities (0, 1) and (0, 2)",
     _triangle(("p", "q"), ("s", "r"), ("t", "r")),
     "identity failure at 'x': (i, j) = (0, 1)"),
    ("identities (0, 2) and (1, 2)",
     _triangle(("p", "q"), ("p", "r"), ("s", "t")),
     "identity failure at 'x': (i, j) = (0, 2)"),
    ("identity, then a dangling face",
     _triangle(("p", "q"), ("s", "r"), ("q", "r")) + [("y", 1, ("p", "z"))],
     "dangling face id 'z' of 'y'"),
    ("dangling face, then a wrong face count",
     _vertices("p") + [("a", 1, ("p", "zzz")), ("b", 1, ("p",))],
     "simplex 'b' needs 2 faces"),
    ("wrong dimension at face 0, dangling at face 1",
     _vertices("p") + [("a", 1, ("p", "p")), ("b", 2, ("p", "zzz", "a"))],
     "face 'p' of 'b' has wrong dimension"),
    ("two dangling faces", _vertices("p") + [("a", 1, ("p", "z1")),
                                            ("b", 1, ("z2", "p"))],
     "dangling face id 'z1' of 'a'"),
    ("duplicate id", _vertices("p", "p"), "duplicate simplex id 'p'"),
    # a duplicate is reported when its second line is read, before the
    # faults of later checks (this input once reported the dangling face)
    ("duplicate id, then a dangling face",
     _vertices("p") + [("e", 1, ("p", "p")), ("e", 1, ("p", "zzz"))],
     "duplicate simplex id 'e'"),
]


@pytest.mark.parametrize("data, message", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_validate_reports_the_first_fault(data, message):
    with pytest.raises(ComplexError) as exc:
        validate_simplicial_set(data)
    assert str(exc.value) == message


def test_validate_dangling_face():
    data = [("0", 0, ()), ("01", 1, ("0", "zzz"))]
    with pytest.raises(ComplexError):
        validate_simplicial_set(data)


def test_torus_and_rp2_validate():
    torus()
    projective_plane()


def test_street_2_simplex():
    d2 = full_simplex(2)
    s = street_boundaries(d2, "012")
    assert s["+"] == tuple(sorted(("12", "01")))
    assert s["-"] == ("02",)


def test_street_lemma_3_and_4_simplex():
    for n in (3, 4):
        cx = full_simplex(n)
        top = "".join(str(i) for i in range(n + 1))
        s = street_boundaries(cx, top)
        assert s["++"] == s["--"]
        assert s["+-"] == s["-+"]


def test_street_lemma_all_fixtures():
    for cx in (torus(), projective_plane(), simplex_boundary(3), sphere_3()):
        for d in range(2, cx.top_dim + 1):
            for sid in cx.ids(d):
                s = street_boundaries(cx, sid)
                assert s["++"] == s["--"]
                assert s["+-"] == s["-+"]


# every standard complex, the benchmark's grid surfaces (read-only from
# perfbench/inputs.py) and the 8 x 8 grid torus of the CLI tests
COMPLEXES = dict(
    STANDARD,
    **{"bench-" + kind: (lambda kind=kind: parse_simplicial_set(
        inputs.surface_sset(kind, random.Random(5))))
       for kind in inputs.SURFACES},
    grid8=lambda: parse_simplicial_set(_grid_torus_sset(8)))


def _dense_coboundary(cx, n):
    """D_n as a dense matrix from the face tuples with signs +1, -1, ..."""
    cols = list(cx.ids(n))
    out = []
    for tau in cx.ids(n + 1):
        row = [0] * len(cols)
        for i, sigma in enumerate(cx.faces[tau]):
            row[cols.index(sigma)] += (-1) ** i
        out.append(row)
    return out


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_coboundary_matrix_matches_a_dense_oracle(name):
    cx = COMPLEXES[name]()
    dense = {}
    for n in range(cx.top_dim + 1):
        rows = coboundary_matrix(cx, n)
        assert all(x for r in rows for x in r.values())
        m = cx.n_simplices(n)
        dense[n] = [[r.get(k, 0) for k in range(m)] for r in rows]
        assert dense[n] == _dense_coboundary(cx, n), n
    # D_(n+1) D_n = 0
    for n in range(cx.top_dim):
        for row in dense[n + 1]:
            assert not any(sum(c * dense[n][k][j] for k, c in enumerate(row))
                           for j in range(cx.n_simplices(n))), n


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_sset_text_round_trips_the_faces(name):
    cx = COMPLEXES[name]()
    back = parse_simplicial_set(format_simplicial_set(cx))
    assert back.simplices == cx.simplices
    assert back.faces == cx.faces
    assert all(back.faces[sid] == () for sid in back.ids(0))


def test_coboundary_squared_zero():
    rng = random.Random(9)
    for cx in (torus(), projective_plane(), sphere_3()):
        for degree in range(0, cx.top_dim - 1):
            vals = {sid: ZZ.elem((rng.randint(-5, 5),))
                    for sid in cx.ids(degree)}
            c = Cochain(cx, degree, ZZ, vals)
            assert c.coboundary().coboundary().is_zero()


# --- pasting --------------------------------------------------------------

def test_evaluate_even_odd_zero_cochain():
    cx = full_simplex(3)
    t = MultTorsorRep(cx, 1, ZZ, Cochain.zero(cx, 2, ZZ))
    e, o = evaluate_even_odd(t, "0123")
    assert e.is_zero() and o.is_zero()


def test_pasting_equals_alternating_coboundary():
    # E - O = (delta alpha)(tau), degrees 0..2, on every test complex
    rng = random.Random(11)
    fixtures = [full_simplex(2), full_simplex(3), simplex_boundary(3),
                torus(), projective_plane(), sphere_3(), full_simplex(4)]
    checked = 0
    for cx in fixtures:
        for degree in (0, 1, 2):
            if not cx.ids(degree + 2):
                continue
            vals = {sid: ZZ.elem((rng.randint(-4, 4),))
                    for sid in cx.ids(degree + 1)}
            alpha = Cochain(cx, degree + 1, ZZ, vals)
            anchors = Cochain(cx, degree, ZZ,
                              {sid: ZZ.elem((rng.randint(-3, 3),))
                               for sid in cx.ids(degree)})
            t = MultTorsorRep(cx, degree, ZZ, alpha, anchors)
            d_alpha = alpha.coboundary()
            for tau in cx.ids(degree + 2):
                e, o = evaluate_even_odd(t, tau)
                assert e - o == d_alpha.value(tau), (cx, degree, tau)
                checked += 1
    assert checked > 20


def test_degree_zero_pasting_is_additivity():
    # a degree-0 torsor on the triangle: the membership condition is exactly
    # additivity of the edge values, the shape of a dimension theory
    cx = full_simplex(2)
    a, b = 3, 4
    good = Cochain(cx, 1, ZZ, {"01": ZZ.elem((a,)), "12": ZZ.elem((b,)),
                               "02": ZZ.elem((a + b,))})
    t = MultTorsorRep(cx, 0, ZZ, good)
    e, o = evaluate_even_odd(t, "012")
    assert e.coords == (a + b,) and o.coords == (a + b,)
    assert check_mult_torsor(t).ok
    bad = good.set_value("02", ZZ.elem((a + b + 1,)))
    assert not check_mult_torsor(MultTorsorRep(cx, 0, ZZ, bad)).ok


def test_check_mult_torsor_coboundary_passes():
    rng = random.Random(13)
    cx = sphere_3()
    for degree in (0, 1):
        lower = Cochain(cx, degree, ZZ,
                        {sid: ZZ.elem((rng.randint(-3, 3),))
                         for sid in cx.ids(degree)})
        t = MultTorsorRep(cx, degree, ZZ, lower.coboundary())
        rep = check_mult_torsor(t)
        assert rep.ok


def test_check_mult_torsor_detects_non_cocycle():
    cx = full_simplex(3)
    alpha = Cochain.zero(cx, 2, ZZ).set_value("012", ZZ.elem((1,)))
    t = MultTorsorRep(cx, 1, ZZ, alpha)
    rep = check_mult_torsor(t)
    assert not rep.ok
    tau, delta = rep.violations[0]
    assert tau == "0123" and not delta.is_zero()


def test_anchor_change_shifts_alpha_by_coboundary():
    cx = torus()
    alpha = Cochain.zero(cx, 2, ZZ).set_value("U", ZZ.elem((3,)))
    t = MultTorsorRep(cx, 1, ZZ, alpha)
    shift = Cochain(cx, 1, ZZ, {"a": ZZ.elem((2,)), "b": ZZ.elem((-1,))})
    t2 = t.re_anchor(shift)
    assert t2.alpha == alpha.add(shift.coboundary())
    assert t2.absolute_alpha() == t.absolute_alpha()
    assert _torsor_class(t2) == _torsor_class(t)


# --- cohomology -----------------------------------------------------------

def test_cohomology_circle():
    res = CohomologyResult(circle(), 1, ZZ)
    assert res.group_presentation == (0,)  # Z


def test_cohomology_sphere2():
    res = CohomologyResult(simplex_boundary(3), 2, ZZ)
    assert res.group_presentation == (0,)


def test_cohomology_torus():
    assert CohomologyResult(torus(), 0, ZZ).group_presentation == (0,)
    assert CohomologyResult(torus(), 1, ZZ).group_presentation == (0, 0)
    assert CohomologyResult(torus(), 2, ZZ).group_presentation == (0,)


def test_cohomology_rp2():
    cx = projective_plane()
    assert CohomologyResult(cx, 1, ZZ).group_presentation == ()
    assert CohomologyResult(cx, 2, ZZ).group_presentation == (2,)
    assert CohomologyResult(cx, 2, Z2).group_presentation == (2,)
    assert CohomologyResult(cx, 1, Z2).group_presentation == (2,)


def test_cohomology_cone_vanishes():
    cx = full_simplex(2)
    for n in (1, 2, 3, 4):
        assert CohomologyResult(cx, n, ZZ).group_presentation == ()


def test_cohomology_sphere3():
    cx = sphere_3()
    assert CohomologyResult(cx, 3, ZZ).group_presentation == (0,)
    assert CohomologyResult(cx, 3, Z4).group_presentation == (4,)
    assert CohomologyResult(cx, 2, ZZ).group_presentation == ()


def test_cohomology_direct_sum_coefficients():
    g = parse_group("Z+Z/2")
    res = CohomologyResult(projective_plane(), 2, g)
    # H^2(RP^2, Z) = Z/2 and H^2(RP^2, Z/2) = Z/2
    assert res.group_presentation == (2, 2)


def test_cohomology_degree_guard():
    cx = validate_simplicial_set([("v", 0, ())])
    with pytest.raises(DegreeRangeError):
        CohomologyResult(cx, 5, ZZ)


@pytest.mark.parametrize("degree", [1.5, 1.0, "1", True])
def test_cohomology_refuses_a_degree_that_is_not_an_int(degree):
    # H^1.5 is refused, not read as a zero group; a negative int degree
    # keeps its DegreeRangeError
    with pytest.raises(ValueError, match="is not an int"):
        CohomologyResult(torus(), degree, ZZ)
    with pytest.raises(DegreeRangeError, match="negative degree"):
        CohomologyResult(torus(), -1, ZZ)


@pytest.mark.parametrize("degree", [1.5, 1.0, "1", None])
def test_cochain_refuses_a_degree_that_is_not_an_int(degree):
    with pytest.raises(ValueError, match="is not an int"):
        Cochain(torus(), degree, ZZ)
    assert Cochain(torus(), 1, ZZ).degree == 1


def _brute_force_h_order_mod2(cx, degree):
    """|H^degree(cx, Z/2)| by direct enumeration: rank arithmetic over F_2
    on the raw coboundary matrices, fully independent of the integer SNF."""
    from satokit.exactlin import F2, Matrix
    from satokit.simptors import coboundary_matrix
    n = cx.n_simplices(degree)
    n_in = cx.n_simplices(degree - 1) if degree else 0
    d_out = [[r.get(j, 0) for j in range(n)]
             for r in coboundary_matrix(cx, degree)]
    d_in = [[r.get(j, 0) for j in range(n_in)]
            for r in coboundary_matrix(cx, degree - 1)] if degree else []
    rank_out = Matrix(F2, d_out, n).rank() if d_out else 0
    rank_in = Matrix(F2, d_in, n).rank() if d_in else 0
    dim_z = n - rank_out
    dim_b = rank_in
    return 2 ** (dim_z - dim_b)


def test_cohomology_cross_checked_against_f2_rank_count():
    z2 = AbelianGroup((2,))
    for cx in (projective_plane(), torus(), simplex_boundary(3),
               full_simplex(2), sphere_3()):
        for degree in range(0, cx.top_dim + 1):
            res = CohomologyResult(cx, degree, z2)
            order = 1
            for f in res.group_presentation:
                order *= f
            assert order == _brute_force_h_order_mod2(cx, degree), \
                (cx, degree)


def test_classify_representatives_give_unit_coordinates():
    for cx, deg, grp in [(projective_plane(), 2, Z2), (torus(), 1, ZZ),
                         (sphere_3(), 3, Z4), (torus(), 2, ZZ)]:
        res = CohomologyResult(cx, deg, grp)
        reps = res.representatives()
        for k, rep in enumerate(reps):
            cls = res.classify(rep)
            flat = [x for c in cls for x in c]
            assert flat[k] in (1, -1) or flat[k] != 0
            assert all(x == 0 for i, x in enumerate(flat) if i != k)


def test_classify_is_additive():
    z4 = Z4
    cx = sphere_3()
    res = CohomologyResult(cx, 3, z4)
    rep = res.representatives()[0]
    one = res.classify(rep)
    two = res.classify(rep.add(rep))
    assert two[0][0] % 4 == (2 * one[0][0]) % 4


def test_representatives_are_cocycles():
    for cx, deg, grp in [(projective_plane(), 2, Z2), (torus(), 1, ZZ),
                         (sphere_3(), 3, Z4)]:
        res = CohomologyResult(cx, deg, grp)
        reps = res.representatives()
        assert len(reps) == len(res.group_presentation)
        for k, rep in enumerate(reps):
            assert rep.coboundary().is_zero() or all(
                x.coords == tuple(0 for _ in grp.factors)
                for x in rep.coboundary().values.values())
            cls = res.classify(rep)
            assert any(any(x != 0 for x in c) for c in cls)


# (complex, degree, group, representatives, {cocycle: class}), one
# coordinate per simplex in id order
_PINNED = [
    (projective_plane, 2, Z2, [{"L": 1}], {(1, 2): (1,)}),
    (projective_plane, 2, AbelianGroup((6,)), [{"L": 1}], {(1, 2): (1,)}),
    (projective_plane, 1, AbelianGroup((6,)), [{"a": 3, "c": 3}],
     {(-1, 2, 3): (1,), (0, 3, 3): (1,), (3, 0, 3): (1,)}),
    (torus, 1, ZZ, [{"a": -1, "b": 1}, {"a": 1, "c": 1}],
     {(-1, 0, -1): (0, -1), (-1, 2, 1): (2, 1), (0, 1, 1): (1, 1)}),
    (torus, 2, ZZ, [{"L": 1}], {(1, 2): (1,)}),
    (sphere_3, 3, Z4, [{"1234": 1}], {(1, 2, 3, 4, 5): (3,)}),
]


@pytest.mark.parametrize("make, deg, grp, reps, classes", _PINNED)
def test_pinned_classes_and_representatives(make, deg, grp, reps, classes):
    cx = make()
    res = CohomologyResult(cx, deg, grp)
    assert [{sid: g.coords[0] for sid, g in rep.values.items()
             if not g.is_zero()} for rep in res.representatives()] == reps
    for vec, cls in classes.items():
        vals = {sid: [x] for sid, x in zip(cx.ids(deg), vec)}
        assert res.classify(Cochain(cx, deg, grp, vals)) == (cls,)


# --- classification -------------------------------------------------------

def test_classify_zero():
    cx = torus()
    t = MultTorsorRep(cx, 1, ZZ, Cochain.zero(cx, 2, ZZ))
    assert _is_zero(_torsor_class(t))


def test_classify_torus_generator():
    cx = torus()
    res = CohomologyResult(cx, 2, ZZ)
    rep = res.representatives()[0]
    t = MultTorsorRep(cx, 1, ZZ, rep)
    cls = _torsor_class(t)
    assert not _is_zero(cls)
    # doubling the generator doubles the class coordinate
    t2 = MultTorsorRep(cx, 1, ZZ, rep.add(rep))
    assert _torsor_class(t2)[0][0] == 2 * cls[0][0]


def test_transporter_joins_cohomologous_cocycles():
    rng = random.Random(17)
    cx = projective_plane()
    lower = Cochain(cx, 1, Z2, {"a": Z2.elem((1,)), "c": Z2.elem((1,))})
    alpha1 = Cochain(cx, 2, Z2, {"U": Z2.elem((1,)), "L": Z2.elem((1,))})
    alpha2 = alpha1.add(lower.coboundary())
    res = CohomologyResult(cx, 2, Z2)
    x = res.transporter(alpha1, alpha2)
    assert x is not None
    assert x.coboundary() == alpha1.sub(alpha2)
    assert res.classify(alpha1) == res.classify(alpha2)


def test_transporter_separates_classes():
    cx = projective_plane()
    res = CohomologyResult(cx, 2, Z2)
    rep = res.representatives()[0]
    zero = Cochain.zero(cx, 2, Z2)
    assert res.transporter(zero, rep) is None
    assert res.classify(zero) != res.classify(rep)


def test_one_smith_form_per_coboundary(monkeypatch):
    # the group reads the invariant factors of D_(n-1) and D_n, whose unit
    # pivots leave no remainder on the torus, and one transform-free form in
    # canonical_factors; classify and representatives share one Smith form
    # of D across the cyclic factors, and transporter solves every factor
    # against one Smith form of A = D_(n-1); each form keeps only the
    # transforms its caller reads, and one result builds each form once
    import satokit.exactlin
    import satokit.simptors
    snf = satokit.exactlin.snf_with_transforms
    calls = []

    def counted(rows, ncols, keep):
        calls.append(set(keep))
        return snf(rows, ncols, keep)

    for module in (satokit.exactlin, satokit.simptors):
        monkeypatch.setattr(module, "snf_with_transforms", counted)
    cx = torus()
    # one form of D and one of the relations per factor
    d, rel, free = {"V", "V^-1"}, {"U", "U^-1"}, set()
    for text, want in (("Z+Z/6", [d, rel, rel]),
                       ("Z/2+Z/6+Z", [d, rel, rel, rel])):
        grp = parse_group(text)
        calls.clear()
        res = CohomologyResult(cx, 1, grp)
        assert calls == []
        res.group_presentation
        assert calls == [free]  # canonical_factors
        calls.clear()
        res.classify(Cochain.zero(cx, 1, grp))
        res.representatives()
        res.group_presentation
        assert calls == want
        calls.clear()
        CohomologyResult(cx, 1, grp).representatives()
        assert calls == want
    grp = parse_group("Z/2+Z/6+Z")
    lower = Cochain(cx, 1, grp, {"a": (1, 5, -2), "c": (1, 3, 7)})
    res = CohomologyResult(cx, 2, grp)
    alpha = res.representatives()[2]
    beta = alpha.add(lower.coboundary())
    calls.clear()
    x = res.transporter(alpha, beta)
    assert calls == [{"U", "V"}]  # one for every factor
    assert x.coboundary() == alpha.sub(beta)
    res.transporter(beta, alpha)
    assert res.classify(alpha) == res.classify(beta)
    assert calls == [{"U", "V"}]  # the result's forms are shared


def test_group_sends_only_non_unit_remainders_to_the_smith_form(
        monkeypatch):
    # unit pivots leave the matrix before the Smith form: the torus's
    # coboundaries leave nothing and its summands no torsion, so it builds
    # no form; the projective plane's remainder holds entries +-2 and no
    # unit, and canonical_factors sends its one torsion summand, 2, through
    # invariant_factors
    import satokit.exactlin
    import satokit.simptors
    snf = satokit.exactlin.snf_with_transforms
    sent = {satokit.exactlin: [], satokit.simptors: []}

    def counting(module):
        def counted(rows, ncols, keep):
            sent[module].append(([dict(r) for r in rows], tuple(keep)))
            return snf(rows, ncols, keep)
        return counted

    for module in sent:
        monkeypatch.setattr(module, "snf_with_transforms", counting(module))
    remainders, canonical = sent.values()
    for degree, want in ((1, (0, 0)), (2, (0,))):
        canonical.clear()
        assert CohomologyResult(torus(), degree, ZZ).group_presentation == \
            want
        assert remainders == []
        assert canonical == []
    assert CohomologyResult(projective_plane(), 2, ZZ).group_presentation \
        == (2,)
    assert [keep for _, keep in remainders] == [(), ()]
    rows = remainders[0][0]
    assert rows and all(abs(x) == 2 for r in rows for x in r.values())
    assert remainders[1][0] == [{0: 2}] and canonical == []


def test_transporter_refuses_mismatched_cochains():
    cx = projective_plane()
    res = CohomologyResult(cx, 2, Z2)
    zero = Cochain.zero(cx, 2, Z2)
    for other in (Cochain.zero(projective_plane(), 2, Z2),
                  Cochain.zero(cx, 1, Z2), Cochain.zero(cx, 2, Z4)):
        for pair in ((zero, other), (other, zero)):
            with pytest.raises(ValueError, match="does not match"):
                res.transporter(*pair)
        with pytest.raises(ValueError, match="does not match"):
            res.classify(other)


def _count_cohomology_work(monkeypatch):
    """Wrap coboundary_matrix and snf_with_transforms; returns the lists of
    (complex, degree, rows) built and of (rows, keep) formed."""
    import satokit.exactlin
    import satokit.simptors
    cob, snf = coboundary_matrix, satokit.exactlin.snf_with_transforms
    built, formed = [], []

    def counted_cob(complex_, degree):
        rows = cob(complex_, degree)
        built.append((complex_, degree, rows))
        return rows

    def counted_snf(rows, ncols, keep):
        formed.append((rows, tuple(keep)))
        return snf(rows, ncols, keep)

    monkeypatch.setattr(satokit.simptors, "coboundary_matrix", counted_cob)
    for module in (satokit.exactlin, satokit.simptors):
        monkeypatch.setattr(module, "snf_with_transforms", counted_snf)
    return built, formed


def test_classification_suite_builds_each_form_once(monkeypatch):
    # one result per complex: D_1 and D_2 of each complex built once (72
    # calls when every torsor built its own), and at most one Smith form
    # per (complex, matrix, kept set): 9 in all, 74 before; the group sends
    # no coboundary to the Smith form, only what its unit pivots leave
    from satokit import verify
    built, formed = _count_cohomology_work(monkeypatch)
    assert verify.suite_classification().passed
    assert len(built) == 4
    assert len({(id(cx), degree) for cx, degree, _ in built}) == 4
    keys = [(next((k for k, b in enumerate(built) if b[2] is rows), None),
             keep) for rows, keep in formed]
    coboundary_keys = [key for key in keys if key[0] is not None]
    assert len(coboundary_keys) == len(set(coboundary_keys)) == 4
    assert all(keep for _, keep in coboundary_keys)
    # the rest are canonical_factors, the remainder of D_1 of the projective
    # plane and one relation form per complex
    assert sorted(keep for k, keep in keys if k is None) == \
        [(), (), (), ("U", "U^-1"), ("U", "U^-1")]
    assert len(formed) == 9


def test_gerbe_suite_builds_one_form_per_complex_and_group(monkeypatch):
    # 2 complexes and 2 groups: one {V, V^-1} form of D_3 and one
    # {U, U^-1} relation form each (16 of each when every gerbe built its
    # own result)
    import collections
    from satokit import verify
    _, formed = _count_cohomology_work(monkeypatch)
    assert verify.suite_gerbe(seed=111).passed
    keeps = collections.Counter(keep for _, keep in formed)
    assert keeps == {("V", "V^-1"): 4, ("U", "U^-1"): 4}


def test_group_from_invariant_factors_matches_relation_forms():
    # the group by universal coefficients against the invariant factors of
    # the relation forms, which classify and representatives read
    for cx in (circle(), simplex_boundary(2), simplex_boundary(3), torus(),
               projective_plane(), sphere_3()):
        for degree in range(MAX_DIM_CAP):
            for text in ("Z", "Z/2", "Z/4", "Z/6", "Z+Z/6", "Z/2+Z/6+Z"):
                res = CohomologyResult(cx, degree, parse_group(text))
                want = canonical_factors(
                    [f for comp in res.components for f in comp.factors])
                assert res.group_presentation == want, (degree, text)


def test_exhaustive_classification_rp2_z2():
    # all degree-1 torsors over Z/2 on RP^2: group them by transporter and
    # compare with the cohomology count
    cx = projective_plane()
    res = CohomologyResult(cx, 2, Z2)
    all_cochains = []
    for bits in itertools.product((0, 1), repeat=2):
        vals = {"U": Z2.elem((bits[0],)), "L": Z2.elem((bits[1],))}
        all_cochains.append(Cochain(cx, 2, Z2, vals))
    torsors = [MultTorsorRep(cx, 1, Z2, a) for a in all_cochains]
    classes = []
    for t in torsors:
        for group in classes:
            if res.transporter(group[0].absolute_alpha(),
                               t.absolute_alpha()) is not None:
                group.append(t)
                break
        else:
            classes.append([t])
    order = 1
    for f in res.group_presentation:
        order *= f
    assert len(classes) == order == 2
    # the class of alpha separates the same way
    for group in classes:
        cls = {res.classify(t.alpha) for t in group}
        assert len(cls) == 1
    assert res.classify(classes[0][0].alpha) != \
        res.classify(classes[1][0].alpha)


# --- gerbes ---------------------------------------------------------------

def test_trivial_gerbe():
    cx = sphere_3()
    g = GerbeRep(cx, ZZ, Cochain.zero(cx, 3, ZZ))
    t = gerbe_to_torsor(g)
    assert t.degree == 2
    assert check_mult_torsor(t).ok
    assert _is_zero(_torsor_class(t))


def test_gerbe_coboundary_beta():
    rng = random.Random(19)
    cx = sphere_3()
    lower = Cochain(cx, 2, Z4, {sid: Z4.elem((rng.randrange(4),))
                                for sid in cx.ids(2)})
    g = GerbeRep(cx, Z4, lower.coboundary())
    t = gerbe_to_torsor(g)
    assert check_mult_torsor(t).ok
    assert _is_zero(_torsor_class(t))


def test_gerbe_nontrivial_class():
    cx = sphere_3()
    res = CohomologyResult(cx, 3, Z4)
    rep = res.representatives()[0]
    g = GerbeRep(cx, Z4, rep)
    t = gerbe_to_torsor(g)
    assert check_mult_torsor(t).ok
    assert not _is_zero(_torsor_class(t))


def test_gerbe_rejects_non_cocycle():
    cx = full_simplex(4)
    beta = Cochain.zero(cx, 3, ZZ).set_value("0123", ZZ.elem((1,)))
    with pytest.raises(GerbeError):
        GerbeRep(cx, ZZ, beta)
