import itertools

import pytest
from hypothesis import given, settings, strategies as st

from satokit.exactlin import (
    F2, F3, F5, QQ, Matrix, Subspace, all_subspaces, all_vectors)
from satokit.exactcat import (
    SES, FdSpace, Grid3x3, GridError, LinMap, SESInvalid, canonical_section,
    complete_grid_3x3, epi_mono_factorize,
    factorization_connector, image_factorization, inclusion_map,
    is_cartesian_square, is_cocartesian_square, pullback_admissible_monos,
    pushout_admissible_epis, quotient_map, split_ses,
)


@pytest.fixture(autouse=True)
def _fresh_sections():
    # canonical_section memoizes on the map, so a count pin would otherwise
    # depend on the tests that ran before it
    canonical_section.cache_clear()


def k(field, n):
    return FdSpace(field, n)


def _diagnosis(i, j):
    """The SESInvalid code that SES(i, j) raises, or None when it validates."""
    try:
        SES(i, j)
    except SESInvalid as exc:
        return exc.code
    return None


def test_apply_is_the_row_product():
    f = LinMap(k(F5, 2), k(F5, 3), [[1, 2, 3], [0, 4, 1]])
    assert f.apply((2, 1)) == (2, 3, 2)
    assert LinMap.zero(k(F5, 0), k(F5, 2)).apply(()) == (0, 0)


# --- SES validation -----------------------------------------------------

def test_split_ses_valid():
    ses = split_ses(F2, 1, 1)
    assert ses.sub.dim == 1 and ses.total.dim == 2 and ses.quot.dim == 1


def test_ses_composite_nonzero():
    # i = e1 inclusion, j = first-coordinate projection
    i = LinMap(k(F2, 1), k(F2, 2), [[1, 0]])
    j = LinMap(k(F2, 2), k(F2, 1), [[1], [0]])
    assert _diagnosis(i, j) == "composite-nonzero"
    with pytest.raises(SESInvalid):
        SES(i, j)


def test_ses_inexact_at_middle():
    # i = e1 into k^3, j = projection onto the third coordinate:
    # composite is zero but ker j has dimension 2 > 1
    i = LinMap(k(F2, 1), k(F2, 3), [[1, 0, 0]])
    j = LinMap(k(F2, 3), k(F2, 1), [[0], [0], [1]])
    assert j.kernel_subspace().dim == 2  # rank oracle
    assert _diagnosis(i, j) == "inexact-at-middle"


def test_ses_not_mono_not_epi():
    z = LinMap.zero(k(F2, 1), k(F2, 2))
    j = LinMap(k(F2, 2), k(F2, 1), [[1], [0]])
    assert _diagnosis(z, j) == "not-mono"
    i = LinMap(k(F2, 1), k(F2, 2), [[1, 0]])
    zz = LinMap.zero(k(F2, 2), k(F2, 1))
    assert _diagnosis(i, zz) == "not-epi"


def test_admissibility_equals_rank_predicate():
    # an ambient epi with kernel of the expected dimension is admissible:
    # the SES (ker j -> source -> target) always validates
    for rows in itertools.product(*[list(all_vectors(F2, 2))] * 3):
        j = LinMap(k(F2, 3), k(F2, 2), [list(r) for r in rows])
        if not j.is_epi():
            continue
        ker = j.kernel_subspace()
        i = inclusion_map(ker)
        assert _diagnosis(LinMap(k(F2, ker.dim), k(F2, 3), i.matrix), j) is None


def test_canonical_section():
    j = LinMap(k(F5, 3), k(F5, 2), [[1, 0], [2, 1], [0, 3]])
    s = canonical_section(j)
    assert s.then(j) == LinMap.identity(k(F5, 2))


# --- pullbacks / pushouts ------------------------------------------------

def test_pullback_identical_monos():
    m = LinMap(k(F2, 1), k(F2, 2), [[1, 1]])
    p, i1, i2 = pullback_admissible_monos(m, m)
    assert p.dim == 1
    assert i1.is_iso() and i2.is_iso()
    assert i1.then(m) == i2.then(m)


def test_pullback_coordinate_planes():
    m1 = LinMap(k(F2, 2), k(F2, 3), [[1, 0, 0], [0, 1, 0]])
    m2 = LinMap(k(F2, 2), k(F2, 3), [[0, 1, 0], [0, 0, 1]])
    p, i1, i2 = pullback_admissible_monos(m1, m2)
    assert p.dim == 1
    image = i1.then(m1).image_subspace()
    assert image == Subspace.from_rows(F2, 3, [(0, 1, 0)])
    assert i1.then(m1) == i2.then(m2)


def test_pullback_zero():
    z = LinMap.zero(k(F3, 0), k(F3, 2))
    m = LinMap(k(F3, 1), k(F3, 2), [[1, 2]])
    p, _, _ = pullback_admissible_monos(z, m)
    assert p.dim == 0


def test_pullback_mediator_on_demand():
    from satokit.exactcat import pullback_mediator
    m1 = LinMap(k(F5, 2), k(F5, 3), [[1, 0, 0], [0, 1, 0]])
    m2 = LinMap(k(F5, 2), k(F5, 3), [[0, 1, 0], [0, 0, 1]])
    p, i1, i2 = pullback_admissible_monos(m1, m2)
    # a competing cone through the intersection factors uniquely
    c = k(F5, 1)
    cone1 = LinMap(c, m1.source, [[0, 2]])   # lands on 2*e2 in span{e1,e2}
    cone2 = LinMap(c, m2.source, [[2, 0]])   # the same vector in span{e2,e3}
    assert cone1.then(m1) == cone2.then(m2)
    u = pullback_mediator(i1, i2, cone1, cone2)
    assert u is not None
    assert u.then(i1) == cone1 and u.then(i2) == cone2
    # a non-commuting cone does not factor
    bad = LinMap(c, m2.source, [[0, 2]])
    assert pullback_mediator(i1, i2, cone1, bad) is None


def test_pushout_identical_epis():
    e = LinMap(k(F2, 2), k(F2, 1), [[1], [1]])
    q, f1, f2 = pushout_admissible_epis(e, e)
    assert q.dim == 1
    assert e.then(f1) == e.then(f2)
    assert f1.is_epi() and f2.is_epi()


def test_pushout_two_projections():
    # k^2 ->> k by first and by second coordinate; kernels span everything
    e1 = LinMap(k(F5, 2), k(F5, 1), [[1], [0]])
    e2 = LinMap(k(F5, 2), k(F5, 1), [[0], [1]])
    q, f1, f2 = pushout_admissible_epis(e1, e2)
    ksum = e1.kernel_subspace().join(e2.kernel_subspace())
    assert q.dim == 2 - ksum.dim == 0  # quotient-by-sum oracle


def test_pushout_identity_leg():
    e1 = LinMap(k(F2, 3), k(F2, 1), [[1], [1], [1]])
    e2 = LinMap.identity(k(F2, 3))
    q, f1, f2 = pushout_admissible_epis(e1, e2)
    assert q.dim == e1.target.dim
    assert e1.then(f1) == e2.then(f2)


# --- epi-mono factorization ---------------------------------------------

def test_factorize_identity():
    idm = LinMap.identity(k(F2, 1))
    e, m = epi_mono_factorize(idm, idm, idm)
    assert e == idm and m == idm


def test_factorize_zero_map():
    # zero k -> k via mono into k^2 followed by the epi killing the image
    mono = LinMap(k(F3, 1), k(F3, 2), [[1, 0]])
    epi = LinMap(k(F3, 2), k(F3, 1), [[0], [1]])
    f = mono.then(epi)
    assert f.is_zero()
    e, m = epi_mono_factorize(f, mono, epi)
    assert e.target.dim == 0
    assert m.source.dim == 0 and m.target.dim == 1


def test_factorize_f3_sum_example():
    # mono e1: k -> k^2, epi (a, b) -> a + b over F_3; composite is id_k
    mono = LinMap(k(F3, 1), k(F3, 2), [[1, 0]])
    epi = LinMap(k(F3, 2), k(F3, 1), [[1], [1]])
    f = mono.then(epi)
    e, m = epi_mono_factorize(f, mono, epi)
    assert e.target.dim == 1  # canonical middle: echelon image, dim 1
    assert e.then(m) == f
    assert m.image_subspace() == f.image_subspace()


def test_factorize_rejects_bad_witnesses():
    mono = LinMap(k(F3, 1), k(F3, 2), [[1, 0]])
    epi = LinMap(k(F3, 2), k(F3, 1), [[1], [1]])
    f = mono.then(epi)
    with pytest.raises(ValueError):
        epi_mono_factorize(f, mono.then(LinMap.zero(k(F3, 2), k(F3, 2))), epi)
    with pytest.raises(ValueError):
        epi_mono_factorize(LinMap.zero(k(F3, 1), k(F3, 1)), mono, epi)


def test_factorization_connector_unique_iso():
    mono = LinMap(k(F5, 2), k(F5, 3), [[1, 0, 2], [0, 1, 1]])
    epi = LinMap(k(F5, 3), k(F5, 2), [[1, 0], [0, 1], [3, 4]])
    f = mono.then(epi)
    e, m = image_factorization(f)
    # twist the middle by every iso of k^2 sampled from a fixed list
    twists = [
        Matrix(F5, [[1, 1], [0, 1]]),
        Matrix(F5, [[2, 0], [0, 3]]),
        Matrix(F5, [[0, 1], [1, 0]]),
    ]
    for t in twists:
        tm = LinMap(e.target, e.target, t)
        e2, m2 = e.then(tm), tm.inverse().then(m)
        assert e2.then(m2) == f
        u = factorization_connector((e, m), (e2, m2))
        assert u is not None and u.is_iso()
        # and it is the twist itself
        assert u == tm


def _reference_connector(fac1, fac2):
    # the connector rule before u's rank was read off m1: u must be an iso
    # and satisfy both equations
    (e1, m1), (e2, m2) = fac1, fac2
    a1, a2, b1, b2 = e1.matrix, e2.matrix, m1.matrix, m2.matrix
    if (a1.field, a1.nrows) != (a2.field, a2.nrows) or \
            (b1.field, b1.ncols) != (b2.field, b2.ncols):
        return None
    if a1.ncols != a2.ncols or not e1.is_epi():
        return None
    u = canonical_section(e1).then(e2)
    if not u.is_iso() or e1.then(u) != e2 or u.then(m2) != m1:
        return None
    return u


def test_connector_matches_the_iso_rule_on_all_small_f2_pairs():
    # every pair of factorizations (e, m) over F2 with all dims <= 2 and
    # matching outer and middle dimensions
    seen = set()
    for a, b, c in itertools.product(range(3), repeat=3):
        facs = [(e, m) for e in _all_f2_matrices(a, b)
                for m in _all_f2_matrices(b, c)]
        for fac1 in facs:
            for fac2 in facs:
                want = _reference_connector(fac1, fac2)
                assert factorization_connector(fac1, fac2) == want
                seen.add((fac1[1].is_mono(), fac2[0].is_epi(), want is None))
    # a non-mono m1 both with and without a connector, and a non-epi e2
    # whose equations hold for a u that is no iso
    assert {(False, True, False), (False, False, True),
            (True, True, False), (True, False, True)} <= seen
    e1 = LinMap.identity(k(F2, 2))
    zero = LinMap.zero(k(F2, 2), k(F2, 2))
    assert factorization_connector((e1, zero), (zero, zero)) is None


def test_repeated_connector_runs_no_elimination(monkeypatch):
    mono = LinMap(k(F5, 2), k(F5, 3), [[1, 0, 2], [0, 1, 1]])
    epi = LinMap(k(F5, 3), k(F5, 2), [[1, 0], [0, 1], [3, 4]])
    e, m = image_factorization(mono.then(epi))
    tm = LinMap(e.target, e.target, [[1, 1], [0, 1]])
    e2, m2 = e.then(tm), tm.inverse().then(m)
    import satokit.exactlin
    rref = satokit.exactlin._rref
    calls = []

    def counted(field, rows):
        calls.append("rref")
        return rref(field, rows)

    monkeypatch.setattr(satokit.exactlin, "_rref", counted)
    assert factorization_connector((e, m), (e2, m2)) == tm
    assert calls
    calls.clear()
    assert factorization_connector((e, m), (e2, m2)) == tm
    assert calls == []


# --- grid completion ------------------------------------------------------

def test_grid_basic_f2():
    # x = F_2^2, x^1 = span e1, x_1 = span e2, intersection 0
    top = inclusion_map(Subspace.from_rows(F2, 2, [(1, 0)]))
    left = inclusion_map(Subspace.from_rows(F2, 2, [(0, 1)]))
    g = complete_grid_3x3(top, left)
    assert g.spaces["tl"].dim == 0
    assert g.spaces["br"].dim == 0
    dims = {key: g.spaces[key].dim for key in
            ("tr", "bl", "bm", "mr")}
    assert all(d <= 1 for d in dims.values())
    g.validate()


def test_grid_all_zero():
    top = LinMap.zero(k(F2, 0), k(F2, 0))
    g = complete_grid_3x3(top, top)
    assert all(s.dim == 0 for s in g.spaces.values())


def test_grid_degenerate_left_column():
    # x_1 = x^1_1 (left column is an iso onto the intersection): the
    # bottom-left entry vanishes and the bottom row is an iso SES, while the
    # right column realizes the quotients of the filtration x_1 c x^1 c x
    u_top = Subspace.from_rows(F5, 3, [(1, 0, 0), (0, 1, 0)])
    u_left = Subspace.from_rows(F5, 3, [(1, 0, 0)])  # contained in u_top
    g = complete_grid_3x3(inclusion_map(u_top), inclusion_map(u_left))
    assert g.spaces["tl"].dim == u_left.dim  # pullback is x_1 itself
    assert g.spaces["bl"].dim == 0
    i3, j3 = g.row_maps[2]
    assert j3.is_iso()  # bottom row reduces to an isomorphism
    # right column: x^1/x_1 >--> x/x_1 -->> x/x^1
    assert g.spaces["tr"].dim == u_top.dim - u_left.dim
    assert g.spaces["mr"].dim == 3 - u_left.dim
    assert g.spaces["br"].dim == 3 - u_top.dim
    g.validate()


def test_grid_given_square_is_checked():
    u_top = Subspace.from_rows(F3, 3, [(1, 0, 0), (0, 1, 2)])
    u_left = Subspace.from_rows(F3, 3, [(0, 1, 2), (0, 0, 1)])
    top, left = inclusion_map(u_top), inclusion_map(u_left)
    p, _, _ = pullback_admissible_monos(top, left)
    assert complete_grid_3x3(top, left).spaces["tl"] == p


_GRID_FIELDS = [(F3, st.integers(0, 2)), (F5, st.integers(0, 4)),
                (QQ, st.fractions(min_value=-3, max_value=3,
                                  max_denominator=3))]


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(range(len(_GRID_FIELDS))), st.integers(0, 4),
       st.data())
def test_completed_grids_validate(which, ambient, data):
    # the completion returns its grid unvalidated; every random pair of
    # subspaces still completes to six exact lines and commuting squares
    field, entries = _GRID_FIELDS[which]

    def rows():
        return data.draw(st.lists(st.lists(entries, min_size=ambient,
                                           max_size=ambient), max_size=4))

    u1 = Subspace.from_rows(field, ambient, rows())
    u2 = Subspace.from_rows(field, ambient, rows())
    g = complete_grid_3x3(inclusion_map(u1), inclusion_map(u2))
    assert g.validate()
    assert g.spaces["tl"].dim == u1.meet(u2).dim


def test_grid_exhaustive_f2_dim2_bicartesian():
    # cartesian and cocartesian are equivalent for admissible squares; the
    # grid's lower-left square realizes both exactly when one holds
    subs = all_subspaces(F2, 2)
    seen_cartesian = 0
    for u1 in subs:
        for u2 in subs:
            g = complete_grid_3x3(inclusion_map(u1), inclusion_map(u2))
            g.validate()
            h0 = g.row_maps[1][0]
            h1 = g.row_maps[2][0]
            v0 = g.col_maps[0][1]
            v1 = g.col_maps[1][1]
            cart = is_cartesian_square(h0, v0, h1, v1)
            cocart = is_cocartesian_square(h0, v0, h1, v1)
            assert cart == cocart
            seen_cartesian += cart
    assert seen_cartesian > 0  # the equivalence is not vacuous


def test_preimage_squares_are_bicartesian():
    # B = preimage of Bbar under x ->> x/K gives a cartesian admissible
    # square; by the exact-category biconditional it must be cocartesian too
    for ambient in (2, 3):
        for ksub in all_subspaces(F2, ambient):
            proj = quotient_map(ksub)
            for bbar in all_subspaces(F2, ambient - ksub.dim):
                pre_rows = [v for v in all_vectors(F2, ambient)
                            if bbar.contains_vector(proj.apply(v))]
                b = Subspace.from_rows(F2, ambient, pre_rows)
                top = inclusion_map(b)
                right = proj
                # left: B ->> Bbar expressed in bbar's echelon coordinates
                left_mat = []
                for r in b.rows:
                    img = proj.apply(r)
                    c = bbar.coordinates(
                        Matrix(F2, [img], bbar.ambient)).entries[0]
                    left_mat.append(c)
                left = LinMap(top.source, k(F2, bbar.dim), left_mat)
                bottom = LinMap(k(F2, bbar.dim), proj.target,
                                [list(r) for r in bbar.rows])
                assert is_cartesian_square(top, left, bottom, right)
                assert is_cocartesian_square(top, left, bottom, right)


def test_grid_depends_only_on_subobjects():
    # reparametrizing a mono's source leaves the completed grid unchanged
    u_top = Subspace.from_rows(F5, 3, [(1, 0, 2), (0, 1, 1)])
    u_left = Subspace.from_rows(F5, 3, [(0, 1, 1)])
    top = inclusion_map(u_top)
    repar = LinMap(k(F5, 2), k(F5, 2), [[1, 3], [0, 2]])
    top2 = repar.then(top)
    g1 = complete_grid_3x3(top, inclusion_map(u_left))
    g2 = complete_grid_3x3(top2, inclusion_map(u_left))
    for key in g1.spaces:
        assert g1.spaces[key] == g2.spaces[key]
    for r in range(3):
        assert g1.row_maps[r] == g2.row_maps[r]


def test_grid_transpose():
    u_top = Subspace.from_rows(F2, 3, [(1, 0, 0), (0, 1, 1)])
    u_left = Subspace.from_rows(F2, 3, [(0, 1, 1)])
    g = complete_grid_3x3(inclusion_map(u_top), inclusion_map(u_left))
    gt = complete_grid_3x3(inclusion_map(u_left), inclusion_map(u_top))
    flipped = g.transpose()
    for key, space in flipped.spaces.items():
        assert gt.spaces[key].dim == space.dim
    flipped.validate()


def test_grid_validate_names_the_failing_line():
    u_top = Subspace.from_rows(F2, 2, [(1, 0)])
    u_left = Subspace.from_rows(F2, 2, [(0, 1)])
    g = complete_grid_3x3(inclusion_map(u_top), inclusion_map(u_left))
    mono, epi = g.row_maps[1]
    rows = dict(g.row_maps)
    rows[1] = (mono, LinMap.zero(epi.source, epi.target))
    bad = Grid3x3(g.spaces, rows, g.col_maps)
    with pytest.raises(GridError, match="^row 1: not-epi$"):
        bad.validate()
    with pytest.raises(GridError, match="^column 1: not-epi$"):
        bad.transpose().validate()


def _all_linmaps(src, tgt):
    if src.dim == 0 or tgt.dim == 0:
        yield LinMap.zero(src, tgt)
        return
    for rows in itertools.product(list(all_vectors(F2, tgt.dim)),
                                  repeat=src.dim):
        yield LinMap(src, tgt, [list(r) for r in rows])


def test_universal_properties_enumerated():
    # cone enumeration over F_2 for a preimage square (which is cartesian by
    # construction and hence also cocartesian)
    ksub = Subspace.from_rows(F2, 2, [(1, 1)])
    proj = quotient_map(ksub)  # F_2^2 ->> F_2^1
    bbar = Subspace.full(F2, 1)
    b = Subspace.full(F2, 2)
    top = inclusion_map(b)
    left = LinMap(top.source, k(F2, 1),
                  [list(proj.apply(r)) for r in b.rows])
    bottom = LinMap.identity(k(F2, 1))
    right = proj
    assert is_cartesian_square(top, left, bottom, right)
    assert is_cocartesian_square(top, left, bottom, right)
    # pullback universal property
    for cdim in range(3):
        c_space = k(F2, cdim)
        for c in _all_linmaps(c_space, top.target):
            for d in _all_linmaps(c_space, left.target):
                if c.then(right) != d.then(bottom):
                    continue
                mediators = [u for u in _all_linmaps(c_space, top.source)
                             if u.then(top) == c and u.then(left) == d]
                assert len(mediators) == 1
    # pushout universal property
    for edim in range(3):
        e_space = k(F2, edim)
        for u in _all_linmaps(top.target, e_space):
            for v in _all_linmaps(left.target, e_space):
                if top.then(u) != left.then(v):
                    continue
                mediators = [w for w in _all_linmaps(right.target, e_space)
                             if right.then(w) == u and bottom.then(w) == v]
                assert len(mediators) == 1


# --- a LinMap is its matrix ------------------------------------------------

def test_then_across_two_fields_is_refused():
    f = LinMap(k(F2, 2), k(F2, 2), [[1, 0], [0, 1]])
    g = LinMap(k(F3, 2), k(F3, 2), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="maps are not composable"):
        f.then(g)
    with pytest.raises(ValueError, match="maps are not composable"):
        g.then(f)


def test_ses_over_two_fields_is_refused():
    i = LinMap(k(F2, 1), k(F2, 2), [[1, 0]])
    j = LinMap(k(F3, 2), k(F3, 1), [[0], [1]])
    with pytest.raises(ValueError, match="middle objects disagree"):
        SES(i, j)


def test_shape_mismatch_and_negative_dimension_are_refused():
    with pytest.raises(ValueError, match="does not match"):
        LinMap(k(F5, 2), k(F5, 3), Matrix(F5, [[1, 2]]))
    with pytest.raises(ValueError, match="does not match"):
        LinMap(k(F5, 0), k(F5, 1), Matrix.zero(F5, 0, 2))
    with pytest.raises(ValueError, match="field mismatch"):
        LinMap(k(F5, 1), k(F5, 1), Matrix(F3, [[1]]))
    with pytest.raises(ValueError, match="negative dimension"):
        FdSpace(F2, -1)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_linmap_equality_and_hash_are_the_matrix(shape):
    r, c = shape
    m = Matrix(F5, [[(i + 2 * j) % 5 for j in range(c)] for i in range(r)], c)
    f = LinMap(k(F5, r), k(F5, c), m)
    assert f == LinMap.of(m) and hash(f) == hash(m)
    assert f.source == k(F5, r) and f.target == k(F5, c)
    # the same shape over another field, or another shape, is another map
    assert f != LinMap.of(Matrix.zero(F3, r, c))
    assert LinMap.of(Matrix.zero(F5, r, c)) != LinMap.of(
        Matrix.zero(F5, c, r)) or r == c
    assert LinMap.of(Matrix.zero(F5, r, c + 1)) != LinMap.of(
        Matrix.zero(F5, r, c))


def test_factorization_suite_inverts_each_twist_once(monkeypatch):
    # |GL(r, F2)| for r = 0..3 is 1, 1, 6 and 168: 176 twists in all
    from satokit import verify
    calls = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    assert verify.suite_factorization().passed
    assert len(calls) <= 176


# --- exactness in the middle is a count ------------------------------------

def _kernel_verdict(i, j):
    """The checks SES made when exactness was read off a kernel: mono, epi
    and the composite by rank and product, then dim ker j against dim a'."""
    mi, mj = i.matrix, j.matrix
    if mi.rank() != mi.nrows:
        return "not-mono"
    if mj.rank() != mj.ncols:
        return "not-epi"
    if not mi.mul(mj).is_zero():
        return "composite-nonzero"
    if mj.left_kernel().dim != mi.nrows:
        return "inexact-at-middle"
    return None


def _all_f2_matrices(r, c):
    for bits in itertools.product((0, 1), repeat=r * c):
        yield LinMap.of(Matrix(F2, [bits[q * c:(q + 1) * c]
                                    for q in range(r)], c))


def test_ses_verdict_matches_the_kernel_checks():
    import random
    seen = set()
    # every F2 pair i: a x b, j: b x c with b <= 2 and a, c <= 3
    for a, b, c in itertools.product(range(4), range(3), range(4)):
        js = list(_all_f2_matrices(b, c))
        for i in _all_f2_matrices(a, b):
            for j in js:
                want = _kernel_verdict(i, j)
                assert _diagnosis(i, j) == want, (i.matrix.entries,
                                                  j.matrix.entries)
                seen.add(want)
    # seeded random pairs with b <= 4 over F2, F3 and F5; half of them take
    # j's columns from the right kernel of i, so that i then j is zero
    rng = random.Random(2000)
    for trial in range(2000):
        field = (F2, F3, F5)[trial % 3]
        a, b, c = rng.randrange(5), rng.randrange(5), rng.randrange(5)

        def draw(r, s):
            return Matrix(field, [[rng.randrange(field.p) for _ in range(s)]
                                  for _ in range(r)], s)

        i, j = draw(a, b), draw(b, c)
        if trial % 2:
            ker = i.right_kernel().basis_matrix()
            j = ker.transpose().mul(draw(ker.nrows, c))
        i, j = LinMap.of(i), LinMap.of(j)
        want = _kernel_verdict(i, j)
        assert _diagnosis(i, j) == want, (field, i.matrix.entries,
                                          j.matrix.entries)
        seen.add(want)
    assert seen == {None, "not-mono", "not-epi", "composite-nonzero",
                    "inexact-at-middle"}


# a fixed pair of subspaces of dimension 3 and 5 in F2^8, meeting in a line
_GRID_TOP = [[1, 0, 1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 1, 0, 0, 1],
             [0, 0, 0, 1, 1, 1, 0, 1]]
_GRID_LEFT = [[1, 1, 0, 1, 1, 0, 1, 1], [0, 1, 0, 0, 1, 1, 0, 0],
              [1, 0, 0, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1, 1, 0],
              [0, 0, 0, 0, 0, 1, 1, 1]]


def test_inverse_ses_and_grid_elimination_counts(monkeypatch):
    # LinMap.inverse runs one elimination, invertible or not; SES decides
    # exactness by a count and builds no kernel; one grid on a fixed F2^8
    # pair runs 6 eliminations (9 when the three quotients of the whole
    # space reduced it and eliminated again; 13 when the four quotients
    # over 0 each eliminated big's rref basis again; 25 when the completion
    # ended in
    # Grid3x3.validate, whose six SES ranked their i and j: those 12 are now
    # run where validate is the point, by verify.suite_grid on every grid it
    # completes; 27 when the monos were ranked apart from their images, 33
    # when SES read exactness off ker j)
    import satokit.exactlin
    rref, left_kernel = satokit.exactlin._rref, Matrix.left_kernel
    calls = []

    def counted(field, rows):
        calls.append("rref")
        return rref(field, rows)

    def counted_kernel(self):
        calls.append("left_kernel")
        return left_kernel(self)

    monkeypatch.setattr(satokit.exactlin, "_rref", counted)
    monkeypatch.setattr(Matrix, "left_kernel", counted_kernel)
    unit = LinMap.identity(k(F2, 3))
    invertible = LinMap.of(Matrix(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    singular = LinMap.of(Matrix(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    calls.clear()
    inv = invertible.inverse()
    assert calls == ["rref"]
    assert inv.then(invertible) == invertible.then(inv) == unit
    calls.clear()
    with pytest.raises(ValueError, match="not an isomorphism"):
        singular.inverse()
    assert calls == ["rref"]
    calls.clear()
    with pytest.raises(ValueError, match="not an isomorphism"):
        LinMap.of(Matrix(F2, [[1, 0]])).inverse()
    assert calls == []
    # an exact split sequence and one that fails only in the middle
    inexact_i = LinMap(k(F2, 1), k(F2, 3), [[1, 0, 0]])
    inexact_j = LinMap(k(F2, 3), k(F2, 1), [[0], [0], [1]])
    calls.clear()
    split_ses(F2, 2, 3)
    assert _diagnosis(inexact_i, inexact_j) == "inexact-at-middle"
    assert "left_kernel" not in calls
    top = LinMap.of(Matrix(F2, _GRID_TOP))
    left = LinMap.of(Matrix(F2, _GRID_LEFT))
    calls.clear()
    grid = complete_grid_3x3(top, left)
    assert grid.spaces["tl"].dim == 1
    assert calls == ["rref"] * 6


def test_grid_reads_mono_off_the_images(monkeypatch):
    # complete_grid_3x3 ranks each mono by the image it builds anyway: a
    # pair that is not mono costs the two image eliminations and no more,
    # and a pair with two targets is refused before any
    import satokit.exactlin
    rref = satokit.exactlin._rref
    calls = []

    def counted(field, rows):
        calls.append("rref")
        return rref(field, rows)

    monkeypatch.setattr(satokit.exactlin, "_rref", counted)
    mono = Matrix(F2, [[0, 1, 0]])
    twice = Matrix(F2, [[1, 0, 1], [1, 0, 1]])
    for top, left in ((twice, mono), (mono, twice), (twice, twice)):
        calls.clear()
        with pytest.raises(GridError, match="^not-mono$"):
            complete_grid_3x3(LinMap.of(top), LinMap.of(left))
        assert calls == ["rref"] * 2
    calls.clear()
    with pytest.raises(ValueError, match="share their target"):
        complete_grid_3x3(LinMap.of(twice), LinMap.of(Matrix(F2, [[1, 1]])))
    assert calls == []
    # the monos of a valid pair are ranked once each, by their images; the
    # 6 are those of test_inverse_ses_and_grid_elimination_counts (9 while
    # the three quotients of the whole space ran an elimination each; 13
    # while the four quotients over 0 did; 25 before the 12 ranks of the
    # six SES in Grid3x3.validate moved to verify.suite_grid)
    top, left = Matrix(F2, _GRID_TOP), Matrix(F2, _GRID_LEFT)
    calls.clear()
    complete_grid_3x3(LinMap.of(top), LinMap.of(left))
    assert calls[:2] == ["rref"] * 2 and len(calls) == 6
