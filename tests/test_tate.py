import random
from fractions import Fraction

import pytest

from satokit.exactlin import F2, F5, QQ, Field, Matrix, Subspace
from satokit.laurent import LaurentMatrix, LaurentPoly, poly_divmod
from satokit.tate import (
    Lattice, TateSES, TateSESInvalid, TateSpace,
    delta_scalar_canonical, fd_ses_of_pair,
    lambda_scalar_chain, lattice_contains, lattice_join,
    lattice_meet, lattice_normalize, lift_lattice, project_lattice,
    relative_index, split_tate_ses, standard_lattice,
    twisted_split, window_subspace,
)

K1 = TateSpace(F5, 1)
K2 = TateSpace(F5, 2)


def _diagnosis(i, j):
    """The TateSESInvalid code that TateSES(i, j) raises, or None when it
    validates."""
    try:
        TateSES(i, j)
    except TateSESInvalid as exc:
        return exc.code
    return None


# --- the Laurent route: oracles for lift, project and their windows -------

def laurent_vector_from_window(field, n, LO, row):
    """Window coordinates -> tuple of LaurentPoly of length n."""
    terms = [[] for _ in range(n)]
    for k, x in enumerate(row):
        if x != 0:
            e, i = divmod(k, n)
            terms[i].append((LO + e, x))
    return tuple(LaurentPoly(field, t) for t in terms)


def window_coords_of_laurent(field, n, LO, HI, vec):
    """Laurent vector -> window coordinates, truncating exponents >= HI.

    Exponents below LO are an error: the vector escapes the window.
    """
    width = (HI - LO) * n
    z = field.zero()
    row = [z] * width
    for i, p in enumerate(vec):
        for e, c in p.terms:
            if e >= HI:
                continue
            if e < LO:
                raise ValueError("vector escapes the window at t^%d" % e)
            row[(e - LO) * n + i] = c
    return row


def apply_row(m, vec):
    """vec (length m.nrows of LaurentPoly) times the LaurentMatrix m."""
    z = LaurentPoly.zero(m.field)
    acc = [z] * m.ncols
    for k, x in enumerate(vec):
        if not x.is_zero():
            for j in range(m.ncols):
                y = m.entries[k][j]
                if not y.is_zero():
                    acc[j] = acc[j].add(x.mul(y))
    return tuple(acc)


def lift_by_laurent_rows(ses, u):
    """lift_lattice with every generator built as a Laurent vector."""
    a, b = ses.i.nrows, ses.i.ncols
    field = ses.field
    src = TateSpace(field, a)
    if a == 0:
        return standard_lattice(src)
    vmin_i = ses.i.min_valuation()
    binv, bden = ses.ri
    vmin_b = binv.min_valuation() - bden.val()
    HI = u.hi - vmin_i
    LO = u.lo + vmin_b
    LO_t = min(u.lo, LO + vmin_i)
    u_w = window_subspace(u, LO_t, u.hi)
    irows = ses.i.entries
    gen = []
    for e in range(LO, HI):
        for k in range(a):
            vec = tuple(p.shift(e) for p in irows[k])
            wrow = window_coords_of_laurent(field, b, LO_t, u.hi, vec)
            gen.append(u_w.proj_coords(wrow))
    ker = Matrix(field, gen, u_w.ambient - u_w.dim).left_kernel()
    return lattice_normalize(src, LO, HI, ker.rows)


def project_by_laurent_rows(ses, u):
    """project_lattice with every generator built as a Laurent vector."""
    b, c = ses.j.nrows, ses.j.ncols
    field = ses.field
    dst = TateSpace(field, c)
    if c == 0:
        return standard_lattice(dst)
    vmin_j = ses.j.min_valuation()
    cinv, cden = ses.lj
    vmin_c = cinv.min_valuation() - cden.val()
    HI = u.hi - vmin_c
    LO = u.lo + vmin_j
    tail_top = HI - vmin_j
    gen = []
    for r in u.rows:
        vec = laurent_vector_from_window(field, b, u.lo, r)
        img = apply_row(ses.j, vec)
        gen.append(window_coords_of_laurent(field, c, LO, HI, img))
    jrows = ses.j.entries
    for e in range(u.hi, tail_top):
        for k in range(b):
            vec = tuple(p.shift(e) for p in jrows[k])
            gen.append(window_coords_of_laurent(field, c, LO, HI, vec))
    return lattice_normalize(dst, LO, HI, gen)


def diag_monomial_lattice(space, shifts):
    """(+)_i t^(a_i) O: the lattice with per-coordinate valuation shifts."""
    lo, hi = min(shifts), max(shifts)
    n = space.rank
    field = space.field
    rows = []
    one, z = field.one(), field.zero()
    for i, a in enumerate(shifts):
        for e in range(a, hi):
            row = [z] * ((hi - lo) * n)
            row[(e - lo) * n + i] = one
            rows.append(row)
    return lattice_normalize(space, lo, hi, rows)


# --- normalization ------------------------------------------------------

def test_normalize_standard():
    lat = lattice_normalize(K1, 0, 0, [])
    assert lat == standard_lattice(K1)
    assert (lat.lo, lat.hi) == (0, 0)


def test_normalize_slack_bounds():
    # t^-1 O presented in the window [-3, 2): all monomials t^-1..t^1
    one, z = 1, 0
    width = 5
    rows = []
    for e in (-1, 0, 1):
        row = [z] * width
        row[e + 3] = one
        rows.append(row)
    lat = lattice_normalize(K1, -3, 2, rows)
    # sandwich-tightening oracle: smallest m with t^m O <= L is -1, and
    # L <= t^-1 O, so the normal form is the empty window at -1
    assert (lat.lo, lat.hi) == (-1, -1)
    assert lat.rows == ()
    assert lat == standard_lattice(K1, -1)


def test_normalize_full_window_rank1():
    lat = lattice_normalize(K1, -1, 1, [[1, 0], [0, 1]])
    assert (lat.lo, lat.hi) == (-1, -1)
    assert lat.rows == ()


def test_normalize_general_subspace():
    # span{t^-1 + 1} + t O  inside k((t)): not an O-module, still a lattice
    lat = lattice_normalize(K1, -1, 1, [[1, 1]])
    assert (lat.lo, lat.hi) == (-1, 1)
    assert lat.rows == ((1, 1),)


def test_normalize_reduces_unreduced_scalars():
    # the canonical form holds for F5 rows given as any integers
    assert lattice_normalize(K1, 0, 2, [[6, 7]]) == \
        lattice_normalize(K1, 0, 2, [[1, 2]])
    assert lattice_normalize(K1, 0, 2, [[5, 1]]) == standard_lattice(K1, 1)
    for bad in (Fraction(1, 3), 2.5):
        with pytest.raises(ValueError):
            lattice_normalize(K1, 0, 2, [[bad, 1]])


def test_two_presentations_normalize_equal():
    a = lattice_normalize(K1, -2, 1, [[0, 1, 0], [0, 0, 1]])
    b = lattice_normalize(K1, -1, 1, [[1, 0], [0, 1]])
    assert a == b == standard_lattice(K1, -1)


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 0), st.integers(0, 2), st.data())
def test_normalization_representation_free(lo, hi, data):
    # scrambling the generating rows or widening the window never changes
    # the canonical form
    width = (hi - lo) * 2
    rows = [[data.draw(st.integers(0, 4)) for _ in range(width)]
            for _ in range(data.draw(st.integers(0, max(width, 1))))]
    lat = lattice_normalize(K2, lo, hi, rows)
    assert lattice_normalize(K2, lat.lo, lat.hi, lat.rows) == lat
    mixed = [[F5.add(a, b) for a, b in zip(r1, r2)]
             for r1 in rows for r2 in rows][:6] + rows
    assert lattice_normalize(K2, lo, hi, mixed + rows) == \
        lattice_normalize(K2, lo, hi, rows + mixed)
    widened = window_subspace(lat, lo - 1, hi + 1).rows
    assert lattice_normalize(K2, lo - 1, hi + 1, widened) == lat


def _drawn_lattice(data):
    space = TateSpace(data.draw(st.sampled_from([F2, F5])),
                      data.draw(st.integers(1, 3)))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    return _random_lattice(rng, space, bound=3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_normalize_output_is_rref(data):
    lat = _drawn_lattice(data)
    sub = Subspace.from_rows(lat.field, (lat.hi - lat.lo) * lat.space.rank,
                             lat.rows)
    assert sub.rows == lat.rows and sub.pivots == lat.basis.pivots


def _dense_rows(lat, lo, hi):
    """lat's rows and its unit rows t^lat.hi ... t^(hi-1) in the window
    [lo, hi), which must contain lat's own."""
    n, field = lat.space.rank, lat.field
    z, one = field.zero(), field.one()
    width = (hi - lo) * n
    rows = [(z,) * ((lat.lo - lo) * n) + r + (z,) * ((hi - lat.hi) * n)
            for r in lat.rows]
    return rows + [tuple(one if j == c else z for j in range(width))
                   for c in range((lat.hi - lo) * n, width)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_window_rows_are_rref(data):
    # the invariant that lets window_subspace skip its own reduction, in
    # windows wider than lat's, inside it, and past it
    lat = _drawn_lattice(data)
    n, field = lat.space.rank, lat.field
    LO = data.draw(st.integers(lat.lo - 3, lat.hi + 2))
    HI = data.draw(st.integers(LO, max(LO, lat.hi) + 3))
    rows = list(window_subspace(lat, LO, HI).rows)
    width = (HI - LO) * n
    red = Subspace.from_rows(field, width, rows)
    assert list(red.rows) == rows
    sub = window_subspace(lat, LO, HI)
    assert (sub.rows, sub.pivots) == (red.rows, red.pivots)
    # dense oracle for (lat n t^LO O^n) / t^HI O^n: the combinations of lat's
    # dense rows that vanish below t^LO, cut at t^HI
    lo, hi = min(LO, lat.lo), max(HI, lat.hi)
    dense = _dense_rows(lat, lo, hi)
    below = (LO - lo) * n
    ker = Matrix(field, [r[:below] for r in dense], below).left_kernel()
    inside = ker.basis_matrix().mul(
        Matrix(field, dense, (hi - lo) * n)).entries
    cut = [r[below:below + width] for r in inside]
    assert list(Subspace.from_rows(field, width, cut).rows) == rows


# --- containment, meet, join, index -------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_meet_join_contains_against_dense_window(data):
    # the definitions in the dense common window [min lo, max hi): the join
    # is the span of both row sets, the meet the left kernel of the stack
    # applied to a's rows, and b <= a iff b's rows add nothing to a's rank
    field = data.draw(st.sampled_from([F2, F5]))
    space = TateSpace(field, data.draw(st.integers(1, 2)))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    a = _random_lattice(rng, space, bound=2)
    b = _random_lattice(rng, space, bound=2)
    gap = data.draw(st.integers(0, 60)) * data.draw(st.sampled_from([1, -1]))
    b = lattice_normalize(space, b.lo + gap, b.hi + gap, b.rows)
    LO, HI = min(a.lo, b.lo), max(a.hi, b.hi)
    ra, rb = _dense_rows(a, LO, HI), _dense_rows(b, LO, HI)
    join = lattice_join(a, b)
    assert join == lattice_normalize(space, LO, HI, ra + rb)
    width = (HI - LO) * space.rank
    stack = Matrix(field, ra + rb, width)
    kept = [k[:len(ra)] for k in stack.left_kernel().rows]
    meet = lattice_meet(a, b)
    assert meet == lattice_normalize(space, LO, HI, Matrix(
        field, kept, len(ra)).mul(Matrix(field, ra, width)).entries)
    rank = stack.rank()
    assert lattice_contains(a, b) == (rank == len(ra))
    assert lattice_contains(b, a) == (rank == len(rb))
    for small, big in ((meet, a), (meet, b), (a, join), (b, join)):
        assert lattice_contains(big, small)


def test_contains_trivial():
    lat = diag_monomial_lattice(K1, [-1])
    assert lattice_contains(lat, lat)
    assert lattice_contains(lat, standard_lattice(K1, 1))  # t O <= t^-1 O


def test_rank_zero_has_one_lattice():
    # lattice equality is data equality, and containment reads lo
    k0 = TateSpace(F5, 0)
    a, b = standard_lattice(k0, 3), standard_lattice(k0, -1)
    assert a == b == lattice_normalize(k0, -2, 5, [])
    assert lattice_contains(a, b) and lattice_contains(b, a)


def test_contains_nonexample():
    # span{(t^-1, t^-1)} + t O^2 is not inside O^2
    lat = lattice_normalize(K2, -1, 1, [[1, 1, 0, 0]])
    assert not lattice_contains(standard_lattice(K2), lat)


def test_meet_join_componentwise_oracle():
    a = diag_monomial_lattice(K2, [-1, 0])
    b = diag_monomial_lattice(K2, [0, -1])
    assert lattice_meet(a, b) == standard_lattice(K2)
    assert lattice_join(a, b) == diag_monomial_lattice(K2, [-1, -1])


def test_meet_absorption():
    a = lattice_normalize(K1, -1, 1, [[1, 1]])
    deep = standard_lattice(K1, 5)
    assert lattice_meet(a, deep) == deep
    assert lattice_join(a, deep) == a


def test_relative_index_monomial_count():
    assert relative_index(standard_lattice(K1, -2), standard_lattice(K1)) == 2
    lat = standard_lattice(K1)
    assert relative_index(lat, lat) == 0
    a = diag_monomial_lattice(K2, [0, 1])
    b = diag_monomial_lattice(K2, [-1, 0])
    assert relative_index(a, b) == -2


def test_index_cocycle_randomized():
    rng = random.Random(17)
    for _ in range(100):
        lats = []
        for _ in range(3):
            lo = rng.randint(-2, 0)
            hi = rng.randint(0, 2)
            width = (hi - lo) * 2
            rows = [[rng.randrange(5) for _ in range(width)]
                    for _ in range(rng.randint(0, width))]
            lats.append(lattice_normalize(K2, lo, hi, rows))
        a, b, c = lats
        assert (relative_index(a, b) + relative_index(b, c)
                == relative_index(a, c))


def test_modular_law_exhaustive_f2():
    # dim(a / a n b) == dim(a + b / b), all subspace pairs of one window
    space = TateSpace(F2, 2)
    from satokit.exactlin import all_subspaces
    window_subs = all_subspaces(F2, 4)  # window [-1, 1) of rank 2
    lats = [lattice_normalize(space, -1, 1, s.rows) for s in window_subs]
    lats = sorted(set(lats), key=lambda l: (l.lo, l.hi, l.rows))
    for a in lats:
        for b in lats:
            m = lattice_meet(a, b)
            j = lattice_join(a, b)
            assert (relative_index(a, m) == relative_index(j, b))


# --- short exact sequences ----------------------------------------------

def test_split_ses_valid():
    ses = split_tate_ses(F5, 1, 1)
    assert ses.sub_space.rank == 1 and ses.quot_space.rank == 1


def test_iso_ses_with_zero_quotient():
    t = LaurentPoly.t_power(F5, 1)
    i = LaurentMatrix(F5, [[t]])
    j = LaurentMatrix(F5, [[]], ncols=0)
    ses = TateSES(i, j)
    assert ses.quot_space.rank == 0


def test_ses_composite_nonzero():
    one = LaurentPoly.one(F5)
    z = LaurentPoly.zero(F5)
    i = LaurentMatrix(F5, [[one, z]])
    j = LaurentMatrix(F5, [[one], [z]])
    assert _diagnosis(i, j) == "composite-nonzero"
    with pytest.raises(TateSESInvalid):
        TateSES(i, j)


def test_ses_rank_deficiency():
    z = LaurentPoly.zero(F5)
    one = LaurentPoly.one(F5)
    i = LaurentMatrix(F5, [[z, z]])
    j = LaurentMatrix(F5, [[z], [one]])
    assert _diagnosis(i, j) == "not-mono"


# --- lift / project ------------------------------------------------------

def test_lift_coordinate_embedding():
    ses = split_tate_ses(F5, 1, 1)
    u = diag_monomial_lattice(K2, [-1, 2])
    assert lift_lattice(ses, u) == standard_lattice(K1, -1)


def test_lift_multiplication_by_t():
    t = LaurentPoly.t_power(F5, 1)
    i = LaurentMatrix(F5, [[t]])
    j = LaurentMatrix(F5, [[]], ncols=0)
    ses = TateSES(i, j)
    assert lift_lattice(ses, standard_lattice(K1)) == \
        standard_lattice(K1, -1)


def test_lift_identity():
    one = LaurentPoly.one(F5)
    i = LaurentMatrix(F5, [[one]])
    j = LaurentMatrix(F5, [[]], ncols=0)
    ses = TateSES(i, j)
    u = lattice_normalize(K1, -1, 1, [[1, 1]])
    assert lift_lattice(ses, u) == u


def test_project_coordinate():
    ses = split_tate_ses(F5, 1, 1)
    u = diag_monomial_lattice(K2, [-1, 2])
    assert project_lattice(ses, u) == standard_lattice(K1, 2)


def test_project_iso_shift():
    t = LaurentPoly.t_power(F5, 1)
    i = LaurentMatrix(F5, [], ncols=1)
    # 0 -> k((t)) --t--> k((t)) -> ... use a rank-0 source
    z_i = LaurentMatrix(F5, [], ncols=1)
    j = LaurentMatrix(F5, [[t]])
    ses = TateSES(z_i, j)
    assert project_lattice(ses, standard_lattice(K1)) == \
        standard_lattice(K1, 1)


def test_project_rank0_target():
    t = LaurentPoly.t_power(F5, 1)
    i = LaurentMatrix(F5, [[t]])
    j = LaurentMatrix(F5, [[]], ncols=0)
    ses = TateSES(i, j)
    out = project_lattice(ses, standard_lattice(K1))
    assert out.space.rank == 0


def _random_automorphism(rng, field, n, n_factors=2, emax=2):
    """Product of elementary Laurent matrices, with its exact inverse."""
    one = LaurentPoly.one(field)
    z = LaurentPoly.zero(field)

    def identity_rows():
        return [[one if i == j else z for j in range(n)] for i in range(n)]

    mats = []
    invs = []
    for _ in range(n_factors):
        kind = rng.random()
        rows = identity_rows()
        inv = identity_rows()
        if n >= 2 and kind < 0.7:
            i, j = rng.sample(range(n), 2)
            p = LaurentPoly(field, [(rng.randint(-emax, emax),
                                     rng.randrange(1, field.p))])
            rows[i][j] = p
            inv[i][j] = p.neg()
        else:
            i = rng.randrange(n)
            e = rng.randint(-emax, emax)
            c = rng.randrange(1, field.p)
            rows[i][i] = LaurentPoly(field, [(e, c)])
            inv[i][i] = LaurentPoly(field, [(-e, field.inv(c))])
        mats.append(LaurentMatrix(field, rows, n))
        invs.append(LaurentMatrix(field, inv, n))
    aut = mats[0]
    for m in mats[1:]:
        aut = aut.mul(m)
    aut_inv = invs[-1]
    for m in reversed(invs[:-1]):
        aut_inv = aut_inv.mul(m)
    return aut, aut_inv


def _random_lattice(rng, space, bound=1):
    lo = rng.randint(-bound, 0)
    hi = rng.randint(0, bound)
    width = (hi - lo) * space.rank
    rows = [[rng.randrange(space.field.p) for _ in range(width)]
            for _ in range(rng.randint(0, width))]
    return lattice_normalize(space, lo, hi, rows)


def test_lift_project_exactness_randomized():
    rng = random.Random(23)
    for _ in range(40):
        a, c = rng.randint(1, 2), rng.randint(1, 2)
        aut, aut_inv = _random_automorphism(rng, F5, a + c)
        ses = twisted_split(aut, aut_inv, a)
        space = ses.total_space
        u = _random_lattice(rng, space)
        u0 = _random_lattice(rng, space)
        lhs = relative_index(u, u0)
        rhs = (relative_index(lift_lattice(ses, u), lift_lattice(ses, u0))
               + relative_index(project_lattice(ses, u),
                                project_lattice(ses, u0)))
        assert lhs == rhs


def test_lift_pullback_property():
    # lift is the genuine preimage: i(lift(u)) = i(X') n u as subspaces,
    # checked by indexes against the meet computed independently
    rng = random.Random(29)
    for _ in range(20):
        aut, aut_inv = _random_automorphism(rng, F2, 2)
        ses = twisted_split(aut, aut_inv, 1)
        u = _random_lattice(rng, ses.total_space)
        v = lift_lattice(ses, u)
        # push v back through i and check it lands inside u
        for r in window_subspace(v, v.lo, v.hi + 1).rows:
            vec = laurent_vector_from_window(F2, 1, v.lo, r)
            img = apply_row(ses.i, vec)
            w = lattice_join(
                u, lattice_normalize(
                    ses.total_space, min(u.lo, v.lo + (ses.i.min_valuation())),
                    u.hi,
                    [window_coords_of_laurent(
                        F2, 2, min(u.lo, v.lo + ses.i.min_valuation()),
                        u.hi, img)]))
        assert lattice_contains(u, w) and lattice_contains(w, u)


# --- grid and induced finite SES ----------------------------------------

def _singleton_lattice(space, vec, lo, hi):
    """span{vec} + t^hi O^n presented in the window [lo, hi)."""
    row = window_coords_of_laurent(space.field, space.rank, lo, hi, vec)
    return lattice_normalize(space, lo, hi, [row])


def test_lift_against_brute_force_preimage():
    # independent oracle: enumerate every polynomial vector supported on a
    # window one level wider than the computed bounds, keep those whose
    # image lands in u, and compare spans
    from satokit.exactlin import all_vectors
    rng = random.Random(47)
    space2 = TateSpace(F2, 2)
    space1 = TateSpace(F2, 1)
    for trial in range(12):
        aut, aut_inv = _random_automorphism(rng, F2, 2, n_factors=1, emax=1)
        ses = twisted_split(aut, aut_inv, 1)
        u = _rand_lat(rng, space2, bound=1)
        got = lift_lattice(ses, u)
        LO, HI = got.lo - 1, got.hi + 1
        img_lo = min(u.lo, LO + ses.i.min_valuation())
        members = []
        for v in all_vectors(F2, HI - LO):
            vec = laurent_vector_from_window(F2, 1, LO, v)
            img = apply_row(ses.i, vec)
            img_lat = _singleton_lattice(space2, img, img_lo, u.hi)
            if lattice_contains(u, img_lat):
                members.append(v)
        oracle = lattice_normalize(space1, LO, HI, members)
        assert oracle == got, (trial, oracle, got)


def _rational_automorphism(rng, n, emax=2):
    """The elementary factors of verify.rand_automorphism over Q."""
    one, z = LaurentPoly.one(QQ), LaurentPoly.zero(QQ)
    aut = aut_inv = LaurentMatrix.identity(QQ, n)
    for _ in range(2):
        rows = [[one if r == c else z for c in range(n)] for r in range(n)]
        inv = [list(r) for r in rows]
        e = rng.randint(-emax, emax)
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        if n >= 2 and rng.random() < 0.75:
            r, s = rng.sample(range(n), 2)
            rows[r][s] = LaurentPoly(QQ, [(e, c)])
            inv[r][s] = rows[r][s].neg()
        else:
            r = rng.randrange(n)
            rows[r][r] = LaurentPoly(QQ, [(e, c)])
            inv[r][r] = LaurentPoly(QQ, [(-e, 1 / c)])
        aut = aut.mul(LaurentMatrix(QQ, rows, n))
        aut_inv = LaurentMatrix(QQ, inv, n).mul(aut_inv)
    return aut, aut_inv


def _drawn_poly(data, field, terms=4):
    """A nonzero Laurent polynomial of at most `terms` terms, rarely a unit."""
    scalar = (st.fractions(-3, 3, max_denominator=3) if field.p is None
              else st.integers(0, field.p - 1))
    lo = data.draw(st.integers(-2, 1))
    coeffs = data.draw(st.lists(scalar, min_size=1, max_size=terms))
    p = LaurentPoly(field, [(lo + k, x) for k, x in enumerate(coeffs)])
    return p if p.terms else LaurentPoly.t_power(field, lo)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_lift_project_match_the_laurent_route(data):
    # twisted splits and generic sequences i = (x, y), j = (y; -x), whose
    # one-sided inverses carry a non-unit denominator unless x, y are
    # coprime units
    from satokit.verify import rand_automorphism
    field = data.draw(st.sampled_from([F2, F5, QQ]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    if data.draw(st.booleans()):
        a, c = rng.randint(1, 2), rng.randint(1, 2)
        aut = (_rational_automorphism(rng, a + c) if field is QQ
               else rand_automorphism(rng, field, a + c))
        ses = twisted_split(*aut, a)
    else:
        x, y = _drawn_poly(data, field), _drawn_poly(data, field)
        ses = TateSES(LaurentMatrix(field, [[x, y]]),
                      LaurentMatrix(field, [[y], [x.neg()]]))
    space = ses.total_space
    lo = data.draw(st.integers(-2, 1))
    hi = data.draw(st.integers(lo, 2))
    width = (hi - lo) * space.rank
    scalar = (st.fractions(-2, 2, max_denominator=2) if field.p is None
              else st.integers(0, field.p - 1))
    rows = data.draw(st.lists(st.lists(scalar, min_size=width,
                                       max_size=width), max_size=width))
    u = lattice_normalize(space, lo, hi, rows)
    assert lift_lattice(ses, u) == lift_by_laurent_rows(ses, u)
    assert project_lattice(ses, u) == project_by_laurent_rows(ses, u)


def test_project_against_brute_force_image():
    # independent oracle: push every element of u modulo t^W O^2 through j,
    # with W so deep that j(t^W O^2) lies in t^HI O and t^HI O in j(u), and
    # compare the span of the images in [LO, HI) with the computed lattice
    import itertools
    rng = random.Random(59)
    space2 = TateSpace(F2, 2)
    space1 = TateSpace(F2, 1)
    for trial in range(12):
        aut, aut_inv = _random_automorphism(rng, F2, 2, n_factors=1, emax=1)
        ses = twisted_split(aut, aut_inv, 1)
        u = _rand_lat(rng, space2, bound=1)
        got = project_lattice(ses, u)
        vmin = ses.j.min_valuation()
        # j(t^m s) = t^m, with s . j = 1 (a twisted split's lj is over
        # d = 1), so t^m O <= j(u) once t^m s <= u
        s, d = ses.lj
        assert d == LaurentPoly.one(F2)
        HI = max(got.hi, u.hi - s.min_valuation()) + 1
        LO = min(got.lo, u.lo + vmin) - 1
        W = HI - vmin
        basis = window_subspace(u, u.lo, W).rows
        images = []
        for pick in itertools.product((0, 1), repeat=len(basis)):
            v = [sum(r[q] for r, x in zip(basis, pick) if x) % 2
                 for q in range((W - u.lo) * 2)]
            img = apply_row(ses.j, laurent_vector_from_window(F2, 2, u.lo, v))
            images.append(window_coords_of_laurent(F2, 1, LO, HI, img))
        oracle = lattice_normalize(space1, LO, HI, images)
        assert oracle == got, (trial, oracle, got)


def test_window_row_cancels_below_the_window():
    # the escape check reads the summed row, not its terms
    from satokit.exactlin import _row_out
    from satokit.tate import _stencil, _window_row
    one, t = LaurentPoly.one(F5), LaurentPoly.t_power(F5, 1)
    ses = TateSES(LaurentMatrix(F5, [[one.add(t), one.neg()]]),
                  LaurentMatrix(F5, [[one], [one.add(t)]]))
    rows, vmin, _ = _stencil(ses, "j")
    assert vmin == 0 and rows == [[(0, 0, 1)], [(0, 0, 1), (1, 0, 1)]]

    def row(field, terms):  # the window row as a tuple of scalars
        return _row_out(field, _window_row(field, rows, 1, 0, 2, terms), 2)

    # t^-1 (1 + t) + 4 t^-1 = 1, in [0, 2)
    assert row(F5, [(1, -1, 1), (4, -1, 0)]) == (1, 0)
    # t (1 + t), cut at t^2
    assert row(F5, [(1, 1, 1)]) == (0, 1)
    with pytest.raises(ValueError, match="escapes the window at t\\^-1"):
        _window_row(F5, rows, 1, 0, 2, [(1, -1, 1)])
    with pytest.raises(ValueError, match="escapes the window at t\\^-2"):
        _window_row(F2, rows, 1, 0, 2, [(1, -1, 1), (1, -1, 0), (1, -2, 0)])
    assert _window_row(F2, rows, 1, 0, 2, [(1, -1, 1), (1, -1, 0)]) == 1


def test_delta_scalar_matches_interleave_sign_oracle():
    # the canonical connecting scalar in echelon bases is the sign of the
    # pivot interleave: (-1)^#{(p, q) : p pivot of u, q pivot gained by v,
    # q before p}, against an even-depth reference window
    rng = random.Random(53)
    for _ in range(40):
        field = F5 if rng.random() < 0.5 else F2
        space = TateSpace(field, rng.randint(1, 2))
        u = _rand_lat(rng, space)
        v = lattice_join(u, _rand_lat(rng, space))
        m = max(u.hi, v.hi)
        depth = m + (m & 1)
        LO = min(u.lo, v.lo)
        u_rows = window_subspace(u, LO, depth).rows
        v_rows = window_subspace(v, LO, depth).rows
        p_u = [next(j for j, y in enumerate(r) if y != 0) for r in u_rows]
        p_v = [next(j for j, y in enumerate(r) if y != 0) for r in v_rows]
        gained = [q for q in p_v if q not in p_u]
        inversions = sum(1 for p in p_u for q in gained if q < p)
        want = field.normalize(-1) if inversions % 2 else field.one()
        assert delta_scalar_canonical(u, v) == want


def _rand_lat(rng, space, bound=2):
    lo = rng.randint(-bound, 0)
    hi = rng.randint(0, bound)
    width = (hi - lo) * space.rank
    p = space.field.p
    rows = [[rng.randrange(p) for _ in range(width)]
            for _ in range(rng.randint(0, width))]
    return lattice_normalize(space, lo, hi, rows)


def _fd_dims(fd):
    return (fd.sub.dim, fd.total.dim, fd.quot.dim)


def test_fd_ses_of_pair_split():
    ses = split_tate_ses(F5, 1, 1)
    u = standard_lattice(K2)
    u_sub = diag_monomial_lattice(K2, [1, 0])
    fd, (lifts, projs) = fd_ses_of_pair(ses, u_sub, u)
    assert lifts == (standard_lattice(K1, 1), standard_lattice(K1))
    assert projs == (standard_lattice(K1), standard_lattice(K1))
    assert _fd_dims(fd) == (1, 1, 0)


def test_fd_ses_of_pair_trivial():
    ses = split_tate_ses(F5, 1, 1)
    u = standard_lattice(K2)
    fd, _ = fd_ses_of_pair(ses, u, u)
    assert _fd_dims(fd) == (0, 0, 0)


def test_fd_ses_of_pair_shift_invariance():
    ses = split_tate_ses(F5, 1, 1)
    for shift in (-2, 0, 3):
        u = diag_monomial_lattice(K2, [shift, shift])
        u_sub = diag_monomial_lattice(K2, [shift + 1, shift])
        fd, _ = fd_ses_of_pair(ses, u_sub, u)
        assert _fd_dims(fd) == (1, 1, 0)


def test_fd_ses_of_pair_rejects_non_nested(monkeypatch):
    # u/u' is built first, so the refusal comes before any lift or projection
    import satokit.tate
    ses = split_tate_ses(F5, 1, 1)
    u = standard_lattice(K2)
    u_big = diag_monomial_lattice(K2, [-1, 0])
    calls = _counting(monkeypatch, satokit.tate,
                      ["lift_lattice", "project_lattice"])
    with pytest.raises(ValueError):
        fd_ses_of_pair(ses, u_big, u)
    assert calls == {}


def test_fd_ses_of_pair_validates():
    rng = random.Random(31)
    for _ in range(10):
        aut, aut_inv = _random_automorphism(rng, F5, 2)
        ses = twisted_split(aut, aut_inv, 1)
        u = _random_lattice(rng, ses.total_space)
        u_sub = lattice_meet(u, standard_lattice(ses.total_space, 1))
        fd, (lifts, projs) = fd_ses_of_pair(ses, u_sub, u)
        assert fd.sub.dim + fd.quot.dim == fd.total.dim
        assert _fd_dims(fd) == (relative_index(lifts[1], lifts[0]),
                                relative_index(u, u_sub),
                                relative_index(projs[1], projs[0]))


def test_fd_ses_of_pair_tests_each_nesting_once(monkeypatch):
    # u' <= u, lift u' <= lift u and proj u' <= proj u are each tested once,
    # by the quotient that needs it, and a nesting 0 <= X or X <= k^n not
    # at all: 34 tests of the 60 quotients (38 while a quotient of the
    # whole window tested it too, 60 while a quotient over 0 did)
    from satokit.verify import TwistedChain, rand_lattice
    rng = random.Random(7)
    cases = []
    for _ in range(20):
        chain = TwistedChain(rng, F5, 2, 3, 4)
        u, v = (rand_lattice(rng, chain.total, bound=2) for _ in range(2))
        cases.append((chain.ses13, lattice_meet(u, v), u))
    calls = _counting(monkeypatch, Subspace, ["contains"])
    for ses, u_sub, u in cases:
        fd_ses_of_pair(ses, u_sub, u)
    assert calls == {"contains": 34}


# --- canonical lambda / delta scalars ------------------------------------

def test_lambda_chain_cocycle():
    rng = random.Random(37)
    for _ in range(25):
        lats = sorted((_random_lattice(rng, K1, 2) for _ in range(4)),
                      key=lambda l: relative_index(l, standard_lattice(K1)))
        # build a nested chain by joining down
        a = lats[0]
        b = lattice_join(a, lats[1])
        c = lattice_join(b, lats[2])
        d = lattice_join(c, lats[3])
        lhs = K1.field.mul(lambda_scalar_chain(a, b, c),
                           lambda_scalar_chain(a, c, d))
        rhs = K1.field.mul(lambda_scalar_chain(b, c, d),
                           lambda_scalar_chain(a, b, d))
        assert lhs == rhs


def test_lambda_chain_reads_internal_rows(monkeypatch):
    # the scalar of each chain against the tuple route through lift and
    # coords, then no row is checked again: every row is internal already
    import satokit.exactlin
    from satokit.exactlin import Quotient
    from satokit.verify import rand_lattice
    rng = random.Random(3)
    chains = []
    for _ in range(20):
        a, x, y = (rand_lattice(rng, K2) for _ in range(3))
        b = lattice_join(a, x)
        chains.append((a, b, lattice_join(b, y)))
    want = []
    for a, b, c in chains:
        LO, HI = min(a.lo, b.lo, c.lo), max(a.hi, b.hi, c.hi)
        a_w, b_w, c_w = (window_subspace(z, LO, HI) for z in (a, b, c))
        ca = Quotient(a_w, c_w)
        rows = [ca.coords(q.lift(k)) for q in (Quotient(a_w, b_w),
                Quotient(b_w, c_w)) for k in range(q.dim)]
        want.append(Matrix(F5, rows, ca.dim).det())
    checked = satokit.exactlin._checked_rows
    calls = []

    def counted(field, rows):
        calls.append(1)
        return checked(field, rows)

    monkeypatch.setattr(satokit.exactlin, "_checked_rows", counted)
    assert [lambda_scalar_chain(a, b, c) for a, b, c in chains] == want
    assert calls == []


def test_lambda_chain_refuses_chains_that_are_not_nested():
    # on the 20 chains above, swapping two strictly nested lattices breaks
    # a <= b or b <= c, and a Quotient refuses it
    from satokit.verify import rand_lattice
    rng = random.Random(3)
    chains = []
    for _ in range(20):
        a, x, y = (rand_lattice(rng, K2) for _ in range(3))
        b = lattice_join(a, x)
        chains.append((a, b, lattice_join(b, y)))
    strict = [(a, b, c) for a, b, c in chains if a != b != c]
    assert strict
    for a, b, c in strict:
        for bad in ((b, a, c), (a, c, b)):
            with pytest.raises(ValueError, match="requires containment"):
                lambda_scalar_chain(*bad)


def test_delta_canonical_monomial_is_one():
    u = standard_lattice(K1)
    v = standard_lattice(K1, -1)
    assert delta_scalar_canonical(u, v) == 1


def test_delta_cocycle():
    rng = random.Random(41)
    f = K1.field
    for _ in range(25):
        raw = [_random_lattice(rng, K1, 2) for _ in range(3)]
        u = raw[0]
        v = lattice_join(u, raw[1])
        w = lattice_join(v, raw[2])
        lhs = f.mul(delta_scalar_canonical(v, w), delta_scalar_canonical(u, v))
        rhs = f.mul(delta_scalar_canonical(u, w), lambda_scalar_chain(u, v, w))
        assert lhs == rhs


def test_quotient_dim_matches_index():
    from satokit.tate import _lattice_quotient
    rng = random.Random(43)
    for _ in range(20):
        u = _random_lattice(rng, K2, 1)
        v = lattice_join(u, _random_lattice(rng, K2, 1))
        q = _lattice_quotient(u, v)[3]
        assert q.dim == relative_index(v, u)


def test_relative_index_closed_form_matches_window_count():
    # the definition: row counts of both lattices in their common window
    rng = random.Random(47)
    for field in (F2, F5):
        for rank in (1, 2, 3):
            space = TateSpace(field, rank)
            for _ in range(15):
                a, b = (_random_lattice(rng, space, 2) for _ in range(2))
                s = rng.randint(-4, 4)
                b = lattice_normalize(space, b.lo + s, b.hi + s,
                                      window_subspace(b, b.lo, b.hi).rows)
                LO, HI = min(a.lo, b.lo), max(a.hi, b.hi)
                assert relative_index(a, b) == (
                    len(window_subspace(a, LO, HI).rows)
                    - len(window_subspace(b, LO, HI).rows))


def _content_sequence(field):
    """i = (x, y), j = (y; -x) for x = 1 + t, y = t + t^2: both have content
    1 + t, so neither one-sided inverse is Laurent."""
    one, t = LaurentPoly.one(field), LaurentPoly.t_power(field, 1)
    x, y = one.add(t), t.add(t.mul(t))
    return TateSES(LaurentMatrix(field, [[x, y]]),
                   LaurentMatrix(field, [[y], [x.neg()]]))


def test_every_sequence_holds_its_verified_inverses():
    # seeded, unseeded and derived sequences all carry (N, d) pairs with
    # i . N = d . I and N . j = d . I, checked here by plain products; the
    # generic one has content 1 + t, so its d is not 1
    from satokit.verify import TwistedChain
    ch = TwistedChain(random.Random(4), F5, 1, 2, 3)
    z = LaurentPoly.zero(F5)
    generic = _content_sequence(F5)
    x = generic.i[0, 0]
    assert generic.ri[1] == x and generic.lj[1] == x
    for ses in (ch.ses12, ch.ses23, ch.ses13, ch.sesq, generic):
        for prod, (_, d) in ((ses.i.mul(ses.ri[0]), ses.ri),
                             (ses.lj[0].mul(ses.j), ses.lj)):
            n = prod.nrows
            assert prod == LaurentMatrix(F5, [[d if r == c else z
                                               for c in range(n)]
                                              for r in range(n)], n)


@pytest.mark.parametrize("field", [F2, F5])
def test_twisted_chain_sequences_pass_the_full_diagnosis(field):
    # TwistedChain proves full rank by its seeded inverses; the unseeded
    # construction, which computes them by echelon, must agree
    from satokit.verify import TwistedChain
    for seed in range(50):
        ch = TwistedChain(random.Random(seed), field, 1, 2, 3)
        for ses in (ch.ses12, ch.ses23, ch.ses13):
            assert _diagnosis(ses.i, ses.j) is None, seed


def _counting(monkeypatch, module, names):
    import collections
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_twisted_chain_runs_no_echelon(monkeypatch):
    # every sequence of a chain, the coordinate split sesq included, is
    # proven by its seeded inverses, so no rank echelon runs
    import satokit.laurent
    from satokit.verify import TwistedChain
    calls = _counting(monkeypatch, satokit.laurent, ["_echelon"])
    for seed in range(3):
        TwistedChain(random.Random(seed), F5, 1, 2, 3)
    assert calls == {}


def _counting_builds(monkeypatch, builders):
    """A Counter, by class name, of the values that the (class, method)
    pairs in builders construct while monkeypatch holds; "_raw" names the
    trusted classmethod, anything else an instance method."""
    import collections
    built = collections.Counter()

    def counted(cls, name):
        fn = getattr(cls, name)
        if name == "_raw":
            def wrapper(cls_, *args):
                built[cls.__name__] += 1
                return fn(*args)
            return classmethod(wrapper)

        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            return fn(self, *args, **kwargs)
        return wrapper

    for cls, name in builders:
        monkeypatch.setattr(cls, name, counted(cls, name))
    return built


_LAURENT_BUILDERS = [(cls, name) for cls in (LaurentMatrix, LaurentPoly)
                     for name in ("__init__", "_raw")]


def test_seeded_checks_build_no_laurent_values(monkeypatch):
    # a seeded TateSES checks i . ri = d, lj . j = e and i . j = 0 on the
    # product kernel's term tuples: it builds no LaurentMatrix and no
    # LaurentPoly, by the checking constructors or the trusted ones
    from satokit.verify import TwistedChain
    seqs = []
    for seed in range(3):
        for field in (F2, F5):
            chain = TwistedChain(random.Random(seed), field, 1, 2, 3)
            seqs += [(s.i, s.j, s.ri, s.lj) for s in (
                chain.ses12, chain.ses23, chain.ses13, chain.sesq)]
    built = _counting_builds(monkeypatch, _LAURENT_BUILDERS)
    for args in seqs:
        TateSES(*args)
    assert built == {}
    LaurentPoly.one(F5)
    assert built == {"LaurentPoly": 1}  # the counters see a build


def test_lift_and_project_build_no_space_or_laurent_value(monkeypatch):
    # a sequence keeps its three spaces and its stencils read the term rows,
    # so lift and project on a built sequence construct no TateSpace and no
    # LaurentPoly
    from satokit.verify import TwistedChain, rand_lattice
    work = []
    for seed in range(3):
        for field in (F2, F5):
            rng = random.Random(seed)
            chain = TwistedChain(rng, field, 1, 2, 3)
            for ses in (chain.ses12, chain.ses23, chain.ses13, chain.sesq):
                work += [(ses, rand_lattice(rng, ses.total_space, bound=1))
                         for _ in range(2)]
    built = _counting_builds(monkeypatch, [(LaurentPoly, "__init__"),
                                           (LaurentPoly, "_raw"),
                                           (TateSpace, "__init__")])
    for ses, u in work:
        assert lift_lattice(ses, u).space is ses.sub_space
        assert project_lattice(ses, u).space is ses.quot_space
    assert built == {}
    TateSpace(F5, 1)
    assert built == {"TateSpace": 1}  # the counters see a build


def test_rand_automorphism_builds_no_laurent_poly(monkeypatch):
    # the product and its inverse are built on term tuples, and only the two
    # matrices are wrapped
    from satokit.verify import rand_automorphism
    built = _counting_builds(monkeypatch, _LAURENT_BUILDERS)
    for seed in range(10):
        for field in (F2, F5):
            rand_automorphism(random.Random(seed), field, 3)
    assert built == {"LaurentMatrix": 40}


def test_chain_suites_run_no_echelon(monkeypatch):
    # the suites that build twisted chains, composites included, take every
    # one-sided inverse from a seed
    import satokit.laurent
    import satokit.verify
    calls = _counting(monkeypatch, satokit.laurent, ["_echelon"])
    assert satokit.verify.suite_lift_project(seed=0, trials=4).passed
    assert satokit.verify.suite_mu(seed=0, trials=4).passed
    assert calls == {}


# --- the quotient sequence of a filtration, by sections ----------------------

def _divided(m, d):
    """m / d entry by entry, for d dividing every entry in k[t, 1/t]."""
    v = d.val()
    d0 = d.shift(-v)
    rows = []
    for row in m.entries:
        out = []
        for x in row:
            if x.terms:
                q, r = poly_divmod(x.shift(-x.val()), d0)
                assert r.is_zero()
                x = q.shift(x.val() - v)
            out.append(x)
        rows.append(out)
    return LaurentMatrix(m.field, rows, m.ncols)


def _plus_one(m, k):
    """m (+) 1_k: the automorphism m with k more coordinates kept fixed."""
    one, z = LaurentPoly.one(m.field), LaurentPoly.zero(m.field)
    n = m.nrows + k
    return LaurentMatrix(m.field, [list(r) + [z] * k for r in m.entries]
                         + [[one if c == r else z for c in range(n)]
                            for r in range(m.nrows, n)], n)


def _block_twist(inner, outer, a1):
    """X1 >--> X3 of the filtration X1 c X2 c X3 twisted by inner = (A1,
    A1^-1) on X2 and outer = (A2, A2^-1) on X3: the split twisted by
    B = (A1 (+) 1) . A2, whose inverse is A2^-1 . (A1^-1 (+) 1)."""
    (A1, A1i), (A2, A2i) = inner, outer
    k = A2.nrows - A1.nrows
    return twisted_split(_plus_one(A1, k).mul(A2),
                         A2i.mul(_plus_one(A1i, k)), a1)


def _quotient_by_sections(ses_outer, ses_inner, ses_composed):
    """X2/X1 >--> X3/X1 -->> X3/X2 of a filtration, by its definition: the
    mono s12 . i23 . j13 and the epi s13 . j23 it induces, for left inverses
    s12 of j12 and s13 of j13 computed over unseeded sequences, each as N/d
    with the division by d exact."""
    outer = TateSES(ses_outer.i, ses_outer.j)
    inner = TateSES(ses_inner.i, ses_inner.j)
    composed = TateSES(ses_composed.i, ses_composed.j)
    s12, d12 = inner.lj
    s13, d13 = composed.lj
    return TateSES(_divided(s12.mul(outer.i).mul(composed.j), d12),
                   _divided(s13.mul(outer.j), d13))


@pytest.mark.parametrize("field", [F2, F5])
def test_quotient_of_a_filtration_is_the_coordinate_split(field):
    # X1 c X2 c X3 twisted by A1 on X2 and A2 on X3, with X1 c X3 built by
    # the block twist
    from satokit.verify import rand_automorphism
    rng = random.Random(61)
    for a2 in (2, 3):
        for c in (1, 2):
            for a1 in range(a2 + 1):
                for _ in range(4):
                    outer = rand_automorphism(rng, field, a2 + c)
                    inner = rand_automorphism(rng, field, a2)
                    q = _quotient_by_sections(
                        twisted_split(*outer, a2), twisted_split(*inner, a1),
                        _block_twist(inner, outer, a1))
                    want = split_tate_ses(field, a2 - a1, c)
                    assert (q.i, q.j) == (want.i, want.j), (a1, a2, c)
                    assert (q.ri, q.lj) == (want.ri, want.lj), (a1, a2, c)


# --- oracles for the sliced chain: products of elementary and selection
# matrices, as the chain was once built ---------------------------------------

def _automorphism_by_products(rng, field, n, n_factors=2, emax=2):
    """verify.rand_automorphism as a product of its elementary factors
    E1 . E2 ... and the product ... E2^-1 . E1^-1 of their inverses, with the
    same draws in the same order."""
    one, z = LaurentPoly.one(field), LaurentPoly.zero(field)
    aut = aut_inv = LaurentMatrix.identity(field, n)
    for _ in range(n_factors):
        rows = [[one if r == c else z for c in range(n)] for r in range(n)]
        inv = [list(r) for r in rows]
        if n >= 2 and rng.random() < 0.75:
            i, j = rng.sample(range(n), 2)
            p = LaurentPoly(field, [(rng.randint(-emax, emax),
                                     rng.randrange(1, field.p))])
            rows[i][j] = p
            inv[i][j] = p.neg()
        else:
            i = rng.randrange(n)
            e = rng.randint(-emax, emax)
            c = rng.randrange(1, field.p)
            rows[i][i] = LaurentPoly(field, [(e, c)])
            inv[i][i] = LaurentPoly(field, [(-e, field.inv(c))])
        aut = aut.mul(LaurentMatrix(field, rows, n))
        aut_inv = LaurentMatrix(field, inv, n).mul(aut_inv)
    return aut, aut_inv


def _selection(field, rows, cols, offset=0):
    """rows x cols matrix picking coordinates [offset, offset+rows)."""
    one, z = LaurentPoly.one(field), LaurentPoly.zero(field)
    return LaurentMatrix(field, [[one if c == r + offset else z
                                  for c in range(cols)]
                                 for r in range(rows)], cols)


def _split_unseeded(field, a, c):
    """The coordinate split with computed inverses, unseeded."""
    b = a + c
    return TateSES(_selection(field, a, b),
                   _selection(field, c, b, offset=a).transpose())


def _chain_by_selections(rng, field, a1, a2, a3, emax=2, n_factors=2):
    """(i, j, ri, lj) of ses12, ses23, ses13 and sesq of a TwistedChain drawn
    from rng, by selection products; sesq's inverses are computed."""
    A2, A2i = _automorphism_by_products(rng, field, a3, n_factors, emax)
    A1, A1i = _automorphism_by_products(rng, field, a2, n_factors, emax)
    P2 = _selection(field, a2, a3)
    Q2 = _selection(field, a3 - a2, a3, offset=a2).transpose()
    P1 = _selection(field, a1, a2)
    Q1 = _selection(field, a2 - a1, a2, offset=a1).transpose()
    i23, j23 = P2.mul(A2), A2i.mul(Q2)
    i12, j12 = P1.mul(A1), A1i.mul(Q1)
    ri23, lj23 = A2i.mul(P2.transpose()), Q2.transpose().mul(A2)
    ri12, lj12 = A1i.mul(P1.transpose()), Q1.transpose().mul(A1)
    j13_left = ri23.mul(j12)
    j13 = LaurentMatrix(field, [l + r for l, r in
                                zip(j13_left.entries, j23.entries)], a3 - a1)
    lj13 = LaurentMatrix(field, lj12.mul(i23).entries + lj23.entries, a3)
    q = _split_unseeded(field, a2 - a1, a3 - a2)
    return {"ses12": (i12, j12, ri12, lj12),
            "ses23": (i23, j23, ri23, lj23),
            "ses13": (i12.mul(i23), j13, ri23.mul(ri12), lj13),
            "sesq": (q.i, q.j, q.ri[0], q.lj[0])}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F2, F5]), st.integers(1, 4), st.integers(0, 3),
       st.integers(0, 2), st.integers(0, 10 ** 6))
def test_rand_automorphism_matches_the_product_of_its_factors(
        field, n, n_factors, emax, seed):
    from satokit.verify import rand_automorphism
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    got = rand_automorphism(rng, field, n, n_factors, emax)
    want = _automorphism_by_products(oracle_rng, field, n, n_factors, emax)
    assert got == want
    assert rng.getstate() == oracle_rng.getstate()
    assert got[0].mul(got[1]) == LaurentMatrix.identity(field, n)


def _automorphism_by_polys(rng, field, n, n_factors=2, emax=2):
    """verify.rand_automorphism on LaurentPoly entries, by add, sub and
    _times, as it was once built, with the same draws in the same order."""
    one = LaurentPoly.one(field)
    z = LaurentPoly.zero(field)
    aut = [[one if i == j else z for j in range(n)] for i in range(n)]
    inv = [list(r) for r in aut]
    for _ in range(n_factors):
        if n >= 2 and rng.random() < 0.75:
            i, j = rng.sample(range(n), 2)
            e, c = rng.randint(-emax, emax), rng.randrange(1, field.p)
            for r in aut:
                if r[i].terms:
                    r[j] = r[j].add(r[i]._times(e, c))
            inv[i] = [x.sub(y._times(e, c)) if y.terms else x
                      for x, y in zip(inv[i], inv[j])]
        else:
            i = rng.randrange(n)
            e, c = rng.randint(-emax, emax), rng.randrange(1, field.p)
            for r in aut:
                r[i] = r[i]._times(e, c)
            inv[i] = [x._times(-e, field.inv(c)) for x in inv[i]]
    return LaurentMatrix(field, aut, n), LaurentMatrix(field, inv, n)


@pytest.mark.parametrize("field", [F2, Field(3), F5], ids=["F2", "F3", "F5"])
def test_rand_automorphism_on_term_tuples_matches_the_poly_construction(
        field):
    from satokit.verify import rand_automorphism
    for seed in range(50):
        for n in range(1, 5):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = rand_automorphism(rng, field, n, 4, 3)
            assert got == _automorphism_by_polys(oracle_rng, field, n, 4, 3)
            assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("field", [F2, F5, Field(7)],
                         ids=["F2", "F5", "F7"])
@pytest.mark.parametrize("dims", [(1, 2, 3), (0, 1, 2), (1, 1, 2),
                                  (0, 2, 3), (2, 2, 4), (1, 3, 3),
                                  (2, 3, 5)])
def test_twisted_chain_matches_the_selection_products(field, dims):
    from satokit.verify import TwistedChain
    for seed in range(50):
        ch = TwistedChain(random.Random(seed), field, *dims)
        want = _chain_by_selections(random.Random(seed), field, *dims)
        for name, (i, j, ri, lj) in want.items():
            ses = getattr(ch, name)
            assert (ses.i, ses.j) == (i, j), (seed, name)
            one = LaurentPoly.one(field)
            assert ses.ri == (ri, one), (seed, name)
            assert ses.lj == (lj, one), (seed, name)


@pytest.mark.parametrize("field", [F2, F5], ids=["F2", "F5"])
@pytest.mark.parametrize("dims", [(0, 0, 1), (0, 2, 2), (2, 2, 2)])
def test_twisted_chain_with_an_empty_step_lifts_and_projects(field, dims):
    # X1 = 0, X1 = X2 or X2 = X3: the empty automorphism of k((t))^0 is
    # drawn with no draw, and every sequence of the chain lifts and projects
    # as the Laurent-row oracles do
    from satokit.verify import TwistedChain, rand_automorphism, rand_lattice
    rng = random.Random(5)
    state = rng.getstate()
    empty = LaurentMatrix(field, [], 0)
    assert rand_automorphism(rng, field, 0) == (empty, empty)
    assert rng.getstate() == state
    for _ in range(10):
        ch = TwistedChain(rng, field, *dims)
        for name in ("ses12", "ses23", "ses13", "sesq"):
            ses = getattr(ch, name)
            u = rand_lattice(rng, ses.total_space)
            assert lift_lattice(ses, u) == lift_by_laurent_rows(ses, u)
            assert project_lattice(ses, u) == project_by_laurent_rows(ses, u)


@pytest.mark.parametrize("dims", [(2, 1, 3), (1, 3, 2), (-1, 1, 2)])
def test_twisted_chain_refuses_dimensions_that_are_not_a_filtration(dims):
    from satokit.verify import TwistedChain
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"\(%d, %d, %d\) are not" % dims):
        TwistedChain(rng, F5, *dims)
    assert rng.getstate() == state  # refused before any draw


@pytest.mark.parametrize("field", [F2, F5], ids=["F2", "F5"])
@pytest.mark.parametrize("d", [50, 100, 200])
def test_twisted_pair_lifts_and_projects_to_O(field, d):
    # i = (1 + t, -t^d), j = (t^d; 1 + t) over O^2: the one-sided inverses
    # have poles of order about d, so each window is about d levels wide
    one_t = LaurentPoly(field, {0: 1, 1: 1})
    ses = TateSES(LaurentMatrix(field, [[one_t, LaurentPoly(field, {d: -1})]]),
                  LaurentMatrix(field, [[LaurentPoly(field, {d: 1})],
                                        [one_t]]))
    u = standard_lattice(TateSpace(field, 2))
    assert lift_lattice(ses, u) == standard_lattice(TateSpace(field, 1))
    assert project_lattice(ses, u) == standard_lattice(TateSpace(field, 1))


@pytest.mark.parametrize("field", [F2, F5, Field(7), QQ],
                         ids=["F2", "F5", "F7", "Q"])
def test_twisted_split_is_the_twist_formula(field):
    # i = P . A, j = A^-1 . Q, ri = A^-1 . P^T and lj = Q^T . A for the
    # selections P of the first a and Q of the last n - a coordinates
    from satokit.verify import rand_automorphism
    rng = random.Random(73)
    one = LaurentPoly.one(field)
    for n in range(1, 5):
        for _ in range(10):
            aut, aut_inv = (_rational_automorphism(rng, n) if field is QQ
                            else rand_automorphism(rng, field, n))
            for a in range(n + 1):
                P = _selection(field, a, n)
                Q = _selection(field, n - a, n, offset=a).transpose()
                ses = twisted_split(aut, aut_inv, a)
                assert (ses.i, ses.j) == (P.mul(aut), aut_inv.mul(Q)), (n, a)
                assert ses.ri == (aut_inv.mul(P.transpose()), one), (n, a)
                assert ses.lj == (Q.transpose().mul(aut), one), (n, a)


@pytest.mark.parametrize("field", [F2, F5])
def test_split_tate_ses_is_seeded_without_an_echelon(monkeypatch, field):
    import satokit.laurent
    from satokit.verify import rand_automorphism
    rng = random.Random(67)
    for a in range(4):
        for c in range(4):
            want = _split_unseeded(field, a, c)
            calls = _counting(monkeypatch, satokit.laurent, ["_echelon"])
            ses = split_tate_ses(field, a, c)
            assert not calls, (a, c)
            monkeypatch.undo()
            assert (ses.i, ses.j) == (want.i, want.j), (a, c)
            assert ses.ri == want.ri
            assert ses.lj == want.lj
            assert _diagnosis(ses.i, ses.j) is None, (a, c)
    # twisted splits take their inverses from the automorphism's blocks
    for a in (1, 2):
        for c in (1, 2):
            aut = rand_automorphism(rng, field, a + c)
            inner_aut = rand_automorphism(rng, field, a)
            calls = _counting(monkeypatch, satokit.laurent, ["_echelon"])
            twisted_split(*aut, a)
            twisted_split(*inner_aut, 1)
            assert not calls, (a, c)
            monkeypatch.undo()


def test_seeded_tate_ses_refuses_inexact_data():
    one, z = LaurentPoly.one(F5), LaurentPoly.zero(F5)
    i = LaurentMatrix(F5, [[one, z]])
    with pytest.raises(TateSESInvalid, match="composite-nonzero"):
        TateSES(i, LaurentMatrix(F5, [[one], [one]]), (i.transpose(), one),
                (LaurentMatrix(F5, [[z, one]]), one))
    # i . j = 0 and both inverses hold, but 1 + 0 != 2
    j0 = LaurentMatrix(F5, [[], []], ncols=0)
    with pytest.raises(TateSESInvalid, match="inexact-at-middle"):
        TateSES(i, j0, (i.transpose(), one), (j0.transpose(), one))
    with pytest.raises(ValueError, match="seeded right inverse"):
        TateSES(i, LaurentMatrix(F5, [[z], [one]]),
                (LaurentMatrix(F5, [[z], [one]]), one),
                (LaurentMatrix(F5, [[z, one]]), one))


def test_seeded_tate_ses_refuses_a_seed_that_is_no_pair():
    # a bare matrix or a 1-tuple is refused by name, before any indexing
    ses = split_tate_ses(F5, 1, 1)
    (ri, di), (lj, dj) = ses.ri, ses.lj
    for seeds, name in ((dict(ri=ri), "ri"), (dict(ri=(ri,)), "ri"),
                        (dict(lj=lj), "lj"), (dict(lj=(lj,)), "lj"),
                        (dict(ri=(ri, di), lj=[lj, dj]), "lj")):
        with pytest.raises(ValueError, match="seed %s is not an \\(N, d\\) "
                           "pair" % name):
            TateSES(ses.i, ses.j, **seeds)


def test_suite_lift_project_lifts_four_and_projects_three(monkeypatch):
    # per trial: lift and project of u and u0 along ses13, sharing the
    # projection of u with the lift along sesq, and one project of a lift
    import satokit.verify
    calls = _counting(monkeypatch, satokit.verify,
                      ["lift_lattice", "project_lattice"])
    assert satokit.verify.suite_lift_project(seed=5, trials=3).passed
    assert calls == {"lift_lattice": 12, "project_lattice": 9}


def test_twisted_splits_have_polynomial_one_sided_inverses():
    # a twisted coordinate split always has Laurent one-sided inverses, and
    # the unseeded right_inverse/left_inverse must find them
    from satokit.verify import rand_automorphism
    for seed in range(300):
        rng = random.Random(seed)
        for trial in range(4):
            k = (F5, F2)[trial % 2]
            a, c = rng.randint(1, 2), rng.randint(1, 2)
            twisted = twisted_split(*rand_automorphism(rng, k, a + c), a)
            ses = TateSES(twisted.i, twisted.j)
            witness = (seed, trial, k, a, c)
            (r, dr), (s, ds) = ses.ri, ses.lj
            assert dr == ds == LaurentPoly.one(k), witness
            assert ses.i.mul(r) == LaurentMatrix.identity(k, a), witness
            assert s.mul(ses.j) == LaurentMatrix.identity(k, c), witness


# --- data read once per sequence ---------------------------------------------

def test_stencil_holds_the_pole_orders_of_the_inverses():
    # the stencil of i (of j) keeps N.min_valuation() - d.val() for ri (lj),
    # the bound each lift (project) reads
    from satokit.tate import _stencil
    from satokit.verify import TwistedChain
    rng = random.Random(67)
    t2 = LaurentPoly.t_power(QQ, 2, 3)
    split = split_tate_ses(QQ, 1, 1)
    scaled = TateSES(split.i, split.j,
                     (split.ri[0].mul(LaurentMatrix(QQ, [[t2]])), t2))
    seqs = [_content_sequence(QQ), scaled,
            twisted_split(*_rational_automorphism(rng, 3), 1)]
    for field in (F2, F5):
        for _ in range(10):
            ch = TwistedChain(rng, field, 1, 2, 3)
            seqs += [ch.ses12, ch.ses23, ch.ses13, ch.sesq]
    for ses in seqs:
        for name, (n, d) in (("i", ses.ri), ("j", ses.lj)):
            _, vmin, pole = _stencil(ses, name)
            assert vmin == getattr(ses, name).min_valuation()
            assert pole == n.min_valuation() - d.val()
    assert _stencil(scaled, "i")[2] == 0


def test_empty_windows_run_no_elimination(monkeypatch):
    # when u.hi - vmin_i == u.lo + vmin_b the sandwich bounds of the lift
    # meet, and it is t^LO O^a, returned before any window is built or
    # reduced; so is the projection when u.hi - vmin_c == u.lo + vmin_j
    import satokit.exactlin
    import satokit.tate
    from satokit.tate import _stencil
    from satokit.verify import TwistedChain
    rng = random.Random(71)
    split = split_tate_ses(QQ, 1, 1)
    cases = [(lift_lattice, lift_by_laurent_rows, split,
              standard_lattice(split.total_space, s)) for s in (-2, 0, 3)]
    for trial in range(200):
        ch = TwistedChain(rng, F2 if trial % 2 else F5, 1, 2, 3)
        u = _random_lattice(rng, ch.total)
        for ses in (ch.ses13, ch.ses23):
            _, vmin_i, vmin_b = _stencil(ses, "i")
            if u.hi - vmin_i == u.lo + vmin_b:
                cases.append((lift_lattice, lift_by_laurent_rows, ses, u))
            _, vmin_j, vmin_c = _stencil(ses, "j")
            if u.hi - vmin_c == u.lo + vmin_j:
                cases.append((project_lattice, project_by_laurent_rows,
                              ses, u))
    assert sum(fn is lift_lattice for fn, *_ in cases) > 20
    assert sum(fn is project_lattice for fn, *_ in cases) > 10
    wants = [oracle(ses, u) for _, oracle, ses, u in cases]
    calls = _counting(monkeypatch, satokit.exactlin, ["_rref"])
    monkeypatch.setattr(satokit.tate, "_rref", satokit.exactlin._rref)
    for (fn, _, ses, u), want in zip(cases, wants):
        assert fn(ses, u) == want
        assert want.lo == want.hi
    assert calls == {}


def test_twisted_chains_share_one_verified_split(monkeypatch):
    # split_tate_ses is memoized: the second chain's sesq is the first's,
    # so only its own three sequences check their two inverses each
    import satokit.tate
    from satokit.verify import TwistedChain
    verify_one_sided, calls = satokit.tate._verify_one_sided, []

    def counted(*args, **kwargs):
        calls.append(kwargs["left"])
        return verify_one_sided(*args, **kwargs)

    monkeypatch.setattr(satokit.tate, "_verify_one_sided", counted)
    split_tate_ses.cache_clear()
    first = TwistedChain(random.Random(1), F5, 1, 2, 3)
    assert len(calls) == 8
    second = TwistedChain(random.Random(2), F5, 1, 2, 3)
    assert len(calls) == 14
    assert second.sesq is first.sesq
    assert first.sesq == split_tate_ses(F5, 1, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lane_rows_give_the_lattices_of_tuple_rows(p):
    # F3..F13 keep byte-lane rows; the same calls on tuple rows must give
    # the same lattices, scalars and maps
    from unittest import mock
    import satokit.exactlin
    from satokit import verify
    from satokit.exactlin import Field

    def results():
        # lattices by (lo, hi, rows): == compares the stored rows, whose
        # forms differ
        rng, out = random.Random(p), []
        for _ in range(4):
            chain = verify.TwistedChain(rng, Field(p), 2, 3, 4)
            ses = chain.ses13
            u, v = (verify.rand_lattice(rng, chain.total, bound=2)
                    for _ in range(2))
            meet, join = lattice_meet(u, v), lattice_join(u, v)
            fd, _ = fd_ses_of_pair(ses, meet, u)
            out += [(x.lo, x.hi, x.rows) for x in (
                lift_lattice(ses, u), project_lattice(ses, u), meet, join)]
            out += [lattice_contains(u, meet), lattice_contains(meet, u),
                    lambda_scalar_chain(meet, u, join),
                    fd.i.matrix.entries, fd.j.matrix.entries]
        return out
    lanes = results()
    with mock.patch.dict(satokit.exactlin._LANES, clear=True):
        assert results() == lanes


# --- the stored form: exactlin's rows, windows by shift and mask -------------

# rows over the window [-2, 2) of k((t))^2, and the (lo, hi, rows) of their
# lattices over F2, F5, F13, F17 and Q, as lattices gave them when they
# stored tuples
_STORED_INPUTS = (
    [[0, 0, 3, 1, 0, 2, 0, 0], [0, 0, 0, 0, 1, 4, 1, 0],
     [0, 0, 6, 2, 1, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1, 0]],
    [[0, 0, 3, 1, 0, 2, 0, 0], [0, 0, 0, 0, 1, 4, 1, 0],
     [0, 0, 6, 2, 1, 0, 5, 1], [0, 0, 0, 0, 0, 0, 1, 0],
     [0, 0, 0, 0, 0, 0, 0, 1]])
_STORED = {
    2: [(-1, 1, ((1, 1, 0, 0), (0, 0, 1, 0))),
        (-1, 1, ((1, 1, 0, 0), (0, 0, 1, 0)))],
    5: [(-1, 2, ((1, 2, 0, 0, 0, 3), (0, 0, 1, 0, 0, 3), (0, 0, 0, 1, 0, 3),
                 (0, 0, 0, 0, 1, 0))),
        (-1, 0, ((1, 2),))],
    13: [(-1, 2, ((1, 9, 0, 0, 0, 12), (0, 0, 1, 0, 0, 7),
                  (0, 0, 0, 1, 0, 8), (0, 0, 0, 0, 1, 0))),
         (-1, 0, ((1, 9),))],
    17: [(-1, 2, ((1, 6, 0, 0, 0, 10), (0, 0, 1, 0, 0, 9),
                  (0, 0, 0, 1, 0, 2), (0, 0, 0, 0, 1, 0))),
         (-1, 0, ((1, 6),))],
    None: [(-1, 2, ((1, Fraction(1, 3), 0, 0, 0, Fraction(1, 12)),
                    (0, 0, 1, 0, 0, Fraction(1, 2)),
                    (0, 0, 0, 1, 0, Fraction(-1, 8)), (0, 0, 0, 0, 1, 0))),
           (-1, 0, ((1, Fraction(1, 3)),))],
}


@pytest.mark.parametrize("p", [2, 5, 13, 17, None])
def test_lattices_store_exactlin_rows_and_read_out_tuples(p):
    # bits over F2, byte lanes over F5 and F13, tuples over F17 and Q; the
    # tuple view reads what lattices stored as tuples
    field = Field(p)
    space, kind = TateSpace(field, 2), int if field._bits else tuple
    ses = split_tate_ses(field, 1, 1)
    for raw, want in zip(_STORED_INPUTS, _STORED[p]):
        lat = lattice_normalize(space, -2, 2, raw)
        assert (lat.lo, lat.hi, lat.rows) == want
        assert lat.basis.pivots == Subspace.from_rows(
            field, len(lat.rows[0]), lat.rows).pivots
        built = [lat, lattice_meet(lat, standard_lattice(space, -1)),
                 lattice_join(lat, standard_lattice(space, 1)),
                 lift_lattice(ses, lat), project_lattice(ses, lat)]
        assert all(type(r) is kind for x in built for r in x.basis._rows)
        assert repr(lat).endswith("extra_dim=%d)" % len(want[2]))


def test_lift_and_project_build_one_window_row_per_row_of_i_and_j(
        monkeypatch):
    # a lift builds one window row per row of i and shifts it across the
    # window, not one per monomial t^e u_k; a projection builds one per row
    # of u and, when u has a tail below t^(HI - vmin_j), one per row of j
    import satokit.tate
    from satokit.tate import _stencil
    from satokit.verify import TwistedChain, rand_lattice
    rng, cases = random.Random(73), []
    for field in (F2, F5, Field(17)):
        for _ in range(6):
            ch = TwistedChain(rng, field, 1, 2, 3)
            u = rand_lattice(rng, ch.total, bound=3)
            for ses in (ch.ses13, ch.ses23):
                cases.append((ses, u, lift_by_laurent_rows(ses, u),
                              project_by_laurent_rows(ses, u)))
    calls = _counting(monkeypatch, satokit.tate, ["_window_row"])
    levels = tails = 0
    for ses, u, lifted, projected in cases:
        _, vmin_i, vmin_b = _stencil(ses, "i")
        _, vmin_j, vmin_c = _stencil(ses, "j")
        lift_levels = max(u.hi - vmin_i - (u.lo + vmin_b), 0)
        HI = u.hi - vmin_c
        tail = max(HI - vmin_j - u.hi, 0) if HI > u.lo + vmin_j else 0
        levels += lift_levels > 1
        tails += tail > 1
        calls.clear()
        assert lift_lattice(ses, u) == lifted
        assert calls["_window_row"] == (ses.i.nrows if lift_levels else 0)
        calls.clear()
        assert project_lattice(ses, u) == projected
        assert calls["_window_row"] == (
            len(u.basis.pivots) + (ses.j.nrows if tail else 0)
            if HI > u.lo + vmin_j else 0)
    assert levels > 10 and tails > 5


@pytest.mark.parametrize("field", [F2, F5])
def test_windows_and_strips_convert_no_row(monkeypatch, field):
    # window_subspace shifts and masks the stored rows, and _stripped cuts
    # the subspace's own rows: neither packs or unpacks a row
    import satokit.exactlin
    import satokit.tate
    from satokit.tate import _stripped
    from satokit.verify import rand_lattice
    rng = random.Random(79)
    space = TateSpace(field, 2)
    lats = [rand_lattice(rng, space, bound=3) for _ in range(30)]
    calls = [_counting(monkeypatch, satokit.exactlin, ["_row_in", "_row_out"]),
             _counting(monkeypatch, satokit.tate, ["_row_in"])]
    for a, b in zip(lats, lats[1:]):
        for LO, HI in ((a.lo - 1, a.hi + 2), (a.lo, a.hi), (b.lo, b.hi),
                       (a.lo + 1, a.hi), (min(a.lo, b.lo), a.hi)):
            if LO > HI:
                continue
            w = window_subspace(a, LO, HI)
            back = _stripped(space, LO, HI, w)
            assert back == a or not (LO <= a.lo and a.hi <= HI)
            # a stripped lattice shown in the window it came from is the
            # subspace it came from
            for sub in (w, w.meet(window_subspace(b, LO, HI))):
                assert window_subspace(_stripped(space, LO, HI, sub), LO,
                                       HI) == sub
    assert calls == [{}, {}]


@pytest.mark.parametrize("field", [F2, F5])
def test_hash_and_equality_read_the_stored_basis(monkeypatch, field):
    # a lattice hashes and compares its basis as stored, so neither builds
    # a tuple view of an F2 or F5 lattice; _row_out is counted in tate too,
    # where a lattice of its own rows would call it
    import collections
    import satokit.exactlin
    import satokit.tate
    from satokit.verify import rand_lattice

    def lattices():
        rng = random.Random(89)
        return [rand_lattice(rng, TateSpace(field, 2), bound=3)
                for _ in range(30)]

    lats, again = lattices(), lattices()
    calls, row_out = collections.Counter(), satokit.exactlin._row_out

    def counted(*args):
        calls["_row_out"] += 1
        return row_out(*args)

    for module in (satokit.exactlin, satokit.tate):
        monkeypatch.setattr(module, "_row_out", counted, raising=False)
    assert lats == again
    assert [hash(x) for x in lats] == [hash(x) for x in again]
    assert len(set(lats + again)) == len(set(lats)) > 20
    assert calls == {}


def test_lattice_contains_builds_one_window(monkeypatch):
    # b <= a reads a's stored basis and builds only b's rows in a's window
    import satokit.tate
    from satokit.verify import rand_lattice
    rng = random.Random(97)
    lats = [rand_lattice(rng, K2, bound=3) for _ in range(20)]
    pairs = [(a, b) for a in lats for b in lats if b.lo >= a.lo]
    calls = _counting(monkeypatch, satokit.tate, ["window_subspace"])
    got = [lattice_contains(a, b) for a, b in pairs]
    assert calls["window_subspace"] == len(pairs)
    monkeypatch.undo()
    assert got == [lattice_meet(a, b) == b for a, b in pairs]
    assert 0 < sum(got) < len(pairs)


@pytest.mark.parametrize("field", [F2, F5])
def test_project_reads_the_stored_rows_of_u(monkeypatch, field):
    # project_lattice reads the terms of u's rows off its set bits or byte
    # lanes, so it builds no tuple view of a fresh lattice
    import satokit.exactlin
    from satokit.verify import TwistedChain, rand_lattice
    rng = random.Random(83)
    cases = []
    for _ in range(8):
        ch = TwistedChain(rng, field, 1, 2, 3)
        cases += [(ses, rand_lattice(rng, ch.total, bound=3))
                  for ses in (ch.ses13, ch.ses23)]
    calls = _counting(monkeypatch, satokit.exactlin, ["_row_out"])
    projected = [project_lattice(ses, u) for ses, u in cases]
    assert calls == {}
    monkeypatch.undo()
    assert sum(len(u.basis._rows) for _, u in cases) > 20
    for (ses, u), got in zip(cases, projected):
        assert got == project_by_laurent_rows(ses, u)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_project_match_the_laurent_route_across_u_hi(data):
    # as test_lift_project_match_the_laurent_route, with entries of degree
    # up to 6 and u's window up to 8 levels wide, so that the shifted
    # generators of a lift and of a projection's tail cross t^(u.hi), over
    # bits, byte lanes and tuples
    from satokit.verify import rand_automorphism
    field = data.draw(st.sampled_from([F2, Field(3), F5, Field(17), QQ]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    if data.draw(st.booleans()):
        a, c = rng.randint(1, 2), rng.randint(1, 2)
        aut = (_rational_automorphism(rng, a + c, emax=3) if field is QQ
               else rand_automorphism(rng, field, a + c, emax=3))
        ses = twisted_split(*aut, a)
    else:
        x, y = _drawn_poly(data, field, 7), _drawn_poly(data, field, 7)
        ses = TateSES(LaurentMatrix(field, [[x, y]]),
                      LaurentMatrix(field, [[y], [x.neg()]]))
    space = ses.total_space
    lo = data.draw(st.integers(-3, 1))
    hi = data.draw(st.integers(lo, lo + 8))
    width = (hi - lo) * space.rank
    scalar = (st.fractions(-2, 2, max_denominator=2) if field.p is None
              else st.integers(0, field.p - 1))
    rows = data.draw(st.lists(st.lists(scalar, min_size=width,
                                       max_size=width), max_size=6))
    u = lattice_normalize(space, lo, hi, rows)
    assert lift_lattice(ses, u) == lift_by_laurent_rows(ses, u)
    assert project_lattice(ses, u) == project_by_laurent_rows(ses, u)


@pytest.mark.parametrize("W", [300, 400])
def test_spread_lattice_meets_and_joins_o2_with_no_stack(W):
    # t^-W O + t^W O and O^2: in the meet's window [0, W) the window of O^2
    # is whole, so the meet is the other window and builds no Zassenhaus
    # stack, whose 4W x 4W cells are over the cap (the meet was refused);
    # in the join's window [-W, 0) the window of O^2 is zero
    from satokit.tate import MAX_WINDOW_CELLS
    from satokit.verify import diag_lattice
    spread, o2 = diag_lattice(K2, [-W, W]), standard_lattice(K2)
    assert (4 * W) ** 2 > MAX_WINDOW_CELLS
    assert lattice_meet(spread, o2) == lattice_meet(o2, spread) \
        == diag_lattice(K2, [0, W])
    assert lattice_join(spread, o2) == lattice_join(o2, spread) \
        == diag_lattice(K2, [-W, 0])


def test_meet_that_needs_its_stack_is_refused_past_the_cap():
    # t^-W O + t^W O and t^W O + t^-W O: each window holds 2W rows of 4W
    # columns, under the cap, but neither decides the meet, and its stack
    # of 4W rows by 8W columns is over it; a small pair is answered
    from satokit.tate import WindowTooLarge
    from satokit.verify import diag_lattice
    W = 300
    with pytest.raises(WindowTooLarge, match="meet needs a window of "
                       "1200 x 2400 cells"):
        lattice_meet(diag_lattice(K2, [-W, W]), diag_lattice(K2, [W, -W]))
    assert lattice_meet(diag_lattice(K2, [-5, 5]), diag_lattice(
        K2, [5, -5])) == standard_lattice(K2, 5)
