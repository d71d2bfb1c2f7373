import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from satokit.complexes import STANDARD
from satokit.exactcat import quotient_map
from satokit.exactlin import (
    F2, F3, F5, QQ, Field, Matrix, Quotient, Subspace, all_subspaces,
    all_vectors, invariant_factors, snf_with_transforms, solve_mod,
)


def test_field_construction():
    assert Field.parse("F7").p == 7
    assert Field.parse("Q").is_rational
    with pytest.raises(ValueError):
        Field(6)
    assert F5.inv(2) == 3
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


@pytest.mark.parametrize("p", [41, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59])
def test_field_accepts_primes_past_the_trial_bases(p):
    # no factor among the twelve Miller-Rabin bases, so primality is decided
    # by the Miller-Rabin rounds
    assert Field(p).p == p


@pytest.mark.parametrize("n", [0, 1, -5, 41 * 43, 151 * 751 * 28351])
def test_field_refuses_non_primes(n):
    # below 2, and composites with no factor among the twelve bases:
    # 3215031751 = 151 . 751 . 28351 is a strong pseudoprime to the bases
    # 2, 3, 5 and 7, so only a later round refuses it
    with pytest.raises(ValueError, match="must be prime"):
        Field(n)


# --- rref oracle: hand row-reduction -----------------------------------

def test_rref_identity_f2():
    m = Matrix.identity(F2, 3)
    s = m.row_space()
    assert s.dim == 3 and s == Subspace.full(F2, 3)


def test_rref_zero():
    m = Matrix.zero(F5, 2, 3)
    assert m.row_space().dim == 0


def test_rref_hand_reduction_f2():
    # (1,1,0),(0,1,1): subtract second from first -> (1,0,1); frozen result
    m = Matrix(F2, [(1, 1, 0), (0, 1, 1)])
    s = m.row_space()
    assert s.rows == ((1, 0, 1), (0, 1, 1))


def test_rref_idempotent_and_representation_free():
    rng = random.Random(11)
    for _ in range(50):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        s1 = Subspace.from_rows(F5, 4, rows)
        # same space, scrambled generating set
        mixed = [
            [F5.add(a, b) for a, b in zip(rows[0], rows[1])],
            rows[2],
            [F5.mul(3, a) for a in rows[0]],
            rows[1],
        ]
        s2 = Subspace.from_rows(F5, 4, mixed)
        assert s1 == s2
        assert Subspace.from_rows(F5, 4, s1.rows) == s1


# --- kernel oracle: enumerate all vectors ------------------------------

def test_kernel_identity_and_zero():
    assert Matrix.identity(F3, 2).right_kernel().dim == 0
    z = Matrix.zero(F3, 1, 2)  # zero map F_3^2 -> F_3 (columns = domain)
    assert z.right_kernel().dim == 2


def test_kernel_enumeration_oracle_f2():
    m = Matrix(F2, [(1, 1)])  # one row, two columns
    expected = [v for v in all_vectors(F2, 2)
                if all(sum(r[j] * v[j] for j in range(2)) % 2 == 0
                       for r in m.entries)]
    got = m.right_kernel()
    assert got.rows == ((1, 1),)
    assert sorted(expected) == sorted(
        v for v in all_vectors(F2, 2) if got.contains_vector(v))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_rank_nullity(rows, cols, data):
    entries = [[data.draw(st.integers(0, 4)) for _ in range(cols)]
               for _ in range(rows)]
    m = Matrix(F5, entries)
    assert m.rank() + m.right_kernel().dim == cols


# --- meet/join oracle: exhaustive vector check -------------------------

def test_meet_join_coordinate_planes_f2():
    a = Subspace.from_rows(F2, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.from_rows(F2, 3, [(0, 1, 0), (0, 0, 1)])
    meet, join = a.meet(b), a.join(b)
    assert meet == Subspace.from_rows(F2, 3, [(0, 1, 0)])
    assert join == Subspace.full(F2, 3)


def test_meet_join_trivial_cases():
    a = Subspace.from_rows(F5, 2, [(1, 2)])
    meet, join = a.meet(a), a.join(a)
    assert meet == a and join == a
    z = Subspace.zero(F5, 2)
    meet, join = z.meet(a), z.join(a)
    assert meet == z and join == a


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_meet_against_left_kernel(data):
    # u n w as the left kernel of the stacked bases applied to u's rows
    field = data.draw(st.sampled_from([F2, F5, QQ]))
    n = data.draw(st.integers(0, 5))
    u, w = (Subspace.from_rows(field, n, data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5)))
        for _ in range(2))
    ker = u.basis_matrix().vstack(w.basis_matrix()).left_kernel()
    vecs = Matrix(field, [k[:u.dim] for k in ker.rows], u.dim).mul(
        u.basis_matrix()).entries
    meet = u.meet(w)
    assert meet == Subspace.from_rows(field, n, vecs)
    assert meet.dim + u.join(w).dim == u.dim + w.dim


def test_meet_join_exhaustive_f2_dim_le_4():
    # modular identity on dimensions plus the membership oracle, every pair
    for ambient in range(5):
        subs = all_subspaces(F2, ambient)
        vectors = list(all_vectors(F2, ambient))
        for a in subs:
            for b in subs:
                meet, join = a.meet(b), a.join(b)
                assert meet.dim + join.dim == a.dim + b.dim
                for v in vectors:
                    in_meet = a.contains_vector(v) and b.contains_vector(v)
                    assert meet.contains_vector(v) == in_meet
                    if a.contains_vector(v) or b.contains_vector(v):
                        assert join.contains_vector(v)


def test_subspace_count_f2():
    # Gaussian binomials: 1,3,1 for dim 2; 1,7,7,1 for dim 3
    assert len(all_subspaces(F2, 2)) == 5
    assert len(all_subspaces(F2, 3)) == 16


def _all_subspaces_by_frontier(field, ambient):
    """Every subspace of k^ambient by rank extension from the zero subspace:
    join one vector at a time, keeping the spans not seen before."""
    vecs = list(all_vectors(field, ambient))
    frontier = [Subspace.zero(field, ambient)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for sub in frontier:
            for v in vecs:
                if not sub.contains_vector(v):
                    bigger = sub.join(Subspace.from_rows(field, ambient, [v]))
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda s: (s.dim, s.rows))


@pytest.mark.parametrize("field,ambient", [
    (F2, n) for n in range(6)] + [(F3, n) for n in range(4)]
    + [(F5, n) for n in range(3)])
def test_subspaces_by_cell_match_the_frontier(field, ambient):
    got = all_subspaces(field, ambient)
    assert got == _all_subspaces_by_frontier(field, ambient)
    # each is a well-formed rref: its pivots are those of a fresh reduction
    for s in got:
        assert s.pivots == Subspace.from_rows(field, ambient, s.rows).pivots


def test_enumeration_refuses_negative_dimensions_and_q():
    assert list(all_vectors(F3, 2))[:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert list(all_vectors(F2, 0)) == [()]
    assert all_subspaces(F5, 0) == [Subspace.zero(F5, 0)]
    for enumerate_ in (all_vectors, all_subspaces):
        for field, n in ((F2, -1), (F5, -3), (QQ, 0), (QQ, 2)):
            with pytest.raises(ValueError):
                list(enumerate_(field, n))


def test_subspace_coordinates():
    s = Subspace.from_rows(F5, 3, [(1, 0, 2), (0, 1, 3)])
    c = s.coordinates(Matrix(F5, [(2, 1, 2)])).entries[0]
    assert c == (2, 1)
    assert s.coordinates(Matrix(F5, [(0, 0, 1)])) is None


_FIELD_ENTRIES = [
    (F2, st.integers(0, 1)),
    (F5, st.integers(0, 4)),
    (QQ, st.fractions(min_value=-3, max_value=3, max_denominator=3)),
]


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(range(len(_FIELD_ENTRIES))), st.integers(0, 5),
       st.integers(1, 5), st.data())
def test_reduction_invariants(which, nrows, ncols, data):
    field, entry = _FIELD_ENTRIES[which]
    rows = [tuple(field.normalize(data.draw(entry)) for _ in range(ncols))
            for _ in range(nrows)]
    m = Matrix(field, rows, ncols)
    space, ker = m.row_space(), m.left_kernel()
    rref = space.basis_matrix()
    assert m.solve(rref).mul(m) == rref
    assert ker.basis_matrix().mul(m).is_zero()
    assert ker.dim + space.dim == len(rows)
    again = Subspace.from_rows(field, len(rows), ker.rows)
    assert (again.rows, again.pivots) == (ker.rows, ker.pivots)



@pytest.mark.parametrize("field", [F2, F5, QQ])
@pytest.mark.parametrize("vector", [(1, 1), (1, 0, 0, 0, 0)])
@pytest.mark.parametrize("method", ["contains_vector", "proj_coords",
                                    "coords"])
def test_vectors_of_the_wrong_length_are_refused(field, vector, method):
    # a vector of k^3 is asked for: one too short or too long is refused,
    # not padded or cut
    sub = Subspace.from_rows(field, 3, [(1, 0, 0)])
    q = Quotient(Subspace.zero(field, 3), Subspace.full(field, 3))
    with pytest.raises(ValueError, match="^row length does not match "
                       "ambient dimension$"):
        getattr(q if method == "coords" else sub, method)(vector)


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(range(len(_FIELD_ENTRIES))), st.integers(1, 5),
       st.integers(0, 3), st.integers(0, 3), st.data())
def test_quotient_invariants(which, ambient, n_small, n_extra, data):
    field, entry = _FIELD_ENTRIES[which]

    def draw_rows(n):
        return [tuple(field.normalize(data.draw(entry))
                      for _ in range(ambient)) for _ in range(n)]

    small = Subspace.from_rows(field, ambient, draw_rows(n_small))
    big = small.join(Subspace.from_rows(field, ambient, draw_rows(n_extra)))
    q = Quotient(small, big)
    assert q.dim == big.dim - small.dim
    for k in range(q.dim):
        assert q.coords(q.lift(k)) == tuple(
            field.one() if i == k else field.zero() for i in range(q.dim))
    units = Subspace.full(field, ambient).rows
    outside = [e for e in units if not big.contains_vector(e)]
    assert bool(outside) == (big.dim < ambient)
    for v in list(units) + draw_rows(3) + list(big.rows):
        c = q.coords(v)
        if not big.contains_vector(v):
            assert c is None
            continue
        rest = list(v)
        for k, ck in enumerate(c):
            rest = [field.sub(x, field.mul(ck, y))
                    for x, y in zip(rest, q.lift(k))]
        assert small.contains_vector(rest)
    if big != small:
        with pytest.raises(ValueError):
            Quotient(big, small)


class _OracleQuotient:
    """big/small built in small's quotient coordinates: each row gathered at
    small's non-pivot columns (proj_coords), the rref of those rows as the
    basis, and a lift scattered back to the non-pivot columns."""

    def __init__(self, small, big):
        self.field, self.small = small.field, small
        self.npv = small.nonpivots()
        self.basis = Subspace.from_rows(small.field, len(self.npv),
                                        [small.proj_coords(r)
                                         for r in big.rows])

    def coords(self, v):
        c = self.basis.coordinates(
            Matrix(self.field, [self.small.proj_coords(v)], len(self.npv)))
        return None if c is None else c.entries[0]

    def lift(self, k):
        v = [self.field.zero()] * self.small.ambient
        for x, j in zip(self.basis.rows[k], self.npv):
            v[j] = x
        return tuple(v)

    def map_to(self, dst):
        rows = [dst.coords(self.lift(k)) for k in range(self.basis.dim)]
        return None if None in rows else rows


_ORACLE_FIELD_ENTRIES = _FIELD_ENTRIES + [(F3, st.integers(0, 2))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_ORACLE_FIELD_ENTRIES))), st.integers(1, 7),
       st.lists(st.integers(0, 3), min_size=3, max_size=3), st.data())
def test_quotient_matches_the_quotient_coordinate_oracle(which, ambient,
                                                         counts, data):
    # the ambient-coordinate Quotient against the construction in small's
    # quotient coordinates, entry for entry, on a chain small <= big <= big2
    field, entry = _ORACLE_FIELD_ENTRIES[which]

    def draw_rows(n):
        return [tuple(field.normalize(data.draw(entry))
                      for _ in range(ambient)) for _ in range(n)]

    chain = [Subspace.from_rows(field, ambient, draw_rows(counts[0]))]
    for n in counts[1:]:
        chain.append(chain[-1].join(
            Subspace.from_rows(field, ambient, draw_rows(n))))
    pairs = list(itertools.combinations(chain, 2))
    quots = [(Quotient(s, b), _OracleQuotient(s, b)) for s, b in pairs]
    vectors = (list(Subspace.full(field, ambient).rows) + draw_rows(3)
               + list(chain[-1].rows))
    for q, oracle in quots:
        assert q.dim == oracle.basis.dim
        assert [q.lift(k) for k in range(q.dim)] == \
            [oracle.lift(k) for k in range(q.dim)]
        for v in vectors:
            assert q.coords(v) == oracle.coords(v)
    for (q1, o1), (q2, o2) in itertools.permutations(quots, 2):
        m, want = q1.map_to(q2), o1.map_to(o2)
        assert (m is None) == (want is None)
        if m is not None:
            assert (m.nrows, m.ncols) == (q1.dim, q2.dim)
            assert list(m.entries) == want

# --- the packed F2 path against plain mod-2 elimination ------------------

def _gf2_rref(rows, ncols):
    """Gauss-Jordan mod 2 on lists of 0/1 entries: (rref rows, pivots)."""
    work = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        src = next((i for i in range(top, len(work)) if work[i][col]), None)
        if src is None:
            continue
        work[top], work[src] = work[src], work[top]
        for i in range(len(work)):
            if i != top and work[i][col]:
                work[i] = [(a + b) % 2 for a, b in zip(work[i], work[top])]
        pivots.append(col)
    return [tuple(r) for r in work[:len(pivots)]], pivots


def _gf2_mul(a, b, ncols):
    return tuple(tuple(sum(r[k] * b[k][j] for k in range(len(b))) % 2
                       for j in range(ncols)) for r in a)


def _gf2_rank(rows, ncols):
    return len(_gf2_rref(rows, ncols)[1])


def _bits(data, nrows, ncols):
    return [[data.draw(st.integers(0, 1)) for _ in range(ncols)]
            for _ in range(nrows)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 8), st.data())
def test_packed_f2_against_mod_2_elimination(r, c, k, s, data):
    a_rows, b_rows = _bits(data, r, c), _bits(data, c, k)
    a, b = Matrix(F2, a_rows, c), Matrix(F2, b_rows, k)
    assert (a.nrows, a.ncols) == (r, c)
    assert a.entries == tuple(map(tuple, a_rows))
    same = Matrix(F2, a.entries, c)
    assert same == a and hash(same) == hash(a)
    assert Matrix(F2, [[x - 2 for x in row] for row in a_rows], c) == a
    assert a.mul(b).entries == _gf2_mul(a_rows, b_rows, k)
    rank = _gf2_rank(a_rows, c)
    assert a.rank() == rank
    assert a.transpose().entries == (tuple(zip(*a_rows)) if r else
                                     ((),) * c)
    assert a.is_zero() == (rank == 0)
    # left kernel: x . a == 0, of dimension r - rank, in rref
    ker = a.left_kernel()
    assert ker.dim == r - rank
    assert all(not any(v) for v in _gf2_mul(ker.rows, a_rows, c))
    assert (list(ker.rows), list(ker.pivots)) == _gf2_rref(ker.rows, r)
    # inverse of a square matrix, and solve x . a == t
    sq = Matrix(F2, _bits(data, k, k), k)
    if sq.rank() == k:
        inv = sq.inverse()
        unit = Matrix.identity(F2, k).entries
        assert _gf2_mul(inv.entries, sq.entries, k) == unit
        assert _gf2_mul(sq.entries, inv.entries, k) == unit
    else:
        with pytest.raises(ValueError):
            sq.inverse()
    t_rows = _bits(data, s, c)
    if data.draw(st.booleans()) and r:
        # targets in the row space
        t_rows = [list(v) for v in _gf2_mul(_bits(data, s, r), a_rows, c)]
    x = a.solve(Matrix(F2, t_rows, c))
    solvable = all(_gf2_rank(a_rows + [t], c) == rank for t in t_rows)
    assert (x is not None) == solvable
    if x is not None:
        assert (x.nrows, x.ncols) == (s, r)
        assert _gf2_mul(x.entries, a_rows, c) == tuple(map(tuple, t_rows))
    # subspaces of F2^c: from_rows, join, meet, contains
    u = Subspace.from_rows(F2, c, a_rows)
    w = Subspace.from_rows(F2, c, t_rows)
    assert (list(u.rows), list(u.pivots)) == _gf2_rref(a_rows, c)
    assert u == a.row_space() and hash(u) == hash(a.row_space())
    join = u.join(w)
    assert (list(join.rows), list(join.pivots)) == \
        _gf2_rref(a_rows + t_rows, c)
    meet = u.meet(w)
    assert meet.dim == u.dim + w.dim - join.dim
    assert (list(meet.rows), list(meet.pivots)) == _gf2_rref(meet.rows, c)
    for v in meet.rows:
        assert _gf2_rank(list(u.rows) + [v], c) == u.dim
        assert _gf2_rank(list(w.rows) + [v], c) == w.dim
    assert u.contains(w) == (join.dim == u.dim)
    assert u.contains(meet) and join.contains(w)
    # the quotient u / (u meet w): coords and lift
    q = Quotient(meet, u)
    assert q.dim == u.dim - meet.dim
    for i in range(q.dim):
        assert q.coords(q.lift(i)) == tuple(int(j == i) for j in range(q.dim))
    for v in _bits(data, 3, c) + list(u.rows):
        cv = q.coords(v)
        assert (cv is not None) == (_gf2_rank(list(u.rows) + [v], c) == u.dim)
        if cv is not None:
            rest = list(v)
            for i, ci in enumerate(cv):
                if ci:
                    rest = [(x + y) % 2 for x, y in zip(rest, q.lift(i))]
            assert meet.contains_vector(rest)


@pytest.mark.parametrize("field", [F2, F5])
@pytest.mark.parametrize("bad", [Fraction(1, 3), 2.5, 1.0, "1"])
def test_non_integer_scalars_are_refused(field, bad):
    from satokit.laurent import LaurentPoly
    with pytest.raises(ValueError):
        Matrix(field, [[0, bad]])
    with pytest.raises(ValueError):
        Subspace.from_rows(field, 2, [[bad, 1]])
    with pytest.raises(ValueError):
        LaurentPoly(field, {0: bad})
    assert Matrix(field, [[Fraction(6, 2), True]]) == Matrix(field, [[3, 1]])


@pytest.mark.parametrize("bad", [0.1, 2.5, "1/3", "1"])
def test_non_rational_scalars_are_refused_over_q(bad):
    # a float would be stored as its binary fraction, a string parsed
    from satokit.laurent import LaurentPoly
    with pytest.raises(ValueError):
        Matrix(QQ, [[0, bad]])
    with pytest.raises(ValueError):
        Subspace.from_rows(QQ, 2, [[bad, 1]])
    with pytest.raises(ValueError):
        LaurentPoly(QQ, {0: bad})
    third = Fraction(1, 3)
    assert Matrix(QQ, [[third, 1]]).entries == ((third, Fraction(1)),)
    assert LaurentPoly(QQ, {0: third}).terms == ((0, third),)


def _not_ints():
    """Constructors once given a float, a Fraction, a string, a bool or a
    negative size, which they rounded, kept as given, or failed on later
    with a TypeError, each with its call."""
    from satokit.abgroup import ZZ, AbelianGroup, GroupElem, GroupHom
    from satokit.exactcat import FdSpace
    from satokit.laurent import LaurentPoly
    from satokit.tate import TateSpace, lattice_normalize, standard_lattice
    K1 = TateSpace(F5, 1)
    return {
        "Field(17.0)": lambda: Field(17.0),
        "Field(5.0)": lambda: Field(5.0),
        "Field('5')": lambda: Field("5"),
        "exponent 0.9": lambda: LaurentPoly(F5, {0.9: 1}),
        "t_power 1.5": lambda: LaurentPoly.t_power(F5, 1.5),
        "factor 2.5": lambda: AbelianGroup((2.5,)),
        "ZZ.elem 1.7": lambda: ZZ.elem((1.7,)),
        "ZZ.elem True": lambda: ZZ.elem((True,)),
        "GroupElem 3/2": lambda: GroupElem(ZZ, (Fraction(3, 2),)),
        "GroupHom 1.5": lambda: GroupHom(ZZ, ZZ, [[1.5]]),
        "shift 0.5": lambda: standard_lattice(K1, 0.5),
        "lo 0.5": lambda: lattice_normalize(K1, 0.5, 1, []),
        "hi 1.5": lambda: lattice_normalize(K1, 0, 1.5, []),
        "TateSpace 1.5": lambda: TateSpace(F5, 1.5),
        "FdSpace 2.5": lambda: FdSpace(F5, 2.5),
        "Matrix ncols -1": lambda: Matrix(F5, [], ncols=-1),
        "Matrix.zero -1": lambda: Matrix.zero(F5, 2, -1),
        "Matrix.identity -3": lambda: Matrix.identity(F5, -3),
        "from_rows -1": lambda: Subspace.from_rows(F5, -1, []),
        "Subspace.full -2": lambda: Subspace.full(F5, -2),
        "Subspace.zero 1.5": lambda: Subspace.zero(F5, 1.5),
    }


@pytest.mark.parametrize("case", list(_not_ints()))
def test_sizes_bounds_and_integers_that_are_not_ints_are_refused(case):
    with pytest.raises(ValueError):
        _not_ints()[case]()


def test_subspace_constructor_refuses_unchecked_rows():
    # it would store 7 over F5 and a float over Q as given; from_rows
    # checks and reduces every scalar
    with pytest.raises(ValueError, match="use Subspace.from_rows"):
        Subspace(F5, 2, [[7, 0]], [0])
    with pytest.raises(ValueError, match="use Subspace.from_rows"):
        Subspace(QQ, 1, [[0.5]], [0])
    seven = Subspace.from_rows(F5, 2, [[7, 0]])
    assert seven == Subspace.from_rows(F5, 2, [[1, 0]])
    assert seven.contains_vector((1, 0))
    with pytest.raises(ValueError):
        Subspace.from_rows(QQ, 1, [[0.5]])


def test_matrix_det():
    assert Matrix(F5, [(2, 0), (0, 3)]).det() == 1  # 6 mod 5
    assert Matrix(QQ, [(Fraction(1, 2), 0), (0, 4)]).det() == 2
    assert Matrix(F2, [(1, 1), (1, 1)]).det() == 0
    assert Matrix(F2, [(1, 1), (0, 1)]).det() == 1
    assert Matrix(F5, [], 0).det() == 1  # the empty product
    with pytest.raises(ValueError):
        Matrix(F5, [(1, 2)]).det()


def test_products_and_stacks_refuse_two_fields():
    # F5 by F3 would return an F5 matrix, F2 by F5 fail in the F2 kernel
    for a, b in ((Matrix(F5, [[1, 2]]), Matrix(F3, [[2], [2]])),
                 (Matrix(F2, [[1, 1]]), Matrix(F5, [[1], [2]]))):
        for op in (a.mul, a.hstack, a.vstack):
            with pytest.raises(ValueError, match="field mismatch"):
                op(b)
    with pytest.raises(ValueError, match="field mismatch"):
        Matrix(QQ, [[1]]).mul(Matrix(F5, [[1]]))
    # solve and coordinates read F2 bits as F5 lanes, and fail over Q
    eye = [[1, 0], [0, 1]]
    for fa, fb in ((F5, F2), (QQ, F5)):
        target = Matrix(fb, [[1, 1]])
        for op in (Matrix(fa, eye).solve,
                   Subspace.from_rows(fa, 2, eye).coordinates):
            with pytest.raises(ValueError, match="field mismatch"):
                op(target)


# --- SNF; independent oracle: gcd of k x k minors -----------------------

def _minor_gcd_oracle(rows):
    from itertools import combinations
    n, m = len(rows), len(rows[0])
    factors = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[Fraction(rows[i][j]) for j in ci] for i in ri]
                d = Matrix(QQ, sub).det()
                g = gcd(g, int(d))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


_TRANSFORMS = ("U", "V", "U^-1", "V^-1")


def _sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _dense(rows, ncols):
    return [[r.get(j, 0) for j in range(ncols)] for r in rows]


def _factors_and_rank(rows):
    """Invariant factors and rank of an integer matrix given as dense rows,
    from its transform-free Smith form."""
    s = snf_with_transforms(_sparse(rows), len(rows[0]) if rows else 0,
                            ())[0]
    factors = [x for x in (r.get(i, 0) for i, r in enumerate(s)) if x]
    return factors, len(factors)


def _dense_snf(rows):
    """snf_with_transforms of the dense rows, keeping every transform, as
    five lists of dense rows."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0

    def dense(lines, n, m, columns=False):
        if columns:
            return [[line.get(i, 0) for line in lines] for i in range(n)]
        return [[line.get(j, 0) for j in range(m)] for line in lines]

    s, u, v, uinv, vinv = snf_with_transforms(_sparse(rows), ncols,
                                              _TRANSFORMS)
    return (dense(s, nrows, ncols), dense(u, nrows, nrows),
            dense(v, ncols, ncols, True), dense(uinv, nrows, nrows, True),
            dense(vinv, ncols, ncols))


def _dense_snf_oracle(rows):
    """The dense elimination that snf_with_transforms replaced, kept as an
    oracle: the same pivot rule and order of operations on full rows."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0

    def identity(n):
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    U, Uinv = identity(nrows), identity(nrows)
    V, Vinv = identity(ncols), identity(ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for m in (rows, U):
            ri, rj = m[i], m[j]
            for k in range(len(ri)):
                ri[k] -= q * rj[k]
        for r in Uinv:
            r[j] += q * r[i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for m in (rows, V):
            for r in m:
                r[i] -= q * r[j]
        vi, vj = Vinv[i], Vinv[j]
        for k in range(ncols):
            vj[k] += q * vi[k]

    def row_swap(i, j):
        for m in (rows, U):
            m[i], m[j] = m[j], m[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for m in (rows, V):
            for r in m:
                r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = rows[i][j]
                if x != 0 and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        if best is None:
            break
        i, j, _ = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        dirty = False
        for i in range(t + 1, nrows):
            if rows[i][t]:
                q = rows[i][t] // rows[t][t]
                row_op(i, t, q)
                if rows[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if rows[t][j]:
                q = rows[t][j] // rows[t][t]
                col_op(j, t, q)
                if rows[t][j]:
                    dirty = True
        if dirty:
            continue
        piv = rows[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if rows[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        if piv < 0:
            for m in (rows, U):
                m[t] = [-x for x in m[t]]
            for r in Uinv:
                r[t] = -r[t]
        t += 1
    return rows, U, V, Uinv, Vinv


_SNF_ENTRIES = st.sampled_from([0, 1, -1, 2, -2, 3, 4, 6])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda ncols: st.lists(
    st.lists(_SNF_ENTRIES, min_size=ncols, max_size=ncols), max_size=7)),
    st.booleans())
def test_snf_matches_dense_oracle(rows, zero):
    # random shapes, 0 rows or 0 columns among them, and all-zero matrices
    if zero:
        rows = [[0] * len(r) for r in rows]
    assert _dense_snf(rows) == _dense_snf_oracle(rows)


def _klein_bottle():
    """The one-vertex Klein bottle: the square with sides b, b and a, a
    reversed, cut along the diagonal c."""
    from satokit.simptors import validate_simplicial_set
    return validate_simplicial_set([
        ("v", 0, ()), ("a", 1, ("v", "v")), ("b", 1, ("v", "v")),
        ("c", 1, ("v", "v")), ("U", 2, ("c", "b", "a")),
        ("L", 2, ("a", "c", "b"))])


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("name", ["torus", "klein", "rp2"])
def test_snf_of_coboundaries_matches_dense_oracle(name, degree):
    from satokit.abgroup import ZZ
    from satokit.complexes import projective_plane, torus
    from satokit.simptors import CohomologyResult, coboundary_matrix
    cx = {"torus": torus, "klein": _klein_bottle,
          "rp2": projective_plane}[name]()
    d = _dense(coboundary_matrix(cx, degree), cx.n_simplices(degree))
    for rows in (d, [list(c) for c in zip(*d)]):
        assert _dense_snf(rows) == _dense_snf_oracle(rows)
    h2 = {"torus": (0,), "klein": (2,), "rp2": (2,)}[name]
    assert CohomologyResult(cx, 2, ZZ).group_presentation == h2


def _coboundary_case(name, degree, transposed):
    """(sparse rows, column count) of a coboundary of the torus, the Klein
    bottle or RP^2, or of its transpose."""
    from satokit.complexes import projective_plane, torus
    from satokit.simptors import coboundary_matrix
    cx = {"torus": torus, "klein": _klein_bottle,
          "rp2": projective_plane}[name]()
    rows = _dense(coboundary_matrix(cx, degree), cx.n_simplices(degree))
    if transposed:
        return _sparse(zip(*rows)), len(rows)
    return _sparse(rows), cx.n_simplices(degree)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6).flatmap(lambda ncols: st.tuples(
    st.lists(st.lists(_SNF_ENTRIES | st.integers(-30, 30), min_size=ncols,
                      max_size=ncols), max_size=6).map(_sparse),
    st.just(ncols))) | st.builds(
        _coboundary_case, st.sampled_from(["torus", "klein", "rp2"]),
        st.sampled_from([0, 1]), st.booleans()))
def test_snf_dropped_transforms(case):
    # every subset of the transforms: S and each kept transform as when all
    # four are kept, each dropped one None, and the input left as it was
    rows, ncols = case
    before = [dict(r) for r in rows]
    full = snf_with_transforms(rows, ncols, _TRANSFORMS)
    for k in range(len(_TRANSFORMS) + 1):
        for keep in itertools.combinations(_TRANSFORMS, k):
            got = snf_with_transforms(rows, ncols, keep)
            assert got[0] == full[0]
            for name, g, f in zip(_TRANSFORMS, got[1:], full[1:]):
                assert g == (f if name in keep else None)
    assert rows == before
    with pytest.raises(KeyError):
        snf_with_transforms(rows, ncols, ("W",))


def test_snf_trivial_cases():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _factors_and_rank(identity) == ([1, 1, 1], 3)
    assert _factors_and_rank([[2, 0], [0, 4]]) == ([2, 4], 2)


def test_snf_hand_elimination():
    # ((2,4),(6,8)): content 2, determinant -8 -> factors (2, 4)
    assert _factors_and_rank([[2, 4], [6, 8]]) == ([2, 4], 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=3))
def test_snf_matches_minor_gcd_oracle(rows):
    factors, rank = _factors_and_rank(rows)
    assert factors == _minor_gcd_oracle(rows)
    assert all(factors[i + 1] % factors[i] == 0
               for i in range(len(factors) - 1))
    assert rank == len(factors)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-4, 4) | st.integers(-60, 60), min_size=ncols,
             max_size=ncols),
    min_size=1, max_size=5)))
def test_snf_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    s = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    diag = [abs(int(s[i, i])) for i in range(min(s.shape))]
    factors, rank = _factors_and_rank(rows)
    assert factors == [d for d in diag if d]
    assert rank == len(factors)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda ncols: st.lists(
    st.lists(_SNF_ENTRIES | st.integers(-30, 30), min_size=ncols,
             max_size=ncols), max_size=6)),
    st.integers(0, 3), st.booleans())
def test_invariant_factors_match_sympy(rows, zero_rows, zero):
    # units and non-units, zero rows, all-zero matrices, 0 x n and n x 0
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    ncols = len(rows[0]) if rows else 0
    rows = [[0] * ncols if zero else r for r in rows]
    rows += [[0] * ncols] * zero_rows
    sparse = _sparse(rows)
    want = []
    if rows and ncols:
        want = [abs(int(x)) for x in sympy_factors(sympy.Matrix(rows),
                                                   domain=sympy.ZZ) if x]
    assert invariant_factors(sparse, ncols) == want
    assert sparse == _sparse(rows)  # the input is left as it was


@pytest.mark.parametrize("name", sorted(STANDARD) + ["klein"])
def test_invariant_factors_are_the_smith_diagonal(name):
    from satokit.simptors import MAX_DIM_CAP, coboundary_matrix
    cx = STANDARD.get(name, _klein_bottle)()
    for degree in range(MAX_DIM_CAP):
        rows = coboundary_matrix(cx, degree)
        ncols = cx.n_simplices(degree)
        cols = _sparse(zip(*_dense(rows, ncols)))
        for m, n in ((rows, ncols), (cols, len(rows))):
            s = snf_with_transforms(m, n, ())[0]
            assert invariant_factors(m, n) == \
                [x for x in (r.get(i) for i, r in enumerate(s)) if x]


def test_snf_transforms_multiply_out():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    s, u, v, _, _ = _dense_snf(rows)
    prod = Matrix(QQ, u).mul(Matrix(QQ, rows)).mul(Matrix(QQ, v))
    assert prod == Matrix(QQ, s)
    assert abs(Matrix(QQ, u).det()) == 1
    assert abs(Matrix(QQ, v).det()) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
    max_size=5)))
def test_snf_transforms_and_inverses(rows):
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    s, u, v, uinv, vinv = _dense_snf(rows)
    u, uinv = Matrix(QQ, u, nrows), Matrix(QQ, uinv, nrows)
    v, vinv = Matrix(QQ, v, ncols), Matrix(QQ, vinv, ncols)
    assert u.mul(Matrix(QQ, rows, ncols)).mul(v) == Matrix(QQ, s, ncols)
    assert u.mul(uinv) == Matrix.identity(QQ, nrows)
    assert v.mul(vinv) == Matrix.identity(QQ, ncols)
    assert all(s[i][j] == 0 for i in range(nrows) for j in range(ncols)
               if i != j)
    diag = [s[i][i] for i in range(min(nrows, ncols))]
    factors = [x for x in diag if x]
    assert diag == factors + [0] * (len(diag) - len(factors))
    assert all(x > 0 for x in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_snf_unimodular_invariance():
    rng = random.Random(3)
    base = [[2, 4], [6, 8]]
    want = _factors_and_rank(base)
    for _ in range(25):
        rows = [list(r) for r in base]
        for _ in range(6):
            i, j = rng.sample(range(2), 2)
            q = rng.randrange(-3, 4)
            if rng.random() < 0.5:
                for k in range(2):
                    rows[i][k] += q * rows[j][k]
            else:
                for r in rows:
                    r[i] += q * r[j]
        assert _factors_and_rank(rows) == want


def test_solve_mod():
    snf = snf_with_transforms([{0: 2}, {1: 3}], 2, ("U", "V"))
    x = solve_mod(snf, [4, 3], 6)
    assert x is not None
    assert [(2 * x[0]) % 6, (3 * x[1]) % 6] == [4, 3]
    assert solve_mod(snf, [1, 0], 6) is None  # 2x = 1 has no solution mod 6
    snf = snf_with_transforms([{0: 3}], 1, ("U", "V"))
    x = solve_mod(snf, [6], 0)
    assert x == [2]
    assert solve_mod(snf, [7], 0) is None


# --- byte-lane rows over F3..F13 against the tuple rows -----------------

LANE_PRIMES = [3, 5, 7, 11, 13]
# 255..257 columns put a pivot past the 255th lane and a product's inner
# sum over 257 terms, each up to (p - 1)^2
LANE_WIDTHS = st.sampled_from([0, 1, 2, 3, 5, 255, 256, 257])


def _tuple_rows():
    """A context in which a Field built keeps its rows as tuples, as Q does."""
    from unittest import mock
    import satokit.exactlin
    return mock.patch.dict(satokit.exactlin._LANES, clear=True)


def _lanes_and_tuples(views):
    """views() computed on lane rows, and again on tuple rows."""
    lanes = views()
    with _tuple_rows():
        return lanes, views()


def _fill(data, p, nrows, ncols):
    """nrows x ncols entries: random, or only 0, 1 and p - 1 (the largest
    lane sums), or all p - 1; sometimes with one zero row."""
    rng = data.draw(st.randoms(use_true_random=False))
    kind = data.draw(st.sampled_from(["random", "extreme", "max"]))
    values = {"random": range(p), "extreme": (0, 1, p - 1),
              "max": (p - 1,)}[kind]
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    if rows and data.draw(st.booleans()):
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows


def _maybe(f):
    """f()'s matrix as its entries, or None, an int, or "ValueError"."""
    try:
        out = f()
    except ValueError:
        return "ValueError"
    return out if out is None or isinstance(out, int) else out.entries


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lane_matrices_agree_with_tuple_rows(data):
    p = data.draw(st.sampled_from(LANE_PRIMES))
    r, c = data.draw(st.integers(0, 5)), data.draw(LANE_WIDTHS)
    k = data.draw(st.sampled_from([0, 1, 3]))
    a, b = _fill(data, p, r, c), _fill(data, p, c, k)
    sq, t = _fill(data, p, r, r), _fill(data, p, 2, c)

    def views():
        field = Field(p)
        m, sm = Matrix(field, a, c), Matrix(field, sq, r)
        ker = m.left_kernel()
        return (m.rank(), m.row_space().rows, ker.rows, ker.pivots,
                m.mul(Matrix(field, b, k)).entries, m.transpose().entries,
                m.neg().entries, m.is_zero(), sm.det(), _maybe(sm.inverse),
                _maybe(lambda: m.solve(Matrix(field, a + a[:1], c))),
                _maybe(lambda: m.solve(Matrix(field, t, c))))
    lanes, tuples = _lanes_and_tuples(views)
    assert lanes == tuples


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lane_subspaces_and_quotients_agree_with_tuple_rows(data):
    p = data.draw(st.sampled_from(LANE_PRIMES))
    c = data.draw(LANE_WIDTHS)
    u = _fill(data, p, data.draw(st.integers(0, 4)), c)
    w = _fill(data, p, data.draw(st.integers(0, 4)), c)
    vs = _fill(data, p, 3, c) + u + w

    def views():
        field = Field(p)
        su, sw = (Subspace.from_rows(field, c, x) for x in (u, w))
        meet, join = su.meet(sw), su.join(sw)
        q_u, q_join = Quotient(meet, su), Quotient(meet, join)
        return (meet.rows, meet.pivots, join.rows, join.pivots,
                su.contains(sw), join.contains(su), meet.contains(su),
                [su.contains_vector(v) for v in vs],
                [su.proj_coords(v) for v in vs],
                quotient_map(su).matrix.entries, su.nonpivots(),
                _maybe(lambda: su.coordinates(Matrix(field, vs, c))),
                [q_join.coords(v) for v in vs],
                [q_join.lift(i) for i in range(q_join.dim)],
                _maybe(lambda: q_u.map_to(q_join)),
                _maybe(lambda: q_join.map_to(q_u)))
    lanes, tuples = _lanes_and_tuples(views)
    assert lanes == tuples


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_lane_long_eliminations_and_sums_agree_with_tuple_rows(p):
    # 110 rows of 120 columns, each new row updated by up to 109 others
    rng = random.Random(p)
    rows = [[rng.choice((0, 1, p - 1)) for _ in range(120)]
            for _ in range(110)]
    rows += [[(x + y) % p for x, y in zip(rows[0], rows[1])]]

    def views():
        field = Field(p)
        m, ker = Matrix(field, rows), Matrix(field, rows).left_kernel()
        # a sum of 257 terms (p - 1)^2, reduced before a lane passes 255
        top = Matrix(field, [[p - 1] * 257] * 2).mul(
            Matrix(field, [[p - 1] * 3] * 257))
        return (m.row_space().rows, ker.rows, ker.pivots, m.rank(),
                top.entries, m.mul(m.transpose()).entries)
    lanes, tuples = _lanes_and_tuples(views)
    assert lanes == tuples


def test_lane_rows_are_the_internal_form():
    # F3..F13 keep one int per row, F17 and Q tuples; the views are tuples
    for field, form in ((F5, int), (Field(13), int), (Field(17), tuple),
                        (QQ, tuple)):
        m = Matrix(field, [[1, 2, 0], [0, 1, 1]])
        s = m.row_space()
        q = Quotient(Subspace.zero(field, 3), s)
        for row in (m._rows[0], s._rows[0], q._basis[0]):
            assert type(row) is form
        assert type(m.entries[0]) is tuple and type(s.rows[0]) is tuple
        assert type(q.lift(0)) is tuple and q.coords((0, 1, 1)) == (0, 1)
    with _tuple_rows():  # the oracle of the tests above
        assert type(Matrix(Field(5), [[1, 2]])._rows[0]) is tuple
    # scalars are checked and reduced before they are packed
    m = Matrix(F5, [[Fraction(6), -1, 10 ** 30]])
    assert m.entries == ((1, 4, 0),) and m._rows == (1 | 4 << 8,)
    with pytest.raises(ValueError):
        Matrix(F5, [[Fraction(1, 2)]])
    # and so are the vectors of contains_vector, proj_coords and coords
    s = Subspace.from_rows(F5, 2, [(1, 0)])
    assert s.contains_vector((6, -5)) and not s.contains_vector((0, 6))
    assert s.proj_coords((7, -4)) == (1,)
    assert Quotient(Subspace.zero(F5, 2), s).coords((-4, 10)) == (1,)


# --- immutable values: slots filled once, never reassigned or deleted -------

def _values():
    """One value of each immutable class, each a subclass of Value."""
    from satokit.abgroup import ZZ, AbelianGroup, GroupHom
    from satokit.detline import GradedLine, LineIso
    from satokit.dimtorsor import DimTheory, RelTheory
    from satokit.exactcat import LinMap, split_ses
    from satokit.laurent import LaurentMatrix, LaurentPoly
    from satokit.tate import TateSpace, lattice_normalize, split_tate_ses
    m = Matrix(F5, [[1, 2], [3, 4]])
    line = GradedLine(F5, 1, "e1")
    # fresh groups and fields, not the shared ZZ and F5, so a deletion that
    # wrongly succeeds harms no other test
    return [AbelianGroup((0, 2)),
            ZZ.elem((3,)),
            GroupHom.identity(ZZ),
            line,
            LineIso(line, line, 2),
            DimTheory.universal(),
            RelTheory.standard(DimTheory.universal(), TateSpace(F5, 1)),
            LinMap.of(m),
            split_ses(F5, 1, 1),
            Field(7),
            m,
            m.row_space(),
            Quotient(Subspace.zero(F5, 2), m.row_space()),
            LaurentPoly(F5, [(1, 2)]),
            LaurentMatrix.identity(F5, 2),
            TateSpace(F5, 1),
            lattice_normalize(TateSpace(F5, 1), -1, 1, [[1, 2]]),
            split_tate_ses(F5, 1, 1)]


def test_values_cover_every_value_class():
    # a new immutable class must inherit Value and be listed in _values()
    from satokit.exactlin import Value

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    listed = {type(v) for v in _values()}  # imports every defining module
    assert set(subclasses(Value)) == listed


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_refuse_assignment(value):
    # every slot, and a name that is not one, refuses assignment and
    # deletion after construction, and the value and its hash are unchanged
    names = type(value).__slots__
    before = [getattr(value, name) for name in names], hash(value)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert ([getattr(value, name) for name in names], hash(value)) == before


@pytest.mark.parametrize("field", [F2, F5, Field(17), QQ],
                         ids=["F2", "F5", "F17", "Q"])
def test_trusted_values_equal_checked_ones(field):
    # the Matrix, Subspace and Lattice values built by _raw (products,
    # transposes, stacks, row spaces, kernels, meets, joins) and _stripped
    # (tate's meet and join) equal, in == and hash, the ones their checking
    # constructors build from the same entries
    from satokit.tate import (TateSpace, lattice_join, lattice_meet,
                              lattice_normalize)
    rng = random.Random(31)
    p = field.p or 7

    def draw(r, c):
        return Matrix(field, [[rng.randrange(p) if rng.random() < 0.6 else 0
                               for _ in range(c)] for _ in range(r)], c)

    def same(x, y):
        assert x == y and hash(x) == hash(y)

    for r, k, c in [(0, 2, 3), (2, 0, 3), (3, 2, 0), (2, 3, 4), (4, 4, 4),
                    (3, 5, 2)] * 3:
        a, b = draw(r, k), draw(k, c)
        for m in (a.mul(b), a.transpose(), a.hstack(draw(r, 2)),
                  a.vstack(draw(1, k)), Matrix.identity(field, r),
                  Matrix.zero(field, r, k)):
            same(m, Matrix(field, m.entries, m.ncols))
        for s in (a.row_space(), a.left_kernel(), a.right_kernel(),
                  a.row_space().meet(draw(2, k).row_space()),
                  a.row_space().join(draw(2, k).row_space()),
                  Subspace.zero(field, k), Subspace.full(field, k)):
            same(s, Subspace.from_rows(field, s.ambient, s.rows))
    space = TateSpace(field, 2)
    for _ in range(10):
        x, y = (lattice_normalize(space, -1, 2, draw(3, 6).entries)
                for _ in range(2))
        for lat in (x, lattice_meet(x, y), lattice_join(x, y)):
            same(lat, lattice_normalize(space, lat.lo, lat.hi, lat.rows))
