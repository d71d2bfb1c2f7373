import pytest

from satokit.exactlin import F2, F5, QQ
from satokit.laurent import (
    MAX_ECHELON_WORK, EchelonTooLarge, LaurentMatrix, LaurentPoly, _echelon,
    _echelon_work, left_inverse, poly_divmod, right_inverse,
)


def P(field, *terms):
    return LaurentPoly(field, terms)


def test_poly_canonical():
    p = LaurentPoly(F5, [(2, 3), (0, 1), (2, 2)])
    assert p.terms == ((0, 1),)  # 3 + 2 = 0 mod 5
    assert LaurentPoly(F5, {1: 5}).is_zero()


def test_poly_arith():
    p = P(F5, (-1, 2), (1, 1))
    q = P(F5, (0, 3))
    assert p.mul(q).terms == ((-1, 1), (1, 3))
    assert p.add(p.neg()).is_zero()
    assert p.shift(2).val() == 1
    assert p.deg() == 1


def test_poly_divmod_and_gcd():
    # (t^2 - 1) = (t - 1)(t + 1) over F_5
    a = P(F5, (2, 1), (0, 4))
    b = P(F5, (1, 1), (0, 4))  # t - 1
    q, r = poly_divmod(a, b)
    assert r.is_zero()
    assert q.terms == ((0, 1), (1, 1))  # t + 1
    # Euclid by poly_divmod: gcd(t^2 - 1, t^2 + 3t - 4) = t - 1
    c = P(F5, (2, 1), (1, 3), (0, 1))  # (t - 1)(t + 4)
    while not c.is_zero():
        a, c = c, poly_divmod(a, c)[1]
    assert a.scale(F5.inv(a.terms[-1][1])) == b


def _rank(m):
    """Rank over k(t): the pivot count of the echelon form."""
    return len(_echelon(m)[2])


def test_rank():
    t = P(F2, (1, 1))
    one = LaurentPoly.one(F2)
    z = LaurentPoly.zero(F2)
    m = LaurentMatrix(F2, [[one, t], [t, t.mul(t)]])
    assert _rank(m) == 1  # second row = t * first row
    m2 = LaurentMatrix(F2, [[one, t], [t, one]])
    assert _rank(m2) == 2  # det = 1 - t^2 != 0
    assert _rank(LaurentMatrix.zero(F2, 2, 3)) == 0


def test_mul_refuses_mixed_fields():
    # an F5 entry must not pass as an F2 one
    with pytest.raises(ValueError, match="field mismatch"):
        LaurentMatrix(F2, [[P(F2, (0, 1))]]).mul(
            LaurentMatrix(F5, [[P(F5, (0, 3))]]))


def test_constructor_refuses_an_entry_over_another_field():
    # an F5 entry of an F2 matrix once multiplied as the F2 entry 1
    with pytest.raises(ValueError, match="over F2"):
        LaurentMatrix(F2, [[P(F5, (0, 3))]])
    with pytest.raises(ValueError, match="over F5"):
        LaurentMatrix(F5, [[P(F5, (0, 1)), P(F2, (1, 1))]])


def test_constructor_refuses_an_entry_that_is_no_laurent_polynomial():
    # a bare scalar was accepted, and mul then failed on its missing terms
    with pytest.raises(ValueError, match="over F2"):
        LaurentMatrix(F2, [[1]])
    with pytest.raises(ValueError, match="over F5"):
        LaurentMatrix(F5, [[P(F5, (0, 1))], [((0, 1),)]])


def test_right_inverse():
    t = P(F5, (1, 1))
    one = LaurentPoly.one(F5)
    z = LaurentPoly.zero(F5)
    m = LaurentMatrix(F5, [[one, t, z]])  # 1x3, rank 1
    b, d = right_inverse(m)
    assert d == one
    # verify m . b == I_1 exactly
    assert m.mul(b) == LaurentMatrix.identity(F5, 1)


def test_right_inverse_valuation():
    # i = multiplication by t: right inverse is 1/t with valuation -1
    t = P(QQ, (1, 1))
    m = LaurentMatrix(QQ, [[t]])
    b, d = right_inverse(m)
    assert b.min_valuation() - d.val() == -1
    # and by 1 + t: 1/(1 + t) is over a denominator, with valuation 0
    b, d = right_inverse(LaurentMatrix(QQ, [[P(QQ, (0, 1), (1, 1))]]))
    assert d == P(QQ, (0, 1), (1, 1)) and b.min_valuation() - d.val() == 0


def test_left_inverse():
    t = P(F5, (1, 1))
    one = LaurentPoly.one(F5)
    m = LaurentMatrix(F5, [[one], [t]])  # 2x1, full column rank
    c, d = left_inverse(m)
    assert d == one
    assert c.mul(m) == LaurentMatrix.identity(F5, 1)


def test_solve_right_unsolvable():
    z = LaurentPoly.zero(F2)
    one = LaurentPoly.one(F2)
    m = LaurentMatrix(F2, [[one, z]])
    # no X with [1 0] X = I works when the rhs needs the second coordinate
    m2 = LaurentMatrix(F2, [[z, z]])
    assert right_inverse(m2) is None


def _count_divmods(monkeypatch):
    import satokit.laurent
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_divmod(a, b)

    monkeypatch.setattr(satokit.laurent, "poly_divmod", counted)
    return calls


def test_echelon_steps_within_the_work_bound(monkeypatch):
    # the Euclidean steps (poly_divmod calls) of _echelon against the bound
    # read off its input, on seeded random matrices whose rows mix dense
    # entries, monomials and zeros at scattered valuations
    import random
    rng = random.Random(11)
    calls = _count_divmods(monkeypatch)

    def entry(field, size, spread):
        v, kind = rng.randint(-spread, spread), rng.random()
        if kind < 0.2:
            return LaurentPoly.zero(field)
        if kind < 0.5:
            return LaurentPoly(field, {v: rng.randrange(1, field.p)})
        return LaurentPoly(field, {e: rng.randrange(field.p) for e in
                                   range(v, v + rng.randint(0, size) + 1)})

    for _ in range(1500):
        field = rng.choice([F2, F5])
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        size, spread = rng.randint(0, 6), rng.randint(0, 8)
        m = LaurentMatrix(field, [[entry(field, size, spread)
                                   for _ in range(c)] for _ in range(r)], c)
        calls.clear()
        _echelon(m)
        assert len(calls) <= (r - 1) * (_echelon_work(m) + c)
    # one column: each round lowers the least size, from at most 5 here
    t = P(F5, (0, 1), (5, 1))
    m = LaurentMatrix(F5, [[t], [P(F5, (-3, 2), (4, 1), (9, 3))], [t.mul(t)]])
    calls.clear()
    _echelon(m)
    assert 0 < len(calls) <= 2 * (5 + 1)


def test_echelon_refuses_past_the_work_cap(monkeypatch):
    # the work is the sum of the row spans, so monomials far apart in one
    # row count too; the refusal comes before any Euclidean step
    calls = _count_divmods(monkeypatch)
    one, far = P(F5, (0, 1)), P(F5, (MAX_ECHELON_WORK + 1, 1))
    wide = LaurentMatrix(F5, [[one, far]])
    assert _echelon_work(wide) == MAX_ECHELON_WORK + 1
    assert _echelon_work(wide.transpose()) == 0
    with pytest.raises(EchelonTooLarge, match="over the cap of"):
        left_inverse(wide)
    deep = LaurentMatrix(F5, [[P(F5, (-1, 1), (MAX_ECHELON_WORK, 2))],
                              [one]])
    with pytest.raises(EchelonTooLarge):
        left_inverse(deep)
    assert calls == []
    assert right_inverse(wide)[1] == one
    at_cap = LaurentMatrix(F5, [[P(F5, (0, 1), (MAX_ECHELON_WORK - 1, 2))],
                                [one]])
    assert _echelon_work(at_cap) == MAX_ECHELON_WORK - 1
    assert left_inverse(at_cap) is not None

# --- the trusted constructors agree with the checking one ------------------

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from satokit.tate import TateSES, split_tate_ses, twisted_split

FIELDS = [F2, F5, QQ]


def _coeffs(field):
    if field.is_rational:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(-2 * field.p, 2 * field.p)


@st.composite
def field_and_terms(draw, n=2):
    """A field and n raw term lists over it, with repeated exponents and
    coefficients that may cancel."""
    field = draw(st.sampled_from(FIELDS))
    term = st.tuples(st.integers(-3, 3), _coeffs(field))
    return (field,) + tuple(draw(st.lists(term, max_size=6))
                            for _ in range(n))


def _naive(field, *term_lists, op):
    """The operation on plain dicts, handed to the checking constructor."""
    d1, d2 = ({} for _ in range(2))
    for d, terms in zip((d1, d2), term_lists):
        for e, c in terms:
            d[e] = d.get(e, 0) + Fraction(c)
    out = {}
    if op in ("add", "sub"):
        sign = 1 if op == "add" else -1
        for e in set(d1) | set(d2):
            out[e] = d1.get(e, 0) + sign * d2.get(e, 0)
    else:
        for e1, c1 in d1.items():
            for e2, c2 in d2.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    if field.is_rational:
        return LaurentPoly(field, out)
    # exact sums over Z reduce to the same class mod p as the field ones
    return LaurentPoly(field, {e: int(c) for e, c in out.items()})


def _same(a, b):
    assert a.terms == b.terms
    assert hash(a) == hash(b)
    assert a == b


@settings(max_examples=200, deadline=None)
@given(field_and_terms())
def test_binary_ops_equal_checking_path(data):
    field, t1, t2 = data
    a, b = LaurentPoly(field, t1), LaurentPoly(field, t2)
    for op in ("add", "sub", "mul"):
        _same(getattr(a, op)(b), _naive(field, a.terms, b.terms, op=op))


@settings(max_examples=200, deadline=None)
@given(field_and_terms(n=1), st.integers(-4, 4), st.integers(-7, 7))
def test_unary_ops_equal_checking_path(data, k, c):
    field, t = data
    a = LaurentPoly(field, t)
    _same(a.neg(), LaurentPoly(field, [(e, -x) for e, x in a.terms]))
    for s in (c, 0):
        _same(a.scale(s), LaurentPoly(field, [(e, s * x)
                                              for e, x in a.terms]))
    for s in (k, 0):
        _same(a.shift(s), LaurentPoly(field, [(e + s, x)
                                              for e, x in a.terms]))


def _checked(m):
    """m rebuilt through the checking constructor."""
    return LaurentMatrix(m.field, [list(r) for r in m.entries], m.ncols)


def _same_matrix(m, want):
    assert type(m.entries) is tuple and all(type(r) is tuple
                                            for r in m.entries)
    assert (m.nrows, m.ncols) == (want.nrows, want.ncols)
    assert m == want and hash(m) == hash(want)


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_trusted_matrices_equal_checked_ones(field):
    # products, transposes, twisted_split's slices, identities, zeros and
    # one-sided inverses are built by LaurentMatrix._raw; each equals, in ==
    # and hash, the matrix of the same entries built by LaurentMatrix(...),
    # 0 x n and n x 0 shapes included
    import random
    from satokit.verify import rand_automorphism
    from test_tate import _rational_automorphism
    rng = random.Random(29)
    scalars = [1, 2, -1, Fraction(1, 2)] if field.is_rational else [1, 2, 3]

    def draw(r, c):
        return LaurentMatrix(field, [[P(field, *[
            (rng.randint(-2, 2), rng.choice(scalars))
            for _ in range(rng.randint(0, 2))]) for _ in range(c)]
            for _ in range(r)], c)

    z = LaurentPoly.zero(field)
    for r, k, c in [(0, 2, 3), (2, 0, 3), (3, 2, 0), (0, 0, 0), (2, 3, 0),
                    (1, 1, 1), (2, 2, 2), (3, 2, 3), (2, 3, 1)] * 3:
        a, b = draw(r, k), draw(k, c)
        prod = [[z] * c for _ in range(r)]
        for i in range(r):
            for j in range(c):
                for q in range(k):
                    prod[i][j] = prod[i][j].add(a[i, q].mul(b[q, j]))
        _same_matrix(a.mul(b), LaurentMatrix(field, prod, c))
        _same_matrix(a.transpose(), LaurentMatrix(
            field, [[a[i, j] for i in range(r)] for j in range(k)], r))
        _same_matrix(a.transpose().transpose(), a)
        for m in (LaurentMatrix.identity(field, r),
                  LaurentMatrix.zero(field, r, k), a.mul(b)):
            _same_matrix(m, _checked(m))
        for inverse in (right_inverse, left_inverse):
            nd = inverse(a)
            if nd is not None:
                _same_matrix(nd[0], _checked(nd[0]))
    for n in range(1, 4):
        aut, aut_inv = (_rational_automorphism(rng, n) if field.is_rational
                        else rand_automorphism(rng, field, n))
        rows, cols = aut.entries, aut_inv.entries
        for a in range(n + 1):
            ses = twisted_split(aut, aut_inv, a)
            _same_matrix(ses.i, LaurentMatrix(field, rows[:a], n))
            _same_matrix(ses.j, LaurentMatrix(
                field, [r[a:] for r in cols], n - a))
            _same_matrix(ses.ri[0], LaurentMatrix(
                field, [r[:a] for r in cols], a))
            _same_matrix(ses.lj[0], LaurentMatrix(field, rows[a:], n))
    one = LaurentPoly.one(field)
    assert LaurentMatrix.identity(field, 2) == LaurentMatrix(
        field, [[one, z], [z, one]])
    with pytest.raises(ValueError, match="ragged"):
        LaurentMatrix(field, [[one, z], [one]])
    with pytest.raises(ValueError, match="ragged"):
        LaurentMatrix(field, [[], [one]])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_product_equals_entrywise_sums(data):
    # the product kernel against the sum over q of a[i, q] b[q, j] by
    # LaurentPoly.mul and add: entries of up to three terms, 0 x k and
    # k x 0 shapes, and [a | a] . [b ; -b], whose every entry cancels to 0
    field = data.draw(st.sampled_from(FIELDS))
    r, k, c = (data.draw(st.integers(0, 3)) for _ in range(3))
    term = st.tuples(st.integers(-2, 2), _coeffs(field))

    def draw(nrows, ncols):
        return [[LaurentPoly(field, data.draw(st.lists(term, max_size=3)))
                 for _ in range(ncols)] for _ in range(nrows)]

    a, b = draw(r, k), draw(k, c)
    cancel = data.draw(st.booleans())
    if cancel:
        a = [row + row for row in a]
        b = b + [[y.neg() for y in row] for row in b]
        k *= 2
    z = LaurentPoly.zero(field)
    want = [[z] * c for _ in range(r)]
    for i in range(r):
        for j in range(c):
            for q in range(k):
                want[i][j] = want[i][j].add(a[i][q].mul(b[q][j]))
    got = LaurentMatrix(field, a, k).mul(LaurentMatrix(field, b, c))
    _same_matrix(got, LaurentMatrix(field, want, c))
    assert got.is_zero() or not cancel


def test_seed_inverses_rejects_perturbed_entry():
    one = LaurentPoly.one(F5)
    ses = split_tate_ses(F5, 1, 1)
    ri = LaurentMatrix(F5, [[one], [LaurentPoly.zero(F5)]])
    TateSES(ses.i, ses.j, ri=(ri, one))
    bad = LaurentMatrix(F5, [[P(F5, (0, 1), (1, 1))],
                             [LaurentPoly.zero(F5)]])
    with pytest.raises(ValueError):
        TateSES(ses.i, ses.j, ri=(bad, one))
    lj = LaurentMatrix(F5, [[LaurentPoly.zero(F5), one]])
    TateSES(ses.i, ses.j, lj=(lj, one))
    bad = LaurentMatrix(F5, [[LaurentPoly.zero(F5), P(F5, (0, 2))]])
    with pytest.raises(ValueError):
        TateSES(ses.i, ses.j, lj=(bad, one))
    # the same seeds over d = 2 + 2t, scaled to match, pass too
    d = P(F5, (0, 2), (1, 2))
    TateSES(ses.i, ses.j, ri=(LaurentMatrix(F5, [[d], [P(F5)]]), d),
            lj=(LaurentMatrix(F5, [[P(F5), d]]), d))


def test_seed_inverses_rejects_wrong_shape():
    # i = (1, 0) times the 2 x 2 matrix [[1, 0], [0, 0]] is (1, 0): the
    # identity in its first column, but not a 1 x 1 identity
    one, z = LaurentPoly.one(F5), LaurentPoly.zero(F5)
    ses = split_tate_ses(F5, 1, 1)
    with pytest.raises(ValueError):
        TateSES(ses.i, ses.j, ri=(LaurentMatrix(F5, [[one, z], [z, z]]), one))
    with pytest.raises(ValueError):
        TateSES(ses.i, ses.j, lj=(LaurentMatrix(F5, [[z, one], [z, z]]), one))


def test_seed_inverses_refuse_denominator_zero():
    # N . j = 0 . I holds for every N, so a zero d proves nothing
    z = LaurentPoly.zero(F5)
    ses = split_tate_ses(F5, 1, 1)
    for n in (LaurentMatrix.zero(F5, 2, 1), ses.ri[0]):
        with pytest.raises(ValueError, match="denominator 0"):
            TateSES(ses.i, ses.j, ri=(n, z))
    for n in (LaurentMatrix.zero(F5, 1, 2), ses.lj[0]):
        with pytest.raises(ValueError, match="denominator 0"):
            TateSES(ses.i, ses.j, lj=(n, z))


# --- poly_divmod against sympy over F_p and Q --------------------------------

@settings(max_examples=120, deadline=None)
@given(st.data())
def test_poly_divmod_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    field = data.draw(st.sampled_from(FIELDS))
    term = st.tuples(st.integers(0, 4), _coeffs(field))

    def poly():
        return LaurentPoly(field, data.draw(st.lists(term, max_size=4)))

    a, b = poly(), poly()
    assume(not b.is_zero())
    t = sympy.Symbol("t")
    dom = sympy.QQ if field.is_rational else sympy.GF(field.p)

    def to_sympy(x):
        return sympy.Poly.from_dict(
            {(e,): sympy.Rational(c.numerator, c.denominator)
             for e, c in x.terms} or {(0,): 0}, t, domain=dom)

    def terms(x):
        if field.is_rational:
            return {e: Fraction(int(c.p), int(c.q))
                    for (e,), c in x.as_dict().items()}
        return {e: int(c) % field.p for (e,), c in x.as_dict().items()}

    q, r = poly_divmod(a, b)
    want_q, want_r = sympy.div(to_sympy(a), to_sympy(b))
    assert dict(q.terms) == terms(want_q)
    assert dict(r.terms) == terms(want_r)


# --- rank and one-sided inverses against sympy over k(t) -------------------

def _entries(draw, field, nrows, ncols):
    term = st.tuples(st.integers(-2, 2), _coeffs(field))
    return [[LaurentPoly(field, draw(st.lists(term, max_size=2)))
             for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def laurent_matrices(draw):
    """A 1..4 x 1..4 Laurent matrix; about a third of them are products
    through a smaller inner dimension, so rank deficient."""
    field = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        left = LaurentMatrix(field, _entries(draw, field, nrows, k), k)
        right = LaurentMatrix(field, _entries(draw, field, k, ncols), ncols)
        return left.mul(right)
    return LaurentMatrix(field, _entries(draw, field, nrows, ncols), ncols)


def _sympy(m):
    """m as a sympy DomainMatrix over k(t)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    t = sympy.Symbol("t")
    if m.field.is_rational:
        dom = sympy.QQ.frac_field(t)
    else:
        dom = sympy.GF(m.field.p).frac_field(t)

    def conv(x):
        return dom.convert(sum((sympy.Rational(c.numerator, c.denominator)
                                if m.field.is_rational else int(c)) * t ** e
                               for e, c in x.terms))

    rows = [[conv(x) for x in row] for row in m.entries]
    return DomainMatrix(rows, (m.nrows, m.ncols), dom)


def _scalar(d, n):
    """d times the n x n identity."""
    z = LaurentPoly.zero(d.field)
    return LaurentMatrix(d.field, [[d if r == c else z for c in range(n)]
                                   for r in range(n)], n)


@settings(max_examples=100, deadline=None)
@given(laurent_matrices())
def test_rank_and_inverses_against_sympy(m):
    pytest.importorskip("sympy")
    sm = _sympy(m)
    rank = _rank(m)
    assert rank == sm.rank()
    right, left = right_inverse(m), left_inverse(m)
    if rank == m.nrows:
        n, d = right
        assert not d.is_zero()
        assert sm * _sympy(n) == _sympy(_scalar(d, m.nrows))
    else:
        assert right is None
    if rank == m.ncols:
        n, d = left
        assert not d.is_zero()
        assert _sympy(n) * sm == _sympy(_scalar(d, m.ncols))
    else:
        assert left is None
    if rank == m.nrows == m.ncols:
        # a Laurent inverse exists exactly when det(m) is a unit c t^e
        det = sm.det()
        unit = len(det.numer.terms()) == len(det.denom.terms()) == 1
        one = LaurentPoly.one(m.field)
        assert (right[1] == one) == unit
        assert (left[1] == one) == unit
