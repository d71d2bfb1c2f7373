import random

import pytest

from satokit.exactlin import F2, F5, QQ
from satokit.laurent import (
    LaurentMatrix, LaurentPoly, RatFunc, left_inverse, poly_divmod, poly_gcd,
    ratfunc_min_valuation, right_inverse,
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
    g = poly_gcd(a, b)
    assert g == b.monic()


def test_ratfunc_normalization():
    # (t^2 - t) / t^3 = t^-1 - t^-2, valuation -2
    num = P(QQ, (2, 1), (1, -1))
    den = P(QQ, (3, 1))
    f = RatFunc(num, den)
    assert f.val() == -2
    g = f.mul(RatFunc.from_poly(den))
    assert g == RatFunc.from_poly(num)


def test_ratfunc_field_ops():
    rng = random.Random(5)
    for _ in range(30):
        def rand_poly():
            return LaurentPoly(F5, [(e, rng.randrange(5))
                                    for e in range(-2, 3)])
        a, b = rand_poly(), rand_poly()
        c = rand_poly()
        if c.is_zero():
            continue
        fa, fb, fc = (RatFunc.from_poly(a), RatFunc.from_poly(b),
                      RatFunc.from_poly(c))
        # (a/c + b/c) * c == a + b
        s = fa.div(fc).add(fb.div(fc)).mul(fc)
        assert s == fa.add(fb)


def test_rank():
    t = P(F2, (1, 1))
    one = LaurentPoly.one(F2)
    z = LaurentPoly.zero(F2)
    m = LaurentMatrix(F2, [[one, t], [t, t.mul(t)]])
    assert m.rank() == 1  # second row = t * first row
    m2 = LaurentMatrix(F2, [[one, t], [t, one]])
    assert m2.rank() == 2  # det = 1 - t^2 != 0
    assert LaurentMatrix.zero(F2, 2, 3).rank() == 0


def test_right_inverse():
    t = P(F5, (1, 1))
    one = LaurentPoly.one(F5)
    z = LaurentPoly.zero(F5)
    m = LaurentMatrix(F5, [[one, t, z]])  # 1x3, rank 1
    b = right_inverse(m)
    assert b is not None
    # verify m . b == I_1 exactly
    acc = RatFunc.from_poly(z)
    for k in range(3):
        acc = acc.add(RatFunc.from_poly(m[0, k]).mul(
            RatFunc.from_poly(b[k][0])))
    assert acc == RatFunc.from_poly(one)


def test_right_inverse_valuation():
    # i = multiplication by t: right inverse is 1/t with valuation -1
    t = P(QQ, (1, 1))
    m = LaurentMatrix(QQ, [[t]])
    b = right_inverse(m)
    assert ratfunc_min_valuation(b) == -1


def test_left_inverse():
    t = P(F5, (1, 1))
    one = LaurentPoly.one(F5)
    z = LaurentPoly.zero(F5)
    m = LaurentMatrix(F5, [[one], [t]])  # 2x1, full column rank
    c = left_inverse(m)
    assert c is not None
    acc = RatFunc.from_poly(z)
    for k in range(2):
        acc = acc.add(RatFunc.from_poly(c[0][k]).mul(
            RatFunc.from_poly(m[k, 0])))
    assert acc == RatFunc.from_poly(one)


def test_solve_right_unsolvable():
    z = LaurentPoly.zero(F2)
    one = LaurentPoly.one(F2)
    m = LaurentMatrix(F2, [[one, z]])
    # no X with [1 0] X = I works when the rhs needs the second coordinate
    m2 = LaurentMatrix(F2, [[z, z]])
    assert right_inverse(m2) is None


# --- the trusted constructors agree with the checking one ------------------

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from satokit.tate import split_tate_ses

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


def _gcd_normalized(num, den):
    """RatFunc normalisation through the gcd, with no monomial shortcut."""
    field = num.field
    e = den.val()
    den, num = den.shift(-e), num.shift(-e)
    nv = min(num.val(), 0)
    g = poly_gcd(num.shift(-nv), den)
    num_p, r1 = poly_divmod(num.shift(-nv), g)
    den, r2 = poly_divmod(den, g)
    assert r1.is_zero() and r2.is_zero()
    inv = field.inv(den.terms[-1][1])
    return num_p.shift(nv).scale(inv), den.scale(inv)


@settings(max_examples=100, deadline=None)
@given(field_and_terms(n=1), st.integers(-3, 3), st.integers(1, 4))
def test_monomial_denominator_equals_gcd_path(data, e, c):
    field, t = data
    num = LaurentPoly(field, t)
    den = LaurentPoly.t_power(field, e, c)
    assume(not num.is_zero() and not den.is_zero())
    f = RatFunc(num, den)
    assert (f.num, f.den) == _gcd_normalized(num, den)
    assert f.den == LaurentPoly.one(field)


def test_shared_denominator_cancels_common_factor():
    # 1/(t^2 - 1) + t/(t^2 - 1) = 1/(t - 1) over F5 and Q
    for field in (F5, QQ):
        den = P(field, (2, 1), (0, -1))
        a = RatFunc(LaurentPoly.one(field), den)
        b = RatFunc(P(field, (1, 1)), den)
        assert a.den == b.den == den
        s = a.add(b)
        assert s.num == LaurentPoly.one(field)
        assert s.den == P(field, (1, 1), (0, -1))
        # the difference keeps the denominator: (1 - t)/(t^2 - 1)
        d = a.sub(b)
        assert d == RatFunc(P(field, (0, -1)), P(field, (1, 1), (0, 1)))


def test_seed_inverses_rejects_perturbed_entry():
    ses = split_tate_ses(F5, 1, 1)
    ri = LaurentMatrix(F5, [[LaurentPoly.one(F5)], [LaurentPoly.zero(F5)]])
    ses.seed_inverses(ri=ri)
    bad = LaurentMatrix(F5, [[P(F5, (0, 1), (1, 1))],
                             [LaurentPoly.zero(F5)]])
    with pytest.raises(ValueError):
        split_tate_ses(F5, 1, 1).seed_inverses(ri=bad)
    lj = LaurentMatrix(F5, [[LaurentPoly.zero(F5), LaurentPoly.one(F5)]])
    ses.seed_inverses(lj=lj)
    bad = LaurentMatrix(F5, [[LaurentPoly.zero(F5), P(F5, (0, 2))]])
    with pytest.raises(ValueError):
        split_tate_ses(F5, 1, 1).seed_inverses(lj=bad)


# --- poly_gcd against sympy over F_p and Q -----------------------------------

@settings(max_examples=120, deadline=None)
@given(st.data())
def test_poly_gcd_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    field = data.draw(st.sampled_from(FIELDS))
    term = st.tuples(st.integers(0, 4), _coeffs(field))

    def poly():
        return LaurentPoly(field, data.draw(st.lists(term, max_size=4)))

    common = poly()
    a, b = poly().mul(common), poly().mul(common)
    t = sympy.Symbol("t")
    dom = sympy.QQ if field.is_rational else sympy.GF(field.p)

    def to_sympy(x):
        return sympy.Poly.from_dict(
            {(e,): sympy.Rational(c.numerator, c.denominator)
             for e, c in x.terms}, t, domain=dom)

    want = to_sympy(a).gcd(to_sympy(b))
    if field.is_rational:
        want = {e: Fraction(int(c.p), int(c.q))
                for (e,), c in want.as_dict().items()}
    else:
        want = {e: int(c) % field.p for (e,), c in want.as_dict().items()}
    assert dict(poly_gcd(a, b).terms) == want


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


def _sympy_rank(m):
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
    return DomainMatrix(rows, (m.nrows, m.ncols), dom).rank()


@settings(max_examples=100, deadline=None)
@given(laurent_matrices())
def test_rank_and_inverses_against_sympy(m):
    pytest.importorskip("sympy")
    from satokit.tate import _verify_one_sided
    rank = m.rank()
    assert rank == _sympy_rank(m)
    b, c = right_inverse(m), left_inverse(m)
    if rank == m.nrows:
        assert _verify_one_sided(m, b, left=False)
    else:
        assert b is None
    if rank == m.ncols:
        assert _verify_one_sided(m, c, left=True)
    else:
        assert c is None
