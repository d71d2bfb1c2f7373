"""Laurent polynomials and Laurent-polynomial matrices.

Morphisms between formal-Laurent-series spaces are matrices of Laurent
polynomials acting on row vectors.  k[t, 1/t] is a Euclidean domain, so one
echelon form by Euclidean row steps gives both the rank (over k(t)) and the
one-sided inverses.  An inverse over k(t) is returned as a Laurent matrix N
over one Laurent denominator d, the product of the pivots, found by a
fraction-free back-substitution; d == 1 exactly when a Laurent inverse
exists, and then N is that inverse.

A LaurentMatrix keeps its rows as tuples of its entries' canonical term
tuples; entries, the rows as LaurentPolys, is a view built on first read.
One product kernel, _product_terms, gives each entry of a matrix product as
its term tuple, and one add kernel, _axpy_terms, gives x + c t^k y, so
products, checks and row operations in laurent, tate and verify build no
LaurentPoly.
"""

from __future__ import annotations

from .exactlin import Value, _checked_int


def _canonical(p, d):
    """Sorted nonzero terms of an exponent -> raw coefficient sum dict, the
    sums reduced mod p once each (p is None over Q)."""
    if p is None:
        return tuple(sorted([(e, c) for e, c in d.items() if c]))
    return tuple(sorted([(e, c) for e, c in
                         [(e, c % p) for e, c in d.items()] if c]))


class LaurentPoly(Value):
    """Finite map exponent -> nonzero scalar; canonical, immutable."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        d = {}
        for e, c in items:
            e = _checked_int(e, "exponent")
            d[e] = d.get(e, 0) + field.normalize(c)
        _poly_field(self, field)
        _poly_terms(self, _canonical(field.p, d))

    @classmethod
    def _raw(cls, field, terms):
        # trusted path: terms is a sorted tuple of nonzero normalized scalars
        x = object.__new__(cls)
        _poly_field(x, field)
        _poly_terms(x, terms)
        return x

    @classmethod
    def zero(cls, field):
        return cls._raw(field, ())

    @classmethod
    def one(cls, field):
        return cls._raw(field, ((0, field.one()),))

    @classmethod
    def t_power(cls, field, e, c=None):
        _checked_int(e, "exponent")
        c = field.one() if c is None else field.normalize(c)
        return cls._raw(field, ((e, c),) if c else ())

    def is_zero(self):
        return not self.terms

    def val(self):
        """Lowest exponent; raises on zero."""
        if not self.terms:
            raise ValueError("valuation of zero")
        return self.terms[0][0]

    def deg(self):
        if not self.terms:
            raise ValueError("degree of zero")
        return self.terms[-1][0]

    def add(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        return LaurentPoly._raw(self.field, _axpy_terms(
            self.field.p, self.terms, 0, 1, other.terms))

    def sub(self, other):
        if not other.terms:
            return self
        p = self.field.p
        return LaurentPoly._raw(self.field, _axpy_terms(
            p, self.terms, 0, p - 1 if p else -1, other.terms))

    def neg(self):
        p = self.field.p
        if p is None:
            terms = tuple([(e, -c) for e, c in self.terms])
        else:
            terms = tuple([(e, p - c) for e, c in self.terms])
        return LaurentPoly._raw(self.field, terms)

    def mul(self, other):
        return LaurentPoly._raw(self.field, _mul_terms(
            self.field.p, [(self.terms, other.terms)])
            if self.terms and other.terms else ())

    def _times(self, k, c):
        """Multiply by c t^k, for a nonzero normalized c."""
        return LaurentPoly._raw(self.field,
                                _times_terms(self.terms, k, c, self.field.p))

    def scale(self, c):
        c = self.field.normalize(c)
        if not c:
            return LaurentPoly._raw(self.field, ())
        return self._times(0, c)

    def shift(self, k):
        """Multiply by t^k."""
        return self._times(k, 1)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        return "+".join("%s*t^%d" % (c, e) for e, c in self.terms)


def _times_terms(terms, k, c, p):
    """The terms of c t^k times terms, for a nonzero normalized c."""
    if c == 1:
        return tuple([(e + k, x) for e, x in terms]) if k else terms
    if p is None:
        return tuple([(e + k, c * x) for e, x in terms])
    return tuple([(e + k, c * x % p) for e, x in terms])


def _axpy_terms(p, x, k, c, y):
    """The canonical terms of x + c t^k y, for term tuples x and y and a
    nonzero normalized c."""
    if not y:
        return x
    if not x:
        return _times_terms(y, k, c, p)
    d = dict(x)
    for e, b in y:
        e += k
        d[e] = d.get(e, 0) + c * b
    return _canonical(p, d)


def _mul_terms(p, prods):
    """The canonical terms of the sum of x y over the pairs (x, y) of nonzero
    term tuples in prods: one product by a monomial needs no dict."""
    x, y = prods[0]
    if len(prods) == 1 and (len(x) == 1 or len(y) == 1):
        (k, c), = x if len(x) == 1 else y
        return _times_terms(y if len(x) == 1 else x, k, c, p)
    d = {}
    for x, y in prods:
        for e1, c1 in x:
            for e2, c2 in y:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return _canonical(p, d)


def poly_divmod(a, b):
    """Division with remainder for polynomials (no negative exponents)."""
    f = a.field
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if (not a.is_zero() and a.val() < 0) or b.val() < 0:
        raise ValueError("divmod requires plain polynomials")
    rem = dict(a.terms)
    quo = {}
    bdeg = b.deg()
    blead = b.terms[-1][1]
    while rem:
        rdeg = max(rem)
        if rdeg < bdeg:
            break
        c = f.div(rem[rdeg], blead)
        quo[rdeg - bdeg] = c
        for e, bc in b.terms:
            k = e + rdeg - bdeg
            v = f.sub(rem.get(k, f.zero()), f.mul(c, bc))
            if v == 0:
                rem.pop(k, None)
            else:
                rem[k] = v
    return (LaurentPoly._raw(f, tuple(sorted(quo.items()))),
            LaurentPoly._raw(f, tuple(sorted(rem.items()))))


class LaurentMatrix(Value):
    """Matrix of Laurent polynomials; acts on row vectors.  Its rows are
    kept as tuples of term tuples; entries is a view built on first read."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_entries")

    def __init__(self, field, entries, ncols=None):
        rows = [tuple(row) for row in entries]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
        if any(not isinstance(x, LaurentPoly) or x.field != field
               for r in rows for x in r):
            raise ValueError("entry is not a Laurent polynomial over %s"
                             % field)
        self._init(field, tuple([tuple([x.terms for x in r]) for r in rows]),
                   ncols or 0, tuple(rows))

    def _init(self, field, rows, ncols, entries=None):
        _mat_field(self, field)
        _mat_nrows(self, len(rows))
        _mat_ncols(self, ncols)
        _mat_rows(self, rows)
        _mat_entries(self, entries)

    @classmethod
    def _raw(cls, field, rows, ncols):
        # trusted path: rows is a tuple of tuples of ncols canonical term
        # tuples
        m = object.__new__(cls)
        m._init(field, rows, ncols)
        return m

    @property
    def entries(self):
        if self._entries is None:
            f, raw = self.field, LaurentPoly._raw
            _mat_entries(self, tuple([tuple([raw(f, t) for t in r])
                                      for r in self._rows]))
        return self._entries

    @classmethod
    def identity(cls, field, n):
        z, one = ((),) * n, (((0, field.one()),),)
        return cls._raw(field, tuple([z[:i] + one + z[i + 1:]
                                      for i in range(n)]), n)

    @classmethod
    def zero(cls, field, r, c):
        return cls._raw(field, (((),) * c,) * r, c)

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix) and self.field == other.field
                and self.ncols == other.ncols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self._rows))

    def __repr__(self):
        return "LaurentMatrix(%s, %dx%d)" % (self.field, self.nrows,
                                             self.ncols)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def mul(self, other):
        return LaurentMatrix._raw(self.field, _product_terms(self, other),
                                  other.ncols)

    def transpose(self):
        return LaurentMatrix._raw(self.field, tuple(zip(*self._rows))
                                  if self._rows else ((),) * self.ncols,
                                  self.nrows)

    def is_zero(self):
        return not any(map(any, self._rows))

    def min_valuation(self):
        """Least entry valuation; None for the zero matrix."""
        vals = [t[0][0] for r in self._rows for t in r if t]
        return min(vals) if vals else None


_poly_field, _poly_terms = (LaurentPoly.field.__set__,
                            LaurentPoly.terms.__set__)
_mat_field, _mat_nrows = LaurentMatrix.field.__set__, LaurentMatrix.nrows.__set__
_mat_ncols, _mat_rows, _mat_entries = (LaurentMatrix.ncols.__set__,
                                       LaurentMatrix._rows.__set__,
                                       LaurentMatrix._entries.__set__)


def _product_terms(a, b):
    """The rows of a . b, each entry the _mul_terms of its nonzero products:
    a tuple of tuples of canonical term tuples; two shapes or fields:
    ValueError."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    if a.field != b.field:
        raise ValueError("field mismatch")
    p = a.field.p
    cols = list(zip(*b._rows)) if b._rows else [()] * b.ncols
    out = []
    for xs in a._rows:
        acc = []
        for ys in cols:
            prods = []  # a comprehension would add a call per entry
            for x, y in zip(xs, ys):
                if x and y:
                    prods.append((x, y))
            acc.append(_mul_terms(p, prods) if prods else ())
        out.append(tuple(acc))
    return tuple(out)


# an echelon form whose cost (_echelon_work + 1) x rows x cols is over
# 2 MAX_ECHELON_WORK is refused: work up to 1023 on 2 x 1 and 1 x 2, the
# slowest shapes at the cap, and less the more cells; the tests reach 1725
MAX_ECHELON_WORK = 1 << 10


class EchelonTooLarge(Exception):
    """An echelon form whose cost is past its cap."""


def _echelon_work(m):
    """The work bound of _echelon(m): the sum of the row spans of m, max deg
    - min val over a row's nonzero entries.  Scaling a row by a unit t^e
    moves no step of _echelon and makes it a polynomial row of degree its
    span, so no entry starts with a size deg - val above that span.  In one
    column each round of Euclidean steps lowers the least size; over
    several columns the poly_divmod calls stay under (rows - 1) (work +
    columns) on random matrices, a measured bound, not a proven one.  Entry
    sizes alone would miss rows like (t^N, 1), whose elimination against
    (1, 1) leaves 1 - t^N."""
    work = 0
    for row in m._rows:
        terms = [t for t in row if t]
        if terms:
            work += max(t[-1][0] for t in terms) - min(t[0][0] for t in terms)
    return work


def _echelon(m):
    """(H, U, pivots) with U . m == H in row echelon form over k[t, 1/t], U
    invertible there, and pivots the columns of H's leading entries.

    Refuses with EchelonTooLarge, before any step, when (_echelon_work(m) +
    1) rows cols is past 2 MAX_ECHELON_WORK: Euclid over k[t] costs the square
    of the degrees, and each of its steps updates whole rows.

    Reduces m | identity by Euclidean steps: in each column the entry of least
    size deg - val (0 exactly on the units c t^e) divides the others with
    remainder, by poly_divmod of the entries shifted to valuation 0, until
    one is left.  Its row is then scaled by a unit, so that the pivot has
    valuation 0 and leading coefficient 1: a unit pivot becomes 1.
    """
    work, n, ncols = _echelon_work(m), m.nrows, m.ncols
    if (work + 1) * n * ncols > 2 * MAX_ECHELON_WORK:
        raise EchelonTooLarge("an echelon form of work %d on %d x %d is over "
                              "the cap of %d for (work + 1) x rows x cols"
                              % (work, n, ncols, 2 * MAX_ECHELON_WORK))
    f = m.field
    one, z = LaurentPoly.one(f), LaurentPoly.zero(f)
    rows = [list(r) + [one if i == j else z for j in range(n)]
            for i, r in enumerate(m.entries)]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        if top == n:
            break
        while True:
            live = [r for r in range(top, n) if rows[r][col].terms]
            if not live:
                break
            best = min(live, key=lambda r: rows[r][col].deg()
                       - rows[r][col].val())
            rows[top], rows[best] = rows[best], rows[top]
            a = rows[top][col]
            va = a.val()
            if len(live) == 1:
                c = f.inv(a.terms[-1][1])
                rows[top][col:] = [x._times(-va, c) for x in rows[top][col:]]
                pivots.append(col)
                break
            a0 = a.shift(-va)
            for r in range(top + 1, n):
                b = rows[r][col]
                if b.terms:
                    vb = b.val()
                    q = poly_divmod(b.shift(-vb), a0)[0].shift(vb - va)
                    rows[r][col:] = [x.sub(q.mul(y)) for x, y in
                                     zip(rows[r][col:], rows[top][col:])]
    return ([r[:ncols] for r in rows], [r[ncols:] for r in rows], pivots)


def _left_inverse_rows(m):
    """(rows of N, d) with N . m == d . identity, for m (b x c) of full
    column rank; None otherwise.

    N/d = H1^-1 . U1, from the top c x c block H1 of H and the top c rows U1
    of U.  The back-substitution runs bottom up with no division: before row
    k, the rows below it share the denominator e, the product of their
    pivots; row k is e . U1[k] less the H1[k][j] multiples of them, over
    e . H1[k][k], and the rows below are scaled by H1[k][k] to match.  The
    pivots have valuation 0 and leading coefficient 1, so d == 1 exactly
    when every pivot is a unit (scaled to 1 by _echelon), that is when a
    Laurent left inverse exists, and then N is that inverse.
    """
    h, u, pivots = _echelon(m)
    c = m.ncols
    if len(pivots) < c:
        return None
    d = LaurentPoly.one(m.field)
    inv = [None] * c
    for k in reversed(range(c)):
        row = [d.mul(x) for x in u[k]]
        for j in range(k + 1, c):
            x = h[k][j]
            if x.terms:
                row = [y.sub(x.mul(w)) for y, w in zip(row, inv[j])]
        p = h[k][k]
        inv[k + 1:] = [[p.mul(w) for w in r] for r in inv[k + 1:]]
        d = d.mul(p)
        inv[k] = row
    return inv, d


def right_inverse(m):
    """(N, d) with m . N = d . identity, for m of full row rank; None
    otherwise.  d == 1 exactly when a Laurent right inverse exists."""
    nd = _left_inverse_rows(m.transpose())
    if nd is None:
        return None
    rows, d = nd
    return LaurentMatrix(m.field, rows, m.ncols).transpose(), d


def left_inverse(m):
    """(N, d) with N . m = d . identity, for m of full column rank; None
    otherwise.  d == 1 exactly when a Laurent left inverse exists."""
    nd = _left_inverse_rows(m)
    return None if nd is None else (LaurentMatrix(m.field, nd[0], m.nrows),
                                    nd[1])
