"""Laurent polynomials, rational functions, and Laurent-polynomial matrices.

Morphisms between formal-Laurent-series spaces are matrices of Laurent
polynomials acting on row vectors.  Rank and one-sided inverses are computed
over the rational function field; rational functions are kept as numerator /
denominator pairs of Laurent polynomials with monomial content stripped and a
gcd reduction to hold degrees down.
"""

from __future__ import annotations


def _canonical(p, d):
    """Sorted nonzero terms of an exponent -> raw coefficient sum dict, the
    sums reduced mod p once each (p is None over Q)."""
    if p is None:
        return tuple(sorted([(e, c) for e, c in d.items() if c]))
    return tuple(sorted([(e, c) for e, c in
                         [(e, c % p) for e, c in d.items()] if c]))


class LaurentPoly:
    """Finite map exponent -> nonzero scalar; canonical, immutable."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        d = {}
        for e, c in items:
            e = int(e)
            d[e] = d.get(e, 0) + field.normalize(c)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", _canonical(field.p, d))

    @classmethod
    def _raw(cls, field, terms):
        # trusted path: terms is a sorted tuple of nonzero normalized scalars
        x = object.__new__(cls)
        object.__setattr__(x, "field", field)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def zero(cls, field):
        return cls._raw(field, ())

    @classmethod
    def one(cls, field):
        return cls._raw(field, ((0, field.one()),))

    @classmethod
    def t_power(cls, field, e, c=None):
        c = field.one() if c is None else field.normalize(c)
        return cls._raw(field, ((int(e), c),) if c else ())

    @classmethod
    def const(cls, field, c):
        return cls.t_power(field, 0, c)

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

    def coeff(self, e):
        for ee, c in self.terms:
            if ee == e:
                return c
        return self.field.zero()

    def add(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return LaurentPoly._raw(self.field, _canonical(self.field.p, d))

    def sub(self, other):
        if not other.terms:
            return self
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) - c
        return LaurentPoly._raw(self.field, _canonical(self.field.p, d))

    def neg(self):
        p = self.field.p
        if p is None:
            terms = tuple([(e, -c) for e, c in self.terms])
        else:
            terms = tuple([(e, p - c) for e, c in self.terms])
        return LaurentPoly._raw(self.field, terms)

    def mul(self, other):
        x, y = (self, other) if len(self.terms) <= len(other.terms) \
            else (other, self)
        if not x.terms:
            return x
        if len(x.terms) == 1:
            k, c = x.terms[0]
            return y._times(k, c)
        d = {}
        for e1, c1 in x.terms:
            for e2, c2 in y.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly._raw(self.field, _canonical(self.field.p, d))

    def _times(self, k, c):
        """Multiply by c t^k, for a nonzero normalized c."""
        p = self.field.p
        if c == 1:
            if not k:
                return self
            terms = [(e + k, x) for e, x in self.terms]
        elif p is None:
            terms = [(e + k, c * x) for e, x in self.terms]
        else:
            terms = [(e + k, c * x % p) for e, x in self.terms]
        return LaurentPoly._raw(self.field, tuple(terms))

    def scale(self, c):
        c = self.field.normalize(c)
        if not c:
            return LaurentPoly._raw(self.field, ())
        return self._times(0, c)

    def shift(self, k):
        """Multiply by t^k."""
        return self._times(k, 1)

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.field.inv(self.terms[-1][1]))

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        return "+".join("%s*t^%d" % (c, e) for e, c in self.terms)


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


def poly_gcd(a, b):
    """Monic gcd of two plain polynomials."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.monic()


class RatFunc:
    """Rational function in t, stored as num/den with den a monic polynomial
    of valuation zero and gcd(num', den) = 1 on the polynomial parts."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        field = num.field
        if den is None:
            den = LaurentPoly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = self._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @staticmethod
    def _normalize(num, den):
        field = num.field
        if num.is_zero():
            return num, LaurentPoly.one(field)
        if len(den.terms) == 1:
            # a monomial c t^e is a unit of k[t, 1/t]: the gcd would be 1
            (e, c), = den.terms
            return num._times(-e, field.inv(c)), LaurentPoly.one(field)
        # strip monomial content so den is a val-0 polynomial
        shift = den.val()
        den = den.shift(-shift)
        num = num.shift(-shift)
        nv = min(num.val(), 0)
        g = poly_gcd(num.shift(-nv), den)
        if g.terms and g.deg() > 0:
            num_p, r1 = poly_divmod(num.shift(-nv), g)
            den, r2 = poly_divmod(den, g)
            assert r1.is_zero() and r2.is_zero()
            num = num_p.shift(nv)
        lead = den.terms[-1][1]
        if lead != field.one():
            inv = field.inv(lead)
            num = num.scale(inv)
            den = den.scale(inv)
        return num, den

    @classmethod
    def from_poly(cls, p):
        return cls(p, None, _normalized=True)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def val(self):
        """Valuation as a Laurent series: val(num) - val(den)."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        return self.num.val() - self.den.val()

    def add(self, other):
        if self.den == other.den:
            return RatFunc(self.num.add(other.num), self.den)
        n = self.num.mul(other.den).add(other.num.mul(self.den))
        return RatFunc(n, self.den.mul(other.den))

    def sub(self, other):
        if self.den == other.den:
            return RatFunc(self.num.sub(other.num), self.den)
        n = self.num.mul(other.den).sub(other.num.mul(self.den))
        return RatFunc(n, self.den.mul(other.den))

    def mul(self, other):
        return RatFunc(self.num.mul(other.num), self.den.mul(other.den))

    def div(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        return RatFunc(self.num.mul(other.den), self.den.mul(other.num))

    def neg(self):
        return RatFunc(self.num.neg(), self.den, _normalized=True)

    def __eq__(self, other):
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "(%r)/(%r)" % (self.num, self.den)


class LaurentMatrix:
    """Matrix of Laurent polynomials; acts on row vectors."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, entries, ncols=None):
        rows = []
        for row in entries:
            out = []
            for x in row:
                if isinstance(x, LaurentPoly):
                    out.append(x)
                else:
                    out.append(LaurentPoly.const(field, x))
            rows.append(tuple(out))
        nrows = len(rows)
        if nrows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def identity(cls, field, n):
        one = LaurentPoly.one(field)
        z = LaurentPoly.zero(field)
        return cls(field, [[one if i == j else z for j in range(n)]
                           for i in range(n)], n)

    @classmethod
    def zero(cls, field, r, c):
        z = LaurentPoly.zero(field)
        return cls(field, [[z] * c for _ in range(r)], c)

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix) and self.field == other.field
                and self.ncols == other.ncols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.ncols, self.entries))

    def __repr__(self):
        return "LaurentMatrix(%s, %dx%d)" % (self.field, self.nrows,
                                             self.ncols)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        z = LaurentPoly.zero(self.field)
        out = []
        for row in self.entries:
            acc = [z] * other.ncols
            for k, x in enumerate(row):
                if not x.is_zero():
                    for j in range(other.ncols):
                        y = other.entries[k][j]
                        if not y.is_zero():
                            acc[j] = acc[j].add(x.mul(y))
            out.append(acc)
        return LaurentMatrix(self.field, out, other.ncols)

    def transpose(self):
        return LaurentMatrix(self.field,
                             [[self.entries[i][j] for i in range(self.nrows)]
                              for j in range(self.ncols)], self.nrows)

    def is_zero(self):
        return all(x.is_zero() for r in self.entries for x in r)

    def apply_row(self, vec):
        """vec (length nrows of LaurentPoly) times the matrix."""
        z = LaurentPoly.zero(self.field)
        acc = [z] * self.ncols
        for k, x in enumerate(vec):
            if not x.is_zero():
                for j in range(self.ncols):
                    y = self.entries[k][j]
                    if not y.is_zero():
                        acc[j] = acc[j].add(x.mul(y))
        return tuple(acc)

    def min_valuation(self):
        """Least entry valuation; None for the zero matrix."""
        vals = [x.val() for r in self.entries for x in r if not x.is_zero()]
        return min(vals) if vals else None

    def rank(self):
        return _rank_ratfunc(self)


def _to_ratfunc_rows(m):
    return [[RatFunc.from_poly(x) for x in row] for row in m.entries]


def _rank_ratfunc(m):
    rows = _to_ratfunc_rows(m)
    nrows, ncols = m.nrows, m.ncols
    rank = 0
    for col in range(ncols):
        src = None
        for r in range(rank, nrows):
            if not rows[r][col].is_zero():
                src = r
                break
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        piv = rows[rank][col]
        for r in range(rank + 1, nrows):
            if not rows[r][col].is_zero():
                c = rows[r][col].div(piv)
                rows[r] = [rows[r][k].sub(c.mul(rows[rank][k]))
                           for k in range(ncols)]
        rank += 1
        if rank == nrows:
            break
    return rank


def solve_right(m, rhs_rows):
    """X with m . X = rhs, X over rational functions; None if unsolvable.

    m is (a x b) of rank a, rhs a list of a rows of length c; the solution is
    returned as a list of b rows of length c of RatFunc.  Solving happens on
    the transposed system by elimination over the fraction field.
    """
    a, b = m.nrows, m.ncols
    c = len(rhs_rows[0]) if rhs_rows else 0
    # m X = rhs  <=>  X^T m^T = rhs^T; eliminate on [m^T | rhs^T] columns
    mt = [[RatFunc.from_poly(m.entries[i][j]) for i in range(a)]
          for j in range(b)]
    rt = [[RatFunc.from_poly(rhs_rows[i][j]) if isinstance(rhs_rows[i][j],
                                                           LaurentPoly)
           else rhs_rows[i][j] for i in range(a)] for j in range(c)]
    # each row of rt must be expressed as a combination of rows of mt
    work = [list(r) for r in mt]
    zero = RatFunc.from_poly(LaurentPoly.zero(m.field))
    one = RatFunc.from_poly(LaurentPoly.one(m.field))
    coefs = [[one if i == j else zero for j in range(b)] for i in range(b)]
    pivots = []
    rank = 0
    for col in range(a):
        src = None
        for r in range(rank, b):
            if not work[r][col].is_zero():
                src = r
                break
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        coefs[rank], coefs[src] = coefs[src], coefs[rank]
        inv = one.div(work[rank][col])
        work[rank] = [x.mul(inv) for x in work[rank]]
        coefs[rank] = [x.mul(inv) for x in coefs[rank]]
        for r in range(b):
            if r != rank and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [work[r][k].sub(f.mul(work[rank][k]))
                           for k in range(a)]
                coefs[r] = [coefs[r][k].sub(f.mul(coefs[rank][k]))
                            for k in range(b)]
        pivots.append(col)
        rank += 1
    xt = []
    for target in rt:
        res = list(target)
        combo = [zero] * b
        for rr, col in enumerate(pivots):
            f = res[col]
            if not f.is_zero():
                res = [res[k].sub(f.mul(work[rr][k])) for k in range(a)]
                combo = [combo[k].add(f.mul(coefs[rr][k])) for k in range(b)]
        if any(not x.is_zero() for x in res):
            return None
        xt.append(combo)
    # xt is X^T (c rows of length b); transpose back
    return [[xt[j][i] for j in range(c)] for i in range(b)]


def right_inverse(m):
    """B (b x a, rational functions) with m . B = identity, for m of full
    row rank; None when rank deficient."""
    a = m.nrows
    one = LaurentPoly.one(m.field)
    z = LaurentPoly.zero(m.field)
    ident = [[one if i == j else z for j in range(a)] for i in range(a)]
    return solve_right(m, ident)


def left_inverse(m):
    """C (c x b) with C . m = identity for m (b x c) of full column rank."""
    bt = right_inverse(m.transpose())
    if bt is None:
        return None
    return [[bt[j][i] for j in range(len(bt))] for i in range(len(bt[0]))]


def ratfunc_min_valuation(rows):
    vals = [x.val() for row in rows for x in row if not x.is_zero()]
    return min(vals) if vals else None
