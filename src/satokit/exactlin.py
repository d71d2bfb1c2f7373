"""Exact linear algebra over a prime field F_p or Q, plus integer Smith normal form.

Scalars are plain Python ints (reduced mod p) or Fractions.  No floating point
anywhere.  Subspaces are kept in reduced row echelon form so that equality of
subspaces is equality of data.

Over F2, Matrix, Subspace, Quotient and tate's Lattice keep each row packed
in one int, bit j for column j, from construction to result: products XOR
the rows that set bits select, and one Gauss-Jordan elimination on ints
gives rank, row space, join, the Zassenhaus meet, and (on rows with an
identity bit appended) the rref transform and left kernel.  Over F_p with
p (p - 1) < 256 (F3..F13) a row is one int of byte lanes, entry j at bits
8j..8j+7: a row update r - c b is the multiply-add r + (p - c) b, whose
lanes stay at most p (p - 1) < 256, so no carry crosses one, and one
bytes.translate reduces every lane mod p.  Q and larger p keep tuples.
Matrix.entries, Subspace.rows and Lattice.rows are tuple views, built only
when read.  Matrix, Subspace and Quotient are the one API; their
constructors (Subspace.from_rows for a Subspace) check every scalar, and
the row kernels are private.

Every immutable value of satokit is a Value, which refuses __setattr__ and
__delattr__.  The hot classes (Matrix, Subspace, Quotient, laurent's,
tate's and exactcat's LinMap) fill their slots through the member
descriptors' __set__, bound by name at import (_mat_rank =
Matrix._rank.__set__), which skips object.__setattr__'s name lookup; the
rest (Field, abgroup's, detline's and dimtorsor's values, exactcat's SES)
call object.__setattr__.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product


class Value:
    """Base of satokit's immutable values, which serve as dict and cache
    keys: setting or deleting any attribute raises AttributeError.  Matrix,
    Subspace, Quotient, LinMap and the laurent and tate values fill their
    slots through their member descriptors' bound __set__, the others
    through object.__setattr__; neither calls __setattr__."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


def _checked_int(x, what, least=None):
    """x when it is an int, and at least `least` when that is given; else
    ValueError, so a float, a Fraction or a string is never rounded, and a
    bool is not kept as a count or a coordinate."""
    if type(x) is not int:
        raise ValueError("%s %r is not an int" % (what, x))
    if least is not None and x < least:
        raise ValueError("negative %s %d" % (what, x))
    return x


# Miller-Rabin with the first twelve primes as bases decides primality for
# every n below 3.18 * 10^23, so characteristics are capped at 2^64.
MAX_CHARACTERISTIC = 2 ** 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# p -> the table of v % p for every byte v, for the odd p with p (p - 1) < 256;
# a Field's _bits, the width of an entry of an int row, is 8 over these p
_LANES = {p: bytes([v % p for v in range(256)]) for p in (3, 5, 7, 11, 13)}


class Field(Value):
    """F_p (p prime) or the rationals.  Immutable, hashable."""

    __slots__ = ("p", "_bits")

    def __init__(self, p=None):
        if p is not None:
            if _checked_int(p, "characteristic") >= MAX_CHARACTERISTIC:
                raise ValueError("characteristic %d is above the cap 2^64" % p)
            if not _is_prime(p):
                raise ValueError("characteristic must be prime, got %r" % (p,))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_bits", 1 if p == 2 else 8 * (p in _LANES))

    @classmethod
    def parse(cls, text):
        """Parse 'F<p>' or 'Q'."""
        text = text.strip()
        if text == "Q":
            return cls(None)
        if text.startswith("F"):
            return cls(int(text[1:]))
        raise ValueError("unknown field %r" % (text,))

    def __str__(self):
        return "Q" if self.p is None else "F%d" % self.p

    __repr__ = __str__

    def __eq__(self, other):
        return self is other or (isinstance(other, Field)
                                 and self.p == other.p)

    def __hash__(self):
        return hash(("Field", self.p))

    @property
    def is_rational(self):
        return self.p is None

    def normalize(self, x):
        """x as an element of the field: an int or a Fraction, which over F_p
        must have denominator 1; ValueError for anything else."""
        if not isinstance(x, (int, Fraction)):
            raise ValueError("%r is not an int or a Fraction" % (x,))
        if self.p is None:
            return Fraction(x)
        if x.denominator != 1:
            raise ValueError("%r is not an integer, so not in %s" % (x, self))
        return x.numerator % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero in %s" % self)
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return Fraction(1, 1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        """All field elements; only available for prime fields."""
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return range(self.p)


F2 = Field(2)
F3 = Field(3)
F5 = Field(5)
QQ = Field(None)


# ---------------------------------------------------------------------------
# row-level workhorses.  Matrix, Subspace, Quotient and tate's Lattice keep
# their rows in an internal form: over F2 one int per row with bit j for
# column j (the XOR rows of M4RI), over the p of _LANES one int with byte
# lane j for column j (one word reduced at once, as in Dumas, Fousse and
# Salvy), elsewhere tuples of normalized scalars; the private helpers work on
# that form.

def _mod(r, table):
    """The lane row r with every lane v replaced by table[v]."""
    return int.from_bytes(r.to_bytes((r.bit_length() + 7) >> 3, "little")
                          .translate(table), "little")


def _row_in(field, row):
    """The internal row of a sequence of normalized scalars."""
    if field.p == 2:
        m = 0
        for j, x in enumerate(row):
            if x & 1:
                m |= 1 << j
        return m
    return int.from_bytes(bytes(row), "little") if field._bits else tuple(row)


def _row_out(field, row, n):
    """The tuple of scalars of an internal row of length n."""
    if field.p == 2:
        return tuple([(row >> j) & 1 for j in range(n)])
    return tuple(row.to_bytes(n, "little")) if field._bits == 8 else row


def _checked_rows(field, rows):
    """Internal rows of lists of scalars, each checked by field.normalize
    (over F2 only when x & 1 fails, as it does for a Fraction; over F_p an
    int is reduced inline)."""
    p, norm = field.p, field.normalize
    if p == 2:
        try:
            return tuple([_row_in(field, r) for r in rows])
        except TypeError:
            return tuple([_row_in(field, [norm(x) for x in r]) for r in rows])
    return tuple([_row_in(field, [x % p if p and type(x) is int else norm(x)
                                  for x in r]) for r in rows])


def _checked_vector(field, n, v):
    """The internal row of a vector of k^n, refused at any other length."""
    if len(v) != n:
        raise ValueError("row length does not match ambient dimension")
    return _checked_rows(field, [v])[0]


def _zero_row(field, n):
    return 0 if field._bits else (field.zero(),) * n


def _units(field, n, start=0):
    """Rows start, ..., n - 1 of the n x n identity."""
    s = field._bits
    if s:
        return tuple([1 << s * i for i in range(start, n)])
    one, z = field.one(), field.zero()
    return tuple([(z,) * i + (one,) + (z,) * (n - 1 - i)
                  for i in range(start, n)])


def _nonzero(row):
    return any(row) if isinstance(row, tuple) else row != 0


def _hcat(field, a, b, m):
    """Row a, of m columns, followed by row b."""
    return a | b << field._bits * m if field._bits else a + b


def _split(field, rows, m):
    """The rows cut into their first m columns and the rest."""
    s = field._bits * m
    if field._bits:
        return [r & ((1 << s) - 1) for r in rows], [r >> s for r in rows]
    return [r[:m] for r in rows], [r[m:] for r in rows]


def _shifted(field, row, s, n):
    """The row moved up s columns (down -s, dropping the columns that fall
    below 0) and cut or padded to n columns."""
    b = field._bits
    if b:
        return (row << b * s if s >= 0 else row >> -b * s) & ((1 << b * n) - 1)
    z = (field.zero(),)
    row = (z * s + row if s >= 0 else row[-s:])[:n]
    return row + z * (n - len(row))


def _gather(field, row, cols, n):
    """The entries at cols of a row of n entries, as a row."""
    if field.p == 2:
        return sum([((row >> j) & 1) << i for i, j in enumerate(cols)])
    if field._bits:  # index the lanes' bytes
        row = row.to_bytes(n, "little")
    return _row_in(field, [row[j] for j in cols])


def _rref_f2(rows):
    """Gauss-Jordan elimination of int rows: (rows, pivots) as in _rref,
    each pivot the lowest set bit of its row."""
    basis = []  # (pivot bit, row)
    for m in rows:
        for p, b in basis:
            if m & p:
                m ^= b
        if m:
            low = m & -m
            for i, (p, b) in enumerate(basis):
                if b & low:
                    basis[i] = (p, b ^ m)
            basis.append((low, m))
    basis.sort()
    return [b for _, b in basis], [p.bit_length() - 1 for p, _ in basis]


def _rref_lanes(rows, p):
    """_rref_f2's elimination on lane rows of at most w bytes: a row update
    b - c m is b + (p - c) m, then one translate reduces every lane mod p."""
    t, fb, le, basis = _LANES[p], int.from_bytes, "little", []
    w = (max(rows, default=0).bit_length() + 7) >> 3
    for m in rows:  # basis holds (bit offset of the pivot lane, row)
        for q, b in basis:
            c = m >> q & 255
            if c:
                m += (p - c) * b
                m = fb(m.to_bytes(w, le).translate(t), le)
        if m:
            q = (m & -m).bit_length() - 1 & ~7
            m = _mod(m * pow(m >> q & 255, p - 2, p), t)
            for i, (k, b) in enumerate(basis):
                c = b >> q & 255
                if c:
                    b += (p - c) * m
                    basis[i] = k, fb(b.to_bytes(w, le).translate(t), le)
            basis.append((q, m))
    basis.sort()
    return [b for _, b in basis], [q >> 3 for q, _ in basis]


def _rref(field, rows):
    """Reduced row echelon form of internal rows: (rows, pivots), the nonzero
    rows in strict echelon form with unit pivots and cleared pivot columns,
    and the sorted pivot columns."""
    p = field.p
    if p == 2:
        return _rref_f2(rows)
    if field._bits == 8:
        return _rref_lanes(rows, p)
    work = [list(r) for r in rows]
    pivots = []
    piv_r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        src = None
        for r in range(piv_r, len(work)):
            if work[r][col] != 0:
                src = r
                break
        if src is None:
            continue
        work[piv_r], work[src] = work[src], work[piv_r]
        row = work[piv_r]
        inv = field.inv(row[col])
        if inv != 1:
            work[piv_r] = row = ([inv * x for x in row] if p is None
                                 else [inv * x % p for x in row])
        for r, rr in enumerate(work):
            c = rr[col]
            if c != 0 and r != piv_r:
                work[r] = ([x - c * y for x, y in zip(rr, row)] if p is None
                           else [(x - c * y) % p for x, y in zip(rr, row)])
        pivots.append(col)
        piv_r += 1
        if piv_r == len(work):
            break
    return [tuple(r) for r in work[:piv_r]], pivots


def _transform(field, rows, m):
    """(rref, pivots, transform, kernel, kernel pivots) of internal rows with
    m columns, from one elimination of each row i with a unit in column m + i
    appended: transform . rows == rref, and kernel is the rref basis of the
    left kernel {x : x . rows == 0}."""
    units = _units(field, len(rows))
    red, pivots = _rref(field, [_hcat(field, r, u, m)
                                for r, u in zip(rows, units)])
    k = bisect_left(pivots, m)
    rref, t = _split(field, red[:k], m)
    return (rref, pivots[:k], t, _split(field, red[k:], m)[1],
            [p - m for p in pivots[k:]])


def _divide(field, v, rows, pivots):
    """(coefficients, remainder) of v against internal rows in rref."""
    p = field.p
    if p == 2:
        c = 0
        for i, (r, q) in enumerate(zip(rows, pivots)):
            if (v >> q) & 1:
                v ^= r
                c |= 1 << i
        return c, v
    if field._bits == 8:
        c = 0
        for i, (r, q) in enumerate(zip(rows, pivots)):
            x = v >> 8 * q & 255
            if x:
                v = _mod(v + (p - x) * r, _LANES[p])
                c |= x << 8 * i
        return c, v
    coeffs = []
    for row, q in zip(rows, pivots):
        c = v[q]
        coeffs.append(c)
        if c != 0:
            v = ([x - c * y for x, y in zip(v, row)] if p is None
                 else [(x - c * y) % p for x, y in zip(v, row)])
    return tuple(coeffs), tuple(v)


def _coeffs(field, v, rows, pivots):
    c, rest = _divide(field, v, rows, pivots)
    return None if _nonzero(rest) else c


def _mul(field, a, b, ncols):
    """Product of internal rows a (r x n) and b (n x ncols); over F2 each
    row is the XOR of the rows of b its set bits select, elsewhere the sum
    of the rows of b scaled by its entries, reduced mod p once (over lanes
    after each term, before a lane can pass 255)."""
    p = field.p
    out = []
    if p == 2:
        for r in a:
            acc = j = 0
            while r:
                if r & 1:
                    acc ^= b[j]
                r >>= 1
                j += 1
            out.append(acc)
        return out
    if field._bits == 8:
        for r in a:
            acc = 0
            for x, row in zip(r.to_bytes(len(b), "little"), b):
                if x:
                    acc = _mod(acc + x * row, _LANES[p])
            out.append(acc)
        return out
    zero = _zero_row(field, ncols)
    for r in a:
        acc = None
        for x, row in zip(r, b):
            if x != 0:
                acc = ([x * y for y in row] if acc is None
                       else [s + x * y for s, y in zip(acc, row)])
        out.append(zero if acc is None else tuple(acc) if p is None
                   else tuple([s % p for s in acc]))
    return out


# ---------------------------------------------------------------------------

class Matrix(Value):
    """Immutable dense matrix over a Field.

    Its rows are kept in the internal form above (one int per row over F2);
    entries, the rows as tuples of scalars, is a view built on first read.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_entries", "_rank")

    def __init__(self, field, entries, ncols=None):
        rows = list(entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
        elif ncols is not None:
            _checked_int(ncols, "dimension", 0)
        self._init(field, _checked_rows(field, rows), ncols or 0, None)

    def _init(self, field, rows, ncols, rank):
        rows = tuple(rows)
        _mat_field(self, field)
        _mat_nrows(self, len(rows))
        _mat_ncols(self, ncols)
        _mat_rows(self, rows)
        _mat_entries(self, None if field._bits else rows)
        _mat_rank(self, rank)

    @classmethod
    def _raw(cls, field, rows, ncols, rank=None):
        # trusted path: rows are internal rows of ncols entries
        m = object.__new__(cls)
        m._init(field, rows, ncols, rank)
        return m

    @property
    def entries(self):
        if self._entries is None:
            _mat_entries(self, tuple([_row_out(self.field, r, self.ncols)
                                      for r in self._rows]))
        return self._entries

    @classmethod
    def zero(cls, field, nrows, ncols):
        _checked_int(nrows, "dimension", 0)
        _checked_int(ncols, "dimension", 0)
        return cls._raw(field, (_zero_row(field, ncols),) * nrows, ncols, 0)

    @classmethod
    def identity(cls, field, n):
        _checked_int(n, "dimension", 0)
        return cls._raw(field, _units(field, n), n, n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self._rows))

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field, self.nrows, self.ncols)

    def mul(self, other):
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        return Matrix._raw(self.field, _mul(self.field, self._rows,
                                            other._rows, other.ncols),
                           other.ncols)

    def transpose(self):
        f, rows = self.field, self._rows
        if f.p == 2:
            cols = [sum([((r >> j) & 1) << i for i, r in enumerate(rows)])
                    for j in range(self.ncols)]
        else:
            cols = ([_row_in(f, c) for c in zip(*self.entries)]
                    or [_zero_row(f, 0)] * self.ncols)
        return Matrix._raw(f, cols, self.nrows, self._rank)

    def neg(self):
        f = self.field
        if f.p == 2:
            return self
        return Matrix._raw(f, [_row_in(f, [f.neg(x) for x in r])
                               for r in self.entries], self.ncols, self._rank)

    def hstack(self, other):
        """The block matrix [self | other]."""
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        if self.nrows != other.nrows:
            raise ValueError("hstack of matrices with unequal row counts")
        f = self.field
        return Matrix._raw(f, [_hcat(f, a, b, self.ncols)
                               for a, b in zip(self._rows, other._rows)],
                           self.ncols + other.ncols)

    def vstack(self, other):
        """self above other."""
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        if self.ncols != other.ncols:
            raise ValueError("vstack of matrices with unequal column counts")
        return Matrix._raw(self.field, self._rows + other._rows, self.ncols)

    def is_zero(self):
        return not any(map(_nonzero, self._rows))

    def rank(self):
        if self._rank is None:
            _mat_rank(self, len(_rref(self.field, self._rows)[1]))
        return self._rank

    def det(self):
        """The determinant of a square matrix; 1 for the 0 x 0 matrix."""
        f, n = self.field, self.nrows
        if self.ncols != n:
            raise ValueError("determinant of a non-square matrix")
        if f.p == 2:
            return int(self.rank() == n)
        work, det = list(self.entries), f.one()
        for col in range(n):
            src = next((r for r in range(col, n) if work[r][col] != 0), None)
            if src is None:
                return f.zero()
            if src != col:
                work[col], work[src] = work[src], work[col]
                det = f.neg(det)
            row = work[col]
            det = f.mul(det, row[col])
            inv = f.inv(row[col])
            for r in range(col + 1, n):
                c = f.mul(work[r][col], inv)
                if c != 0:
                    work[r] = [f.sub(x, f.mul(c, y))
                               for x, y in zip(work[r], row)]
        return det

    def row_space(self):
        rows, piv = _rref(self.field, self._rows)
        _mat_rank(self, len(piv))
        return Subspace._raw(self.field, self.ncols, rows, piv)

    def _reduced(self):
        # _transform of the rows, recording the rank
        out = _transform(self.field, self._rows, self.ncols)
        _mat_rank(self, len(out[1]))
        return out

    def left_kernel(self):
        """Subspace {x : x @ self == 0} of k^nrows."""
        _, _, _, rows, piv = self._reduced()
        return Subspace._raw(self.field, self.nrows, rows, piv)

    def right_kernel(self):
        return self.transpose().left_kernel()

    def solve(self, targets):
        """A matrix x with x @ self == targets, or None when a row of targets
        is not in the row space; x is unique when self has full row rank."""
        if self.field.p != targets.field.p:
            raise ValueError("field mismatch")
        if targets.ncols != self.ncols:
            raise ValueError("shape mismatch: solve for %d columns in %d"
                             % (targets.ncols, self.ncols))
        f = self.field
        rref, piv, t, _, _ = self._reduced()
        coeffs = [_coeffs(f, v, rref, piv) for v in targets._rows]
        if None in coeffs:
            return None
        return Matrix._raw(f, _mul(f, coeffs, t, self.nrows), self.nrows)

    def inverse(self):
        """The inverse of a square matrix; ValueError when it is singular."""
        if self.nrows == self.ncols:  # else refused with no elimination
            _, piv, t, _, _ = self._reduced()
            if len(piv) == self.nrows:
                return Matrix._raw(self.field, t, self.nrows, self.nrows)
        raise ValueError("matrix is not invertible")


class Subspace(Value):
    """Subspace of k^ambient, stored as a reduced-row-echelon basis.

    The representation is canonical: two Subspaces are equal iff they are the
    same subspace.  The basis is kept in internal rows; rows is the tuple view.
    """

    __slots__ = ("field", "ambient", "_rows", "pivots", "_view")

    def __init__(self, *args):
        raise ValueError("use Subspace.from_rows to build subspaces")

    @classmethod
    def _raw(cls, field, ambient, rows, pivots):
        # trusted path: rows are internal rows in rref with these pivots
        s, rows = object.__new__(cls), tuple(rows)
        _sub_field(s, field)
        _sub_ambient(s, ambient)
        _sub_rows(s, rows)
        _sub_pivots(s, tuple(pivots))
        _sub_view(s, None if field._bits else rows)
        return s

    @property
    def rows(self):
        if self._view is None:
            _sub_view(self, tuple([_row_out(self.field, r, self.ambient)
                                   for r in self._rows]))
        return self._view

    @classmethod
    def from_rows(cls, field, ambient, rows):
        _checked_int(ambient, "dimension", 0)
        rows = list(rows)
        if any(len(r) != ambient for r in rows):
            raise ValueError("row length does not match ambient dimension")
        return cls._raw(field, ambient, *_rref(field,
                                               _checked_rows(field, rows)))

    @classmethod
    def zero(cls, field, ambient):
        _checked_int(ambient, "dimension", 0)
        return cls._raw(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        _checked_int(ambient, "dimension", 0)
        return cls._raw(field, ambient, _units(field, ambient),
                        range(ambient))

    @property
    def dim(self):
        return len(self._rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.ambient, self._rows))

    def __repr__(self):
        return "Subspace(%s, dim %d of k^%d)" % (self.field, self.dim,
                                                 self.ambient)

    def _check(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("ambient mismatch")

    def _reduce(self, v):
        """v less the combination of basis rows that clears every pivot."""
        return _divide(self.field, v, self._rows, self.pivots)[1]

    def _contains(self, v):
        return not _nonzero(self._reduce(v))

    def contains_vector(self, v):
        return self._contains(_checked_vector(self.field, self.ambient, v))

    def contains(self, other):
        self._check(other)
        return all(map(self._contains, other._rows))

    def meet(self, other):
        """Intersection by Zassenhaus: in the rref of the rows (u|u) of self
        above (w|0) of other, the rows (0|x) are the rref basis of u n w."""
        self._check(other)
        f, n = self.field, self.ambient
        z = _zero_row(f, n)
        red, pivots = _rref(f, [_hcat(f, u, u, n) for u in self._rows]
                            + [_hcat(f, w, z, n) for w in other._rows])
        k = bisect_left(pivots, n)
        return Subspace._raw(f, n, _split(f, red[k:], n)[1],
                             [p - n for p in pivots[k:]])

    def join(self, other):
        self._check(other)
        return Subspace._raw(self.field, self.ambient,
                             *_rref(self.field, self._rows + other._rows))

    def basis_matrix(self):
        """The basis as a dim x ambient matrix."""
        return Matrix._raw(self.field, self._rows, self.ambient, self.dim)

    def coordinates(self, m):
        """The matrix of the coefficients of m's rows in the basis, or None
        when a row of m is not in the subspace."""
        if self.field.p != m.field.p:
            raise ValueError("field mismatch")
        if m.ncols != self.ambient:
            raise ValueError("ambient mismatch")
        f = self.field
        rows = [_coeffs(f, r, self._rows, self.pivots) for r in m._rows]
        return None if None in rows else Matrix._raw(f, rows, self.dim)

    # -- canonical quotient coordinates (non-pivot columns) -----------------

    def nonpivots(self):
        pset = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pset]

    def proj_coords(self, v):
        """Coordinates of v + self in the canonical quotient basis."""
        f, v = self.field, _checked_vector(self.field, self.ambient, v)
        return _row_out(f, _gather(f, self._reduce(v), self.nonpivots(),
                                   self.ambient), self.ambient - self.dim)


_mat_field, _mat_nrows, _mat_ncols = (
    Matrix.field.__set__, Matrix.nrows.__set__, Matrix.ncols.__set__)
_mat_rows, _mat_entries, _mat_rank = (
    Matrix._rows.__set__, Matrix._entries.__set__, Matrix._rank.__set__)
_sub_field, _sub_ambient, _sub_rows = (
    Subspace.field.__set__, Subspace.ambient.__set__, Subspace._rows.__set__)
_sub_pivots, _sub_view = Subspace.pivots.__set__, Subspace._view.__set__


class Quotient(Value):
    """The subquotient big/small of nested subspaces, in its canonical basis.

    Its basis is the rref of big's rows reduced modulo small, in ambient
    coordinates.  They vanish at small's pivot columns, and deleting zero
    columns keeps an rref and its coefficients, so this is the rref basis in
    small's quotient coordinates (Subspace.proj_coords) with zeros put back.
    lift(k), the canonical coset representative, is basis row k.
    """

    __slots__ = ("small", "_basis", "_pivots")

    def __init__(self, small, big):
        if not big.contains(small):
            raise ValueError("quotient requires containment")
        basis, pivots = _rref(small.field,
                              [small._reduce(r) for r in big._rows])
        _quo_small(self, small)
        _quo_basis(self, basis)
        _quo_pivots(self, pivots)

    @property
    def dim(self):
        return len(self._basis)

    def _coords(self, v):
        return _coeffs(self.small.field, self.small._reduce(v), self._basis,
                       self._pivots)

    def coords(self, v):
        """Coordinates of v + small in basis, or None when v is not in big."""
        f = self.small.field
        c = self._coords(_checked_vector(f, self.small.ambient, v))
        return None if c is None else _row_out(f, c, self.dim)

    def lift(self, k):
        return _row_out(self.small.field, self._basis[k], self.small.ambient)

    def map_to(self, dst):
        """The matrix of the map self -> dst that the identity of the ambient
        space induces, in the canonical bases, or None when it does not map
        self into dst."""
        rows = [dst._coords(b) for b in self._basis]
        if None in rows:
            return None
        return Matrix._raw(self.small.field, rows, dst.dim)


_quo_small, _quo_basis, _quo_pivots = (
    Quotient.small.__set__, Quotient._basis.__set__, Quotient._pivots.__set__)


def all_vectors(field, n):
    """All vectors of k^n, the first coordinate varying fastest; prime
    fields only."""
    if field.p is None:
        raise ValueError("cannot enumerate vectors over Q")
    _checked_int(n, "dimension", 0)
    return (v[::-1] for v in product(field.elements(), repeat=n))


def all_subspaces(field, ambient):
    """Every subspace of k^ambient (prime fields, small dimensions), by
    Schubert cell: for each pivot set, the row with pivot p holds 1 at p, any
    entries right of p off the pivot columns and 0 elsewhere, and each choice
    of rows is one rref basis."""
    elements = field.elements()  # refuses Q
    _checked_int(ambient, "dimension", 0)
    zero, one = (field.zero(),), (field.one(),)
    subs = []
    for k in range(ambient + 1):
        for pivots in combinations(range(ambient), k):
            rows = [product(*[one if c == p else
                              (elements if c > p and c not in pivots
                               else zero) for c in range(ambient)])
                    for p in pivots]
            subs += [Subspace._raw(field, ambient,
                                   [_row_in(field, r) for r in basis], pivots)
                     for basis in product(*rows)]
    return sorted(subs, key=lambda s: (s.dim, s.rows))


# ---------------------------------------------------------------------------
# integers: Smith normal form and modular solving

def _axpy(dst, src, q):
    """dst -= q * src, on sparse dicts."""
    for k, x in src.items():
        y = dst.get(k, 0) - q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def snf_with_transforms(rows, ncols, keep):
    """Smith normal form S = U M V with U, V unimodular, on nonzero entries.

    M is given by its sparse rows {column: entry} and its column count.
    keep names the transforms to build, out of "U", "V", "U^-1", "V^-1";
    the others are never built and are returned as None.  Returns (S, U, V,
    U^-1, V^-1) as lists of sparse lines {index: nonzero entry}: S, U and
    V^-1 as rows, V and U^-1 as columns, the orientation in which each of
    their updates is a row operation.  A row operation on U is the inverse
    column operation on U^-1, and a column operation on V the inverse row
    operation on V^-1, so the inverses are kept as the elimination goes.
    The pivot, the first entry of least absolute value in row-major order,
    depends on M alone, so what is kept changes no result.
    """
    nrows = len(rows)
    R = [{j: x for j, x in r.items() if x} for r in rows]
    size = {"U": nrows, "V": ncols, "U^-1": nrows, "V^-1": ncols}
    kept = {k: [{i: 1} for i in range(size[k])] for k in keep}
    U, V, Uinv, Vinv = (kept.get(k) for k in size)
    by_row = [m for m in (R, U, Uinv) if m is not None]

    def row_op(i, j, q):  # row_i -= q * row_j
        for m, a, b, c in ((R, i, j, q), (U, i, j, q), (Uinv, j, i, -q)):
            if m is not None:
                _axpy(m[a], m[b], c)

    t = 0
    while t < min(nrows, ncols):
        # rows from t on are zero left of column t; no entry beats a unit
        best = None
        for i in range(t, nrows):
            if R[i]:
                a = min(map(abs, R[i].values()))
                if best is None or a < best[0]:
                    best = (a, i)
                    if a == 1:
                        break
        if best is None:
            break
        a, i = best
        j = min(k for k, x in R[i].items() if abs(x) == a)
        if i != t:
            for m in by_row:
                m[t], m[i] = m[i], m[t]
        if j != t:
            for r in R[t:]:
                x, y = r.pop(t, 0), r.pop(j, 0)
                if x:
                    r[j] = x
                if y:
                    r[t] = y
            for m in (V, Vinv):
                if m is not None:
                    m[t], m[j] = m[j], m[t]
        piv = R[t][t]
        below = [i for i in range(t + 1, nrows) if t in R[i]]
        for i in below:
            row_op(i, t, R[i][t] // piv)
        # col_j -= q_j * col_t for every j > t, one pass per row where
        # column t is nonzero: at t and where a remainder is
        support = [t] + [i for i in below if t in R[i]]
        qs = {j: x // piv for j, x in R[t].items() if j > t}
        for r in support:
            _axpy(R[r], qs, R[r][t])
        for j, q in qs.items():
            if V is not None:
                _axpy(V[j], V[t], q)
            if Vinv is not None:
                _axpy(Vinv[t], Vinv[j], -q)
        if len(support) > 1 or len(R[t]) > 1:
            continue
        # the pivot must divide the rest of the block, which a unit does
        if abs(piv) != 1:
            offender = next((i for i in range(t + 1, nrows)
                             if any(x % piv for x in R[i].values())), None)
            if offender is not None:
                row_op(t, offender, -1)  # fold the row in and retry
                continue
        if piv < 0:
            R[t][t] = -piv
            for m in by_row[1:]:
                for k in m[t]:
                    m[t][k] = -m[t][k]
        t += 1
    return R, U, V, Uinv, Vinv


def invariant_factors(rows, ncols):
    """The nonzero invariant factors, ascending, of the integer matrix with
    sparse rows {column: entry} and ncols columns; rows is left as it was.

    A row holding a unit x at column j clears column j from the other rows
    (row_k -= r_k[j] * x * row, as x = 1/x) and then leaves the matrix with
    column j, for one factor 1: the column operations that would clear the
    rest of it touch nothing else.  Passes repeat until no row holds a unit,
    and only the rows left meet the Smith form.
    """
    R = {i: {j: x for j, x in r.items() if x} for i, r in enumerate(rows)}
    at = {}  # column -> the rows holding it
    for i, r in R.items():
        for j in r:
            at.setdefault(j, set()).add(i)
    ones, found = 0, True
    while found:
        found = False
        for i in list(R):
            r = R[i]
            for j, x in r.items():
                if x == 1 or x == -1:
                    break
            else:
                continue
            del R[i], r[j]
            for k in at.pop(j):
                if k != i:
                    rk = R[k]
                    q = rk.pop(j) * x
                    for c, y in r.items():
                        z = rk.get(c, 0) - q * y
                        if not z:
                            del rk[c]
                            at[c].discard(k)
                        else:
                            if c not in rk:
                                at[c].add(k)
                            rk[c] = z
            for c in r:
                at[c].discard(i)
            ones, found = ones + 1, True
    rest = [r for r in R.values() if r]
    s = snf_with_transforms(rest, ncols, ())[0] if rest else []
    return [1] * ones + [x for x in (r.get(t) for t, r in enumerate(s)) if x]


def _egcd(a, b):
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1), 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def solve_mod(snf, b, d):
    """One solution x of A x = b (mod d); d == 0 means over Z.  None if none.

    A is given by a Smith form snf of A that keeps U and V, so that one
    form serves every right-hand side; b is a vector, and x is returned as a
    list of ints reduced mod d when d > 0.
    """
    s, u, v, _, _ = snf
    # A = U^-1 S V^-1, so A x = b  <=>  S y = U b with x = V y
    x = [0] * len(v)
    for i, row in enumerate(u):
        si = s[i].get(i, 0)
        rhs = sum(c * b[k] for k, c in row.items())
        if si == 0:
            if (rhs % d if d else rhs) != 0:
                return None
            continue
        if d == 0:
            if rhs % si != 0:
                return None
            y = rhs // si
        else:
            g, inv, _ = _egcd(si, d)
            if rhs % g != 0:
                return None
            y = ((rhs // g) * inv) % d
        for k, c in v[i].items():
            x[k] += c * y
    if d > 0:
        x = [xi % d for xi in x]
    return x
