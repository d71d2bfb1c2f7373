"""Exact linear algebra over a prime field F_p or Q, plus integer Smith normal form.

Scalars are plain Python ints (reduced mod p) or Fractions.  No floating point
anywhere.  Subspaces are kept in reduced row echelon form so that equality of
subspaces is equality of data.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction


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


class Field:
    """F_p (p prime) or the rationals.  Immutable, hashable."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and p >= MAX_CHARACTERISTIC:
            raise ValueError("characteristic %d is above the cap 2^64" % p)
        if p is not None and not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

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
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    @property
    def is_rational(self):
        return self.p is None

    def normalize(self, x):
        if self.p is None:
            return Fraction(x)
        return int(x) % self.p

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
# row-level workhorses (lists of scalars; hot paths used by the lattice code)

def rref_rows(field, rows):
    """Reduced row echelon form of a list of rows.

    Returns (rows, pivots): nonzero rows in strict echelon form with unit
    pivots and cleared pivot columns, plus the sorted pivot column list.
    """
    if field.p == 2:
        return _rref_rows_f2(rows)
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
            work[piv_r] = row = [field.mul(inv, x) for x in row]
        for r in range(len(work)):
            if r != piv_r and work[r][col] != 0:
                c = work[r][col]
                rr = work[r]
                work[r] = [field.sub(rr[k], field.mul(c, row[k]))
                           for k in range(ncols)]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(work):
            break
    return [tuple(r) for r in work[:piv_r]], pivots


def _rref_rows_f2(rows):
    # rows as bitmasks; bit j = column j
    ncols = len(rows[0]) if rows else 0
    masks = []
    for r in rows:
        m = 0
        for j, x in enumerate(r):
            if x & 1:
                m |= 1 << j
        masks.append(m)
    basis = []  # (pivot, mask), pivot increasing
    for m in masks:
        for p, b in basis:
            if (m >> p) & 1:
                m ^= b
        if m:
            p = (m & -m).bit_length() - 1
            for i in range(len(basis)):
                if (basis[i][1] >> p) & 1:
                    basis[i] = (basis[i][0], basis[i][1] ^ m)
            basis.append((p, m))
    basis.sort()
    pivots = [p for p, _ in basis]
    out = [tuple((m >> j) & 1 for j in range(ncols)) for _, m in basis]
    return out, pivots


def rref_transform(field, rows):
    """Row reduction with its transform, from one pass over rows | identity.

    Returns (rref, pivots, transform, kernel, kernel_pivots): rref and
    pivots are those of rref_rows(field, rows), transform . rows == rref,
    and kernel is the rref basis of the left kernel {x : x . rows == 0}.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    one, z = field.one(), field.zero()
    aug = [tuple(r) + tuple(one if j == i else z for j in range(n))
           for i, r in enumerate(rows)]
    red, pivots = rref_rows(field, aug)
    k = bisect_left(pivots, m)
    return ([r[:m] for r in red[:k]], pivots[:k], [r[m:] for r in red[:k]],
            [r[m:] for r in red[k:]], [p - m for p in pivots[k:]])


def reduce_row(field, v, rows, pivots):
    """Canonical representative of v modulo the row space (rows in rref)."""
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c != 0:
            for k in range(p, len(v)):
                v[k] = field.sub(v[k], field.mul(c, row[k]))
    return tuple(v)


def solve_in_rows(field, rows, pivots, target):
    """Coefficients c with sum(c_i * rows_i) == target, or None.

    rows must be in rref; the expression is unique when it exists.
    """
    v = list(target)
    coeffs = []
    for row, p in zip(rows, pivots):
        c = v[p]
        coeffs.append(c)
        if c != 0:
            for k in range(p, len(v)):
                v[k] = field.sub(v[k], field.mul(c, row[k]))
    if any(x != 0 for x in v):
        return None
    return tuple(coeffs)


def det_rows(field, rows):
    """Determinant of a square matrix given as rows."""
    n = len(rows)
    if n == 0:
        return field.one()
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    work = [list(r) for r in rows]
    det = field.one()
    for col in range(n):
        src = None
        for r in range(col, n):
            if work[r][col] != 0:
                src = r
                break
        if src is None:
            return field.zero()
        if src != col:
            work[col], work[src] = work[src], work[col]
            det = field.neg(det)
        piv = work[col][col]
        det = field.mul(det, piv)
        inv = field.inv(piv)
        for r in range(col + 1, n):
            if work[r][col] != 0:
                c = field.mul(work[r][col], inv)
                work[r] = [field.sub(work[r][k], field.mul(c, work[col][k]))
                           for k in range(n)]
    return det


def mat_mul_rows(field, a, b):
    """Product of two row-lists (a: r x n, b: n x c)."""
    if not a:
        return []
    n = len(a[0])
    if n != len(b):
        raise ValueError("shape mismatch in matrix product")
    c = len(b[0]) if b else 0
    zero = field.zero()
    out = []
    for row in a:
        acc = [zero] * c
        for k, x in enumerate(row):
            if x != 0:
                brow = b[k]
                for j in range(c):
                    y = brow[j]
                    if y != 0:
                        acc[j] = field.add(acc[j], field.mul(x, y))
        out.append(tuple(acc))
    return out


# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a Field."""

    __slots__ = ("field", "nrows", "ncols", "entries", "_rank")

    def __init__(self, field, entries, ncols=None):
        entries = [tuple(field.normalize(x) for x in row) for row in entries]
        nrows = len(entries)
        if nrows:
            ncols = len(entries[0])
            if any(len(r) != ncols for r in entries):
                raise ValueError("ragged matrix")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, field, rows, ncols):
        # trusted path: rows are tuples of already-normalized scalars
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "entries", tuple(rows))
        object.__setattr__(m, "_rank", None)
        return m

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        one, z = field.one(), field.zero()
        return cls(field, [[one if i == j else z for j in range(n)]
                           for i in range(n)], n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.ncols, self.entries))

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field, self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        if self.ncols == 0:
            return Matrix.zero(self.field, self.nrows, other.ncols)
        rows = mat_mul_rows(self.field, self.entries, list(other.entries))
        return Matrix._raw(self.field, rows, other.ncols)

    def transpose(self):
        return Matrix(self.field,
                      [[self.entries[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], self.nrows)

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def rank(self):
        if self._rank is None:
            _, piv = rref_rows(self.field, list(self.entries))
            object.__setattr__(self, "_rank", len(piv))
        return self._rank

    def det(self):
        return det_rows(self.field, list(self.entries))

    def row_space(self):
        return Subspace.from_rows(self.field, self.ncols, self.entries)

    def left_kernel(self):
        """Subspace {x : x @ self == 0} of k^nrows."""
        _, _, _, rows, piv = rref_transform(self.field, self.entries)
        return Subspace(self.field, self.nrows, rows, piv)

    def right_kernel(self):
        return self.transpose().left_kernel()


class Subspace:
    """Subspace of k^ambient, stored as a reduced-row-echelon basis.

    The representation is canonical: two Subspaces are equal iff they are the
    same subspace.
    """

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots=None):
        if pivots is None:
            rows, pivots = rref_rows(field, [list(r) for r in rows])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, field, ambient, rows):
        rows = [[field.normalize(x) for x in r] for r in rows]
        if any(len(r) != ambient for r in rows):
            raise ValueError("row length does not match ambient dimension")
        rr, piv = rref_rows(field, rows)
        return cls(field, ambient, rr, piv)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        one, z = field.one(), field.zero()
        rows = [tuple(one if j == i else z for j in range(ambient))
                for i in range(ambient)]
        return cls(field, ambient, rows, tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return "Subspace(%s, dim %d of k^%d)" % (self.field, self.dim,
                                                 self.ambient)

    def reduce(self, v):
        return reduce_row(self.field, v, self.rows, self.pivots)

    def contains_vector(self, v):
        return all(x == 0 for x in self.reduce(v))

    def contains(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def meet(self, other):
        """Intersection by Zassenhaus: in the rref of the rows (u|u) of self
        above (w|0) of other, the rows (0|x) are the rref basis of u n w."""
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("ambient mismatch")
        n = self.ambient
        z = (self.field.zero(),) * n
        red, pivots = rref_rows(self.field, [r + r for r in self.rows]
                                + [r + z for r in other.rows])
        k = bisect_left(pivots, n)
        return Subspace(self.field, n, [r[n:] for r in red[k:]],
                        [p - n for p in pivots[k:]])

    def join(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("ambient mismatch")
        return Subspace.from_rows(self.field, self.ambient,
                                  list(self.rows) + list(other.rows))

    # -- canonical quotient coordinates (non-pivot columns) -----------------

    def nonpivots(self):
        pset = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pset]

    def proj_coords(self, v):
        """Coordinates of v + self in the canonical quotient basis."""
        red = self.reduce(v)
        return tuple(red[j] for j in self.nonpivots())

    def lift_coords(self, c):
        """Canonical coset representative with the given quotient coords."""
        z = self.field.zero()
        v = [z] * self.ambient
        for x, j in zip(c, self.nonpivots()):
            v[j] = x
        return tuple(v)

    def quotient_rows(self):
        """Rows of the projection k^ambient -> k^(ambient - dim)."""
        f = self.field
        one, z = f.one(), f.zero()
        out = []
        for i in range(self.ambient):
            e = [z] * self.ambient
            e[i] = one
            out.append(self.proj_coords(e))
        return out


class Quotient:
    """The subquotient big/small of nested subspaces, in its canonical basis.

    basis is the rref basis of big/small in small's quotient coordinates
    (Subspace.proj_coords), with its pivots; lift(k) is the canonical coset
    representative of basis[k].
    """

    __slots__ = ("small", "basis", "pivots")

    def __init__(self, small, big):
        if not big.contains(small):
            raise ValueError("quotient requires containment")
        self.small = small
        self.basis, self.pivots = rref_rows(
            small.field, [small.proj_coords(r) for r in big.rows])

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, v):
        """Coordinates of v + small in basis, or None when v is not in big."""
        return solve_in_rows(self.small.field, self.basis, self.pivots,
                             self.small.proj_coords(v))

    def lift(self, k):
        return self.small.lift_coords(self.basis[k])


def all_vectors(field, n):
    """All vectors of k^n; prime fields only."""
    if field.p is None:
        raise ValueError("cannot enumerate vectors over Q")
    if n == 0:
        yield ()
        return
    for rest in all_vectors(field, n - 1):
        for x in field.elements():
            yield (x,) + rest


def all_subspaces(field, ambient):
    """Every subspace of k^ambient (prime fields, small dimensions)."""
    seen = set()
    out = []
    vecs = list(all_vectors(field, ambient))
    # greedy closure: span of every subset of an rref-generating set is found
    # by iterating rref over all vector subsets of bounded size; ambient is
    # small so enumerate by rank extension instead
    frontier = [Subspace.zero(field, ambient)]
    seen.add(frontier[0].rows)
    out.append(frontier[0])
    while frontier:
        nxt = []
        for sub in frontier:
            for v in vecs:
                if sub.contains_vector(v):
                    continue
                bigger = Subspace.from_rows(field, ambient,
                                            list(sub.rows) + [v])
                if bigger.rows not in seen:
                    seen.add(bigger.rows)
                    out.append(bigger)
                    nxt.append(bigger)
        frontier = nxt
    out.sort(key=lambda s: (s.dim, s.rows))
    return out


# ---------------------------------------------------------------------------
# integers: Smith normal form and modular solving

class IntMatrix:
    """Dense integer matrix; the cohomology backend works over Z."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries, ncols=None):
        entries = [tuple(int(x) for x in row) for row in entries]
        nrows = len(entries)
        if nrows:
            ncols = len(entries[0])
            if any(len(r) != ncols for r in entries):
                raise ValueError("ragged matrix")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ncols, self.entries))

    def __repr__(self):
        return "IntMatrix(%dx%d)" % (self.nrows, self.ncols)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        b = other.entries
        out = []
        for row in self.entries:
            acc = [0] * other.ncols
            for k, x in enumerate(row):
                if x:
                    br = b[k]
                    for j in range(other.ncols):
                        acc[j] += x * br[j]
            out.append(acc)
        return IntMatrix(out, other.ncols)


def smith_normal_form(m):
    """Invariant factors (divisibility chain) and rank of an integer matrix.

    Accepts an IntMatrix or a plain list of rows.
    """
    s, _, _ = snf_with_transforms(m, want_transforms=False)
    factors = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))
               if s[i][i] != 0]
    return factors, len(factors)


def snf_with_transforms(m, want_transforms=True):
    """Smith normal form S = U M V with U, V unimodular.

    Returns (S, U, V) as lists of rows; U, V are None when not requested.
    """
    if isinstance(m, IntMatrix):
        rows = [list(r) for r in m.entries]
        ncols = m.ncols
    else:
        rows = [list(r) for r in m]
        ncols = len(rows[0]) if rows else 0
    nrows = len(rows)
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)] \
        if want_transforms else None
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] \
        if want_transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        ri, rj = rows[i], rows[j]
        for k in range(ncols):
            ri[k] -= q * rj[k]
        if U is not None:
            ui, uj = U[i], U[j]
            for k in range(nrows):
                ui[k] -= q * uj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in rows:
            r[i] -= q * r[j]
        if V is not None:
            for r in V:
                r[i] -= q * r[j]

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        if V is not None:
            for r in V:
                r[i], r[j] = r[j], r[i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate a nonzero entry of least absolute value in the block
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
        # pivot must divide the rest of the block
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
            row_op(t, offender, -1)  # fold the offending row in and retry
            continue
        if piv < 0:
            for k in range(ncols):
                rows[t][k] = -rows[t][k]
            if U is not None:
                for k in range(nrows):
                    U[t][k] = -U[t][k]
        t += 1
    return rows, U, V


def int_inverse_unimodular(rows):
    """Inverse of a unimodular integer matrix, entrywise integer."""
    _, pivots, inv, _, _ = rref_transform(QQ, rows)
    if len(pivots) != len(rows):
        raise ValueError("matrix is singular")
    if any(x.denominator != 1 for r in inv for x in r):
        raise ValueError("inverse is not integral")
    return [[int(x) for x in r] for r in inv]


def _egcd(a, b):
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1), 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def solve_mod(a_rows, b, d):
    """One solution x of A x = b (mod d); d == 0 means over Z.  None if none.

    A is a list of rows, b a vector; x is returned as a list of ints reduced
    mod d when d > 0.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if a_rows else 0
    if nrows == 0:
        return [0] * ncols
    s, u, v = snf_with_transforms(a_rows)
    # A = U^-1 S V^-1, so A x = b  <=>  S y = U b with x = V y
    ub = [sum(u[i][k] * b[k] for k in range(nrows)) for i in range(nrows)]
    y = [0] * ncols
    for i in range(nrows):
        si = s[i][i] if i < ncols else 0
        rhs = ub[i]
        if si == 0:
            if d == 0:
                if rhs != 0:
                    return None
            else:
                if rhs % d != 0:
                    return None
            continue
        if d == 0:
            if rhs % si != 0:
                return None
            y[i] = rhs // si
        else:
            g, inv, _ = _egcd(si, d)
            if rhs % g != 0:
                return None
            y[i] = ((rhs // g) * inv) % d
    x = [sum(v[i][k] * y[k] for k in range(ncols)) for i in range(ncols)]
    if d > 0:
        x = [xi % d for xi in x]
    return x
