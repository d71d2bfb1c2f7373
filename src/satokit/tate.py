"""Lattices in formal-Laurent-series spaces and their calculus.

A lattice L in k((t))^n is an open, linearly compact subspace; here it is
stored as a subspace of the finite quotient t^lo O^n / t^hi O^n sandwiched by
t^hi O^n <= L <= t^lo O^n, with lo maximal and hi minimal.  Window
coordinates are the monomials t^e u_i, e ascending then unit index ascending,
so every lattice has one canonical representation and lattice equality is
data equality.

Morphisms are Laurent-polynomial matrices, admissible exactly when they have
full row rank (monos) or full column rank (epis) over the rational function
field; short exact sequences of spaces then restrict and project lattices,
with sandwich bounds derived from one-sided inverses over k(t), each a
Laurent matrix N over one Laurent denominator d (d == 1 exactly when a Laurent
inverse exists).

The classical non-admissible monomorphism k[t] -> k[[t]] is not representable
here: k[t] is not a finite-rank Laurent-series space, so it is not an object
of this model at all.  Every mono the model can express is admissible.

A Lattice is the value (space, lo, hi, basis), basis the rref Subspace of
its window, and window_subspace shifts and masks its rows into any window,
above unit rows for the levels past its hi, so meet, join and b <= a work in
windows no wider than one input's, however far apart the inputs lie:
[max lo, max hi) for the meet, [min lo, min hi) for the join, a's own basis
for b <= a; the level stripping cuts the window's rows as they are, so no
row is unpacked or packed.

lattice_normalize, the entry for rows from outside, reduces them through
Subspace.from_rows, which checks every scalar; meet, join, lift and project
hand rows they built themselves to the trusted rref and kernel, and from
there to the level stripping.

Lift and project read their window bounds and generator rows off a stencil
cached on the sequence: each row of i or j as its terms (e, column, c) sorted
by e, so a shifted row or a combination of rows is read off it without a
Laurent polynomial, beside the least valuations of the matrix and of its
one-sided inverse.  A lift's generators and a projection's tail are one
window row per row of i or j, shifted up n columns per power of t and masked
at the window's top; shifts only raise exponents, so none escapes below the
window.  An empty window [LO, LO) gives t^LO O^n with no window built.
The sequences satokit derives are twisted splits, all built by one
constructor, twisted_split: the coordinate split conjugated by an
automorphism A, whose i, j and one-sided inverses are row and column slices
of A and A^-1.  split_tate_ses is the twisted split by the identity,
memoized, so one checked split serves every caller.  TateSES checks its
one-sided inverses and i . j = 0 on the term tuples of laurent's product
kernel, so a check builds no Laurent polynomial or matrix, and keeps its
three spaces, which every lift and project hands on.  The stencils read the
matrices' term rows.
"""

from __future__ import annotations

import functools

from .exactlin import (Matrix, Quotient, Subspace, Value, _checked_int,
                       _row_in, _rref, _shifted, _split, _transform, _units)
from .laurent import (LaurentMatrix, LaurentPoly, _product_terms,
                      left_inverse, right_inverse)


class TateSpace(Value):
    """The space k((t))^n."""

    __slots__ = ("field", "rank")

    def __init__(self, field, rank):
        _checked_int(rank, "rank", 0)
        _space_field(self, field)
        _space_rank(self, rank)

    def __eq__(self, other):
        return self is other or (isinstance(other, TateSpace)
                                 and self.field == other.field
                                 and self.rank == other.rank)

    def __hash__(self):
        return hash((self.field, self.rank))

    def __repr__(self):
        return "TateSpace(%s((t))^%d)" % (self.field, self.rank)


class Lattice(Value):
    """Element of the Sato Grassmannian of a TateSpace, canonical form.

    basis is the rref Subspace of the lattice modulo t^hi O^n in its window
    t^lo O^n / t^hi O^n; rows is its tuple view.
    """

    __slots__ = ("space", "lo", "hi", "basis")

    def __init__(self, space, lo, hi, basis, _normalized=False):
        if not _normalized:
            raise ValueError("use lattice_normalize to build lattices")
        _lat_space(self, space)
        _lat_lo(self, lo)
        _lat_hi(self, hi)
        _lat_basis(self, basis)

    @property
    def rows(self):
        return self.basis.rows

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.space == other.space
                and self.lo == other.lo and self.hi == other.hi
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.space, self.lo, self.hi, self.basis))

    def __repr__(self):
        return "Lattice(%r, lo=%d, hi=%d, extra_dim=%d)" % (
            self.space, self.lo, self.hi, self.basis.dim)

    @property
    def field(self):
        return self.space.field


_space_field, _space_rank = TateSpace.field.__set__, TateSpace.rank.__set__
_lat_space, _lat_lo = Lattice.space.__set__, Lattice.lo.__set__
_lat_hi, _lat_basis = Lattice.hi.__set__, Lattice.basis.__set__


def standard_lattice(space, shift=0):
    """t^shift O^n; k((t))^0 has the one lattice 0, with lo = hi = 0."""
    shift = _checked_int(shift, "shift") if space.rank else 0
    return Lattice(space, shift, shift, Subspace.zero(space.field, 0),
                   _normalized=True)


def lattice_normalize(space, lo, hi, raw_basis):
    """Canonical Lattice from window bounds and basis rows over the window
    quotient t^lo O^n / t^hi O^n (monomial coordinates, e then unit); a
    scalar that is not an int or a Fraction in the field raises ValueError,
    and so do bounds that are not ints."""
    if _checked_int(lo, "lo") > _checked_int(hi, "hi"):
        raise ValueError("lo must be <= hi")
    return _stripped(space, lo, hi, Subspace.from_rows(
        space.field, (hi - lo) * space.rank, raw_basis))


def _stripped(space, lo, hi, sub):
    """The Lattice of sub, a subspace of the window t^lo O^n / t^hi O^n,
    with its window shrunk to the minimal one."""
    n, field = space.rank, space.field
    if n == 0:
        return standard_lattice(space)
    rows, pivots = sub._rows, sub.pivots
    # deep strip: drop full monomial levels at the hi end, all at once.  The
    # pivots are sorted and distinct, so the last k columns are pivots when
    # the k-th last pivot is; the other rows vanish there and stay in rref
    # once cut short.
    k, width = 0, (hi - lo) * n
    while k < len(pivots) and pivots[-1 - k] == width - 1 - k:
        k += 1
    k -= k % n
    if k:
        rows = _split(field, rows[:-k], width - k)[0]
        pivots = pivots[:-k]
        hi -= k // n
    # shallow strip: drop all-zero levels at the lo end, all at once.  In
    # rref the first pivot is the first nonzero column of every row.
    cut = pivots[0] // n * n if pivots else (hi - lo) * n
    if cut:
        rows = _split(field, rows, cut)[1]
        pivots = [p - cut for p in pivots]
        lo += cut // n
    if k or cut:
        sub = Subspace._raw(field, (hi - lo) * n, rows, pivots)
    return Lattice(space, lo, hi, sub, _normalized=True)


def window_subspace(lat, LO, HI):
    """The rref Subspace of (lat n t^LO O^n) / t^HI O^n, for any LO <= HI.

    Its rows are lat's rows with pivots in [LO, HI), shifted into the window
    and masked at t^HI, above the unit rows (1 << B c, for B-bit entries,
    over F2 to F13) of t^max(lat.hi, LO) ... t^(HI-1).  A combination of
    lat's rows starts at its first pivot, since each pivot column is clear in
    the other rows; so rows with pivots below t^LO drop out, and the others
    lose only zeros.  The stack is already in rref, so no reduction runs.
    """
    n, field, basis = lat.space.rank, lat.field, lat.basis
    width, off = (HI - LO) * n, (lat.lo - LO) * n
    rows, pivots = [], []
    for r, p in zip(basis._rows, basis.pivots):
        if 0 <= p + off < width:
            rows.append(_shifted(field, r, off, width))
            pivots.append(p + off)
    units = range(max(lat.hi - LO, 0) * n, width)
    rows += _units(field, width, units.start)
    pivots += units
    return Subspace._raw(field, width, rows, pivots)


def _check_same_space(a, b):
    if a.space != b.space:
        raise ValueError("lattices live in different spaces")


def lattice_contains(a, b):
    """True iff b <= a as subspaces of k((t))^n: b <= t^(a.lo) O^n, that is
    b.lo >= a.lo as b.lo is maximal, and b's rows in a's window lie in a."""
    _check_same_space(a, b)
    if b.lo < a.lo:
        return False
    return a.basis.contains(window_subspace(b, a.lo, a.hi))


def lattice_meet(a, b):
    _check_same_space(a, b)
    LO, HI = max(a.lo, b.lo), max(a.hi, b.hi)
    n = a.space.rank
    # the Zassenhaus stack: each lattice's rows (at most) and its unit rows
    # up to t^HI, at twice the window's width
    _check_window("meet", sum(x.basis.dim + n * (HI - max(x.hi, LO))
                              for x in (a, b)), 2 * (HI - LO) * n)
    return _stripped(a.space, LO, HI, window_subspace(a, LO, HI).meet(
        window_subspace(b, LO, HI)))


def lattice_join(a, b):
    _check_same_space(a, b)
    LO, HI = min(a.lo, b.lo), min(a.hi, b.hi)
    return _stripped(a.space, LO, HI, window_subspace(a, LO, HI).join(
        window_subspace(b, LO, HI)))


def relative_index(a, b):
    """dim(a / a n b) - dim(b / a n b).

    This is the difference of the dimensions of window_subspace(a, LO, HI)
    and window_subspace(b, LO, HI) in any common window: each lattice
    contributes its own rows plus n unit rows per level from its hi up to HI.
    """
    _check_same_space(a, b)
    return a.basis.dim - b.basis.dim + a.space.rank * (b.hi - a.hi)


# ---------------------------------------------------------------------------
# admissible short exact sequences of Tate spaces

class TateSESInvalid(Exception):
    def __init__(self, code):
        self.code = code
        super().__init__(code)


class TateSES(Value):
    """Validated  X' >--i--> X --j->> X''  with Laurent-polynomial matrices.

    The constructor is the one validation path.  Admissibility is full rank
    over k(t), proven by one-sided inverses kept as (N, d) pairs: ri with
    i . N = d . I and lj with N . j = d . I, each verified exactly.  An
    (N, d) pair ri or lj given by the caller is checked in place of a
    computed one, so no echelon runs for it; d must be nonzero, since
    N = 0 over d = 0 would pass the check.  Exactness in the middle is then
    i . j = 0 together with the rank count a + c = b.  The sequence keeps its
    spaces X', X and X'' as sub_space, total_space and quot_space.
    """

    __slots__ = ("i", "j", "ri", "lj", "sub_space", "total_space",
                 "quot_space", "_cache")

    def __init__(self, i, j, ri=None, lj=None):
        if i.ncols != j.nrows:
            raise ValueError("middle ranks disagree")
        if i.field != j.field:
            raise ValueError("field mismatch")
        ri = _one_sided(i, ri, False, "not-mono",
                        "seeded right inverse fails i . B = 1")
        lj = _one_sided(j, lj, True, "not-epi",
                        "seeded left inverse fails C . j = 1")
        if any(map(any, _product_terms(i, j))):
            raise TateSESInvalid("composite-nonzero")
        if i.nrows + j.ncols != i.ncols:
            raise TateSESInvalid("inexact-at-middle")
        f = i.field
        for put, value in zip(_ses_setters, (
                i, j, ri, lj, TateSpace(f, i.nrows), TateSpace(f, i.ncols),
                TateSpace(f, j.ncols), {})):
            put(self, value)

    @property
    def field(self):
        return self.i.field


_ses_setters = [getattr(TateSES, name).__set__ for name in TateSES.__slots__]


def _one_sided(m, seed, left, code, message):
    """(N, d), a one-sided inverse of m verified exactly: the seed pair
    (ValueError(message) when it fails, or naming it when it is no (N, d)
    pair or d = 0), else the computed one (TateSESInvalid(code) if none)."""
    if seed is not None:
        name = "lj" if left else "ri"
        if not (isinstance(seed, tuple) and tuple(map(type, seed))
                == (LaurentMatrix, LaurentPoly)):
            raise ValueError("seed %s is not an (N, d) pair" % name)
        if seed[1].is_zero():
            raise ValueError("seed %s has denominator 0" % name)
    nd = seed or (left_inverse(m) if left else right_inverse(m))
    if nd is not None and _verify_one_sided(m, *nd, left=left):
        return nd
    if seed is not None:
        raise ValueError(message)
    raise TateSESInvalid(code)


def _verify_one_sided(m, inv, den, left):
    """Exact check of inv . m = den . I (left) or m . inv = den . I (right)
    in k[t, 1/t], which holds exactly when inv/den is a one-sided inverse
    over k(t); the product's term tuples are compared as they are."""
    prod = _product_terms(inv, m) if left else _product_terms(m, inv)
    n, z = (m.ncols if left else inv.ncols), ((),)
    return len(prod) == n and all(
        row == z * r + (den.terms,) + z * (n - r - 1)
        for r, row in enumerate(prod))


@functools.cache  # the sequence is immutable; its stencils serve every use
def split_tate_ses(field, a, c):
    """The coordinate split k((t))^a >--> k((t))^(a+c) -->> k((t))^c: the
    twisted split by the identity, so its one-sided inverses are the
    transposes of i and j."""
    one = LaurentMatrix.identity(field, a + c)
    return twisted_split(one, one, a)


def twisted_split(aut, aut_inv, a):
    """The split k((t))^a >--> k((t))^n -->> k((t))^(n-a) conjugated by an
    automorphism A = aut of k((t))^n with inverse aut_inv, read off as
    slices: i = P . A, the first a rows of A, and j = A^-1 . Q, the last
    n - a columns of A^-1, with the one-sided inverses A^-1 . P^T and
    Q^T . A, the other two blocks, over d = 1.  TateSES checks them, and
    i . j = 0, on the term rows."""
    field, n = aut.field, aut.ncols
    one, rows, inv = LaurentPoly.one(field), aut._rows, aut_inv._rows
    return TateSES(
        LaurentMatrix._raw(field, rows[:a], n),
        LaurentMatrix._raw(field, tuple([r[a:] for r in inv]), n - a),
        (LaurentMatrix._raw(field, tuple([r[:a] for r in inv]), a), one),
        (LaurentMatrix._raw(field, rows[a:], n), one))


def _stencil(ses, name):
    """Per row of ses.i or ses.j (name "i" or "j"), its terms (e, column, c)
    sorted by e, with the matrix's least valuation and the pole order of its
    one-sided inverse N/d (ses.ri or ses.lj): N's least valuation less d's,
    with 0 for N's when N = 0 (no lift or project reads it then); cached on
    ses."""
    key = "st" + name
    if key not in ses._cache:
        m = getattr(ses, name)
        inv, den = ses.ri if name == "i" else ses.lj
        ses._cache[key] = ([sorted([(e, col, c) for col, t in enumerate(row)
                                    for e, c in t])
                            for row in m._rows], m.min_valuation(),
                           (inv.min_valuation() or 0) - den.val())
    return ses._cache[key]


def _window_terms(field, row, n, lo):
    """(c, e, k) of the nonzero entries c t^e u_k of an internal window row
    from t^lo, read off its set bits, nonzero byte lanes or entries."""
    if field.p == 2:
        row = map(int, bin(row)[:1:-1])
    elif field._bits:
        row = row.to_bytes((row.bit_length() + 7) >> 3, "little")
    return [(x, lo + q // n, q % n) for q, x in enumerate(row) if x]


def _window_row(field, rows, n, LO, HI, terms):
    """The internal row, in the window [LO, HI) of k((t))^n, of the sum of
    c t^s rows[k] over (c, s, k) in terms, rows those of a stencil: exponents
    >= HI drop out, and a sum with a nonzero term below t^LO (terms there may
    cancel) raises ValueError.  The row is exactlin's: bits over F2, one int
    of byte lanes over F_p with p (p - 1) < 256, else a tuple."""
    p = field.p
    acc = 0 if p == 2 else [field.zero()] * ((HI - LO) * n)
    below = {}
    for c, s, k in terms:
        for e, col, x in rows[k]:
            e += s
            if e >= HI:
                break
            if e < LO:
                below[e, col] = below.get((e, col), 0) + c * x
            elif p == 2:
                acc ^= 1 << ((e - LO) * n + col)
            else:
                acc[(e - LO) * n + col] += c * x
    escaped = [e for (e, _), x in below.items() if (x % p if p else x)]
    if escaped:
        raise ValueError("vector escapes the window at t^%d" % min(escaped))
    if p == 2:
        return acc
    return _row_in(field, acc if p is None else [x % p for x in acc])


def _monomial_images(field, rows, n, LO, HI, e0, e1, m):
    """The window rows in [LO, HI) of the images of t^e u_k for e0 <= e < e1
    and k < m, e then k ascending, rows those of a stencil: the image of
    t^e0 u_k, built once by _window_row, shifted up (e - e0) n columns (one
    level per power of t) and masked at t^HI."""
    one, width = field.one(), (HI - LO) * n
    base = [_window_row(field, rows, n, LO, HI, ((one, e0, k),))
            for k in range(m)] if e0 < e1 else []
    return [_shifted(field, r, (e - e0) * n, width)
            for e in range(e0, e1) for r in base]


# the most cells (rows x columns) of a dense window that lift, project and
# meet build; the largest that the verify suites and the tests build has 600
MAX_WINDOW_CELLS = 1 << 20
# the most rows x rows x columns (the elimination work) of a lift or project
# window; the tests, verify all and the benchmark reach 37544
MAX_WINDOW_WORK = 1 << 26


class WindowTooLarge(Exception):
    """A lift, project or meet would build a window past a cap."""


def _check_window(verb, rows, cols, eliminated=False):
    if rows * cols > MAX_WINDOW_CELLS:
        raise WindowTooLarge("%s needs a window of %d x %d cells, over the "
                             "cap of %d" % (verb, rows, cols,
                                            MAX_WINDOW_CELLS))
    if eliminated and rows * rows * cols > MAX_WINDOW_WORK:
        raise WindowTooLarge("%s needs an elimination of %d x %d x %d (rows x "
                             "rows x columns), over the cap of %d"
                             % (verb, rows, rows, cols, MAX_WINDOW_WORK))


def lift_lattice(ses, u):
    """The lattice i^(-1)(u) in X', a.k.a. u n X'.

    Sandwich bounds come from the entry valuations of i and of a right
    inverse N/d of i over k(t), whose least valuation is that of N less that
    of d; the kernel computation inside the windows is exact, so the bounds
    only need to be safe, and the right-inverse identity is verified exactly
    once per sequence.  A window past MAX_WINDOW_CELLS or MAX_WINDOW_WORK
    raises WindowTooLarge before it is built.

    The generators, the images of t^e u_k for LO <= e < HI, are a window
    rows shifted by _monomial_images; none escapes below t^LO_t, since
    e + vmin_i >= LO + vmin_i >= LO_t.  The lift is the left kernel of the
    generators reduced modulo u's window: reduced rows vanish at its pivot
    columns, so this is the kernel of their classes in the quotient.
    """
    if u.space != ses.total_space:
        raise ValueError("lattice does not live in the middle space")
    a, b = ses.i.nrows, ses.i.ncols
    field, src = ses.field, ses.sub_space
    if a == 0:
        return standard_lattice(src)
    irows, vmin_i, vmin_b = _stencil(ses, "i")
    HI = u.hi - vmin_i
    LO = u.lo + vmin_b
    if LO == HI:  # the sandwich t^HI O^a <= lift <= t^LO O^a is tight
        return standard_lattice(src, LO)
    # images of window monomials are classes mod t^(u.hi) O^b, which is
    # inside u, so the membership test happens in u's own window
    LO_t = min(u.lo, LO + vmin_i)
    # u's rows and the generators are each built across that window
    _check_window("lift", max(u.basis.dim, (HI - LO) * a),
                  (u.hi - LO_t) * b, True)
    u_w = window_subspace(u, LO_t, u.hi)
    gen = [u_w._reduce(r) for r in _monomial_images(
        field, irows, b, LO_t, u.hi, LO, HI, a)]
    kernel, pivots = _transform(field, gen, u_w.ambient)[3:]
    return _stripped(src, LO, HI, Subspace._raw(field, len(gen), kernel,
                                                pivots))


def project_lattice(ses, u):
    """The image lattice j(u) = u / (u n X') in X''; a window past a cap
    raises WindowTooLarge before it is built."""
    if u.space != ses.total_space:
        raise ValueError("lattice does not live in the middle space")
    b, c = ses.j.nrows, ses.j.ncols
    field, dst = ses.field, ses.quot_space
    if c == 0:
        return standard_lattice(dst)
    jrows, vmin_j, vmin_c = _stencil(ses, "j")
    HI = u.hi - vmin_c
    LO = u.lo + vmin_j
    if LO == HI:  # the sandwich t^HI O^c <= j(u) <= t^LO O^c is tight
        return standard_lattice(dst, LO)
    _check_window("project", u.basis.dim + max(HI - vmin_j - u.hi, 0) * b,
                  (HI - LO) * c, True)
    # images of u's rows, then of the monomials t^e u_k of u's tail for
    # u.hi <= e < HI - vmin_j, one row of j each, shifted; j maps the deeper
    # ones into t^HI O^c
    gen = [_window_row(field, jrows, c, LO, HI,
                       _window_terms(field, r, b, u.lo))
           for r in u.basis._rows]
    gen += _monomial_images(field, jrows, c, LO, HI, u.hi, HI - vmin_j, b)
    return _stripped(dst, LO, HI, Subspace._raw(field, (HI - LO) * c,
                                                *_rref(field, gen)))


# ---------------------------------------------------------------------------
# canonical quotient bases and determinant scalars for nested lattices

def lambda_scalar_chain(a, b, c):
    """Scalar of det(b/a) (x) det(c/b) -> det(c/a) in canonical bases.

    a <= b <= c lattices; the scalar is the determinant of the matrix that
    expresses (basis of b/a, canonically lifted basis of c/b) in the
    canonical basis of c/a.  Each Quotient checks its containment, so a
    chain that is not nested raises ValueError.
    """
    _check_same_space(a, b)
    _check_same_space(b, c)
    LO, HI = min(a.lo, b.lo, c.lo), max(a.hi, b.hi, c.hi)
    a_w, b_w, c_w = (window_subspace(x, LO, HI) for x in (a, b, c))
    ca = Quotient(a_w, c_w)
    parts = (Quotient(a_w, b_w), Quotient(b_w, c_w))
    return Matrix._raw(a.field, [ca._coords(r) for q in parts
                                 for r in q._basis], ca.dim).det()


def delta_scalar_canonical(u, v):
    """Connecting scalar for nested lattices used by anchored determinantal
    theories: lambda against a reference lattice t^(2M) O^n at even depth.

    Any even reference depth at or below -max(hi) gives the same scalar, so
    the assignment is coherent: for u <= v <= w the cocycle
    delta(v,w) delta(u,v) = delta(u,w) lambda(u,v,w) holds on the nose.
    """
    _check_same_space(u, v)
    m = max(u.hi, v.hi)
    depth = m + (m & 1)
    ref = standard_lattice(u.space, depth)
    return lambda_scalar_chain(ref, u, v)


def fd_ses_of_pair(ses, u_sub, u):
    """The induced short exact sequence of finite quotients

        lift(u)/lift(u') >--> u/u' -->> proj(u)/proj(u')

    returned as validated exactcat data in canonical quotient bases, with
    the pairs (lift u', lift u) and (proj u', proj u).  Each quotient refuses
    a pair that is not nested with a ValueError, u/u' before any lift or
    projection runs, and SES refuses an inexact sequence."""
    from .exactcat import SES, LinMap
    q_mid = _lattice_quotient(u_sub, u)
    lifts = (lift_lattice(ses, u_sub), lift_lattice(ses, u))
    projs = (project_lattice(ses, u_sub), project_lattice(ses, u))
    field = ses.field
    q_left, q_right = _lattice_quotient(*lifts), _lattice_quotient(*projs)
    maps = []
    for name, (n, lo, _, src), (m, LO, HI, dst) in (("i", q_left, q_mid),
                                                   ("j", q_mid, q_right)):
        rows = _stencil(ses, name)[0]
        coords = [dst._coords(_window_row(field, rows, m, LO, HI,
                                          _window_terms(field, v, n, lo)))
                  for v in src._basis]
        if None in coords:
            raise ValueError("vector does not lie in the quotient")
        maps.append(LinMap.of(Matrix._raw(field, coords, dst.dim)))
    return SES(*maps), (lifts, projs)


def _lattice_quotient(small, big):
    """(rank, lo, hi, Quotient) of the finite quotient big/small of nested
    lattices, in the window [lo, hi) = [big.lo, small.hi); Quotient refuses
    a pair that is not nested."""
    lo, hi = min(small.lo, big.lo), max(small.hi, big.hi)
    return small.space.rank, lo, hi, Quotient(window_subspace(small, lo, hi),
                                              window_subspace(big, lo, hi))
