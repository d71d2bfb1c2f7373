"""The exact category of finite dimensional vector spaces.

Objects are dimensions over a fixed field; morphisms act on row vectors, so a
map f: a -> b is a (dim a x dim b) matrix and composition is matrix product
in diagram order.  A LinMap is a view of its Matrix: its source and target
are read off the matrix's field and shape.  Admissibility here coincides with
plain injectivity / surjectivity, read off the rank.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exactlin import Matrix, Quotient, Subspace, Value, _checked_int


class FdSpace(namedtuple("FdSpace", "field dim")):
    """The object k^dim of Vect_0(k): an immutable (field, dim) value."""

    __slots__ = ()

    def __new__(cls, field, dim):
        _checked_int(dim, "dimension", 0)
        return super().__new__(cls, field, dim)

    def __repr__(self):
        return "FdSpace(%s^%d)" % (self.field, self.dim)


class LinMap(Value, key=("matrix",)):
    """Linear map between FdSpaces; matrix rows act on the source basis.

    The map is its matrix and nothing more: equality and hash are the
    matrix's, and source and target are read off it on demand."""

    __slots__ = ("matrix",)

    def __init__(self, source, target, matrix):
        if not isinstance(matrix, Matrix):
            matrix = Matrix(source.field, matrix, ncols=target.dim)
        if source.field != target.field or matrix.field != source.field:
            raise ValueError("field mismatch")
        if matrix.nrows != source.dim or matrix.ncols != target.dim:
            raise ValueError("matrix shape %dx%d does not match %d -> %d"
                             % (matrix.nrows, matrix.ncols,
                                source.dim, target.dim))
        _map_matrix(self, matrix)

    @classmethod
    def of(cls, matrix):
        """The map whose matrix is matrix: every Matrix is one."""
        m = object.__new__(cls)
        _map_matrix(m, matrix)
        return m

    @classmethod
    def identity(cls, space):
        return cls.of(Matrix.identity(space.field, space.dim))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   Matrix.zero(source.field, source.dim, target.dim))

    @property
    def source(self):
        return FdSpace(self.matrix.field, self.matrix.nrows)

    @property
    def target(self):
        return FdSpace(self.matrix.field, self.matrix.ncols)

    def __repr__(self):
        m = self.matrix
        return "LinMap(%d -> %d over %s)" % (m.nrows, m.ncols, m.field)

    def then(self, other):
        """Diagram-order composition: first self, then other."""
        a, b = self.matrix, other.matrix
        if (a.field, a.ncols) != (b.field, b.nrows):
            raise ValueError("maps are not composable")
        return LinMap.of(a.mul(b))

    def apply(self, v):
        m = self.matrix
        return Matrix(m.field, [v], m.nrows).mul(m).entries[0]

    def is_mono(self):
        return self.matrix.rank() == self.matrix.nrows

    def is_epi(self):
        return self.matrix.rank() == self.matrix.ncols

    def is_iso(self):
        return self.matrix.nrows == self.matrix.ncols and self.is_mono()

    def is_zero(self):
        return self.matrix.is_zero()

    def image_subspace(self):
        return self.matrix.row_space()

    def kernel_subspace(self):
        """Kernel as a subspace of the source (row-vector convention)."""
        return self.matrix.left_kernel()

    def inverse(self):
        try:
            return LinMap.of(self.matrix.inverse())
        except ValueError:
            raise ValueError("not an isomorphism") from None


_map_matrix = LinMap.matrix.__set__


@lru_cache(maxsize=2048)
def canonical_section(j):
    """Canonical linear section s of an epi j (s then j = identity)."""
    m = j.matrix
    s = m.solve(Matrix.identity(m.field, m.ncols))
    if s is None:
        raise ValueError("section of a non-epi")
    return LinMap.of(s)


# ---------------------------------------------------------------------------

class SESInvalid(Exception):
    """A proposed short exact sequence failed; .code names the condition."""

    def __init__(self, code):
        self.code = code
        super().__init__(code)


class SES(Value):
    """Validated admissible short exact sequence  a' >--i--> a --j->> a''.

    The constructor is the one validation path: it raises SESInvalid naming
    the first condition that fails.  Then exactness in the middle is the
    count dim a' + dim a'' = dim a: ker j, of dimension dim a - dim a'' by
    rank-nullity, holds the image of i, of dimension dim a'."""

    __slots__ = ("i", "j")

    def __init__(self, i, j):
        mi, mj = i.matrix, j.matrix
        if (mi.field, mi.ncols) != (mj.field, mj.nrows):
            raise ValueError("middle objects disagree")
        if not i.is_mono():
            raise SESInvalid("not-mono")
        if not j.is_epi():
            raise SESInvalid("not-epi")
        if not i.then(j).is_zero():
            raise SESInvalid("composite-nonzero")
        if mi.nrows + mj.ncols != mi.ncols:
            raise SESInvalid("inexact-at-middle")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    @property
    def sub(self):
        return self.i.source

    @property
    def total(self):
        return self.i.target

    @property
    def quot(self):
        return self.j.target

    def __repr__(self):
        return "SES(%d >-> %d ->> %d)" % (self.sub.dim, self.total.dim,
                                          self.quot.dim)


def split_ses(field, a, b):
    """The coordinate split  k^a >--> k^(a+b) -->> k^b."""
    zero = Matrix.zero(field, a, b)
    return SES(LinMap.of(Matrix.identity(field, a).hstack(zero)),
               LinMap.of(zero.vstack(Matrix.identity(field, b))))


def inclusion_map(sub):
    """The subspace inclusion span(sub) -> k^ambient."""
    return LinMap.of(sub.basis_matrix())


def quotient_map(sub):
    """The canonical projection k^ambient -> k^ambient / span(sub)."""
    full = Subspace.full(sub.field, sub.ambient)
    return induced_map(Quotient(Subspace.zero(sub.field, sub.ambient), full),
                       Quotient(sub, full))


# ---------------------------------------------------------------------------
# pullbacks of monos, pushouts of epis, factorization

def pullback_admissible_monos(m1, m2):
    """Pullback of two admissible monos with common target.

    Returns (p, into1, into2) with into1 then m1 == into2 then m2, both legs
    admissible monos onto the intersection of the images.
    """
    if m1.target != m2.target:
        raise ValueError("monos must share their target")
    if not m1.is_mono() or not m2.is_mono():
        raise ValueError("input is not a monomorphism")
    w = m1.image_subspace().meet(m2.image_subspace())
    return FdSpace(w.field, w.dim), _corestrict(m1, w), _corestrict(m2, w)


def _corestrict(mono, w):
    # express each basis vector of w through the mono
    out = mono.matrix.solve(w.basis_matrix())
    if out is None:
        raise ValueError("subspace does not factor through the mono")
    return LinMap.of(out)


def pullback_mediator(into1, into2, cone1, cone2):
    """The unique mediator u with u then into1 == cone1 and u then into2 ==
    cone2, or None when the cone does not factor.  This is the on-demand
    universal property check for a pullback square."""
    if cone1.source != cone2.source:
        raise ValueError("cone legs must share their source")
    u_rows = into1.matrix.hstack(into2.matrix).solve(
        cone1.matrix.hstack(cone2.matrix))
    if u_rows is None:
        return None
    u = LinMap.of(u_rows)
    if u.then(into1) != cone1 or u.then(into2) != cone2:
        return None
    return u


def pushout_admissible_epis(e1, e2):
    """Pushout of two admissible epis with common source.

    Returns (q, from1, from2) with e1 then from1 == e2 then from2, both legs
    admissible epis; q is the quotient by ker e1 + ker e2.
    """
    if e1.source != e2.source:
        raise ValueError("epis must share their source")
    if not e1.is_epi() or not e2.is_epi():
        raise ValueError("input is not an epimorphism")
    proj = quotient_map(e1.kernel_subspace().join(e2.kernel_subspace()))
    return proj.target, _descend(e1, proj), _descend(e2, proj)


def _descend(epi, proj):
    # the unique map g with epi then g == proj
    return canonical_section(epi).then(proj)


def epi_mono_factorize(f, witness_mono, witness_epi):
    """Canonical epi-mono factorization of a mono-then-epi composite.

    The witnesses present f as witness_mono then witness_epi; the result
    (e, m) satisfies f == e then m with the middle object the echelon image
    subspace, so the factorization is canonical on the nose.
    """
    if not witness_mono.is_mono():
        raise ValueError("witness mono is not injective")
    if not witness_epi.is_epi():
        raise ValueError("witness epi is not surjective")
    if witness_mono.then(witness_epi) != f:
        raise ValueError("witnesses do not compose to f")
    return image_factorization(f)


def image_factorization(f):
    """f == e then m with m the echelon inclusion of the image."""
    img = f.image_subspace()
    return LinMap.of(img.coordinates(f.matrix)), LinMap.of(img.basis_matrix())


def factorization_connector(fac1, fac2):
    """The unique iso u between middle objects of two factorizations of the
    same map, or None when the factorizations are not conjugate.

    fac = (e, m); u satisfies e1 then u == e2 and u then m2 == m1.
    Uniqueness is forced because e1 is epi.  u is square, and u then m2 ==
    m1 makes it injective when m1 is mono, so u is ranked only when m1 is not.
    """
    (e1, m1), (e2, m2) = fac1, fac2
    a1, a2, b1, b2 = e1.matrix, e2.matrix, m1.matrix, m2.matrix
    if (a1.field, a1.nrows, a1.ncols) != (a2.field, a2.nrows, a2.ncols) or \
            (b1.field, b1.ncols) != (b2.field, b2.ncols):
        return None
    try:  # e1 epi forces u = section(e1) then e2; a non-epi has no section
        s = canonical_section(e1)
    except ValueError:
        return None
    u = s.then(e2)
    if e1.then(u) != e2 or u.then(m2) != m1:
        return None
    return u if m1.is_mono() or u.is_iso() else None


# ---------------------------------------------------------------------------
# admissible squares and 3x3 grids

def is_cartesian_square(top, left, bottom, right):
    """Cartesianity of a commuting square

        A --top--> B
        |          |
      left       right
        v          v
        C -bottom-> D

    tested by comparing A against the kernel-pullback inside B (+) C.
    """
    if top.then(right) != left.then(bottom):
        return False
    # pullback P = {(b, c) : b.right == c.bottom} inside B (+) C, computed
    # as the kernel of (b, c) |-> b.right - c.bottom
    pspace = right.matrix.vstack(bottom.matrix.neg()).left_kernel()
    # the induced map A -> B (+) C
    ind = top.matrix.hstack(left.matrix)
    return ind.row_space() == pspace and ind.rank() == ind.nrows


def is_cocartesian_square(top, left, bottom, right):
    """Cocartesianity: D is the quotient of B (+) C by the antidiagonal
    image of A."""
    if top.then(right) != left.then(bottom):
        return False
    anti = top.matrix.hstack(left.matrix.neg())
    anti_sub = anti.row_space()
    if right.matrix.ncols != anti.ncols - anti_sub.dim:
        return False
    # the induced map (B (+) C)/A -> D must be an isomorphism; equivalently
    # (right; bottom stacked) kills exactly the antidiagonal
    big = right.matrix.vstack(bottom.matrix)
    return big.left_kernel() == anti_sub and big.rank() == big.ncols


class GridError(Exception):
    pass


class Grid3x3:
    """Nine spaces with rows and columns forming admissible SES:

        tl >--> tm -->> tr
         v       v       v     (monos down from the first row)
        ml >--> mm -->> mr
         v       v       v     (epis down to the last row)
        bl >--> bm -->> br
    """

    ROW_KEYS = (("tl", "tm", "tr"), ("ml", "mm", "mr"), ("bl", "bm", "br"))

    def __init__(self, spaces, row_maps, col_maps):
        self.spaces = dict(spaces)      # key -> FdSpace
        self.row_maps = dict(row_maps)  # r -> (mono, epi)
        self.col_maps = dict(col_maps)  # c -> (mono, epi)

    def row_ses(self, r):
        return SES(*self.row_maps[r])

    def col_ses(self, c):
        return SES(*self.col_maps[c])

    def validate(self):
        """Check all six SES and the four corner squares; raise GridError."""
        for kind, lines in (("row", self.row_maps), ("column", self.col_maps)):
            for k in range(3):
                try:
                    SES(*lines[k])
                except SESInvalid as exc:
                    raise GridError("%s %d: %s" % (kind, k, exc.code))
        for r in range(2):
            for c in range(2):
                h0 = self.row_maps[r][c]      # horizontal map in row r
                h1 = self.row_maps[r + 1][c]  # horizontal map in row r+1
                v0 = self.col_maps[c][r]      # vertical map in column c
                v1 = self.col_maps[c + 1][r]  # vertical map in column c+1
                if h0.then(v1) != v0.then(h1):
                    raise GridError("square (%d,%d) does not commute" % (r, c))
        return True

    def transpose(self):
        spaces = {}
        for r, keys in enumerate(self.ROW_KEYS):
            for c, k in enumerate(keys):
                spaces[self.ROW_KEYS[c][r]] = self.spaces[k]
        return Grid3x3(spaces,
                       {k: v for k, v in self.col_maps.items()},
                       {k: v for k, v in self.row_maps.items()})


def induced_map(src, dst):
    """The map src -> dst between Quotients of one ambient space induced by
    its identity, in their canonical bases."""
    m = src.map_to(dst)
    if m is None:
        raise GridError("image escapes the target subquotient")
    return LinMap.of(m)


def complete_grid_3x3(top_mono, left_mono):
    """Complete the square of two admissible monos into x to a full 3x3 grid.

    top_mono and left_mono are admissible monos with the common target x;
    the grid's top-left corner is their pullback, the meet of their images.
    The grid is unvalidated, being exact by construction (induced_maps of
    nested subquotients); verify.suite_grid runs Grid3x3.validate on it.
    """
    top, left = top_mono.matrix, left_mono.matrix
    if (top.field, top.ncols) != (left.field, left.ncols):
        raise ValueError("monos must share their target")
    # a mono's image has the dimension of its source: one elimination each
    u_top, u_left = top_mono.image_subspace(), left_mono.image_subspace()
    if u_top.dim != top.nrows or u_left.dim != left.nrows:
        raise GridError("not-mono")
    f, amb = top.field, top.ncols
    w = u_top.meet(u_left)
    zero = Subspace.zero(f, amb)
    full = Subspace.full(f, amb)
    usum = u_top.join(u_left)
    # entries: tl = w, tm = u_top, tr = u_top/w
    #          ml = u_left, mm = x, mr = x/u_left
    #          bl = u_left/w, bm = x/u_top, br = x/(u_top + u_left)
    quots = {
        "tl": Quotient(zero, w), "tm": Quotient(zero, u_top),
        "tr": Quotient(w, u_top),
        "ml": Quotient(zero, u_left), "mm": Quotient(zero, full),
        "mr": Quotient(u_left, full),
        "bl": Quotient(w, u_left), "bm": Quotient(u_top, full),
        "br": Quotient(usum, full),
    }
    spaces = {k: FdSpace(f, q.dim) for k, q in quots.items()}

    def maps(keys):
        a, b, c = (quots[k] for k in keys)
        return induced_map(a, b), induced_map(b, c)

    row_maps = {r: maps(keys) for r, keys in enumerate(Grid3x3.ROW_KEYS)}
    col_maps = {c: maps(keys)
                for c, keys in enumerate(zip(*Grid3x3.ROW_KEYS))}
    return Grid3x3(spaces, row_maps, col_maps)
