"""Graded determinant lines, Koszul signs, and determinantal theories.

A graded line is an integer degree plus a basis label; a morphism of lines is
a nonzero scalar once bases are fixed, so all coherence diagrams reduce to
scalar identities.  The graded determinant assigns to a space its top
exterior power in degree dim; the ungraded variant keeps the same scalars but
forgets the grading, which is exactly what breaks the symmetry criterion in
odd dimensions.

Relative determinantal theories on the lattices of a Tate space are
dimtorsor.RelTheory objects under the value rule DetRule: the theory is its
(degree, scalar) value at a base lattice, and the connecting isomorphisms
for nested pairs come from a coherent canonical rule (an even-depth
reference lattice), or from the composed rule with the Koszul swap when a
theory is combined from two theories along a short exact sequence
(dimtorsor.mu_combine).
"""

from __future__ import annotations

from collections import namedtuple

from .exactcat import SES, FdSpace, LinMap, canonical_section, split_ses
from .exactlin import Matrix, Value, _checked_int
from .tate import (delta_scalar_canonical, fd_ses_of_pair,
                   lambda_scalar_chain, lattice_contains, lattice_meet,
                   relative_index, standard_lattice)


class GradedLine(Value, key=("field", "degree", "label")):
    """One-dimensional space with an integer degree and a basis label."""

    __slots__ = ("field", "degree", "label")

    def __init__(self, field, degree, label="1"):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", _checked_int(degree, "degree"))
        object.__setattr__(self, "label", str(label))

    @classmethod
    def unit(cls, field):
        return cls(field, 0, "1")

    def __repr__(self):
        return "GradedLine(deg %d, %s)" % (self.degree, self.label)

    def tensor(self, other):
        if self.label == "1":
            return GradedLine(self.field, self.degree + other.degree,
                              other.label)
        if other.label == "1":
            return GradedLine(self.field, self.degree + other.degree,
                              self.label)
        return GradedLine(self.field, self.degree + other.degree,
                          "%s(x)%s" % (self.label, other.label))


class LineIso(Value):
    """Isomorphism of graded lines: a nonzero scalar in fixed bases."""

    __slots__ = ("source", "target", "scalar")

    def __init__(self, source, target, scalar):
        if source.degree != target.degree:
            raise ValueError("degree mismatch %d -> %d"
                             % (source.degree, target.degree))
        scalar = source.field.normalize(scalar)
        if scalar == 0:
            raise ValueError("line morphisms are nonzero")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "scalar", scalar)

    def __repr__(self):
        return "LineIso(%r -> %r, scalar %s)" % (self.source, self.target,
                                                 self.scalar)

    def then(self, other):
        if self.target != other.source:
            raise ValueError("isos are not composable")
        f = self.source.field
        return LineIso(self.source, other.target,
                       f.mul(self.scalar, other.scalar))


def wedge_label(prefix, dim):
    if dim == 0:
        return "1"
    return "^".join("%s%d" % (prefix, i + 1) for i in range(dim))


def det_line(space):
    """The canonical determinant line of a finite dimensional space."""
    return GradedLine(space.field, space.dim, wedge_label("e", space.dim))


def det_map(f):
    """The determinant functor on isomorphisms."""
    if not f.is_iso():
        raise ValueError("det of a non-isomorphism")
    return LineIso(det_line(f.source), det_line(f.target), f.matrix.det())


def koszul_swap(x, y):
    """x (x) y -> y (x) x with the sign (-1)^(deg x . deg y)."""
    return LineIso(x.tensor(y), y.tensor(x),
                   koszul_sign(x.field, x.degree, y.degree))


def koszul_sign(field, a, b):
    return field.neg(field.one()) if (a * b) % 2 else field.one()


def lambda_ses(ses, graded=True):
    """The connecting iso det(a') (x) det(a'') -> det(a) of a SES.

    The scalar is the determinant of the rows (i(basis of a'), s(basis of
    a'')) in the basis of a, for s the canonical section of j.  Any section
    gives the same scalar: two sections differ by a map into i(a'), which
    adds multiples of the first rows to the last ones.
    """
    scalar = ses.i.matrix.vstack(canonical_section(ses.j).matrix).det()
    mk = _line_maker(graded)
    src = mk(ses.sub).tensor(mk(ses.quot))
    return LineIso(src, mk(ses.total), scalar)


def _line_maker(graded):
    if graded:
        return det_line
    return lambda space: GradedLine(space.field, 0,
                                    wedge_label("e", space.dim))


class DetTheory:
    """Determinantal theory: h on objects plus lambda on sequences.

    graded=True is the symmetric graded determinant; graded=False keeps the
    same scalars in degree 0, the classical non-symmetric determinant.
    """

    def __init__(self, field, graded=True):
        self.field = field
        self.graded = graded

    def h(self, space):
        return _line_maker(self.graded)(space)

    def lam(self, ses):
        return lambda_ses(ses, graded=self.graded)

    def lambda_scalar(self, ses):
        return self.lam(ses).scalar

    def symmetry_scalar(self, line_a, line_b):
        return koszul_sign(self.field, line_a.degree, line_b.degree)

    def __repr__(self):
        return "DetTheory(%s, %s)" % (self.field,
                                      "graded" if self.graded else "ungraded")


# ---------------------------------------------------------------------------
# symmetry criteria

class SymmetryInstance:
    def __init__(self, kind, data, passed, got, expected):
        self.kind = kind          # "pair" or "grid"
        self.data = data
        self.passed = passed
        self.got = got
        self.expected = expected

    def __repr__(self):
        return "SymmetryInstance(%s, passed=%s, %s vs %s)" % (
            self.kind, self.passed, self.got, self.expected)


class SymmetryReport:
    def __init__(self, instances, agreements):
        self.instances = instances
        self.agreements = agreements

    @property
    def all_passed(self):
        return all(i.passed for i in self.instances)

    @property
    def criteria_agree(self):
        return all(self.agreements)

    def failures(self):
        return [i for i in self.instances if not i.passed]


def pair_criterion(theory, dim_a, dim_b):
    """Scalar of the two-lambda path h(a)(x)h(b) -> h(a(+)b) -> h(b)(x)h(a)
    against the symmetry; returns (passed, path_scalar, symmetry_scalar)."""
    f = theory.field
    ses_ab = split_ses(f, dim_a, dim_b)
    lam_ab = theory.lambda_scalar(ses_ab)
    # b included as the second block, a recovered by the first projection
    zero = Matrix.zero(f, dim_b, dim_a)
    ses_ba = SES(LinMap.of(zero.hstack(Matrix.identity(f, dim_b))),
                 LinMap.of(Matrix.identity(f, dim_a).vstack(zero)))
    lam_ba = theory.lambda_scalar(ses_ba)
    path = f.div(lam_ab, lam_ba)
    sym = theory.symmetry_scalar(theory.h(FdSpace(f, dim_a)),
                                 theory.h(FdSpace(f, dim_b)))
    return path == sym, path, sym


def grid_criterion(theory, grid):
    """Two-path scalar comparison on a 3x3 grid; returns
    (passed, left_path, right_path_with_symmetry)."""
    f = theory.field
    lam_row1 = theory.lambda_scalar(grid.row_ses(0))
    lam_row2 = theory.lambda_scalar(grid.row_ses(1))
    lam_row3 = theory.lambda_scalar(grid.row_ses(2))
    lam_col1 = theory.lambda_scalar(grid.col_ses(0))
    lam_col2 = theory.lambda_scalar(grid.col_ses(1))
    lam_col3 = theory.lambda_scalar(grid.col_ses(2))
    left = f.mul(f.mul(lam_row1, lam_row3), lam_col2)
    sym = theory.symmetry_scalar(theory.h(grid.spaces["tr"]),
                                 theory.h(grid.spaces["bl"]))
    right = f.mul(sym, f.mul(f.mul(lam_col1, lam_col3), lam_row2))
    return left == right, left, right


def check_symmetry(theory, pairs=(), grids=()):
    """Evaluate the pair criterion and the grid criterion; the two criteria
    are also compared instance-by-instance (each grid against the pair of its
    off-diagonal corner quotients)."""
    instances = []
    agreements = []
    for (da, db) in pairs:
        ok, got, want = pair_criterion(theory, da, db)
        instances.append(SymmetryInstance("pair", (da, db), ok, got, want))
    for grid in grids:
        ok, left, right = grid_criterion(theory, grid)
        instances.append(SymmetryInstance("grid", grid, ok, left, right))
        pair_ok, _, _ = pair_criterion(theory, grid.spaces["tr"].dim,
                                       grid.spaces["bl"].dim)
        agreements.append(ok == pair_ok)
    return SymmetryReport(instances, agreements)


# ---------------------------------------------------------------------------
# the value rule of relative determinantal theories

class DetRule(namedtuple("DetRule", "field delta",
                         defaults=(delta_scalar_canonical,))):
    """Value rule of anchored determinantal theories (dimtorsor.RelTheory).

    A value is (degree, scalar): the degree of the value line Delta(L) and a
    nonzero scalar in its fixed basis.  delta(u, v) is the connecting scalar
    of Delta(u) (x) det(v/u) -> Delta(v) for nested lattices; the default is
    the coherent canonical rule (an even-depth reference lattice).
    """

    def zero(self):
        return 0, self.field.one()

    def check(self, value):
        degree, scalar = value
        scalar = self.field.normalize(scalar)
        if scalar == 0:
            raise ValueError("anchor scalar must be nonzero")
        return _checked_int(degree, "degree"), scalar

    def add(self, a, b):
        return a[0] + b[0], self.field.mul(a[1], b[1])

    def difference(self, a, b):
        """(degree shift, scalar class or 'empty'): with zero shift the hom
        torsor is nonempty and the class is the ratio of the scalars."""
        if a[0] != b[0]:
            return a[0] - b[0], "empty"
        return 0, self.field.div(a[1], b[1])

    def move(self, value, base, lat):
        """The degree moves along the index; the scalar is transported along
        the connecting scalars through the meet with the base (path
        independent by the delta cocycle)."""
        if lat == base:
            return value
        f = self.field
        c = lattice_meet(lat, base)
        ratio = f.div(self.delta(c, lat), self.delta(c, base))
        return value[0] + relative_index(lat, base), f.mul(value[1], ratio)

    def combined(self, ses, d1, d2):
        if not isinstance(d2.rule, DetRule):
            raise ValueError("theories have different coefficient data")
        degree = d2.eval(standard_lattice(ses.quot_space))[0]
        return DetRule(self.field, _Connecting(ses, d1.rule.delta,
                                               d2.rule.delta, degree))

    def check_chain(self, theory, formula, chain):
        """The delta cocycle of the combined rule on a chain u <= v <= w."""
        f = self.field
        for (u, v, w) in zip(chain, chain[1:], chain[2:]):
            lhs = f.mul(self.delta(v, w), self.delta(u, v))
            rhs = f.mul(self.delta(u, w), lambda_scalar_chain(u, v, w))
            if lhs != rhs:
                raise AssertionError("combined connecting rule breaks the "
                                     "cocycle at %r <= %r <= %r" % (u, v, w))


class _Connecting(namedtuple("_Connecting", "ses delta1 delta2 degree")):
    """Connecting rule of Delta(U) = Delta'(U n X') (x) Delta''(U / U n X'):
    split det(V/U) along the induced finite sequence, move Delta''(U'') past
    det(V'/U') with the Koszul sign, and apply the two inner deltas.  Delta''
    enters only through its degree at the standard lattice, so every
    presentation of the same theories gives an equal rule."""

    def __call__(self, u, v):
        ses = self.ses
        f = ses.field
        fd, ((u1, v1), (u2, v2)) = fd_ses_of_pair(ses, u, v)
        degree = self.degree + relative_index(
            u2, standard_lattice(ses.quot_space))
        sign = koszul_sign(f, degree, relative_index(v1, u1))
        inner = f.mul(self.delta1(u1, v1), self.delta2(u2, v2))
        return f.mul(f.div(sign, lambda_ses(fd).scalar), inner)


def delta_relative(theory, u, v):
    """The iso Delta(u) (x) det(v/u) -> Delta(v) of a determinantal
    RelTheory for nested lattices."""
    if not lattice_contains(v, u):
        raise ValueError("delta requires u <= v")
    f = theory.space.field

    def value_line(lat):
        return GradedLine(f, theory.eval(lat)[0],
                          "D(%d,%d,%d)" % (lat.lo, lat.hi, lat.basis.dim))

    src = value_line(u).tensor(GradedLine(f, relative_index(v, u), "det(v/u)"))
    return LineIso(src, value_line(v), theory.rule.delta(u, v))
