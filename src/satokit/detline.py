"""Graded determinant lines, Koszul signs, and determinantal theories.

A graded line is an integer degree plus a basis label; a morphism of lines is
a nonzero scalar once bases are fixed, so all coherence diagrams reduce to
scalar identities.  The graded determinant assigns to a space its top
exterior power in degree dim; the ungraded variant keeps the same scalars but
forgets the grading, which is exactly what breaks the symmetry criterion in
odd dimensions.

Relative determinantal theories on the lattices of a Tate space are anchored:
the theory is its value at a base lattice, and the connecting isomorphisms
for nested pairs are produced by a coherent canonical rule (an even-depth
reference lattice), or by the composed rule with the Koszul swap when a
theory is built from two theories along a short exact sequence.
"""

from __future__ import annotations

from .exactcat import (SES, FdSpace, LinMap, canonical_section, check_ses,
                       split_ses)
from .tate import (delta_scalar_canonical, fd_ses_of_pair,
                   lambda_scalar_chain, lattice_meet, relative_index,
                   standard_lattice)


class GradedLine:
    """One-dimensional space with an integer degree and a basis label."""

    __slots__ = ("field", "degree", "label")

    def __init__(self, field, degree, label="1"):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "label", str(label))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def unit(cls, field):
        return cls(field, 0, "1")

    def __eq__(self, other):
        return (isinstance(other, GradedLine) and self.field == other.field
                and self.degree == other.degree and self.label == other.label)

    def __hash__(self):
        return hash((self.field, self.degree, self.label))

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


class LineIso:
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

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __repr__(self):
        return "LineIso(%r -> %r, scalar %s)" % (self.source, self.target,
                                                 self.scalar)

    def then(self, other):
        if self.target != other.source:
            raise ValueError("isos are not composable")
        f = self.source.field
        return LineIso(self.source, other.target,
                       f.mul(self.scalar, other.scalar))

    def inverse(self):
        return LineIso(self.target, self.source,
                       self.source.field.inv(self.scalar))

    def tensor(self, other):
        f = self.source.field
        return LineIso(self.source.tensor(other.source),
                       self.target.tensor(other.target),
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
    f = x.field
    sign = f.neg(f.one()) if (x.degree * y.degree) % 2 else f.one()
    return LineIso(x.tensor(y), y.tensor(x), sign)


def koszul_sign(field, a, b):
    return field.neg(field.one()) if (a * b) % 2 else field.one()


def lambda_ses(ses, section=None, graded=True):
    """The connecting iso det(a') (x) det(a'') -> det(a) of a SES.

    The scalar is the determinant of the rows (i(basis of a'), s(basis of
    a'')) in the basis of a; the section defaults to the canonical one and
    must satisfy s . j = id.
    """
    if section is None:
        section = canonical_section(ses.j)
    if section.then(ses.j) != LinMap.identity(ses.quot):
        raise ValueError("section does not split the epi")
    scalar = ses.i.matrix.vstack(section.matrix).det()
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

    def lam(self, ses, section=None):
        return lambda_ses(ses, section, graded=self.graded)

    def lambda_scalar(self, ses, section=None):
        return self.lam(ses, section).scalar

    def symmetry_scalar(self, line_a, line_b):
        return koszul_sign(self.field, line_a.degree, line_b.degree)

    def __repr__(self):
        return "DetTheory(%s, %s)" % (self.field,
                                      "graded" if self.graded else "ungraded")


def graded_det(field):
    return DetTheory(field, graded=True)


def ungraded_det(field):
    return DetTheory(field, graded=False)


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
    one, z = f.one(), f.zero()
    total = FdSpace(f, dim_a + dim_b)
    i2 = LinMap(FdSpace(f, dim_b), total,
                [[one if c == r + dim_a else z for c in range(dim_a + dim_b)]
                 for r in range(dim_b)])
    j2 = LinMap(total, FdSpace(f, dim_a),
                [[one if c == r else z for c in range(dim_a)]
                 for r in range(dim_a + dim_b)])
    ses_ba = check_ses(i2, j2)
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
# relative determinantal theories on a Tate space

class RelDetTheory:
    """Anchored h-relative determinantal theory on the lattices of a Tate
    space: an anchor line at a base lattice plus a coherent connecting-scalar
    rule for nested pairs."""

    def __init__(self, space, base, anchor_degree=0, anchor_scalar=None,
                 delta_rule=None, label="D"):
        self.space = space
        self.base = base
        self.anchor_degree = int(anchor_degree)
        f = space.field
        self.anchor_scalar = f.one() if anchor_scalar is None \
            else f.normalize(anchor_scalar)
        if self.anchor_scalar == 0:
            raise ValueError("anchor scalar must be nonzero")
        self._delta_rule = delta_rule or delta_scalar_canonical
        self.label = label

    @classmethod
    def standard(cls, space):
        return cls(space, standard_lattice(space))

    def degree_at(self, lat):
        return self.anchor_degree + relative_index(lat, self.base)

    def value_line(self, lat):
        return GradedLine(self.space.field, self.degree_at(lat),
                          "%s(%d,%d,%d)" % (self.label, lat.lo, lat.hi,
                                            len(lat.rows)))

    def delta_scalar(self, u, v):
        """Connecting scalar of Delta(u) (x) det(v/u) -> Delta(v)."""
        return self._delta_rule(u, v)

    def tensor_line(self, line, scalar=None):
        """The theory shifted by a fixed graded line (optionally with a
        scalar multiple on the anchor)."""
        f = self.space.field
        s = self.anchor_scalar if scalar is None \
            else f.mul(self.anchor_scalar, f.normalize(scalar))
        return RelDetTheory(self.space, self.base,
                            self.anchor_degree + line.degree, s,
                            self._delta_rule,
                            label="%s(x)%s" % (line.label, self.label))

    def re_anchor(self, new_base):
        """The same theory presented at another anchor lattice; the anchor
        scalar is transported along the connecting isomorphisms (path
        independent by the delta cocycle)."""
        return RelDetTheory(self.space, new_base,
                            self.degree_at(new_base),
                            _transport_scalar(self, new_base),
                            self._delta_rule, label=self.label)


def delta_relative(theory, u, v):
    """The iso Delta(u) (x) det(v/u) -> Delta(v) for nested lattices."""
    from .tate import lattice_contains
    if not lattice_contains(v, u):
        raise ValueError("delta requires u <= v")
    f = theory.space.field
    dim = relative_index(v, u)
    quot_line = GradedLine(f, dim, "det(v/u)")
    src = theory.value_line(u).tensor(quot_line)
    return LineIso(src, theory.value_line(v), theory.delta_scalar(u, v))


def hom_torsor_class(t1, t2):
    """(degree shift, scalar class or 'empty') separating two theories.

    The shift is the difference of value degrees (independent of the
    lattice); with zero shift the hom torsor is nonempty and the class is the
    connecting scalar at the common base.
    """
    if t1.space != t2.space:
        raise ValueError("theories on different spaces")
    shift = t1.degree_at(t1.base) - t2.degree_at(t1.base)
    shift2 = t1.degree_at(t2.base) - t2.degree_at(t2.base)
    assert shift == shift2
    if shift != 0:
        return shift, "empty"
    f = t1.space.field
    # transport t2 to t1's base before comparing scalars
    t2_at_base = _transport_scalar(t2, t1.base)
    t1_at_base = _transport_scalar(t1, t1.base)
    return 0, f.div(t1_at_base, t2_at_base)


def _transport_scalar(theory, lat):
    """Anchor scalar transported to lat along the theory's deltas through
    the meet with the base (path independence = the delta cocycle)."""
    f = theory.space.field
    if lat == theory.base:
        return theory.anchor_scalar
    c = lattice_meet(lat, theory.base)
    up = theory.delta_scalar(c, lat)
    down = theory.delta_scalar(c, theory.base)
    return f.mul(theory.anchor_scalar, f.div(up, down))


def mu_det(ses, t1, t2, check_samples=True):
    """Combine relative determinantal theories along X' >--> X -->> X''.

    Delta(U) = Delta'(U n X') (x) Delta''(U / U n X'); the connecting rule
    splits det(V/U) along the induced finite sequence, moves Delta''(U'')
    past det(V'/U') with the Koszul sign, and applies the two inner deltas.
    """
    if t1.space != ses.sub_space or t2.space != ses.quot_space:
        raise ValueError("theories do not match the sequence ends")
    from .tate import lift_lattice, project_lattice
    space = ses.total_space
    f = space.field
    base = standard_lattice(space)
    base_deg = (t1.degree_at(lift_lattice(ses, base))
                + t2.degree_at(project_lattice(ses, base)))
    anchor_scalar = f.mul(t1.anchor_scalar, t2.anchor_scalar)

    def delta_rule(u, v):
        fd, _ = fd_ses_of_pair(ses, u, v)
        lam = lambda_ses(fd).scalar
        u1 = lift_lattice(ses, u)
        v1 = lift_lattice(ses, v)
        u2 = project_lattice(ses, u)
        v2 = project_lattice(ses, v)
        sign = koszul_sign(f, t2.degree_at(u2), relative_index(v1, u1))
        inner = f.mul(t1.delta_scalar(u1, v1), t2.delta_scalar(u2, v2))
        return f.mul(f.div(sign, lam), inner)

    out = RelDetTheory(space, base, base_deg, anchor_scalar, delta_rule,
                       label="(%s.%s)" % (t1.label, t2.label))
    if check_samples:
        _check_delta_cocycle(out, [standard_lattice(space, 1),
                                   standard_lattice(space),
                                   standard_lattice(space, -1)])
    return out


def _check_delta_cocycle(theory, chain):
    f = theory.space.field
    for (u, v, w) in zip(chain, chain[1:], chain[2:]):
        lhs = f.mul(theory.delta_scalar(v, w), theory.delta_scalar(u, v))
        rhs = f.mul(theory.delta_scalar(u, w), lambda_scalar_chain(u, v, w))
        if lhs != rhs:
            raise AssertionError("combined connecting rule breaks the "
                                 "cocycle at %r <= %r <= %r" % (u, v, w))
