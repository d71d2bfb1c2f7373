"""Finite simplicial sets, multiplicative torsors, and their classification.

Simplicial sets are stored by their non-degenerate simplices with total face
maps (degeneracies exist formally and all cochains are normalized, i.e.
vanish on degenerate simplices).  A degree-m multiplicative torsor assigns a
trivialized G-torsor to every m-simplex and a torsor morphism to every
(m+1)-simplex; since every torsor morphism between trivialized torsors is a
translation and the tensor symmetry moves nothing, executing the pasting rule
reduces to bookkeeping the factor multisets plus adding the translation
values.  The membership condition (even composition = odd composition on
every (m+2)-simplex) is then literally the cocycle condition for the standard
alternating coboundary, which the pasting executor re-derives rather than
assumes.

Cohomology with cyclic coefficients is computed from the integer coboundary
matrices by Smith normal form; classification of torsors and the decision
procedure for isomorphism reduce to solving linear congruences.  One
CohomologyResult of H^(m+1) answers both for degree-m torsors: the class of
a torsor is that of its alpha, and two torsors are isomorphic exactly when
a transporter joins their absolute alphas.
"""

from __future__ import annotations

import math
from functools import cached_property

from .abgroup import GroupElem
from .exactlin import (_checked_int, invariant_factors, snf_with_transforms,
                       solve_mod)

MAX_DIM_CAP = 5


class ComplexError(Exception):
    pass


class SimplicialSet:
    """Finite simplicial set (non-degenerate part), declared complete up to
    dimension MAX_DIM_CAP; a simplex above it is refused.

    simplices: dict dim -> tuple of ids
    faces: dict id -> tuple of its face ids, d_0 first; () for a vertex
    """

    def __init__(self, simplices, faces):
        self.simplices = {d: tuple(ids) for d, ids in simplices.items() if ids}
        self.faces = dict(faces)
        self.dim_of = {}
        for d, ids in self.simplices.items():
            for s in ids:
                if s in self.dim_of:
                    raise ComplexError("duplicate simplex id %r" % (s,))
                self.dim_of[s] = d
        self.top_dim = max(self.simplices) if self.simplices else -1
        if self.top_dim > MAX_DIM_CAP:
            raise ComplexError("simplices above the dimension cap")

    def ids(self, dim):
        return self.simplices.get(dim, ())

    def n_simplices(self, dim):
        return len(self.simplices.get(dim, ()))


def validate_simplicial_set(raw):
    """Build and validate a SimplicialSet from (id, dim, faces) triples.

    Raises ComplexError naming the first fault: a repeated id when it is
    read, a bad dimension or face count, a dangling or wrong-dimension
    face, or a violated simplicial identity (simplex, i, j).
    """
    simplices = {}
    faces = {}
    dims = {}
    for sid, d, fs in raw:
        if sid in dims:
            raise ComplexError("duplicate simplex id %r" % (sid,))
        simplices.setdefault(d, []).append(sid)
        dims[sid] = d
        if d < 0:
            raise ComplexError("negative dimension %d of %r" % (d, sid))
        if d == 0 and fs:
            raise ComplexError("vertex %r with faces" % (sid,))
        if d and len(fs) != d + 1:
            raise ComplexError("simplex %r needs %d faces" % (sid, d + 1))
        faces[sid] = tuple(fs)
    for sid, fs in faces.items():
        for f in fs:
            if f not in dims:
                raise ComplexError("dangling face id %r of %r" % (f, sid))
            if dims[f] != dims[sid] - 1:
                raise ComplexError("face %r of %r has wrong dimension"
                                   % (f, sid))
    # simplicial identities d_i d_j = d_(j-1) d_i for i < j
    for sid, d in dims.items():
        if d < 2:
            continue
        fs = faces[sid]
        for j in range(1, d + 1):
            below = faces[fs[j]]
            for i in range(j):
                if below[i] != faces[fs[i]][j - 1]:
                    raise ComplexError(
                        "identity failure at %r: (i, j) = (%d, %d)"
                        % (sid, i, j))
    return SimplicialSet(simplices, faces)


def _first_order(complex_, sid):
    fs = complex_.faces[sid]
    return fs[0::2], fs[1::2]


def _composition_ends(complex_, faces_in_order):
    """(inputs, outputs) of the pasting of the morphisms attached to the
    listed faces, with internally matched factors consumed."""
    state = PastingState(0)
    for rho in faces_in_order:
        state.paste(*_first_order(complex_, rho), 0)
    return state.ends()


def street_boundaries(complex_, sid):
    """The Street decomposition of a simplex boundary.

    Returns a dict with keys '+', '-', '++', '+-', '-+', '--'.  The first
    order entries are the even/odd face multisets.  The second-order entries
    are the ends of the even and odd pasting compositions: '++' / '-+' are
    the inputs / outputs of the even composition and '--' / '+-' those of the
    odd one, after the factors produced by one face and consumed by a later
    face have cancelled.  In this matched form the equalities '++' == '--'
    and '+-' == '-+' are exactly the statement that the two compositions are
    parallel; the raw face-of-face multisets satisfy only the weaker identity
    that even-even plus odd-odd equals even-odd plus odd-even.
    """
    d = complex_.dim_of[sid]
    if d < 1:
        raise ValueError("simplex of positive dimension required")
    plus, minus = _first_order(complex_, sid)
    out = {"+": tuple(sorted(plus)), "-": tuple(sorted(minus))}
    if d >= 2:
        even_in, even_out = _composition_ends(complex_, plus)
        odd_in, odd_out = _composition_ends(complex_, tuple(reversed(minus)))
        out["++"] = even_in
        out["-+"] = even_out
        out["--"] = odd_in
        out["+-"] = odd_out
    return out


# ---------------------------------------------------------------------------
# cochains

class Cochain:
    """Normalized G-valued cochain: total map on the n-simplices."""

    def __init__(self, complex_, degree, group, values=None):
        self.complex = complex_
        self.degree = _checked_int(degree, "degree")
        self.group = group
        vals = {}
        if values:
            for sid, g in values.items():
                if complex_.dim_of.get(sid) != degree:
                    raise ValueError("value on %r of wrong dimension"
                                     % (sid,))
                vals[sid] = g if isinstance(g, GroupElem) else group.elem(g)
        self.values = vals

    @classmethod
    def zero(cls, complex_, degree, group):
        return cls(complex_, degree, group)

    def value(self, sid):
        return self.values.get(sid, self.group.zero())

    def set_value(self, sid, g):
        out = dict(self.values)
        out[sid] = g if isinstance(g, GroupElem) else self.group.elem(g)
        return Cochain(self.complex, self.degree, self.group, out)

    def add(self, other):
        self._check(other)
        out = dict(self.values)
        for sid, g in other.values.items():
            out[sid] = out.get(sid, self.group.zero()) + g
        return Cochain(self.complex, self.degree, self.group, out)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return Cochain(self.complex, self.degree, self.group,
                       {sid: -g for sid, g in self.values.items()})

    def is_zero(self):
        return all(g.is_zero() for g in self.values.values())

    def coboundary(self):
        vals = {}
        for tau in self.complex.ids(self.degree + 1):
            acc = self.group.zero()
            for i, sigma in enumerate(self.complex.faces[tau]):
                v = self.value(sigma)
                acc = acc + (v if i % 2 == 0 else -v)
            vals[tau] = acc
        return Cochain(self.complex, self.degree + 1, self.group, vals)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if (self.complex is not other.complex or self.degree != other.degree
                or self.group != other.group):
            return False
        return self.sub(other).is_zero()

    def __hash__(self):
        canon = tuple(sorted((sid, g.coords)
                             for sid, g in self.values.items()
                             if not g.is_zero()))
        return hash((self.degree, self.group, canon))

    def _check(self, other):
        if self.complex is not other.complex or self.degree != other.degree \
                or self.group != other.group:
            raise ValueError("cochains are not compatible")

    def int_vector(self, factor_index):
        """Integer coordinates of one cyclic component, simplex-ordered."""
        return [self.value(sid).coords[factor_index]
                for sid in self.complex.ids(self.degree)]


def coboundary_matrix(complex_, degree):
    """Integer matrix of delta: C^degree -> C^(degree+1) as sparse rows
    {column: nonzero entry}, one per (degree+1)-simplex in id order; the
    columns are the degree-simplices in id order."""
    col = {sid: k for k, sid in enumerate(complex_.ids(degree))}
    rows = []
    for tau in complex_.ids(degree + 1):
        fs = complex_.faces[tau]
        r = {}
        sign = 1
        for sigma in fs:
            k = col[sigma]
            r[k] = r.get(k, 0) + sign
            sign = -sign
        if len(r) < len(fs):  # only a repeated face can cancel
            r = {k: x for k, x in r.items() if x}
        rows.append(r)
    return rows


# ---------------------------------------------------------------------------
# multiplicative torsors in trivialized form

class MultTorsorRep:
    """Degree-m multiplicative G-torsor, trivialized.

    anchors: degree-m cochain of base points (T_rho = G with that anchor);
    alpha: degree-(m+1) cochain of morphism values relative to the anchors.
    Changing anchors by a cochain c changes alpha by its coboundary, so the
    cohomology class of alpha is anchor-free.
    """

    def __init__(self, complex_, degree, group, alpha, anchors=None):
        if alpha.degree != degree + 1 or alpha.group != group:
            raise ValueError("alpha must be a (degree+1)-cochain over G")
        if anchors is None:
            anchors = Cochain.zero(complex_, degree, group)
        if anchors.degree != degree or anchors.group != group:
            raise ValueError("anchors must be a degree-cochain over G")
        self.complex = complex_
        self.degree = degree
        self.group = group
        self.alpha = alpha
        self.anchors = anchors

    def absolute_alpha(self):
        """Translation values of the alphas as maps of bare G-sets: the
        relative values minus the anchor coboundary."""
        return self.alpha.sub(self.anchors.coboundary())

    def re_anchor(self, shift):
        """Same torsor presented over shifted anchors."""
        return MultTorsorRep(self.complex, self.degree, self.group,
                             self.alpha.add(shift.coboundary()),
                             self.anchors.add(shift))


class PastingState:
    """Execution state of an iterated pasting of torsor morphisms."""

    def __init__(self, zero):
        self.needed = []     # unmatched input factors (ids)
        self.produced = []   # available output factors (ids)
        self.value = zero

    def paste(self, dom, cod, value):
        for x in dom:
            if x in self.produced:
                self.produced.remove(x)
            else:
                self.needed.append(x)
        self.produced.extend(cod)
        self.value = self.value + value

    def ends(self):
        """(inputs, outputs) of the composite so far, sorted."""
        return tuple(sorted(self.needed)), tuple(sorted(self.produced))


def _paste_faces(complex_, absolute, face_ids):
    state = PastingState(absolute.group.zero())
    for sigma in face_ids:
        plus, minus = _first_order(complex_, sigma)
        state.paste(plus, minus, absolute.value(sigma))
    return state


def evaluate_even_odd(torsor, tau, absolute=None):
    """Execute the even and odd pasting compositions on a (degree+2)-simplex.

    The even composition pastes the even faces in ascending index order, the
    odd one the odd faces in descending order (rightmost factor first, as the
    compositions are written).  Returns (E, O) as group elements, the
    translation values of the two composites; raises if the domains or
    codomains fail to match, which the Street identities forbid.  absolute
    is torsor.absolute_alpha(), computed here when not given.
    """
    cx = torsor.complex
    if cx.dim_of[tau] != torsor.degree + 2:
        raise ValueError("pasting needs a simplex of dimension %d"
                         % (torsor.degree + 2))
    if absolute is None:
        absolute = torsor.absolute_alpha()
    evens, odds = _first_order(cx, tau)
    east = _paste_faces(cx, absolute, evens)
    west = _paste_faces(cx, absolute, odds[::-1])
    if east.ends() != west.ends():
        raise AssertionError("even/odd compositions have different ends")
    return east.value, west.value


class TorsorReport:
    def __init__(self, violations, total):
        self.violations = violations
        self.total = total

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return "TorsorReport(%d checked, %d violations)" % (
            self.total, len(self.violations))


def check_mult_torsor(torsor):
    """E = O on every (degree+2)-simplex; violations carry E - O."""
    cx = torsor.complex
    viol = []
    taus = cx.ids(torsor.degree + 2)
    absolute = torsor.absolute_alpha()
    for tau in taus:
        e, o = evaluate_even_odd(torsor, tau, absolute)
        if e != o:
            viol.append((tau, e - o))
    return TorsorReport(viol, len(taus))


# ---------------------------------------------------------------------------
# cohomology via Smith normal form

class DegreeRangeError(Exception):
    pass


class CyclicCohomology:
    """H^n(complex, Z/d) (d = 0 meaning Z) with explicit coordinates.

    One Smith form S = U D V of the coboundary D = D_n gives the cocycles:
    x = V y is one iff s_i y_i = 0 mod d for every i, i.e. iff
    t_i = d / gcd(s_i, d) divides y_i (over Z: y_i = 0 where s_i != 0, and
    t_i = 1 elsewhere).  So the columns t_i V[:, i] of the kept i are a basis
    of the cocycles, and (V^-1 x)_i / t_i are the coordinates of a cocycle x
    in it.  A second Smith form S_r = U_r R V_r of the relations R (the
    columns of A = D_(n-1) and d times cochains, in those coordinates) gives
    the classes: U_r times the coordinates, reduced by the invariant factors
    s_r.  rows are the rows of D; cocycles is (s, V, columns of V^-1) of its
    form, and a_cols the columns of A, both shared by every d.
    """

    def __init__(self, rows, cocycles, a_cols, order):
        self.order = order
        self._rows = rows
        self._s, self._v, self._vinv = cocycles
        self._keep = [(i, order // math.gcd(si, order) if order else 1)
                      for i, si in enumerate(self._s) if order or si == 0]
        self._pos = {i: (p, t) for p, (i, t) in enumerate(self._keep)}
        # relation generators: columns of A, then d e_i (d > 0), whose
        # coordinates are d V^-1[k][i] / t_k
        rel = [self._coords(col) for col in a_cols]
        if order:
            rel += [{self._pos[k][0]: order // self._pos[k][1] * x
                     for k, x in col.items()} for col in self._vinv]
        z = len(self._keep)
        s, self._ur, _, self._ur_inv, _ = snf_with_transforms(
            _transpose(rel, z), len(rel), ("U", "U^-1"))
        self._sr = [s[i].get(i, 0) for i in range(z)]
        self.factors = tuple(f for f in self._sr if f != 1)

    def _coords(self, x):
        """Coordinates {position: value} of an integer cocycle x, given as
        {simplex index: value}, in the cocycle basis."""
        y = {}
        for k, c in x.items():
            for i, v in self._vinv[k].items():
                y[i] = y.get(i, 0) + c * v
        return {self._pos[i][0]: v // self._pos[i][1]
                for i, v in y.items() if v and i in self._pos}

    def is_cocycle(self, vec):
        d = self.order
        for row in self._rows:
            acc = sum(c * vec[j] for j, c in row.items())
            if (acc % d if d else acc) != 0:
                return False
        return True

    def classify(self, vec):
        """Class coordinates of an integer cocycle vector, one coordinate per
        invariant factor of the cohomology group."""
        if not self.is_cocycle(vec):
            raise ValueError("not a cocycle")
        if not self.factors:
            return ()
        zc = self._coords({k: c for k, c in enumerate(vec) if c})
        out = []
        for row, si in zip(self._ur, self._sr):
            if si != 1:
                w = sum(c * zc.get(p, 0) for p, c in row.items())
                out.append(w % si if si else w)
        return tuple(out)

    def representative(self, k):
        """An integer cocycle representing the k-th group generator."""
        idx = [i for i, si in enumerate(self._sr) if si != 1][k]
        vec = [0] * len(self._s)
        for p, c in self._ur_inv[idx].items():
            i, t = self._keep[p]
            for j, v in self._v[i].items():
                vec[j] += t * c * v
        return vec


def _transpose(lines, n):
    """The n lines across the sparse lines {index: entry}."""
    out = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for k, x in line.items():
            out[k][i] = x
    return out


def _check_degree_reliable(complex_, degree):
    if _checked_int(degree, "degree") < 0:
        raise DegreeRangeError("negative degree")
    if degree > MAX_DIM_CAP - 1:
        raise DegreeRangeError(
            "degree %d not reliable under dimension cap %d"
            % (degree, MAX_DIM_CAP))


class CohomologyResult:
    """H^n(complex, G) for G a direct sum of cyclics: the group, the class of
    a cocycle, representatives, and transporters between cocycles.

    The result builds the rows of the coboundaries D_(n-1) and D_n once
    each (D_(-1) is zero), and each Smith form once, keyed by the degree and
    the transforms kept; every answer reads those.  By universal
    coefficients, with m_n the n-simplices and r_n the rank of D_n, the group
    H^n(Z/d) is (Z/d)^(m_n - r_n - r_(n-1)) plus Z/gcd(s, d) for the
    invariant factors s of D_(n-1), and of D_n if d > 0 (d = 0 meaning Z):
    it reads invariant_factors of the two, which copy the cached rows and
    send only what their unit pivots leave to the Smith form.  The
    components, which classify and representatives read, hold the form of
    D_n keeping V and V^-1 and the columns of D_(n-1); transporter reads
    the form of D_(n-1) keeping U and V.
    """

    def __init__(self, complex_, degree, group):
        _check_degree_reliable(complex_, degree)
        self.complex = complex_
        self.degree = degree
        self.group = group
        self._coboundaries = {}
        self._forms = {}

    def _rows(self, k):
        if k not in self._coboundaries:
            self._coboundaries[k] = (coboundary_matrix(self.complex, k)
                                     if k >= 0 else
                                     [{} for _ in self.complex.ids(0)])
        return self._coboundaries[k]

    def _form(self, k, keep):
        if (k, keep) not in self._forms:
            self._forms[k, keep] = snf_with_transforms(
                self._rows(k), self.complex.n_simplices(k), keep)
        return self._forms[k, keep]

    def _check(self, cochain):
        if cochain.complex is not self.complex or \
                cochain.degree != self.degree or cochain.group != self.group:
            raise ValueError("cochain does not match")
        return cochain

    @cached_property
    def group_presentation(self):
        n = self.degree
        lower, upper = (invariant_factors(self._rows(k),
                                          self.complex.n_simplices(k))
                        for k in (n - 1, n))
        free = self.complex.n_simplices(n) - len(lower) - len(upper)
        summands = []
        for d in self.group.factors:
            torsion = lower + upper if d else lower  # Tor(H^(n+1), Z/d)
            summands += [d] * free + [math.gcd(s, d) for s in torsion]
        return canonical_factors(summands)

    @cached_property
    def components(self):
        n, m = self.degree, self.complex.n_simplices(self.degree)
        s, _, v, _, vinv = self._form(n, ("V", "V^-1"))
        cocycles = ([s[i].get(i, 0) if i < len(s) else 0 for i in range(m)],
                    v, _transpose(vinv, m))
        a_cols = _transpose(self._rows(n - 1),
                            self.complex.n_simplices(n - 1))
        return [CyclicCohomology(self._rows(n), cocycles, a_cols, d)
                for d in self.group.factors]

    def classify(self, cochain):
        self._check(cochain)
        return tuple(comp.classify(cochain.int_vector(q))
                     for q, comp in enumerate(self.components))

    def representatives(self):
        """One cochain per generator of each cyclic component."""
        out = []
        for q, comp in enumerate(self.components):
            for k in range(len(comp.factors)):
                vec = comp.representative(k)
                vals = {}
                for sid, x in zip(self.complex.ids(self.degree), vec):
                    coords = [0] * self.group.ngens
                    coords[q] = x
                    vals[sid] = self.group.elem(coords)
                out.append(Cochain(self.complex, self.degree, self.group,
                                   vals))
        return out

    def transporter(self, c1, c2):
        """A degree-(n-1) cochain x with delta x = c1 - c2, or None when
        there is none: the two cochains differ by no coboundary."""
        diff = self._check(c1).sub(self._check(c2))
        snf = self._form(self.degree - 1, ("U", "V"))
        sols = []
        for q, d in enumerate(self.group.factors):
            x = solve_mod(snf, diff.int_vector(q), d)
            if x is None:
                return None
            sols.append(x)
        cx, n, group = self.complex, self.degree - 1, self.group
        return Cochain(cx, n, group, {sid: group.elem(coords) for sid, coords
                                      in zip(cx.ids(n), zip(*sols))})


def canonical_factors(summands):
    """Invariant factors of a direct sum of cyclic groups."""
    free = sum(1 for d in summands if d == 0)
    torsion = [d for d in summands if d not in (0, 1)]
    torsion = [d for d in invariant_factors(
        [{i: d} for i, d in enumerate(torsion)], len(torsion)) if d != 1]
    return tuple(torsion) + (0,) * free


# ---------------------------------------------------------------------------
# gerbes

class GerbeError(Exception):
    pass


class GerbeRep:
    """Multiplicative G-gerbe in trivialized (skeletal) form.

    Each edge carries a trivialized gerbe, each 2-simplex the torsor
    Hom(alpha(x0 (x) x2), x1) with a chosen anchor, and beta is the
    3-cochain of coherence automorphisms.  Validity is the degree-4 pasting
    condition, i.e. beta is a cocycle.
    """

    def __init__(self, complex_, group, beta, anchors=None):
        if beta.degree != 3 or beta.group != group:
            raise GerbeError("beta must be a 3-cochain over G")
        if anchors is None:
            anchors = Cochain.zero(complex_, 2, group)
        self.complex = complex_
        self.group = group
        self.beta = beta
        self.anchors = anchors
        delta = beta.coboundary()
        for ups in complex_.ids(4):
            if not delta.value(ups).is_zero():
                raise GerbeError("degree-4 condition fails at %r" % (ups,))


def gerbe_to_torsor(gerbe):
    """The induced degree-2 multiplicative torsor of a multiplicative gerbe;
    its pasting condition holds by the gerbe's degree-4 condition."""
    return MultTorsorRep(gerbe.complex, 2, gerbe.group, gerbe.beta,
                         anchors=gerbe.anchors)
