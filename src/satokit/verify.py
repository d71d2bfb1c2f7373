"""Randomized and exhaustive verification suites.

Each suite function takes its parameters explicitly (seed, trial counts,
budgets), runs one batch of checks, and returns a SuiteResult; the command
line `verify` verb and the acceptance tests are thin wrappers around these.
"""

from __future__ import annotations

import functools
import itertools
import time

from random import Random

from .abgroup import AbelianGroup, ZZ
from .complexes import (circle, full_simplex, projective_plane,
                        simplex_boundary, sphere_3, torus)
from .detline import DetTheory, check_symmetry
from .dimtorsor import DimTheory, RelTheory, mu_combine
from .exactcat import (LinMap, complete_grid_3x3,
                       epi_mono_factorize, factorization_connector,
                       inclusion_map, is_cartesian_square,
                       is_cocartesian_square)
from .exactlin import F2, F5, Matrix, Subspace, all_subspaces, all_vectors
from .laurent import (LaurentMatrix, _axpy_terms, _product_terms,
                      _times_terms)
from .simptors import (Cochain, CohomologyResult, MultTorsorRep, GerbeRep,
                       check_mult_torsor, evaluate_even_odd, gerbe_to_torsor,
                       street_boundaries)
from .swald import enumerate_s_skeleton, verify_det_theory, verify_dim_theory
from .tate import (TateSpace, lattice_join, lattice_meet, lattice_normalize,
                   lift_lattice, project_lattice, relative_index,
                   split_tate_ses, standard_lattice, twisted_split)


class SuiteResult:
    def __init__(self, name, checked, failures, elapsed, detail=""):
        self.name = name
        self.checked = checked
        self.failures = list(failures)
        self.elapsed = elapsed
        self.detail = detail

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        # no timing here: the JSON report is byte-identical across runs
        # with the same inputs and seed
        return {
            "suite": self.name,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
            "failures": [str(f) for f in self.failures[:20]],
            "detail": self.detail,
        }

    def __repr__(self):
        return "SuiteResult(%s, %s, %d checked)" % (
            self.name, "pass" if self.passed else "FAIL", self.checked)


def _timed(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        t0 = time.monotonic()
        name, checked, failures, detail = fn(*args, **kwargs)
        return SuiteResult(name, checked, failures,
                           time.monotonic() - t0, detail)
    return wrapped


# --- random generators ----------------------------------------------------

def rand_lattice(rng, space, bound=2):
    lo = rng.randint(-bound, 0)
    hi = rng.randint(0, bound)
    width = (hi - lo) * space.rank
    nrows = rng.randint(0, width)
    p = space.field.p
    rows = [[rng.randrange(p) if rng.random() < 0.6 else 0
             for _ in range(width)] for _ in range(nrows)]
    return lattice_normalize(space, lo, hi, rows)


def diag_lattice(space, shifts):
    lo, hi = min(shifts), max(shifts)
    n = space.rank
    f = space.field
    rows = []
    for i, a in enumerate(shifts):
        for e in range(a, hi):
            row = [f.zero()] * ((hi - lo) * n)
            row[(e - lo) * n + i] = f.one()
            rows.append(row)
    return lattice_normalize(space, lo, hi, rows)


def rand_automorphism(rng, field, n, n_factors=2, emax=2):
    """Random product E1 . E2 ... of elementary Laurent matrices and its exact
    inverse, built by applying each E as a column operation on the product
    and E^-1 as a row operation on the left of the inverse, on the entries'
    term tuples; for n = 0 both are empty, with no draw."""
    p, one = field.p, ((0, field.one()),)
    aut = [[one if i == j else () for j in range(n)] for i in range(n)]
    inv = [list(r) for r in aut]
    for _ in range(n_factors if n else 0):
        if n >= 2 and rng.random() < 0.75:
            # E = 1 + c t^e e_ij: col_j += c t^e col_i, row_i -= c t^e row_j
            i, j = rng.sample(range(n), 2)
            e, c = rng.randint(-emax, emax), rng.randrange(1, p)
            for r in aut:
                r[j] = _axpy_terms(p, r[j], e, c, r[i])
            inv[i] = [_axpy_terms(p, x, e, p - c, y)
                      for x, y in zip(inv[i], inv[j])]
        else:
            # E = 1 + (c t^e - 1) e_ii: col_i *= c t^e, row_i *= c^-1 t^-e
            i = rng.randrange(n)
            e, c = rng.randint(-emax, emax), rng.randrange(1, p)
            ci = field.inv(c)
            for r in aut:
                r[i] = _times_terms(r[i], e, c, p)
            inv[i] = [_times_terms(x, -e, ci, p) for x in inv[i]]
    return (LaurentMatrix._raw(field, tuple(map(tuple, aut)), n),
            LaurentMatrix._raw(field, tuple(map(tuple, inv)), n))


class TwistedChain:
    """A filtration X1 c X2 c X3 of twisted coordinate splits, with every
    derived short exact sequence carrying exact polynomial inverses."""

    def __init__(self, rng, field, a1, a2, a3, emax=2):
        if not 0 <= a1 <= a2 <= a3:
            raise ValueError("dimensions %r are not a filtration: need "
                             "0 <= a1 <= a2 <= a3" % ((a1, a2, a3),))
        self.field = field
        self.dims = (a1, a2, a3)
        A2, A2i = rand_automorphism(rng, field, a3, emax=emax)
        A1, A1i = rand_automorphism(rng, field, a2, emax=emax)
        self.ses23 = twisted_split(A2, A2i, a2)
        self.ses12 = twisted_split(A1, A1i, a1)
        # X1 c X3 is the split twisted by B = (A1 (+) 1) . A2, with inverse
        # A2^-1 . (A1^-1 (+) 1): B's first a2 rows are A1 . i23, and the
        # first a2 columns of B^-1 are ri23 . A1^-1
        B = _product_terms(A1, self.ses23.i) + A2._rows[a2:]
        Bi = tuple([x + y[a2:] for x, y in zip(
            _product_terms(self.ses23.ri[0], A1i), A2i._rows)])
        self.ses13 = twisted_split(LaurentMatrix._raw(field, B, a3),
                                   LaurentMatrix._raw(field, Bi, a3), a1)
        # in these coordinates X3/X1 = (X2/X1) (+) (X3/X2) on the nose
        self.sesq = split_tate_ses(field, a2 - a1, a3 - a2)

    @property
    def total(self):
        return self.ses13.total_space


# --- suites ----------------------------------------------------------------

@_timed
def suite_lattice_index(seed=0, trials=500):
    """relative index of a diagonal monomial lattice against O^n is the sum
    of the shifts."""
    rng = Random(seed)
    failures = []
    for t in range(trials):
        field = F2 if t % 2 else F5
        n = rng.randint(1, 4)
        shifts = [rng.randint(-5, 5) for _ in range(n)]
        space = TateSpace(field, n)
        lat = diag_lattice(space, [-a for a in shifts])
        got = relative_index(lat, standard_lattice(space))
        if got != sum(shifts):
            failures.append("shifts %r gave %d" % (shifts, got))
    return "lattice-index", trials, failures, "rank <= 4, |shift| <= 5"


@_timed
def suite_index_laws(seed=0, trials=1000):
    """Index cocycle on triples and the modular law on pairs."""
    rng = Random(seed)
    failures = []
    for t in range(trials):
        field = F2 if t % 2 else F5
        space = TateSpace(field, rng.randint(1, 3))
        a = rand_lattice(rng, space)
        b = rand_lattice(rng, space)
        c = rand_lattice(rng, space)
        if relative_index(a, b) + relative_index(b, c) != \
                relative_index(a, c):
            failures.append("cocycle failure at trial %d" % t)
        m = lattice_meet(a, b)
        j = lattice_join(a, b)
        if relative_index(a, m) != relative_index(j, b):
            failures.append("modular law failure at trial %d" % t)
        if not (relative_index(a, m) >= 0 and relative_index(j, a) >= 0):
            failures.append("meet/join ordering failure at trial %d" % t)
    return "index-laws", 2 * trials, failures, "rank <= 3"


@_timed
def suite_lift_project(seed=0, trials=1000):
    """Exactness of lift/project through twisted splits and the two-order
    lift/project equality on filtrations."""
    rng = Random(seed)
    failures = []
    for t in range(trials):
        field = F2 if t % 2 else F5
        chain = TwistedChain(rng, field, 1, 2, 3)
        space = chain.total
        u = rand_lattice(rng, space, bound=1)
        u0 = rand_lattice(rng, space, bound=1)
        # exactness through the most twisted sequence
        p13 = project_lattice(chain.ses13, u)
        lhs = relative_index(u, u0)
        rhs = (relative_index(lift_lattice(chain.ses13, u),
                              lift_lattice(chain.ses13, u0))
               + relative_index(p13, project_lattice(chain.ses13, u0)))
        if lhs != rhs:
            failures.append("exactness failure at trial %d" % t)
        # the two orders of lift and project agree on the nose
        u21 = project_lattice(chain.ses12, lift_lattice(chain.ses23, u))
        u21p = lift_lattice(chain.sesq, p13)
        if u21 != u21p:
            failures.append("lift/project order failure at trial %d" % t)
    return "lift-project", 2 * trials, failures, \
        "twisted splits, exponents in [-2, 2]"


def _all_monos(field, a, b, vectors):
    if a == 0:
        yield LinMap.of(Matrix.zero(field, 0, b))
        return
    for rows in itertools.product(vectors[b], repeat=a):
        m = Matrix(field, [list(r) for r in rows], b)
        if m.rank() == a:
            yield LinMap.of(m)


@_timed
def suite_factorization():
    """Exhaustive mono-then-epi factorization over F_2 in dimensions up to
    3: canonical middle, and every basis-twist factorization connects to the
    canonical one by the unique isomorphism."""
    field = F2
    vectors = {n: list(all_vectors(field, n)) for n in range(4)}
    # GL(d, F2), each twist beside its inverse
    gl = {}
    for d in range(4):
        squares = (Matrix(field, [list(r) for r in rows], d)
                   for rows in itertools.product(vectors[d], repeat=d))
        gl[d] = [(LinMap.of(g), LinMap.of(g.inverse())) for g in squares
                 if g.rank() == d]
    failures = []
    checked = 0
    seen_composites = set()
    for b in range(4):
        monos = []
        for a in range(b + 1):
            monos.extend(_all_monos(field, a, b, vectors))
        epis = []
        for c in range(b + 1):
            for rows in itertools.product(vectors[c], repeat=b):
                m = LinMap.of(Matrix(field, [list(r) for r in rows], c))
                if m.is_epi():
                    epis.append(m)
        for mono in monos:
            for epi in epis:
                f = mono.then(epi)
                checked += 1
                e, m = epi_mono_factorize(f, mono, epi)
                if e.then(m) != f:
                    failures.append("factorization does not compose")
                    continue
                if m.image_subspace() != f.image_subspace():
                    failures.append("middle object is not the image")
                    continue
                if f.matrix in seen_composites:
                    continue
                seen_composites.add(f.matrix)
                for tmap, tinv in gl[e.matrix.ncols]:
                    e2, m2 = e.then(tmap), tinv.then(m)
                    u = factorization_connector((e, m), (e2, m2))
                    if u is None or u != tmap:
                        failures.append("connector failure at %r" % (
                            (f.source.dim, f.target.dim, f.matrix.entries),))
                        break
    return "factorization", checked, failures, "exhaustive F2 dims <= 3"


@_timed
def suite_grid():
    """Exhaustive grid completion over F_2: every cartesian admissible square
    completes to a grid with exact rows and columns, and cartesian and
    cocartesian agree on the lower-left admissible square."""
    failures = []
    checked = 0
    for ambient in range(4):
        subs = all_subspaces(F2, ambient)
        for u1 in subs:
            for u2 in subs:
                checked += 1
                try:
                    g = complete_grid_3x3(inclusion_map(u1),
                                          inclusion_map(u2))
                    g.validate()
                except Exception as exc:
                    failures.append("ambient %d: %s" % (ambient, exc))
                    continue
                h0, h1 = g.row_maps[1][0], g.row_maps[2][0]
                v0, v1 = g.col_maps[0][1], g.col_maps[1][1]
                if is_cartesian_square(h0, v0, h1, v1) != \
                        is_cocartesian_square(h0, v0, h1, v1):
                    failures.append("bicartesian mismatch in ambient %d"
                                    % ambient)
    return "grid-completion", checked, failures, \
        "exhaustive F2 ambient <= 3"


def random_grids(rng, field, trials):
    """trials 3x3 grids of two random subspaces of one k^a, a in 1..3, each
    spanned by up to a random rows (prime fields only)."""
    grids = []
    for _ in range(trials):
        ambient = rng.randint(1, 3)
        rows1 = [[rng.randrange(field.p) for _ in range(ambient)]
                 for _ in range(rng.randint(0, ambient))]
        rows2 = [[rng.randrange(field.p) for _ in range(ambient)]
                 for _ in range(rng.randint(0, ambient))]
        grids.append(complete_grid_3x3(
            inclusion_map(Subspace.from_rows(field, ambient, rows1)),
            inclusion_map(Subspace.from_rows(field, ambient, rows2))))
    return grids


@_timed
def suite_det_symmetry(seed=0, trials=200):
    """Graded determinant is symmetric (pair and grid criteria); the
    ungraded determinant fails the pair criterion at (k, k) over F_5 with
    scalars -1 vs 1; the two criteria agree instance by instance."""
    rng = Random(seed)
    failures = []
    pairs2 = [(a, b) for a in range(3) for b in range(3)]
    grids2 = []
    for u1 in all_subspaces(F2, 2):
        for u2 in all_subspaces(F2, 2):
            grids2.append(complete_grid_3x3(inclusion_map(u1),
                                            inclusion_map(u2)))
    rep = check_symmetry(DetTheory(F2), pairs2, grids2)
    checked = len(rep.instances)
    if not rep.all_passed or not rep.criteria_agree:
        failures.append("graded determinant failed over F2")
    grids5 = random_grids(rng, F5, trials)
    rep5 = check_symmetry(DetTheory(F5), pairs2, grids5)
    checked += len(rep5.instances)
    if not rep5.all_passed or not rep5.criteria_agree:
        failures.append("graded determinant failed over F5")
    rep_un = check_symmetry(DetTheory(F5, graded=False), [(1, 1)], grids5)
    checked += len(rep_un.instances)
    kk = [i for i in rep_un.instances if i.kind == "pair"][0]
    if kk.passed or kk.got != F5.normalize(-1) or kk.expected != 1:
        failures.append("ungraded (k, k) should fail with -1 vs 1, got "
                        "%r vs %r" % (kk.got, kk.expected))
    if not rep_un.criteria_agree:
        failures.append("pair and grid criteria disagree for ungraded det")
    rep_un2 = check_symmetry(DetTheory(F2, graded=False), pairs2, grids2)
    checked += len(rep_un2.instances)
    if not rep_un2.all_passed:
        failures.append("ungraded det over F2 must pass (-1 = 1)")
    return "det-symmetry", checked, failures, \
        "%d random F5 grid instances" % len(grids5)


@_timed
def suite_cohomology():
    """Classical values through the Smith normal form backend."""
    failures = []
    cases = [
        (circle(), 1, ZZ, (0,)),
        (simplex_boundary(3), 2, ZZ, (0,)),
        (torus(), 2, ZZ, (0,)),
        (torus(), 1, ZZ, (0, 0)),
        (projective_plane(), 2, AbelianGroup((2,)), (2,)),
        (projective_plane(), 2, ZZ, (2,)),
        (full_simplex(2), 1, ZZ, ()),
        (full_simplex(2), 2, ZZ, ()),
        (sphere_3(), 3, ZZ, (0,)),
    ]
    for cx, deg, grp, want in cases:
        got = CohomologyResult(cx, deg, grp).group_presentation
        if got != want:
            failures.append("H^%d expected %r got %r" % (deg, want, got))
    return "cohomology", len(cases), failures, "oracle values"


@_timed
def suite_classification():
    """Exhaustive degree-1 torsor classification over Z/2: iso classes
    count |H^2| and the class of alpha separates them, on the projective
    plane and on the 2-sphere boundary complex (<= 4 top simplices).  One
    CohomologyResult per complex answers every class and transporter."""
    z2 = AbelianGroup((2,))
    failures = []
    checked = 0
    for cx in (projective_plane(), simplex_boundary(3)):
        res = CohomologyResult(cx, 2, z2)
        order = 1
        for f in res.group_presentation:
            order *= f
        torsors = []
        two = cx.ids(2)
        for bits in itertools.product(range(2), repeat=len(two)):
            vals = {sid: z2.elem((b,)) for sid, b in zip(two, bits)}
            alpha = Cochain(cx, 2, z2, vals)
            if not alpha.coboundary().is_zero():
                continue  # not a torsor: the pasting condition fails
            torsors.append(MultTorsorRep(cx, 1, z2, alpha))
        checked += len(torsors)
        classes = []
        for t in torsors:
            for group in classes:
                if res.transporter(group[0].absolute_alpha(),
                                   t.absolute_alpha()) is not None:
                    group.append(t)
                    break
            else:
                classes.append([t])
        if len(classes) != order:
            failures.append("found %d iso classes, expected %d"
                            % (len(classes), order))
        labels = set()
        for group in classes:
            cls = {res.classify(t.alpha) for t in group}
            if len(cls) != 1:
                failures.append("the class is not constant on an iso class")
            labels |= cls
        if len(labels) != len(classes):
            failures.append("the class does not separate iso classes")
        for g1, g2 in itertools.combinations(classes, 2):
            if res.transporter(g1[0].absolute_alpha(),
                               g2[0].absolute_alpha()) is not None:
                failures.append("distinct classes are isomorphic")
    return "classification", checked, failures, \
        "projective plane and 2-sphere, exhaustive over Z/2"


@_timed
def suite_pasting(seed=0):
    """E - O equals the alternating coboundary, and the Street multiset
    identities hold, on every simplex of every test complex.

    The identity is Z-linear in alpha, so checking it on every basis cochain
    (one unit value per face) is a symbolic verification; a randomized pass
    with nonzero anchors covers the anchor bookkeeping.
    """
    rng = Random(seed)
    fixtures = [full_simplex(2), full_simplex(3), full_simplex(4),
                simplex_boundary(3), torus(), projective_plane(), sphere_3()]
    failures = []
    checked = 0
    for cx in fixtures:
        for d in range(2, cx.top_dim + 1):
            for sid in cx.ids(d):
                s = street_boundaries(cx, sid)
                if s["++"] != s["--"] or s["+-"] != s["-+"]:
                    failures.append("street identity fails at %r" % (sid,))
                checked += 1
        for degree in (0, 1, 2):
            taus = cx.ids(degree + 2)
            if not taus:
                continue
            # symbolic pass: basis cochains
            for sigma in cx.ids(degree + 1):
                alpha = Cochain(cx, degree + 1, ZZ,
                                {sigma: ZZ.elem((1,))})
                t = MultTorsorRep(cx, degree, ZZ, alpha)
                d_alpha = alpha.coboundary()
                absolute = t.absolute_alpha()
                for tau in taus:
                    e, o = evaluate_even_odd(t, tau, absolute)
                    checked += 1
                    if e - o != d_alpha.value(tau):
                        failures.append(
                            "pasting defect at %r for basis %r (degree %d)"
                            % (tau, sigma, degree))
            # randomized pass with anchors
            vals = {sid: ZZ.elem((rng.randint(-4, 4),))
                    for sid in cx.ids(degree + 1)}
            alpha = Cochain(cx, degree + 1, ZZ, vals)
            anchors = Cochain(cx, degree, ZZ,
                              {sid: ZZ.elem((rng.randint(-3, 3),))
                               for sid in cx.ids(degree)})
            t = MultTorsorRep(cx, degree, ZZ, alpha, anchors)
            d_alpha = alpha.coboundary()
            absolute = t.absolute_alpha()
            for tau in taus:
                e, o = evaluate_even_odd(t, tau, absolute)
                checked += 1
                if e - o != d_alpha.value(tau):
                    failures.append("pasting defect at %r degree %d"
                                    % (tau, degree))
    return "pasting", checked, failures, \
        "degrees 0..2, basis cochains plus anchored randomized pass"


@_timed
def suite_s_construction():
    """Skeleton enumeration over F_2 with all simplicial identities, the
    0-torsor check for the dimension theory, the 1-torsor check for the
    graded determinant, and detection of an injected grading fault."""
    failures = []
    sk = enumerate_s_skeleton(F2, 2, 4)
    bad = sk.check_simplicial_identities()
    if bad is not None:
        failures.append("simplicial identity failure at %r" % (bad,))
    if sk.counts()[0] != 1:
        failures.append("level 0 must be a single basepoint")
    rep_dim = verify_dim_theory(sk, DimTheory.universal())
    if not rep_dim.ok:
        failures.append("dimension theory failed the 0-torsor check")
    rep_det = verify_det_theory(sk, DetTheory(F2))
    if not rep_det.ok:
        failures.append("graded determinant failed the 1-torsor check")

    class _Fault:
        # parity-flip the grading of one object: over F_2 there is no -1,
        # so the sign carrier is the degree itself
        def __init__(self, inner):
            self.inner = inner
            self.field = inner.field

        def h(self, space):
            from .detline import GradedLine
            line = self.inner.h(space)
            if space.dim == 1:
                return GradedLine(line.field, line.degree + 1, line.label)
            return line

        def lambda_scalar(self, ses):
            return self.inner.lambda_scalar(ses)

    rep_fault = verify_det_theory(sk, _Fault(DetTheory(F2)))
    if rep_fault.ok:
        failures.append("injected grading fault went undetected")
    checked = sum(sk.counts()) + rep_dim.checked + rep_det.checked
    return "s-construction", checked, failures, \
        "F2, D = 2, N = 4, counts %r" % (sk.counts(),)


@_timed
def suite_gerbe(seed=0, trials=3):
    """Every valid gerbe gives a torsor passing the pasting check;
    coboundary betas classify to zero; a nontrivial cocycle on a complex
    with H^3 != 0 classifies nonzero."""
    rng = Random(seed)
    failures = []
    checked = 0
    z4 = AbelianGroup((4,))
    results = [{g: CohomologyResult(cx, 3, g) for g in (ZZ, z4)}
               for cx in (sphere_3(), full_simplex(4))]
    corpus = []  # (H^3 of the gerbe's complex and group, gerbe)
    for res in results:
        cx = res[ZZ].complex
        corpus.append((res[ZZ], GerbeRep(cx, ZZ, Cochain.zero(cx, 3, ZZ))))
        for _ in range(trials):
            lower = Cochain(cx, 2, z4, {sid: z4.elem((rng.randrange(4),))
                                        for sid in cx.ids(2)})
            corpus.append((res[z4], GerbeRep(cx, z4, lower.coboundary())))
            lower_z = Cochain(cx, 2, ZZ, {sid: ZZ.elem((rng.randint(-3, 3),))
                                          for sid in cx.ids(2)})
            corpus.append((res[ZZ], GerbeRep(cx, ZZ, lower_z.coboundary())))
    for res, g in corpus:
        t = gerbe_to_torsor(g)
        checked += 1
        if not check_mult_torsor(t).ok:
            failures.append("induced torsor failed the pasting check")
        if any(map(any, res.classify(t.alpha))):
            failures.append("coboundary beta classified nonzero")
    sphere_z4 = results[0][z4]
    g = GerbeRep(sphere_z4.complex, z4, sphere_z4.representatives()[0])
    t = gerbe_to_torsor(g)
    checked += 1
    if not check_mult_torsor(t).ok:
        failures.append("nontrivial gerbe torsor failed the pasting check")
    if not any(map(any, sphere_z4.classify(t.alpha))):
        failures.append("nontrivial cocycle classified to zero")
    return "gerbe-torsor", checked, failures, "corpus of %d gerbes" % checked


@_timed
def suite_mu(seed=0, trials=200):
    """Balanced tensor and associativity for combined dimension theories."""
    rng = Random(seed)
    failures = []
    chi = DimTheory.universal()
    for t in range(trials):
        field = F5 if t % 2 else F2
        chain = TwistedChain(rng, field, 1, 2, 3)
        k1 = TateSpace(field, 1)
        q2 = TateSpace(field, 2)
        d1 = RelTheory.standard(chi, k1, ZZ.elem((rng.randint(-3, 3),)))
        d21 = RelTheory.standard(chi, k1, ZZ.elem((rng.randint(-3, 3),)))
        d32 = RelTheory.standard(chi, k1, ZZ.elem((rng.randint(-3, 3),)))
        g = ZZ.elem((rng.randint(-4, 4),))
        left = mu_combine(chain.ses12, d1.translate(g), d21,
                          check_samples=False)
        right = mu_combine(chain.ses12, d1, d21.translate(g),
                           check_samples=False)
        if left != right or left != mu_combine(
                chain.ses12, d1, d21, check_samples=False).translate(g):
            failures.append("balanced tensor failure at trial %d" % t)
        d12 = mu_combine(chain.ses12, d1, d21, check_samples=False)
        assoc_l = mu_combine(chain.ses23, d12, d32, check_samples=False)
        d23 = mu_combine(chain.sesq, d21, d32, check_samples=False)
        assoc_r = mu_combine(chain.ses13, d1, d23, check_samples=False)
        if assoc_l != assoc_r:
            failures.append("associativity failure at trial %d" % t)
        probe = rand_lattice(rng, chain.total, bound=1)
        if assoc_l.eval(probe) != assoc_r.eval(probe):
            failures.append("associativity eval failure at trial %d" % t)
    return "mu", 3 * trials, failures, "combined dimension theories"


SUITES = {
    "lattice-index": suite_lattice_index,
    "index-laws": suite_index_laws,
    "lift-project": suite_lift_project,
    "factorization": suite_factorization,
    "grid": suite_grid,
    "det-symmetry": suite_det_symmetry,
    "cohomology": suite_cohomology,
    "classification": suite_classification,
    "pasting": suite_pasting,
    "s-construction": suite_s_construction,
    "gerbe": suite_gerbe,
    "mu": suite_mu,
}


def suite_parameters(name):
    """Names of the parameters the suite takes."""
    import inspect
    return frozenset(inspect.signature(SUITES[name]).parameters)


def run_suite(name, seed=None, trials=None):
    """Run one suite by name; seed and trials reach the suites that take
    them, and None keeps a suite's default."""
    params = suite_parameters(name)
    kwargs = {k: v for k, v in (("seed", seed), ("trials", trials))
              if v is not None and k in params}
    return SUITES[name](**kwargs)
