import itertools
import random

import pytest

from satokit.detline import (
    DetRule, DetTheory, GradedLine, LineIso, check_symmetry, delta_relative,
    det_line, det_map, graded_det, grid_criterion, koszul_swap, lambda_ses,
    pair_criterion, ungraded_det,
)
from satokit.dimtorsor import RelTheory, mu_combine, torsor_difference
from satokit.exactcat import (SES, FdSpace, LinMap, canonical_section,
                              complete_grid_3x3, inclusion_map, split_ses)
from satokit.exactlin import F2, F5, Matrix, Subspace, all_subspaces
from satokit.laurent import LaurentMatrix, LaurentPoly
from satokit.tate import (TateSpace, lattice_normalize, relative_index,
                          split_tate_ses, standard_lattice, twist_tate_ses)

K1 = TateSpace(F5, 1)
K2 = TateSpace(F5, 2)


def test_det_line_basic():
    zero = FdSpace(F5, 0)
    assert det_line(zero) == GradedLine.unit(F5)
    v = FdSpace(F5, 3)
    line = det_line(v)
    assert line.degree == 3 and line.label == "e1^e2^e3"


def test_det_map_scalar():
    f = LinMap(FdSpace(F5, 2), FdSpace(F5, 2), [[2, 0], [0, 1]])
    iso = det_map(f)
    assert iso.scalar == 2


def test_lambda_iso_sequence_is_det():
    # a ~ b ->> 0: lambda equals det of the iso
    a = FdSpace(F5, 2)
    f = LinMap(a, a, [[2, 1], [1, 1]])
    ses = SES(f, LinMap.zero(a, FdSpace(F5, 0)))
    assert lambda_ses(ses).scalar == f.matrix.det()


def test_lambda_standard_split():
    ses = split_ses(F5, 1, 1)
    assert lambda_ses(ses).scalar == 1


def test_lambda_section_shift_invariance():
    # adding an element of i(a') to the section leaves the scalar fixed
    ses = split_ses(F5, 1, 1)
    sec = canonical_section(ses.j)
    shifted = LinMap(sec.source, sec.target,
                     [[3, 1]])  # section + 3 e_1, still a section
    assert shifted.then(ses.j) == LinMap.identity(ses.quot)
    for s in (sec, shifted):
        assert ses.i.matrix.vstack(s.matrix).det() == lambda_ses(ses).scalar


def test_koszul_swap():
    x = GradedLine(F5, 1, "x")
    y = GradedLine(F5, 1, "y")
    assert koszul_swap(x, y).scalar == F5.normalize(-1)
    z = GradedLine(F5, 0, "z")
    assert koszul_swap(z, y).scalar == 1
    a = GradedLine(F5, 2, "a")
    b = GradedLine(F5, 3, "b")
    assert koszul_swap(a, b).scalar == 1
    # double swap is the identity scalar
    for (p, q) in [(1, 1), (1, 2), (3, 3), (0, 5)]:
        u, v = GradedLine(F5, p, "u"), GradedLine(F5, q, "v")
        f = koszul_swap(u, v).then(koszul_swap(v, u))
        assert f.scalar == 1


def test_lambda_naturality_under_sequence_isos():
    # for an isomorphism of sequences (f', f, f''):
    # lambda' . (det f' (x) det f'') == det f . lambda as scalars
    rng = random.Random(8)
    for _ in range(40):
        dims = (rng.randint(0, 3), rng.randint(0, 3))
        a, b = dims
        ses = split_ses(F5, a, b)

        def rand_iso(space):
            while True:
                m = Matrix(F5, [[rng.randrange(5) for _ in range(space.dim)]
                                for _ in range(space.dim)], space.dim)
                if m.rank() == space.dim:
                    return LinMap(space, space, m)

        f_sub = rand_iso(ses.sub)
        f_quot = rand_iso(ses.quot)
        f_tot = rand_iso(ses.total)
        # sigma_2 with an isomorphism (f_sub, f_tot, f_quot) to sigma_1
        i2 = f_sub.then(ses.i).then(f_tot.inverse())
        j2 = f_tot.then(ses.j).then(f_quot.inverse())
        ses2 = SES(i2, j2)
        lam1 = lambda_ses(ses).scalar
        lam2 = lambda_ses(ses2).scalar
        lhs = F5.mul(lam1, F5.mul(f_sub.matrix.det(), f_quot.matrix.det()))
        rhs = F5.mul(lam2, f_tot.matrix.det())
        assert lhs == rhs


def test_pair_criterion_graded_vs_ungraded():
    ok, got, want = pair_criterion(graded_det(F5), 1, 1)
    assert ok
    ok, got, want = pair_criterion(ungraded_det(F5), 1, 1)
    assert not ok
    assert got == F5.normalize(-1) and want == 1
    # characteristic 2 cannot see the sign
    ok, _, _ = pair_criterion(ungraded_det(F2), 1, 1)
    assert ok


def _grids(field, ambient):
    subs = all_subspaces(field, ambient)
    for u1 in subs:
        for u2 in subs:
            yield complete_grid_3x3(inclusion_map(u1), inclusion_map(u2))


def test_check_symmetry_graded_exhaustive_f2():
    pairs = [(a, b) for a in range(3) for b in range(3)]
    grids = list(_grids(F2, 2))
    rep = check_symmetry(graded_det(F2), pairs, grids)
    assert rep.all_passed and rep.criteria_agree


def test_check_symmetry_ungraded_f5():
    grids = []
    rng = random.Random(2)
    for _ in range(40):
        rows1 = [[rng.randrange(5) for _ in range(3)] for _ in range(2)]
        rows2 = [[rng.randrange(5) for _ in range(3)] for _ in range(2)]
        g = complete_grid_3x3(
            inclusion_map(Subspace.from_rows(F5, 3, rows1)),
            inclusion_map(Subspace.from_rows(F5, 3, rows2)))
        grids.append(g)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    rep = check_symmetry(ungraded_det(F5), pairs, grids)
    assert not rep.all_passed           # odd-by-odd instances fail
    assert rep.criteria_agree           # but pair and grid verdicts match
    failing = [i for i in rep.instances if i.kind == "pair" and not i.passed]
    assert {(1, 1), (1, 2), (2, 1)}.isdisjoint(
        {i.data for i in failing}) is False
    rep_graded = check_symmetry(graded_det(F5), pairs, grids)
    assert rep_graded.all_passed and rep_graded.criteria_agree


def test_mult_diagram_two_paths_exhaustive_f2():
    # associativity of lambda on filtrations a1 c a2 c a3
    th = graded_det(F2)
    subs = all_subspaces(F2, 3)
    count = 0
    for a1 in subs:
        for a2 in subs:
            if not a2.contains(a1) or a1 == a2:
                continue
            full = Subspace.full(F2, 3)
            # lambda for the chain via grid machinery on subquotients
            from satokit.exactcat import induced_map, GridError
            from satokit.exactlin import Quotient
            # two-path equality through concrete SES data
            zero = Subspace.zero(F2, 3)

            def ses_of(small, mid, big):
                i = induced_map(Quotient(small, mid), Quotient(small, big))
                j = induced_map(Quotient(small, big), Quotient(mid, big))
                return SES(i, j)

            lam_12 = th.lambda_scalar(ses_of(zero, a1, a2))
            lam_23 = th.lambda_scalar(ses_of(zero, a2, full))
            lam_13 = th.lambda_scalar(ses_of(zero, a1, full))
            lam_q = th.lambda_scalar(ses_of(a1, a2, full))
            assert F2.mul(lam_12, lam_23) == F2.mul(lam_13, lam_q)
            count += 1
    assert count > 0


def test_delta_relative_identity_and_degree():
    th = RelTheory.standard(DetRule(F5), K1)
    u = standard_lattice(K1)
    iso = delta_relative(th, u, u)
    assert iso.scalar == 1
    v = standard_lattice(K1, -1)
    iso = delta_relative(th, u, v)
    assert iso.target.degree == iso.source.degree
    assert th.eval(v)[0] == th.eval(u)[0] + 1
    assert iso.scalar == 1  # monomial bases


def test_delta_relative_chain_two_paths():
    from satokit.tate import lambda_scalar_chain
    th = RelTheory.standard(DetRule(F5), K1)
    u = standard_lattice(K1, 1)
    v = standard_lattice(K1)
    w = lattice_normalize(K1, -1, 1, [[1, 1], [0, 1]])  # contains O
    lhs = F5.mul(th.rule.delta(v, w), th.rule.delta(u, v))
    rhs = F5.mul(th.rule.delta(u, w), lambda_scalar_chain(u, v, w))
    assert lhs == rhs


def test_hom_torsor_class():
    t1 = RelTheory.standard(DetRule(F5), K1)
    assert torsor_difference(t1, t1) == (0, 1)
    shifted = t1.translate((2, 3))
    deg, cls = torsor_difference(shifted, t1)
    assert deg == 2 and cls == "empty"
    from satokit.exactlin import Field
    F7 = Field(7)
    K7 = TateSpace(F7, 1)
    a = RelTheory(DetRule(F7), K7, standard_lattice(K7), (0, 5))
    b = RelTheory(DetRule(F7), K7, standard_lattice(K7), (0, 1))
    assert torsor_difference(a, b) == (0, 5)


def test_hom_torsor_class_across_anchors():
    # re-anchoring presents the same theory: trivial hom class both ways
    t = RelTheory(DetRule(F5), K1, standard_lattice(K1), (0, 3))
    for new_base in (standard_lattice(K1, -2),
                     lattice_normalize(K1, -1, 1, [[1, 1], [0, 1]])):
        t2 = t.re_anchor(new_base)
        assert torsor_difference(t, t2) == (0, 1)
        assert torsor_difference(t2, t) == (0, 1)
        # and a genuinely scaled theory is separated
        t3 = t2.translate((0, 2))
        deg, cls = torsor_difference(t3, t)
        assert deg == 0 and cls == 2


def test_torsor_freeness():
    t = RelTheory.standard(DetRule(F5), K1)
    for deg, sc in [(1, 1), (0, 2), (2, 3)]:
        moved = t.translate((deg, sc))
        assert torsor_difference(moved, t) != (0, 1)


def test_mu_det_split_degrees():
    ses = split_tate_ses(F5, 1, 1)
    t1 = RelTheory.standard(DetRule(F5), K1)
    t2 = RelTheory.standard(DetRule(F5), K1)
    t = mu_combine(ses, t1, t2)
    lat = _diag(K2, [-1, 1])
    assert t.eval(lat)[0] == 0
    assert t.eval(standard_lattice(K2))[0] == 0
    assert t.base_value[1] == 1


def _diag(space, shifts):
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


def test_mu_det_delta_cocycle_on_chains():
    from satokit.tate import lambda_scalar_chain
    rng = random.Random(4)
    ses = split_tate_ses(F5, 1, 1)
    t = mu_combine(ses, RelTheory.standard(DetRule(F5), K1),
                   RelTheory.standard(DetRule(F5), K1))
    chains = [
        (_diag(K2, [1, 0]), _diag(K2, [0, 0]), _diag(K2, [-1, 0])),
        (_diag(K2, [0, 1]), _diag(K2, [0, 0]), _diag(K2, [-1, -1])),
        (_diag(K2, [2, 1]), _diag(K2, [1, 1]), _diag(K2, [0, -1])),
    ]
    for (u, v, w) in chains:
        lhs = F5.mul(t.rule.delta(v, w), t.rule.delta(u, v))
        rhs = F5.mul(t.rule.delta(u, w), lambda_scalar_chain(u, v, w))
        assert lhs == rhs


def test_mu_det_koszul_insertion_sign():
    # the combined delta differs from the naive product rule by exactly
    # (-1)^(deg Delta''(u'') . dim(v'/u')), nontrivial when both are odd
    from satokit.tate import (fd_ses_of_pair, lift_lattice, project_lattice,
                              relative_index)
    ses = split_tate_ses(F5, 1, 1)
    t1 = RelTheory.standard(DetRule(F5), K1)
    t2 = RelTheory.standard(DetRule(F5), K1)
    t = mu_combine(ses, t1, t2)
    u = _diag(K2, [0, -1])   # proj(u) = t^-1 O: degree 1 (odd)
    v = _diag(K2, [-1, -1])  # lift grows by one (odd)
    fd, _ = fd_ses_of_pair(ses, u, v)
    lam = lambda_ses(fd).scalar
    u1, v1 = lift_lattice(ses, u), lift_lattice(ses, v)
    u2, v2 = project_lattice(ses, u), project_lattice(ses, v)
    naive = F5.div(F5.mul(t1.rule.delta(u1, v1), t2.rule.delta(u2, v2)),
                   lam)
    assert t2.eval(u2)[0] % 2 == 1
    assert relative_index(v1, u1) % 2 == 1
    assert t.rule.delta(u, v) == F5.neg(naive)


def test_connecting_scalar_lifts_and_projects_each_lattice_once(monkeypatch):
    # fd_ses_of_pair already returns lift and project of u and v
    import collections
    import satokit.detline
    import satokit.tate
    calls = collections.Counter()

    def counted(name):
        fn = getattr(satokit.tate, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("lift_lattice", "project_lattice"):
        wrapper = counted(name)
        for module in (satokit.tate, satokit.detline):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    ses = split_tate_ses(F5, 1, 1)
    t = mu_combine(ses, RelTheory.standard(DetRule(F5), K1),
                   RelTheory.standard(DetRule(F5), K1))
    calls.clear()
    t.rule.delta(_diag(K2, [0, -1]), _diag(K2, [-1, -1]))
    assert calls == {"lift_lattice": 2, "project_lattice": 2}


# degrees and connecting scalars taken before dimensional and determinantal
# theories shared RelTheory: (degree at p, delta(p n q, p), delta(p, p + q))
@pytest.mark.parametrize("seed, field, want", [
    (1, F2, [(1, 1, 1), (2, 1, 1), (3, 1, 1), (3, 1, 1)]),
    (2, F5, [(0, 1, 2), (1, 1, 1), (0, 4, 1), (-2, 1, 1)]),
    (3, F2, [(1, 1, 1), (-1, 1, 1), (2, 1, 1), (3, 1, 1)]),
    (4, F5, [(0, 1, 2), (0, 1, 3), (-2, 1, 4), (1, 2, 1)]),
])
def test_mu_det_degrees_and_deltas_on_twisted_chains(seed, field, want):
    from satokit.tate import lattice_join, lattice_meet
    from satokit.verify import TwistedChain, rand_lattice
    rng = random.Random(seed)
    chain = TwistedChain(rng, field, 1, 2, 3)
    k1 = TateSpace(field, 1)
    t1 = RelTheory.standard(DetRule(field), k1)
    t2, t3 = (RelTheory.standard(DetRule(field), k1, (1, 1))
              for _ in range(2))
    t12 = mu_combine(chain.ses12, t1, t2)
    t123 = mu_combine(chain.ses23, t12, t3)
    got = []
    for t, space in ((t12, TateSpace(field, 2)), (t123, chain.total)):
        for _ in range(2):
            p = rand_lattice(rng, space, bound=1)
            q = rand_lattice(rng, space, bound=1)
            got.append((t.eval(p)[0], t.rule.delta(lattice_meet(p, q), p),
                        t.rule.delta(p, lattice_join(p, q))))
    assert got == want


def test_mu_det_independent_of_presentation():
    # the anchor value of the combination is the product of the values at
    # lift and project of the base, not of the raw anchors
    ses = split_tate_ses(F5, 1, 1)
    s = RelTheory.standard(DetRule(F5), K1)
    t = RelTheory(DetRule(F5), K1, standard_lattice(K1), (0, 3))
    tr = t.re_anchor(standard_lattice(K1, 1))
    assert torsor_difference(t, tr) == (0, 1)
    combined, combined_r = mu_combine(ses, t, s), mu_combine(ses, tr, s)
    assert combined_r.rule == combined.rule
    assert torsor_difference(combined, combined_r) == (0, 1)
    assert combined == combined_r
    assert torsor_difference(mu_combine(ses, t.translate((0, 2)), s),
                             combined) == (0, 2)
