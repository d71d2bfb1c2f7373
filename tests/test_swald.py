import random

import pytest

from satokit.abgroup import AbelianGroup, ZZ
from satokit.detline import DetTheory
from satokit.dimtorsor import DimTheory
from satokit.exactcat import SES, LinMap
from satokit.exactlin import F2, F3, F5, QQ, Matrix, Subspace, all_subspaces
from satokit.swald import (
    BudgetExceeded, SObject, SObjectError, build_s_object,
    enumerate_s_skeleton, s_degeneracy, s_face, s_skeleton_counts,
    verify_det_theory, verify_dim_theory,
)


def sub(field, ambient, *rows):
    return Subspace.from_rows(field, ambient, rows)


def test_basepoint_and_single_object():
    base = build_s_object(F2, 2, [])
    assert base.level == 0
    one = build_s_object(F2, 2, [sub(F2, 2, (1, 0))])
    assert one.level == 1
    assert one.entry_dim(0, 1) == 1


def test_build_filtration_f2():
    # 0 c k c k^2 with standard quotients
    obj = build_s_object(F2, 2, [sub(F2, 2, (1, 0)), Subspace.full(F2, 2)])
    assert obj.entry_dim(0, 1) == 1
    assert obj.entry_dim(0, 2) == 2
    assert obj.entry_dim(1, 2) == 1
    obj.validate()


def test_build_rejects_bad_chain():
    with pytest.raises(SObjectError):
        build_s_object(F2, 2, [Subspace.full(F2, 2), sub(F2, 2, (1, 0))])


@pytest.mark.parametrize("field,ambient,chain,message", [
    # not nested
    (F2, 2, [sub(F2, 2, (0, 1)), sub(F2, 2, (1, 0))],
     r"\(0, 1, 2\): image escapes"),
    # a member over another ambient, and one over another field
    (F2, 2, [sub(F2, 2, (1, 0)), sub(F2, 3, (1, 0, 0))],
     r"\(0, 0, 2\): ambient mismatch"),
    (F3, 2, [sub(F3, 2, (1, 0)), sub(F5, 2, (1, 0))],
     r"\(0, 0, 2\): field mismatch"),
])
def test_build_refuses_each_bad_input(field, ambient, chain, message):
    # build_s_object is the one validation path: SObject only stores
    with pytest.raises(SObjectError, match=message):
        build_s_object(field, ambient, chain)
    assert SObject(field, ambient, chain).chain == tuple(chain)


def _validate_every_triple(obj):
    """SObject.validate as it was: the sequence of every (i, j, k), then the
    coherence of every composite a_ij -> a_kl -> a_mq."""
    n = obj.level
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                try:
                    obj.row_ses(i, j, k)
                except Exception as exc:
                    raise SObjectError(
                        "sequence condition fails at (%d, %d, %d): %s"
                        % (i, j, k, exc))
    pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    for (i, j) in pairs:
        for (k, l) in pairs:
            if not (i <= k and j <= l):
                continue
            for (m, q) in pairs:
                if not (k <= m and l <= q):
                    continue
                direct = obj.array_map((i, j), (m, q))
                through = obj.array_map((i, j), (k, l)).then(
                    obj.array_map((k, l), (m, q)))
                if direct != through:
                    raise SObjectError(
                        "coherence fails from (%d,%d) via (%d,%d) to "
                        "(%d,%d)" % (i, j, k, l, m, q))
    return True


def _random_chain(rng):
    """A field, an ambient and a chain of up to 3 members, each of which
    adds up to one row to the one before, or else is drawn afresh, with
    even odds; a fifth of the chains get one member over another ambient or
    another field."""
    field, ambient = rng.choice([F2, F3]), rng.randint(0, 3)

    def draw(k):
        return [[rng.randrange(field.p) for _ in range(ambient)]
                for _ in range(k)]

    level, rows, chain = rng.randint(0, 3), [], []
    for _ in range(level):
        if rng.random() < 0.5:
            rows += draw(rng.randint(0, 1))
        else:
            rows = draw(rng.randint(0, ambient))
        chain.append(Subspace.from_rows(field, ambient, rows))
    if chain and rng.random() < 0.2:
        other = rng.choice([(field, ambient + 1), (F5, ambient)])
        chain[rng.randrange(level)] = Subspace.full(*other)
    return field, ambient, chain


def test_validate_checks_the_sequences_from_zero_only():
    # the sequences (0, j, k) decide every other (i, j, k) and the coherence
    # of the array maps: the old loop over all of them gives the same
    # outcome and message on random chains, nested or not, with members
    # over other ambients and fields
    rng = random.Random(41)

    def outcome(validate, obj):
        try:
            return validate(obj)
        except SObjectError as exc:
            return str(exc)

    failures = 0
    for _ in range(1000):
        obj = SObject(*_random_chain(rng))
        got = outcome(SObject.validate, obj)
        assert got == outcome(_validate_every_triple, obj), obj
        failures += got is not True
    assert failures > 150


def test_face_zero_is_quotient():
    obj = build_s_object(F2, 2, [sub(F2, 2, (1, 0)), Subspace.full(F2, 2)])
    d0 = s_face(obj, 0)
    assert d0.level == 1
    assert d0.entry_dim(0, 1) == 1  # a_12 = k
    # the array of the face equals the reindexed array of the object
    assert d0.entry_dim(0, 1) == obj.entry_dim(1, 2)


def test_face_two_deletes_column():
    obj = build_s_object(F2, 2, [sub(F2, 2, (1, 0)), Subspace.full(F2, 2)])
    d2 = s_face(obj, 2)
    assert d2.level == 1
    assert d2.chain[0] == obj.chain[0]  # a_01 = k survives


def test_level_zero_object_has_no_face():
    with pytest.raises(SObjectError, match="face index out of range"):
        s_face(SObject(F2, 2, ()), 0)


def test_degeneracy_then_face_identity():
    obj = build_s_object(F2, 2, [sub(F2, 2, (1, 1))])
    assert s_face(s_degeneracy(obj, 0), 0) == obj
    assert s_face(s_degeneracy(obj, 1), 1) == obj


def test_face_functor_matches_reindexed_array():
    # d_0 must land on the object whose array is the reindexed array
    obj = build_s_object(
        F2, 3, [sub(F2, 3, (1, 1, 0)),
                sub(F2, 3, (1, 1, 0), (0, 0, 1)),
                Subspace.full(F2, 3)])
    d0 = s_face(obj, 0)
    d0.validate()
    for i in range(d0.level + 1):
        for j in range(i, d0.level + 1):
            assert d0.entry_dim(i, j) == obj.entry_dim(i + 1, j + 1)
            for k in range(j, d0.level + 1):
                got = d0.array_map((i, j), (j, k) if False else (i, k))
                want = obj.array_map((i + 1, j + 1), (i + 1, k + 1))
                assert got.matrix == want.matrix


def test_skeleton_dim_cap_zero():
    sk = enumerate_s_skeleton(F2, 0, 3)
    assert sk.counts() == [1, 1, 1, 1]
    assert sk.check_simplicial_identities() is None


def test_skeleton_counts_f2_d1():
    sk = enumerate_s_skeleton(F2, 1, 2)
    # level 1 objects = subspaces of F_2: 0 and k
    assert sk.counts()[0] == 1
    assert sk.counts()[1] == 2
    # level 2 = weak chains of length 2: (0,0), (0,k), (k,k)
    assert sk.counts()[2] == 3


def test_skeleton_counts_f2_d2():
    sk = enumerate_s_skeleton(F2, 2, 4)
    assert sk.counts() == [1, 5, 12, 22, 35]


def test_skeleton_level2_matches_ses_count():
    # independent double count: level-2 objects correspond one-to-one to
    # nested subspace pairs (V1 <= V2), i.e. to on-the-nose admissible SES
    from satokit.exactlin import all_subspaces
    for dim_cap in (1, 2):
        sk = enumerate_s_skeleton(F2, dim_cap, 2)
        subs = all_subspaces(F2, dim_cap)
        direct = sum(1 for a in subs for b in subs if b.contains(a))
        assert len(sk.levels[2]) == direct


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_s_skeleton(F2, 2, 4, budget=10)


def _counts_by_containment(field, n, level_cap):
    """Weak chains per level by dynamic programming over the containment
    table of all subspaces of F_q^n."""
    subs = all_subspaces(field, n)
    counts = [1] * len(subs)
    per_level = [1, len(subs)]
    for _ in range(2, level_cap + 1):
        counts = [sum(c for b, c in zip(subs, counts) if b.contains(a))
                  for a in subs]
        per_level.append(sum(counts))
    return per_level[:level_cap + 1]


@pytest.mark.parametrize("field,n,level_cap", [
    (F2, 0, 3), (F2, 1, 4), (F2, 2, 4), (F2, 3, 4), (F2, 4, 3),
    (F3, 2, 3), (F5, 2, 3), (F2, 3, 0), (F2, 6, 1)])
def test_closed_form_counts_match_the_chains(field, n, level_cap):
    got = s_skeleton_counts(field, n, level_cap, 10 ** 9)
    assert got == _counts_by_containment(field, n, level_cap)
    if sum(got) <= 2000:
        assert enumerate_s_skeleton(field, n, level_cap).counts() == got


@pytest.mark.parametrize("caps", [
    (1.5, 2, 100), (1, 2.0, 100), (1, 2, 100.0), ("1", 2, 100),
    (True, 2, 100), (1, 2, None)])
def test_caps_that_are_not_ints_are_refused(caps):
    # a ValueError, before any count, where a float or a string used to
    # reach range() or a comparison and raise TypeError
    dim_cap, level_cap, budget = caps
    with pytest.raises(ValueError, match="is not an int"):
        s_skeleton_counts(F2, dim_cap, level_cap, budget)
    with pytest.raises(ValueError, match="is not an int"):
        enumerate_s_skeleton(F2, dim_cap, level_cap, budget)


def test_budget_refused_before_any_subspace_is_built(monkeypatch):
    import time
    import satokit.swald

    def unreachable(*args):
        raise AssertionError("subspaces enumerated before the budget check")

    monkeypatch.setattr(satokit.swald, "all_subspaces", unreachable)
    t0 = time.monotonic()
    # F_2^7 has 29212 subspaces; huge caps are refused as fast, and so are
    # skeletons within the object budget whose incidence work passes
    # MAX_INCIDENCE_WORK
    for dim_cap, level_cap in ((7, 1), (10 ** 6, 1), (0, 10 ** 9), (1, 99),
                               (0, 19999)):
        with pytest.raises(BudgetExceeded):
            enumerate_s_skeleton(F2, dim_cap, level_cap)
    assert time.monotonic() - t0 < 1
    # level 0 is the basepoint alone, whatever the ambient
    assert enumerate_s_skeleton(F2, 10 ** 6, 0).counts() == [1]


def test_enumeration_runs_only_its_extension_scan(monkeypatch):
    # the subspaces above each subspace are found by one containment scan
    # over all subspaces, n_subs^2 calls in all, and chains of every level
    # are extended from that table; nothing else tests containment, since
    # enumeration, faces and degeneracies build nested chains by construction
    contains = Subspace.contains
    calls = []

    def counted(self, other):
        calls.append(1)
        return contains(self, other)

    monkeypatch.setattr(Subspace, "contains", counted)
    enumerate_s_skeleton(F2, 2, 4)
    n_subs = len(all_subspaces(F2, 2))
    assert len(calls) == n_subs ** 2 == 25


def test_long_thin_skeleton_is_quick():
    import time
    t0 = time.monotonic()
    sk = enumerate_s_skeleton(F2, 1, 40)
    assert time.monotonic() - t0 < 2
    assert sk.counts() == [p + 1 for p in range(41)]


@pytest.mark.parametrize("field,dim_cap,level_cap", [
    (F2, -1, 2), (F2, 2, -2), (QQ, 1, 1)])
def test_enumerate_refuses_bad_caps_and_fields(field, dim_cap, level_cap):
    with pytest.raises(ValueError):
        enumerate_s_skeleton(field, dim_cap, level_cap)


def test_simplicial_identities_on_skeleton():
    sk = enumerate_s_skeleton(F2, 2, 4)
    assert sk.check_simplicial_identities() is None


@pytest.mark.parametrize("field,n,level_cap", [
    (F2, 2, 4), (F2, 3, 3), (F3, 3, 2), (F2, 1, 20)])
def test_face_and_degeneracy_tables_match_the_functors(field, n, level_cap):
    sk = enumerate_s_skeleton(field, n, level_cap)
    assert sk.faces[0] == [()] and len(sk.degeneracies) == level_cap
    for p, level in enumerate(sk.levels):
        for k, obj in enumerate(level):
            assert len(sk.faces[p][k]) == (p + 1 if p else 0)
            for i, f in enumerate(sk.faces[p][k]):
                assert sk.levels[p - 1][f] == s_face(obj, i)
            if p < level_cap:
                assert len(sk.degeneracies[p][k]) == p + 1
                for i, s in enumerate(sk.degeneracies[p][k]):
                    assert sk.levels[p + 1][s] == s_degeneracy(obj, i)


# At (F2, 1, 3) the level-p chain at index m is p - m copies of 0 followed
# by m copies of k = F_2; one planted entry per branch of the check
@pytest.mark.parametrize("table,p,k,i,value,first_failure", [
    # d_0 of (0, 0) planted as (k): d_0 d_2 = d_1 d_0 fails on (0, 0, 0)
    ("faces", 2, 0, 0, 1, (3, 0, 0, 2)),
    # s_0 (0) planted as (0, k): d_0 s_0 = id fails
    ("degeneracies", 1, 0, 0, 1, (1, 0, 0, 0)),
    # s_1 (0) planted as (0, k): d_0 s_1 = s_0 d_0 fails
    ("degeneracies", 1, 0, 1, 1, (1, 0, 0, 1)),
    # s_0 () planted as (k) passes at level 0, where every face is ();
    # d_2 s_0 = s_0 d_1 then fails on (0)
    ("degeneracies", 0, 0, 0, 1, (1, 0, 2, 0)),
])
def test_planted_entry_is_the_first_failure(table, p, k, i, value,
                                            first_failure):
    sk = enumerate_s_skeleton(F2, 1, 3)
    rows = getattr(sk, table)[p]
    rows[k] = rows[k][:i] + (value,) + rows[k][i + 1:]
    assert sk.check_simplicial_identities() == first_failure


def test_quotient_dim_consistency():
    sk = enumerate_s_skeleton(F2, 2, 3)
    for level in sk.levels:
        for obj in level:
            for i in range(obj.level + 1):
                for j in range(i, obj.level + 1):
                    assert obj.entry_dim(i, j) == \
                        obj.sub_at(j).dim - obj.sub_at(i).dim


def test_dim_theory_passes():
    sk = enumerate_s_skeleton(F2, 2, 2)
    rep = verify_dim_theory(sk, DimTheory.universal())
    assert rep.ok and rep.checked == 12


def test_det_theory_passes():
    sk = enumerate_s_skeleton(F2, 2, 3)
    rep = verify_det_theory(sk, DetTheory(F2))
    assert rep.ok and rep.checked == 22


def test_det_theory_passes_f5():
    sk = enumerate_s_skeleton(F5, 2, 3, budget=100000)
    rep = verify_det_theory(sk, DetTheory(F5))
    assert rep.ok


class _ScalarFault:
    """Determinantal theory with the lambda of one concrete sequence
    corrupted.  Corrupting a whole dimension shape would be an honest
    sign-cocycle twist of the theory and pass every diagram, so the fault
    targets exact sequence data."""

    def __init__(self, inner, bad_scalar, target):
        self.inner = inner
        self.field = inner.field
        self.bad = bad_scalar
        self.target = target  # (i entries, j entries)

    def h(self, space):
        return self.inner.h(space)

    def lambda_scalar(self, ses):
        s = self.inner.lambda_scalar(ses)
        if (ses.i.matrix.entries, ses.j.matrix.entries) == self.target:
            return self.field.mul(s, self.bad)
        return s


class _DegreeFault:
    """Graded determinant with the degree of one object parity-flipped."""

    def __init__(self, inner, bad_dim):
        self.inner = inner
        self.field = inner.field
        self.bad_dim = bad_dim

    def h(self, space):
        line = self.inner.h(space)
        if space.dim == self.bad_dim:
            from satokit.detline import GradedLine
            return GradedLine(line.field, line.degree + 1, line.label)
        return line

    def lambda_scalar(self, ses):
        return self.inner.lambda_scalar(ses)


def test_scalar_fault_detected_f5():
    sk = enumerate_s_skeleton(F5, 2, 3, budget=100000)
    # corrupt the lambda of the iso-sequence k = k ->> 0, which occurs an odd
    # number of times in the two-path diagram of some filtration
    witness = build_s_object(F5, 2, [sub(F5, 2, (1, 0)), sub(F5, 2, (1, 0)),
                                     Subspace.full(F5, 2)])
    ses = witness.row_ses(0, 1, 2)
    target = (ses.i.matrix.entries, ses.j.matrix.entries)
    faulty = _ScalarFault(DetTheory(F5), F5.normalize(-1), target)
    rep = verify_det_theory(sk, faulty)
    assert not rep.ok


def test_degree_fault_detected_f2():
    # over F_2 there is no -1, but corrupting the grading (the carrier of
    # the Koszul sign) breaks the degree bookkeeping and is caught
    sk = enumerate_s_skeleton(F2, 2, 3)
    faulty = _DegreeFault(DetTheory(F2), 1)
    rep = verify_det_theory(sk, faulty)
    assert not rep.ok


def test_naturality_under_array_isomorphisms():
    # sampled isomorphisms of arrays: conjugating the sequence by coordinate
    # changes moves lambda by det factors exactly as naturality demands
    chain = [sub(F5, 2, (1, 2)), Subspace.full(F5, 2)]
    plain = build_s_object(F5, 2, chain).row_ses(0, 1, 2)
    c01, c12 = Matrix(F5, [[2]]), Matrix(F5, [[4]])
    c02 = Matrix(F5, [[1, 1], [0, 3]])
    twisted = SES(LinMap.of(c01.mul(plain.i.matrix).mul(c02.inverse())),
                  LinMap.of(c02.mul(plain.j.matrix).mul(c12.inverse())))
    th = DetTheory(F5)
    lam_plain = th.lambda_scalar(plain)
    lam_tw = th.lambda_scalar(twisted)
    det01, det12, det02 = c01.det(), c12.det(), c02.det()
    # h(f_sub) (x) h(f_quot) then lambda' == lambda then h(f_total) where the
    # f's are the coordinate changes: all scalars, so one division
    lhs = F5.mul(F5.mul(F5.inv(det01), F5.inv(det12)), lam_plain)
    rhs = F5.mul(lam_tw, F5.inv(det02))
    assert lhs == rhs


def test_verify_dispatch():
    sk = enumerate_s_skeleton(F2, 2, 3)
    assert verify_dim_theory(sk, DimTheory.universal()).ok
    assert verify_det_theory(sk, DetTheory(F2)).ok
