"""Truncated Waldhausen S-construction over small finite fields.

A level-n object is a rigidified filtration: a weakly increasing chain of n
explicit subspaces of a fixed ambient space, together with the triangular
array of quotients a_ij, each in its canonical basis, and the canonical maps
between them; no basis is chosen, so the chain is all the data.  Enumeration is
on the nose (explicit subspaces, not isomorphism classes), so the face and
degeneracy functors are strict functions of the data: inner faces drop a
subspace, the zeroth face passes to the quotient filtration re-embedded along
its canonical coordinates, and degeneracies repeat a subspace.
"""

from __future__ import annotations

from .exactcat import SES, FdSpace, induced_map
from .exactlin import Quotient, Subspace, all_subspaces


class SObjectError(Exception):
    pass


class SObject:
    """Rigidified admissible filtration of length n in a fixed ambient; its
    quotients a_ij carry their canonical bases, so the chain is all the data.
    The constructor only stores it: build_s_object validates outside data,
    and enumeration, faces and degeneracies nest their chains by
    construction."""

    def __init__(self, field, ambient, chain):
        self.field = field
        self.ambient = ambient
        self.chain = tuple(chain)

    @property
    def level(self):
        return len(self.chain)

    def __eq__(self, other):
        return (isinstance(other, SObject) and self.field == other.field
                and self.ambient == other.ambient
                and self.chain == other.chain)

    def __hash__(self):
        return hash((self.field, self.ambient, self.chain))

    def __repr__(self):
        return "SObject(level %d, dims %s)" % (
            self.level, [s.dim for s in self.chain])

    def sub_at(self, i):
        """V_i with V_0 = 0."""
        if i == 0:
            return Subspace.zero(self.field, self.ambient)
        return self.chain[i - 1]

    def entry_dim(self, i, j):
        return self.sub_at(j).dim - self.sub_at(i).dim

    def entry_space(self, i, j):
        return FdSpace(self.field, self.entry_dim(i, j))

    def array_map(self, ij, kl):
        """The map a_ij -> a_kl for (i, j) <= (k, l) componentwise."""
        (i, j), (k, l) = ij, kl
        if not (i <= k and j <= l):
            raise SObjectError("map requires (i,j) <= (k,l)")
        return induced_map(Quotient(self.sub_at(i), self.sub_at(j)),
                           Quotient(self.sub_at(k), self.sub_at(l)))

    def row_ses(self, i, j, k):
        """a_ij >--> a_ik -->> a_jk for i <= j <= k."""
        return SES(self.array_map((i, j), (i, k)),
                   self.array_map((i, k), (j, k)))

    def validate(self):
        """All SES conditions and composition coherence; raises SObjectError
        with the offending indices."""
        n = self.level
        for i in range(n + 1):
            for j in range(i, n + 1):
                for k in range(j, n + 1):
                    try:
                        self.row_ses(i, j, k)
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
                    direct = self.array_map((i, j), (m, q))
                    through = self.array_map((i, j), (k, l)).then(
                        self.array_map((k, l), (m, q)))
                    if direct != through:
                        raise SObjectError(
                            "coherence fails from (%d,%d) via (%d,%d) to "
                            "(%d,%d)" % (i, j, k, l, m, q))
        return True


def build_s_object(field, ambient, chain):
    """Validated SObject from a chain of subspaces (monos by inclusion) or of
    row lists; validate names the (i, j, k) where the chain fails."""
    subs = []
    for item in chain:
        if isinstance(item, Subspace):
            subs.append(item)
        else:
            subs.append(Subspace.from_rows(field, ambient, item))
    obj = SObject(field, ambient, subs)
    obj.validate()
    return obj


def s_face(obj, i):
    """The i-th face: erase the row and column of the i-th object.

    For i = 0 the result is the quotient filtration by V_1, re-embedded in
    the ambient along the canonical quotient coordinates so the data stays on
    the nose; its array equals the reindexed array of the input.
    """
    n = obj.level
    if n == 0 or not 0 <= i <= n:
        raise SObjectError("face index out of range")
    if i == 0:
        v1 = obj.sub_at(1)
        new_chain = []
        for sub in obj.chain[1:]:
            rows = [_pad(v1.proj_coords(r), obj.ambient) for r in sub.rows]
            new_chain.append(Subspace.from_rows(obj.field, obj.ambient, rows))
        return SObject(obj.field, obj.ambient, new_chain)
    return SObject(obj.field, obj.ambient, obj.chain[:i - 1] + obj.chain[i:])


def _pad(coords, ambient):
    return tuple(coords) + (0,) * (ambient - len(coords))


def s_degeneracy(obj, i):
    """The i-th degeneracy: double the i-th object of the filtration."""
    if not 0 <= i <= obj.level:
        raise SObjectError("degeneracy index out of range")
    return SObject(obj.field, obj.ambient,
                   obj.chain[:i] + (obj.sub_at(i),) + obj.chain[i:])


class BudgetExceeded(Exception):
    pass


# cap on sum_p |S_p| (p + 1)^2, the face and degeneracy entries built and the
# face pairs checked: (F2, 2, 30) is 9.2M, (F2, 1, 99) 25.5M
MAX_INCIDENCE_WORK = 1 << 24


class SSkeleton:
    """Levels 0..N of the S-construction: levels[p] lists the level-p
    objects, faces[p][k] = (d_0, ..., d_p) indexes level p - 1 (faces[0] ==
    [()]) and degeneracies[p][k] = (s_0, ..., s_p) indexes level p + 1, for
    p < N."""

    def __init__(self, field, ambient, levels, faces, degeneracies):
        self.field = field
        self.ambient = ambient
        self.levels = levels
        self.faces = faces
        self.degeneracies = degeneracies

    def counts(self):
        return [len(l) for l in self.levels]

    def check_simplicial_identities(self):
        """All face/face, face/degeneracy identities on the incidence data."""
        faces, degs = self.faces, self.degeneracies
        for p in range(2, len(faces)):
            below = faces[p - 1]
            for idx, fs in enumerate(faces[p]):
                for j in range(p + 1):
                    for i in range(j):
                        if below[fs[j]][i] != below[fs[i]][j - 1]:
                            return (p, idx, i, j)
        for p in range(len(degs)):
            for idx, ss in enumerate(degs[p]):
                for j in range(p + 1):
                    fs = faces[p + 1][ss[j]]
                    for i in range(p + 2):
                        if i == j or i == j + 1:
                            want = idx
                        elif i < j:
                            want = degs[p - 1][faces[p][idx][i]][j - 1]
                        else:
                            want = degs[p - 1][faces[p][idx][i - 1]][j]
                        if fs[i] != want:
                            return (p, idx, i, j)
        return None


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def s_skeleton_counts(field, dim_cap, level_cap, budget):
    """Objects per level 0..level_cap, in closed form, before any subspace
    is built: level p holds the weak chains V_1 <= ... <= V_p in F_q^n,
    summed over the dimension sequences d_1 <= ... <= d_p <= n of
    [n; d_p]_q [d_p; d_(p-1)]_q ... [d_2; d_1]_q.  Raises BudgetExceeded
    as soon as the total passes the budget or the incidence work
    sum_p |S_p| (p + 1)^2 passes MAX_INCIDENCE_WORK."""
    if dim_cap < 0 or level_cap < 0:
        raise ValueError("dim-cap and level-cap must be >= 0")
    if budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    if field.p is None:
        raise ValueError("the S-construction enumerates over F_p only")
    if level_cap == 0:
        return [1]
    # chains[d][p]: weak chains of length p in F_q^d.  The skeleton of F_q^d
    # embeds in that of F_q^(d+1), so the totals grow with d, and a total
    # past the budget or the cap below n refuses n too
    chains = []
    for d in range(dim_cap + 1):
        gb = [_gaussian_binomial(d, e, field.p) for e in range(d)]
        row, total, work = [1], 1, 1
        for p in range(1, level_cap + 1):
            row.append(row[-1] + sum(g * chains[e][p - 1]
                                     for e, g in enumerate(gb)))
            total += row[-1]
            work += row[-1] * (p + 1) ** 2
            if total > budget:
                raise BudgetExceeded(
                    "skeleton would hold at least %d objects (budget %d)"
                    % (total, budget))
            if work > MAX_INCIDENCE_WORK:
                raise BudgetExceeded(
                    "skeleton would take at least %d incidence steps (cap %d)"
                    % (work, MAX_INCIDENCE_WORK))
        chains.append(row)
    return chains[dim_cap]


def enumerate_s_skeleton(field, dim_cap, level_cap, budget=20000):
    """Complete lists of on-the-nose filtration objects up to the caps.

    Counts come first, in closed form (s_skeleton_counts): BudgetExceeded is
    raised before any subspace is built when they pass the budget or their
    incidence work passes MAX_INCIDENCE_WORK.  An object is its chain of
    indices into all_subspaces(field, dim_cap), whose member 0 is the zero
    subspace; containment is tested once per pair of subspaces.  Face i >= 1
    deletes entry i - 1 and s_i repeats it (s_0 inserts 0); face 0 maps each
    later entry V to V / V_1, by s_face once per pair.
    """
    s_skeleton_counts(field, dim_cap, level_cap, budget)
    subs = all_subspaces(field, dim_cap) if level_cap else []
    position = {s: k for k, s in enumerate(subs)}
    # above[a]: the subspaces containing subs[a]; level 1 reads above[0]
    above, quotient = [range(len(subs))], {}
    if level_cap > 1:
        above = [[b for b, v in enumerate(subs) if v.contains(w)]
                 for w in subs]
        for a, bs in enumerate(above):
            for b in bs:
                pair = SObject(field, dim_cap, (subs[a], subs[b]))
                quotient[a, b] = position[s_face(pair, 0).chain[0]]
    chains = [[()]]
    for p in range(1, level_cap + 1):
        chains.append([c + (b,) for c in chains[p - 1]
                       for b in above[c[-1] if c else 0]])
    index = [{c: k for k, c in enumerate(level)} for level in chains]
    faces, degeneracies = [[()]], []
    for p in range(1, level_cap + 1):
        below, here = index[p - 1], index[p]
        faces.append([(below[tuple(quotient[c[0], v] for v in c[1:])],)
                      + tuple(below[c[:i] + c[i + 1:]] for i in range(p))
                      for c in chains[p]])
        degeneracies.append([tuple(here[c[:i] + (c[i - 1] if i else 0,)
                                        + c[i:]] for i in range(p))
                             for c in chains[p - 1]])
    levels = [[SObject(field, dim_cap, [subs[b] for b in c]) for c in level]
              for level in chains]
    return SSkeleton(field, dim_cap, levels, faces, degeneracies)


class TheoryReport:
    def __init__(self, checked, violations):
        self.checked = checked
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return "TheoryReport(%d checked, %d violations)" % (
            self.checked, len(self.violations))


def verify_dim_theory(skeleton, chi):
    """chi additivity on every level-2 object (the 0-multiplicative torsor
    condition for dimension theories)."""
    if len(skeleton.levels) < 3:
        raise ValueError("skeleton must reach level 2")
    checked = 0
    violations = []
    for obj in skeleton.levels[2]:
        left = chi.of_dim(obj.entry_dim(0, 1)) + chi.of_dim(
            obj.entry_dim(1, 2))
        right = chi.of_dim(obj.entry_dim(0, 2))
        checked += 1
        if left != right:
            violations.append(obj)
    return TheoryReport(checked, violations)


def verify_det_theory(skeleton, theory):
    """Two-path lambda equality (and degree bookkeeping) on every level-3
    object: the 1-multiplicative torsor condition for determinantal
    theories."""
    if len(skeleton.levels) < 4:
        raise ValueError("skeleton must reach level 3")
    f = skeleton.field
    checked = 0
    violations = []
    for obj in skeleton.levels[3]:
        try:
            lam_12 = theory.lambda_scalar(obj.row_ses(0, 1, 2))
            lam_123 = theory.lambda_scalar(obj.row_ses(0, 2, 3))
            lam_23 = theory.lambda_scalar(obj.row_ses(1, 2, 3))
            lam_13 = theory.lambda_scalar(obj.row_ses(0, 1, 3))
            # degree bookkeeping of each lambda source/target
            for (i, j, k) in [(0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 1, 3)]:
                da = theory.h(obj.entry_space(i, j)).degree
                db = theory.h(obj.entry_space(j, k)).degree
                dt = theory.h(obj.entry_space(i, k)).degree
                if da + db != dt:
                    raise AssertionError("degree bookkeeping fails")
            if f.mul(lam_12, lam_123) != f.mul(lam_23, lam_13):
                raise AssertionError("two-path scalar mismatch")
        except AssertionError as exc:
            violations.append((obj, str(exc)))
        checked += 1
    return TheoryReport(checked, violations)

