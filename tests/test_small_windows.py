"""Every rank-2 lattice of a small window, the lattice laws on every
ordered pair of them, and the finite sequence of every nested pair.

The lattices between t^L O^2 and O^2 are the t-stable subspaces of the
window O^2 / t^L O^2, in the coordinates t^e u_i at column 2e + i: the
members of all_subspaces(field, 2L) that hold each basis row shifted up one
level.  The enumeration uses exactlin alone.  Each lattice is placed at
lo = 0 and at lo = 1, and the laws are checked against its subspace of the
window [0, L + 1), built here from the enumerated rows and not by tate.
Lift and project of every F2 lattice are checked against the Laurent-row
oracles of test_tate.
"""

import functools

import pytest

from satokit.exactlin import Field, Subspace, all_subspaces
from satokit.fileio import format_lattice, parse_lattice
from satokit.laurent import LaurentMatrix, LaurentPoly
from satokit.tate import (TateSpace, fd_ses_of_pair, lattice_contains,
                          lattice_join, lattice_meet, lattice_normalize,
                          lift_lattice, project_lattice, relative_index,
                          split_tate_ses, twisted_split)

from test_tate import lift_by_laurent_rows, project_by_laurent_rows

N = 2  # the rank


def t_stable_subspaces(field, L):
    """The subspaces of the window O^N / t^L O^N that t maps into
    themselves."""
    z = (field.zero(),) * N
    return [s for s in all_subspaces(field, N * L)
            if all(s.contains_vector(z + r[:-N]) for r in s.rows)]


def placed(field, L, lo, sub):
    """The lattice of sub moved to t^lo, as a subspace of the window
    [0, L + 1): sub's rows padded with the levels below lo and above
    lo + L, and the unit rows of the levels from lo + L up."""
    width = N * (L + 1)
    z, one = field.zero(), field.one()
    rows = [(z,) * (N * lo) + r + (z,) * (N * (1 - lo)) for r in sub.rows]
    rows += [tuple(one if j == c else z for j in range(width))
             for c in range(N * (lo + L), width)]
    return Subspace.from_rows(field, width, rows)


def _f2_lattices():
    """The 37 F2 lattices at L = 3, placed at lo = 0 and at lo = 1."""
    field = Field(2)
    space = TateSpace(field, N)
    return [lattice_normalize(space, lo, lo + 3, s.rows)
            for lo in (0, 1) for s in t_stable_subspaces(field, 3)]


@pytest.mark.parametrize("p, L, count", [(2, 3, 37), (3, 2, 23)])
def test_laws_on_every_pair_of_small_lattices(p, L, count):
    field = Field(p)
    space = TateSpace(field, N)
    subs = t_stable_subspaces(field, L)
    assert len(subs) == count

    @functools.cache  # the pairs meet and join in few distinct subspaces
    def of_window(w):
        return lattice_normalize(space, 0, L + 1, w.rows)

    cases = [(lattice_normalize(space, lo, lo + L, s.rows),
              placed(field, L, lo, s)) for lo in (0, 1) for s in subs]
    failures = []
    for a, wa in cases:
        if parse_lattice(format_lattice(a)) != a:
            failures.append(("round trip", a))
        if of_window(wa) != a:
            failures.append(("window", a))
    for a, wa in cases:
        for b, wb in cases:
            w_meet = wa.meet(wb)
            meet = lattice_meet(a, b)
            if meet != of_window(w_meet):
                failures.append(("meet", a, b))
            join = lattice_join(a, b)
            if join != of_window(wa.join(wb)):
                failures.append(("join", a, b))
            if relative_index(a, b) != ((wa.dim - w_meet.dim)
                                        - (wb.dim - w_meet.dim)):
                failures.append(("index", a, b))
            if lattice_contains(a, b) != (meet == b):
                failures.append(("contains", a, b))
            if relative_index(a, meet) != relative_index(join, b):
                failures.append(("modular", a, b))
    assert not failures, "%d failing checks, the first %r" % (
        len(failures), failures[:3])


def test_fd_ses_of_every_pair_of_small_lattices():
    # every ordered pair of the 74 F2 lattices above, along the split
    # K >-> K^2 ->> K and its twist by A = [[1, t^-1], [0, 1]], which over
    # F2 is its own inverse: a nested pair gives its lifts, projections and
    # the three relative indices, and every other pair is refused
    field = Field(2)
    lats = _f2_lattices()
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    aut = LaurentMatrix(field, [[one, LaurentPoly.t_power(field, -1)],
                                [zero, one]])
    split = split_tate_ses(field, 1, 1)
    nested, refused, failures = 0, 0, []
    for ses in (split, twisted_split(aut, aut, 1)):
        for a in lats:
            for b in lats:
                if not lattice_contains(b, a):
                    try:
                        fd_ses_of_pair(ses, a, b)
                    except ValueError:
                        refused += 1
                    else:
                        failures.append(("not refused", a, b))
                    continue
                nested += 1
                try:
                    fd, pairs = fd_ses_of_pair(ses, a, b)
                except Exception as exc:
                    failures.append(("raised %r" % exc, a, b))
                    continue
                lifts = (lift_lattice(ses, a), lift_lattice(ses, b))
                projs = (project_lattice(ses, a), project_lattice(ses, b))
                if pairs != (lifts, projs):
                    failures.append(("lattices", a, b))
                if (fd.sub.dim, fd.total.dim, fd.quot.dim) != (
                        relative_index(lifts[1], lifts[0]),
                        relative_index(b, a),
                        relative_index(projs[1], projs[0])):
                    failures.append(("dimensions", a, b))
    assert not failures, "%d failing pairs, the first %r" % (
        len(failures), failures[:3])
    assert (nested, refused) == (2532, 8420)


def test_lift_and_project_of_every_small_lattice_match_laurent_rows():
    # the 74 F2 lattices along the split K >-> K^2 ->> K and its twists by
    # [[1, x], [0, 1]] and [[1, 0], [x, 1]] for x = t^-1 and x = 1 + t;
    # over F2 each twist is its own inverse
    field = Field(2)
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    split = split_tate_ses(field, 1, 1)
    sequences = [split]
    for x in (LaurentPoly.t_power(field, -1),
              one.add(LaurentPoly.t_power(field, 1))):
        for rows in ([[one, x], [zero, one]], [[one, zero], [x, one]]):
            aut = LaurentMatrix(field, rows)
            sequences.append(twisted_split(aut, aut, 1))
    lats, failures = _f2_lattices(), []
    for ses in sequences:
        for u in lats:
            if lift_lattice(ses, u) != lift_by_laurent_rows(ses, u):
                failures.append(("lift", ses.i, u))
            if project_lattice(ses, u) != project_by_laurent_rows(ses, u):
                failures.append(("project", ses.i, u))
    assert not failures, "%d failing checks, the first %r" % (
        len(failures), failures[:3])
