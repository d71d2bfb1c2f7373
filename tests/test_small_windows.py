"""Every rank-2 lattice of a small window, and the lattice laws on every
ordered pair of them.

The lattices between t^L O^2 and O^2 are the t-stable subspaces of the
window O^2 / t^L O^2, in the coordinates t^e u_i at column 2e + i: the
members of all_subspaces(field, 2L) that hold each basis row shifted up one
level.  The enumeration uses exactlin alone.  Each lattice is placed at
lo = 0 and at lo = 1, and the laws are checked against its subspace of the
window [0, L + 1), built here from the enumerated rows and not by tate.
"""

import functools

import pytest

from satokit.exactlin import Field, Subspace, all_subspaces
from satokit.fileio import format_lattice, parse_lattice
from satokit.tate import (TateSpace, lattice_contains, lattice_join,
                          lattice_meet, lattice_normalize, relative_index)

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
            if lattice_join(a, b) != of_window(wa.join(wb)):
                failures.append(("join", a, b))
            if relative_index(a, b) != ((wa.dim - w_meet.dim)
                                        - (wb.dim - w_meet.dim)):
                failures.append(("index", a, b))
            if lattice_contains(a, b) != (meet == b):
                failures.append(("contains", a, b))
    assert not failures, "%d failing checks, the first %r" % (
        len(failures), failures[:3])
