"""Finitely generated abelian groups as lists of invariant factors.

A factor of 0 is a free Z summand; factors >= 2 are cyclic orders.  Elements
are coordinate tuples reduced mod the factors.
"""

from __future__ import annotations

from .exactlin import Value, _checked_int


class AbelianGroup(Value, key=("factors",)):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple([_checked_int(d, "factor") for d in factors])
        if any(d == 1 or d < 0 for d in factors):
            raise ValueError("factors must be 0 (free) or >= 2")
        object.__setattr__(self, "factors", factors)

    def __repr__(self):
        return "AbelianGroup(%s)" % (format_group(self),)

    @property
    def ngens(self):
        return len(self.factors)

    def reduce(self, coords):
        coords = tuple([_checked_int(x, "coordinate") for x in coords])
        if len(coords) != len(self.factors):
            raise ValueError("coordinate arity mismatch")
        return tuple(x % d if d else x
                     for x, d in zip(coords, self.factors))

    def elem(self, coords):
        return GroupElem(self, coords)

    def zero(self):
        return GroupElem(self, (0,) * len(self.factors))


class GroupElem(Value, key=("group", "coords")):
    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

    def __repr__(self):
        return "GroupElem%s" % (self.coords,)

    def add(self, other):
        self._check(other)
        return GroupElem(self.group,
                         tuple(a + b for a, b in
                               zip(self.coords, other.coords)))

    __add__ = add

    def sub(self, other):
        self._check(other)
        return GroupElem(self.group,
                         tuple(a - b for a, b in
                               zip(self.coords, other.coords)))

    __sub__ = sub

    def neg(self):
        return GroupElem(self.group, tuple(-a for a in self.coords))

    __neg__ = neg

    def scale(self, n):
        return GroupElem(self.group, tuple(n * a for a in self.coords))

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("elements of different groups")


class GroupHom(Value):
    """Homomorphism between presented groups, as an integer matrix on
    generators (rows indexed by source generators)."""

    __slots__ = ("source", "target", "rows")

    def __init__(self, source, target, rows):
        rows = tuple(tuple([_checked_int(x, "entry") for x in r])
                     for r in rows)
        if len(rows) != source.ngens or \
                any(len(r) != target.ngens for r in rows):
            raise ValueError("matrix shape does not match presentations")
        # well-defined iff each source relation d_i e_i = 0 maps to zero
        for d, row in zip(source.factors, rows):
            if d == 0:
                continue
            img = target.reduce(tuple(d * x for x in row))
            if any(x != 0 for x in img):
                raise ValueError("homomorphism does not kill the relation "
                                 "%d" % d)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, group):
        n = group.ngens
        return cls(group, group,
                   [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def apply(self, elem):
        if elem.group != self.source:
            raise ValueError("element not in the source group")
        n = self.target.ngens
        out = [0] * n
        for x, row in zip(elem.coords, self.rows):
            for k in range(n):
                out[k] += x * row[k]
        return GroupElem(self.target, out)

    __call__ = apply


def parse_group(text):
    """Parse 'Z', 'Z/6', 'Z+Z/2', '0'."""
    text = text.strip()
    if text in ("0", ""):
        return AbelianGroup(())
    factors = []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            factors.append(0)
        elif part.startswith("Z/"):
            factors.append(int(part[2:]))
        else:
            raise ValueError("bad group syntax %r" % (part,))
    return AbelianGroup(factors)


def format_group(group):
    if not group.factors:
        return "0"
    return "+".join("Z" if d == 0 else "Z/%d" % d for d in group.factors)


ZZ = AbelianGroup((0,))
