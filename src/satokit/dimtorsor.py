"""Dimensional theories and their torsors over a Tate space.

A dimensional theory assigns a group element to every finite dimensional
space additively in short exact sequences; over the base category here that
is determined by the image of the one-dimensional class, since K_0 of finite
dimensional vector spaces is Z.  A relative theory on the lattices of a Tate
space is pinned by one anchor value; evaluation moves along the relative
index, which makes equality of theories and the torsor difference decidable.
"""

from __future__ import annotations

from .abgroup import AbelianGroup, GroupElem, GroupHom, ZZ, format_group, \
    parse_group
from .tate import (lift_lattice, project_lattice, relative_index,
                   standard_lattice)


class DimTheory:
    """Additive G-valued function on finite dimensional spaces."""

    __slots__ = ("group", "generator_image")

    def __init__(self, group, generator_image):
        if generator_image.group != group:
            raise ValueError("generator image must lie in the group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "generator_image", generator_image)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def universal(cls):
        """The identity theory with values in Z."""
        return cls(ZZ, ZZ.elem((1,)))

    def of_dim(self, d):
        return self.generator_image.scale(d)

    def __eq__(self, other):
        return (isinstance(other, DimTheory) and self.group == other.group
                and self.generator_image == other.generator_image)

    def __hash__(self):
        return hash((self.group, self.generator_image))

    def __repr__(self):
        return "DimTheory(%s, gen -> %r)" % (format_group(self.group),
                                             self.generator_image)


class RelDimTheory:
    """chi-relative dimensional theory on the lattices of a Tate space,
    stored as an anchor lattice plus its value."""

    __slots__ = ("chi", "space", "base", "base_value")

    def __init__(self, chi, space, base, base_value):
        if base.space != space:
            raise ValueError("anchor lattice is not in the space")
        if base_value.group != chi.group:
            raise ValueError("anchor value is not in the group")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "base_value", base_value)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def standard(cls, chi, space, value=None):
        if value is None:
            value = chi.group.zero()
        return cls(chi, space, standard_lattice(space), value)

    def __repr__(self):
        return "RelDimTheory(%r at %r)" % (self.base_value, self.base)

    def eval(self, lat):
        return eval_reldim(self, lat)

    def re_anchor(self, new_base):
        return RelDimTheory(self.chi, self.space, new_base,
                            self.eval(new_base))

    def translate(self, g):
        """The theory g + d."""
        return RelDimTheory(self.chi, self.space, self.base,
                            self.base_value + g)

    def equals(self, other):
        """Equality as functions on the whole Grassmannian."""
        if self.chi != other.chi or self.space != other.space:
            return False
        return self.eval(other.base) == other.base_value

    __eq__ = equals

    def __hash__(self):
        return hash((self.chi, self.space))


def eval_reldim(d, lat):
    """d(lat) = d(base) + index(lat, base) . chi(generator)."""
    if lat.space != d.space:
        raise ValueError("lattice not in the theory's space")
    idx = relative_index(lat, d.base)
    return d.base_value + d.chi.generator_image.scale(idx)


def torsor_difference(d1, d2):
    """The unique g with d1 = g + d2; checked at two anchor lattices."""
    if d1.chi != d2.chi or d1.space != d2.space:
        raise ValueError("theories are not comparable")
    g = d1.eval(d1.base) - d2.eval(d1.base)
    g2 = d1.eval(d2.base) - d2.eval(d2.base)
    if g != g2:
        raise AssertionError("difference depends on the lattice")
    return g


def mu_combine(ses, d1, d2, check_samples=True):
    """Combine theories along  X' >--> X -->> X'':

        d(U) = d1(U n X') + d2(U / (U n X'))

    evaluated through lattice lift and projection and returned re-anchored at
    the standard lattice of the middle space.  A small sample of nested pairs
    is verified against the additivity law before returning.
    """
    if d1.chi != d2.chi:
        raise ValueError("theories have different coefficient data")
    if d1.space != ses.sub_space or d2.space != ses.quot_space:
        raise ValueError("theories do not match the sequence ends")
    chi = d1.chi
    space = ses.total_space

    def formula(u):
        return (d1.eval(lift_lattice(ses, u))
                + d2.eval(project_lattice(ses, u)))

    base = standard_lattice(space)
    combined = RelDimTheory(chi, space, base, formula(base))
    if check_samples:
        g = chi.generator_image
        for shift in (-1, 1):
            u = standard_lattice(space, shift)
            v = standard_lattice(space, min(shift, 0) - 1)
            fu, fv = formula(u), formula(v)
            if fv - fu != g.scale(relative_index(v, u)):
                raise AssertionError("combined values break additivity; "
                                     "lift/project is inconsistent")
            if combined.eval(u) != fu or combined.eval(v) != fv:
                raise AssertionError("anchored form disagrees with the "
                                     "combining formula")
    return combined


def pushout_along(hom, d):
    """Push a relative theory forward along a group homomorphism."""
    if hom.source != d.chi.group:
        raise ValueError("homomorphism source does not match the theory")
    chi = DimTheory(hom.target, hom(d.chi.generator_image))
    return RelDimTheory(chi, d.space, d.base, hom(d.base_value))
