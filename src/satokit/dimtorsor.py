"""Dimensional theories and anchored relative theories over a Tate space.

A dimensional theory assigns a group element to every finite dimensional
space additively in short exact sequences; over the base category here that
is determined by the image of the one-dimensional class, since K_0 of finite
dimensional vector spaces is Z.  A relative theory on the lattices of a Tate
space is pinned by one anchor value, which a value rule moves to any other
lattice: a DimTheory chi moves a G-value by chi of the relative index, and
detline.DetRule moves a (degree, scalar) value along the index and the
connecting scalars.  Evaluation, equality, the torsor difference and the
combination along a short exact sequence are written once for both.
"""

from __future__ import annotations

from .abgroup import ZZ, format_group
from .exactlin import Value
from .tate import (lift_lattice, project_lattice, relative_index,
                   standard_lattice)


class DimTheory(Value, key=("group", "generator_image")):
    """Additive G-valued function on finite dimensional spaces."""

    __slots__ = ("group", "generator_image")

    def __init__(self, group, generator_image):
        if generator_image.group != group:
            raise ValueError("generator image must lie in the group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "generator_image", generator_image)

    @classmethod
    def universal(cls):
        """The identity theory with values in Z."""
        return cls(ZZ, ZZ.elem((1,)))

    def of_dim(self, d):
        return self.generator_image.scale(d)

    # the value rule of dimensional relative theories

    def zero(self):
        return self.group.zero()

    def check(self, value):
        if value.group != self.group:
            raise ValueError("anchor value is not in the group")
        return value

    def add(self, a, b):
        return a + b

    def difference(self, a, b):
        return a - b

    def move(self, value, base, lat):
        """d(lat) = d(base) + index(lat, base) . chi(generator)."""
        return value + self.generator_image.scale(relative_index(lat, base))

    def combined(self, ses, d1, d2):
        """The rule of a combination is chi itself."""
        if d2.rule != self:
            raise ValueError("theories have different coefficient data")
        return self

    def check_chain(self, theory, formula, chain):
        for u in chain:
            if theory.eval(u) != formula(u):
                raise AssertionError("anchored form disagrees with the "
                                     "combining formula")

    def __repr__(self):
        return "DimTheory(%s, gen -> %r)" % (format_group(self.group),
                                             self.generator_image)


class RelTheory(Value):
    """Relative theory on the lattices of a Tate space, stored as an anchor
    lattice plus its value; the rule moves the value to any lattice."""

    __slots__ = ("rule", "space", "base", "base_value")

    def __init__(self, rule, space, base, base_value):
        if base.space != space:
            raise ValueError("anchor lattice is not in the space")
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "base_value", rule.check(base_value))

    @classmethod
    def standard(cls, rule, space, value=None):
        if value is None:
            value = rule.zero()
        return cls(rule, space, standard_lattice(space), value)

    def __repr__(self):
        return "RelTheory(%r at %r)" % (self.base_value, self.base)

    def eval(self, lat):
        if lat.space != self.space:
            raise ValueError("lattice not in the theory's space")
        return self.rule.move(self.base_value, self.base, lat)

    def re_anchor(self, new_base):
        return RelTheory(self.rule, self.space, new_base, self.eval(new_base))

    def translate(self, g):
        """The theory g + d."""
        return RelTheory(self.rule, self.space, self.base,
                         self.rule.add(self.base_value, g))

    def __eq__(self, other):
        """Equality as functions on the whole Grassmannian."""
        if not isinstance(other, RelTheory):
            return NotImplemented
        return (self.rule == other.rule and self.space == other.space
                and self.eval(other.base) == other.base_value)

    def __hash__(self):
        return hash((self.rule, self.space))


def torsor_difference(d1, d2):
    """The unique g with d1 = g + d2, checked at both anchor lattices.  For
    determinantal theories g is (degree shift, scalar class or 'empty')."""
    if d1.rule != d2.rule or d1.space != d2.space:
        raise ValueError("theories are not comparable")
    g = d1.rule.difference(d1.base_value, d2.eval(d1.base))
    if g != d1.rule.difference(d1.eval(d2.base), d2.base_value):
        raise AssertionError("difference depends on the lattice")
    return g


def mu_combine(ses, d1, d2, check_samples=True):
    """Combine theories along  X' >--> X -->> X'':

        d(U) = d1(U n X') + d2(U / (U n X'))

    evaluated through lattice lift and projection and returned anchored at
    the standard lattice of the middle space, under the rule that
    d1.rule.combined builds.  On a chain of standard lattices the rule checks
    the result before it is returned.
    """
    if d1.space != ses.sub_space or d2.space != ses.quot_space:
        raise ValueError("theories do not match the sequence ends")
    rule = d1.rule.combined(ses, d1, d2)
    space = ses.total_space

    def formula(u):
        return rule.add(d1.eval(lift_lattice(ses, u)),
                        d2.eval(project_lattice(ses, u)))

    base = standard_lattice(space)
    combined = RelTheory(rule, space, base, formula(base))
    if check_samples:
        rule.check_chain(combined, formula,
                         [standard_lattice(space, s) for s in (1, 0, -1)])
    return combined


def pushout_along(hom, d):
    """Push a dimensional relative theory forward along a group
    homomorphism."""
    if hom.source != d.rule.group:
        raise ValueError("homomorphism source does not match the theory")
    chi = DimTheory(hom.target, hom(d.rule.generator_image))
    return RelTheory(chi, d.space, d.base, hom(d.base_value))
