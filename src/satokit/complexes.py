"""Standard finite simplicial sets used by tests and the CLI examples."""

from __future__ import annotations

from itertools import combinations

from .simptors import validate_simplicial_set


def full_simplex(n):
    """The n-simplex with all faces; ids are vertex words like '013'."""
    data = []
    verts = "".join(str(i) for i in range(n + 1))
    for d in range(n + 1):
        for word in combinations(verts, d + 1):
            sid = "".join(word)
            if d == 0:
                data.append((sid, 0, ()))
            else:
                faces = tuple("".join(word[:i] + word[i + 1:])
                              for i in range(d + 1))
                data.append((sid, d, faces))
    return validate_simplicial_set(data)


def simplex_boundary(n):
    """The boundary of the n-simplex (a model of the (n-1)-sphere)."""
    full = full_simplex(n)
    data = []
    for d in range(n):
        for sid in full.simplices[d]:
            data.append((sid, d, full.faces[sid]))
    return validate_simplicial_set(data)


def circle():
    """A triangle: three vertices and three edges, the fewest that keep the
    circle semisimplicial."""
    # edge e_i runs from v_i to v_(i+1): face 0 is the far vertex
    data = [("v0", 0, ()), ("v1", 0, ()), ("v2", 0, ()),
            ("e0", 1, ("v1", "v0")), ("e1", 1, ("v2", "v1")),
            ("e2", 1, ("v0", "v2"))]
    return validate_simplicial_set(data)


def torus():
    """The one-vertex torus: edges a, b, c and two triangles."""
    data = [
        ("v", 0, ()),
        ("a", 1, ("v", "v")),
        ("b", 1, ("v", "v")),
        ("c", 1, ("v", "v")),
        ("U", 2, ("b", "c", "a")),
        ("L", 2, ("a", "c", "b")),
    ]
    return validate_simplicial_set(data)


def projective_plane():
    """A two-triangle model of the projective plane.

    Edges a, b run from v to w and c is a loop at w; the two triangles share
    the loop as their zeroth face.  Chain-level check: boundaries a - b + c
    and b - a + c give H_1 = Z/2.
    """
    data = [
        ("v", 0, ()),
        ("w", 0, ()),
        ("a", 1, ("w", "v")),
        ("b", 1, ("w", "v")),
        ("c", 1, ("w", "w")),
        ("U", 2, ("c", "b", "a")),
        ("L", 2, ("c", "a", "b")),
    ]
    return validate_simplicial_set(data)


def sphere_3():
    """The boundary of the 4-simplex: a 3-sphere with nontrivial H^3."""
    return simplex_boundary(4)


STANDARD = {
    "triangle": lambda: full_simplex(2),
    "tetrahedron": lambda: full_simplex(3),
    "sphere2": lambda: simplex_boundary(3),
    "sphere3": sphere_3,
    "circle": circle,
    "torus": torus,
    "rp2": projective_plane,
}
