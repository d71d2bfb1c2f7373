"""Seeded inputs of the four workloads.

Round r of a run with seed s draws from random.Random("<workload>:<s>:<r>"),
so the same seed gives the same inputs, byte for byte, whatever the run
length.  Every round of a workload has the same make-up; only the random
content differs.  fdcat_round and lift_project_round return plain data;
lattice_files and cohomology_files also write the files the command line
reads.

Regenerate the input files of one round without running anything:

    python3 perfbench/inputs.py --workload lattice-windows --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random

from oracles import bits, f2_mul, f2_rank

# fdcat-f2: f = mono then epi, F2^A -> F2^B -> F2^C; grids in ambient F2^B;
# one operation is FD_FACTS factorizations and FD_GRIDS grids
FD_A, FD_B, FD_C = 6, 8, 6
FD_TWISTS = 4
FD_GRID_DIMS = (3, 5)
FD_FACTS, FD_GRIDS = 4, 2
FD_OPS = 40

# lift-project: one verify call of LP_TRIALS trials per operation
LP_TRIALS = 8
LP_OPS = 40

# lattice-windows: F5, rank 2, windows LAT_LEVELS levels wide, the deeper one
# LAT_GAP +- LAT_GAP_SPREAD levels below the other; plus one pair BIG_GAP
# levels apart on which index runs alone
LAT_P, LAT_RANK, LAT_LEVELS = 5, 2, 4
LAT_GAP, LAT_GAP_SPREAD = 70, 4
BIG_GAP = 1000
LAT_OPS = 40

# cohomology: grid surfaces, each operation four cohomology calls on one file
SURFACES = ("torus", "klein", "rp2")
GRID = 3
COH_CALLS = ((1, "Z"), (2, "Z"), (1, "Z/6"), (2, "Z/6"))
COH_OPS = 12


def round_rng(workload, seed, round_no):
    return random.Random("%s:%d:%d" % (workload, seed, round_no))


# --- fdcat-f2 ----------------------------------------------------------------

def _rand_f2_rows(rng, nrows, ncols, rank):
    """Uniform random nrows x ncols F2 matrix of the given row rank."""
    while True:
        rows = [[rng.randrange(2) for _ in range(ncols)]
                for _ in range(nrows)]
        if f2_rank([bits(r) for r in rows]) == rank:
            return rows


def _factorization(rng):
    mono = _rand_f2_rows(rng, FD_A, FD_B, FD_A)
    epi = _rand_f2_rows(rng, FD_B, FD_C, FD_C)
    # the rank of f decides the size of the twists; the oracle computes it
    r = f2_rank(f2_mul([bits(x) for x in mono], [bits(x) for x in epi]))
    twists = [_rand_f2_rows(rng, r, r, r) for _ in range(FD_TWISTS)]
    return {"mono": mono, "epi": epi, "rank": r, "twists": twists}


def _grid(rng):
    return tuple(_rand_f2_rows(rng, d, FD_B, d) for d in FD_GRID_DIMS)


def fdcat_round(rng):
    return [{"facts": [_factorization(rng) for _ in range(FD_FACTS)],
             "grids": [_grid(rng) for _ in range(FD_GRIDS)]}
            for _ in range(FD_OPS)]


# --- lift-project ------------------------------------------------------------

def lift_project_round(rng):
    return [{"seed": rng.randrange(1 << 30), "trials": LP_TRIALS}
            for _ in range(LP_OPS)]


# --- lattice-windows ---------------------------------------------------------

def rand_lattice(rng, lo):
    width = LAT_LEVELS * LAT_RANK
    nrows = rng.randint(width // 2, width)
    rows = [[rng.randrange(LAT_P) for _ in range(width)]
            for _ in range(nrows)]
    return (LAT_RANK, lo, lo + LAT_LEVELS, rows)


def format_lat(lat):
    n, lo, hi, rows = lat
    out = ["tate rank=%d field=F%d" % (n, LAT_P),
           "bounds lo=%d hi=%d" % (lo, hi)]
    out += [",".join(str(x) for x in r) for r in rows]
    return "\n".join(out) + "\n"


def lattice_files(rng, out):
    """LAT_OPS pairs for index+meet+join, then one far pair, written as .lat
    files under out; returns one record per pair."""
    pairs = []
    for _ in range(LAT_OPS):
        lo = rng.randint(-8, 8)
        gap = LAT_GAP + rng.randint(-LAT_GAP_SPREAD, LAT_GAP_SPREAD)
        pairs.append((rand_lattice(rng, lo), rand_lattice(rng, lo + gap)))
    lo = rng.randint(-8, 8)
    pairs.append((rand_lattice(rng, lo), rand_lattice(rng, lo + BIG_GAP)))
    os.makedirs(out, exist_ok=True)
    recs = []
    for k, pair in enumerate(pairs):
        paths = []
        for side, lat in zip("ab", pair):
            paths.append(os.path.join(out, "pair%03d-%s.lat" % (k, side)))
            with open(paths[-1], "w") as fh:
                fh.write(format_lat(lat))
        recs.append({"lats": pair, "paths": paths})
    return recs


# --- cohomology --------------------------------------------------------------

def _canon(kind, x, y):
    """Class of the grid point (x, y) of the GRID x GRID square."""
    m = n = GRID
    if kind == "torus":
        return (x % m, y % n)
    if kind == "klein":
        if y == n:
            x, y = (m - x) % m, 0
        return (x % m, y)
    # rp2: antipodal points of the boundary are identified
    if x in (0, m) or y in (0, n):
        return min((x, y), (m - x, n - y))
    return (x, y)


def surface_triangles(kind):
    """Triangles of the grid square as triples of point classes.  The rp2
    diagonals flip at the middle column, because a point-symmetric pattern
    would give the two corner squares the same diagonal."""
    tris = []
    for x in range(GRID):
        for y in range(GRID):
            c = [_canon(kind, x + dx, y + dy) for dx, dy in
                 ((0, 0), (1, 0), (0, 1), (1, 1))]
            if kind == "rp2" and 2 * x < GRID - 1:
                tris += [(c[0], c[1], c[2]), (c[1], c[2], c[3])]
            else:
                tris += [(c[0], c[1], c[3]), (c[0], c[2], c[3])]
    return tris


def surface_sset(kind, rng):
    """A .sset text of the grid surface with seeded vertex order, ids and
    line order.  Simplices are ordered by the vertex order, so faces satisfy
    the simplicial identities by construction."""
    tris = surface_triangles(kind)
    verts = sorted({v for t in tris for v in t})
    rng.shuffle(verts)
    rank = {v: k for k, v in enumerate(verts)}
    tris = [tuple(sorted(t, key=rank.get)) for t in tris]
    edges = sorted({(t[i], t[j]) for t in tris for i, j in
                    ((0, 1), (0, 2), (1, 2))}, key=lambda e: (rank[e[0]],
                                                            rank[e[1]]))
    chi = len(verts) - len(edges) + len(tris)
    want = {"torus": 0, "klein": 0, "rp2": 1}[kind]
    if len({frozenset(t) for t in tris}) != len(tris) or chi != want or \
            any(len(set(t)) != 3 for t in tris):
        raise AssertionError("grid %s is not a valid triangulation" % kind)
    vid = {v: "v%d" % k for k, v in enumerate(rng.sample(verts, len(verts)))}
    eid = {e: "e%d" % k for k, e in enumerate(rng.sample(edges, len(edges)))}
    lines = ["simplex 0 %s" % vid[v] for v in verts]
    elines = ["simplex 1 %s faces %s %s" % (eid[e], vid[e[1]], vid[e[0]])
              for e in edges]
    tlines = ["simplex 2 f%d faces %s %s %s"
              % (k, eid[(b, c)], eid[(a, c)], eid[(a, b)])
              for k, (a, b, c) in enumerate(tris)]
    rng.shuffle(elines)
    rng.shuffle(tlines)
    return "\n".join(lines + elines + tlines) + "\n"


def cohomology_files(rng, out):
    """COH_OPS surfaces, cycling through SURFACES, written as .sset files
    under out; returns one record per file."""
    os.makedirs(out, exist_ok=True)
    ops = []
    for k in range(COH_OPS):
        kind = SURFACES[k % len(SURFACES)]
        path = os.path.join(out, "surface%03d-%s.sset" % (k, kind))
        with open(path, "w") as fh:
            fh.write(surface_sset(kind, rng))
        ops.append({"kind": kind, "path": path})
    return ops


FILES = {"lattice-windows": lattice_files, "cohomology": cohomology_files}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(FILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    FILES[args.workload](round_rng(args.workload, args.seed, args.round),
                         args.out)


if __name__ == "__main__":
    main()
