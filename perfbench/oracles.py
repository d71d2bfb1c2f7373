"""The benchmark's own reference arithmetic.

Nothing here imports satokit: every output of the program is checked against
computations made apart from it.

* F2 matrices as int bit rows (bit j of a row is column j): product and rank.
* Prime-field rank and span membership by plain Gaussian elimination.
* Lattices of k((t))^n given as (n, lo, hi, rows): the lattice spanned by the
  rows over the window t^lo O^n / t^hi O^n plus t^hi O^n.  The index formula
  index(a, b) = r_a - r_b + n * (hi_b - hi_a), with r the rank of the rows,
  holds for every such presentation, normalised or not.
* Cohomology of the three grid surfaces, derived from their integral homology
  by universal coefficients.
"""

from __future__ import annotations

from math import gcd


# --- F2 bit rows -------------------------------------------------------------

def bits(row):
    """A 0/1 list as an int bit row."""
    m = 0
    for j, x in enumerate(row):
        if x & 1:
            m |= 1 << j
    return m


def f2_mul(a, b):
    """Product of bit-row matrices a (r x n) and b (n x c)."""
    out = []
    for row in a:
        acc = 0
        j = 0
        while row:
            if row & 1:
                acc ^= b[j]
            row >>= 1
            j += 1
        out.append(acc)
    return out


def f2_rank(rows):
    basis = {}  # lowest set bit -> row
    for m in rows:
        while m:
            low = m & -m
            if low not in basis:
                basis[low] = m
                break
            m ^= basis[low]
    return len(basis)


# --- prime fields ------------------------------------------------------------

def rank_mod(rows, p):
    """Rank over F_p of a list of equal-length integer rows."""
    work = [[x % p for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        src = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        piv = work[rank]
        inv = pow(piv[col], p - 2, p)
        piv = work[rank] = [x * inv % p for x in piv]
        for r in range(rank + 1, len(work)):
            c = work[r][col]
            if c:
                work[r] = [(x - c * y) % p for x, y in zip(work[r], piv)]
        rank += 1
        if rank == len(work):
            break
    return rank


# --- lattices ----------------------------------------------------------------

def parse_lat(text):
    """(n, p, lo, hi, rows) of a .lat file, read without satokit."""
    lines = [l.strip() for l in text.splitlines()
             if l.strip() and not l.strip().startswith("#")]
    head = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    bounds = dict(kv.split("=", 1) for kv in lines[1].split()[1:])
    n = int(head["rank"])
    p = int(head["field"][1:])
    lo, hi = int(bounds["lo"]), int(bounds["hi"])
    rows = [[int(x) % p for x in l.split(",")] for l in lines[2:]]
    if any(len(r) != (hi - lo) * n for r in rows):
        raise ValueError("row length does not match the window")
    return n, p, lo, hi, rows


def lat_index(a, b, p):
    """index(a, b) = r_a - r_b + n * (hi_b - hi_a) for (n, lo, hi, rows)."""
    n = a[0]
    return rank_mod(a[3], p) - rank_mod(b[3], p) + n * (b[2] - a[2])


def lat_dim(x, HI, p):
    """dim of x / t^HI O^n, for HI at or above the top of x's window."""
    n, lo, hi, rows = x
    if HI < hi:
        raise ValueError("window top below the lattice window")
    return rank_mod(rows, p) + n * (HI - hi)


def lat_contains(big, small, p):
    """small <= big, decided in the window [min lo, big.hi): everything at or
    above big.hi lies in big, so only the part of small below it matters."""
    n, blo, bhi, brows = big
    _, slo, shi, srows = small
    L0 = min(blo, slo)
    width = (bhi - L0) * n
    if width <= 0:
        return True

    def embed(row, lo):
        out = [0] * width
        off = (lo - L0) * n
        for k, x in enumerate(row):
            if off + k < width:
                out[off + k] = x
        return out

    span = [embed(r, blo) for r in brows]
    extra = [embed(r, slo) for r in srows]
    for level in range(max(shi, L0), bhi):
        for i in range(n):
            e = [0] * width
            e[(level - L0) * n + i] = 1
            extra.append(e)
    if not extra:
        return True
    return rank_mod(span + extra, p) == rank_mod(span, p)


# --- cohomology of surfaces --------------------------------------------------

# integral homology H_0, H_1, H_2 as cyclic orders (0 = Z)
SURFACE_HOMOLOGY = {
    "torus": ((0,), (0, 0), (0,)),
    "klein": ((0,), (0, 2), ()),
    "rp2": ((0,), (2,), ()),
}


def _hom(a, g):
    if a == 0:
        return g
    return 1 if g == 0 else gcd(a, g)


def _ext(a, g):
    if a == 0:
        return 1
    return a if g == 0 else gcd(a, g)


def invariant_factors(cyclic):
    """Canonical presentation of a sum of cyclic groups (0 = Z, 1 = trivial):
    torsion invariant factors in divisibility order, then the free part."""
    free = sum(1 for d in cyclic if d == 0)
    powers = {}
    for d in cyclic:
        q = 2
        while d > 1:
            e = 1
            while d % q == 0:
                d //= q
                e *= q
            if e > 1:
                powers.setdefault(q, []).append(e)
            q += 1
    k = max((len(v) for v in powers.values()), default=0)
    factors = []
    for i in range(k):
        f = 1
        for v in powers.values():
            v = sorted(v, reverse=True)
            if i < len(v):
                f *= v[i]
        factors.append(f)
    return tuple(sorted(factors)) + (0,) * free


def format_factors(factors):
    if not factors:
        return "0"
    return "+".join("Z" if d == 0 else "Z/%d" % d for d in factors)


def surface_cohomology(kind, degree, coeff):
    """H^degree(surface; Z/coeff), coeff 0 meaning Z, by universal
    coefficients: Hom(H_n, G) + Ext(H_(n-1), G)."""
    hom = SURFACE_HOMOLOGY[kind]
    parts = [_hom(a, coeff) for a in hom[degree]]
    if degree > 0:
        parts += [_ext(a, coeff) for a in hom[degree - 1]]
    return format_factors(invariant_factors([d for d in parts if d != 1]))
