"""The four workloads: how one operation runs and how its output is checked.

Each workload has
  prepare(rng, workdir) -> list of operations (plain data, files written),
  run(op)               -> the program's output (this is what is timed),
  check(op, out)        -> None when the output is right, else a message.
Checks use only oracles.py and the inputs, never the program's own results
for anything but the output under test.
"""

from __future__ import annotations

import contextlib
import io
import json
from random import Random

import inputs
import oracles
from satokit import cli, exactcat, tate, verify
from satokit.exactlin import F2, F5, Subspace


def _cli_json(argv):
    """satokit --json <argv> in process: (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json"] + argv)
    return code, json.loads(buf.getvalue())


# --- fdcat-f2 ----------------------------------------------------------------

class FdcatF2:
    name = "fdcat-f2"

    @staticmethod
    def prepare(rng, workdir):
        return inputs.fdcat_round(rng)

    @staticmethod
    def run(op):
        sp = {d: exactcat.FdSpace(F2, d)
              for d in (inputs.FD_A, inputs.FD_B, inputs.FD_C)}
        facts = []
        for fac in op["facts"]:
            mono = exactcat.LinMap(sp[inputs.FD_A], sp[inputs.FD_B],
                                   fac["mono"])
            epi = exactcat.LinMap(sp[inputs.FD_B], sp[inputs.FD_C],
                                  fac["epi"])
            e, m = exactcat.epi_mono_factorize(mono.then(epi), mono, epi)
            connectors = []
            for tw in fac["twists"]:
                tmap = exactcat.LinMap(e.target, e.target, tw)
                e2, m2 = e.then(tmap), tmap.inverse().then(m)
                connectors.append(exactcat.factorization_connector((e, m),
                                                                   (e2, m2)))
            facts.append((e, m, connectors))
        grids = []
        for u1, u2 in op["grids"]:
            g = exactcat.complete_grid_3x3(
                exactcat.inclusion_map(Subspace.from_rows(F2, inputs.FD_B,
                                                          u1)),
                exactcat.inclusion_map(Subspace.from_rows(F2, inputs.FD_B,
                                                          u2)))
            h0, h1 = g.row_maps[1][0], g.row_maps[2][0]
            v0, v1 = g.col_maps[0][1], g.col_maps[1][1]
            grids.append((g, exactcat.is_cartesian_square(h0, v0, h1, v1),
                          exactcat.is_cocartesian_square(h0, v0, h1, v1)))
        return facts, grids

    @staticmethod
    def check(op, out):
        def brows(linmap):
            return [oracles.bits(r) for r in linmap.matrix.entries]

        facts, grids = out
        for fac, (e, m, connectors) in zip(op["facts"], facts):
            f = oracles.f2_mul([oracles.bits(r) for r in fac["mono"]],
                               [oracles.bits(r) for r in fac["epi"]])
            if oracles.f2_mul(brows(e), brows(m)) != f:
                return "e.m != f"
            r = fac["rank"]
            if e.target.dim != r or oracles.f2_rank(brows(m)) != r:
                return "middle dimension is not rank f"
            for tw, u in zip(fac["twists"], connectors):
                if u is None or [list(x) for x in u.matrix.entries] != tw:
                    return "connector is not the twist"
        for (u1, u2), (g, cartesian, cocartesian) in zip(op["grids"], grids):
            dim = {k: s.dim for k, s in g.spaces.items()}
            keys = g.ROW_KEYS
            for line in list(keys) + [tuple(k[c] for k in keys)
                                      for c in range(3)]:
                if dim[line[0]] + dim[line[2]] != dim[line[1]]:
                    return "grid line %s does not add up" % (line,)
            b1 = [oracles.bits(x) for x in u1]
            b2 = [oracles.bits(x) for x in u2]
            meet = len(b1) + len(b2) - oracles.f2_rank(b1 + b2)
            if (dim["tl"], dim["tm"], dim["ml"], dim["mm"]) != \
                    (meet, len(b1), len(b2), inputs.FD_B):
                return "grid corner dimensions are wrong"
            # the lower-left square is cartesian iff cocartesian iff u1 <= u2
            nested = oracles.f2_rank(b1 + b2) == len(b2)
            if not cartesian == cocartesian == nested:
                return "cartesian/cocartesian verdicts are wrong"
        return None


# --- lift-project ------------------------------------------------------------

def _lat_tuple(lat):
    return (lat.space.rank, lat.lo, lat.hi, [list(r) for r in lat.rows])


class LiftProject:
    name = "lift-project"

    @staticmethod
    def prepare(rng, workdir):
        return inputs.lift_project_round(rng)

    @staticmethod
    def run(op):
        return verify.suite_lift_project(seed=op["seed"], trials=op["trials"])

    @staticmethod
    def check(op, out):
        if not out.passed or out.checked != 2 * op["trials"]:
            return "suite reported %r" % (out,)
        # replay trial 0 (over F5) and check exactness of the index along
        # the sequence by the formula, on the lattices lift/project return
        rng = Random(op["seed"])
        chain = verify.TwistedChain(rng, F5, 1, 2, 3, emax=2)
        u = verify.rand_lattice(rng, chain.total, bound=1)
        u0 = verify.rand_lattice(rng, chain.total, bound=1)
        ses = chain.ses13
        lhs = oracles.lat_index(_lat_tuple(u), _lat_tuple(u0), 5)
        lifted = oracles.lat_index(_lat_tuple(tate.lift_lattice(ses, u)),
                                   _lat_tuple(tate.lift_lattice(ses, u0)), 5)
        projected = oracles.lat_index(
            _lat_tuple(tate.project_lattice(ses, u)),
            _lat_tuple(tate.project_lattice(ses, u0)), 5)
        if lhs != lifted + projected:
            return "index not exact along the sequence"
        return None


# --- lattice-windows ---------------------------------------------------------

class LatticeWindows:
    name = "lattice-windows"

    @staticmethod
    def prepare(rng, workdir):
        recs = inputs.lattice_files(rng, workdir)
        for rec in recs:
            rec["verbs"] = ("index", "meet", "join")
        recs[-1]["verbs"] = ("index",)   # the far pair
        return recs

    @staticmethod
    def run(op):
        return {verb: _cli_json([verb] + op["paths"]) for verb in op["verbs"]}

    @staticmethod
    def check(op, out):
        p = inputs.LAT_P
        a, b = op["lats"]
        if any(code != 0 for code, _ in out.values()):
            return "nonzero exit code"
        if out["index"][1]["index"] != oracles.lat_index(a, b, p):
            return "index disagrees with the formula"
        if "meet" not in out:
            return None
        LO, HI = min(a[1], b[1]), max(a[2], b[2])
        res = {}
        for verb in op["verbs"][1:]:
            n, q, lo, hi, rows = oracles.parse_lat(out[verb][1]["lattice"])
            if (n, q) != (a[0], p) or lo < LO or hi > HI:
                return "%s left the common window" % verb
            res[verb] = (n, lo, hi, rows)
        meet, join = res["meet"], res["join"]
        if not (oracles.lat_contains(a, meet, p)
                and oracles.lat_contains(b, meet, p)):
            return "meet is not contained in both lattices"
        if not (oracles.lat_contains(join, a, p)
                and oracles.lat_contains(join, b, p)):
            return "join does not contain both lattices"
        if oracles.lat_dim(meet, HI, p) + oracles.lat_dim(join, HI, p) \
                != oracles.lat_dim(a, HI, p) + oracles.lat_dim(b, HI, p):
            return "dim(meet) + dim(join) != dim a + dim b"
        return None


# --- cohomology --------------------------------------------------------------

class Cohomology:
    name = "cohomology"

    @staticmethod
    def prepare(rng, workdir):
        return inputs.cohomology_files(rng, workdir)

    @staticmethod
    def run(op):
        return [_cli_json(["cohomology", op["path"], "--degree", str(deg),
                           "--group", group])
                for deg, group in inputs.COH_CALLS]

    @staticmethod
    def check(op, out):
        for (deg, group), (code, rep) in zip(inputs.COH_CALLS, out):
            coeff = 0 if group == "Z" else int(group[2:])
            want = oracles.surface_cohomology(op["kind"], deg, coeff)
            if code != 0 or rep["group"] != want:
                return "H^%d(%s; %s) = %s, expected %s" % (
                    deg, op["kind"], group, rep.get("group"), want)
        return None


WORKLOADS = {w.name: w for w in (FdcatF2, LiftProject, LatticeWindows,
                                 Cohomology)}
