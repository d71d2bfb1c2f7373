"""Command-line front door.

Verbs map one-to-one onto library entry points; output is deterministic
given identical inputs and seed.  Exit code 0 on pass, 1 on verification
failure, 2 on usage or parse errors.  JSON (--json) is the stable machine
interface; the text output is cosmetic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .abgroup import format_group, parse_group
from .exactlin import Field
from .fileio import (ParseError, format_cochain, format_lattice,
                     parse_cochain, parse_lattice, parse_laurent_matrix,
                     parse_simplicial_set)
from .laurent import EchelonTooLarge
from .simptors import (CohomologyResult, ComplexError, DegreeRangeError,
                       GerbeError, GerbeRep, check_mult_torsor,
                       gerbe_to_torsor)
from .tate import (TateSES, TateSESInvalid, WindowTooLarge, lattice_join,
                   lattice_meet, lift_lattice, project_lattice,
                   relative_index)

PASS, FAIL, USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=USAGE):
        self.code = code
        super().__init__(message)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def _load(path, parse, *args):
    """parse(text of path, *args); a malformed file is a usage error that
    names it."""
    try:
        return parse(_read(path), *args)
    except (ParseError, ComplexError) as exc:
        raise CliError("%s: %s" % (path, exc))


def _load_pair(i_path, j_path):
    """The matrices of i.lmx and j.lmx, refused unless i . j is defined."""
    i = _load(i_path, parse_laurent_matrix)
    j = _load(j_path, parse_laurent_matrix)
    if i.field != j.field:
        raise CliError("%s is over %s but %s is over %s"
                       % (i_path, i.field, j_path, j.field))
    if i.ncols != j.nrows:
        raise CliError("middle ranks disagree: %s has %d columns, %s has %d "
                       "rows" % (i_path, i.ncols, j_path, j.nrows))
    return i, j


def _load_ses_and_lattice(args):
    try:
        ses = TateSES(*_load_pair(args.i, args.j))
    except TateSESInvalid as exc:
        raise CliError("sequence invalid: %s" % exc.code, FAIL)
    u = _load(args.lattice, parse_lattice)
    if u.space != ses.total_space:
        raise CliError("%s lives in %s, not in the middle space %s"
                       % (args.lattice, u.space, ses.total_space))
    return ses, u


def _load_lattice_pair(args):
    a = _load(args.a, parse_lattice)
    b = _load(args.b, parse_lattice)
    if a.space != b.space:
        raise CliError("%s lives in %s but %s in %s"
                       % (args.a, a.space, args.b, b.space))
    return a, b


def _emit(args, payload, text_lines, code=PASS):
    try:
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return code


def _drop_stdout():
    """Send what stdout still buffers, and all later output, to the null
    device, once its reader has gone (as in `satokit ... | head`): the null
    device takes over stdout's file descriptor, and the descriptor opened
    for it is closed at once, so no stream is left open."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass  # not a file descriptor, e.g. a replaced sys.stdout
    finally:
        os.close(devnull)


def cmd_index(args):
    a, b = _load_lattice_pair(args)
    idx = relative_index(a, b)
    return _emit(args, {"command": "index", "status": "pass", "index": idx},
                 [str(idx)])


def _emit_lattice(args, name, lat):
    text = format_lattice(lat)
    return _emit(args, {"command": name, "status": "pass", "lattice": text},
                 [text.rstrip()])


def cmd_meet(args):
    return _emit_lattice(args, "meet", lattice_meet(*_load_lattice_pair(args)))


def cmd_join(args):
    return _emit_lattice(args, "join", lattice_join(*_load_lattice_pair(args)))


def cmd_lift(args):
    return _emit_lattice(args, "lift",
                         lift_lattice(*_load_ses_and_lattice(args)))


def cmd_project(args):
    return _emit_lattice(args, "project",
                         project_lattice(*_load_ses_and_lattice(args)))


def cmd_ses_check(args):
    try:
        TateSES(*_load_pair(args.i, args.j))
    except TateSESInvalid as exc:
        _emit(args, {"command": "ses-check", "status": "fail",
                     "diagnosis": exc.code}, ["invalid: %s" % exc.code])
        return FAIL
    return _emit(args, {"command": "ses-check", "status": "pass"},
                 ["valid admissible short exact sequence"])


def cmd_mu_eval(args):
    from .dimtorsor import DimTheory, RelTheory, mu_combine
    ses, u = _load_ses_and_lattice(args)
    group = args.group
    gen = group.elem(_coords(args.generator, group)
                     if args.generator is not None else [1] * group.ngens)
    chi = DimTheory(group, gen)
    d1 = RelTheory.standard(chi, ses.sub_space,
                            group.elem(_coords(args.d1, group)))
    d2 = RelTheory.standard(chi, ses.quot_space,
                            group.elem(_coords(args.d2, group)))
    d = mu_combine(ses, d1, d2)
    val = d.eval(u)
    coords = ",".join(str(x) for x in val.coords)
    return _emit(args, {"command": "mu-eval", "status": "pass",
                        "value": list(val.coords)}, [coords])


def _coords(text, group):
    if text is None:
        return [0] * group.ngens
    try:
        out = [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError("expected integer coordinates, got %r" % text)
    if len(out) != group.ngens:
        raise CliError("expected %d coordinates" % group.ngens)
    return out


def cmd_det_symmetry(args):
    from random import Random
    from . import verify as verify_mod
    from .detline import check_symmetry, graded_det, ungraded_det
    field = args.field
    theory = ungraded_det(field) if args.ungraded else graded_det(field)
    if field.p is None:
        raise CliError("det-symmetry needs a finite field")
    pairs = [(a, b) for a in range(3) for b in range(3)]
    grids = verify_mod.random_grids(Random(args.seed), field, args.trials)
    rep = check_symmetry(theory, pairs, grids)
    failures = [{"kind": i.kind,
                 "data": str(i.data if i.kind == "pair" else "grid"),
                 "got": str(i.got), "expected": str(i.expected)}
                for i in rep.failures()]
    status = "pass" if rep.all_passed and rep.criteria_agree else "fail"
    lines = ["%s: %d instances, %d failures, criteria agree: %s"
             % (status, len(rep.instances), len(failures),
                rep.criteria_agree)]
    for f in failures[:10]:
        lines.append("  %(kind)s %(data)s: %(got)s vs %(expected)s" % f)
    _emit(args, {"command": "det-symmetry", "status": status,
                 "instances": len(rep.instances), "failures": failures,
                 "criteria_agree": rep.criteria_agree}, lines)
    return PASS if status == "pass" else FAIL


def cmd_cohomology(args):
    cx = _load(args.sset, parse_simplicial_set)
    group = args.group
    res = CohomologyResult(cx, args.degree, group)
    pres = format_group(type(group)(res.group_presentation))
    return _emit(args, {"command": "cohomology", "status": "pass",
                        "degree": args.degree,
                        "group": pres}, [pres])


def _classified(res, path, cochain):
    """The class of the cochain read from path; CliError naming path, exit
    1, when it is not a cocycle."""
    try:
        return res.classify(cochain)
    except ValueError as exc:
        raise CliError("%s: %s" % (path, exc), FAIL)


def cmd_classify(args):
    cx = _load(args.sset, parse_simplicial_set)
    alpha = _load(args.cochain, parse_cochain, cx)
    if alpha.degree < 1:
        raise CliError("torsor data must live on simplices of dimension "
                       ">= 1")
    # the torsor of alpha over zero anchors: its class is that of alpha
    res = CohomologyResult(cx, alpha.degree, alpha.group)
    cls = _classified(res, args.cochain, alpha)
    payload = {"command": "classify", "status": "pass",
               "degree": alpha.degree - 1,
               "class": [list(c) for c in cls]}
    lines = ["class in H^%d: %s" % (alpha.degree, cls)]
    if args.other:
        beta = _load(args.other, parse_cochain, cx)
        if (beta.degree, beta.group) != (alpha.degree, alpha.group):
            raise CliError("%s and %s differ in degree or group"
                           % (args.cochain, args.other))
        _classified(res, args.other, beta)
        transporter = res.transporter(alpha, beta)
        if transporter is None:
            payload["isomorphic"] = False
            lines.append("not isomorphic")
            _emit(args, payload, lines)
            return FAIL
        payload["isomorphic"] = True
        payload["transporter"] = format_cochain(transporter)
        lines.append("isomorphic; transporter:")
        lines.append(format_cochain(transporter).rstrip())
    return _emit(args, payload, lines)


def cmd_gerbe_torsor(args):
    cx = _load(args.sset, parse_simplicial_set)
    beta = _load(args.cochain, parse_cochain, cx, 3)
    try:
        gerbe = GerbeRep(cx, beta.group, beta)
    except GerbeError as exc:
        _emit(args, {"command": "gerbe-torsor", "status": "fail",
                     "diagnosis": str(exc)}, ["invalid gerbe: %s" % exc])
        return FAIL
    t = gerbe_to_torsor(gerbe)
    rep = check_mult_torsor(t)
    cls = CohomologyResult(cx, 3, t.group).classify(t.alpha)
    status = "pass" if rep.ok else "fail"
    _emit(args, {"command": "gerbe-torsor", "status": status,
                 "checked": rep.total, "class": [list(c) for c in cls]},
          ["torsor check: %s (%d simplices); class in H^3: %s"
           % (status, rep.total, cls)])
    return PASS if rep.ok else FAIL


def cmd_s_enumerate(args):
    from .swald import BudgetExceeded, enumerate_s_skeleton
    field = args.field
    try:
        sk = enumerate_s_skeleton(field, args.dim_cap, args.level_cap,
                                  budget=args.budget)
    except (BudgetExceeded, ValueError) as exc:
        raise CliError(str(exc))
    bad = sk.check_simplicial_identities()
    status = "pass" if bad is None else "fail"
    counts = sk.counts()
    lines = ["levels: %s" % " ".join(str(c) for c in counts),
             "simplicial identities: %s" % status]
    _emit(args, {"command": "s-enumerate", "status": status,
                 "counts": counts}, lines)
    return PASS if bad is None else FAIL


def cmd_verify(args):
    from . import verify as verify_mod
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    for n in names:
        if n not in verify_mod.SUITES:
            raise CliError("unknown suite %r (have: %s)"
                           % (n, ", ".join(verify_mod.SUITES)))
    if args.suite != "all":
        params = verify_mod.suite_parameters(args.suite)
        for flag in ("seed", "trials"):
            if getattr(args, flag) is not None and flag not in params:
                raise CliError("suite %r takes no --%s" % (args.suite, flag))
    results = [verify_mod.run_suite(n, seed=args.seed, trials=args.trials)
               for n in names]
    ok = all(r.passed for r in results)
    lines = []
    for r in results:
        lines.append("%-16s %s  (%d checked, %.2fs)  %s"
                     % (r.name, "pass" if r.passed else "FAIL",
                        r.checked, r.elapsed, r.detail))
        for f in r.failures[:5]:
            lines.append("    %s" % f)
    payload = {"command": "verify", "status": "pass" if ok else "fail",
               "results": [r.to_dict() for r in results]}
    _emit(args, payload, lines)
    return PASS if ok else FAIL


def _arg_type(parse):
    """An argparse type for which a ValueError of parse is a usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def _trial_count(text):
    """An argparse type for --trials: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise ValueError("must be at least 1, got %d" % n)
    return n


@functools.cache  # parsing leaves the parser as it was
def build_parser():
    p = argparse.ArgumentParser(
        prog="satokit",
        description="Exact lattices in Laurent-series spaces, determinant "
                    "lines, and multiplicative torsors on simplicial sets.")
    p.add_argument("--json", action="store_true",
                   help="emit the stable JSON report")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, fn, doc):
        q = sub.add_parser(name, help=doc)
        # --json is taken after the verb too; SUPPRESS keeps the verb's
        # parser from overwriting a --json given before the verb
        q.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="emit the stable JSON report")
        q.set_defaults(fn=fn)
        return q

    for name, fn, doc in [("index", cmd_index,
                           "relative index of two lattices"),
                          ("meet", cmd_meet, "intersection of two lattices"),
                          ("join", cmd_join, "sum of two lattices")]:
        q = verb(name, fn, doc)
        q.add_argument("a")
        q.add_argument("b")

    for name, fn, doc in [("lift", cmd_lift,
                           "preimage of a lattice along the mono of a SES"),
                          ("project", cmd_project,
                           "image of a lattice along the epi of a SES")]:
        q = verb(name, fn, doc)
        q.add_argument("i", help=".lmx file of the mono")
        q.add_argument("j", help=".lmx file of the epi")
        q.add_argument("lattice", help=".lat file")

    q = verb("ses-check", cmd_ses_check, "validate a Laurent-matrix SES")
    q.add_argument("i")
    q.add_argument("j")

    q = verb("mu-eval", cmd_mu_eval,
             "evaluate the combined dimensional theory")
    q.add_argument("i")
    q.add_argument("j")
    q.add_argument("lattice")
    q.add_argument("--group", type=_arg_type(parse_group), default="Z")
    q.add_argument("--generator", default=None,
                   help="image of the one-dimensional class, comma coords")
    q.add_argument("--d1", default=None, help="anchor value on the sub")
    q.add_argument("--d2", default=None, help="anchor value on the quotient")

    q = verb("det-symmetry", cmd_det_symmetry,
             "pair/grid symmetry criteria for determinants")
    q.add_argument("--field", type=_arg_type(Field.parse), default="F5")
    q.add_argument("--ungraded", action="store_true")
    q.add_argument("--trials", type=_arg_type(_trial_count), default=50)
    q.add_argument("--seed", type=int, default=0)

    q = verb("cohomology", cmd_cohomology, "H^n of a simplicial set")
    q.add_argument("sset")
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--group", type=_arg_type(parse_group), default="Z")

    q = verb("classify", cmd_classify,
             "cohomology class of a multiplicative torsor")
    q.add_argument("sset")
    q.add_argument("cochain", help=".coch file with the alpha values")
    q.add_argument("--other", default=None,
                   help="second .coch: decide isomorphism and transport")

    q = verb("gerbe-torsor", cmd_gerbe_torsor,
             "induced degree-2 torsor of a gerbe")
    q.add_argument("sset")
    q.add_argument("cochain", help=".coch file with the beta values")

    q = verb("s-enumerate", cmd_s_enumerate,
             "enumerate an S-construction skeleton")
    q.add_argument("--field", type=_arg_type(Field.parse), default="F2")
    q.add_argument("--dim-cap", type=int, default=2)
    q.add_argument("--level-cap", type=int, default=4)
    q.add_argument("--budget", type=int, default=20000)

    q = verb("verify", cmd_verify, "run a verification suite")
    q.add_argument("suite", help="suite name or 'all'")
    q.add_argument("--seed", type=int, default=None,
                   help="seed for a suite that takes one (default: its own)")
    q.add_argument("--trials", type=_arg_type(_trial_count), default=None)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (DegreeRangeError, EchelonTooLarge, WindowTooLarge) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
