import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from satokit import verify
from satokit.cli import main
from satokit.complexes import full_simplex, projective_plane, sphere_3, torus
from satokit.fileio import (ParseError, format_cochain, format_lattice,
                            format_laurent_matrix, format_simplicial_set,
                            parse_cochain, parse_lattice,
                            parse_laurent_matrix, parse_simplicial_set)
from satokit.abgroup import AbelianGroup, ZZ, parse_group
from satokit.exactlin import F2, F5
from satokit.laurent import LaurentMatrix, LaurentPoly
from satokit.simptors import (Cochain, CohomologyResult, ComplexError,
                              validate_simplicial_set)
from satokit.tate import TateSpace, lattice_normalize, standard_lattice


def test_lattice_roundtrip():
    space = TateSpace(F5, 2)
    lat = lattice_normalize(space, -1, 1, [[1, 2, 0, 0], [0, 0, 3, 1]])
    text = format_lattice(lat)
    assert parse_lattice(text) == lat


@pytest.mark.parametrize("field, row, col, token", [
    ("F5", "x, 1, 2, 3", 1, "x"),
    ("F5", " 1 ,2, 3.0 ,3", 3, "3.0"),
    ("F5", "1,1/2,3,4", 2, "1/2"),
    ("F5", "1,2,3, 4 5", 4, "4 5"),
    ("F5", "1,2,3,", 4, ""),
    ("Q", "x,1,2,3", 1, "x"),
    ("Q", "1/2, 3, 1/0 ,4", 3, "1/0"),
    ("Q", "1,2,3,1/", 4, "1/"),
])
def test_lattice_bad_token_names_its_line_and_column(tmp_path, capsys, field,
                                                     row, col, token):
    # the first, a middle and the last column of a row, blanks stripped
    text = ("# a lattice\ntate rank=2 field=%s\n\nbounds lo=0 hi=2\n"
            "1,0,0,0\n%s\n" % (field, row))
    with pytest.raises(ParseError) as exc:
        parse_lattice(text)
    assert (exc.value.line, exc.value.col) == (6, col)
    f = _write(tmp_path, "bad.lat", text)
    assert main(["index", f, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: %s: bad scalar %r at line 6, column %d\n"
                            % (f, token, col))


def test_lattice_roundtrip_rationals():
    space = TateSpace(F5, 1)
    text = "tate rank=1 field=Q\nbounds lo=-1 hi=1\n1/2,3\n"
    lat = parse_lattice(text)
    assert lat.field.is_rational
    assert parse_lattice(format_lattice(lat)) == lat


def test_lattice_parse_error_location():
    text = "tate rank=1 field=F5\nbounds lo=0 hi=1\n1,zz\n"
    with pytest.raises(ParseError) as exc:
        parse_lattice(text)
    assert exc.value.line == 3


def test_lmx_roundtrip():
    t = LaurentPoly(F5, [(-2, 3), (1, 1)])
    m = LaurentMatrix(F5, [[t, LaurentPoly.zero(F5)],
                           [LaurentPoly.one(F5), t.mul(t)]])
    text = format_laurent_matrix(m)
    assert parse_laurent_matrix(text) == m


def test_lmx_malformed_exponent():
    text = "lmx rows=1 cols=1 field=F5\n3*t^x\n"
    with pytest.raises(ParseError) as exc:
        parse_laurent_matrix(text)
    assert exc.value.line == 2


def test_sset_roundtrip():
    for cx in (torus(), projective_plane(), sphere_3()):
        text = format_simplicial_set(cx)
        back = parse_simplicial_set(text)
        assert back.simplices == cx.simplices
        assert back.faces == cx.faces


def test_cochain_roundtrip():
    cx = torus()
    c = Cochain(cx, 2, ZZ, {"U": ZZ.elem((3,)), "L": ZZ.elem((-1,))})
    text = format_cochain(c)
    back = parse_cochain(text, cx)
    assert back == c


def test_cochain_second_group_header_refused():
    # the values above the second header were read under the first group
    with pytest.raises(ParseError) as exc:
        parse_cochain("group Z\nvalue U 0\nvalue L 1\ngroup Z+Z/2\n", torus())
    assert exc.value.line == 4


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def lat_files(tmp_path):
    space = TateSpace(F5, 1)
    a = standard_lattice(space, -2)
    b = standard_lattice(space)
    return (_write(tmp_path, "a.lat", format_lattice(a)),
            _write(tmp_path, "b.lat", format_lattice(b)))


def test_cli_index(lat_files, capsys):
    rc = main(["index", lat_files[0], lat_files[1]])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_index_json_deterministic(lat_files, capsys):
    rc = main(["--json", "index", lat_files[0], lat_files[1]])
    assert rc == 0
    out1 = capsys.readouterr().out
    main(["--json", "index", lat_files[0], lat_files[1]])
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "pass" and data["index"] == 2


def test_cli_index_far_pair(tmp_path, capsys):
    space = TateSpace(F5, 2)
    fa = _write(tmp_path, "a.lat", format_lattice(standard_lattice(space)))
    fb = _write(tmp_path, "b.lat",
                format_lattice(standard_lattice(space, 3000000)))
    rc = main(["--json", "index", fa, fb])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["index"] == 6000000
    # meet and join work in a window no wider than one input's, and the
    # empty levels of t^3000000 O^2 given in the window [0, 3000000) are
    # stripped at once
    wide = _write(tmp_path, "wide.lat",
                  "tate rank=2 field=F5\nbounds lo=0 hi=3000000\n")
    for far in (fb, wide):
        for verb, want in (("meet", standard_lattice(space, 3000000)),
                           ("join", standard_lattice(space))):
            assert main([verb, fa, far]) == 0
            assert parse_lattice(capsys.readouterr().out) == want


def test_cli_meet_unreduced_scalars(tmp_path, capsys):
    # 7, -3 and 2 are one element of F5, so the three files are one lattice
    other = _write(tmp_path, "b.lat", "tate rank=1 field=F5\n"
                   "bounds lo=0 hi=2\n1,1\n")
    outs = []
    for x in ("7", "-3", "2"):
        fa = _write(tmp_path, "a%s.lat" % x, "tate rank=1 field=F5\n"
                    "bounds lo=0 hi=2\n%s,1\n" % x)
        assert main(["--json", "meet", fa, other]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_cli_deep_meet_is_refused_fast(tmp_path, capsys):
    # one row at t^0 over 20000 levels, met with O: the unit rows of O fill
    # the window [0, 20000), and the Zassenhaus stack of 20001 rows by 40000
    # columns would take tens of GB, so the cap refuses it before building
    import time
    deep = _write(tmp_path, "deep.lat", _lat("F5", 1, 0, 20000,
                                             ",".join(["1"] + ["0"] * 19999)))
    o = _write(tmp_path, "o.lat", _lat("F5", 1, 0, 0))
    t0 = time.monotonic()
    rc = main(["meet", deep, o])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "cap of" in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_meet_join_roundtrip(tmp_path, capsys):
    space = TateSpace(F5, 2)
    a = lattice_normalize(space, -1, 0, [[1, 0]])
    b = lattice_normalize(space, -1, 0, [[0, 1]])
    fa = _write(tmp_path, "a.lat", format_lattice(a))
    fb = _write(tmp_path, "b.lat", format_lattice(b))
    rc = main(["meet", fa, fb])
    assert rc == 0
    out = capsys.readouterr().out
    assert parse_lattice(out) == standard_lattice(space)
    rc = main(["join", fa, fb])
    out = capsys.readouterr().out
    assert parse_lattice(out) == standard_lattice(space, -1)


def test_cli_lift_project(tmp_path, capsys):
    from satokit.tate import split_tate_ses
    ses = split_tate_ses(F5, 1, 1)
    fi = _write(tmp_path, "i.lmx", format_laurent_matrix(ses.i))
    fj = _write(tmp_path, "j.lmx", format_laurent_matrix(ses.j))
    space = TateSpace(F5, 2)
    u = lattice_normalize(space, -1, 1, [
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])  # t^-1 O (+) O
    fu = _write(tmp_path, "u.lat", format_lattice(u))
    rc = main(["lift", fi, fj, fu])
    assert rc == 0
    out = parse_lattice(capsys.readouterr().out)
    assert out == standard_lattice(TateSpace(F5, 1), -1)
    rc = main(["project", fi, fj, fu])
    out = parse_lattice(capsys.readouterr().out)
    assert out == standard_lattice(TateSpace(F5, 1))


def test_cli_ses_check(tmp_path, capsys):
    one = LaurentPoly.one(F5)
    z = LaurentPoly.zero(F5)
    i = LaurentMatrix(F5, [[one, z]])
    j_bad = LaurentMatrix(F5, [[one], [z]])
    fi = _write(tmp_path, "i.lmx", format_laurent_matrix(i))
    fj = _write(tmp_path, "j.lmx", format_laurent_matrix(j_bad))
    rc = main(["ses-check", fi, fj])
    assert rc == 1
    assert "composite-nonzero" in capsys.readouterr().out


def test_cli_mu_eval(tmp_path, capsys):
    from satokit.tate import split_tate_ses
    ses = split_tate_ses(F5, 1, 1)
    fi = _write(tmp_path, "i.lmx", format_laurent_matrix(ses.i))
    fj = _write(tmp_path, "j.lmx", format_laurent_matrix(ses.j))
    u = standard_lattice(TateSpace(F5, 2))
    fu = _write(tmp_path, "u.lat", format_lattice(u))
    rc = main(["mu-eval", fi, fj, fu, "--group", "Z",
               "--d1", "5", "--d2", "-3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


# values taken before dimensional and determinantal theories shared RelTheory
@pytest.mark.parametrize("seed, field, want", [
    (2, F5, [[-4, 1], [-2, 0], [-2, 0]]),
    (3, F2, [[-2, 0], [-6, 2], [-6, 2]]),
])
def test_cli_mu_eval_twisted_values(tmp_path, capsys, seed, field, want):
    import random
    rng = random.Random(seed)
    ses = verify.TwistedChain(rng, field, 1, 2, 3).ses12
    fi = _write(tmp_path, "i.lmx", format_laurent_matrix(ses.i))
    fj = _write(tmp_path, "j.lmx", format_laurent_matrix(ses.j))
    got = []
    for _ in want:
        u = verify.rand_lattice(rng, TateSpace(field, 2), bound=1)
        fu = _write(tmp_path, "u.lat", format_lattice(u))
        rc = main(["--json", "mu-eval", fi, fj, fu, "--group", "Z+Z/6",
                   "--generator", "2,5", "--d1", "1,2", "--d2=-3,4"])
        assert rc == 0
        got.append(json.loads(capsys.readouterr().out)["value"])
    assert got == want


# Split F5 sequences with one entry of degree 200000, over u = O^2.  Their
# one-sided inverses have poles of order 200000, so project (and lift along
# "twisted") would build windows of 8 * 10^10 cells; the lift along "plain"
# needs no window and gives O.
DEEP = 200000
DEEP_SEQUENCES = {
    "plain": ("lmx rows=1 cols=2 field=F5\n1*t^0\n1*t^%d\n" % DEEP,
              "lmx rows=2 cols=1 field=F5\n4*t^%d\n1*t^0\n" % DEEP),
    "twisted": ("lmx rows=1 cols=2 field=F5\n1*t^0+1*t^1\n4*t^%d\n" % DEEP,
                "lmx rows=2 cols=1 field=F5\n1*t^%d\n1*t^0+1*t^1\n" % DEEP),
}


@pytest.mark.parametrize("name", sorted(DEEP_SEQUENCES))
@pytest.mark.parametrize("verb", ["lift", "project", "mu-eval"])
def test_cli_deep_windows_are_refused_fast(tmp_path, capsys, name, verb):
    import time
    fi = _write(tmp_path, "i.lmx", DEEP_SEQUENCES[name][0])
    fj = _write(tmp_path, "j.lmx", DEEP_SEQUENCES[name][1])
    fu = _write(tmp_path, "u.lat",
                format_lattice(standard_lattice(TateSpace(F5, 2))))
    t0 = time.monotonic()
    rc = main([verb, fi, fj, fu])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    if (name, verb) == ("plain", "lift"):
        assert rc == 0
        assert parse_lattice(captured.out) == \
            standard_lattice(TateSpace(F5, 1))
        return
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "cap of" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("verb", ["lift", "project"])
def test_cli_twisted_pair_at_degree_720_is_fast(tmp_path, capsys, verb):
    # i = (1 + t, 4t^720), j = (t^720; 1 + t) over F5, u = O^2: the windows
    # are under the cell cap, but their elimination once took 25 s; the
    # answer is O, or a refusal by the work cap
    import time
    d = 720
    fi = _write(tmp_path, "i.lmx",
                "lmx rows=1 cols=2 field=F5\n1*t^0+1*t^1\n4*t^%d\n" % d)
    fj = _write(tmp_path, "j.lmx",
                "lmx rows=2 cols=1 field=F5\n1*t^%d\n1*t^0+1*t^1\n" % d)
    fu = _write(tmp_path, "u.lat",
                format_lattice(standard_lattice(TateSpace(F5, 2))))
    t0 = time.monotonic()
    rc = main([verb, fi, fj, fu])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    if rc == 0:
        assert parse_lattice(captured.out) == \
            standard_lattice(TateSpace(F5, 1))
        return
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "cap of" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_ses_check_refuses_a_deep_random_row_fast(tmp_path, capsys):
    # a random F5 row of degree 20000 would take hours of Euclidean steps
    # for its right inverse; the work bound refuses it before any step
    import random
    import time
    rng = random.Random(20000)
    row = [LaurentPoly(F5, {e: rng.randrange(5) for e in range(20001)})
           for _ in range(2)]
    one = LaurentPoly.one(F5)
    fi = _write(tmp_path, "i.lmx",
                format_laurent_matrix(LaurentMatrix(F5, [row])))
    fj = _write(tmp_path, "j.lmx",
                format_laurent_matrix(LaurentMatrix(F5, [[one], [one]])))
    t0 = time.monotonic()
    rc = main(["ses-check", fi, fj])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "cap of" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_ses_check_refuses_a_wide_random_matrix_fast(tmp_path, capsys):
    # a random F5 8 x 12 matrix of entry degree 55 is under the work cap,
    # but its right inverse takes over ten seconds: the cap on (work + 1) x
    # rows x cols refuses it before any step
    import random
    import time
    from satokit.laurent import MAX_ECHELON_WORK, _echelon_work
    rng = random.Random(812)
    i = LaurentMatrix(F5, [[LaurentPoly(F5, {e: rng.randrange(1, 5)
                                             for e in range(56)
                                             if rng.random() < 0.5})
                            for _ in range(12)] for _ in range(8)], 12)
    assert 600 < _echelon_work(i.transpose()) < MAX_ECHELON_WORK
    one = LaurentPoly.one(F5)
    fi = _write(tmp_path, "i.lmx", format_laurent_matrix(i))
    fj = _write(tmp_path, "j.lmx", format_laurent_matrix(
        LaurentMatrix(F5, [[one] * 4] * 12, 4)))
    t0 = time.monotonic()
    rc = main(["ses-check", fi, fj])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "cap of" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_verify_all_report_is_pinned(capsys):
    # `satokit --json verify all`, byte for byte; a change that alters the
    # report on purpose updates tests/verify_all.json and says so
    from pathlib import Path
    want = (Path(__file__).parent / "verify_all.json").read_text()
    assert main(["--json", "verify", "all"]) == 0
    assert capsys.readouterr().out == want


# Sequences i, j given as .lmx texts, with their middle lattices and, per
# lattice, the CLI lift, project and mu-eval (Z+Z/6, generator 2,5, d1 1,2,
# d2 -3,4) taken before one-sided inverses became a Laurent matrix over one
# denominator.  The "laurent" pair has Laurent one-sided inverses; in "both"
# i and j are multiplied by a non-unit, and in "rank2" i has non-unit 2x2
# minors, so there the inverses have a nontrivial denominator.
PINNED_LATTICES = {
    "F5": ["tate rank=2 field=F5\nbounds lo=0 hi=0\n",
           "tate rank=2 field=F5\nbounds lo=-1 hi=1\n1,2,0,0\n0,0,3,1\n",
           "tate rank=2 field=F5\nbounds lo=-2 hi=1\n"
           "1,0,0,4,2,0\n0,1,0,0,0,3\n0,0,1,2,3,4\n",
           "tate rank=2 field=F5\nbounds lo=1 hi=3\n1,3,0,2\n"],
    "Q": ["tate rank=2 field=Q\nbounds lo=0 hi=0\n",
          "tate rank=2 field=Q\nbounds lo=-1 hi=1\n1/2,3,0,0\n0,0,-2,1\n",
          "tate rank=2 field=Q\nbounds lo=-2 hi=1\n"
          "1,0,0,-1,2/3,0\n0,1,0,0,0,3\n0,0,1,1/2,-1,4\n",
          "tate rank=2 field=Q\nbounds lo=1 hi=3\n1,-3,0,1/5\n"],
    "F5-3": ["tate rank=3 field=F5\nbounds lo=0 hi=0\n",
             "tate rank=3 field=F5\nbounds lo=-1 hi=1\n"
             "1,2,0,0,0,1\n0,0,3,1,4,0\n0,0,0,0,1,2\n"],
}


def _lat(field, rank, lo, hi, *rows):
    return "tate rank=%d field=%s\nbounds lo=%d hi=%d\n%s" % (
        rank, field, lo, hi, "".join(r + "\n" for r in rows))


PINNED_SEQUENCES = {
    "F5-laurent": (
        "lmx rows=1 cols=2 field=F5\n1*t^0+1*t^1\n1*t^2\n",
        "lmx rows=2 cols=1 field=F5\n1*t^2\n4*t^0+4*t^1\n", "F5",
        [(_lat("F5", 1, 0, 0), _lat("F5", 1, 0, 0), [-2, 0]),
         (_lat("F5", 1, 1, 1), _lat("F5", 1, -1, -1), [-2, 0]),
         (_lat("F5", 1, 1, 1), _lat("F5", 1, -2, -2), [0, 5]),
         (_lat("F5", 1, 3, 3), _lat("F5", 1, 1, 3, "1,0"), [-12, 5])]),
    "Q-laurent": (
        "lmx rows=1 cols=2 field=Q\n1*t^0+1*t^1\n1*t^2\n",
        "lmx rows=2 cols=1 field=Q\n1*t^2\n-1*t^0+-1*t^1\n", "Q",
        [(_lat("Q", 1, 0, 0), _lat("Q", 1, 0, 0), [-2, 0]),
         (_lat("Q", 1, 1, 1), _lat("Q", 1, -1, -1), [-2, 0]),
         (_lat("Q", 1, 1, 1), _lat("Q", 1, -2, -2), [0, 5]),
         (_lat("Q", 1, 3, 3), _lat("Q", 1, 1, 3, "1,14/15"), [-12, 5])]),
    "F5-both": (
        "lmx rows=1 cols=2 field=F5\n1*t^0+2*t^1+1*t^2\n1*t^2+1*t^3\n",
        "lmx rows=2 cols=1 field=F5\n1*t^2+1*t^3\n4*t^0+3*t^1+4*t^2\n", "F5",
        [(_lat("F5", 1, 0, 0), _lat("F5", 1, 0, 0), [-2, 0]),
         (_lat("F5", 1, 1, 1), _lat("F5", 1, -1, -1), [-2, 0]),
         (_lat("F5", 1, 1, 1), _lat("F5", 1, -2, -2), [0, 5]),
         (_lat("F5", 1, 3, 3), _lat("F5", 1, 1, 3, "1,1"), [-12, 5])]),
    "Q-both": (
        "lmx rows=1 cols=2 field=Q\n1*t^0+2*t^1+1*t^2\n1*t^2+1*t^3\n",
        "lmx rows=2 cols=1 field=Q\n2*t^2+1*t^3\n-2*t^0+-3*t^1+-1*t^2\n",
        "Q",
        [(_lat("Q", 1, 0, 0), _lat("Q", 1, 0, 0), [-2, 0]),
         (_lat("Q", 1, 1, 1), _lat("Q", 1, -1, -1), [-2, 0]),
         (_lat("Q", 1, 1, 1), _lat("Q", 1, -2, -2), [0, 5]),
         (_lat("Q", 1, 3, 3), _lat("Q", 1, 1, 3, "1,43/30"), [-12, 5])]),
    "F5-rank2": (
        "lmx rows=2 cols=3 field=F5\n"
        "1*t^0+1*t^1\n0\n1*t^1\n0\n1*t^0+1*t^1\n1*t^0\n",
        "lmx rows=3 cols=1 field=F5\n1*t^1\n1*t^0\n4*t^0+4*t^1\n", "F5-3",
        [(_lat("F5", 2, 0, 0), _lat("F5", 1, 0, 0), [-2, 0]),
         (_lat("F5", 2, -1, 1, "1,2,3,3"), _lat("F5", 1, -1, -1),
          [-2, 0])]),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEQUENCES))
def test_cli_lift_project_mu_eval_pinned(tmp_path, capsys, name):
    from satokit.laurent import right_inverse
    i_text, j_text, key, want = PINNED_SEQUENCES[name]
    i = parse_laurent_matrix(i_text)
    denominator = right_inverse(i)[1]
    assert (denominator == LaurentPoly.one(i.field)) == ("laurent" in name)
    fi = _write(tmp_path, "i.lmx", i_text)
    fj = _write(tmp_path, "j.lmx", j_text)
    for lat, (lift, project, mu) in zip(PINNED_LATTICES[key], want):
        fu = _write(tmp_path, "u.lat", lat)
        got = []
        for verb, extra in (("lift", []), ("project", []),
                            ("mu-eval", ["--group", "Z+Z/6", "--generator",
                                         "2,5", "--d1", "1,2",
                                         "--d2=-3,4"])):
            assert main(["--json", verb, fi, fj, fu] + extra) == 0
            out = json.loads(capsys.readouterr().out)
            got.append(out.get("lattice", out.get("value")))
        assert got == [lift, project, mu], (name, lat)


@pytest.mark.parametrize("flags", [
    ["--d1", "x"], ["--d2", "x"], ["--generator", "y"],
    ["--generator", "1,2"], ["--generator", ""],
])
def test_cli_mu_eval_bad_flag_exits_2(tmp_path, capsys, flags):
    from satokit.tate import split_tate_ses
    ses = split_tate_ses(F5, 1, 1)
    fi = _write(tmp_path, "i.lmx", format_laurent_matrix(ses.i))
    fj = _write(tmp_path, "j.lmx", format_laurent_matrix(ses.j))
    fu = _write(tmp_path, "u.lat",
                format_lattice(standard_lattice(TateSpace(F5, 2))))
    rc = main(["mu-eval", fi, fj, fu, "--group", "Z"] + flags)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cli_cohomology(tmp_path, capsys):
    fx = _write(tmp_path, "torus.sset", format_simplicial_set(torus()))
    rc = main(["cohomology", fx, "--degree", "2", "--group", "Z"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "Z"
    fx2 = _write(tmp_path, "rp2.sset",
                 format_simplicial_set(projective_plane()))
    rc = main(["cohomology", fx2, "--degree", "2", "--group", "Z/2"])
    assert capsys.readouterr().out.strip() == "Z/2"


def test_cli_cohomology_builds_no_smith_transforms(tmp_path, capsys,
                                                   monkeypatch):
    # the verb prints the group, which needs only invariant factors; over Z
    # the torus has no torsion summand and builds no form at all
    import satokit.exactlin
    import satokit.simptors
    snf = satokit.exactlin.snf_with_transforms
    keeps = []

    def counted(rows, ncols, keep):
        keeps.append(tuple(keep))
        return snf(rows, ncols, keep)

    for module in (satokit.exactlin, satokit.simptors):
        monkeypatch.setattr(module, "snf_with_transforms", counted)
    fx = _write(tmp_path, "torus.sset", format_simplicial_set(torus()))
    for degree, group, want in ((1, "Z", "Z+Z"), (1, "Z/6", "Z/6+Z/6"),
                                (2, "Z", "Z"), (2, "Z/6", "Z/6")):
        rc = main(["--json", "cohomology", fx, "--degree", str(degree),
                   "--group", group])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["group"] == want
    assert keeps and set(keeps) == {()}


def _grid_torus_sset(n):
    """.sset text of the n x n grid torus: vertex x + n y, each square cut
    along its diagonal, every simplex ordered by vertex number."""
    def v(x, y):
        return x % n + n * (y % n)
    tris = set()
    for x in range(n):
        for y in range(n):
            a, b, c, d = v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1)
            tris |= {tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))}
    edges = {(t[i], t[j]) for t in tris for i, j in ((0, 1), (0, 2), (1, 2))}
    lines = ["simplex 0 v%d" % k for k in range(n * n)]
    lines += ["simplex 1 e%d_%d faces v%d v%d" % (a, b, b, a)
              for a, b in sorted(edges)]
    lines += ["simplex 2 f%d_%d_%d faces e%d_%d e%d_%d e%d_%d"
              % (a, b, c, b, c, a, c, a, b) for a, b, c in sorted(tris)]
    return "\n".join(lines) + "\n"


def test_cli_cohomology_of_a_grid_torus(tmp_path, capsys):
    # 144 vertices, 432 edges, 288 triangles
    f = _write(tmp_path, "grid.sset", _grid_torus_sset(12))
    rc = main(["cohomology", f, "--degree", "2", "--group", "Z/6"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "Z/6"


def test_cli_cohomology_of_a_large_grid_torus(tmp_path, capsys):
    # 4096 vertices, 12288 edges, 8192 triangles: unit pivots leave the
    # coboundaries before the Smith form, which then sees no row of them
    import time
    f = _write(tmp_path, "grid.sset", _grid_torus_sset(64))
    t0 = time.monotonic()
    rc = main(["cohomology", f, "--degree", "1", "--group", "Z/6"])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert capsys.readouterr().out.strip() == "Z/6+Z/6"
    assert elapsed < 3


def test_cli_classify_and_transport(tmp_path, capsys):
    cx = projective_plane()
    z2 = AbelianGroup((2,))
    fx = _write(tmp_path, "rp2.sset", format_simplicial_set(cx))
    rep = CohomologyResult(cx, 2, z2).representatives()[0]
    fa = _write(tmp_path, "alpha.coch", format_cochain(rep))
    rc = main(["classify", fx, fa])
    assert rc == 0
    out = capsys.readouterr().out
    assert "class in H^2" in out
    zero = Cochain.zero(cx, 2, z2)
    fz = _write(tmp_path, "zero.coch", format_cochain(zero))
    rc = main(["classify", fx, fa, "--other", fz])
    assert rc == 1
    assert "not isomorphic" in capsys.readouterr().out
    rc = main(["classify", fx, fz, "--other", fz])
    assert rc == 0
    assert "isomorphic" in capsys.readouterr().out


def test_cli_classify_refuses_a_non_cocycle_and_unlike_pairs(tmp_path,
                                                             capsys):
    # one-vertex RP2; alpha = 1 on edge a has coboundary 1 on U and L
    fx = _write(tmp_path, "rp2.sset",
                "simplex 0 v\nsimplex 1 a faces v v\nsimplex 1 b faces v v\n"
                "simplex 1 c faces v v\nsimplex 2 U faces b c a\n"
                "simplex 2 L faces a c b\n")
    fa = _write(tmp_path, "a.coch", "group Z\nvalue a 1\n")
    rc = main(["classify", fx, fa])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "not a cocycle" in err
    assert len(err.splitlines()) == 1
    # the cochain of --other is checked as the first one is
    f0 = _write(tmp_path, "zero.coch", "group Z\nvalue a 0\n")
    rc = main(["classify", fx, f0, "--other", fa])
    assert rc == 1 and capsys.readouterr() == ("", err)
    fz = _write(tmp_path, "z.coch", "group Z\nvalue U 0\n")
    fz2 = _write(tmp_path, "z2.coch", "group Z/2\nvalue U 0\n")
    rc = main(["classify", fx, fz, "--other", fz2])
    err = capsys.readouterr().err
    assert rc == 2
    assert "differ in degree or group" in err and len(err.splitlines()) == 1


def test_cli_classify_other_builds_each_coboundary_once(tmp_path, capsys,
                                                        monkeypatch):
    # the class and the transporter come from one result: D_1 and D_2 built
    # once each (3 calls when the transporter built D_1 again); the
    # transporter was pinned before
    import satokit.simptors
    cob = satokit.simptors.coboundary_matrix
    calls = []

    def counted(complex_, degree):
        calls.append(degree)
        return cob(complex_, degree)

    monkeypatch.setattr(satokit.simptors, "coboundary_matrix", counted)
    fx = _write(tmp_path, "rp2.sset",
                format_simplicial_set(projective_plane()))
    fa = _write(tmp_path, "a.coch", "group Z/2\nvalue U 1\nvalue L 0\n")
    fb = _write(tmp_path, "b.coch", "group Z/2\nvalue U 0\nvalue L 1\n")
    rc = main(["--json", "classify", fx, fa, "--other", fb])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == [[1]] and out["isomorphic"] is True
    assert out["transporter"] == \
        "group Z/2\nvalue a 1\nvalue b 0\nvalue c 0\n"
    assert sorted(calls) == [1, 2]


def test_cli_gerbe_torsor(tmp_path, capsys):
    cx = sphere_3()
    z4 = AbelianGroup((4,))
    rep = CohomologyResult(cx, 3, z4).representatives()[0]
    fx = _write(tmp_path, "s3.sset", format_simplicial_set(cx))
    fb = _write(tmp_path, "beta.coch", format_cochain(rep))
    rc = main(["gerbe-torsor", fx, fb])
    assert rc == 0
    out = capsys.readouterr().out
    assert "torsor check: pass" in out


def test_cli_gerbe_torsor_exit_codes(tmp_path, capsys):
    cx = full_simplex(4)
    fx = _write(tmp_path, "d4.sset", format_simplicial_set(cx))
    # a 2-cochain is an input mismatch: usage error
    fa = _write(tmp_path, "a.coch", "group Z\nvalue %s 1\n" % cx.ids(2)[0])
    assert main(["gerbe-torsor", fx, fa]) == 2
    err = capsys.readouterr().err
    assert "expected 3" in err and len(err.splitlines()) == 1
    # a 3-cochain that is not a cocycle fails the degree-4 condition
    fb = _write(tmp_path, "b.coch", "group Z\nvalue %s 1\n" % cx.ids(3)[0])
    assert main(["gerbe-torsor", fx, fb]) == 1
    assert "degree-4 condition fails" in capsys.readouterr().out


def test_cli_s_enumerate(capsys):
    rc = main(["s-enumerate", "--field", "F2", "--dim-cap", "2",
               "--level-cap", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 5 12 22" in out


def test_cli_s_enumerate_budget(capsys):
    rc = main(["s-enumerate", "--budget", "3"])
    assert rc == 2


@pytest.mark.parametrize("argv,msg", [
    (["s-enumerate", "--dim-cap", "7", "--level-cap", "1"], "budget"),
    (["s-enumerate", "--dim-cap", "-1"], "dim-cap"),
    (["s-enumerate", "--level-cap", "-2"], "level-cap"),
    (["s-enumerate", "--field", "Q"], "F_p"),
    (["det-symmetry", "--field", "Q"], "finite field"),
    (["s-enumerate", "--level-cap", "0", "--budget", "-5"], "budget"),
    (["s-enumerate", "--dim-cap", "0", "--level-cap", "19999"], "incidence"),
    (["s-enumerate", "--dim-cap", "0", "--level-cap", "4000000", "--budget",
      "1000000000"], "incidence"),
])
def test_cli_s_enumerate_refusals_exit_2_fast(capsys, argv, msg):
    import time
    t0 = time.monotonic()
    rc = main(argv)
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and msg in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "mu", "--trials", "-1"],
    ["verify", "lift-project", "--trials", "0"],
    ["det-symmetry", "--trials", "-2"],
    ["det-symmetry", "--field", "Q", "--trials", "0"],
])
def test_cli_non_positive_trials_exit_2(capsys, argv):
    import time
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.monotonic() - t0 < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--trials: must be at least 1" in err and "Traceback" not in err


def test_cli_verify(capsys):
    rc = main(["verify", "cohomology"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    rc = main(["verify", "nope"])
    assert rc == 2


def test_cli_det_symmetry(capsys):
    rc = main(["det-symmetry", "--field", "F5", "--trials", "10"])
    assert rc == 0
    rc = main(["det-symmetry", "--field", "F5", "--trials", "10",
               "--ungraded"])
    assert rc == 1  # the classical determinant is not symmetric
    out = capsys.readouterr()


def test_cli_det_symmetry_grids_are_the_suites(capsys):
    # the ungraded failures of seed 7 depend on every grid drawn; these were
    # read off the CLI before the CLI and the suite shared one grid source
    assert main(["--json", "det-symmetry", "--seed", "7", "--trials", "100",
                 "--ungraded"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["instances"] == 109
    assert [(f["kind"], f["got"], f["expected"]) for f in rep["failures"]] \
        == [("pair", "4", "1")] + [("grid", g, e) for g, e in (
            ("3", "2"), ("4", "1"), ("4", "1"), ("3", "2"), ("1", "4"),
            ("1", "4"), ("4", "1"), ("4", "1"), ("1", "4"))]
    from random import Random
    from satokit.detline import DetTheory, check_symmetry
    grids = verify.random_grids(Random(7), F5, 100)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    failed = [(i.got, i.expected) for i in check_symmetry(
        DetTheory(F5, graded=False), pairs, grids).failures()]
    assert [(str(g), str(e)) for g, e in failed] \
        == [(f["got"], f["expected"]) for f in rep["failures"]]


@pytest.mark.parametrize("verb", ["classify", "classify --other",
                                  "gerbe-torsor"])
def test_cli_malformed_cochain_exits_2(tmp_path, capsys, verb):
    sset = _write(tmp_path, "t.sset", format_simplicial_set(torus()))
    good = _write(tmp_path, "good.coch", "group Z\nvalue U 1\n")
    bad = _write(tmp_path, "bad.coch",
                 "group Z\n# note\nvalue U 1\nvalue nowhere 1\n")
    argv = {"classify": ["classify", sset, bad],
            "classify --other": ["classify", sset, good, "--other", bad],
            "gerbe-torsor": ["gerbe-torsor", sset, bad]}[verb]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: %s: unknown simplex 'nowhere' at line 4, "
                            "column 2\n" % bad)


@pytest.mark.parametrize("parse,text,line,col", [
    (parse_lattice, "  # c\n\ntate rank=1 field=F5\n \t\n  bounds lo=0 hi=2"
                    "\n# c\n 1 , zz \n", 7, 2),
    (parse_laurent_matrix, "\n# c\n lmx rows=1 cols=2 field=F5\n\t1*t^0\n"
                           "  # c\n 3*t^x\n", 6, 1),
    (parse_simplicial_set, "# c\n\n simplex 0 v\n  \n\tsimplex q e\n", 5, 2),
    (lambda text: parse_cochain(text, torus()),
     "# c\n group Z\n\n value U 1\n  # c\nvalue L x\n", 6, 3),
])
def test_parse_errors_count_blank_and_comment_lines(parse, text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_cli_usage_error_missing_file(capsys):
    rc = main(["index", "/nonexistent/a.lat", "/nonexistent/b.lat"])
    assert rc == 2


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(-2, 0), st.integers(0, 2), st.data())
def test_lattice_format_roundtrip_random(rank, lo, hi, data):
    space = TateSpace(F5, rank)
    width = (hi - lo) * rank
    rows = [[data.draw(st.integers(0, 4)) for _ in range(width)]
            for _ in range(data.draw(st.integers(0, max(width, 1))))]
    lat = lattice_normalize(space, lo, hi, rows)
    assert parse_lattice(format_lattice(lat)) == lat


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="tate rnk=fildF5bounds+-0123,\n^*", max_size=120))
def test_lattice_parser_never_crashes(text):
    try:
        parse_lattice(text)
    except (ParseError, ValueError):
        pass


_LAT_NOISE = st.one_of(
    st.builds("tate rank={} field={}".format, st.integers(-1, 3),
              st.sampled_from(["F2", "F5", "Q", "F4", "x"])),
    st.builds("bounds lo={} hi={}".format, st.integers(-3, 3),
              st.integers(-3, 3)),
    st.lists(st.integers(-1, 5), max_size=6).map(
        lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="tate rnk=fildF5bounds+-0123,/#", max_size=20))


@st.composite
def _lat_pair(draw):
    """Two .lat texts in one space, windows up to 6000000 levels apart, with
    up to two noise lines put into each."""
    rank = draw(st.integers(0, 3))
    field = draw(st.sampled_from(["F2", "F5", "Q"]))
    texts = []
    for _ in range(2):
        lo = draw(st.sampled_from([-3000000, -1, 0, 2, 3000000]))
        hi = lo + draw(st.integers(0, 2))
        width = (hi - lo) * rank
        rows = draw(st.lists(st.lists(st.integers(-1, 5), min_size=width,
                                      max_size=width), max_size=width + 1))
        lines = ["tate rank=%d field=%s" % (rank, field),
                 "bounds lo=%d hi=%d" % (lo, hi)]
        lines += [",".join(map(str, r)) for r in rows]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_LAT_NOISE))
        texts.append("\n".join(lines))
    return texts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["index", "meet", "join"]), _lat_pair())
def test_cli_lattice_verbs_never_crash(tmp_path_factory, verb, texts):
    # an uncaught exception fails the test by itself
    d = tmp_path_factory.mktemp("fuzz")
    argv = [verb] + [_write(d, "%d.lat" % k, t) for k, t in enumerate(texts)]
    rc, err = _run_quiet(argv)
    assert rc in (0, 2)
    assert len(err) <= 1


def _run_quiet(argv):
    """main(argv) with its output captured: (exit code, stderr lines)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


@st.composite
def _noisy(draw, text, noise):
    """text as it is, or with up to two of its lines dropped and up to two
    noise lines put in."""
    lines = text.splitlines()
    if draw(st.booleans()):
        return text
    for _ in range(draw(st.integers(0, 2))):
        if lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines) + "\n"


_GROUPS = ["Z", "Z/2", "Z/6", "Z+Z/2", "0"]
_LMX_NOISE = st.one_of(
    st.builds("lmx rows={} cols={} field={}".format, st.integers(-1, 3),
              st.integers(-1, 3), st.sampled_from(["F2", "F5", "Q", "F4"])),
    st.builds("{}*t^{}".format, st.integers(-2, 6), st.integers(-3, 3)),
    st.text(alphabet="lmx rowscl=fidF5 0123*t^+-/", max_size=20))
_SSET_NOISE = st.one_of(
    st.builds("simplex {} {} faces {}".format, st.integers(-1, 3),
              st.sampled_from(["v", "e", "0", "01", "012"]),
              st.sampled_from(["v v", "0 1", "01 02 12", "zz"])),
    st.text(alphabet="simplex faces 012vew#", max_size=20))
_COCH_NOISE = st.one_of(
    st.builds("group {}".format, st.sampled_from(_GROUPS + ["Zq", "Z/x"])),
    st.builds("value {} {}".format,
              st.sampled_from(["0", "01", "012", "q"]),
              st.sampled_from(["1", "0,1", "-3", "x"])),
    st.text(alphabet="group value Z/+0123,#", max_size=20))


@st.composite
def _mu_eval_args(draw):
    """Files of a split F2 or F5 sequence and a lattice in its middle space,
    each maybe spoiled, and mu-eval flags (some malformed)."""
    from satokit.tate import split_tate_ses
    field = draw(st.sampled_from([F2, F5]))
    a, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ses = split_tate_ses(field, a, c)
    lo = draw(st.integers(-2, 1))
    lat = standard_lattice(TateSpace(field, a + c + draw(st.integers(-1, 0))),
                           lo)
    texts = [draw(_noisy(format_laurent_matrix(m), _LMX_NOISE))
             for m in (ses.i, ses.j)]
    texts.append(draw(_noisy(format_lattice(lat), _LAT_NOISE)))
    flags = ["--group", draw(st.sampled_from(_GROUPS))]
    for flag in ("--d1", "--d2", "--generator"):
        if draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(["1", "0,1", "-2", "x"]))]
    return texts, flags


@settings(max_examples=40, deadline=None)
@given(_mu_eval_args())
def test_cli_mu_eval_never_crashes(tmp_path_factory, args):
    # an uncaught exception fails the test by itself
    texts, flags = args
    d = tmp_path_factory.mktemp("fuzz")
    names = ("i.lmx", "j.lmx", "u.lat")
    rc, err = _run_quiet(["mu-eval"] + [_write(d, n, t) for n, t in
                                        zip(names, texts)] + flags)
    assert rc in (0, 1, 2)
    assert len(err) <= 1


@st.composite
def _sset_and_cochains(draw):
    """A spoiled .sset text of the circle, torus or projective plane, and
    two spoiled .coch texts with values on some of its simplices."""
    from satokit.complexes import circle
    cx = draw(st.sampled_from([circle(), torus(), projective_plane()]))
    sset = draw(_noisy(format_simplicial_set(cx), _SSET_NOISE))
    cochains = []
    for _ in range(2):
        dim = draw(st.integers(0, 2))
        group = draw(st.sampled_from(_GROUPS))
        if draw(st.booleans()) and dim in cx.simplices:
            # a cocycle: a class representative, or zero
            reps = CohomologyResult(cx, dim, parse_group(group)).representatives()
            text = format_cochain(draw(st.sampled_from(reps)) if reps else
                                  Cochain.zero(cx, dim, parse_group(group)))
        else:
            ids = list(cx.ids(dim)) if dim in cx.simplices else []
            lines = ["group %s" % group]
            for sid in draw(st.lists(st.sampled_from(ids), max_size=4)
                            if ids else st.just([])):
                lines.append("value %s %d" % (sid, draw(st.integers(-3, 3))))
            text = "\n".join(lines)
        cochains.append(draw(_noisy(text, _COCH_NOISE)))
    return sset, cochains


@settings(max_examples=40, deadline=None)
@given(_sset_and_cochains(), st.integers(-1, 4),
       st.sampled_from(_GROUPS), st.booleans())
def test_cli_sset_verbs_never_crash(tmp_path_factory, files, degree, group,
                                    other):
    # an uncaught exception fails the test by itself
    sset, (alpha, beta) = files
    d = tmp_path_factory.mktemp("fuzz")
    fx = _write(d, "x.sset", sset)
    fa, fb = _write(d, "a.coch", alpha), _write(d, "b.coch", beta)
    for argv in (["cohomology", fx, "--degree", str(degree), "--group", group],
                 ["classify", fx, fa] + (["--other", fb] if other else [])):
        rc, err = _run_quiet(argv)
        assert rc in (0, 1, 2)
        assert len(err) <= 1


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="lmx rowscl=fidF5\n0123*t^+-", max_size=120))
def test_lmx_parser_never_crashes(text):
    try:
        parse_laurent_matrix(text)
    except (ParseError, ValueError):
        pass


def test_cli_verify_json_deterministic(capsys):
    rc = main(["--json", "verify", "pasting", "--seed", "3"])
    assert rc == 0
    out1 = capsys.readouterr().out
    main(["--json", "verify", "pasting", "--seed", "3"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "pass"


def test_cli_verify_passes_seed_and_trials(capsys):
    rc = main(["--json", "verify", "lattice-index", "--trials", "3",
               "--seed", "5"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    want = verify.suite_lattice_index(seed=5, trials=3).checked
    assert [r["checked"] for r in data["results"]] == [want]


def test_cli_sset_diagnosis_passthrough(tmp_path, capsys):
    bad = "simplex 0 v\nsimplex 1 e faces v zzz\n"
    f = _write(tmp_path, "bad.sset", bad)
    rc = main(["cohomology", f, "--degree", "0", "--group", "Z"])
    assert rc == 2
    assert "dangling" in capsys.readouterr().err


def test_cli_duplicate_simplex_id_is_named_before_a_later_fault(tmp_path,
                                                                capsys):
    f = _write(tmp_path, "dup.sset", "simplex 0 v\nsimplex 1 e faces v v\n"
               "simplex 1 e faces v zzz\n")
    rc = main(["cohomology", f, "--degree", "0", "--group", "Z"])
    assert rc == 2
    assert "duplicate simplex id 'e'" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [-1, -3])
def test_cli_negative_simplex_dimension_exits_2(tmp_path, capsys, dim):
    f = _write(tmp_path, "neg.sset",
               "simplex 0 v\nsimplex %d x faces\n" % dim)
    rc = main(["--json", "cohomology", f, "--degree", "0", "--group", "Z"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "negative dimension %d at line 2" % dim in captured.err
    with pytest.raises(ComplexError, match="negative dimension"):
        validate_simplicial_set([("v", 0, ()), ("x", dim, ())])


@pytest.mark.parametrize("name,text,line", [
    ("f4.lat", "tate rank=1 field=F4\nbounds lo=0 hi=1\n1\n", 1),
    ("rank.lat", "# note\ntate rank=x field=F5\nbounds lo=0 hi=1\n1\n", 2),
    ("lo.lat", "tate rank=1 field=F5\nbounds lo=q hi=1\n1\n", 2),
    ("big.lat", "tate rank=1 field=F1000000000000000000000000000057\n"
                "bounds lo=0 hi=1\n1\n", 1),
    ("f4.lmx", "lmx rows=1 cols=1 field=F4\n1*t^0\n", 1),
    ("rows.lmx", "\nlmx rows=x cols=1 field=F5\n1*t^0\n", 2),
    ("cols.lmx", "lmx rows=1 cols=x field=F5\n1*t^0\n", 1),
    ("negcols.lmx", "lmx rows=0 cols=-1 field=F5\n", 1),
    ("negrows.lmx", "# note\nlmx rows=-2 cols=0 field=F5\n", 2),
    ("neg.lat", "tate rank=-1 field=F5\nbounds lo=0 hi=1\n", 1),
    ("lohi.lat", "tate rank=1 field=F5\n# swapped\nbounds lo=2 hi=1\n", 3),
])
def test_cli_malformed_header_exits_2(tmp_path, capsys, name, text, line):
    f = _write(tmp_path, name, text)
    if name.endswith(".lat"):
        argv = ["index", f, f]
    else:
        ok = _write(tmp_path, "ok.lmx", "lmx rows=1 cols=1 field=F5\n1*t^0\n")
        argv = ["ses-check", f, ok]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "line %d" % line in err
    assert "Traceback" not in err


@pytest.fixture
def mismatched_files(tmp_path):
    """Files named by what they hold: the mono i and epi j of the split
    F5((t)) >--> F5((t))^2 -->> F5((t)), the epis j3 of a split into
    F5((t))^3 and jF2 of one over F2, standard lattices u2/u3 in F5((t))^2
    and F5((t))^3 and uF2 in F2((t))^2, the torus, and the 5-simplex s5
    with an integer cochain a5 on its top simplex."""
    from satokit.tate import split_tate_ses
    files = {"i.lmx": format_laurent_matrix(split_tate_ses(F5, 1, 1).i),
             "j.lmx": format_laurent_matrix(split_tate_ses(F5, 1, 1).j),
             "j3.lmx": format_laurent_matrix(split_tate_ses(F5, 1, 2).j),
             "jF2.lmx": format_laurent_matrix(split_tate_ses(F2, 1, 1).j),
             "torus.sset": format_simplicial_set(torus()),
             "s5.sset": format_simplicial_set(full_simplex(5)),
             "a5.coch": "group Z\nvalue 012345 1\n"}
    for name, field, n in (("u2", F5, 2), ("u3", F5, 3), ("uF2", F2, 2)):
        files[name + ".lat"] = format_lattice(
            standard_lattice(TateSpace(field, n)))
    return {name: _write(tmp_path, name, text)
            for name, text in files.items()}


@pytest.mark.parametrize("argv,msg", [
    (["lift", "i.lmx", "j3.lmx", "u2.lat"], "middle ranks disagree"),
    (["project", "i.lmx", "jF2.lmx", "u2.lat"], "over F2"),
    (["mu-eval", "i.lmx", "j3.lmx", "u2.lat"], "middle ranks disagree"),
    (["mu-eval", "i.lmx", "jF2.lmx", "u2.lat"], "over F2"),
    (["lift", "i.lmx", "j.lmx", "u3.lat"], "not in the middle space"),
    (["project", "i.lmx", "j.lmx", "uF2.lat"], "not in the middle space"),
    (["index", "u2.lat", "u3.lat"], "lives in"),
    (["meet", "u2.lat", "uF2.lat"], "lives in"),
    (["join", "u3.lat", "u2.lat"], "lives in"),
    (["cohomology", "torus.sset", "--degree", "-1"], "negative degree"),
    (["cohomology", "torus.sset", "--degree", "9"], "degree 9"),
    (["classify", "s5.sset", "a5.coch"], "degree 5"),
])
def test_cli_mismatched_inputs_exit_2(mismatched_files, capsys, argv, msg):
    rc = main([mismatched_files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and msg in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv,msg", [
    (["det-symmetry", "--field", "F4"], "prime"),
    (["s-enumerate", "--field", "F1000000000000000000000000000057"], "cap"),
    (["cohomology", "x.sset", "--degree", "1", "--group", "Zq"], "syntax"),
])
def test_cli_bad_flag_value_exits_2(capsys, argv, msg):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert msg in capsys.readouterr().err


def test_cli_verify_refuses_flags_a_suite_lacks(capsys):
    for flag in ("--seed", "--trials"):
        rc = main(["--json", "verify", "cohomology", flag, "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "takes no %s" % flag in captured.err


def test_cli_json_before_or_after_verb(capsys):
    outs = []
    for argv in (["--json", "verify", "lattice-index", "--trials", "3"],
                 ["verify", "lattice-index", "--trials", "3", "--json"],
                 ["verify", "--json", "lattice-index", "--trials", "3"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["command"] == "verify"


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_cli_closed_stdout_keeps_exit_code(monkeypatch, lat_files, capsys):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["--json", "index", lat_files[0], lat_files[1]]) == 0
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["det-symmetry", "--trials", "3", "--ungraded"]) == 1



# index, meet, join, lift and project on fixed F3 and F5 .lat and .lmx
# files (raw .lat rows, one of them dependent), with their --json output as
# recorded before F3..F13 rows became byte lanes; cohomology, classify and
# gerbe-torsor on fixed .sset and .coch files (a 4 x 4 grid torus, the
# benchmark's Klein bottle and RP2, the 4-simplex and the 3-sphere), with
# their --json output as recorded before faces became one tuple per simplex;
# s-enumerate at (dim-cap, level-cap) = (2, 4), (5, 2), (3, 3) and (1, 40),
# with its --json output as recorded before the S-skeleton became index
# chains with face tuples.  An argv token that names one of the files
# becomes its path; every other token (--degree 1, --group Z/6, --other)
# passes through unchanged.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("run", GOLDEN["runs"],
                         ids=[" ".join(r["argv"]) for r in GOLDEN["runs"]])
def test_cli_json_is_byte_identical_to_the_golden_output(tmp_path, capsys,
                                                          run):
    for name, text in GOLDEN["files"].items():
        _write(tmp_path, name, text)
    argv = [str(tmp_path / t) if t in GOLDEN["files"] else t
            for t in run["argv"]]
    assert main(["--json"] + argv) == 0
    assert capsys.readouterr().out == run["stdout"]


# --- what `import satokit.cli` loads, and the package namespace --------------

def _fresh(*argv):
    """A fresh interpreter run with satokit from this checkout's src."""
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent
                                          / "src"))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_the_verification_modules_unloaded():
    # the file verbs need none of them; the verbs that do import theirs
    run = _fresh("-c", "import sys, satokit.cli; print(' '.join(sorted("
                 "m for m in sys.modules if m.startswith('satokit'))))")
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "satokit.tate" in loaded and "satokit.simptors" in loaded
    for name in ("verify", "swald", "detline", "dimtorsor", "complexes",
                 "exactcat"):
        assert "satokit." + name not in loaded


# the names that satokit exports, by home module
EXPORTS = {
    "abgroup": "AbelianGroup GroupElem GroupHom ZZ format_group parse_group",
    "exactlin": "F2 F3 F5 QQ Field Matrix Subspace",
    "exactcat": "FdSpace Grid3x3 LinMap SES SESInvalid complete_grid_3x3 "
                "epi_mono_factorize pullback_admissible_monos "
                "pushout_admissible_epis",
    "laurent": "LaurentMatrix LaurentPoly",
    "tate": "Lattice TateSES TateSESInvalid TateSpace "
            "lattice_contains lattice_join lattice_meet lattice_normalize "
            "lift_lattice project_lattice relative_index split_tate_ses "
            "standard_lattice",
    "dimtorsor": "DimTheory RelTheory mu_combine pushout_along "
                 "torsor_difference",
    "detline": "DetRule DetTheory GradedLine LineIso check_symmetry "
               "delta_relative det_line koszul_swap lambda_ses",
    "simptors": "Cochain CohomologyResult GerbeRep MultTorsorRep "
                "SimplicialSet check_mult_torsor evaluate_even_odd "
                "gerbe_to_torsor street_boundaries validate_simplicial_set",
    "swald": "SObject SSkeleton build_s_object enumerate_s_skeleton "
             "s_degeneracy s_face",
}


def test_package_namespace_is_the_exported_names():
    import importlib
    import satokit
    homes = {name: module for module, names in EXPORTS.items()
             for name in names.split()}
    assert len(homes) == 67
    assert sorted(satokit.__all__) == sorted(homes)
    assert len(satokit.__all__) == 67
    for name, module in homes.items():
        home = importlib.import_module("satokit." + module)
        assert getattr(satokit, name) is getattr(home, name), name
    star = {}
    exec("from satokit import *", star)
    assert all(star[name] is getattr(satokit, name) for name in homes)
    assert set(homes) <= set(dir(satokit))
    assert satokit.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="nope"):
        satokit.nope
    from satokit import verify as verify_module
    assert verify_module is importlib.import_module("satokit.verify")


def test_verbs_that_import_on_use_run_in_fresh_processes(tmp_path, capsys):
    # in this process satokit.verify is already loaded, so only a fresh one
    # shows that each verb imports what it runs
    from satokit.tate import split_tate_ses
    ses = split_tate_ses(F5, 1, 1)
    u = lattice_normalize(TateSpace(F5, 2), -1, 1, [[1, 2, 0, 0],
                                                   [0, 0, 3, 1]])
    files = [_write(tmp_path, "i.lmx", format_laurent_matrix(ses.i)),
             _write(tmp_path, "j.lmx", format_laurent_matrix(ses.j)),
             _write(tmp_path, "u.lat", format_lattice(u))]
    for argv in (["verify", "mu", "--trials", "1"],
                 ["det-symmetry", "--trials", "2"],
                 ["mu-eval", *files, "--group", "Z+Z/6", "--d1", "1,2"],
                 ["s-enumerate", "--dim-cap", "1", "--level-cap", "2"]):
        run = _fresh("-m", "satokit.cli", "--json", *argv)
        assert run.returncode == 0, (argv, run.stderr)
        assert main(["--json", *argv]) == 0
        assert run.stdout == capsys.readouterr().out, argv
