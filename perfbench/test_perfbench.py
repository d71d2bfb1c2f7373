"""Tests of the benchmark's own oracles, on hand-worked cases, and of the
determinism of its inputs.  They import nothing from satokit.

    python -m pytest -q perfbench
"""

import random

import inputs
import oracles
from tracing import Tracer


# --- F2 bit rows ---------------------------------------------------------------

def test_f2_product_and_rank():
    a = [oracles.bits([1, 1]), oracles.bits([0, 1])]
    b = [oracles.bits([1, 0]), oracles.bits([1, 1])]
    # (1 1; 0 1)(1 0; 1 1) = (0 1; 1 1) over F2
    assert oracles.f2_mul(a, b) == [oracles.bits([0, 1]),
                                    oracles.bits([1, 1])]
    assert oracles.f2_rank([0b11, 0b01, 0b10]) == 2
    assert oracles.f2_rank([0b101, 0b101]) == 1
    assert oracles.f2_rank([0]) == 0


# --- F5 elimination ------------------------------------------------------------

def test_rank_mod_5():
    assert oracles.rank_mod([[1, 0], [0, 1]], 5) == 2
    # det(1 2; 3 1) = 1 - 6 = -5 = 0 in F5, though it is -5 over Q
    assert oracles.rank_mod([[1, 2], [3, 1]], 5) == 1
    assert oracles.rank_mod([[1, 2], [3, 1]], 7) == 2
    assert oracles.rank_mod([[0, 0, 0]], 5) == 0
    assert oracles.rank_mod([], 5) == 0


# --- lattices ------------------------------------------------------------------

O2 = (2, 0, 0, [])                # O^2
T_O2 = (2, 1, 1, [])              # t O^2
A = (2, 0, 1, [[1, 0]])           # k u_1 + t O^2
A_RAW = (2, -1, 1, [[0, 0, 1, 0], [0, 0, 2, 0]])   # A, not normalised


def test_index_formula():
    assert oracles.lat_index(O2, T_O2, 5) == 2      # dim O^2 / t O^2
    assert oracles.lat_index(T_O2, O2, 5) == -2
    assert oracles.lat_index(A, T_O2, 5) == 1
    assert oracles.lat_index(O2, A, 5) == 1
    assert oracles.lat_index(A_RAW, T_O2, 5) == 1
    # t^3 O^2 against O^2 at rank 2 is -6
    assert oracles.lat_index((2, 3, 3, []), O2, 5) == -6


def test_lattice_dim_and_containment():
    assert oracles.lat_dim(A, 2, 5) == 3             # u_1, t u_1, t u_2
    assert oracles.lat_dim(O2, 2, 5) == 4
    assert oracles.lat_contains(O2, A, 5)
    assert not oracles.lat_contains(A, O2, 5)
    assert oracles.lat_contains(A, T_O2, 5)
    assert oracles.lat_contains(A, A_RAW, 5)
    assert oracles.lat_contains(A_RAW, A, 5)
    # k u_2 + t O^2 is not inside A
    assert not oracles.lat_contains(A, (2, 0, 1, [[0, 3]]), 5)
    # a lattice far below lies in one far above
    assert oracles.lat_contains(A, (2, 70, 74, [[1] * 8]), 5)


def test_parse_lat():
    text = "tate rank=2 field=F5\nbounds lo=-1 hi=1\n0,0,6,0\n"
    assert oracles.parse_lat(text) == (2, 5, -1, 1, [[0, 0, 1, 0]])
    lat = inputs.rand_lattice(random.Random(3), 7)
    n, p, lo, hi, rows = oracles.parse_lat(inputs.format_lat(lat))
    assert (n, lo, hi, rows) == lat and p == inputs.LAT_P


# --- cohomology ----------------------------------------------------------------

def test_invariant_factors():
    assert oracles.invariant_factors([6, 2]) == (2, 6)
    assert oracles.invariant_factors([4, 6]) == (2, 12)
    assert oracles.invariant_factors([2, 3, 0]) == (6, 0)
    assert oracles.invariant_factors([]) == ()


def test_surface_cohomology_table():
    want = {
        ("torus", 1, 0): "Z+Z", ("torus", 2, 0): "Z",
        ("klein", 1, 0): "Z", ("klein", 2, 0): "Z/2",
        ("rp2", 1, 0): "0", ("rp2", 2, 0): "Z/2",
        ("torus", 1, 6): "Z/6+Z/6", ("torus", 2, 6): "Z/6",
        ("klein", 1, 6): "Z/2+Z/6", ("klein", 2, 6): "Z/2",
        ("rp2", 1, 6): "Z/2", ("rp2", 2, 6): "Z/2",
    }
    for (kind, deg, coeff), group in want.items():
        assert oracles.surface_cohomology(kind, deg, coeff) == group


def test_grid_surfaces_are_triangulations():
    # Euler characteristic 0, 0, 1 and no repeated triangle; checked inside
    # surface_sset, which raises otherwise
    for kind in inputs.SURFACES:
        text = inputs.surface_sset(kind, random.Random(0))
        dims = [int(l.split()[1]) for l in text.splitlines()]
        g = inputs.GRID
        assert dims.count(2) == 2 * g * g
        assert dims.count(1) == 3 * g * g


# --- inputs --------------------------------------------------------------------

def _files(tmp_path, workload, seed, tag):
    out = tmp_path / tag
    inputs.FILES[workload](inputs.round_rng(workload, seed, 0), str(out))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_same_seed_same_input_files(tmp_path):
    for workload in ("lattice-windows", "cohomology"):
        first = _files(tmp_path, workload, 5, workload + "-1")
        again = _files(tmp_path, workload, 5, workload + "-2")
        other = _files(tmp_path, workload, 6, workload + "-3")
        assert first and first == again
        assert first != other


def test_same_seed_same_operations():
    for workload, make in (("fdcat-f2", inputs.fdcat_round),
                           ("lift-project", inputs.lift_project_round)):
        assert make(inputs.round_rng(workload, 5, 2)) == \
            make(inputs.round_rng(workload, 5, 2))
        assert make(inputs.round_rng(workload, 5, 2)) != \
            make(inputs.round_rng(workload, 5, 3))


# --- tracing -------------------------------------------------------------------

def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [("bench.op", 0.0, 10.0, -1), ("cli.main", 1.0, 5.0, 0),
               ("fileio.parse_lattice", 2.0, 3.0, 1),
               ("tate.window_rows", 6.0, 8.0, 0)]
    own = t.self_times()
    assert own == {"bench.op": 4.0, "cli.main": 3.0,
                   "fileio.parse_lattice": 1.0, "tate.window_rows": 2.0}
