"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (no tolerances); the stated wall-clock budgets are
asserted as well.  The checks themselves live in satokit.verify so the same
code runs under `satokit verify`.
"""

from satokit import verify


def _run(criterion, budget_s, fn, **kwargs):
    result = fn(**kwargs)
    status = "PASS" if result.passed else "FAIL"
    print("%s criterion %s: %s (%d checked, %.2fs, budget %ds)"
          % (status, criterion, result.name, result.checked,
             result.elapsed, budget_s))
    for f in result.failures[:10]:
        print("    failure: %s" % f)
    assert result.passed, result.failures[:10]
    assert result.elapsed < budget_s, \
        "criterion %s exceeded its %ds budget (%.2fs)" % (
            criterion, budget_s, result.elapsed)
    return result


def test_criterion_1_lattice_index_suite():
    # 500 random diagonal monomial lattices, rank <= 4, |shift| <= 5
    _run("1", 5, verify.suite_lattice_index, seed=101, trials=500)


def test_criterion_2_index_cocycle_and_modular_law():
    # 10^3 random triples/pairs over F_2 and F_5, rank <= 3
    _run("2", 30, verify.suite_index_laws, seed=102, trials=1000)


def test_criterion_3_lift_project_exactness_and_order():
    # 10^3 split-then-twisted chains, automorphism exponents in [-2, 2]
    _run("3", 60, verify.suite_lift_project, seed=103, trials=1000)


def test_criterion_4_partially_abelian_witness():
    # exhaustive mono-then-epi factorization over F_2, dims <= 3
    _run("4", 10, verify.suite_factorization)


def test_criterion_5_grid_completion():
    # exhaustive cartesian admissible squares over F_2, ambient dim <= 3
    _run("5", 10, verify.suite_grid)


def test_criterion_6_determinant_symmetry():
    # graded det symmetric (exhaustive F_2 dims <= 2, 200 random F_5);
    # ungraded det fails (k, k) over F_5 with -1 vs 1; criteria agree
    _run("6", 20, verify.suite_det_symmetry, seed=106, trials=200)


def test_criterion_7_cohomology_oracle():
    # H^1(circle) = Z, H^2(boundary of the 3-simplex) = Z, H^2(torus) = Z,
    # H^2(projective plane, Z/2) = Z/2, via Smith normal form
    _run("7", 2, verify.suite_cohomology)


def test_criterion_8_torsor_classification():
    # exhaustive degree-1 Z/2 torsors on the projective plane
    _run("8", 60, verify.suite_classification)


def test_criterion_9_pasting_identity():
    # E - O = (delta alpha) for degrees 0..2 on all test complexes
    _run("9", 5, verify.suite_pasting, seed=109)


def test_criterion_10_s_construction():
    # simplicial identities on the full F_2, D = 2, N = 4 skeleton; the
    # dimension theory passes the 0-torsor check and the graded determinant
    # the 1-torsor check; an injected grading fault is detected
    _run("10", 120, verify.suite_s_construction)


def test_criterion_11_gerbe_to_torsor():
    # every valid gerbe in the corpus induces a torsor passing the pasting
    # check; coboundary betas classify to zero
    _run("11", 10, verify.suite_gerbe, seed=111)
