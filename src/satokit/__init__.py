"""Exact computational models for lattices in Laurent-series spaces,
dimensional and determinantal torsors, and multiplicative torsors on
finite simplicial sets.

The names in __all__ load on first use (PEP 562), each from its home
module, so importing a module of the package imports only what it needs."""

import importlib

_HOMES = {name: words[0] for words in map(str.split, """
    abgroup AbelianGroup GroupElem GroupHom ZZ format_group parse_group;
    exactlin F2 F3 F5 QQ Field Matrix Subspace;
    exactcat FdSpace Grid3x3 LinMap SES SESInvalid complete_grid_3x3
    epi_mono_factorize pullback_admissible_monos pushout_admissible_epis;
    laurent LaurentMatrix LaurentPoly;
    tate Lattice TateSES TateSESInvalid TateSpace lattice_contains lattice_join
    lattice_meet lattice_normalize lift_lattice project_lattice relative_index
    split_tate_ses standard_lattice;
    dimtorsor DimTheory RelTheory mu_combine pushout_along torsor_difference;
    detline DetRule DetTheory GradedLine LineIso check_symmetry delta_relative
    det_line graded_det koszul_swap lambda_ses ungraded_det;
    simptors Cochain CohomologyResult GerbeRep MultTorsorRep SimplicialSet
    check_mult_torsor evaluate_even_odd gerbe_to_torsor street_boundaries
    validate_simplicial_set;
    swald SObject SSkeleton build_s_object enumerate_s_skeleton s_degeneracy
    s_face""".split(";")) for name in words[1:]}
__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:  # so `from satokit import verify` imports it
        raise AttributeError("module 'satokit' has no attribute %r" % name)
    globals()[name] = value = getattr(  # later reads skip this hook
        importlib.import_module("satokit." + _HOMES[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
