"""Exact computational models for lattices in Laurent-series spaces,
dimensional and determinantal torsors, and multiplicative torsors on
finite simplicial sets."""

from .abgroup import AbelianGroup, GroupElem, GroupHom, ZZ, format_group, \
    parse_group
from .exactlin import F2, F3, F5, QQ, Field, Matrix, Subspace
from .exactcat import (FdSpace, Grid3x3, LinMap, SES, SESInvalid,
                       complete_grid_3x3, epi_mono_factorize,
                       pullback_admissible_monos, pushout_admissible_epis)
from .laurent import LaurentMatrix, LaurentPoly
from .tate import (Lattice, LatticeGrid, TateSES, TateSESInvalid, TateSpace,
                   lattice_contains, lattice_join, lattice_meet,
                   lattice_normalize, lift_lattice, project_lattice,
                   relative_index, split_tate_ses, standard_lattice)
from .dimtorsor import (DimTheory, RelTheory, mu_combine, pushout_along,
                        torsor_difference)
from .detline import (DetRule, DetTheory, GradedLine, LineIso,
                      check_symmetry, delta_relative, det_line, graded_det,
                      koszul_swap, lambda_ses, ungraded_det)
from .simptors import (Cochain, CohomologyResult, GerbeRep, MultTorsorRep,
                       SimplicialSet, check_mult_torsor, evaluate_even_odd,
                       gerbe_to_torsor, street_boundaries,
                       validate_simplicial_set)
from .swald import (SObject, SSkeleton, build_s_object, enumerate_s_skeleton,
                    s_degeneracy, s_face)

__version__ = "0.1.0"
