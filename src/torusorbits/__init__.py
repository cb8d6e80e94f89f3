"""Exact stratification of locally divergent maximal-torus orbit closures
on SL_n quotients over number fields, with unit-closure classification and
decomposable-form value scans."""

__version__ = "0.1.0"

from .numfield import (ArchimedeanPlace, CmStructure, FieldElement,
                       NumberField, UnitClosureReport, create_field,
                       field_norm, is_cm, unit_closure_classify)
from .rootdata import (ParabolicDescriptor, RootSubset, WeylElement, all_weyl,
                       coset_representatives, longest_element, n_psi,
                       parabolic_descriptor, unipotent_positions)
from .decomp import (BlockLDU, MatrixK, MinorTable, block_ldu, bruhat_cell,
                     cell_membership, diagonal_matrix, unipotent_matrix)
from .strata import (OrbitInput, ParabolicPair, StrataSet, StratumRecord,
                     closed_strata, closure_poset, enumerate_strata,
                     is_orbit_closed, summary_line, verify_counts)
from .dynamics import (BoundednessReport, SystoleTrace, TorusPath,
                       check_boundedness, predicted_limit, run_path, systole)
from .forms import (CmCheckReport, DecomposableForm, DensityReport, FormScan,
                    SpectrumReport, cm_obstruction_check, density_report,
                    form_to_group, is_rational, make_form, reduce_variables,
                    scan_values, two_place_spectrum, verify_suborder_index)
