"""Exact character tables and centralizer algebra structure for
permutation groups given by generators.

The layers, bottom up: perm (permutations, the stabilizer chain that
gives a group's order and makes its elements, conjugacy classes, orbit
counts), exact (cyclotomic field arithmetic), modp (the choice of prime,
its primitive root and the root scan), dixon (character table
computation), chartab (tables as data: validation, decomposition,
matching), datasets (embedded groups and the published reference
table), tensor (tensor power multiplicities and commutant structure),
pipeline (cached end-to-end analyses), cli (command line).
"""

from .chartab import (CharacterTable, ClassFunction, ClassInfo,
                      DecompositionError, Finding, MatchResult, TableErrata,
                      Violation, decompose, inner_product, load_table,
                      match_columns, permutation_character, table_from_dict,
                      table_to_dict, validate)
from .dixon import compute_character_table
from .errors import CtrzError, InconsistencyError, InputError
from .exact import Cyclotomic, QuadraticView, cyclotomic_polynomial
from .perm import (ClassSet, ConjugacyClass, FiniteGroup, Permutation,
                   format_cycles, orbit_count_tuples, parse_cycles)
from .pipeline import GroupAnalysis, analysis_from_file, builtin_analysis
from .tensor import (SemisimpleStructure, agreed_multiplicities,
                     closed_form_multiplicities, dimension_closed_form,
                     dims_row, multiplicities_direct,
                     multiplicities_recurrence, transition_matrix)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable", "ClassFunction", "ClassInfo", "ClassSet",
    "ConjugacyClass", "CtrzError", "Cyclotomic", "DecompositionError",
    "Finding", "FiniteGroup", "GroupAnalysis", "InconsistencyError",
    "InputError", "MatchResult", "Permutation", "QuadraticView",
    "SemisimpleStructure", "TableErrata", "Violation", "agreed_multiplicities",
    "analysis_from_file", "builtin_analysis", "closed_form_multiplicities",
    "compute_character_table", "cyclotomic_polynomial", "decompose",
    "dimension_closed_form", "dims_row", "format_cycles", "inner_product",
    "load_table", "match_columns", "multiplicities_direct",
    "multiplicities_recurrence", "orbit_count_tuples", "parse_cycles",
    "permutation_character", "table_from_dict", "table_to_dict",
    "transition_matrix", "validate",
]
