"""Exact tensor product combinatorics for the classical families:
Littlewood-Richardson and Newell-Littlewood coefficients, decomposition of
products of irreducibles, and the cube-detection predicate with constructive
certificates."""

from .partitions import (AllEven, DistinctOddEvenLength, Hook, Partition,
                         Rectangle, ShapeFamily, classify, contains,
                         enumerate_partitions, parse, render)
from .tableaux import (SkewShape, SkewTableau, ascii_diagram, content,
                       count_lr_fillings, enumerate_lr_tableaux,
                       enumerate_semistandard_tableaux, is_lattice,
                       is_lr_tableau, is_semistandard, shape_diagram,
                       tableau_json, word)
from .lr import (INT64_MAX, clear_cache, lr_coefficient, lr_coefficient_memo,
                 skew_expansion)
from .newell_littlewood import (DecompositionResult, GroupSpec, nl_coefficient,
                                nl_coefficient_full, nl_sum_support,
                                tensor_decompose)
from .detection import (DetectionVerdict, SweepReport, WitnessTriple,
                        build_witness, detects, verify_even_theorem,
                        verify_odd_theorem, witness_all_even,
                        witness_distinct_odd, witness_hook, witness_rectangle)
from .oracle import (MultiDegreePolynomial, expand_in_schur_basis,
                     lr_via_polynomials, schur_polynomial)

__version__ = "0.1.0"

__all__ = [
    "AllEven", "DistinctOddEvenLength", "Hook", "Partition", "Rectangle",
    "ShapeFamily", "classify", "contains", "enumerate_partitions", "parse",
    "render",
    "SkewShape", "SkewTableau", "ascii_diagram", "content",
    "count_lr_fillings", "enumerate_lr_tableaux",
    "enumerate_semistandard_tableaux", "is_lattice", "is_lr_tableau",
    "is_semistandard", "shape_diagram", "tableau_json", "word",
    "INT64_MAX", "clear_cache", "lr_coefficient", "lr_coefficient_memo",
    "skew_expansion",
    "DecompositionResult", "GroupSpec", "nl_coefficient",
    "nl_coefficient_full", "nl_sum_support", "tensor_decompose",
    "DetectionVerdict", "SweepReport", "WitnessTriple", "build_witness",
    "detects", "verify_even_theorem", "verify_odd_theorem",
    "witness_all_even", "witness_distinct_odd", "witness_hook",
    "witness_rectangle",
    "MultiDegreePolynomial", "expand_in_schur_basis", "lr_via_polynomials",
    "schur_polynomial",
]
