"""Exact tensor product combinatorics for the classical families:
Littlewood-Richardson and Newell-Littlewood coefficients, decomposition of
products of irreducibles, and the cube-detection predicate with constructive
certificates.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a command line
process pays only for the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "partitions": ("AllEven", "DistinctOddEvenLength", "Hook", "Partition", "Rectangle",
                   "ShapeFamily", "classify", "contains", "enumerate_partitions", "parse",
                   "render"),
    "tableaux": ("SkewShape", "SkewTableau", "ascii_diagram", "content",
                 "count_lr_fillings", "enumerate_lr_tableaux",
                 "enumerate_semistandard_tableaux", "is_lattice", "is_lr_tableau",
                 "is_semistandard", "shape_diagram", "tableau_json", "word"),
    "lr": ("INT64_MAX", "clear_cache", "lr_coefficient", "skew_expansion"),
    "newell_littlewood": ("DecompositionResult", "GroupSpec", "nl_coefficient",
                          "nl_coefficient_full", "nl_sum_support", "tensor_decompose"),
    "detection": ("DetectionVerdict", "SweepReport", "WitnessTriple", "build_witness",
                  "detects", "verify_even_theorem", "verify_odd_theorem",
                  "witness_all_even", "witness_distinct_odd", "witness_hook",
                  "witness_rectangle"),
    "oracle": ("MultiDegreePolynomial", "expand_in_schur_basis", "lr_via_polynomials",
               "schur_polynomial"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import a public name's home module on first access and keep the
    name; a home module itself is imported the same way."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
