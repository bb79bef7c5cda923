"""Independent cross-check of LR coefficients via symmetric polynomials.

Deliberately a different algorithm from tableau counting: characters are
realized as honest multivariate polynomials, multiplied term by term, and
re-expanded in the Schur basis by leading-term elimination. The one piece of
shared machinery is the semistandard filling enumerator (with the lattice
check switched off), which keeps the cross-check independent exactly where
bugs are likeliest, in the lattice-word logic. Capped at small degrees; not
a production path.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .lr import checked
from .partitions import Partition, _check_int, enumerate_partitions
from .tableaux import SkewShape, _walk, semistandard_content_counts

DEGREE_LIMIT = 14


class MultiDegreePolynomial:
    """Sparse integer polynomial: exponent vector (one slot per variable) to
    coefficient. Zero coefficients are never stored."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int] = {
            e: c for e, c in dict(terms or {}).items() if c}

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiDegreePolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"MultiDegreePolynomial(nvars={self.nvars}, nterms={len(self.terms)})"

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def __mul__(self, other: "MultiDegreePolynomial") -> "MultiDegreePolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        small, large = sorted((self.terms, other.terms), key=len)
        out: dict[tuple[int, ...], int] = {}
        add = operator.add
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                key = tuple(map(add, e1, e2))
                value = out.get(key, 0) + c1 * c2
                if value:
                    out[key] = value
                else:
                    out.pop(key, None)
        return MultiDegreePolynomial(self.nvars, out)

    def subtract_scaled(self, other: "MultiDegreePolynomial",
                        scale: int) -> "MultiDegreePolynomial":
        """self - scale * other."""
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out = dict(self.terms)
        for e, c in other.terms.items():
            value = out.get(e, 0) - scale * c
            if value:
                out[e] = value
            else:
                out.pop(e, None)
        return MultiDegreePolynomial(self.nvars, out)


@lru_cache(maxsize=None)
def _schur_cached(lam: Partition, nvars: int) -> MultiDegreePolynomial:
    histogram = semistandard_content_counts(SkewShape(lam, Partition()), nvars)
    return MultiDegreePolynomial(nvars, histogram)


def schur_polynomial(lam: Iterable[int], nvars: int) -> MultiDegreePolynomial:
    """Sum of x^content over semistandard fillings of ``lam`` with entries
    at most ``nvars``; symmetric by construction."""
    lam = Partition(lam)
    _check_int("nvars", nvars)
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    if len(lam) > nvars:
        raise ValueError(f"{len(lam)} rows cannot be filled with entries <= {nvars}")
    return _schur_cached(lam, nvars)


def expand_in_schur_basis(poly: MultiDegreePolynomial, degree: int,
                          nvars: int) -> dict[Partition, int]:
    """Write a symmetric homogeneous polynomial in the Schur basis by
    repeatedly cancelling the lexicographically leading term.

    Raises when the input is inhomogeneous, or reveals itself non-symmetric
    through a leading exponent that is not weakly decreasing."""
    _check_int("degree", degree)
    _check_int("nvars", nvars)
    if poly.nvars != nvars:
        raise ValueError("variable counts differ")
    for exponent in poly.terms:
        if sum(exponent) != degree:
            raise ValueError(f"not homogeneous of degree {degree}: term {exponent}")
    out: dict[Partition, int] = {}
    work = poly
    while work.terms:
        lead = max(work.terms)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise ValueError(f"not symmetric: leading exponent {lead} is not weakly decreasing")
        coeff = work.terms[lead]
        shape = Partition(lead)
        out[shape] = coeff
        work = work.subtract_scaled(schur_polynomial(shape, nvars), coeff)
    return out


@lru_cache(maxsize=None)
def _kostka(shape: Partition, cont: Partition) -> int:
    """Semistandard fillings of ``shape`` with exactly ``cont[i]`` copies of
    the letter i+1. Invariant under reordering ``cont``, so only sorted
    contents are ever cached. The leaf walk counts them, never the row
    transfer, so the cross-check shares no more of the search than the
    filling enumerator itself."""
    tally: dict[tuple, int] = {}
    _walk(shape, (), len(cont), False, cont, tally)
    return sum(tally.values())


@lru_cache(maxsize=None)
def _schur_sector(shape: Partition, nvars: int) -> dict[tuple[int, ...], int]:
    """The weakly decreasing exponents of schur_polynomial(shape, nvars) with
    their coefficients. A symmetric polynomial is determined by this sector,
    and on it the coefficients are plain Kostka numbers."""
    out: dict[tuple[int, ...], int] = {}
    for cont in enumerate_partitions(shape.size, max_length=nvars):
        k = _kostka(shape, cont)
        if k:
            out[tuple(cont) + (0,) * (nvars - len(cont))] = k
    return out


def lr_via_polynomials(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int],
                       nvars: int | None = None) -> int:
    """LR coefficient read off from a product of Schur polynomials.

    Equals the coefficient of ``nu`` in expand_in_schur_basis applied to
    schur_polynomial(lam) * schur_polynomial(mu), but computed on the weakly
    decreasing exponents only. Both factors are symmetric by construction, so
    the elimination never consults any other exponent, and the restriction
    avoids materializing the full product near the degree cap.

    Any variable count that fits all three shapes, at least the longest of
    len(lam), len(mu) and len(nu), gives the same answer (the suite checks
    the default and default+1); the default uses exactly that many. Combined
    sizes above ``DEGREE_LIMIT`` are refused."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    degree = lam.size + mu.size
    if degree > DEGREE_LIMIT:
        raise ValueError(f"cross-check capped at combined size {DEGREE_LIMIT}, got {degree}")
    if nvars is None:
        nvars = max(len(lam), len(mu), len(nu), 1)
    _check_int("nvars", nvars)
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    for factor in (lam, mu):
        if len(factor) > nvars:
            raise ValueError(
                f"{len(factor)} rows cannot be filled with entries <= {nvars}")
    if len(nu) > nvars or nu.size != degree:
        return 0
    # iterate the smaller factor's full monomial list; the bigger factor is
    # only ever probed at single contents, where Kostka symmetry applies
    small, big = (lam, mu) if lam.size <= mu.size else (mu, lam)
    small_terms = _schur_cached(small, nvars).terms
    work: dict[tuple[int, ...], int] = {}
    for target in enumerate_partitions(degree, max_length=nvars):
        padded = tuple(target) + (0,) * (nvars - len(target))
        total = 0
        for exponent, coeff in small_terms.items():
            rest = tuple(map(int.__sub__, padded, exponent))
            if min(rest) >= 0:
                total += coeff * _kostka(big, Partition(sorted(rest, reverse=True)))
        if total:
            work[padded] = total
    expansion: dict[Partition, int] = {}
    while work:
        lead = max(work)
        coeff = work.pop(lead)
        shape = Partition(lead)
        expansion[shape] = coeff
        for exponent, k in _schur_sector(shape, nvars).items():
            if exponent == lead:
                continue
            value = work.get(exponent, 0) - coeff * k
            if value:
                work[exponent] = value
            else:
                work.pop(exponent, None)
    return checked(expansion.get(nu, 0))
