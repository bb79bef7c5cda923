"""Littlewood-Richardson coefficients by direct tableau counting.

Enumeration of lattice-word fillings is the single production algorithm,
with the content fixed (one coefficient) or free (every expansion, of a
skew shape or of a whole product, read by one routine off the search's
content tally, keyed by plain partitions as tuples). Since c(lam, mu; nu) =
c(mu, lam; nu), a coefficient is counted on its smaller side: nu less the
larger lower shape, filled with the smaller one as content, so the search
fills min(|lam|, |mu|) boxes. The ``oracle`` module recomputes the same
numbers through symmetric polynomial arithmetic so the test suite can
cross-validate. Values are exact non-negative integers, and the arithmetic
refuses to leave signed 64-bit range instead of growing silently.

Nothing here outlives a call. Every value one Newell-Littlewood sum reads
has one of its three labels as the outer shape, so no value is reused from
one weight to the next: a sum keeps one ``_Expansions`` per label, which
searches each inner shape once and ends with the sum.
"""

from __future__ import annotations

from typing import Iterable

from .partitions import Partition, _inside, _made
from .tableaux import SkewShape, _tally, count_lr_fillings

INT64_MAX = 2**63 - 1


def checked(value: int) -> int:
    """Pass ``value`` through, refusing anything above signed 64-bit range."""
    if value > INT64_MAX:
        raise OverflowError(f"coefficient arithmetic left 64-bit range: {value}")
    return value


def _smaller_first(lam: Partition, mu: Partition, lam_size: int,
                   mu_size: int) -> tuple[Partition, Partition]:
    """The lower shapes of an LR triple, the smaller first: by size, then
    number of parts, then parts. Its content is the cheaper one to fill,
    with fewer boxes or, at one size, fewer letters."""
    if (mu_size, len(mu), mu) < (lam_size, len(lam), lam):
        return mu, lam
    return lam, mu


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """c(lam, mu; nu): zero unless the sizes add up and both lower shapes
    fit inside ``nu``; otherwise the number of Littlewood-Richardson
    tableaux of shape ``nu`` less the larger lower shape, with the smaller
    as content (the number with shape ``nu - lam`` and content ``mu`` is
    the same). Either order of ``lam`` and ``mu`` runs the same search."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    lam_size, mu_size = lam.size, mu.size
    if nu.size != lam_size + mu_size:
        return 0
    if not (_inside(lam, nu) and _inside(mu, nu)):
        return 0
    small, large = _smaller_first(lam, mu, lam_size, mu_size)
    return checked(count_lr_fillings(SkewShape(nu, large), small))


def _terms(tally: dict[tuple, int]) -> dict[tuple, int]:
    """A lattice tally as expansion terms, its largest multiplicity checked,
    which checks them all."""
    if tally:
        checked(max(tally.values()))
    return tally


def _expand(outer: tuple, inners: Iterable[tuple], nletters: int) -> dict[Partition, int]:
    """The contents of the lattice fillings of outer/inner over the inner
    shapes with letters 1..nletters, keyed by partitions (partitions._made
    builds them unchecked), degrees descending and reverse-lex within each degree."""
    terms = _terms(_tally(outer, inners, nletters, True))
    return {_made(beta): terms[beta]
            for beta in sorted(sorted(terms, reverse=True), key=sum, reverse=True)}


class _Expansions(dict):
    """s_{outer/inner} by inner shape: ``self[inner]``, for a plain
    partition ``inner``, is keyed by plain tuples in the order the search
    first meets them, and empty when the inner shape does not fit. Each
    inner shape is searched on first use, and its expansion ends with the
    object."""

    __slots__ = ("outer",)

    def __init__(self, outer: tuple):
        super().__init__()
        self.outer = outer

    def __missing__(self, inner: tuple) -> dict[tuple, int]:
        # row i of a lattice filling uses letters up to i + 1 only
        found = self[inner] = (_terms(_tally(self.outer, [inner], len(self.outer), True))
                               if _inside(inner, self.outer) else {})
        return found


def skew_expansion(outer: Iterable[int], inner: Iterable[int]) -> dict[Partition, int]:
    """s_{outer/inner} in the Schur basis, ``{beta: c(inner, beta -> outer)}``
    without zero terms, from one search with the content left free; a fresh
    dict on every call, its terms in reverse-lex order."""
    outer, inner = Partition(outer), Partition(inner)
    # row i of a lattice filling uses letters up to i + 1 only
    return _expand(outer, [inner] if _inside(inner, outer) else [], len(outer))


def clear_cache() -> None:
    """Do nothing: the package keeps no memo between calls. Kept so that
    callers which clear before each timed or checked call still run."""
