"""Tensor product structure constants shared by the odd orthogonal,
symplectic and even orthogonal families.

The constant pairing three partitions sums c(alpha, beta -> lam) *
c(alpha, gamma -> mu) * c(beta, gamma -> nu) over triangles, read off
skew-Schur expansions; the decomposition is the same sum as symmetric
functions, the sum over alpha of s_{lam/alpha} * s_{mu/alpha}, filtered by
rank. The constant is fully symmetric, vanishes unless the total size is
even, and restricts to a single LR coefficient in top degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .lr import _shared_cache, _store, checked, lr_coefficient_memo, skew_expansion
from .partitions import Partition, partitions_inside, render


def _subpartitions(bound: Partition, size: int) -> tuple[Partition, ...]:
    """Partitions of ``size`` fitting inside ``bound``, reverse-lex order,
    memoized in the shared store under ``(bound, size)``."""
    found = _shared_cache.get((bound, size))
    if found is None:
        found = tuple(partitions_inside(bound, size))
        _store((bound, size), found)
    return found


def _meet(lam: Partition, mu: Partition) -> Partition:
    """Componentwise minimum: the largest shape inside both."""
    return Partition(min(a, b) for a, b in zip(lam, mu))


def _product(beta: Partition, gamma: Partition) -> Mapping[Partition, int]:
    """s_beta * s_gamma in the Schur basis: the expansion of the disconnected
    skew shape with beta shifted right past gamma's first row, gamma below."""
    width = gamma[0] if gamma else 0
    return skew_expansion([b + width for b in beta] + list(gamma), [width] * len(beta))


def _triangles(lam: Partition, mu: Partition, nu: Partition):
    """Every triangle (alpha, beta, gamma) with all three factors positive,
    as (alpha, beta, gamma, c_ab, c_ag, c_bg), in reverse-lex nesting order;
    nothing when the total size is odd or the forced sizes go negative."""
    twice = lam.size + mu.size - nu.size
    if twice < 0 or twice % 2:
        return
    for alpha in _subpartitions(_meet(lam, mu), twice // 2):
        left = skew_expansion(mu, alpha)
        for beta, cab in sorted(skew_expansion(lam, alpha).items(), reverse=True):
            right = skew_expansion(nu, beta)
            for gamma in sorted(left.keys() & right.keys(), reverse=True):
                yield alpha, beta, gamma, cab, left[gamma], right[gamma]


def nl_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Structure constant pairing the three labels.

    Returns 0 immediately when the total size is odd; the shortcut agrees
    with the full sum (the suite confirms this by running the sum without
    it, see :func:`nl_coefficient_full`)."""
    total = 0
    for *_, cab, cag, cbg in _triangles(Partition(lam), Partition(mu), Partition(nu)):
        total = checked(total + checked(checked(cab * cag) * cbg))
    return total


def nl_coefficient_full(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Same value as :func:`nl_coefficient`, deliberately naive: no parity
    shortcut, no expansions; every triangle allowed by the first two factors
    is visited and each factor is a separate memoized coefficient."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    total = 0
    for asize in range(min(lam.size, mu.size) + 1):
        for alpha in _subpartitions(_meet(lam, mu), asize):
            betas = []
            for beta in _subpartitions(lam, lam.size - asize):
                cab = lr_coefficient_memo(alpha, beta, lam)
                if cab:
                    betas.append((beta, cab))
            if not betas:
                continue
            for gamma in _subpartitions(mu, mu.size - asize):
                cag = lr_coefficient_memo(alpha, gamma, mu)
                if not cag:
                    continue
                for beta, cab in betas:
                    cbg = lr_coefficient_memo(beta, gamma, nu)
                    if cbg:
                        total = checked(total + checked(checked(cab * cag) * cbg))
    return total


def nl_sum_support(lam: Iterable[int], mu: Iterable[int],
                   nu: Iterable[int]) -> list[tuple[Partition, Partition, Partition]]:
    """The triangles (alpha, beta, gamma) with all three factors positive, in
    deterministic reverse-lex nesting order; empty when the forced sizes go
    negative or the total size is odd."""
    return [(a, b, g) for a, b, g, *_ in _triangles(Partition(lam), Partition(mu), Partition(nu))]


_FAMILIES = ("B", "C", "D")


@dataclass(frozen=True)
class GroupSpec:
    """One of the three classical families, by letter, with its rank.

    Family D is restricted to even rank so that all the modules involved
    stay self-dual."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of B, C, D, got {self.family!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.family == "D" and self.rank % 2:
            raise ValueError(f"family D requires an even rank, got {self.rank}")

    @property
    def max_weight_length(self) -> int:
        """Longest partition usable as an input highest weight."""
        return self.rank - 1 if self.family == "D" else self.rank


@dataclass(frozen=True, eq=True)
class DecompositionResult:
    """Multiplicity map for a product of two irreducibles.

    ``terms`` are the admissible output weights (reverse-lex within each
    degree, degrees descending). For family D, weights that use all ``rank``
    rows are reported in ``inadmissible`` rather than dropped or trusted.
    ``stable`` is set when the input lengths sum to at most the rank, which
    keeps every output weight inside the rank filter."""

    group: GroupSpec
    left: Partition
    right: Partition
    terms: dict
    inadmissible: dict
    stable: bool

    def to_json(self) -> dict:
        return {
            "group": {"family": self.group.family, "rank": self.group.rank},
            "lambda": render(self.left),
            "mu": render(self.right),
            "terms": [{"nu": render(nu), "mult": m} for nu, m in self.terms.items()],
            "inadmissible": [{"nu": render(nu), "mult": m} for nu, m in self.inadmissible.items()],
            "stable": self.stable,
        }


def tensor_decompose(lam: Iterable[int], mu: Iterable[int],
                     group: GroupSpec) -> DecompositionResult:
    """Decompose the product of the irreducibles labelled ``lam`` and ``mu``.

    Inputs must fit the rank (family D additionally needs the last weight
    coordinate zero, i.e. length at most rank-1). The multiplicities are the
    Schur coefficients of the sum over alpha of s_{lam/alpha} * s_{mu/alpha},
    kept where the length is at most the rank; they do not depend on the
    family, only the rank filtering does."""
    lam, mu = Partition(lam), Partition(mu)
    limit = group.max_weight_length
    for name, p in (("lambda", lam), ("mu", mu)):
        if len(p) > limit:
            if group.family == "D":
                raise ValueError(
                    f"{name} has {len(p)} parts; family D of rank {group.rank} needs the "
                    f"last weight coordinate zero, so at most {limit} parts")
            raise ValueError(f"{name} has {len(p)} parts, more than rank {group.rank}")
    n = group.rank
    found: dict[Partition, int] = {}
    meet = _meet(lam, mu)
    for asize in range(meet.size + 1):
        for alpha in _subpartitions(meet, asize):
            right = skew_expansion(mu, alpha)
            for beta, cb in skew_expansion(lam, alpha).items():
                for gamma, cg in right.items():
                    weight = checked(cb * cg)
                    for nu, c in _product(beta, gamma).items():
                        if len(nu) <= n:
                            found[nu] = checked(found.get(nu, 0) + checked(weight * c))
    ordered = sorted(found.items(), key=lambda term: (term[0].size, term[0]), reverse=True)
    aside = group.family == "D"
    terms = {nu: m for nu, m in ordered if not (aside and len(nu) == n)}
    inadmissible = {nu: m for nu, m in ordered if aside and len(nu) == n}
    stable = len(lam) + len(mu) <= n
    return DecompositionResult(group, lam, mu, terms, inadmissible, stable)
