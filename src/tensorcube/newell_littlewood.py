"""Tensor product structure constants shared by the odd orthogonal,
symplectic and even orthogonal families.

The constant pairing three partitions sums c(alpha, beta -> lam) *
c(alpha, gamma -> mu) * c(beta, gamma -> nu) over triangles. One walk over
alpha and the terms beta of s_{lam/alpha} serves the count, which adds the
first factor times the dot product of s_{mu/alpha} with s_{nu/beta} (each
once, on the conjugate labels when they have fewer rows), and the support
listing, which joins the two expansions on gamma. The walk keeps one
expansion table per label, keyed by plain tuples, and refuses a search past
the depth budget before listing the alphas; partitions are built, unchecked,
only for the triangles that leave the module. The stable decomposition is
the same sum as symmetric functions, the sum over alpha of s_{lam/alpha} *
s_{mu/alpha}: one disconnected outer shape with one inner shape per alpha,
letters capped at the rank, read as one expansion by the routine that
builds the skew expansions. Nothing the sums keep outlives their call.
The constant is fully symmetric, vanishes unless the total size is even,
and restricts to a single LR coefficient in top degree.
"""

from __future__ import annotations

from typing import Iterable

from .lr import _Expansions, _expand, _smaller_first, checked, lr_coefficient
from .partitions import Partition, _made, _Record, _set, partitions_inside, render
from .tableaux import _check_depth


def _meet(lam: Partition, mu: Partition) -> Partition:
    """Componentwise minimum: the largest shape inside both."""
    return _made(map(min, lam, mu))


def _walk(lam: Partition, mu: Partition, nu: Partition):
    """The triple sum's outer loop: (alpha, s_{mu/alpha}, s_{lam/alpha},
    s_{nu/.}) over alpha of the forced size inside lam and mu, in
    reverse-lex order, where the terms beta of s_{lam/alpha} make the inner
    loop and s_{nu/.}[beta] is s_{nu/beta}; nothing when the total size is
    odd or the forced sizes go negative. The expansions are keyed by plain
    tuples, betas included, in the order their search first meets them.
    Each distinct label gets one expansion table and each expansion is
    searched once per walk; both end with the walk."""
    twice = lam.size + mu.size - nu.size
    if twice < 0 or twice % 2:
        return
    meet, size = _meet(lam, mu), twice // 2
    if size <= meet.size:
        # an alpha exists: refuse its first walks (mu's, then lam's) before listing
        _check_depth(mu.size - size)
        _check_depth(lam.size - size)
    by_label: dict[tuple, _Expansions] = {}
    for shape in (lam, mu, nu):
        if shape not in by_label:
            by_label[shape] = _Expansions(shape)
    from_lam, from_mu, from_nu = by_label[lam], by_label[mu], by_label[nu]
    for alpha in partitions_inside(meet, size):
        yield alpha, from_mu[alpha], from_lam[alpha], from_nu


def _triangles(lam: Partition, mu: Partition, nu: Partition):
    """Every triangle (alpha, beta, gamma) with all three factors positive,
    as (alpha, beta, gamma, c_ab, c_ag, c_bg), in reverse-lex nesting order:
    the terms gamma of s_{mu/alpha} that s_{nu/beta} shares, over the walk.
    Beta and gamma are plain tuples."""
    for alpha, left, betas, from_nu in _walk(lam, mu, nu):
        gammas = sorted(left.items(), reverse=True)
        for beta, cab in sorted(betas.items(), reverse=True):
            right = from_nu[beta]
            for gamma, cag in gammas:
                cbg = right.get(gamma)
                if cbg:
                    yield alpha, beta, gamma, cab, cag, cbg


def _dot(left: dict[tuple, int], right: dict[tuple, int]) -> int:
    """The dot product of two expansions, looping over the shorter."""
    short, long = (left, right) if len(left) <= len(right) else (right, left)
    get = long.get
    dot = 0
    for gamma, c in short.items():
        dot += c * get(gamma, 0)
    return dot


def nl_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Structure constant pairing the three labels.

    Counts without listing the triangles: over the walk it adds c_ab times
    the dot product of s_{mu/alpha} with s_{nu/beta}, looping over the
    shorter expansion, and takes each dot product once per call, whichever
    of the two expansions comes first (with mu = nu, as in a self-pairing,
    most come twice). The constant is that of the conjugate labels, so it
    counts on the conjugate side when that side has fewer rows in total,
    where the searches use fewer letters. Returns 0 immediately when the
    total size is odd, where the sizes force no alpha size. Every term is
    positive, so one check of the total refuses exactly the sums that leave
    64-bit range."""
    labels = (Partition(lam), Partition(mu), Partition(nu))
    if sum(p[0] for p in labels if p) < sum(map(len, labels)):
        labels = tuple(p.conjugate() for p in labels)
    # every expansion stays in the walk's memo for the whole call, so its
    # id names it
    dots: dict[tuple[int, int], int] = {}
    total = 0
    for _, left, betas, from_nu in _walk(*labels):
        a = id(left)
        for beta, cab in betas.items():
            right = from_nu[beta]
            b = id(right)
            key = (a, b) if a < b else (b, a)
            dot = dots.get(key)
            if dot is None:
                dot = dots[key] = _dot(left, right)
            total += cab * dot
    return checked(total)


def nl_coefficient_full(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Same value as :func:`nl_coefficient`, deliberately naive: no
    expansions, dot-product memo or conjugation. The sizes force |alpha| =
    (|lam| + |mu| - |nu|) / 2: an odd total has no alpha size and sums to 0,
    else it visits every triangle whose three sizes fit, each factor a
    separate LR coefficient and each unordered triple counted once per call."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    asize, odd = divmod(lam.size + mu.size - nu.size, 2)
    if odd or not 0 <= asize <= min(lam.size, mu.size):
        return 0
    bsize, gsize = lam.size - asize, mu.size - asize
    memo: dict[tuple[Partition, Partition, Partition], int] = {}

    def coefficient(a: Partition, b: Partition, c: Partition, a_size: int, b_size: int) -> int:
        key = (*_smaller_first(a, b, a_size, b_size), c)
        value = memo.get(key)
        if value is None:
            value = memo[key] = lr_coefficient(a, b, c)
        return value

    beta_candidates = partitions_inside(lam, bsize)
    gamma_candidates = partitions_inside(mu, gsize)
    total = 0
    for alpha in partitions_inside(_meet(lam, mu), asize):
        betas = []
        for beta in beta_candidates:
            cab = coefficient(alpha, beta, lam, asize, bsize)
            if cab:
                betas.append((beta, cab))
        if not betas:
            continue
        for gamma in gamma_candidates:
            cag = coefficient(alpha, gamma, mu, asize, gsize)
            if not cag:
                continue
            for beta, cab in betas:
                cbg = coefficient(beta, gamma, nu, bsize, gsize)
                if cbg:
                    total += cab * cag * cbg
    return checked(total)


def nl_sum_support(lam: Iterable[int], mu: Iterable[int],
                   nu: Iterable[int]) -> list[tuple[Partition, Partition, Partition]]:
    """The triangles (alpha, beta, gamma) with all three factors positive, in
    deterministic reverse-lex nesting order, off the same walk as the count;
    empty when the forced sizes go negative or the total size is odd."""
    return [(a, _made(b), _made(g))
            for a, b, g, *_ in _triangles(Partition(lam), Partition(mu), Partition(nu))]


_FAMILIES = ("B", "C", "D")


class GroupSpec(_Record):
    """One of the three classical families, by letter, with its rank.

    Family D is restricted to even rank so that all the modules involved
    stay self-dual."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in _FAMILIES:
            raise ValueError(f"family must be one of B, C, D, got {family!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        if family == "D" and rank % 2:
            raise ValueError(f"family D requires an even rank, got {rank}")
        _set(self, "family", family)
        _set(self, "rank", rank)

    @property
    def max_weight_length(self) -> int:
        """Longest partition usable as an input highest weight."""
        return self.rank - 1 if self.family == "D" else self.rank


class DecompositionResult(_Record):
    """Multiplicity map for a product of two irreducibles.

    ``terms`` are the admissible output weights (reverse-lex within each
    degree, degrees descending). For family D, weights that use all ``rank``
    rows are reported in ``inadmissible`` rather than dropped or trusted.
    ``stable`` is set when the input lengths sum to at most the rank, which
    keeps every output weight inside the rank filter; without it the map is
    the stable product filtered by length, not the decomposition."""

    __slots__ = ("group", "left", "right", "terms", "inadmissible", "stable")

    def __init__(self, group: GroupSpec, left: Partition, right: Partition,
                 terms: dict, inadmissible: dict, stable: bool):
        _set(self, "group", group)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "terms", terms)
        _set(self, "inadmissible", inadmissible)
        _set(self, "stable", stable)

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
    stable product, the Schur coefficients of the sum over alpha of
    s_{lam/alpha} * s_{mu/alpha}, filtered by length; they are exact only
    when ``stable`` is true (for C2, (1,1) x (1,1) has dimension 25, the
    terms add up to 30).

    Each alpha's product is one content-free walk of a disconnected shape,
    the same outer shape for every alpha, and every filling of every walk
    goes into one tally for the whole product, so nothing is memoized. The
    search has at most ``rank`` letters, so the weights the rank filter
    would drop are never found; ``partitions._made`` builds the weights
    unchecked, and the largest multiplicity is checked against 64-bit range."""
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
    meet = _meet(lam, mu)
    # s_{lam/alpha} * s_{mu/alpha} expands one disconnected shape: lam/alpha
    # shifted right past mu's first row (alpha fits in mu, so the inner shape
    # is a partition) above mu/alpha; the blocks share no row and no column.
    w = mu[0] if mu else 0
    outer = tuple(part + w for part in lam) + mu
    inners = (tuple(part + w for part in alpha) + (w,) * (len(lam) - len(alpha)) + alpha
              for asize in range(meet.size + 1) for alpha in partitions_inside(meet, asize))
    # A weight of length at most n is exactly the content of a filling with
    # letters 1..n, so capping the letters is the rank filter. The exact
    # decomposition below the stable range (King's modification rules) needs
    # the long terms too, and will search with len(outer) letters instead.
    terms, inadmissible = _expand(outer, inners, min(n, len(outer))), {}
    if group.family == "D":  # one pass sets the weights of length n aside
        for nu in [nu for nu in terms if len(nu) == n]:
            inadmissible[nu] = terms.pop(nu)
    return DecompositionResult(group, lam, mu, terms, inadmissible, len(lam) + len(mu) <= n)
