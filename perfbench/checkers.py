"""Independent checkers for the benchmark's outputs.

Each one is written from the mathematical definition, not from the library's
code paths: partitions are generated afresh, an LR tableau is validated box
by box against shape, content, semistandardness and the lattice word, the
Weyl dimension formula gives B_n, C_n and D_n dimensions, Euler's pentagonal
recurrence counts partitions, and the Newell-Littlewood triple sum is rebuilt
on top of any LR function passed in (the benchmark passes the polynomial
route, ``tensorcube.oracle.lr_via_polynomials``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every partition of ``n`` as a tuple, largest first."""
    top = n if max_part is None else min(n, max_part)
    if n == 0:
        yield ()
        return
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(p: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


def contains(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """True when the diagram of ``inner`` fits inside that of ``outer``."""
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            p[m] += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
    return p[n]


def lr_tableau_problem(outer: Sequence[int], inner: Sequence[int], content: Sequence[int],
                       rows: Sequence[Sequence]) -> str | None:
    """Why ``rows`` is not an LR tableau of shape outer/inner with the given
    content, or None when it is one.

    ``rows`` are full rows: ``None`` in each box of the inner shape, a
    positive integer in each skew box."""
    if len(rows) != len(outer):
        return f"{len(rows)} rows for an outer shape with {len(outer)}"
    inner = list(inner) + [0] * (len(outer) - len(inner))
    if len(inner) > len(outer):
        return "inner shape longer than outer shape"
    counts = [0] * (len(content) + 1)
    for i, row in enumerate(rows):
        if len(row) != outer[i]:
            return f"row {i} has {len(row)} boxes, outer shape has {outer[i]}"
        for j, x in enumerate(row):
            if j < inner[i]:
                if x is not None:
                    return f"box ({i},{j}) lies in the inner shape but holds {x!r}"
                continue
            if type(x) is not int or not 1 <= x <= len(content):
                return f"box ({i},{j}) holds {x!r}, outside 1..{len(content)}"
            counts[x] += 1
            if j > inner[i] and row[j - 1] > x:
                return f"row {i} decreases at column {j}"
            if i and j < len(rows[i - 1]) and j >= inner[i - 1] and rows[i - 1][j] >= x:
                return f"column {j} does not increase strictly at row {i}"
    if counts[1:] != list(content):
        return f"content {counts[1:]} differs from {list(content)}"
    seen = [0] * (len(content) + 2)
    for row in rows:
        for x in reversed(row):
            if x is None:
                continue
            seen[x] += 1
            if x > 1 and seen[x] > seen[x - 1]:
                return "reading word is not a lattice word"
    return None


@lru_cache(maxsize=None)
def weyl_dimension(family: str, rank: int, weight: tuple[int, ...]) -> int:
    """Dimension of the irreducible of B_n, C_n or D_n with highest weight
    ``weight`` (a partition with at most ``rank`` parts), by Weyl's product
    over the positive roots of <weight + rho, root> / <rho, root>."""
    n = rank
    if len(weight) > n:
        raise ValueError(f"weight {tuple(weight)} has more than {n} parts")
    lam = list(weight) + [0] * (n - len(weight))
    shift = {"B": Fraction(1, 2), "C": Fraction(0), "D": Fraction(1)}[family]
    rho = [n - i - shift for i in range(n)]
    top = [lam[i] + rho[i] for i in range(n)]
    value = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            value *= (top[i] - top[j]) / (rho[i] - rho[j])
            value *= (top[i] + top[j]) / (rho[i] + rho[j])
        if family != "D":
            value *= top[i] / rho[i]
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral dimension {value}")
    return int(value)


def dimension_identity_problem(family: str, rank: int, lam: Sequence[int], mu: Sequence[int],
                               terms: dict, inadmissible: dict) -> str | None:
    """Check dim lam * dim mu = sum of mult * dim nu for a stable product.

    For family D, an ``inadmissible`` weight uses all ``rank`` rows; the
    orthogonal-group module it labels splits into two special-orthogonal
    modules of equal dimension, so it counts twice."""
    left = weyl_dimension(family, rank, lam) * weyl_dimension(family, rank, mu)
    right = sum(m * weyl_dimension(family, rank, nu) for nu, m in terms.items())
    right += sum(2 * m * weyl_dimension(family, rank, nu) for nu, m in inadmissible.items())
    if left != right:
        return f"{family}{rank}: dim product {left} != sum of parts {right}"
    return None


def nl_triple_sum(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int],
                  lr: Callable[[tuple, tuple, tuple], int]) -> int:
    """Newell-Littlewood number as the triple sum over all partitions alpha,
    beta, gamma of c(alpha,beta -> lam) c(alpha,gamma -> mu) c(beta,gamma -> nu),
    with ``lr(a, b, c)`` giving the LR coefficient of c in a*b."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    twice = sum(lam) + sum(mu) - sum(nu)
    if twice < 0 or twice % 2:
        return 0
    a = twice // 2
    b, g = sum(lam) - a, sum(mu) - a
    if b < 0 or g < 0:
        return 0
    total = 0
    for alpha in partitions(a):
        if not (contains(alpha, lam) and contains(alpha, mu)):
            continue
        for beta in partitions(b):
            c1 = lr(alpha, beta, lam) if contains(beta, lam) else 0
            if not c1:
                continue
            for gamma in partitions(g):
                if contains(gamma, mu) and contains(gamma, nu):
                    total += c1 * lr(alpha, gamma, mu) * lr(beta, gamma, nu)
    return total
