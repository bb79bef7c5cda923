"""Integer partitions and their shape classification.

Partitions index everything in this package: tableau shapes, highest weights
and coefficient labels. They are immutable, canonical (trailing zeros
stripped at construction) and hash like plain tuples.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Union

ENUMERATION_LIMIT = 64

_TERM_RE = re.compile(r"(\d+)(?:\^(\d+))?")


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is Partition:
            return parts
        parts = tuple(parts)
        while parts and parts[-1] == 0 and not isinstance(parts[-1], bool):
            parts = parts[:-1]
        previous = None
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"partition parts must be positive integers, got {p!r}")
            if previous is not None and p > previous:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts!r}")
            previous = p
        return super().__new__(cls, parts)

    def __getnewargs__(self):
        return (tuple(self),)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of nonzero parts."""
        return len(self)

    def conjugate(self) -> "Partition":
        """Reflect the diagram so that rows become columns."""
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p >= j) for j in range(1, self[0] + 1))


def parse(text: str) -> Partition:
    """Parse comma-separated terms ``p`` or ``p^a`` into a partition.

    ``"4^2,3,1^2"`` gives (4,4,3,1,1); the empty string gives the empty
    partition. Inverse of :func:`render`.
    """
    text = text.strip()
    if not text:
        return Partition()
    parts: list[int] = []
    for raw in text.split(","):
        term = raw.strip()
        match = _TERM_RE.fullmatch(term)
        if match is None:
            raise ValueError(f"malformed partition term {term!r}")
        value = int(match.group(1))
        count = int(match.group(2)) if match.group(2) else 1
        if value < 1:
            raise ValueError(f"partition parts must be positive, got {value} in {text!r}")
        if count < 1:
            raise ValueError(f"multiplicity must be positive, got {count} in {text!r}")
        parts.extend([value] * count)
    for a, b in itertools.pairwise(parts):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing in {text!r}")
    return Partition(parts)


def render(partition: Iterable[int]) -> str:
    """Canonical text form, with ``^`` shorthand for runs of length >= 2."""
    chunks = []
    for value, group in itertools.groupby(partition):
        count = sum(1 for _ in group)
        chunks.append(f"{value}^{count}" if count > 1 else str(value))
    return ",".join(chunks)


def contains(inner: Iterable[int], outer: Iterable[int]) -> bool:
    """True iff the diagram of ``inner`` sits inside the diagram of ``outer``."""
    inner = Partition(inner)
    outer = Partition(outer)
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


@dataclass(frozen=True)
class AllEven:
    """Every part is even; vacuously true for the empty partition."""

    kind = "all-even"

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class DistinctOddEvenLength:
    """All parts distinct and odd, with evenly many parts."""

    kind = "distinct-odd-even-length"

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Hook:
    """Shape (1+arm, 1^leg): one row joined to one column."""

    arm: int
    leg: int

    kind = "hook"

    def describe(self) -> str:
        return f"hook(arm={self.arm},leg={self.leg})"


@dataclass(frozen=True)
class Rectangle:
    """``rows`` equal parts of size ``cols``."""

    rows: int
    cols: int

    kind = "rectangle"

    def describe(self) -> str:
        return f"rectangle({self.rows}x{self.cols})"


ShapeFamily = Union[AllEven, DistinctOddEvenLength, Hook, Rectangle]


def classify(partition: Iterable[int]) -> frozenset:
    """All shape families the partition belongs to (possibly none).

    The empty partition counts as all-even and as distinct-odd-even-length
    (both vacuously) but is neither a hook nor a rectangle. Single rows and
    single columns count as hooks.
    """
    p = Partition(partition)
    found: set[ShapeFamily] = set()
    if all(x % 2 == 0 for x in p):
        found.add(AllEven())
    if len(p) % 2 == 0 and all(x % 2 == 1 for x in p) and len(set(p)) == len(p):
        found.add(DistinctOddEvenLength())
    if p and all(x == 1 for x in p[1:]):
        found.add(Hook(arm=p[0] - 1, leg=len(p) - 1))
    if p and len(set(p)) == 1:
        found.add(Rectangle(rows=len(p), cols=p[0]))
    return frozenset(found)


def enumerate_partitions(total: int, max_length: int | None = None,
                         max_part: int | None = None) -> list[Partition]:
    """All partitions of ``total`` within the bounds, reverse-lexicographic
    (largest first). ``None`` bounds are unbounded."""
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration bounded to totals <= {ENUMERATION_LIMIT}, got {total}")
    for name, bound in (("max_length", max_length), ("max_part", max_part)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} must be positive or None, got {bound}")
    slots = total if max_length is None else min(max_length, total)
    cap = total if max_part is None else min(max_part, total)
    return partitions_inside([cap] * slots, total)


def partitions_inside(bound: Iterable[int], size: int) -> list[Partition]:
    """All partitions of ``size`` whose diagram fits inside ``bound``,
    reverse-lexicographic (largest first)."""
    bound = Partition(bound)
    found: list[Partition] = []

    def descend(i: int, remaining: int, largest: int, prefix: tuple) -> None:
        if remaining == 0:
            found.append(Partition(prefix))
            return
        if i == len(bound):
            return
        for part in range(min(bound[i], largest, remaining), 0, -1):
            if part * (len(bound) - i) < remaining:
                break
            descend(i + 1, remaining - part, part, prefix + (part,))

    descend(0, size, size, ())
    return found
