"""Integer partitions and their shape classification.

Partitions index everything in this package: tableau shapes, highest weights
and coefficient labels. They are immutable, canonical (trailing zeros
stripped at construction) and hash like plain tuples.
"""

from __future__ import annotations

import itertools
from operator import le
from typing import Iterable, Union

ENUMERATION_LIMIT = 64


def _check_int(name: str, value) -> None:
    """Refuse, with a ValueError naming ``name``, a count argument that is
    not an int; a bool is refused too, though Python counts it as one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _is_decimal(text: str) -> bool:
    """True iff ``text`` is one or more ASCII digits. ``str.isdecimal``,
    ``int`` and the regex ``\\d`` also take other scripts' digits, such as
    the fullwidth ``３``; text at the input boundary must not."""
    return text.isascii() and text.isdecimal()


class Partition(tuple):
    """Weakly decreasing tuple of positive integers, checked unless built by :func:`_made`."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is Partition:
            return parts
        parts = tuple(parts)
        end = len(parts)
        while end and parts[end - 1] == 0 and type(parts[end - 1]) is int:
            end -= 1
        parts = parts[:end]  # one copy, however many zeros trail
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
        parts = []
        rows = len(self)
        for j in range(self[0] if self else 0):
            while self[rows - 1] <= j:  # the rows that reach column j
                rows -= 1
            parts.append(rows)
        return _made(parts)


def _made(parts: Iterable[int]) -> Partition:
    """The Partition of ``parts`` that the package made valid itself, unchecked."""
    return tuple.__new__(Partition, parts)


def parse(text: str) -> Partition:
    """Parse comma-separated terms ``p`` or ``p^a`` into a partition.

    ``"4^2,3,1^2"`` gives (4,4,3,1,1); the empty string gives the empty
    partition. Text that would give more than ``ENUMERATION_LIMIT`` parts is
    refused before any part is allocated. Inverse of :func:`render`.
    """
    text = text.strip()
    if not text:
        return Partition()
    parts: list[int] = []
    for raw in text.split(","):
        term = raw.strip()
        value, caret, count = term.partition("^")
        if not _is_decimal(value) or (caret and not _is_decimal(count)):
            raise ValueError(f"malformed partition term {term!r}")
        value, count = int(value), int(count) if caret else 1
        if value < 1:
            raise ValueError(f"partition parts must be positive, got {value} in {text!r}")
        if count < 1:
            raise ValueError(f"multiplicity must be positive, got {count} in {text!r}")
        if len(parts) + count > ENUMERATION_LIMIT:
            raise ValueError(
                f"partition bounded to <= {ENUMERATION_LIMIT} parts, got more in {text!r}")
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
    return _inside(Partition(inner), Partition(outer))


def _inside(inner: tuple, outer: tuple) -> bool:
    """:func:`contains` for two shapes that are already partitions, plain
    tuples included, taken as they are."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


class _Record:
    """Base of the package's immutable value types: each subclass names its
    fields in ``__slots__`` and sets them once in ``__init__`` through
    ``_set``.

    Records are equal when they are of the same class with equal fields,
    hash like the tuple of their fields, show as ``Name(field=value, ...)``,
    refuse assignment with ``AttributeError``, and pickle and copy by calling
    the class again on their fields, so a copy passes the same checks."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


_set = object.__setattr__  # the one way to fill a record's slot


class AllEven(_Record):
    """Every part is even; vacuously true for the empty partition."""

    __slots__ = ()
    kind = "all-even"

    def describe(self) -> str:
        return self.kind


class DistinctOddEvenLength(_Record):
    """All parts distinct and odd, with evenly many parts."""

    __slots__ = ()
    kind = "distinct-odd-even-length"

    def describe(self) -> str:
        return self.kind


class Hook(_Record):
    """Shape (1+arm, 1^leg): one row joined to one column."""

    __slots__ = ("arm", "leg")
    kind = "hook"

    def __init__(self, arm: int, leg: int):
        _set(self, "arm", arm)
        _set(self, "leg", leg)

    def describe(self) -> str:
        return f"hook(arm={self.arm},leg={self.leg})"


class Rectangle(_Record):
    """``rows`` equal parts of size ``cols``."""

    __slots__ = ("rows", "cols")
    kind = "rectangle"

    def __init__(self, rows: int, cols: int):
        _set(self, "rows", rows)
        _set(self, "cols", cols)

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
    _check_int("total", total)
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration bounded to totals <= {ENUMERATION_LIMIT}, got {total}")
    for name, bound in (("max_length", max_length), ("max_part", max_part)):
        if bound is not None:
            _check_int(name, bound)
            if bound < 1:
                raise ValueError(f"{name} must be positive or None, got {bound}")
    slots = total if max_length is None else min(max_length, total)
    cap = total if max_part is None else min(max_part, total)
    return partitions_inside([cap] * slots, total)


def partitions_inside(bound: Iterable[int], size: int) -> list[Partition]:
    """All partitions of ``size`` whose diagram fits inside ``bound``,
    reverse-lexicographic (largest first); none for a negative ``size``."""
    _check_int("size", size)
    bound = Partition(bound)
    found: list[Partition] = []

    def descend(i: int, remaining: int, largest: int, prefix: tuple, room: int) -> None:
        # room: the boxes of bound's rows i on
        if remaining == 0:
            found.append(_made(prefix))
            return
        if i == len(bound):
            return
        rows, below = len(bound) - i, room - bound[i]
        for part in range(min(bound[i], largest, remaining), 0, -1):
            # each row below holds at most ``part`` boxes, and all of them ``below``
            if part * rows < remaining or part + below < remaining:
                break
            descend(i + 1, remaining - part, part, prefix + (part,), below)

    descend(0, size, size, (), sum(bound))
    return found
