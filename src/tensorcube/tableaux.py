"""Skew shapes and skew tableaux: reading words, the semistandard and
lattice-word conditions, and backtracking enumeration of fillings.

The search core fills boxes top to bottom and right to left within each row,
which is exactly the reading-word order: the lattice condition becomes a
prefix property and prunes the search as early as possible. The same core,
with the quota and lattice checks switched off, enumerates plain semistandard
fillings (used by the polynomial cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .partitions import Partition, contains, render


@dataclass(frozen=True)
class SkewShape:
    """The boxes of ``outer`` that are not boxes of ``inner``."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        object.__setattr__(self, "outer", Partition(self.outer))
        object.__setattr__(self, "inner", Partition(self.inner))
        if not contains(self.inner, self.outer):
            raise ValueError(
                f"inner shape ({render(self.inner)}) does not sit inside ({render(self.outer)})")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_span(self, i: int) -> tuple[int, int]:
        """Half-open column interval of the boxes in row ``i`` (0-indexed)."""
        lo = self.inner[i] if i < len(self.inner) else 0
        return lo, self.outer[i]

    def boxes(self) -> list[tuple[int, int]]:
        """All (row, column) coordinates, row-major."""
        return [(i, j) for i in range(len(self.outer)) for j in range(*self.row_span(i))]


@dataclass(frozen=True)
class SkewTableau:
    """A filling of a skew shape.

    ``rows[i]`` holds row ``i``'s entries left to right, skew boxes only; a
    row fully covered by the inner shape contributes an empty tuple."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != len(self.shape.outer):
            raise ValueError(f"expected {len(self.shape.outer)} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            lo, hi = self.shape.row_span(i)
            if len(row) != hi - lo:
                raise ValueError(f"row {i} must have {hi - lo} entries, got {len(row)}")
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                    raise ValueError(f"entries must be positive integers, got {entry!r}")

    def entry(self, i: int, j: int) -> int:
        """Entry at row ``i``, absolute column ``j``."""
        lo, hi = self.shape.row_span(i)
        if not lo <= j < hi:
            raise KeyError((i, j))
        return self.rows[i][j - lo]


def word(tableau: SkewTableau) -> tuple[int, ...]:
    """Reading word: rows top to bottom, each row right to left."""
    letters: list[int] = []
    for row in tableau.rows:
        letters.extend(reversed(row))
    return tuple(letters)


def content(tableau: SkewTableau) -> tuple[int, ...]:
    """Box counts per letter; index ``k`` counts the letter ``k+1``."""
    top = 0
    counts: list[int] = []
    for row in tableau.rows:
        for entry in row:
            if entry > top:
                counts.extend([0] * (entry - top))
                top = entry
            counts[entry - 1] += 1
    return tuple(counts)


def is_semistandard(tableau: SkewTableau) -> bool:
    """Rows weakly increase left to right; columns strictly increase top to
    bottom. Only pairs of filled boxes constrain each other."""
    shape = tableau.shape
    for i, row in enumerate(tableau.rows):
        for a, b in zip(row, row[1:]):
            if a > b:
                return False
        if i == 0:
            continue
        lo, hi = shape.row_span(i)
        plo, _ = shape.row_span(i - 1)
        for j in range(max(lo, plo), hi):
            if tableau.rows[i - 1][j - plo] >= row[j - lo]:
                return False
    return True


def is_lattice(letters: Sequence[int]) -> bool:
    """Every prefix holds at least as many ``j`` as ``j+1``, for every ``j``."""
    counts: dict[int, int] = {}
    for x in letters:
        seen = counts.get(x, 0) + 1
        if x > 1 and counts.get(x - 1, 0) < seen:
            return False
        counts[x] = seen
    return True


def is_lr_tableau(tableau: SkewTableau) -> bool:
    """Semistandard with a lattice reading word."""
    return is_semistandard(tableau) and is_lattice(word(tableau))


def _search(shape: SkewShape, nletters: int, quota: list[int] | None,
            lattice: bool, on_leaf: Callable) -> None:
    """Backtracking core over the reading-word box order.

    ``quota`` fixes the per-letter box counts (None leaves them free);
    ``counts`` doubles as the lattice prefix tally because boxes are filled
    in reading order.
    """
    spans = [shape.row_span(i) for i in range(len(shape.outer))]
    boxes = [(i, j, lo) for i, (lo, hi) in enumerate(spans) for j in range(hi - 1, lo - 1, -1)]
    rows = [[0] * (hi - lo) for lo, hi in spans]
    counts = [0] * (nletters + 1)
    nboxes = len(boxes)

    def place(k: int) -> None:
        if k == nboxes:
            on_leaf(rows, counts)
            return
        i, j, lo = boxes[k]
        top = rows[i][j + 1 - lo] if j + 1 < spans[i][1] else nletters
        if i:
            plo = spans[i - 1][0]
            bottom = rows[i - 1][j - plo] + 1 if plo <= j else 1
        else:
            bottom = 1
        for x in range(bottom, top + 1):
            if quota is not None and not quota[x - 1]:
                continue
            if lattice and x > 1 and counts[x - 1] <= counts[x]:
                continue
            rows[i][j - lo] = x
            counts[x] += 1
            if quota is not None:
                quota[x - 1] -= 1
            place(k + 1)
            counts[x] -= 1
            if quota is not None:
                quota[x - 1] += 1

    place(0)


def count_lr_fillings(shape: SkewShape, cont: Iterable[int]) -> int:
    """Number of Littlewood-Richardson fillings of ``shape`` with the given
    content; zero when the box counts disagree."""
    cont = Partition(cont)
    if shape.size != cont.size:
        return 0
    hits = 0

    def bump(rows, counts):
        nonlocal hits
        hits += 1

    _search(shape, len(cont), list(cont), True, bump)
    return hits


def enumerate_lr_tableaux(shape: SkewShape, cont: Iterable[int]) -> list[SkewTableau]:
    """Every Littlewood-Richardson filling of ``shape`` with content ``cont``,
    in smallest-entry-first order; empty when the box counts disagree."""
    cont = Partition(cont)
    out: list[SkewTableau] = []
    if shape.size != cont.size:
        return out
    _search(shape, len(cont), list(cont), True,
            lambda rows, counts: out.append(SkewTableau(shape, tuple(tuple(r) for r in rows))))
    return out


def enumerate_semistandard_tableaux(shape: SkewShape, max_entry: int) -> list[SkewTableau]:
    """Every semistandard filling of ``shape`` with entries in 1..max_entry."""
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")
    out: list[SkewTableau] = []
    _search(shape, max_entry, None, False,
            lambda rows, counts: out.append(SkewTableau(shape, tuple(tuple(r) for r in rows))))
    return out


def semistandard_content_counts(shape: SkewShape, max_entry: int) -> dict[tuple[int, ...], int]:
    """Histogram of contents over all semistandard fillings with entries in
    1..max_entry; keys are full length-``max_entry`` count vectors."""
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")
    out: dict[tuple[int, ...], int] = {}

    def bump(rows, counts):
        key = tuple(counts[1:])
        out[key] = out.get(key, 0) + 1

    _search(shape, max_entry, None, False, bump)
    return out


def ascii_diagram(tableau: SkewTableau) -> str:
    """Text diagram, one line per row, ``.`` marking the removed inner boxes."""
    cells_by_row = []
    width = 1
    for i, row in enumerate(tableau.rows):
        lo, _ = tableau.shape.row_span(i)
        cells = ["."] * lo + [str(e) for e in row]
        width = max(width, max((len(c) for c in cells), default=1))
        cells_by_row.append(cells)
    return "\n".join(" ".join(c.rjust(width) for c in cells) for cells in cells_by_row)


def shape_diagram(shape: SkewShape, box: str = "#") -> str:
    """Diagram of the bare shape: ``.`` for inner boxes, ``box`` for cells."""
    lines = []
    for i in range(len(shape.outer)):
        lo, hi = shape.row_span(i)
        lines.append(" ".join(["."] * lo + [box] * (hi - lo)))
    return "\n".join(lines)


def tableau_json(tableau: SkewTableau) -> dict:
    """JSON form: rendered shapes plus full rows, ``None`` in inner boxes."""
    rows = []
    for i, row in enumerate(tableau.rows):
        lo, _ = tableau.shape.row_span(i)
        rows.append([None] * lo + list(row))
    return {"outer": render(tableau.shape.outer),
            "inner": render(tableau.shape.inner),
            "rows": rows}
