"""Skew shapes and skew tableaux: reading words, the semistandard and
lattice-word conditions, and backtracking enumeration of fillings.

The search core fills boxes top to bottom and right to left within each row,
which is exactly the reading-word order: the lattice condition becomes a
prefix property and prunes the search as early as possible. It plans each box
once per search (its flat cell, its upper and right neighbours, and a letter
cap from the skew boxes below it in its column), then backtracks over one
flat list of entries, so fillings come out in lexicographic order of the
reading word. The same core, with the quota and lattice checks switched off,
enumerates plain semistandard fillings (used by the polynomial cross-check).

The core is private to this module and takes plain partitions that its
callers have already checked. Its three leaf kinds each run it and return
the answer: a count (LR and Kostka numbers), one content tally over many
shapes (skew-Schur expansions, decompositions, content histograms) and the
tableaux, whose row cut also shapes the detection module's greedy fillings.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Sequence

from .partitions import Partition, _Record, _set, contains, render


class SkewShape(_Record):
    """The boxes of ``outer`` that are not boxes of ``inner``."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Iterable[int], inner: Iterable[int]):
        outer, inner = Partition(outer), Partition(inner)
        if not contains(inner, outer):
            raise ValueError(
                f"inner shape ({render(inner)}) does not sit inside ({render(outer)})")
        _set(self, "outer", outer)
        _set(self, "inner", inner)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_span(self, i: int) -> tuple[int, int]:
        """Half-open column interval of the boxes in row ``i`` (0-indexed);
        IndexError for a row outside the shape."""
        if not 0 <= i < len(self.outer):
            raise IndexError(f"row {i} is outside the shape "
                             f"({render(self.outer)})/({render(self.inner)})")
        lo = self.inner[i] if i < len(self.inner) else 0
        return lo, self.outer[i]

    def boxes(self) -> list[tuple[int, int]]:
        """All (row, column) coordinates, row-major."""
        return [(i, j) for i in range(len(self.outer)) for j in range(*self.row_span(i))]


class SkewTableau(_Record):
    """A filling of a skew shape.

    ``rows[i]`` holds row ``i``'s entries left to right, skew boxes only; a
    row fully covered by the inner shape contributes an empty tuple."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows: Iterable[Iterable[int]]):
        rows = tuple(map(tuple, rows))
        outer, inner = shape.outer, shape.inner
        if len(rows) != len(outer):
            raise ValueError(f"expected {len(outer)} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            width = outer[i] - (inner[i] if i < len(inner) else 0)
            if len(row) != width:
                raise ValueError(f"row {i} must have {width} entries, got {len(row)}")
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                    raise ValueError(f"entries must be positive integers, got {entry!r}")
        _set(self, "shape", shape)
        _set(self, "rows", rows)

    def entry(self, i: int, j: int) -> int:
        """Entry at row ``i``, absolute column ``j``; KeyError off the shape."""
        lo, hi = self.shape.row_span(i) if 0 <= i < len(self.rows) else (0, 0)
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


def _search(outer: Sequence[int], inner: Sequence[int], nletters: int,
            quota: Sequence[int] | None, lattice: bool, on_leaf: Callable) -> None:
    """Backtracking core over the reading-word box order of outer/inner,
    plain partitions that the caller has checked, calling
    ``on_leaf(fill, counts)`` once per filling, in lexicographic order of
    the reading word.

    ``fill`` holds the entries in one flat row-major list, skew boxes only,
    followed by two sentinel cells: ``fill[-2] = 0`` stands for "no box
    above" and ``fill[-1] = nletters`` for "no right neighbour".
    ``counts[x]`` tallies the letter ``x``; it doubles as the lattice prefix
    tally because boxes are filled in reading order, and ``counts[0]`` is a
    sentinel larger than any tally, so the letter 1 always passes; only
    ``counts[1:]`` are tallies. Both lists are reused between leaves, so
    ``on_leaf`` copies what it keeps.

    ``quota`` fixes the per-letter box counts (None leaves them free, as a
    quota of ``size + 1`` that no tally reaches), and a quota whose total is
    not the box count has no filling; without ``lattice`` the lattice test
    compares against a row of such ceilings instead.

    Each box is planned once as ``(cell, above, right, cap)``: its index in
    ``fill``, the indices of its upper and right neighbours (or a sentinel),
    and its largest possible letter, ``nletters`` minus the number of skew
    boxes below it in its column. The cap is sound because column
    strictness gives those boxes strictly larger letters, all at most
    ``nletters``; a larger letter here has no completion, so no leaf is
    lost and the leaf order is unchanged.

    The search recurses once per box, so a shape with more boxes than the
    interpreter's recursion limit, less a margin for the caller's own
    frames, is refused with a ValueError before anything is planned.
    """
    size = sum(outer) - sum(inner)
    if quota is not None and sum(quota) != size:
        return
    budget = sys.getrecursionlimit() - 100
    if size > budget:
        raise ValueError(f"the tableau search would fill {size} boxes, "
                         f"more than its depth budget of {budget}")
    foot = [0] * (outer[0] if outer else 0)
    j = 0
    for i in range(len(outer) - 1, -1, -1):
        while j < outer[i]:
            foot[j] = i  # the lowest row of column j
            j += 1
    plan = []
    start = 0
    above_lo = above_start = len(foot)  # row 0 has no row above it
    for i, hi in enumerate(outer):
        lo = inner[i] if i < len(inner) else 0
        for j in range(hi - 1, lo - 1, -1):
            cell = start + j - lo
            plan.append((cell, above_start + j - above_lo if j >= above_lo else -2,
                         cell + 1 if j + 1 < hi else -1, nletters - foot[j] + i))
        above_lo, above_start = lo, start
        start += hi - lo
    fill = [0] * (size + 2)
    fill[-1] = nletters
    counts = [size + 1] + [0] * nletters
    ceiling = [0, *quota] if quota is not None else [size + 1] * (nletters + 1)
    bar = counts if lattice else [size + 1] * (nletters + 1)
    last = size - 1

    def place(k: int) -> None:
        cell, above, right, cap = plan[k]
        top = fill[right]
        for x in range(fill[above] + 1, (top if top < cap else cap) + 1):
            c = counts[x]
            if c < ceiling[x] and bar[x - 1] > c:
                fill[cell] = x
                counts[x] = c + 1
                if k == last:
                    on_leaf(fill, counts)
                else:
                    place(k + 1)
                counts[x] = c

    if size:
        place(0)
    else:
        on_leaf(fill, counts)


# The search's three leaf kinds: a count, a content tally and the tableaux.


def _count(outer: Sequence[int], inner: Sequence[int], quota: Sequence[int],
           lattice: bool) -> int:
    """Number of fillings of outer/inner with content ``quota``."""
    hits = 0

    def bump(fill, counts):
        nonlocal hits
        hits += 1

    _search(outer, inner, len(quota), quota, lattice, bump)
    return hits


def _tally(shapes: Iterable[tuple], nletters: int, lattice: bool) -> dict[tuple, int]:
    """The content of every filling of every (outer, inner) shape with
    letters 1..nletters, tallied into one dict keyed by ``tuple(counts)``:
    the sentinel ``size + 1``, then the count of each letter. With one
    letter count, equal contents share a key whatever shape they came from."""
    tally: dict[tuple, int] = {}

    def bump(fill, counts):
        found = tuple(counts)
        tally[found] = tally.get(found, 0) + 1
    for outer, inner in shapes:
        _search(outer, inner, nletters, None, lattice, bump)
    return tally


def _cuts(shape: SkewShape) -> list[tuple[int, int]]:
    """Slice bounds of each row of ``shape`` in its row-major list of entries."""
    cuts = []
    start = 0
    for i in range(len(shape.outer)):
        lo, hi = shape.row_span(i)
        cuts.append((start, start + hi - lo))
        start += hi - lo
    return cuts


def _collect(shape: SkewShape, nletters: int, quota: Sequence[int] | None,
             lattice: bool) -> list[SkewTableau]:
    """Every filling of ``shape``, as tableaux in the search's order."""
    cuts = _cuts(shape)
    out: list[SkewTableau] = []
    _search(shape.outer, shape.inner, nletters, quota, lattice,
            lambda fill, counts: out.append(SkewTableau(shape, [fill[a:b] for a, b in cuts])))
    return out


def count_lr_fillings(shape: SkewShape, cont: Iterable[int]) -> int:
    """Number of Littlewood-Richardson fillings of ``shape`` with the given
    content; zero when the box counts disagree."""
    return _count(shape.outer, shape.inner, Partition(cont), True)


def enumerate_lr_tableaux(shape: SkewShape, cont: Iterable[int]) -> list[SkewTableau]:
    """Every Littlewood-Richardson filling of ``shape`` with content ``cont``,
    in smallest-entry-first order; empty when the box counts disagree."""
    cont = Partition(cont)
    return _collect(shape, len(cont), cont, True)


def enumerate_semistandard_tableaux(shape: SkewShape, max_entry: int) -> list[SkewTableau]:
    """Every semistandard filling of ``shape`` with entries in 1..max_entry."""
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")
    return _collect(shape, max_entry, None, False)


def semistandard_content_counts(shape: SkewShape, max_entry: int) -> dict[tuple[int, ...], int]:
    """Histogram of contents over all semistandard fillings with entries in
    1..max_entry; keys are full length-``max_entry`` count vectors."""
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")
    tally = _tally([(shape.outer, shape.inner)], max_entry, False)
    return {found[1:]: n for found, n in tally.items()}


# The most cells a diagram is drawn with, inner boxes included: a larger
# one is refused before any of it is built.
_MAX_DIAGRAM_CELLS = 10**6


def _check_drawable(outer: Partition) -> None:
    """Refuse, with a ValueError, a diagram of more than
    ``_MAX_DIAGRAM_CELLS`` cells, one per box of ``outer``."""
    cells = outer.size
    if cells > _MAX_DIAGRAM_CELLS:
        raise ValueError(f"a diagram of {cells} cells is past the drawing bound "
                         f"of {_MAX_DIAGRAM_CELLS} cells")


def ascii_diagram(tableau: SkewTableau) -> str:
    """Text diagram, one line per row, ``.`` marking the removed inner boxes."""
    _check_drawable(tableau.shape.outer)
    cells_by_row = []
    width = 1
    for i, row in enumerate(tableau.rows):
        lo, _ = tableau.shape.row_span(i)
        cells = ["."] * lo + [str(e) for e in row]
        width = max(width, max((len(c) for c in cells), default=1))
        cells_by_row.append(cells)
    return "\n".join(" ".join(c.rjust(width) for c in cells) for cells in cells_by_row)


def shape_diagram(shape: SkewShape) -> str:
    """Diagram of the bare shape: ``.`` for inner boxes, ``#`` for cells."""
    _check_drawable(shape.outer)
    lines = []
    for i in range(len(shape.outer)):
        lo, hi = shape.row_span(i)
        lines.append(" ".join(["."] * lo + ["#"] * (hi - lo)))
    return "\n".join(lines)


def tableau_json(tableau: SkewTableau) -> dict:
    """JSON form: rendered shapes plus full rows, ``None`` in inner boxes."""
    _check_drawable(tableau.shape.outer)
    rows = []
    for i, row in enumerate(tableau.rows):
        lo, _ = tableau.shape.row_span(i)
        rows.append([None] * lo + list(row))
    return {"outer": render(tableau.shape.outer),
            "inner": render(tableau.shape.inner),
            "rows": rows}
