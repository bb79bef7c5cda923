"""Skew shapes and skew tableaux: reading words, the semistandard and
lattice-word conditions, and backtracking enumeration of fillings.

The search core fills boxes top to bottom and right to left within each row,
which is exactly the reading-word order: the lattice condition becomes a
prefix property and prunes the search as early as possible. A walk lays
out its own skew boxes (each one's cell, its upper and right neighbours,
and a letter cap from the boxes below it in its column), then backtracks
over them, so fillings come out in lexicographic order of the reading
word, and has one leaf action: each filling adds 1 to a tally, keyed by
its letter counts or, for tableaux, by its entries.
The same core, with the quota and lattice checks switched off, enumerates
plain semistandard fillings (used by the polynomial cross-check).

A count of fixed content on 8 or more non-empty skew rows runs the same
boxes and the same per-box loop as a row transfer instead: one row at a
time, from each state of a frontier, where a state is the letter counts
and the row's entries above the next row's boxes, all that the rows below
read of it. Fillings that agree on a state merge into one entry with a
multiplicity, so the cost follows the number of distinct states, not the
count. On fewer rows the leaf walk is faster. The tableaux keep the leaf
walk, since every filling is their output; so do the content tallies,
whose searches are small enough that building states costs more than
merging them saves.

The core is private to the package and takes plain partitions that its
callers have already checked. Its three leaf kinds each run it and read
the tally: a count is its sum (LR numbers; the oracle sums a leaf walk's
tally itself for its Kostka numbers), a content tally over
many inner shapes of one outer shape comes back keyed by plain contents
(skew-Schur expansions, decompositions, content histograms), and the
tableaux are built from the filled entries after the search, with the row
cut that also shapes the detection module's poured certificates. The tally's
key format is known to this module alone.

Tableaux are checked at the boundary: the public ``SkewTableau``
constructor checks the row lengths and entries of a tableau built outside
the search, ``is_lr_tableau`` the LR conditions of any tableau (each poured
certificate). The search's own tableaux, valid by construction, skip both.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Iterable, Sequence

from .partitions import Partition, _Record, _check_int, _set, contains, render


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
    row fully covered by the inner shape contributes an empty tuple.

    The constructor checks the row lengths against the shape and that every
    entry is a positive int (not a bool); it does not check the
    semistandard or lattice conditions, which :func:`is_lr_tableau` does.
    The tableau search builds its own fillings, valid by construction,
    without these checks."""

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


# The index in ``fill`` of the first cell: fill[0] = 0 stands for "no box
# above", fill[1] = nletters for "no right neighbour".
_FIRST = 2


def _boxes(outer: Sequence[int], inner: Sequence[int], nletters: int,
           lattice: bool) -> list[tuple]:
    """The boxes of outer/inner, plain partitions, laid out for one walk in
    reading order, their cells row-major from ``_FIRST``.

    Each box is ``(cell, above, right, cap)``: its index in ``fill``, the
    indices of its upper and right neighbours (0 and 1, the sentinels, when
    that neighbour is not a skew box), and its largest possible letter,
    ``nletters`` minus the number of boxes below it in its column. The cap
    is sound because column strictness gives those boxes strictly larger
    letters, all at most ``nletters``; a larger letter here has no
    completion, so no leaf is lost and the leaf order is unchanged. With
    ``lattice`` the cap of row i is at most i + 1 as well: the row's largest
    entry is read right after rows 0..i-1, which hold letters up to i only,
    so a lattice word allows it at most i + 1. Only the skew boxes are laid
    out, so a walk's memory follows its box count, never ``|outer|``."""
    steps = [-part for part in outer]  # ascending, for bisect
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    boxes: list[tuple] = []
    cells = _FIRST
    # the row above holds the cells up + j of columns j >= up_lo; none
    # above row 0
    up, up_lo = 0, outer[0] if outer else 0
    for i, (hi, lo) in enumerate(zip(outer, inner)):
        base = cells - lo  # the cell of column j is base + j
        cells += hi - lo
        top = i + 1 if lattice else nletters
        right = 1
        for j in range(hi - 1, lo - 1, -1):
            # nletters less the boxes below: the rows past i that reach column j
            cap = nletters + 1 + i - bisect_left(steps, -j)
            boxes.append((base + j, up + j if j >= up_lo else 0, right,
                          top if cap > top else cap))
            right = base + j
        up, up_lo = base, lo
    return boxes


def _check_depth(size: int) -> None:
    """Refuse, with a ValueError, a search of more boxes than the recursion
    limit less a margin for the callers' frames: it recurses once per box.
    The row transfer recurses only once per box of a row, but keeps the
    guard, so a shape is refused or searched whichever walk counts it."""
    budget = sys.getrecursionlimit() - 100
    if size > budget:
        raise ValueError(f"the tableau search would fill {size} boxes, "
                         f"more than its depth budget of {budget}")


def _walk(outer: Sequence[int], inner: Sequence[int], nletters: int, lattice: bool,
          quota: Sequence[int] | None, tally: dict, fillings: bool = False,
          by_rows: bool = False) -> None:
    """Backtracking core: every filling of outer/inner, plain partitions
    that the caller has checked, with letters 1..nletters, in the
    reading-word box order and in lexicographic order of the reading word.
    Each filling adds 1 to ``tally[tuple(counts)]``, or, with ``fillings``,
    to ``tally[tuple(fill)]``.

    ``fill`` holds the entries in the cells :func:`_boxes` lays out.
    ``counts[x]`` tallies the letter ``x``; it doubles as the lattice prefix
    tally because boxes are filled in reading order, and ``counts[0]`` is a
    sentinel ``size + 1``, larger than any tally, so the letter 1 always
    passes; only ``counts[1:]`` are tallies.

    ``quota`` fixes the per-letter box counts (None leaves them free, as a
    quota of ``size + 1`` that no tally reaches), and a quota whose total is
    not the box count has no filling; without ``lattice`` the lattice test
    compares against a row of such ceilings instead. A shape with more
    boxes than the depth budget (see :func:`_check_depth`) is refused
    before any of its boxes is laid out.

    With ``by_rows`` (the row transfer, not with ``fillings``) the same
    boxes and the same per-box loop run one non-empty row at a time, from
    each state of a frontier. A state is the letter counts and the row's
    entries in the columns above the next non-empty row's boxes: all that
    the rows below read of the rows above. At a row's leftmost box the
    loop adds the state's multiplicity to the next row's frontier, where
    equal states merge; the last row adds it to ``tally`` under the letter
    counts, as above. The tally's values sum to the leaf walk's, from one
    pass per state and row instead of one per filling.
    """
    size = sum(outer) - sum(inner)
    if quota is not None and sum(quota) != size:
        return
    _check_depth(size)
    boxes = _boxes(outer, inner, nletters, lattice)
    fill = [0] * (size + _FIRST)
    fill[1] = nletters
    counts = [size + 1] + [0] * nletters
    ceiling = [0, *quota] if quota is not None else [size + 1] * (nletters + 1)
    bar = counts if lattice else [size + 1] * (nletters + 1)
    key = fill if fillings else counts
    get = tally.get
    last = size - 1
    # a leaf adds ``weight`` under ``tuple(key)``, or, at the end of a row
    # that carries cells to the next row, under the state
    weight, carry = 1, None

    def place(k: int) -> None:
        cell, above, right, cap = boxes[k]
        top = fill[right]
        for x in range(fill[above] + 1, (top if top < cap else cap) + 1):
            c = counts[x]
            if c < ceiling[x] and bar[x - 1] > c:
                fill[cell] = x
                counts[x] = c + 1
                if k != last:
                    place(k + 1)
                else:
                    found = tuple(key) if carry is None else tuple(counts + fill[carry])
                    tally[found] = get(found, 0) + weight
                counts[x] = c

    if not size:  # the empty shape's one filling, recorded as above
        found = tuple(key)
        tally[found] = get(found, 0) + 1
        return
    if not by_rows:
        place(0)
        return
    # a row's first box in reading order has no right neighbour; the cells
    # a row carries are the upper neighbours of the next row's boxes, one
    # run of cells, descending in reading order
    firsts = [k for k, box in enumerate(boxes) if box[2] == 1]
    ends = firsts[1:] + [size]
    carries = []
    for first, end in zip(firsts[1:], ends[1:]):
        aboves = [box[1] for box in boxes[first:end] if box[1]]
        carries.append(slice(aboves[-1], aboves[0] + 1) if aboves else slice(0))
    # ``held`` is where a state's entries go in ``fill``: the cells the
    # previous row carried
    out, held = tally, slice(0)
    states = {tuple(counts): 1}
    for first, end, carry in zip(firsts, ends, carries + [None]):
        tally = out if carry is None else {}
        get = tally.get
        last = end - 1
        for state, weight in states.items():
            counts[:] = state[:nletters + 1]
            fill[held] = state[nletters + 1:]
            place(first)
        states, held = tally, carry


# The fewest non-empty skew rows on which a count walks by rows. On the
# benchmark's LR counts (Python 3.11) the row transfer's median time is
# 1.5x the leaf walk's on 6 rows, 1.2x on 7, 0.7x on 8 and 0.5x on 9.
_BY_ROWS = 8


# The search's three leaf kinds: a count, a content tally and the tableaux.
# Each reads the tally its walks fill.


def _count(outer: Sequence[int], inner: Sequence[int], quota: Sequence[int],
           lattice: bool) -> int:
    """Number of fillings of outer/inner with content ``quota``: every leaf
    has that content, so the tally has at most one key. On a shape of
    ``_BY_ROWS`` or more non-empty rows the walk transfers states row by
    row (see :func:`_walk`), so its cost follows the number of distinct
    row states rather than the count; on fewer rows a state merges too
    few fillings to pay for its building, and the leaf walk runs. Only a
    count takes the row transfer: a content tally and the tableaux are
    read off the leaves themselves."""
    # a row is empty where inner fills it, and inner is no longer than outer
    by_rows = (len(outer) >= _BY_ROWS
               and len(outer) - sum(a == b for a, b in zip(outer, inner)) >= _BY_ROWS)
    tally: dict[tuple, int] = {}
    _walk(outer, inner, len(quota), lattice, quota, tally, by_rows=by_rows)
    return sum(tally.values())


def _tally(outer: Sequence[int], inners: Iterable[Sequence[int]], nletters: int,
           lattice: bool) -> dict[tuple, int]:
    """The content of every filling of outer/inner, over the inner shapes,
    with letters 1..nletters, tallied into one dict in the order the search
    first meets each content. With ``lattice`` a content is a partition,
    keyed as a plain tuple without zeros; otherwise it is the full
    length-``nletters`` vector of letter counts."""
    tally: dict[tuple, int] = {}
    for inner in inners:
        _walk(outer, inner, nletters, lattice, None, tally)
    # a lattice word's content is weakly decreasing, so its zeros are a
    # suffix: one slice drops them with the sentinel
    return {found[1:found.index(0) if lattice and found[-1] == 0 else None]: n
            for found, n in tally.items()}


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
    cuts = [slice(a + _FIRST, b + _FIRST) for a, b in _cuts(shape)]
    tally: dict[tuple, int] = {}
    _walk(shape.outer, shape.inner, nletters, lattice, quota, tally, True)
    # each fill is dropped as its tableau is made, so the two are not all
    # held at once
    fills = list(reversed(tally))
    del tally
    out: list[SkewTableau] = []
    while fills:
        fill = fills.pop()
        out.append(_filled(shape, tuple([fill[cut] for cut in cuts])))
    return out


def _filled(shape: SkewShape, rows: tuple) -> SkewTableau:
    """The search's constructor: a tableau from rows the search made valid
    by construction, with none of the public constructor's checks. The row
    lengths come from :func:`_cuts` and every entry from a ``range`` of
    positive ints, so the checks could not fail; ``rows`` is a tuple of
    tuples already. Copies and pickles still go through the public
    constructor (see :class:`~tensorcube.partitions._Record`)."""
    tableau = object.__new__(SkewTableau)
    _set(tableau, "shape", shape)
    _set(tableau, "rows", rows)
    return tableau


def count_lr_fillings(shape: SkewShape, cont: Iterable[int]) -> int:
    """Number of Littlewood-Richardson fillings of ``shape`` with the given
    content; zero when the box counts disagree."""
    return _count(shape.outer, shape.inner, Partition(cont), True)


def enumerate_lr_tableaux(shape: SkewShape, cont: Iterable[int]) -> list[SkewTableau]:
    """Every Littlewood-Richardson filling of ``shape`` with content ``cont``,
    in smallest-entry-first order; empty when the box counts disagree."""
    cont = Partition(cont)
    return _collect(shape, len(cont), cont, True)


def _check_max_entry(max_entry: int) -> None:
    """Refuse, with a ValueError, a letter bound that is not a
    non-negative int (a bool is refused too)."""
    _check_int("max_entry", max_entry)
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")


def enumerate_semistandard_tableaux(shape: SkewShape, max_entry: int) -> list[SkewTableau]:
    """Every semistandard filling of ``shape`` with entries in 1..max_entry."""
    _check_max_entry(max_entry)
    return _collect(shape, max_entry, None, False)


def semistandard_content_counts(shape: SkewShape, max_entry: int) -> dict[tuple[int, ...], int]:
    """Histogram of contents over all semistandard fillings with entries in
    1..max_entry; keys are full length-``max_entry`` count vectors."""
    _check_max_entry(max_entry)
    return _tally(shape.outer, [shape.inner], max_entry, False)


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
