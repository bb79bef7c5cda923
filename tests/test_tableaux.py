"""Skew shapes, reading words, the LR conditions, and enumeration,
cross-checked against a label-everything brute-force counter."""

import copy
import functools
import itertools
import pickle
import re

import pytest

from oracles import brute_lr, gen_partitions
from tensorcube import (
    Partition,
    SkewShape,
    SkewTableau,
    count_lr_fillings,
    enumerate_lr_tableaux,
    enumerate_semistandard_tableaux,
    is_lattice,
    is_lr_tableau,
    is_semistandard,
    tableaux,
)
from tensorcube.tableaux import (
    ascii_diagram,
    content,
    semistandard_content_counts,
    shape_diagram,
    tableau_json,
    word,
)

# brute_lr is pure and slow; the two brute-force tests share its values
brute_lr = functools.lru_cache(maxsize=None)(brute_lr)


def skew_shapes(max_outer):
    """Every skew shape with at most ``max_outer`` boxes in the outer shape,
    the empty shape included."""
    return [SkewShape(outer, inner)
            for n in range(max_outer + 1) for outer in gen_partitions(n)
            for m in range(n + 1) for inner in gen_partitions(m)
            if len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))]


WORKED = SkewTableau(
    SkewShape((6, 4, 4, 2), (3, 2, 1)),
    ((1, 1, 1), (1, 2), (2, 2, 3), (3, 4)),
)


# --- shapes ---

def test_shape_requires_containment():
    with pytest.raises(ValueError):
        SkewShape((2, 2), (3,))


def test_shape_size_and_spans():
    s = SkewShape((6, 4, 4, 2), (3, 2, 1))
    assert s.size == 10
    assert s.row_span(0) == (3, 6)
    assert s.row_span(3) == (0, 2)
    assert len(list(s.boxes())) == 10
    s = SkewShape((3, 2), (1,))
    assert s.row_span(0) == (1, 3)
    assert s.row_span(1) == (0, 2)
    for row in (-1, -2, 2):
        with pytest.raises(IndexError, match=rf"row {row} is outside the shape \(3,2\)/\(1\)"):
            s.row_span(row)


def test_tableau_rejects_wrong_row_lengths():
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2, 1), ()), ((1,), (1,)))


def test_tableau_rejects_bool_entries():
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2,), ()), ((True, True),))
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2, 1), (1,)), ((1,), (False,)))


def test_tableau_rejects_non_positive_entries():
    for bad in (0, -1):
        with pytest.raises(ValueError, match=rf"entries must be positive integers, got {bad}$"):
            SkewTableau(SkewShape((2,), ()), ((1, bad),))


def test_tableau_entry_lookup():
    assert WORKED.entry(0, 3) == 1
    assert WORKED.entry(2, 1) == 2
    assert WORKED.entry(3, 1) == 4
    first = enumerate_lr_tableaux(SkewShape((3, 2), (1,)), (2, 2))[0]
    assert first.entry(0, 1) == 1
    for i, j in ((-1, 1), (2, 0), (0, 0), (1, 2)):
        with pytest.raises(KeyError) as excinfo:
            first.entry(i, j)
        assert excinfo.value.args == ((i, j),)


# --- reading word and content ---

def test_worked_example_word():
    assert word(WORKED) == (1, 1, 1, 2, 1, 3, 2, 2, 4, 3)


def test_worked_example_content():
    assert content(WORKED) == (4, 3, 2, 1)


def test_empty_tableau_word():
    t = SkewTableau(SkewShape((), ()), ())
    assert word(t) == ()
    assert content(t) == ()


# --- the two LR conditions ---

def test_worked_example_is_lr():
    assert is_semistandard(WORKED)
    assert is_lattice(word(WORKED))
    assert is_lr_tableau(WORKED)


def test_semistandard_rejects_row_decrease():
    t = SkewTableau(SkewShape((2,), ()), ((2, 1),))
    assert not is_semistandard(t)


def test_semistandard_rejects_column_tie():
    t = SkewTableau(SkewShape((1, 1), ()), ((1,), (1,)))
    assert not is_semistandard(t)


def test_semistandard_column_check_skips_missing_overlap():
    # row 2 starts left of row 1's span; only shared columns compare
    t = SkewTableau(SkewShape((2, 2), (1,)), ((1,), (1, 2)))
    assert is_semistandard(t)


def test_lattice_words():
    assert is_lattice((1, 1, 2, 1, 3, 2))
    assert not is_lattice((2,))
    assert not is_lattice((1, 2, 2))
    assert is_lattice(())


def test_lattice_fails_case():
    t = SkewTableau(SkewShape((2, 1), (1,)), ((2,), (1,)))
    assert is_semistandard(t)
    assert not is_lattice(word(t))
    assert not is_lr_tableau(t)


# --- enumeration ---

def test_enumerate_worked_shape():
    shape = SkewShape((6, 4, 4, 2), (3, 2, 1))
    found = enumerate_lr_tableaux(shape, (4, 3, 2, 1))
    assert len(found) == 3
    assert WORKED in found
    words = {word(t) for t in found}
    assert (1, 1, 1, 2, 1, 3, 2, 2, 4, 3) in words


def test_enumerate_straight_shape_single_filling():
    shape = SkewShape((3, 1), ())
    found = enumerate_lr_tableaux(shape, (3, 1))
    assert len(found) == 1
    assert word(found[0]) == (1, 1, 1, 2)


def test_enumerate_impossible_content():
    shape = SkewShape((2, 1), ())
    assert enumerate_lr_tableaux(shape, (1, 1, 1)) == []


def test_count_zero_on_size_mismatch():
    assert count_lr_fillings(SkewShape((2, 1), ()), (1, 1)) == 0
    # a content larger than the shape: filling every box does not meet it
    assert count_lr_fillings(SkewShape((2, 1), ()), (2, 1, 1)) == 0
    assert enumerate_lr_tableaux(SkewShape((2, 1), ()), (2, 1, 1)) == []


def test_search_refuses_shapes_past_its_depth_budget():
    """The search recurses once per box: a shape with more boxes than the
    recursion limit less the callers' margin is refused before its boxes
    are laid out, while a content of the wrong size still gives 0 at any size."""
    with pytest.raises(ValueError, match="fill 997 boxes, more than its depth budget"):
        count_lr_fillings(SkewShape((1994,), (997,)), (997,))
    with pytest.raises(ValueError, match="depth budget"):
        semistandard_content_counts(SkewShape((10**7,), ()), 1)
    assert count_lr_fillings(SkewShape((10**7,), (1,)), (3,)) == 0
    assert enumerate_lr_tableaux(SkewShape((10**7,), ()), (1,)) == []


def test_tally_keys_are_contents():
    """A lattice tally is keyed by plain partitions, each with its LR count;
    a plain tally by full-length letter counts. No key carries the search's
    sentinel, so no caller needs to know it."""
    for shape in skew_shapes(7):
        outer, inner = shape.outer, shape.inner
        lattice = tableaux._tally(outer, [inner], len(outer), True)
        assert lattice, shape
        for key, n in lattice.items():
            assert all(part > 0 for part in key), (shape, key)
            assert list(key) == sorted(key, reverse=True), (shape, key)
            assert sum(key) == shape.size, (shape, key)
            assert n == count_lr_fillings(shape, key), (shape, key)
        for k in range(4):
            plain = tableaux._tally(outer, [inner], k, False)
            assert all(len(key) == k for key in plain), (shape, k)


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "plain"])
def test_walk_lays_out_its_skew_boxes_in_reading_order(lattice):
    """A walk's layout holds exactly the skew boxes, in reading order, each
    as (cell, above, right, cap): its row-major index from _FIRST, the cells
    of the boxes above it and to its right (0 and 1 when that box is not a
    skew box), and nletters less the rows below it that reach its column,
    at most i + 1 in row i of a lattice filling."""
    for shape in skew_shapes(8):
        outer = shape.outer
        boxes = shape.boxes()
        cell = {box: tableaux._FIRST + k for k, box in enumerate(boxes)}
        reading = sorted(boxes, key=lambda box: (box[0], -box[1]))
        for nletters in {len(outer), 3}:
            expected = []
            for i, j in reading:
                cap = nletters - sum(part > j for part in outer[i + 1:])
                expected.append((cell[i, j], cell.get((i - 1, j), 0), cell.get((i, j + 1), 1),
                                 min(cap, i + 1) if lattice else cap))
            got = tableaux._boxes(outer, shape.inner, nletters, lattice)
            assert got == expected, (shape, nletters)


def test_wide_walk_lays_out_one_box():
    """A one-box shape ten billion columns wide is laid out as its one box."""
    assert tableaux._boxes((10**10,), (10**10 - 1,), 1, True) == [(2, 0, 1, 1)]


def test_enumeration_outputs_are_lr():
    """Every enumerated tableau passes the predicate, shapes up to 10 boxes."""
    shapes = skew_shapes(10)
    for shape in shapes:
        k = shape.size
        for cont in gen_partitions(k):
            for t in enumerate_lr_tableaux(shape, cont):
                assert is_lr_tableau(t)
                assert content(t) == tuple(cont) + (0,) * (len(content(t)) - len(cont))


def test_counts_match_brute_force():
    """Engine count equals the try-every-labeling count for all skew
    shapes with outer size up to 7."""
    for shape in skew_shapes(7):
        for cont in gen_partitions(shape.size):
            got = count_lr_fillings(shape, cont)
            assert got == brute_lr(shape.inner, cont, shape.outer), (
                shape.outer, shape.inner, cont,
            )


def test_enumeration_is_in_reading_word_order():
    """The search lists fillings in strictly increasing lexicographic order
    of the reading word (certificates and the first witness tableau depend
    on it), one per brute-force filling, for outer size up to 7."""
    for shape in skew_shapes(7):
        for cont in gen_partitions(shape.size):
            words = [word(t) for t in enumerate_lr_tableaux(shape, cont)]
            assert all(a < b for a, b in zip(words, words[1:])), (shape, cont)
            assert len(words) == brute_lr(shape.inner, cont, shape.outer), (shape, cont)


def assert_as_if_checked(t):
    """``t`` equals the tableau the public, checked constructor makes of its
    fields, holds plain ints, and copies and pickles (through that
    constructor) to an equal record."""
    assert t == SkewTableau(t.shape, t.rows)
    assert type(t.rows) is tuple and all(type(row) is tuple for row in t.rows)
    assert all(type(e) is int for row in t.rows for e in row)
    assert copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def test_search_tableaux_equal_checked_ones():
    """The search builds its tableaux without the public constructor's
    checks; each LR tableau of an outer shape up to 8 boxes, for every
    inner shape and content, and each semistandard tableau of an outer shape
    up to 6 boxes with 0-3 letters is the tableau those checks accept."""
    lr = [t for shape in skew_shapes(8) for cont in gen_partitions(shape.size)
          for t in enumerate_lr_tableaux(shape, cont)]
    ssyt = [t for shape in skew_shapes(6) for m in range(4)
            for t in enumerate_semistandard_tableaux(shape, m)]
    assert len(lr) > 1000 and len(ssyt) > 1000
    for t in lr + ssyt:
        assert_as_if_checked(t)


# --- semistandard enumeration (no lattice condition) ---

def test_ssyt_count_column():
    shape = SkewShape((1, 1), ())
    assert len(enumerate_semistandard_tableaux(shape, 3)) == 3


def test_ssyt_count_row():
    shape = SkewShape((2,), ())
    assert len(enumerate_semistandard_tableaux(shape, 3)) == 6


@pytest.mark.parametrize("bad, message", [
    (1.5, "max_entry must be an int, got 1.5"),
    (True, "max_entry must be an int, got True"),
    (-1, "max_entry must be non-negative, got -1"),
])
def test_ssyt_refuses_a_bad_max_entry(bad, message):
    """A letter bound that is not a non-negative int (a float or a bool) is
    refused at the boundary, by name, before the search starts."""
    for run in (enumerate_semistandard_tableaux, semistandard_content_counts):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(SkewShape((2, 1), ()), bad)


def test_ssyt_content_counts():
    shape = SkewShape((2, 1), ())
    counts = semistandard_content_counts(shape, 3)
    assert sum(counts.values()) == 8
    assert counts[(2, 1, 0)] == 1
    assert counts[(1, 1, 1)] == 2


def test_ssyt_brute_force_small():
    """Semistandard enumeration agrees with direct labeling filters on every
    skew shape with outer size up to 6 and entries up to 0..3, including
    columns taller than the largest entry."""
    shapes = skew_shapes(6)
    assert SkewShape((), ()) in shapes and SkewShape((1, 1, 1, 1), ()) in shapes
    for shape in shapes:
        boxes = shape.boxes()
        for m in range(4):
            valid = 0
            for labels in itertools.product(range(1, m + 1), repeat=len(boxes)):
                grid = dict(zip(boxes, labels))
                ok = True
                for (i, j), v in grid.items():
                    if (i, j - 1) in grid and grid[(i, j - 1)] > v:
                        ok = False
                    if (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                        ok = False
                if ok:
                    valid += 1
            assert len(enumerate_semistandard_tableaux(shape, m)) == valid, (shape, m)


def test_ssyt_content_counts_match_enumeration():
    """The content histogram counts exactly the enumerated fillings."""
    for shape in skew_shapes(6):
        for m in range(4):
            found = enumerate_semistandard_tableaux(shape, m)
            expected: dict = {}
            for t in found:
                key = (content(t) + (0,) * m)[:m]
                expected[key] = expected.get(key, 0) + 1
            counts = semistandard_content_counts(shape, m)
            assert sum(counts.values()) == len(found)
            assert counts == expected, (shape, m)


# --- rendering ---

def test_ascii_diagram_golden(datadir):
    golden = (datadir / "first_lrt.txt").read_text()
    assert ascii_diagram(WORKED) + "\n" == golden


def test_shape_diagram():
    assert shape_diagram(SkewShape((3, 1), (1,))) == ". # #\n#"


def test_diagrams_draw_up_to_their_bound(monkeypatch):
    """A diagram of exactly the bound's cells, inner boxes included, draws;
    one cell more is refused with the count and the bound."""
    monkeypatch.setattr(tableaux, "_MAX_DIAGRAM_CELLS", 4)
    at = SkewTableau(SkewShape((3, 1), (1,)), [(1, 1), (2,)])
    past = SkewTableau(SkewShape((3, 2), (1,)), [(1, 1), (2, 2)])
    assert shape_diagram(at.shape) == ". # #\n#"
    assert ascii_diagram(at) == ". 1 1\n2"
    assert tableau_json(at)["rows"] == [[None, 1, 1], [2]]
    for draw, arg in ((shape_diagram, past.shape), (ascii_diagram, past),
                      (tableau_json, past)):
        with pytest.raises(ValueError, match="^a diagram of 5 cells is past the drawing "
                                             "bound of 4 cells$"):
            draw(arg)


def test_tableau_json_shape():
    doc = tableau_json(WORKED)
    assert doc["outer"] == "6,4^2,2"
    assert doc["inner"] == "3,2,1"
    assert doc["rows"][0] == [None, None, None, 1, 1, 1]
    assert doc["rows"][3] == [3, 4]
