"""Skew shapes, reading words, the LR conditions, and enumeration,
cross-checked against a label-everything brute-force counter."""

import itertools

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
)
from tensorcube.tableaux import (
    ascii_diagram,
    content,
    semistandard_content_counts,
    shape_diagram,
    tableau_json,
    word,
)

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


def test_tableau_rejects_wrong_row_lengths():
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2, 1), ()), ((1,), (1,)))


def test_tableau_rejects_bool_entries():
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2,), ()), ((True, True),))
    with pytest.raises(ValueError):
        SkewTableau(SkewShape((2, 1), (1,)), ((1,), (False,)))


def test_tableau_entry_lookup():
    assert WORKED.entry(0, 3) == 1
    assert WORKED.entry(2, 1) == 2
    assert WORKED.entry(3, 1) == 4


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


def test_enumeration_outputs_are_lr():
    """Every enumerated tableau passes the predicate, shapes up to 10 boxes."""
    shapes = []
    for n in range(11):
        for outer in gen_partitions(n):
            for m in range(n + 1):
                for inner in gen_partitions(m):
                    if len(inner) <= len(outer) and all(
                        inner[i] <= outer[i] for i in range(len(inner))
                    ):
                        shapes.append(SkewShape(outer, inner))
    for shape in shapes:
        k = shape.size
        for cont in gen_partitions(k):
            for t in enumerate_lr_tableaux(shape, cont):
                assert is_lr_tableau(t)
                assert content(t) == tuple(cont) + (0,) * (len(content(t)) - len(cont))


def test_counts_match_brute_force():
    """Engine count equals the try-every-labeling count for all skew
    shapes with outer size up to 7."""
    for n in range(8):
        for outer in gen_partitions(n):
            for m in range(n + 1):
                for inner in gen_partitions(m):
                    if len(inner) > len(outer):
                        continue
                    if any(inner[i] > outer[i] for i in range(len(inner))):
                        continue
                    shape = SkewShape(outer, inner)
                    for cont in gen_partitions(shape.size):
                        got = count_lr_fillings(shape, cont)
                        assert got == brute_lr(inner, cont, outer), (
                            outer, inner, cont,
                        )


# --- semistandard enumeration (no lattice condition) ---

def test_ssyt_count_column():
    shape = SkewShape((1, 1), ())
    assert len(enumerate_semistandard_tableaux(shape, 3)) == 3


def test_ssyt_count_row():
    shape = SkewShape((2,), ())
    assert len(enumerate_semistandard_tableaux(shape, 3)) == 6


def test_ssyt_content_counts():
    shape = SkewShape((2, 1), ())
    counts = semistandard_content_counts(shape, 3)
    assert sum(counts.values()) == 8
    assert counts[(2, 1, 0)] == 1
    assert counts[(1, 1, 1)] == 2


def test_ssyt_brute_force_small():
    """Semistandard enumeration agrees with direct labeling filters."""
    for outer in [(2, 1), (2, 2), (3, 1)]:
        shape = SkewShape(outer, ())
        for m in (2, 3):
            n = shape.size
            boxes = list(shape.boxes())
            valid = 0
            for labels in itertools.product(range(1, m + 1), repeat=n):
                grid = dict(zip(boxes, labels))
                ok = True
                for (i, j), v in grid.items():
                    if (i, j - 1) in grid and grid[(i, j - 1)] > v:
                        ok = False
                    if (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                        ok = False
                if ok:
                    valid += 1
            assert len(enumerate_semistandard_tableaux(shape, m)) == valid


# --- rendering ---

def test_ascii_diagram_golden(datadir):
    golden = (datadir / "first_lrt.txt").read_text()
    assert ascii_diagram(WORKED) + "\n" == golden


def test_shape_diagram():
    assert shape_diagram(SkewShape((3, 1), (1,))) == ". # #\n#"


def test_tableau_json_shape():
    doc = tableau_json(WORKED)
    assert doc["outer"] == "6,4^2,2"
    assert doc["inner"] == "3,2,1"
    assert doc["rows"][0] == [None, None, None, 1, 1, 1]
    assert doc["rows"][3] == [3, 4]
