"""Partition construction, text grammar, conjugation, classification,
and bounded enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import P_TABLE, pentagonal_p, gen_partitions
from tensorcube import (
    AllEven,
    DistinctOddEvenLength,
    Hook,
    Partition,
    Rectangle,
    classify,
    contains,
    enumerate_partitions,
    lr_coefficient,
    parse,
    render,
)
from tensorcube.partitions import partitions_inside

partitions_st = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def all_partitions(n):
    return [Partition(p) for p in gen_partitions(n)]


# --- construction ---

def test_constructor_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))


def test_constructor_rejects_increasing():
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_constructor_rejects_nonpositive():
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_constructor_rejects_bool_parts():
    with pytest.raises(ValueError):
        Partition([True, True])
    with pytest.raises(ValueError):
        Partition((2, False))
    with pytest.raises(ValueError):
        lr_coefficient([True], [True], [2])


def test_constructor_identity_fast_path():
    p = Partition((2, 1))
    assert Partition(p) is p


def test_size_and_length():
    p = Partition((4, 4, 1))
    assert p.size == 9
    assert p.length == 3
    assert Partition(()).size == 0
    assert Partition(()).length == 0


# --- text grammar ---

def test_parse_shorthand():
    assert parse("4^2,3,1^2") == Partition((4, 4, 3, 1, 1))


def test_parse_expanded():
    assert parse("4,4,3,1,1") == Partition((4, 4, 3, 1, 1))


def test_parse_empty_string_is_empty_partition():
    assert parse("") == Partition(())


def test_render_uses_shorthand_for_runs():
    assert render(Partition((4, 4, 3, 1, 1))) == "4^2,3,1^2"
    assert render(Partition((3,))) == "3"
    assert render(Partition(())) == ""


@pytest.mark.parametrize("bad", ["x", "3,4", "0", "2^0", "-1", "1,,1", "3^-2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse(bad)


@given(partitions_st)
@settings(max_examples=200)
def test_parse_render_round_trip(p):
    assert parse(render(p)) == p


# --- conjugation ---

def test_conjugate_known():
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
    assert Partition(()).conjugate() == Partition(())


def test_conjugate_involution_exhaustive():
    """conjugate(conjugate(p)) == p for every |p| <= 12."""
    for n in range(13):
        for p in all_partitions(n):
            assert p.conjugate().conjugate() == p


def test_conjugate_preserves_size_and_swaps_length():
    for n in range(11):
        for p in all_partitions(n):
            q = p.conjugate()
            assert q.size == p.size
            assert q.length == (p[0] if p else 0)


def test_contains_respects_conjugation():
    """contains(a, b) iff contains(a', b') for all |a|,|b| <= 8."""
    pool = [p for n in range(9) for p in all_partitions(n)]
    for a in pool:
        for b in pool:
            assert contains(a, b) == contains(a.conjugate(), b.conjugate())


def test_contains_basics():
    assert contains(Partition(()), Partition((5,)))
    assert contains(Partition((2, 1)), Partition((2, 1)))
    assert not contains(Partition((3,)), Partition((2, 2)))
    assert not contains(Partition((1, 1, 1)), Partition((3,)))


# --- classification ---

def kinds(p):
    return {f.kind for f in classify(Partition(p))}


def test_classify_all_even():
    assert AllEven() in classify(Partition((6, 4, 4, 2, 2)))


def test_classify_distinct_odd_even_length():
    assert DistinctOddEvenLength() in classify(Partition((7, 5, 3, 1)))
    assert DistinctOddEvenLength() not in classify(Partition((7, 5, 3)))
    assert DistinctOddEvenLength() not in classify(Partition((5, 5, 3, 1)))


def test_classify_hook():
    assert Hook(arm=5, leg=4) in classify(Partition((6, 1, 1, 1, 1)))
    assert Hook(arm=0, leg=3) in classify(Partition((1, 1, 1, 1)))
    assert Hook(arm=1, leg=0) in classify(Partition((2,)))
    assert Hook(arm=0, leg=0) in classify(Partition((1,)))


def test_classify_rectangle():
    assert Rectangle(rows=2, cols=3) in classify(Partition((3, 3)))
    assert Rectangle(rows=1, cols=2) in classify(Partition((2,)))
    assert Rectangle(rows=4, cols=1) in classify(Partition((1, 1, 1, 1)))


def test_classify_empty_partition():
    got = kinds(())
    assert "all-even" in got
    assert "distinct-odd-even-length" in got
    assert "hook" not in got
    assert "rectangle" not in got


def test_classify_unclassified():
    assert classify(Partition((4, 3, 2, 1))) == frozenset()
    assert classify(Partition((3, 2))) == frozenset()


def test_hook_conjugate_swaps_arm_and_leg():
    """Hook(a,b) conjugates to Hook(b,a), exhaustively to |p| <= 10."""
    for n in range(11):
        for p in all_partitions(n):
            hooks = [f for f in classify(p) if f.kind == "hook"]
            chooks = [f for f in classify(p.conjugate()) if f.kind == "hook"]
            assert len(hooks) == len(chooks)
            if hooks:
                assert hooks[0].arm == chooks[0].leg
                assert hooks[0].leg == chooks[0].arm


def test_family_describe():
    assert Hook(arm=2, leg=1).describe() == "hook(arm=2,leg=1)"
    assert Rectangle(rows=3, cols=2).describe() == "rectangle(3x2)"
    assert AllEven().describe() == "all-even"


# --- enumeration ---

def test_enumerate_counts_match_partition_function():
    """Count agrees with the pentagonal recurrence oracle up to n = 20."""
    assert tuple(pentagonal_p(n) for n in range(21)) == P_TABLE
    for n in range(21):
        assert len(list(enumerate_partitions(n))) == P_TABLE[n]


def test_enumerate_order_reverse_lex():
    got = [tuple(p) for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_zero_total():
    assert [tuple(p) for p in enumerate_partitions(0)] == [()]


def test_enumerate_max_length():
    got = [tuple(p) for p in enumerate_partitions(5, max_length=2)]
    assert got == [(5,), (4, 1), (3, 2)]


def test_enumerate_max_part():
    got = [tuple(p) for p in enumerate_partitions(5, max_part=2)]
    assert got == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_enumerate_matches_independent_generator():
    for n in range(11):
        assert [tuple(p) for p in enumerate_partitions(n)] == gen_partitions(n)


def test_partitions_inside_matches_filtered_enumeration():
    """Every bound of size <= 8 and every size up to one more than the bound's."""
    for k in range(9):
        for bound in all_partitions(k):
            for n in range(k + 2):
                expected = [p for p in enumerate_partitions(n) if contains(p, bound)]
                assert partitions_inside(bound, n) == expected, (bound, n)


def test_enumerate_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        list(enumerate_partitions(65))
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, max_length=0))


@given(st.integers(0, 12))
def test_enumerate_no_duplicates(n):
    seen = list(enumerate_partitions(n))
    assert len(seen) == len(set(seen))
    assert all(p.size == n for p in seen)
