"""lr_coefficient contract: guard conditions, symmetry, conjugation,
memoization transparency, skew expansions, and checked 64-bit arithmetic."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import gen_partitions
from tensorcube import (
    INT64_MAX,
    GroupSpec,
    Partition,
    clear_cache,
    lr,
    lr_coefficient,
    lr_coefficient_memo,
    nl_coefficient,
    skew_expansion,
    tensor_decompose,
)
from tensorcube.lr import checked
from tensorcube.newell_littlewood import _product


def all_partitions(n):
    return [Partition(p) for p in gen_partitions(n)]


def test_worked_example_value():
    assert lr_coefficient((3, 2, 1), (4, 3, 2, 1), (6, 4, 4, 2)) == 3


def test_pieri_degree_two():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1


def test_unit_law():
    assert lr_coefficient((3, 1), (), (3, 1)) == 1
    assert lr_coefficient((3, 1), (), (2, 2)) == 0
    assert lr_coefficient((), (), ()) == 1


def test_vanishing_guards():
    # size mismatch
    assert lr_coefficient((1,), (1,), (3,)) == 0
    # first argument not contained in third
    assert lr_coefficient((2, 2), (1,), (3, 1, 1)) == 0
    # second argument not contained in third
    assert lr_coefficient((1, 1), (3,), (2, 2, 1)) == 0


def test_symmetry_in_lower_arguments():
    """c is symmetric in the first two arguments, |nu| <= 8 exhaustive."""
    for n in range(9):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for lam in all_partitions(k):
                    for mu in all_partitions(n - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            mu, lam, nu
                        )


def test_conjugation_identity():
    """c is invariant under conjugating all three arguments, |nu| <= 8."""
    for n in range(9):
        for nu in all_partitions(n):
            nuc = nu.conjugate()
            for k in range(n + 1):
                for lam in all_partitions(k):
                    lamc = lam.conjugate()
                    for mu in all_partitions(n - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lamc, mu.conjugate(), nuc
                        )


# --- memoization ---

def test_memo_matches_direct():
    for n in range(8):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for lam in all_partitions(k):
                    for mu in all_partitions(n - k):
                        assert lr_coefficient_memo(lam, mu, nu) == lr_coefficient(
                            lam, mu, nu
                        )


def test_memo_normalizes_argument_order():
    clear_cache()
    a = lr_coefficient_memo((2, 1), (3, 1), (4, 2, 1))
    b = lr_coefficient_memo((3, 1), (2, 1), (4, 2, 1))
    assert a == b
    assert len(lr._shared_cache) == 1
    clear_cache()


def test_memo_value_is_stored_in_shared_cache():
    clear_cache()
    lr_coefficient_memo((2, 1), (2, 1), (3, 2, 1))
    assert list(lr._shared_cache.items()) == [
        ((Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1))),
         lr_coefficient((2, 1), (2, 1), (3, 2, 1))),
    ]
    clear_cache()


def test_memo_poisoned_cache_is_trusted():
    # the store is authoritative; proves lookups actually hit it
    clear_cache()
    lr_coefficient_memo((1,), (1,), (2,))
    key = next(iter(lr._shared_cache))
    lr._shared_cache[key] = 99
    assert lr_coefficient_memo((1,), (1,), (2,)) == 99
    clear_cache()


def test_shared_cache_clear():
    clear_cache()
    assert lr_coefficient_memo((2, 1), (2, 1), (4, 2)) == lr_coefficient(
        (2, 1), (2, 1), (4, 2)
    )
    clear_cache()


def test_memo_guard_cases_skip_cache():
    clear_cache()
    assert lr_coefficient_memo((1,), (1,), (3,)) == 0
    assert lr_coefficient_memo((2, 2), (1,), (3, 1, 1)) == 0
    assert lr._shared_cache == {}


def test_full_store_drops_its_oldest_entry(monkeypatch):
    monkeypatch.setattr(lr, "_cap", 2)
    clear_cache()
    shapes = [((3, 2, 1), (2, 1)), ((2, 2), (1,)), ((3, 1), (1,))]
    values = [skew_expansion(outer, inner) for outer, inner in shapes]
    assert list(lr._shared_cache) == [(Partition(o), Partition(i)) for o, i in shapes[1:]]
    for (outer, inner), value in zip(shapes, values):
        assert value == nonzero_coefficients(inner, outer, sum(outer) - sum(inner))
    clear_cache()


def test_concurrent_inserts_keep_the_cap(monkeypatch):
    monkeypatch.setattr(lr, "_cap", 16)
    clear_cache()

    def insert(thread):
        for i in range(2000):
            lr._store(("stress", thread, i), i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(insert, t) for t in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(lr._shared_cache) == 16
    clear_cache()


def test_clear_cache_reaches_every_memo():
    clear_cache()
    nl_coefficient((3, 2, 1), (2, 1), (3, 2))
    tensor_decompose((2, 1), (2, 1), GroupSpec("C", 3))
    assert any(isinstance(key[1], int) for key in lr._shared_cache)  # subpartitions
    clear_cache()
    assert lr._shared_cache == {}


# --- skew expansions ---

def nonzero_coefficients(inner, outer, size):
    found = {beta: lr_coefficient(inner, beta, outer) for beta in all_partitions(size)}
    return {beta: c for beta, c in found.items() if c}


def test_skew_expansion_matches_coefficients():
    """Every pair of shapes with |outer| <= 7, contained or not."""
    for n in range(8):
        for outer in all_partitions(n):
            for k in range(n + 1):
                for inner in all_partitions(k):
                    assert skew_expansion(outer, inner) == nonzero_coefficients(
                        inner, outer, n - k
                    ), (outer, inner)


def test_skew_expansion_of_disconnected_shape_is_a_product():
    """s_beta * s_gamma from one expansion, |beta| + |gamma| <= 7."""
    for n in range(8):
        for k in range(n + 1):
            for beta in all_partitions(k):
                for gamma in all_partitions(n - k):
                    expected = {nu: lr_coefficient(beta, gamma, nu) for nu in all_partitions(n)}
                    assert _product(beta, gamma) == {
                        nu: c for nu, c in expected.items() if c
                    }, (beta, gamma)


def test_clear_cache_drops_expansions():
    clear_cache()
    expansion = skew_expansion((3, 2, 1), (2, 1))
    assert expansion == {
        Partition((3,)): 1, Partition((2, 1)): 2, Partition((1, 1, 1)): 1,
    }
    with pytest.raises(TypeError):
        expansion[Partition((3,))] = 5  # the memoized value is read-only
    assert (Partition((3, 2, 1)), Partition((2, 1))) in lr._shared_cache
    clear_cache()
    assert lr._shared_cache == {}


def test_zero_cap_stores_no_expansion(monkeypatch):
    monkeypatch.setattr(lr, "_cap", 0)
    clear_cache()
    assert skew_expansion((2, 2), (1,)) == {Partition((2, 1)): 1}
    assert nl_coefficient((2, 2), (2, 2), (2, 2)) == 2
    assert lr._shared_cache == {}


# --- checked arithmetic ---

def test_checked_passes_in_range():
    assert checked(0) == 0
    assert checked(INT64_MAX) == INT64_MAX


def test_checked_raises_beyond_int64():
    with pytest.raises(OverflowError):
        checked(INT64_MAX + 1)


def test_int64_max_value():
    assert INT64_MAX == 2**63 - 1
