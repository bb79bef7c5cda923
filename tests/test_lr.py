"""lr_coefficient contract: guard conditions, symmetry, conjugation,
memoization transparency, skew expansions, and checked 64-bit arithmetic."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import brute_lr, gen_partitions
from tensorcube import (
    INT64_MAX,
    GroupSpec,
    Partition,
    SkewShape,
    clear_cache,
    count_lr_fillings,
    lr,
    lr_coefficient,
    lr_coefficient_memo,
    nl_coefficient,
    nl_coefficient_full,
    skew_expansion,
    tensor_decompose,
)
from tensorcube.lr import checked
from tensorcube.partitions import contains


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


def test_shapes_past_the_search_depth_budget_are_refused():
    assert lr_coefficient((450,), (450,), (900,)) == 1
    with pytest.raises(ValueError, match="997 boxes"):
        lr_coefficient((997,), (997,), (1994,))


def test_depth_budget_does_not_depend_on_argument_order():
    """c((1),(997);(998)) fills one box whichever lower shape comes first."""
    for coefficient in (lr_coefficient, lr_coefficient_memo):
        clear_cache()
        assert coefficient((1,), (997,), (998,)) == 1
        clear_cache()
        assert coefficient((997,), (1,), (998,)) == 1
    clear_cache()


def test_symmetry_in_lower_arguments():
    """c is symmetric in the first two arguments, |nu| <= 8 exhaustive over
    contained pairs: the fillings of nu/lam with content mu against those of
    nu/mu with content lam, two independent searches."""
    for n in range(9):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for lam in all_partitions(k):
                    if not contains(lam, nu):
                        continue
                    for mu in all_partitions(n - k):
                        if contains(mu, nu):
                            by_mu = count_lr_fillings(SkewShape(nu, lam), mu)
                            by_lam = count_lr_fillings(SkewShape(nu, mu), lam)
                            assert by_mu == by_lam, (lam, mu, nu)


def test_coefficients_match_brute_force_in_both_orders():
    """lr_coefficient and lr_coefficient_memo against the labeling oracle,
    every triple of matching sizes with |nu| <= 6, both orders of the lower
    shapes, the store cleared once."""
    clear_cache()
    for n in range(7):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for lam in all_partitions(k):
                    for mu in all_partitions(n - k):
                        expected = brute_lr(lam, mu, nu)
                        for coefficient in (lr_coefficient, lr_coefficient_memo):
                            assert coefficient(lam, mu, nu) == expected, (lam, mu, nu)
                            assert coefficient(mu, lam, nu) == expected, (mu, lam, nu)
    clear_cache()


def test_each_count_fills_the_smaller_side(monkeypatch):
    """Every contained triple with |nu| <= 6 whose lower shapes differ in
    size or, at one size, in length: in both orders, each call of either
    function makes at most one search, and it fills nu less the larger
    lower shape with the smaller as content; a warm memo makes none."""
    searches = []

    def record(shape, cont):
        searches.append((shape.size, shape.inner, Partition(cont)))
        return count_lr_fillings(shape, cont)

    monkeypatch.setattr(lr, "count_lr_fillings", record)
    triples = [(lam, mu, nu) for n in range(7) for nu in all_partitions(n)
               for k in range(n + 1) for lam in all_partitions(k)
               for mu in all_partitions(n - k)
               if contains(lam, nu) and contains(mu, nu)
               and (lam.size, len(lam)) < (mu.size, len(mu))]
    assert (Partition((1,)), Partition((2, 1)), Partition((3, 1))) in triples
    # one size: the content with fewer parts, though (1,1,1) sorts first as a tuple
    assert (Partition((2, 1)), Partition((1, 1, 1)), Partition((3, 2, 1))) in triples
    for small, large, nu in triples:
        expected = [(small.size, large, small)]
        for lam, mu in ((small, large), (large, small)):
            clear_cache()
            for coefficient, calls in ((lr_coefficient, [expected]),
                                       (lr_coefficient_memo, [expected, []])):
                for searched in calls:  # the memo cold, then warm
                    searches.clear()
                    coefficient(lam, mu, nu)
                    assert searches == searched, (coefficient.__name__, lam, mu, nu)
    clear_cache()


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
    """Every triple of matching sizes with |nu| <= 7, the store cold on the
    first pass and warm on the second; triples that fail containment, such
    as ((2,2),(1),(3,1,1)), must never be answered from the store."""
    triples = [(lam, mu, nu)
               for n in range(8)
               for nu in all_partitions(n)
               for k in range(n + 1)
               for lam in all_partitions(k)
               for mu in all_partitions(n - k)]
    assert (Partition((2, 2)), Partition((1,)), Partition((3, 1, 1))) in triples
    clear_cache()
    for _ in range(2):
        for lam, mu, nu in triples:
            assert lr_coefficient_memo(lam, mu, nu) == lr_coefficient(lam, mu, nu), (lam, mu, nu)
    for lam, mu, nu in lr._shared_cache:
        assert contains(lam, nu) and contains(mu, nu)
    clear_cache()


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


def test_memo_hit_skips_containment_checks(monkeypatch):
    clear_cache()
    value = lr_coefficient_memo((2, 1), (2, 1), (3, 2, 1))

    def refuse(*args):
        raise AssertionError("containment checked on a hit")

    monkeypatch.setattr(lr, "contains", refuse)
    assert lr_coefficient_memo((2, 1), (2, 1), (3, 2, 1)) == value == 2
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
    assert lr._shared_cache
    for key in lr._shared_cache:  # LR triples and (outer, inner) expansions only
        assert len(key) in (2, 3) and all(isinstance(p, Partition) for p in key), key
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
    """s_beta * s_gamma, |beta| + |gamma| <= 7: the top degree of a stable
    decomposition, which reads each product off one disconnected shape."""
    for n in range(8):
        for k in range(n + 1):
            for beta in all_partitions(k):
                for gamma in all_partitions(n - k):
                    group = GroupSpec("C", max(1, len(beta) + len(gamma)))
                    terms = tensor_decompose(beta, gamma, group).terms
                    expected = {nu: lr_coefficient(beta, gamma, nu) for nu in all_partitions(n)}
                    assert {nu: c for nu, c in terms.items() if nu.size == n} == {
                        nu: c for nu, c in expected.items() if c
                    }, (beta, gamma)


def test_skew_expansion_terms_come_in_reverse_lex_order():
    """Every skew shape with |outer| <= 7, including (3,2,1,1)/(2,1), whose
    leaves come out with (3,1) before (2,2)."""
    shapes = [(outer, inner) for n in range(8) for outer in all_partitions(n)
              for k in range(n + 1) for inner in all_partitions(k) if contains(inner, outer)]
    assert (Partition((3, 2, 1, 1)), Partition((2, 1))) in shapes
    for outer, inner in shapes:
        terms = list(skew_expansion(outer, inner))
        assert terms == sorted(terms, reverse=True), (outer, inner)


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


@pytest.mark.parametrize("compute, value", [
    (lambda: nl_coefficient((2, 2), (2, 2), (2, 2)), 2),
    (lambda: nl_coefficient_full((2, 2), (2, 2), (2, 2)), 2),
    (lambda: tensor_decompose((2, 1), (1, 1), GroupSpec("B", 4)).terms[Partition((2, 1))], 2),
], ids=["nl_coefficient", "nl_coefficient_full", "tensor_decompose"])
def test_sum_is_checked_once_at_the_end(monkeypatch, compute, value):
    """Every expansion coefficient and LR value involved is 1, so only the
    returned sum can leave a cap of value - 1."""
    monkeypatch.setattr(lr, "INT64_MAX", value - 1)
    clear_cache()
    with pytest.raises(OverflowError):
        compute()
    monkeypatch.setattr(lr, "INT64_MAX", value)
    clear_cache()
    assert compute() == value
    clear_cache()
