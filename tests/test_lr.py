"""lr_coefficient contract: guard conditions, symmetry, conjugation,
skew expansions, and checked 64-bit arithmetic."""

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
    assert lr_coefficient((1,), (997,), (998,)) == 1
    assert lr_coefficient((997,), (1,), (998,)) == 1


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
    """lr_coefficient against the labeling oracle, every triple of matching
    sizes with |nu| <= 6, both orders of the lower shapes."""
    for n in range(7):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for lam in all_partitions(k):
                    for mu in all_partitions(n - k):
                        expected = brute_lr(lam, mu, nu)
                        assert lr_coefficient(lam, mu, nu) == expected, (lam, mu, nu)
                        assert lr_coefficient(mu, lam, nu) == expected, (mu, lam, nu)


def test_each_count_fills_the_smaller_side(monkeypatch):
    """Every contained triple with |nu| <= 6 whose lower shapes differ in
    size or, at one size, in length: in both orders, each call makes one
    search, and it fills nu less the larger lower shape with the smaller as
    content."""
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
        for lam, mu in ((small, large), (large, small)):
            searches.clear()
            lr_coefficient(lam, mu, nu)
            assert searches == [(small.size, large, small)], (lam, mu, nu)


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


# --- no memo between calls ---

def test_clear_cache_leaves_the_oracle_caches():
    """The package keeps no memo between calls, so clearing has nothing to
    drop; the polynomial oracle's own caches stay as they were."""
    from tensorcube import oracle
    assert oracle.lr_via_polynomials((2, 1), (2, 1), (3, 2, 1)) == 2
    caches = [oracle._schur_cached, oracle._kostka, oracle._schur_sector]
    before = [f.cache_info() for f in caches]
    assert all(info.currsize for info in before)
    clear_cache()
    assert [f.cache_info() for f in caches] == before


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


def test_skew_expansion_is_a_fresh_dict():
    """Each call searches again and returns its own dict, so changing one
    answer changes no later one."""
    expansion = skew_expansion((3, 2, 1), (2, 1))
    expansion[Partition((3,))] = 5
    again = skew_expansion((3, 2, 1), (2, 1))
    assert again is not expansion
    assert again == {Partition((3,)): 1, Partition((2, 1)): 2, Partition((1, 1, 1)): 1}


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
    with pytest.raises(OverflowError):
        compute()
    monkeypatch.setattr(lr, "INT64_MAX", value)
    assert compute() == value
