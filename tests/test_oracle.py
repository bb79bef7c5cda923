"""Schur polynomial construction, basis expansion, and the polynomial
route to LR coefficients."""

import random

import pytest

from oracles import gen_partitions
from tensorcube import (
    Partition,
    SkewShape,
    enumerate_semistandard_tableaux,
    expand_in_schur_basis,
    lr_coefficient,
    lr_via_polynomials,
    schur_polynomial,
)
from tensorcube.oracle import DEGREE_LIMIT, MultiDegreePolynomial


def all_partitions(n):
    return [Partition(p) for p in gen_partitions(n)]


# --- schur polynomials ---

def test_schur_single_box():
    s = schur_polynomial((1,), 2)
    assert s.terms == {(1, 0): 1, (0, 1): 1}


def test_schur_two_one_in_three_variables():
    s = schur_polynomial((2, 1), 3)
    assert len(s.terms) == 7
    assert s.coefficient_sum() == 8
    assert s.terms[(1, 1, 1)] == 2


def test_schur_empty_partition_is_one():
    s = schur_polynomial((), 2)
    assert s.terms == {(0, 0): 1}


def test_schur_coefficient_sum_counts_ssyt():
    for n in range(6):
        for lam in all_partitions(n):
            for m in (max(lam.length, 1), lam.length + 2):
                s = schur_polynomial(lam, m)
                tableaux = enumerate_semistandard_tableaux(
                    SkewShape(lam, ()), m
                )
                assert s.coefficient_sum() == len(tableaux)


def test_schur_rejects_too_few_variables():
    with pytest.raises(ValueError):
        schur_polynomial((1, 1, 1), 2)


def test_polynomial_multiplication():
    x = MultiDegreePolynomial(2, {(1, 0): 1, (0, 1): 1})
    sq = x * x
    assert sq.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


# --- schur basis expansion ---

def test_expand_product_of_single_boxes():
    s1 = schur_polynomial((1,), 2)
    out = expand_in_schur_basis(s1 * s1, 2, 2)
    assert out == {Partition((2,)): 1, Partition((1, 1)): 1}


def test_expand_recovers_plain_schur():
    for n in range(6):
        for lam in all_partitions(n):
            m = max(lam.length, 1)
            out = expand_in_schur_basis(schur_polynomial(lam, m), n, m)
            assert out == {lam: 1}


def test_expand_rejects_nonsymmetric_input():
    poly = MultiDegreePolynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        expand_in_schur_basis(poly, 1, 2)


def test_expand_rejects_inhomogeneous_input():
    poly = MultiDegreePolynomial(2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    with pytest.raises(ValueError):
        expand_in_schur_basis(poly, 1, 2)


# --- LR via polynomials ---

def test_polynomial_route_degree_two():
    assert lr_via_polynomials((1,), (1,), (2,)) == 1
    assert lr_via_polynomials((1,), (1,), (1, 1)) == 1


def test_polynomial_route_unit():
    assert lr_via_polynomials((3, 1), (), (3, 1)) == 1


def test_polynomial_route_matches_enumeration_exhaustively():
    """Both backends agree on all triples with |lam|,|mu| <= 4."""
    for a in range(5):
        for b in range(5):
            for lam in all_partitions(a):
                for mu in all_partitions(b):
                    for nu in all_partitions(a + b):
                        assert lr_via_polynomials(lam, mu, nu) == lr_coefficient(
                            lam, mu, nu
                        ), (lam, mu, nu)


def test_polynomial_route_matches_on_random_triples():
    """200 pseudo-random triples with |nu| <= 12, fixed seed."""
    rng = random.Random(20240214)
    pools = {n: all_partitions(n) for n in range(13)}
    for _ in range(200):
        total = rng.randrange(0, 13)
        a = rng.randrange(0, total + 1)
        lam = rng.choice(pools[a])
        mu = rng.choice(pools[total - a])
        nu = rng.choice(pools[total])
        assert lr_via_polynomials(lam, mu, nu) == lr_coefficient(lam, mu, nu)


def test_variable_count_stability():
    """Any m that fits all three shapes gives the tableau count: the default,
    which is the longest of the three lengths, and one more."""
    cases = [
        ((2, 1), (2, 1), (3, 2, 1)),
        ((2, 1), (2, 1), (2, 2, 1, 1)),
        ((3, 1), (2,), (3, 2, 1)),
        ((1, 1), (1, 1), (2, 1, 1)),
        ((3, 1, 1, 1), (2, 2, 1, 1, 1, 1), (5, 5, 1, 1, 1, 1)),
    ]
    for lam, mu, nu in cases:
        base = lr_via_polynomials(lam, mu, nu)
        assert base == lr_coefficient(lam, mu, nu)
        m = max(len(lam), len(mu), len(nu))
        assert lr_via_polynomials(lam, mu, nu, nvars=m + 1) == base


def test_sector_shortcut_matches_full_expansion():
    """lr_via_polynomials works on the decreasing-exponent sector; it must
    agree with coefficients read from the full product expansion."""
    cases = [
        ((2, 1), (2, 1)),
        ((3, 1), (2, 2)),
        ((2, 2, 1), (2, 1)),
        ((1, 1, 1), (3,)),
    ]
    for lam, mu in cases:
        m = len(lam) + len(mu)
        prod = schur_polynomial(lam, m) * schur_polynomial(mu, m)
        full = expand_in_schur_basis(prod, sum(lam) + sum(mu), m)
        for nu in all_partitions(sum(lam) + sum(mu)):
            assert lr_via_polynomials(lam, mu, nu, nvars=m) == full.get(nu, 0)


def test_degree_cap_is_enforced():
    big = (4, 4, 4, 4)
    with pytest.raises(ValueError):
        lr_via_polynomials(big, big, (8, 8, 8, 8))
    assert DEGREE_LIMIT == 14
