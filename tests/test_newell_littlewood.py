"""Triple-sum coefficients, their symmetries, and tensor product
decomposition for the three classical families."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_nl, gen_partitions
from tensorcube import (
    GroupSpec,
    Partition,
    detects,
    enumerate_partitions,
    lr,
    lr_coefficient,
    newell_littlewood,
    nl_coefficient,
    nl_coefficient_full,
    nl_sum_support,
    tableaux,
    tensor_decompose,
    verify_odd_theorem,
)
from tensorcube.partitions import partitions_inside


def all_partitions(n):
    return [Partition(p) for p in gen_partitions(n)]


# --- coefficient values ---

def test_smallest_nonzero_values():
    assert nl_coefficient((1,), (1,), (2,)) == 1
    assert nl_coefficient((1,), (1,), (1, 1)) == 1
    assert nl_coefficient((1,), (1,), ()) == 1
    assert nl_coefficient((2,), (2,), (2,)) == 1
    assert nl_coefficient((1, 1), (1, 1), (1, 1)) == 1


def test_square_values_on_small_diagonals():
    assert nl_coefficient((2, 2), (2, 2), (2, 2)) == 2
    assert nl_coefficient((3, 3), (3, 3), (3, 3)) == 2
    assert nl_coefficient((2, 1), (2, 1), (2, 1)) == 0
    lam = (7, 6, 5, 4, 3, 1)
    assert nl_coefficient(lam, lam, lam) == 14916516


def test_mixed_parity_distinct_shape_value():
    lam = (4, 3, 2, 1)
    assert nl_coefficient(lam, lam, lam) == 324


def test_matches_brute_force_oracle():
    """Engine values equal the from-scratch triple sum for all argument
    triples with sizes up to 4."""
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for lam in all_partitions(a):
                    for mu in all_partitions(b):
                        for nu in all_partitions(c):
                            assert nl_coefficient(lam, mu, nu) == brute_nl(
                                lam, mu, nu
                            ), (lam, mu, nu)


def test_parity_vanishing_via_full_sum():
    """The naive sum is zero at every odd total, sizes <= 5. There the sizes
    force no alpha size, so this checks the size arithmetic, not an LR value:
    test_full_sum_searches_only_the_forced_sizes shows that nothing is
    searched."""
    for a in range(6):
        for b in range(6):
            for c in range(6):
                if (a + b + c) % 2 == 0:
                    continue
                for lam in all_partitions(a):
                    for mu in all_partitions(b):
                        for nu in all_partitions(c):
                            assert nl_coefficient_full(lam, mu, nu) == 0


def test_full_sum_equals_shortcut():
    """The count runs on the conjugate labels when they have fewer rows in
    total. Both sides agree with the naive sum: every triple of sizes up to
    4, 4 and 6 and every self-pairing of size up to 12, a grid that holds
    triples of either kind."""
    triples = [(lam, mu, nu) for a in range(5) for b in range(5) for c in range(7)
               for lam in all_partitions(a) for mu in all_partitions(b)
               for nu in all_partitions(c)]
    triples += [(lam,) * 3 for n in range(13) for lam in all_partitions(n)]
    fewer_rows = [sum(p[0] for p in t if p) < sum(map(len, t)) for t in triples]
    assert 0 < sum(fewer_rows) < len(triples)
    for lam, mu, nu in triples:
        assert nl_coefficient(lam, mu, nu) == nl_coefficient_full(lam, mu, nu), (lam, mu, nu)


def test_count_runs_on_the_side_with_fewer_rows(monkeypatch):
    """A column's cube is counted as the row's; a tie in the row totals
    keeps the labels as given, and the support listing never conjugates."""
    walked = []

    def recorded(*labels):
        walked.append(labels)
        return walk(*labels)

    walk = newell_littlewood._walk
    monkeypatch.setattr(newell_littlewood, "_walk", recorded)
    column, row = Partition((1, 1, 1, 1)), Partition((4,))
    assert nl_coefficient(column, column, column) == nl_coefficient(row, row, row) == 1
    assert nl_coefficient((3, 1), (1, 1), (2, 2)) == 1
    assert walked == [(row,) * 3, (row,) * 3, ((3, 1), (1, 1), (2, 2))]
    walked.clear()
    assert nl_sum_support(column, column, column) == [((1, 1), (1, 1), (1, 1))]
    assert walked == [(column,) * 3]


def test_symmetric_under_all_argument_orders():
    """All 6 orderings give the same value, sizes <= 5."""
    import itertools

    triples = []
    for a in range(6):
        for b in range(a, 6):
            for c in range(b, 6):
                for lam in all_partitions(a):
                    for mu in all_partitions(b):
                        for nu in all_partitions(c):
                            triples.append((lam, mu, nu))
    for lam, mu, nu in triples:
        base = nl_coefficient(lam, mu, nu)
        for p in itertools.permutations((lam, mu, nu)):
            assert nl_coefficient(*p) == base


def test_top_degree_reduces_to_lr():
    """When sizes force alpha empty the coefficient is plain LR, |nu| <= 8."""
    for n in range(9):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for lam in all_partitions(k):
                    for mu in all_partitions(n - k):
                        assert nl_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, mu, nu
                        )


def test_unit_law():
    for n in range(6):
        for lam in all_partitions(n):
            for nu in all_partitions(n):
                expected = 1 if lam == nu else 0
                assert nl_coefficient(lam, (), nu) == expected
    assert nl_coefficient((), (), ()) == 1


# --- support listing ---

def test_support_lists_contributing_triples():
    one = Partition((1,))
    assert nl_sum_support((2,), (2,), (2,)) == [(one, one, one)]
    assert nl_sum_support((1, 1), (1, 1), (1, 1)) == [(one, one, one)]
    assert nl_sum_support((), (), ()) == [(Partition(()),) * 3]


def test_support_sum_reproduces_coefficient():
    """Sizes 3 and 5 of mu give an s_{mu/alpha} both shorter and longer
    than s_{nu/beta}, so both branches of the dot product run; size 1 only
    the longer one, and size 2 an odd total, where both sides are 0."""
    mus = [mu for size in (1, 2, 3, 5) for mu in all_partitions(size)]
    for lam in all_partitions(3):
        for mu in mus:
            for nu in all_partitions(4):
                total = 0
                for alpha, beta, gamma in nl_sum_support(lam, mu, nu):
                    total += (
                        lr_coefficient(alpha, beta, lam)
                        * lr_coefficient(alpha, gamma, mu)
                        * lr_coefficient(beta, gamma, nu)
                    )
                assert total == nl_coefficient(lam, mu, nu)


def test_one_search_per_expansion_per_call(monkeypatch):
    """Each expansion is searched once per call, not once per alpha or beta
    that reaches it: for the cube of the staircase, where all three labels
    are one shape, that is one walk of that outer shape per distinct inner
    shape among the alphas and the betas, for the count and the support
    listing alike; a second identical call keeps nothing from the first and
    searches as often again."""
    lam = Partition((4, 3, 2, 1))
    alphas = partitions_inside(lam, lam.size // 2)
    betas = {beta for alpha in alphas for beta in lr.skew_expansion(lam, alpha)}
    expected = sorted(set(alphas) | betas)
    searched = []

    def counted(outer, inner, *args):
        searched.append(Partition(inner))
        assert outer == lam
        return walk(outer, inner, *args)

    walk = tableaux._walk
    monkeypatch.setattr(tableaux, "_walk", counted)
    for _ in range(2):
        searched.clear()
        assert nl_coefficient(lam, lam, lam) == 324
        assert sorted(searched) == expected
    searched.clear()
    assert len(nl_sum_support(lam, lam, lam)) == 81
    assert sorted(searched) == expected


def test_one_walk_per_expansion_of_each_label(monkeypatch):
    """With lam = nu the alphas (size 2) and the betas (size 4) are inner
    shapes of one outer shape, and only the two labels are outer shapes;
    every expansion is walked once."""
    lam, mu = Partition((3, 2, 1)), Partition((2, 2))
    expected = nl_coefficient_full(lam, mu, lam)
    walked = []

    def counted(outer, inner, *args):
        walked.append((outer, tuple(inner)))
        return walk(outer, inner, *args)

    walk = tableaux._walk
    monkeypatch.setattr(tableaux, "_walk", counted)
    assert nl_coefficient(lam, mu, lam) == expected > 0
    assert {outer for outer, _ in walked} == {mu, lam}
    assert len(walked) == len(set(walked))
    assert {len(inner) and sum(inner) for outer, inner in walked if outer == lam} == {2, 4}


def test_each_dot_product_once_per_call(monkeypatch):
    """With mu = nu the dot product of s_{mu/alpha} with s_{nu/beta} comes
    up for (alpha, beta) and again for (beta, alpha): on the cube of the
    staircase each unordered pair of expansions is dotted exactly once."""
    lam = Partition((4, 3, 2, 1))
    alphas = partitions_inside(lam, lam.size // 2)
    ordered = [(alpha, beta) for alpha in alphas for beta in lr.skew_expansion(lam, alpha)]
    pairs = {frozenset(pair) for pair in ordered}
    assert len(pairs) < len(ordered)
    dotted = []

    def recorded(left, right):
        dotted.append(frozenset((id(left), id(right))))
        return dot(left, right)

    dot = newell_littlewood._dot
    monkeypatch.setattr(newell_littlewood, "_dot", recorded)
    for _ in range(2):
        dotted.clear()
        assert nl_coefficient(lam, lam, lam) == 324
        assert len(dotted) == len(set(dotted)) == len(pairs)


def test_full_sum_counts_each_triple_once_per_call(monkeypatch):
    """One nl_coefficient_full call counts each unordered LR triple at most
    once, whichever order of the lower shapes reaches it; a second call
    counts them all again."""
    searched = []

    def record(shape, cont):
        searched.append((shape.outer, shape.inner, Partition(cont)))
        return count_lr_fillings(shape, cont)

    count_lr_fillings = lr.count_lr_fillings
    monkeypatch.setattr(lr, "count_lr_fillings", record)
    for lam, mu, nu in [((3, 2, 1),) * 3, ((2, 2), (2, 1, 1), (3, 1)), ((4, 2), (3, 1), (2,))]:
        calls = []
        for _ in range(2):
            searched.clear()
            value = nl_coefficient_full(lam, mu, nu)
            assert value == nl_coefficient(lam, mu, nu)
            assert len(set(searched)) == len(searched) > 0, (lam, mu, nu)
            calls.append(sorted(searched))
        assert calls[0] == calls[1]


def test_full_sum_searches_only_the_forced_sizes(monkeypatch):
    """The naive sum searches no factor it cannot use: none at an odd total
    of sizes <= 5 or in the odd sweep to size 13, and at an even total only
    triples with |alpha| = (|lam| + |mu| - |nu|) / 2 and the sizes that
    forces."""
    searched = []

    def record(shape, cont):
        searched.append((shape.outer, shape.inner.size, sum(cont)))
        return count_lr_fillings(shape, cont)

    count_lr_fillings = lr.count_lr_fillings
    monkeypatch.setattr(lr, "count_lr_fillings", record)
    sized = [(n, all_partitions(n)) for n in range(6)]
    for a, lams in sized:
        for b, mus in sized:
            for c, nus in sized:
                asize = (a + b - c) // 2
                for lam in lams:
                    for mu in mus:
                        for nu in nus:
                            searched.clear()
                            nl_coefficient_full(lam, mu, nu)
                            if (a + b + c) % 2:
                                assert not searched, (lam, mu, nu)
                                continue
                            forced = {lam: {asize, a - asize}, mu: {asize, b - asize},
                                      nu: {a - asize, b - asize}}
                            for outer, inner, small in searched:
                                assert {inner, small} == forced[outer], (lam, mu, nu, outer)
    searched.clear()
    report = verify_odd_theorem(13)
    assert report.checked > 0 and not report.failures
    assert searched == []


@pytest.mark.parametrize("lam, mu, nu, expected", [
    ((10**10,), (10**10,), (1,), 0),
    ((10**10,), (10**10,), (2,), 1),
    ((10**10, 1), (10**10, 1), (2,), 2),
    ((10**10, 1), (10**10, 1), (2, 2), 3),
])
def test_full_sum_on_wide_labels(lam, mu, nu, expected):
    """Wide labels with a small third label force a large alpha, so only
    one-box or two-box skew shapes are searched and the naive sum answers at
    once, as the count does."""
    assert nl_coefficient_full(lam, mu, nu) == nl_coefficient(lam, mu, nu) == expected


def test_threads_share_no_state():
    """Eight threads running detects and nl_coefficient over one list of
    weights, each from its own starting point and with frequent switches,
    get the serial answers."""
    weights = [p for n in range(2, 11) for p in all_partitions(n)]

    def answers(start):
        order = weights[start:] + weights[:start]
        found = {lam: (detects(lam), nl_coefficient(lam, lam, (2, 1, 1)))
                 for lam in order}
        return [found[lam] for lam in weights]

    serial = answers(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(answers, 7 * t) for t in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == serial for result in results)


def test_support_empty_when_sizes_cannot_balance():
    # odd total
    assert nl_sum_support((2, 1), (2, 1), (2, 1)) == []
    assert nl_sum_support((1,), (1,), (1,)) == []
    # negative forced size
    assert nl_sum_support((1,), (3, 2), (1, 1)) == []
    # nonzero coefficient means nonempty support
    assert len(nl_sum_support((2, 2), (2, 2), (2, 2))) >= 2


# --- group validation ---

def test_group_spec_families():
    assert GroupSpec("B", 3).max_weight_length == 3
    assert GroupSpec("C", 3).max_weight_length == 3
    assert GroupSpec("D", 4).max_weight_length == 3


def test_group_spec_rejects_odd_rank_d():
    with pytest.raises(ValueError):
        GroupSpec("D", 3)


@pytest.mark.parametrize("family, rank", [("C", 2.5), ("B", True), ("D", 2.0)])
def test_group_spec_rejects_non_integer_rank(family, rank):
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        GroupSpec(family, rank)


def test_group_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        GroupSpec("A", 2)
    with pytest.raises(ValueError):
        GroupSpec("B", 0)


# --- decomposition ---

def test_symplectic_rank2_vector_square():
    res = tensor_decompose((1,), (1,), GroupSpec("C", 2))
    assert dict(res.terms) == {
        Partition((2,)): 1,
        Partition((1, 1)): 1,
        Partition(()): 1,
    }
    assert res.inadmissible == {}
    assert res.stable


def test_even_orthogonal_routes_full_length_terms_aside():
    res = tensor_decompose((1,), (1,), GroupSpec("D", 2))
    assert dict(res.terms) == {Partition((2,)): 1, Partition(()): 1}
    assert dict(res.inadmissible) == {Partition((1, 1)): 1}


def test_decompose_rejects_overlong_weight():
    with pytest.raises(ValueError):
        tensor_decompose((1, 1, 1, 1), (1,), GroupSpec("B", 3))
    # family D leaves no room for a nonzero last coordinate
    with pytest.raises(ValueError):
        tensor_decompose((1, 1, 1, 1), (1,), GroupSpec("D", 4))
    tensor_decompose((1, 1, 1), (1,), GroupSpec("D", 4))


def test_unit_decomposition():
    res = tensor_decompose((2,), (), GroupSpec("B", 3))
    assert dict(res.terms) == {Partition((2,)): 1}


def test_term_maps_identical_across_families():
    """The multiplicities never depend on the family at large rank. The D
    filter reroutes full-length targets to `inadmissible` instead of
    dropping them, so the merged maps must coincide across all three."""
    for a in range(4):
        for b in range(4):
            for lam in all_partitions(a):
                for mu in all_partitions(b):
                    results = {
                        f: tensor_decompose(lam, mu, GroupSpec(f, 6))
                        for f in ("B", "C", "D")
                    }
                    assert results["B"].terms == results["C"].terms
                    assert not results["B"].inadmissible
                    assert not results["C"].inadmissible
                    merged_d = dict(results["D"].terms)
                    merged_d.update(results["D"].inadmissible)
                    assert merged_d == dict(results["B"].terms)


def test_term_maps_identical_when_rank_filters_are_silent():
    """With headroom on every family the term maps agree outright."""
    for a in range(4):
        for b in range(4):
            for lam in all_partitions(a):
                for mu in all_partitions(b):
                    results = [
                        tensor_decompose(lam, mu, GroupSpec(f, r))
                        for f, r in (("B", 8), ("C", 8), ("D", 8))
                    ]
                    assert results[0].terms == results[1].terms == results[2].terms
                    assert not any(r.inadmissible for r in results)


def test_terms_agree_with_coefficients():
    lam, mu = Partition((2, 1)), Partition((2,))
    res = tensor_decompose(lam, mu, GroupSpec("B", 4))
    for nu, mult in res.terms.items():
        assert mult == nl_coefficient(lam, mu, nu)
        assert nu.length <= 4
    # completeness: no admissible target missed
    from tensorcube import enumerate_partitions

    for size in range(lam.size + mu.size, -1, -2):
        for nu in enumerate_partitions(size, max_length=4):
            if nl_coefficient(lam, mu, nu):
                assert nu in res.terms


GROUPS = [GroupSpec(f, r) for f in "BC" for r in range(1, 7)] + [
    GroupSpec("D", r) for r in (2, 4, 6)
]


@st.composite
def decomposition_inputs(draw):
    group = draw(st.sampled_from(GROUPS))

    def weight():
        fitting = [p for p in all_partitions(draw(st.integers(0, 5)))
                   if len(p) <= group.max_weight_length]
        return draw(st.sampled_from(fitting))

    return weight(), weight(), group


@settings(max_examples=60, deadline=None)
@given(decomposition_inputs())
def test_decomposition_matches_full_sum(inputs):
    """Every output weight that fits the rank carries the naive triple sum
    as its multiplicity, in (size, weight) descending order, with family D's
    full-length weights routed aside."""
    lam, mu, group = inputs
    res = tensor_decompose(lam, mu, group)
    expected = {}
    for size in range(lam.size + mu.size, -1, -1):
        for nu in enumerate_partitions(size, max_length=group.rank):
            value = nl_coefficient_full(lam, mu, nu)
            if value:
                expected[nu] = value
    merged = dict(res.terms)
    merged.update(res.inadmissible)
    assert merged == expected
    assert list(res.terms) == sorted(res.terms, key=lambda nu: (nu.size, nu), reverse=True)
    if group.family == "D":
        assert all(len(nu) == group.rank for nu in res.inadmissible)
        assert all(len(nu) < group.rank for nu in res.terms)
    else:
        assert not res.inadmissible


def test_stable_decompositions_match_brute_force_oracle():
    """Every pair with |lam| + |mu| <= 5 (74 pairs), decomposed at the
    smallest stable rank, gives exactly the nonzero from-scratch triple sums."""
    pairs = [(lam, mu) for n in range(6) for k in range(n + 1)
             for lam in all_partitions(k) for mu in all_partitions(n - k)]
    assert len(pairs) == 74
    for lam, mu in pairs:
        res = tensor_decompose(lam, mu, GroupSpec("C", max(1, len(lam) + len(mu))))
        assert res.stable
        expected = {}
        for size in range(lam.size + mu.size + 1):
            for nu in all_partitions(size):
                value = brute_nl(lam, mu, nu)
                if value:
                    expected[nu] = value
        assert res.terms == expected, (lam, mu)


def old_route(lam, mu, group):
    """Reference decomposition through the public expansions: the
    sum over alpha of the expansion of the disconnected shape (lam/alpha
    shifted right past mu's first row, above mu/alpha) with all its letters,
    keeping the terms that fit the rank, in (size, weight) descending order."""
    w = mu[0] if mu else 0
    outer = [part + w for part in lam] + list(mu)
    found = {}
    meet = Partition(min(a, b) for a, b in zip(lam, mu))
    for asize in range(meet.size + 1):
        for alpha in partitions_inside(meet, asize):
            inner = [part + w for part in alpha] + [w] * (len(lam) - len(alpha)) + list(alpha)
            for nu, c in lr.skew_expansion(outer, inner).items():
                if len(nu) <= group.rank:
                    found[nu] = found.get(nu, 0) + c
    return sorted(found.items(), key=lambda term: (term[0].size, term[0]), reverse=True)


def test_decomposition_matches_the_stored_expansion_route():
    """Capping the letters at the rank finds exactly the terms the length
    filter kept, with the same multiplicities and order, on every pair of
    size <= 4 at B/C ranks 1-6 and D ranks 2, 4, 6 (unstable pairs too)."""
    weights = [p for n in range(5) for p in all_partitions(n)]
    unstable = 0
    for group in GROUPS:
        fitting = [p for p in weights if len(p) <= group.max_weight_length]
        for lam in fitting:
            for mu in fitting:
                res = tensor_decompose(lam, mu, group)
                expected = old_route(lam, mu, group)
                aside = [group.family == "D" and len(nu) == group.rank for nu, _ in expected]
                assert list(res.terms.items()) == [
                    t for t, a in zip(expected, aside) if not a], (lam, mu, group)
                assert list(res.inadmissible.items()) == [
                    t for t, a in zip(expected, aside) if a], (lam, mu, group)
                unstable += not res.stable
    assert unstable == 383


def test_decomposition_searches_once_per_alpha_and_stores_nothing(monkeypatch):
    """One content-free search per alpha inside the meet (the 42 partitions
    inside the staircase), all of the shared outer shape and tallied
    together; a second decomposition keeps nothing from the first and
    searches as often again."""
    lam = Partition((4, 3, 2, 1))
    searches = []

    def counted(*args):
        searches.append(args)
        return walk(*args)

    walk = tableaux._walk
    monkeypatch.setattr(tableaux, "_walk", counted)
    for _ in range(2):
        del searches[:]
        res = tensor_decompose(lam, lam, GroupSpec("C", 8))
        assert len(searches) == 42 and len({args[0] for args in searches}) == 1
        assert res.stable and sum(res.terms.values()) > 0


def test_decomposition_and_expansions_build_no_skew_shape(monkeypatch):
    """The search takes the plain partitions its callers have checked: a
    decomposition of (4,3,2,1)^2 at C8 (one search per alpha, 42 of them)
    and a cold expansion validate no SkewShape."""
    built = []
    init = tableaux.SkewShape.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tableaux.SkewShape, "__init__", counted)
    lam = Partition((4, 3, 2, 1))
    assert tensor_decompose(lam, lam, GroupSpec("C", 8)).stable
    assert lr.skew_expansion(lam, (2, 1))[Partition((3, 2, 1, 1))] == 2
    assert built == []


def test_stable_flag():
    assert tensor_decompose((1,), (1,), GroupSpec("B", 2)).stable
    assert not tensor_decompose((2, 1), (1, 1), GroupSpec("B", 3)).stable


def test_decomposition_json_round_trip():
    res = tensor_decompose((1,), (1,), GroupSpec("D", 2))
    doc = res.to_json()
    assert doc["group"] == {"family": "D", "rank": 2}
    assert {t["nu"]: t["mult"] for t in doc["terms"]} == {"2": 1, "": 1}
    assert doc["inadmissible"] == [{"nu": "1^2", "mult": 1}]
    assert doc["stable"] is True
