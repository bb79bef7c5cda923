"""The benchmark's checkers accept correct outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import itertools
import json
from types import SimpleNamespace

import pytest

from checkers import (conjugate, dimension_identity_problem, lr_tableau_problem, nl_triple_sum,
                      partition_count, partitions, weyl_dimension)
from workloads import WORKLOADS, _check_cli, full_rows

from tensorcube import (GroupSpec, SkewShape, clear_cache, detects, enumerate_lr_tableaux,
                        lr_coefficient, nl_coefficient, tensor_decompose)
from tensorcube.oracle import lr_via_polynomials

# shape (4,3,2)/(2,1), content (3,2,1); reading word 1,1,2,1,3,2
VALID = [[None, None, 1, 1], [None, 1, 2], [2, 3]]


def corrupt(rows, a, b):
    """Swap the entries at boxes a and b."""
    rows = [list(r) for r in rows]
    (i, j), (k, l) = a, b
    rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
    return rows


def test_lr_validator_accepts_a_valid_tableau():
    assert lr_tableau_problem((4, 3, 2), (2, 1), (3, 2, 1), VALID) is None


@pytest.mark.parametrize("a,b", [((1, 1), (1, 2)), ((2, 0), (2, 1)), ((0, 3), (2, 1)),
                                 ((0, 2), (1, 2))])
def test_lr_validator_rejects_one_swapped_entry(a, b):
    assert lr_tableau_problem((4, 3, 2), (2, 1), (3, 2, 1), corrupt(VALID, a, b))


def test_lr_validator_rejects_wrong_content_shape_and_inner_boxes():
    assert lr_tableau_problem((4, 3, 2), (2, 1), (4, 1, 1), VALID)
    assert lr_tableau_problem((4, 3, 3), (2, 1), (3, 2, 1), VALID)
    assert lr_tableau_problem((4, 3, 2), (1, 1), (3, 2, 1), VALID)
    assert lr_tableau_problem((2,), (), (2,), [[1, 1]]) is None
    assert lr_tableau_problem((2,), (), (1, 1), [[1, 2]])       # reading word 2,1
    assert lr_tableau_problem((1, 1), (), (1, 1), [[2], [1]])   # column, and not lattice
    assert lr_tableau_problem((1, 1), (), (2,), [[1], [1]])     # column not strict


def test_lr_validator_counts_match_by_brute_force():
    """Over every filling of a small skew shape, the fillings the validator
    accepts are exactly the LR tableaux: their number is the coefficient."""
    outer, inner, cont = (4, 3, 2, 1), (2, 1), (3, 2, 2)
    shape = SkewShape(outer, inner)
    padded = inner + (0,) * (len(outer) - len(inner))
    boxes = [(i, j) for i in range(len(outer)) for j in range(padded[i], outer[i])]
    accepted = 0
    for letters in itertools.product(range(1, len(cont) + 1), repeat=len(boxes)):
        rows = full_rows(outer, inner, [[0] * (o - p) for o, p in zip(outer, padded)])
        for (i, j), x in zip(boxes, letters):
            rows[i][j] = x
        accepted += lr_tableau_problem(outer, inner, cont, rows) is None
    assert accepted == lr_coefficient(inner, cont, outer) > 0
    for t in enumerate_lr_tableaux(shape, cont):
        assert lr_tableau_problem(outer, inner, cont, full_rows(outer, inner, t.rows)) is None


@pytest.mark.parametrize("family,rank,weight,dim", [
    ("B", 2, (1,), 5), ("B", 2, (1, 1), 10), ("B", 3, (1,), 7), ("B", 3, (1, 1), 21),
    ("C", 2, (1,), 4), ("C", 2, (2,), 10), ("C", 2, (1, 1), 5), ("C", 3, (2,), 21),
    ("D", 4, (1,), 8), ("D", 4, (1, 1), 28), ("D", 4, (2,), 35), ("D", 2, (2,), 9),
    ("D", 2, (1, 1), 3), ("B", 4, (), 1),
])
def test_weyl_dimension(family, rank, weight, dim):
    assert weyl_dimension(family, rank, weight) == dim


def test_dimension_identity_accepts_products_and_rejects_an_off_by_one():
    square = {(2,): 1, (1, 1): 1, (): 1}
    for family, rank in (("B", 2), ("C", 2), ("D", 4)):
        assert dimension_identity_problem(family, rank, (1,), (1,), square, {}) is None
        assert dimension_identity_problem(family, rank, (1,), (1,), {**square, (): 2}, {})
    # O(4): (1,1) uses both rows, splits into two SO(4) modules of dimension 3
    assert dimension_identity_problem("D", 2, (1,), (1,), {(2,): 1, (): 1}, {(1, 1): 1}) is None
    assert dimension_identity_problem("D", 2, (1,), (1,), {(2,): 1, (): 1}, {(1, 1): 2})


def test_pentagonal_count():
    assert [partition_count(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_count(50) == 204226
    assert all(partition_count(n) == sum(1 for _ in partitions(n)) for n in range(16))


def test_triple_sum_on_the_polynomial_route():
    assert nl_triple_sum((1,), (1,), (2,), lr_via_polynomials) == 1
    assert nl_triple_sum((2, 2), (2, 2), (2, 2), lr_via_polynomials) == 2
    assert nl_triple_sum((2, 1), (2, 1), (2, 1), lr_via_polynomials) == 0
    for lam, mu, nu in [((2, 1), (1, 1), (2, 1, 1)), ((3, 1), (2, 2), (2, 1, 1)),
                        ((2, 2), (3, 1), (3, 1))]:
        assert nl_triple_sum(lam, mu, nu, lr_via_polynomials) == nl_coefficient(lam, mu, nu)


# -- workload checks reject corrupted program outputs ---------------------

def lib():
    return SimpleNamespace(lr_coefficient=lr_coefficient, tensor_decompose=tensor_decompose,
                           GroupSpec=GroupSpec, detects=detects, clear_cache=clear_cache)


def test_lr_kernel_check_rejects_swapped_tableau_entry_and_wrong_count():
    w = WORKLOADS["lr-kernel"]
    lam, mu, nu = (2, 1), (2, 1), (3, 2, 1)
    ops = [("lr", lam, mu, nu), ("enum", lam, mu, nu)]
    tableaux = enumerate_lr_tableaux(SkewShape(nu, lam), mu)
    outs = [len(tableaux), tableaux]
    assert w.check(lib(), ops, outs) == []
    assert w.check(lib(), ops, [len(tableaux) + 1, tableaux])
    bad = [SimpleNamespace(rows=((2,), (1,), (1,)))] + tableaux[1:]   # first column swapped
    assert w.check(lib(), ops, [len(tableaux), bad])
    assert w.check(lib(), ops, [len(tableaux), tableaux[:1] * 2])      # repeated tableau


def test_detect_check_rejects_off_by_one_and_swapped_certificate():
    w = WORKLOADS["detect-cold"]
    ops = [(3, 1), conjugate((3, 1)), (2, 2)]
    outs = [detects(lam) for lam in ops]
    assert w.check(lib(), ops, outs) == []
    wrong = SimpleNamespace(**dict(vars_of(outs[2]), multiplicity=outs[2].multiplicity + 1))
    assert w.check(lib(), ops, outs[:2] + [wrong])
    cert = outs[2].witness.certificates[0]
    swapped = SimpleNamespace(shape=cert.shape, rows=tuple(reversed(cert.rows)))
    witness = SimpleNamespace(**dict(vars_of(outs[2].witness),
                                     certificates=(swapped,) + outs[2].witness.certificates[1:]))
    bad = SimpleNamespace(**dict(vars_of(outs[2]), witness=witness))
    assert w.check(lib(), ops, outs[:2] + [bad])


def vars_of(obj):
    return {k: getattr(obj, k) for k in obj.__dataclass_fields__}


def test_decompose_check_rejects_a_multiplicity_off_by_one():
    w = WORKLOADS["decompose-bcd"]
    ops = [((2, 1), (1, 1), "C", 4), ((2, 1), (1, 1), "B", 2), ((2, 1), (1,), "D", 4),
           ((2, 1, 1), (1, 1), "D", 4)]
    outs = [tensor_decompose(lam, mu, GroupSpec(f, r)) for lam, mu, f, r in ops]
    assert w.check(lib(), ops, outs) == []
    for i, out in enumerate(outs):
        nu = next(iter(out.terms))
        terms = {**out.terms, nu: out.terms[nu] + 1}
        bad = SimpleNamespace(terms=terms, inadmissible=out.inadmissible, stable=out.stable)
        assert w.check(lib(), ops[i:i + 1], [bad])


def test_cli_checks_reject_corrupted_documents():
    summary = {"summary": {"theorem": "odd", "max_size": 3, "checked": 4, "failures": 0}}
    entries = [{"lambda": t, "size": 3, "N": 0, "ok": True} for t in ("1", "3", "2,1", "1^3")]
    argv = ["verify", "odd", "--max-size", "13"]
    assert "pentagonal" in _check_cli(argv, 0, entries + [summary])
    nl = {"lambda": "2,1", "mu": "2,1", "nu": "2", "coefficient": 2,
          "support": [{"alpha": "1", "beta": "1", "gamma": "1", "factors": [1, 1, 1]},
                      {"alpha": "1", "beta": "1", "gamma": "1", "factors": [1, 1, 1]}]}
    assert _check_cli(["nl"], 0, [nl]) is None
    nl["support"][1]["factors"] = [1, 2, 1]
    assert _check_cli(["nl"], 0, [nl])
    doc = tensor_decompose((1,), (1,), GroupSpec("C", 2)).to_json()
    assert _check_cli(["decompose"], 0, [json.loads(json.dumps(doc))]) is None
    doc["terms"][0]["mult"] += 1
    assert _check_cli(["decompose"], 0, [doc])
    assert _check_cli(["detect"], 0, [{"lambda": "2,1", "detected": False}])
