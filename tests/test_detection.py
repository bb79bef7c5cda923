"""Tensor-cube detection: witness construction for the four shape
families, the detection verdict, and the two verification sweeps."""

import pytest

from oracles import brute_nl, gen_partitions
from tensorcube import (
    Partition,
    build_witness,
    classify,
    detects,
    lr_coefficient,
    nl_coefficient,
    verify_even_theorem,
    verify_odd_theorem,
    witness_all_even,
    witness_distinct_odd,
    witness_hook,
    witness_rectangle,
)
from tensorcube import detection
from tensorcube.detection import EVEN_SWEEP_LIMIT, ODD_SWEEP_LIMIT
from tensorcube.oracle import lr_via_polynomials
from tensorcube.tableaux import content, is_lr_tableau, word


def all_partitions(n):
    return [Partition(p) for p in gen_partitions(n)]


def assert_sound(lam, witness):
    """The three certificates literally prove the coefficient is positive."""
    lam = Partition(lam)
    pairs = [
        (witness.alpha, witness.beta),
        (witness.beta, witness.gamma),
        (witness.alpha, witness.gamma),
    ]
    assert witness.alpha.size == witness.beta.size == witness.gamma.size
    for cert, (inner, cont) in zip(witness.certificates, pairs):
        assert cert.shape.outer == lam
        assert cert.shape.inner == inner
        got = content(cert)
        assert tuple(got) + (0,) * (len(cont) - len(got)) == tuple(cont) + (
            0,
        ) * (len(got) - len(cont))
        assert is_lr_tableau(cert)


# --- the four builders on their canonical shapes ---

def test_all_even_witness():
    w = witness_all_even((6, 4, 4, 2, 2))
    assert w.alpha == w.beta == w.gamma == Partition((3, 2, 2, 1, 1))
    assert word(w.certificates[0]) == (1, 1, 1, 2, 2, 3, 3, 4, 5)
    assert w.path == "constructed"
    assert_sound((6, 4, 4, 2, 2), w)


def test_distinct_odd_witness():
    w = witness_distinct_odd((7, 5, 3, 1))
    assert w.alpha == Partition((4, 3, 1))
    assert w.beta == Partition((3, 2, 2, 1))
    assert w.gamma == w.alpha
    assert [word(c) for c in w.certificates] == [
        (1, 1, 1, 2, 2, 3, 3, 4),
        (1, 1, 1, 1, 2, 2, 2, 3),
        (1, 1, 1, 2, 1, 2, 2, 3),
    ]
    assert w.path == "constructed"
    assert_sound((7, 5, 3, 1), w)


def test_hook_witness_odd_arm():
    w = witness_hook((6, 1, 1, 1, 1))
    assert w.alpha == w.beta == w.gamma == Partition((3, 1, 1))
    assert word(w.certificates[0]) == (1, 1, 1, 2, 3)
    assert w.path == "constructed"
    assert_sound((6, 1, 1, 1, 1), w)


def test_hook_witness_even_arm():
    w = witness_hook((5, 1, 1, 1))
    assert w.alpha == Partition((3, 1))
    assert w.beta == Partition((2, 1, 1))
    assert w.gamma == w.alpha
    assert [word(c) for c in w.certificates] == [
        (1, 1, 2, 3),
        (1, 1, 1, 2),
        (1, 1, 1, 2),
    ]
    assert w.path == "constructed"
    assert_sound((5, 1, 1, 1), w)


def test_hook_witness_armless_column_falls_back():
    w = witness_hook((1, 1))
    assert w.alpha == w.beta == w.gamma == Partition((1,))
    assert w.path == "fallback"
    assert_sound((1, 1), w)


def test_rectangle_witness_odd_cols():
    w = witness_rectangle((3, 3))
    assert w.alpha == w.beta == w.gamma == Partition((3,))
    assert word(w.certificates[0]) == (1, 1, 1)
    assert_sound((3, 3), w)


def test_rectangle_witness_even_cols_reuses_halving():
    w = witness_rectangle((4, 4))
    assert w.alpha == w.beta == w.gamma == Partition((2, 2))
    assert_sound((4, 4), w)


def test_empty_partition_witness():
    w = witness_all_even(())
    assert w.alpha == Partition(())
    assert_sound((), w)


# --- builder dispatch ---

def test_build_witness_priority_and_none_cases():
    assert build_witness((4, 3, 2, 1)) is None  # no family matches
    assert build_witness((2, 1)) is None  # odd size
    assert build_witness((4, 4)).alpha == Partition((2, 2))  # all-even first
    assert build_witness((1, 1)).path == "fallback"


def test_witnesses_validate_on_every_classified_shape():
    """Soundness on all classified even shapes up to size 10."""
    for n in range(0, 11, 2):
        for lam in all_partitions(n):
            if not classify(lam):
                continue
            w = build_witness(lam)
            assert w is not None, lam
            assert_sound(lam, w)


# --- verdicts ---

def test_detect_verdict_distinct_odd():
    v = detects((7, 5, 3, 1))
    assert v.detected
    assert v.multiplicity >= 1
    assert v.witness.alpha == Partition((4, 3, 1))
    assert v.witness.beta == Partition((3, 2, 2, 1))


def test_detect_verdict_odd_size():
    v = detects((3,))
    assert not v.detected
    assert v.multiplicity == 0
    assert v.witness is None


def test_detect_verdict_unclassified_shape_still_decides():
    v = detects((4, 3, 2, 1))
    assert v.families == frozenset()
    assert v.witness is None
    assert v.multiplicity == 324
    assert v.detected


def test_detect_values_match_brute_force():
    cases = {
        (4, 4): 3,
        (3, 3): 2,
        (2, 2, 2): 2,
        (6, 1, 1, 1, 1): 4,
        (5, 1, 1, 1): 4,
        (1, 1, 1, 1): 1,
    }
    for lam, expected in cases.items():
        assert brute_nl(lam, lam, lam) == expected
        assert detects(lam).multiplicity == expected


def test_detection_parity_exhaustive():
    """Odd sizes are never detected, through size 11."""
    for n in range(1, 12, 2):
        for lam in all_partitions(n):
            assert not detects(lam).detected


def test_second_order_check_with_polynomial_backend():
    """Re-run the triple sum for the diagonal with the polynomial LR
    route; it must reproduce the engine's multiplicity."""
    for lam in [(2,), (1, 1), (2, 2), (3, 1), (1, 1, 1, 1), (2, 2, 2)]:
        lam = Partition(lam)
        half = lam.size // 2
        total = 0
        for alpha in all_partitions(half):
            for beta in all_partitions(half):
                cab = lr_via_polynomials(alpha, beta, lam)
                if not cab:
                    continue
                for gamma in all_partitions(half):
                    cag = lr_via_polynomials(alpha, gamma, lam)
                    if cag:
                        total += cab * cag * lr_via_polynomials(beta, gamma, lam)
        assert total == nl_coefficient(lam, lam, lam)


# --- sweeps ---

def test_odd_sweep_small():
    report = verify_odd_theorem(5)
    assert report.theorem == "odd"
    assert report.checked == 1 + 3 + 7
    assert report.failures == []
    assert all(entry["ok"] for entry in report.entries)


def test_even_sweep_small():
    report = verify_even_theorem(6)
    assert report.theorem == "even"
    assert report.checked == 1 + 2 + 5 + 11
    assert report.failures == []
    tallies = report.family_tallies
    assert tallies["hook"] >= 1
    assert tallies["rectangle"] >= 1
    assert tallies["all-even"] >= 1
    assert {e["lambda"] for e in report.unclassified} <= {
        e["lambda"] for e in report.entries
    }
    assert all(not e["families"] for e in report.unclassified)


def test_even_sweep_validates_witnesses():
    report = verify_even_theorem(8)
    for entry in report.entries:
        if entry.get("kinds"):
            assert entry["detected"]
            assert entry["witness"] is not None


def test_sweep_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        verify_odd_theorem(ODD_SWEEP_LIMIT + 2)
    with pytest.raises(ValueError):
        verify_even_theorem(EVEN_SWEEP_LIMIT + 2)
    with pytest.raises(ValueError):
        verify_odd_theorem(-1)


def test_sweep_parallel_matches_serial():
    serial = verify_even_theorem(4, jobs=1)
    parallel = verify_even_theorem(4, jobs=2)
    assert serial.entries == parallel.entries
    assert serial.family_tallies == parallel.family_tallies


class RecordingExecutor:
    """Stands in for the process pool: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("cpus, jobs, expected", [
    (4, 100000, [4]),    # bounded by the CPU count
    (64, 100000, [8]),   # bounded by the eight weights of even size <= 4
    (4, 2, [2]),
    (None, 100000, []),  # unknown CPU count: serial, no pool
])
def test_sweep_workers_bounded_by_cpus_and_items(monkeypatch, cpus, jobs, expected):
    monkeypatch.setattr(detection, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(detection.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    report = verify_even_theorem(4, jobs=jobs)
    assert RecordingExecutor.sizes == expected
    assert report.entries == verify_even_theorem(4, jobs=1).entries
