"""Tensor-cube detection: witness construction for the four shape
families, the detection verdict, and the two verification sweeps."""

import json
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from oracles import brute_nl, gen_partitions
from tensorcube import (
    Partition,
    build_witness,
    classify,
    detects,
    enumerate_partitions,
    lr_coefficient,
    nl_coefficient,
    nl_sum_support,
    render,
    verify_even_theorem,
    verify_odd_theorem,
    witness_all_even,
    witness_distinct_odd,
    witness_hook,
    witness_rectangle,
)
from tensorcube import detection, tableaux
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


def test_armless_column_witness_is_the_first_support_triangle():
    """The hook recipe degenerates on the column (1^2k); its witness is
    (1^k) three times, the first triangle of the self-pairing sum."""
    for k in range(1, 7):
        lam = Partition((1,) * (2 * k))
        w = witness_hook(lam)
        assert (w.alpha, w.beta, w.gamma) == nl_sum_support(lam, lam, lam)[0], lam
        assert w.path == "fallback"
        assert detection._witness_ok(lam, w), lam


@pytest.mark.parametrize("builder, lam", [
    (witness_all_even, (3, 1)),
    (witness_distinct_odd, (5, 3, 1)),
    (witness_distinct_odd, (3, 3)),
    (witness_hook, (2, 2)),
    (witness_hook, (3, 1, 1)),
    (witness_rectangle, (2, 1)),
    (witness_rectangle, (3,)),
], ids=lambda v: v.__name__ if callable(v) else render(v))
def test_builders_refuse_weights_outside_their_family(builder, lam):
    """Outside its family, or at odd size, a builder names the weight."""
    with pytest.raises(ValueError, match=re.escape(f"({render(lam)})")):
        builder(lam)


# --- builder dispatch ---

def test_build_witness_priority_and_none_cases():
    assert build_witness((4, 3, 2, 1)) is None  # no family matches
    assert build_witness((2, 1)) is None  # odd size
    assert build_witness((4, 4)).alpha == Partition((2, 2))  # all-even first
    assert build_witness((1, 1)).path == "fallback"


def test_wide_witness_is_refused_before_any_row_is_built():
    """A certificate is drawn on its weight's diagram, so a weight past the
    drawing bound is refused before its pour lists |lam|/2 letters;
    (2000, 2000), past the search's depth budget but drawable, still builds.
    Run under a 2 GB address-space cap, as the command line tests are."""
    script = (
        "import json, resource\n"
        "cap = 2 << 30\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    cap = min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from tensorcube import build_witness, witness_hook\n"
        "found = []\n"
        "for build, lam in ((build_witness, (10**10, 10**10)), (witness_hook, (10**10,))):\n"
        "    try:\n"
        "        build(lam)\n"
        "    except ValueError as exc:\n"
        "        found.append(str(exc))\n"
        "found.append(build_witness((2000, 2000)).path)\n"
        "print(json.dumps(found))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    bound = f"past the drawing bound of {tableaux._MAX_DIAGRAM_CELLS} cells"
    assert json.loads(proc.stdout) == [
        f"a diagram of {2 * 10**10} cells is {bound}",
        f"a diagram of {10**10} cells is {bound}",
        "constructed",
    ]


def row_major_pour(cert):
    """The certificate's content, 1,...,1,2,..., poured left to right and
    top to bottom into its shape, computed here from the shape alone."""
    letters = [t for t, count in enumerate(content(cert), 1) for _ in range(count)]
    outer, inner = cert.shape.outer, cert.shape.inner
    rows, start = [], 0
    for i, part in enumerate(outer):
        width = part - (inner[i] if i < len(inner) else 0)
        rows.append(tuple(letters[start:start + width]))
        start += width
    return tuple(rows)


def every_recipe(max_size):
    """(weight, builder) for every recipe that applies, not only the first
    by priority, to every weight of even size up to ``max_size``."""
    for n in range(0, max_size + 1, 2):
        for lam in all_partitions(n):
            families = classify(lam)
            for kind, builder in detection._BUILDERS:
                if any(isinstance(f, kind) for f in families):
                    yield lam, builder


def test_witnesses_validate_on_every_classified_shape():
    """Every recipe that applies on every even weight up to size 30: each
    certificate is the row-major pour of its content, the witness
    validates, and it carries its recipe's label."""
    built = 0
    for lam, builder in every_recipe(30):
        w = builder(lam)
        built += 1
        for cert in w.certificates:
            assert cert.rows == row_major_pour(cert), (lam, builder.__name__)
        assert detection._witness_ok(lam, w), (lam, builder.__name__)
        assert_sound(lam, w)
        armless = builder is witness_hook and lam == (1,) * lam.size
        assert w.path == ("fallback" if armless else "constructed"), lam
    assert built == 1093


def test_a_pour_that_is_not_an_lr_tableau_raises():
    """No search stands behind the pour: one that is not an LR tableau of
    its content, or whose box count disagrees, is an internal fault that
    names the shape and the content (a ValueError would read as a usage
    error, exit 2). An LR tableau of (2,2,1)/(1,1) with content (2,1)
    exists; the pour is just not one."""
    bad_column = "the row-major filling of shape (2^2,1)-(1^2) with content (2,1)"
    with pytest.raises(RuntimeError, match=re.escape(bad_column)):
        detection._certificate(Partition((2, 2, 1)), Partition((1, 1)), Partition((2, 1)))
    assert lr_coefficient((1, 1), (2, 1), (2, 2, 1)) == 1
    with pytest.raises(RuntimeError, match=re.escape("shape (2^2)-(1) with content (1^2)")):
        detection._certificate(Partition((2, 2)), Partition((1,)), Partition((1, 1)))


def test_a_failed_pour_exits_4_and_fails_its_sweep_entry(monkeypatch, capsys):
    """Should a pour ever fail its check, `detect` exits 4 and `verify
    even` records a failed entry with the message."""
    from tensorcube.cli import main
    monkeypatch.setattr(detection, "is_lr_tableau", lambda t: False)
    assert main(["detect", "4,4"]) == 4
    message = "the row-major filling of shape (4^2)-(2^2) with content (2^2) is not an LR tableau"
    assert capsys.readouterr().err == f"error: {message}\n"
    entry = next(e for e in verify_even_theorem(4).entries if e["lambda"] == "2^2")
    assert (entry["ok"], entry["error"]) == (False, "the row-major filling of shape (2^2)-(1^2) "
                                                    "with content (1^2) is not an LR tableau")


def test_family_witnesses_run_no_tableau_search(monkeypatch):
    """Building and validating every family witness of even size up to 12
    never enters the tableau search."""
    def no_search(*args, **kwargs):
        raise AssertionError("a witness searched for a tableau")

    monkeypatch.setattr(tableaux, "_walk", no_search)
    for lam, builder in every_recipe(12):
        assert detection._witness_ok(lam, builder(lam)), lam


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


def test_even_sweep_reports_a_witness_error(broken_witness):
    """A witness that cannot be built fails its entry, which keeps its
    constant, and the report lists it."""
    report = verify_even_theorem(4)
    entry = next(e for e in report.entries if e["lambda"] == "2^2")
    assert entry["ok"] is False
    assert entry["error"] == broken_witness
    assert entry["N"] == nl_coefficient((2, 2), (2, 2), (2, 2)) > 0
    assert "witness" not in entry
    assert report.failures == [entry]
    assert all(e["ok"] for e in report.entries if e is not entry)


def test_sweep_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        verify_odd_theorem(ODD_SWEEP_LIMIT + 2)
    with pytest.raises(ValueError):
        verify_even_theorem(EVEN_SWEEP_LIMIT + 2)
    with pytest.raises(ValueError):
        verify_odd_theorem(-1)
    # a size or worker count that is not an int, a bool included, is
    # refused by name, and so is a worker count below 1
    for sweep, max_size, jobs, message in (
            (verify_odd_theorem, True, 1, "max_size must be an int, got True"),
            (verify_even_theorem, 2.5, 1, "max_size must be an int, got 2.5"),
            (verify_even_theorem, 4, 1.5, "jobs must be an int, got 1.5"),
            (verify_odd_theorem, 3, True, "jobs must be an int, got True"),
            (verify_even_theorem, 4, 0, "jobs must be at least 1, got 0"),
            (verify_odd_theorem, 3, -3, "jobs must be at least 1, got -3")):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            sweep(max_size, jobs=jobs)


def test_sweep_parallel_matches_serial():
    serial = verify_even_theorem(4, jobs=1)
    parallel = verify_even_theorem(4, jobs=2)
    assert serial.entries == parallel.entries
    assert serial.family_tallies == parallel.family_tallies


class ChunkCountingPool(ProcessPoolExecutor):
    """The real process pool, recording the sizes of the weights it is
    handed, in order, and how many chunks it cuts them into."""

    handed = []

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.handed.append((-(-len(items) // chunksize), [lam.size for lam in items]))
        return super().map(fn, items, chunksize=chunksize)


def test_odd_sweep_does_not_depend_on_jobs(monkeypatch):
    """The odd sweep to size 9 over two real worker processes, its weights
    handed out heaviest first in several chunks, gives the serial sweep's
    entries in the serial order: sizes ascending, reverse-lex within each."""
    monkeypatch.setattr(detection.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ChunkCountingPool)
    monkeypatch.setattr(ChunkCountingPool, "handed", [])
    serial = verify_odd_theorem(9, jobs=1)
    parallel = verify_odd_theorem(9, jobs=2)
    [(chunks, sizes)] = ChunkCountingPool.handed
    assert chunks > 2 and sizes == sorted(sizes, reverse=True)
    assert parallel.entries == serial.entries
    assert [e["lambda"] for e in serial.entries] == [
        render(lam) for n in (1, 3, 5, 7, 9) for lam in enumerate_partitions(n)]
    assert (parallel.checked, parallel.failures) == (serial.checked, serial.failures) == (56, [])


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


def sweep_pool_sizes(monkeypatch, jobs):
    """The pool sizes an even sweep of size <= 4 asks for, its entries
    checked against the serial sweep."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    report = verify_even_theorem(4, jobs=jobs)
    assert report.entries == verify_even_theorem(4, jobs=1).entries
    return RecordingExecutor.sizes


@pytest.mark.parametrize("cpus, jobs, expected", [
    (4, 100000, [4]),    # bounded by the CPUs this process may use
    (64, 100000, [8]),   # bounded by the eight weights of even size <= 4
    (4, 2, [2]),
    (None, 100000, []),  # unknown CPU count: serial, no pool
    (1, 2, []),          # pinned to one CPU (taskset -c 0): serial, no pool
])
def test_sweep_workers_bounded_by_cpus_and_items(monkeypatch, cpus, jobs, expected):
    """A numeric ``cpus`` is the affinity mask, on a machine with more CPUs;
    None is a platform with no affinity mask and an unknown CPU count."""
    if cpus is None:
        monkeypatch.delattr(detection.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(detection.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(detection.os, "cpu_count", lambda: None if cpus is None else 128)
    assert sweep_pool_sizes(monkeypatch, jobs) == expected


@pytest.mark.parametrize("cpus, expected", [(4, [4]), (1, [])])
def test_sweep_workers_fall_back_to_the_cpu_count(monkeypatch, cpus, expected):
    """Without an affinity mask the machine's CPU count bounds the pool."""
    monkeypatch.delattr(detection.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(detection.os, "cpu_count", lambda: cpus)
    assert sweep_pool_sizes(monkeypatch, 100000) == expected

