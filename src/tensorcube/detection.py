"""The cube-detection predicate, with constructive witnesses and sweeps.

A weight is detected exactly when its own label occurs in the square of its
irreducible, i.e. the self-pairing structure constant is positive. Four shape
families guarantee detection for even sizes: all parts even; distinct odd
parts with evenly many rows; hooks; rectangles. Each family witness is a
triangle (alpha, beta, gamma) of half-size partitions plus three certificate
tableaux, built by explicit greedy fillings, validated, and recovered by
exhaustive search when a degenerate edge makes the direct construction
inapplicable.

The verification sweeps are exhaustive over bounded sizes: odd sizes must all
vanish (checked through the unshortcut sum), and even sizes matching any
family must be detected with a valid witness.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .newell_littlewood import _subpartitions, nl_coefficient, nl_coefficient_full
from .partitions import (AllEven, DistinctOddEvenLength, Hook, Partition,
                         Rectangle, classify, enumerate_partitions, render)
from .tableaux import (SkewShape, SkewTableau, content, enumerate_lr_tableaux,
                       is_lr_tableau, tableau_json)

ODD_SWEEP_LIMIT = 13
EVEN_SWEEP_LIMIT = 12


@dataclass(frozen=True)
class WitnessTriple:
    """Three half-size partitions whose pairwise fillings certify a positive
    self-pairing constant for ``weight``.

    ``certificates`` hold LR tableaux for (shape weight-alpha, content beta),
    (shape weight-beta, content gamma) and (shape weight-alpha, content
    gamma), in that order. ``path`` records whether the direct construction
    survived validation ("constructed") or enumeration had to step in
    ("fallback")."""

    alpha: Partition
    beta: Partition
    gamma: Partition
    certificates: tuple[SkewTableau, SkewTableau, SkewTableau]
    path: str

    def to_json(self) -> dict:
        return {"alpha": render(self.alpha), "beta": render(self.beta),
                "gamma": render(self.gamma), "path": self.path,
                "certificates": [tableau_json(c) for c in self.certificates]}


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of the detection predicate for one weight.

    ``multiplicity`` is the weight's own multiplicity in its tensor square;
    ``witness`` is attached whenever a covered family applies (even size
    required)."""

    weight: Partition
    multiplicity: int
    detected: bool
    families: frozenset
    witness: Optional[WitnessTriple]


def _greedy_rows(shape: SkewShape, cont: Partition) -> Optional[SkewTableau]:
    """Row-major filling: the letters 1,...,1,2,... poured left to right, top
    to bottom; None when the box count disagrees."""
    if shape.size != cont.size:
        return None
    letters = [x + 1 for x, count in enumerate(cont) for _ in range(count)]
    rows = []
    at = 0
    for i in range(len(shape.outer)):
        lo, hi = shape.row_span(i)
        rows.append(tuple(letters[at:at + hi - lo]))
        at += hi - lo
    return SkewTableau(shape, tuple(rows))


def _certificate(lam: Partition, inner: Partition,
                 cont: Partition) -> tuple[SkewTableau, bool]:
    """A validated certificate for the pair: greedy construction first,
    enumeration fallback second. Raises when none exists at all."""
    shape = SkewShape(lam, inner)
    direct = _greedy_rows(shape, cont)
    if direct is not None and is_lr_tableau(direct):
        return direct, True
    found = enumerate_lr_tableaux(shape, cont)
    if not found:
        raise RuntimeError(
            f"no certificate of shape ({render(lam)})-({render(inner)}) "
            f"with content ({render(cont)})")
    return found[0], False


def _witness(lam: Partition, alpha: Partition, beta: Partition,
             gamma: Partition) -> WitnessTriple:
    """Certificates for (alpha, beta), (beta, gamma) and (alpha, gamma),
    labelled "constructed" only when all three greedy fillings validate."""
    made = [_certificate(lam, inner, cont)
            for inner, cont in ((alpha, beta), (beta, gamma), (alpha, gamma))]
    path = "constructed" if all(direct for _, direct in made) else "fallback"
    return WitnessTriple(alpha, beta, gamma, tuple(cert for cert, _ in made), path)


def witness_all_even(lam: Iterable[int]) -> WitnessTriple:
    """Halving witness: alpha = beta = gamma = half of each row, every row
    extended by copies of its own letter."""
    lam = Partition(lam)
    if any(p % 2 for p in lam):
        raise ValueError(f"({render(lam)}) has an odd part")
    half = Partition(p // 2 for p in lam)
    return _witness(lam, half, half, half)


def witness_distinct_odd(lam: Iterable[int]) -> WitnessTriple:
    """Witness for distinct odd parts with evenly many rows: the top half of
    the rows round up and the bottom half round down (the middle partition
    does the opposite)."""
    lam = Partition(lam)
    if len(lam) % 2:
        raise ValueError(f"({render(lam)}) has an odd number of parts")
    if any(p % 2 == 0 for p in lam) or len(set(lam)) != len(lam):
        raise ValueError(f"({render(lam)}) must have distinct odd parts")
    k = len(lam) // 2
    alpha = Partition([(p + 1) // 2 for p in lam[:k]] + [(p - 1) // 2 for p in lam[k:]])
    beta = Partition([(p - 1) // 2 for p in lam[:k]] + [(p + 1) // 2 for p in lam[k:]])
    return _witness(lam, alpha, beta, alpha)


def witness_hook(lam: Iterable[int]) -> WitnessTriple:
    """Witness for even-size hooks, split by arm parity.

    An odd arm halves into a single smaller hook used three times. An even
    arm uses two nearby hooks; with no arm at all the middle partition
    degenerates (its stated first part would be zero), so that edge falls
    back to exhaustive search."""
    lam = Partition(lam)
    hook = next((f for f in classify(lam) if isinstance(f, Hook)), None)
    if hook is None or lam.size % 2:
        raise ValueError(f"({render(lam)}) is not a hook of even size")
    a, b = hook.arm, hook.leg
    if a % 2 == 1:
        core = Partition([1 + (a - 1) // 2] + [1] * (b // 2))
        return _witness(lam, core, core, core)
    if a == 0:
        return _search_witness(lam)
    alpha = Partition([1 + a // 2] + [1] * ((b - 1) // 2))
    beta = Partition([a // 2] + [1] * ((b + 1) // 2))
    return _witness(lam, alpha, beta, alpha)


def witness_rectangle(lam: Iterable[int]) -> WitnessTriple:
    """Witness for even-size rectangles.

    Even row length reduces to the halving witness. Otherwise the row count
    is even: halve the conjugate and conjugate back, so alpha = beta = gamma
    stacks the full row length on half the rows, and each certificate is the
    bottom half of the rectangle filled row by row."""
    lam = Partition(lam)
    rect = next((f for f in classify(lam) if isinstance(f, Rectangle)), None)
    if rect is None or lam.size % 2:
        raise ValueError(f"({render(lam)}) is not a rectangle of even size")
    if rect.cols % 2 == 0:
        return witness_all_even(lam)
    half = Partition([rect.cols] * (rect.rows // 2))
    return _witness(lam, half, half, half)


def _search_witness(lam: Partition) -> WitnessTriple:
    """Exhaustive witness search over all half-size triangles in reverse-lex
    order; used when a family recipe degenerates."""
    candidates = _subpartitions(lam, lam.size // 2)
    for alpha in candidates:
        for beta in candidates:
            one = enumerate_lr_tableaux(SkewShape(lam, alpha), beta)
            if not one:
                continue
            for gamma in candidates:
                two = enumerate_lr_tableaux(SkewShape(lam, beta), gamma)
                if not two:
                    continue
                three = enumerate_lr_tableaux(SkewShape(lam, alpha), gamma)
                if not three:
                    continue
                return WitnessTriple(alpha, beta, gamma,
                                     (one[0], two[0], three[0]), "fallback")
    raise RuntimeError(f"no witness triangle exists for ({render(lam)})")


_BUILDERS: tuple[tuple[type, Callable], ...] = (
    (AllEven, witness_all_even),
    (DistinctOddEvenLength, witness_distinct_odd),
    (Hook, witness_hook),
    (Rectangle, witness_rectangle),
)


def build_witness(lam: Iterable[int]) -> Optional[WitnessTriple]:
    """Family witness in fixed priority order (all-even, distinct-odd, hook,
    rectangle); None when no family matches or the size is odd."""
    lam = Partition(lam)
    if lam.size % 2:
        return None
    families = classify(lam)
    for kind, builder in _BUILDERS:
        if any(isinstance(f, kind) for f in families):
            return builder(lam)
    return None


def detects(lam: Iterable[int]) -> DetectionVerdict:
    """Decide detection for one weight and attach the family witness when a
    covered shape applies."""
    lam = Partition(lam)
    value = nl_coefficient(lam, lam, lam)
    return DetectionVerdict(lam, value, value > 0, classify(lam), build_witness(lam))


def _witness_ok(lam: Partition, witness: WitnessTriple) -> bool:
    specs = ((witness.alpha, witness.beta),
             (witness.beta, witness.gamma),
             (witness.alpha, witness.gamma))
    for cert, (inner, cont) in zip(witness.certificates, specs):
        if cert.shape.outer != lam or cert.shape.inner != inner:
            return False
        if content(cert) != tuple(cont):
            return False
        if not is_lr_tableau(cert):
            return False
    return True


@dataclass
class SweepReport:
    """Result of one verification sweep; ``entries`` are JSON-ready dicts,
    one per weight, and ``failures`` is the subset that broke a claim."""

    theorem: str
    max_size: int
    checked: int
    entries: list
    failures: list
    family_tallies: dict
    unclassified: list


def _odd_entry(lam: Partition) -> dict:
    value = nl_coefficient_full(lam, lam, lam)
    return {"lambda": render(lam), "size": lam.size, "N": value, "ok": value == 0}


def _even_entry(lam: Partition) -> dict:
    families = classify(lam)
    value = nl_coefficient(lam, lam, lam)
    entry = {
        "lambda": render(lam),
        "size": lam.size,
        "families": sorted(f.describe() for f in families),
        "kinds": sorted({f.kind for f in families}),
        "N": value,
        "detected": value > 0,
    }
    if not families:
        entry["ok"] = True
        return entry
    try:
        witness = build_witness(lam)
    except RuntimeError as exc:
        entry["ok"] = False
        entry["error"] = str(exc)
        return entry
    entry["witness"] = witness.to_json()
    entry["path"] = witness.path
    entry["ok"] = _witness_ok(lam, witness) and value >= 1
    return entry


def _map(fn: Callable, items: list, jobs: int) -> list:
    # the pool forks all its workers at the first submit, so never ask for
    # more than there are items or CPUs
    jobs = min(jobs, len(items), os.cpu_count() or 1)
    if jobs <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(items) // (4 * jobs))
        return list(pool.map(fn, items, chunksize=chunk))


def verify_odd_theorem(max_size: int, jobs: int = 1) -> SweepReport:
    """Exhaustively confirm that every odd size up to ``max_size`` has a
    vanishing self-pairing constant, via the unshortcut sum. Any failure
    indicates an implementation bug."""
    if not 0 <= max_size <= ODD_SWEEP_LIMIT:
        raise ValueError(f"max_size must be between 0 and {ODD_SWEEP_LIMIT}, got {max_size}")
    lams = [lam for size in range(1, max_size + 1, 2)
            for lam in enumerate_partitions(size)]
    entries = _map(_odd_entry, lams, jobs)
    failures = [e for e in entries if not e["ok"]]
    return SweepReport("odd", max_size, len(entries), entries, failures, {}, [])


def verify_even_theorem(max_size: int, jobs: int = 1) -> SweepReport:
    """Exhaustively confirm detection for every even size up to ``max_size``:
    weights matching any covered family must come with a validated witness
    and a positive constant. Weights outside every family are reported with
    their computed constant and nothing is asserted about them."""
    if not 0 <= max_size <= EVEN_SWEEP_LIMIT:
        raise ValueError(f"max_size must be between 0 and {EVEN_SWEEP_LIMIT}, got {max_size}")
    lams = [lam for size in range(0, max_size + 1, 2)
            for lam in enumerate_partitions(size)]
    entries = _map(_even_entry, lams, jobs)
    failures = [e for e in entries if not e["ok"]]
    tallies: dict[str, int] = {}
    unclassified = []
    for e in entries:
        for kind in e["kinds"]:
            tallies[kind] = tallies.get(kind, 0) + 1
        if not e["families"]:
            unclassified.append(e)
    return SweepReport("even", max_size, len(entries), entries, failures,
                       tallies, unclassified)
