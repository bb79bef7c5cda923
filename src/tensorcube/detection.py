"""The cube-detection predicate, with constructive witnesses and sweeps.

A weight is detected exactly when its own label occurs in the square of its
irreducible, i.e. the self-pairing structure constant is positive. Four shape
families guarantee detection for even sizes: all parts even; distinct odd
parts with evenly many rows; hooks; rectangles. Each family witness is a
triangle (alpha, beta, gamma) of half-size partitions plus three certificate
tableaux, each its content poured row by row into its skew shape: the README
proves every recipe's pour an LR tableau, and each is still checked. The
hook recipe's armless column (1^2k) takes the first triangle of the
self-pairing sum, ((1^k), (1^k), (1^k)), the one witness labelled "fallback".

The verification sweeps are exhaustive over bounded sizes: odd sizes must
vanish through the naive sum, which searches nothing at an odd total, and
even sizes matching any family must be detected with a valid witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .newell_littlewood import nl_coefficient, nl_coefficient_full
from .partitions import (AllEven, DistinctOddEvenLength, Hook, Partition,
                         Rectangle, _check_int, classify, enumerate_partitions, render)
from .tableaux import (SkewShape, SkewTableau, _check_drawable, _cuts, content,
                       is_lr_tableau, tableau_json)

ODD_SWEEP_LIMIT = 13
EVEN_SWEEP_LIMIT = 12


@dataclass(frozen=True)
class WitnessTriple:
    """Three half-size partitions whose pairwise fillings certify a positive
    self-pairing constant for ``weight``.

    ``certificates`` hold LR tableaux for (shape weight-alpha, content beta),
    (shape weight-beta, content gamma) and (shape weight-alpha, content
    gamma), in that order. ``path`` is "fallback" for the hook recipe on the
    armless column (1^2k), where the recipe degenerates, and "constructed"
    for every other recipe's triangle."""

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


def _certificate(lam: Partition, inner: Partition, cont: Partition) -> SkewTableau:
    """The letters 1,...,1,2,... of ``cont`` poured row-major into lam/inner
    and checked: every recipe's pour is proven an LR tableau of its content
    (README), so one that is not raises RuntimeError. A ``lam`` past the
    drawing bound is refused before any row is built."""
    _check_drawable(lam)
    shape = SkewShape(lam, inner)
    if shape.size == cont.size:
        letters = [x + 1 for x, count in enumerate(cont) for _ in range(count)]
        poured = SkewTableau(shape, [letters[a:b] for a, b in _cuts(shape)])  # the search's row cut
        if is_lr_tableau(poured):
            return poured
    raise RuntimeError(
        f"the row-major filling of shape ({render(lam)})-({render(inner)}) "
        f"with content ({render(cont)}) is not an LR tableau")


def _witness(lam: Partition, alpha: Partition, beta: Partition,
             gamma: Partition, path: str) -> WitnessTriple:
    """Certificates for (alpha, beta), (beta, gamma) and (alpha, gamma),
    under the recipe's label ``path``."""
    return WitnessTriple(alpha, beta, gamma, tuple(
        _certificate(lam, inner, cont)
        for inner, cont in ((alpha, beta), (beta, gamma), (alpha, gamma))), path)


def _family(lam: Partition, kind: type):
    """The record of family ``kind`` that :func:`classify` finds for ``lam``
    of even size; ValueError naming the weight otherwise."""
    for found in classify(lam) if lam.size % 2 == 0 else ():
        if isinstance(found, kind):
            return found
    raise ValueError(f"({render(lam)}) is not an even-size weight of family {kind.kind}")


def witness_all_even(lam: Iterable[int]) -> WitnessTriple:
    """Halving witness: alpha = beta = gamma = half of each row, every row
    extended by copies of its own letter."""
    lam = Partition(lam)
    _family(lam, AllEven)
    half = Partition(p // 2 for p in lam)
    return _witness(lam, half, half, half, "constructed")


def witness_distinct_odd(lam: Iterable[int]) -> WitnessTriple:
    """Witness for distinct odd parts with evenly many rows: the top half of
    the rows round up and the bottom half round down (the middle partition
    does the opposite)."""
    lam = Partition(lam)
    _family(lam, DistinctOddEvenLength)
    k = len(lam) // 2
    alpha = Partition([(p + 1) // 2 for p in lam[:k]] + [(p - 1) // 2 for p in lam[k:]])
    beta = Partition([(p - 1) // 2 for p in lam[:k]] + [(p + 1) // 2 for p in lam[k:]])
    return _witness(lam, alpha, beta, alpha, "constructed")


def witness_hook(lam: Iterable[int]) -> WitnessTriple:
    """Witness for even-size hooks, split by arm parity.

    An odd arm halves into a single smaller hook used three times. An even
    arm uses two nearby hooks; with no arm at all the middle partition
    degenerates (its stated first part would be zero), so the column (1^2k)
    takes (1^k) three times, the first triangle of its self-pairing sum."""
    lam = Partition(lam)
    hook = _family(lam, Hook)
    a, b = hook.arm, hook.leg
    if a % 2 == 1:
        core = Partition([1 + (a - 1) // 2] + [1] * (b // 2))
        return _witness(lam, core, core, core, "constructed")
    if a == 0:
        column = Partition([1] * ((b + 1) // 2))
        return _witness(lam, column, column, column, "fallback")
    alpha = Partition([1 + a // 2] + [1] * ((b - 1) // 2))
    beta = Partition([a // 2] + [1] * ((b + 1) // 2))
    return _witness(lam, alpha, beta, alpha, "constructed")


def witness_rectangle(lam: Iterable[int]) -> WitnessTriple:
    """Witness for even-size rectangles.

    Even row length reduces to the halving witness. Otherwise the row count
    is even: halve the conjugate and conjugate back, so alpha = beta = gamma
    stacks the full row length on half the rows, and each certificate is the
    bottom half of the rectangle filled row by row."""
    lam = Partition(lam)
    rect = _family(lam, Rectangle)
    if rect.cols % 2 == 0:
        return witness_all_even(lam)
    half = Partition([rect.cols] * (rect.rows // 2))
    return _witness(lam, half, half, half, "constructed")


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
    """True iff each certificate is an LR tableau of its stated shape and content."""
    specs = ((witness.alpha, witness.beta), (witness.beta, witness.gamma),
             (witness.alpha, witness.gamma))
    return all(cert.shape.outer == lam and cert.shape.inner == inner
               and content(cert) == tuple(cont) and is_lr_tableau(cert)
               for cert, (inner, cont) in zip(witness.certificates, specs))


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


def _sweep(theorem: str, entry: Callable, limit: int, max_size: int, jobs: int) -> SweepReport:
    """``entry`` of every weight of odd or even size, as ``theorem`` says, up
    to ``max_size`` (at most ``limit``), in order: sizes ascending,
    reverse-lex within each. Both sweeps run here, in the calling process;
    ``jobs`` is checked and otherwise ignored, since at its cap the even
    sweep does about as much work as a worker pool costs to start. The
    family tallies are left empty."""
    _check_int("max_size", max_size)
    _check_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not 0 <= max_size <= limit:
        raise ValueError(f"max_size must be between 0 and {limit}, got {max_size}")
    entries = [entry(lam) for size in range(1 if theorem == "odd" else 0, max_size + 1, 2)
               for lam in enumerate_partitions(size)]
    failures = [e for e in entries if not e["ok"]]
    return SweepReport(theorem, max_size, len(entries), entries, failures, {}, [])


def verify_odd_theorem(max_size: int, jobs: int = 1) -> SweepReport:
    """Exhaustively confirm that every odd size up to ``max_size`` has a
    vanishing self-pairing constant, through the naive sum. The constant is
    the stable one, N(lam, lam, lam), which vanishes by parity: a term of
    the sum has |lam| = |alpha| + |beta| = |alpha| + |gamma| = |beta| +
    |gamma|, so 3|lam| is even. At an odd total the sizes force no alpha
    size, so the sum searches no LR coefficient: the sweep confirms the size
    argument and cannot fail through an LR value. Like the even sweep, it
    runs in the calling process; ``jobs`` is checked and otherwise ignored.
    Nor is this the rank-n question for SO(2n+1), which only a rank sweep
    tests: there (1) is detected at SO(3), since Lambda^2 V is isomorphic
    to V."""
    return _sweep("odd", _odd_entry, ODD_SWEEP_LIMIT, max_size, jobs)


def verify_even_theorem(max_size: int, jobs: int = 1) -> SweepReport:
    """Exhaustively confirm detection for every even size up to ``max_size``:
    weights matching any covered family must come with a validated witness
    and a positive constant. Weights outside every family are reported with
    their computed constant and nothing is asserted about them. Like the
    odd sweep, it runs in the calling process; ``jobs`` is checked and
    otherwise ignored, since a pool of two workers made a fresh ``verify
    even --max-size 12`` slower, 130 ms against 97 ms on 2 CPUs."""
    report = _sweep("even", _even_entry, EVEN_SWEEP_LIMIT, max_size, jobs)
    for e in report.entries:
        for kind in e["kinds"]:
            report.family_tallies[kind] = report.family_tallies.get(kind, 0) + 1
        if not e["families"]:
            report.unclassified.append(e)
    return report
