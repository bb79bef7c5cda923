"""Build ``data/pools.json``: the candidate inputs the workloads draw from.

Each candidate carries its cost: the number of function calls, Python and
builtin, that one evaluation with a cold memo makes. The workloads split
every stratum into tiers of equal total cost and draw one candidate per
tier, so that every seed gives a different input set of nearly the same
cost. The costs only order the candidates; nothing checks a result against
this file.

    python3 perfbench/make_pools.py [lr_kernel|detect_even|decompose ...]

rebuilds the named pools, or all of them, in a few minutes on 2 CPUs. The
candidates come from fixed generator seeds and the costs are counts, not
timings, so on the same code and interpreter the file comes out the same.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checkers import contains, partitions  # noqa: E402
from workloads import stable_rank  # noqa: E402
from tensorcube import (GroupSpec, clear_cache, detects, lr_coefficient,  # noqa: E402
                        tensor_decompose)

LR_SIZES = range(20, 37, 2)
DETECT_SIZES = range(10, 19, 2)
DECOMPOSE_STRATA = {"stable-small": (2, 8), "stable-mid": (9, 14), "unstable": (6, 16)}


def calls(fn) -> int:
    """Function calls made by ``fn()`` with the memo cleared, after one
    unprofiled call has filled the ``lru_cache`` stores it reads, as they
    are in every round of a run after the first."""
    fn()
    clear_cache()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def _neighbours(nu: tuple) -> list[tuple]:
    """Shapes one box move away from ``nu``."""
    row = list(nu) + [0]
    out = []
    for i in range(len(row)):
        for j in range(len(row)):
            moved = row[:]
            moved[i] -= 1
            moved[j] += 1
            if i != j and moved[i] >= 0 and all(x >= y for x, y in zip(moved, moved[1:])):
                out.append(tuple(x for x in moved if x))
    return out


def _spread(rng: random.Random, size: int) -> tuple:
    """A random partition of ``size`` with at most 8 rows and as many
    distinct parts as the size allows, close to a staircase: such shapes
    have the largest LR coefficients."""
    distinct = max(k for k in range(1, size + 1) if k * (k + 1) // 2 <= size)
    return rng.choice([p for p in partitions(size) if len(p) <= 8 and len(set(p)) >= distinct])


def lr_pool(rng: random.Random) -> dict:
    """Per combined size: hill-climb paths from the coefficient-1 shape
    (lam + reversed mu, sorted) towards the largest coefficient, keeping every
    accepted shape, plus shapes met on the way whose coefficient is zero."""
    pool = {}
    for n in LR_SIZES:
        seen, rows = set(), []
        for _ in range(12):
            a = rng.randrange(n // 3, n // 2 + 1)
            lam, mu = _spread(rng, a), _spread(rng, n - a)
            width = max(len(lam), len(mu))
            padded = [(lam + (0,) * width)[:width], (mu + (0,) * width)[:width]]
            nu = tuple(x for x in sorted((x + y for x, y in zip(padded[0], padded[1][::-1])),
                                         reverse=True) if x)
            best, zeros = lr_coefficient(lam, mu, nu), 0
            path = [nu]
            for _ in range(80):
                moves = [v for v in _neighbours(nu) if contains(lam, v) and contains(mu, v)]
                rng.shuffle(moves)
                for v in moves:
                    value = lr_coefficient(lam, mu, v)
                    if value > best:
                        best, nu = value, v
                        path.append(v)
                        break
                    if value == 0 and zeros < 3:
                        zeros += 1
                        path.append(v)
                else:
                    break
            for v in path:
                if (lam, mu, v) not in seen:
                    seen.add((lam, mu, v))
                    rows.append([list(lam), list(mu), list(v),
                                 calls(lambda: lr_coefficient(lam, mu, v))])
        pool[str(n)] = sorted(rows, key=lambda r: r[-1])
        print(f"lr size {n}: {len(rows)} triples", file=sys.stderr)
    return pool


def detect_pool() -> dict:
    """Per even size: every weight, costed as one cold ``detects``."""
    pool = {}
    for n in DETECT_SIZES:
        rows = []
        for lam in partitions(n):
            rows.append([list(lam), calls(lambda: detects(lam))])
        pool[str(n)] = sorted(rows, key=lambda r: r[-1])
        print(f"detect size {n}: {len(rows)} weights", file=sys.stderr)
    return pool


def _low_rank(family: str, lam: tuple, mu: tuple) -> int:
    rank = max(len(lam), len(mu), 1)
    if family == "D":
        rank += 1
        rank += rank % 2
    return rank


def decompose_pool(rng: random.Random) -> dict:
    """Per stratum: 120 products of two weights of size at most 10 and at most
    4 parts, at the stable rank, or for ``unstable`` below it."""
    pool = {}
    for name, (lo, hi) in DECOMPOSE_STRATA.items():
        rows, seen = [], set()
        while len(rows) < 120:
            total = rng.randrange(lo, hi + 1)
            a = rng.randrange(max(1, total - 10), min(10, total - 1) + 1)
            lam = rng.choice([p for p in partitions(a) if len(p) <= 4])
            mu = rng.choice([p for p in partitions(total - a) if len(p) <= 4])
            family = rng.choice("BCD")
            rank = stable_rank(family, lam, mu)
            if name == "unstable":
                rank = _low_rank(family, lam, mu)
                if rank >= stable_rank(family, lam, mu):
                    continue
            key = (lam, mu, family, rank)
            if key in seen:
                continue
            seen.add(key)
            group = GroupSpec(family, rank)
            rows.append([list(lam), list(mu), family, rank,
                         calls(lambda: tensor_decompose(lam, mu, group))])
        pool[name] = sorted(rows, key=lambda r: r[-1])
        print(f"decompose {name}: {len(rows)} products", file=sys.stderr)
    return pool


BUILDERS = {"lr_kernel": lambda: lr_pool(random.Random(20151009)),
            "detect_even": detect_pool,
            "decompose": lambda: decompose_pool(random.Random(20151010))}


def main(names: list[str]) -> None:
    """Rebuild the named pools (all when none is named), keep the others."""
    out = HERE / "data" / "pools.json"
    pools = json.loads(out.read_text()) if out.exists() else {}
    for name in names or BUILDERS:
        pools[name] = BUILDERS[name]()
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(pools, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
