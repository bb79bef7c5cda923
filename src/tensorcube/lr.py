"""Littlewood-Richardson coefficients by direct tableau counting.

Enumeration of lattice-word fillings is the single production algorithm,
with the content fixed (one coefficient) or free (a whole skew-Schur
expansion); the ``oracle`` module recomputes the same numbers through
symmetric polynomial arithmetic so the test suite can cross-validate. Values
are exact non-negative integers, and the arithmetic refuses to leave signed
64-bit range instead of growing silently.

The shared store is the package's one memo: coefficients, expansions and
subpartition lists under one cap, past which each insert drops the oldest
entry. Readers are safe under the interpreter lock; ``_store``, the only
writer, serializes insertions and evictions.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Iterable, Mapping

from .partitions import Partition, contains
from .tableaux import SkewShape, _search, count_lr_fillings

INT64_MAX = 2**63 - 1

_cache_lock = threading.Lock()
_shared_cache: OrderedDict = OrderedDict()
_cap: int | None = None


def checked(value: int) -> int:
    """Pass ``value`` through, refusing anything above signed 64-bit range."""
    if value > INT64_MAX:
        raise OverflowError(f"coefficient arithmetic left 64-bit range: {value}")
    return value


def _cache_capacity() -> int:
    global _cap
    if _cap is None:
        raw = os.environ.get("TENSORCUBE_CACHE_CAP", str(1 << 20))
        if not raw.strip().isdecimal():
            raise ValueError(f"TENSORCUBE_CACHE_CAP must be a non-negative integer, got {raw!r}")
        _cap = int(raw)
    return _cap


def _store(key, value) -> None:
    cap = _cache_capacity()
    if cap:
        with _cache_lock:
            if len(_shared_cache) >= cap:
                _shared_cache.popitem(last=False)
            _shared_cache[key] = value


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Number of Littlewood-Richardson tableaux of shape ``nu - lam`` and
    content ``mu``: zero unless the sizes add up and both lower shapes fit
    inside ``nu``."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if nu.size != lam.size + mu.size:
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    return checked(count_lr_fillings(SkewShape(nu, lam), mu))


def lr_coefficient_memo(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Memoized :func:`lr_coefficient`.

    The coefficient is symmetric in the two lower shapes, so both orders
    share one entry of the shared store (keyed with the smaller of the pair
    first, compared by size then parts); the store is capped by the
    ``TENSORCUBE_CACHE_CAP`` environment variable."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if nu.size != lam.size + mu.size:
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    if (mu.size, mu) < (lam.size, lam):
        lam, mu = mu, lam
    key = (lam, mu, nu)
    value = _shared_cache.get(key)
    if value is None:
        value = checked(count_lr_fillings(SkewShape(nu, lam), mu))
        _store(key, value)
    return value


def skew_expansion(outer: Iterable[int], inner: Iterable[int]) -> Mapping[Partition, int]:
    """s_{outer/inner} in the Schur basis, ``{beta: c(inner, beta -> outer)}``
    without zero terms, from one search with the content left free; a
    read-only view of the memoized dict."""
    outer, inner = Partition(outer), Partition(inner)
    expansion = _shared_cache.get((outer, inner))
    if expansion is None:
        tally: dict[tuple, int] = {}
        if contains(inner, outer):
            def bump(rows, counts):
                found = tuple(counts)
                tally[found] = tally.get(found, 0) + 1
            # row i of a lattice filling uses letters up to i + 1 only
            _search(SkewShape(outer, inner), len(outer), None, True, bump)
        expansion = MappingProxyType({Partition(found[1:]): checked(n)
                                      for found, n in tally.items()})
        _store((outer, inner), expansion)
    return expansion


def clear_cache() -> None:
    """Drop every memoized value of the package (mainly for tests and benchmarks)."""
    with _cache_lock:
        _shared_cache.clear()
