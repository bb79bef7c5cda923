"""Littlewood-Richardson coefficients by direct tableau counting.

Enumeration of lattice-word fillings is the single production algorithm,
with the content fixed (one coefficient) or free (a whole skew-Schur
expansion); the ``oracle`` module recomputes the same numbers through
symmetric polynomial arithmetic so the test suite can cross-validate. Values
are exact non-negative integers, and the arithmetic refuses to leave signed
64-bit range instead of growing silently.

The shared memo store is one dict for coefficients and expansions under one
cap: concurrent readers are safe under the interpreter lock and insertions
are serialized explicitly.
"""

from __future__ import annotations

import os
import threading
from types import MappingProxyType
from typing import Iterable, Mapping

from .partitions import Partition, contains
from .tableaux import SkewShape, _search, count_lr_fillings

INT64_MAX = 2**63 - 1

_cache_lock = threading.Lock()
_shared_cache: dict = {}
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


def _store(cache: dict, key, value) -> None:
    if len(cache) < _cache_capacity():
        with _cache_lock:
            cache[key] = value


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


def lr_coefficient_memo(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int],
                        cache: dict | None = None) -> int:
    """Memoized :func:`lr_coefficient`.

    The coefficient is symmetric in the two lower shapes, so both orders
    share one cache entry (keyed with the smaller of the pair first, compared
    by size then parts). Pass an explicit ``cache`` dict to isolate storage;
    the default store is shared process-wide and capped by the
    ``TENSORCUBE_CACHE_CAP`` environment variable."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if nu.size != lam.size + mu.size:
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    if cache is None:
        cache = _shared_cache
    if (mu.size, mu) < (lam.size, lam):
        lam, mu = mu, lam
    key = (lam, mu, nu)
    value = cache.get(key)
    if value is None:
        value = checked(count_lr_fillings(SkewShape(nu, lam), mu))
        _store(cache, key, value)
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
        _store(_shared_cache, (outer, inner), expansion)
    return expansion


def clear_cache() -> None:
    """Drop every memoized coefficient and expansion (mainly for tests and benchmarks)."""
    with _cache_lock:
        _shared_cache.clear()
