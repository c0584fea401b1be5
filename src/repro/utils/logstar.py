"""Iterated-logarithm helpers: ``log2``, ``log*`` and finite power towers.

Theorem 4's lower bound is Omega(log* Delta); the Naor-Stockmeyer upper bound
is O(log* Delta) as well.  These helpers provide the exact integer versions of
``log*`` used by the bound calculators and by the analysis layer when it
tabulates lower/upper-bound curves over a sweep of degrees.
"""

from __future__ import annotations


def log2_ceil(n: int) -> int:
    """Return ``ceil(log2(n))`` for a positive integer ``n``.

    >>> [log2_ceil(n) for n in (1, 2, 3, 4, 5, 8, 9)]
    [0, 1, 2, 2, 3, 3, 4]
    """
    if n <= 0:
        raise ValueError("log2_ceil requires a positive integer")
    return (n - 1).bit_length()


def log_star(n: int, base: int = 2) -> int:
    """Return the iterated logarithm ``log*`` of ``n``.

    ``log*(n)`` is the number of times ``log_base`` must be applied before the
    value drops to at most 1.  We use the conventional exact-integer variant
    with ``ceil`` logs, so ``log*(1) = 0``, ``log*(2) = 1``, ``log*(4) = 2``,
    ``log*(16) = 3``, ``log*(65536) = 4``.

    >>> [log_star(n) for n in (1, 2, 3, 4, 5, 16, 17, 65536, 65537)]
    [0, 1, 2, 2, 3, 3, 4, 4, 5]
    """
    if n < 1:
        raise ValueError("log_star requires n >= 1")
    count = 0
    value = n
    while value > 1:
        if base == 2:
            value = log2_ceil(value)
        else:
            bits = 0
            v = value - 1
            while v > 0:
                v //= base
                bits += 1
            value = bits
        count += 1
    return count


def tower(height: int, top: int = 2, base: int = 2) -> int:
    """Return the power tower ``base^base^...^top`` of the given height.

    ``tower(0, t) == t`` and ``tower(h, t) == base ** tower(h - 1, t)``.
    Heights that would overflow practical integer sizes raise ``OverflowError``
    (callers that need symbolic towers use :class:`repro.utils.tower.Tower`).

    >>> tower(0), tower(1), tower(2), tower(3)
    (2, 4, 16, 65536)
    """
    if height < 0:
        raise ValueError("tower height must be non-negative")
    value = top
    for _ in range(height):
        if value > 1 << 24:
            raise OverflowError(
                "power tower too large to materialise; use repro.utils.tower.Tower"
            )
        value = base**value
    return value
