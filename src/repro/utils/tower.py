"""Exact power-tower arithmetic for the Theorem 4 bound chain.

The weak 2-coloring lower bound (Section 5.2) iterates the map
``k_{i+1} = F(F(F(F(F(k_i)))))`` with ``F(x) = 2^x`` starting from
``k_0 = 2``.  Already ``k_1 = 2^2^2^2^4 = 2^(2^65536)`` cannot be
materialised as a Python integer, yet the proof needs *exact* comparisons
such as ``k_{T+1} <= log(Delta)``.  A :class:`Tower` value represents
``2^2^...^2^top`` (``height`` applications of ``2^`` on top of the plain
integer ``top``) and supports exact comparison against integers and other
towers, exact ``log2`` (peeling one exponential), exact ``exp2`` and exact
``log*``.

The representation is closed under exactly the operations the bound chain
needs; sums like ``4^k + 1`` that are *not* exactly representable are handled
by the callers in :mod:`repro.superweak.lowerbound` with documented
conservative sandwiches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.utils.logstar import log_star

# Integers with at most this many bits are kept as plain ints by exp2();
# larger values get promoted into a Tower.  2**20 bits is ~128 KiB.
_MATERIALISE_BIT_LIMIT = 1 << 20


@total_ordering
@dataclass(frozen=True)
class Tower:
    """The exact value ``2^(2^(...(2^top)))`` with ``height`` exponentiations.

    ``Tower(0, n)`` is the plain integer ``n``; ``Tower(h, n)`` is
    ``2 ** Tower(h - 1, n)``.  ``top`` must be a positive integer.
    """

    height: int
    top: int

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("Tower height must be non-negative")
        if self.top < 1:
            raise ValueError("Tower top must be a positive integer")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_int(value: int) -> "Tower":
        """Wrap a plain positive integer as a height-0 tower."""
        return Tower(0, value)

    def normalized(self) -> "Tower":
        """Return an equal tower with the top materialised as far as practical.

        ``Tower(h, t)`` with small ``2^t`` is rewritten to
        ``Tower(h - 1, 2^t)`` repeatedly, so that e.g. ``Tower(2, 2)``
        compares as the plain number 16 and ``materialize`` succeeds whenever
        the value fits.
        """
        height, top = self.height, self.top
        # Materialise 2**top only while the *result* stays within the bit
        # limit, i.e. while the exponent itself is at most the limit.
        while height > 0 and top <= _MATERIALISE_BIT_LIMIT:
            top = 2**top
            height -= 1
        return Tower(height, top)

    # -- conversions ------------------------------------------------------

    def materialize(self) -> int:
        """Return the exact integer value; raise OverflowError if impractical."""
        norm = self.normalized()
        if norm.height > 0:
            raise OverflowError(f"{self} is too large to materialise")
        return norm.top

    # -- arithmetic -------------------------------------------------------

    def exp2(self) -> "Tower":
        """Return the exact value ``2 ** self``."""
        return Tower(self.height + 1, self.top)

    def log2(self) -> "Tower":
        """Return the exact ``log2`` of this tower.

        Only defined when the value is an exact power of two, i.e. when
        ``height >= 1`` or the top itself is a power of two.
        """
        norm = self.normalized()
        if norm.height >= 1:
            return Tower(norm.height - 1, norm.top)
        if norm.top >= 1 and norm.top & (norm.top - 1) == 0:
            return Tower(0, max(norm.top.bit_length() - 1, 1))
        raise ValueError(f"{self} is not an exact power of two")

    def log_star(self) -> int:
        """Return the exact iterated logarithm of the tower's value.

        ``log*(2^x) = 1 + log*(x)`` for the ceil-based integer ``log*``, so
        the answer is ``height + log*(top)``.
        """
        return self.height + log_star(self.top)

    # -- comparison -------------------------------------------------------

    def _compare(self, other: "Tower") -> int:
        """Exact three-way comparison; returns -1, 0 or 1."""
        a, b = self.normalized(), other.normalized()
        if a.height == 0 and b.height == 0:
            return (a.top > b.top) - (a.top < b.top)
        if a.height > 0 and b.height > 0:
            # Compare exponents: 2^x vs 2^y has the order of x vs y.
            return Tower(a.height - 1, a.top)._compare(Tower(b.height - 1, b.top))
        if a.height == 0:
            return _int_vs_tower(a.top, b)
        return -_int_vs_tower(b.top, a)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            if other < 1:
                return False  # towers are always >= 1
            other = Tower.from_int(other)
        if not isinstance(other, Tower):
            return NotImplemented
        return self._compare(other) == 0

    def __lt__(self, other: object) -> bool:
        if isinstance(other, int):
            if other < 1:
                return False  # towers are always >= 1 > any non-positive int
            other = Tower.from_int(other)
        if not isinstance(other, Tower):
            return NotImplemented
        return self._compare(other) < 0

    def __hash__(self) -> int:
        norm = self.normalized()
        return hash((norm.height, norm.top))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        norm = self.normalized()
        if norm.height == 0:
            if norm.top.bit_length() > 64:
                return f"Tower(~2^{norm.top.bit_length() - 1})"
            return f"Tower({norm.top})"
        top = (
            str(norm.top)
            if norm.top.bit_length() <= 64
            else f"~2^{norm.top.bit_length() - 1}"
        )
        return "Tower(" + "2^" * norm.height + top + ")"


def _int_vs_tower(value: int, tower_value: Tower) -> int:
    """Exact three-way comparison of a plain int against ``Tower(h>=1, t)``.

    ``2^x > n``  iff ``x >= floor(log2 n) + 1``;
    ``2^x == n`` iff ``n`` is a power of two with exponent ``x``;
    otherwise ``2^x < n``.  The exponent ``x`` is itself a tower, so the
    test recurses with an integer at least one exponential smaller.
    """
    assert tower_value.height >= 1
    if value <= 1:
        return -1  # any tower of height >= 1 is at least 2^1 = 2
    exponent = Tower(tower_value.height - 1, tower_value.top)
    floor_log = value.bit_length() - 1
    cmp_exponent = exponent._compare(Tower.from_int(floor_log))
    if cmp_exponent > 0:
        return -1  # 2^x >= 2^(floor_log + 1) > value
    if cmp_exponent < 0:
        return 1  # 2^x <= 2^(floor_log - 1) <= value / 2 < value
    # exponent == floor(log2 value): 2^x == value iff value is a power of two.
    if value & (value - 1) == 0:
        return 0
    return 1  # 2^floor_log < value because value is not a power of two


TowerLike = Tower | int


def as_tower(value: TowerLike) -> Tower:
    """Coerce an int or Tower to a Tower."""
    if isinstance(value, Tower):
        return value
    return Tower.from_int(value)


def exp2(value: TowerLike) -> TowerLike:
    """Return ``2 ** value`` exactly, staying a plain int while practical.

    This is the map ``F`` from the proof of Theorem 4.
    """
    if isinstance(value, int):
        if value <= _MATERIALISE_BIT_LIMIT:
            return 2**value
        return Tower(1, value)
    return value.exp2()


def iterate_exp2(value: TowerLike, times: int) -> TowerLike:
    """Return ``F^times(value)`` with ``F(x) = 2^x``, exactly."""
    result = value
    for _ in range(times):
        result = exp2(result)
    return result


def tower_log_star(value: TowerLike) -> int:
    """Exact ``log*`` for ints and towers alike."""
    if isinstance(value, int):
        return log_star(value)
    return value.log_star()
