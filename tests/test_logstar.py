"""Tests for log2 / log* / tower helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.logstar import log2_ceil, log_star, tower


def test_log2_ceil_values():
    assert [log2_ceil(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2_ceil(0)


def test_log_star_values():
    assert [log_star(n) for n in (1, 2, 3, 4, 5, 16, 17, 65536, 65537)] == [
        0,
        1,
        2,
        2,
        3,
        3,
        4,
        4,
        5,
    ]


def test_log_star_rejects_zero():
    with pytest.raises(ValueError):
        log_star(0)


def test_tower_values():
    assert (tower(0), tower(1), tower(2), tower(3)) == (2, 4, 16, 65536)


def test_tower_custom_top():
    assert tower(1, top=3) == 8
    assert tower(2, top=3) == 256


def test_tower_overflow():
    with pytest.raises(OverflowError):
        tower(5)


def test_log_star_inverts_tower():
    for height in range(4):
        assert log_star(tower(height)) == height + 1


@given(st.integers(1, 10**9))
def test_log2_ceil_is_correct(n):
    c = log2_ceil(n)
    assert 2**c >= n
    assert c == 0 or 2 ** (c - 1) < n


@given(st.integers(2, 10**9))
def test_log_star_recurrence(n):
    assert log_star(n) == 1 + log_star(log2_ceil(n))
