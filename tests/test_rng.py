"""Tests for the portable seeded generator."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from troopnet.rng import Rng, derive_seed, splitmix64_next

MASK64 = (1 << 64) - 1


# Reference outputs of splitmix64 from seed 1234567, as published with the
# original algorithm.
SPLITMIX_VECTORS_1234567 = [
    0x599ED017FB08FC85,
    0x2C73F08458540FA5,
    0x883EBCE5A3F27C77,
    0x3FBEF740E9177B3F,
    0xE3B8346708CB5ECD,
]


def test_splitmix64_reference_vectors():
    state = 1234567
    for expected in SPLITMIX_VECTORS_1234567:
        state, out = splitmix64_next(state)
        assert out == expected


def test_splitmix64_zero_seed_first_output():
    # First output from seed 0 per the reference implementation.
    _, out = splitmix64_next(0)
    assert out == 0xE220A8397B1DCDAF


def _xoshiro_oracle_sequence(seed: int, count: int) -> list[int]:
    # Independent restatement of seeding plus xoshiro256** stepping.
    s = []
    state = seed & MASK64
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        s.append(z ^ (z >> 31))
    out = []
    for _ in range(count):
        x = (s[1] * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        out.append(result)
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & MASK64
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 987654321])
def test_xoshiro_matches_independent_restatement(seed):
    rng = Rng(seed)
    want = _xoshiro_oracle_sequence(seed, 200)
    got = [rng.next_u64() for _ in range(200)]
    assert got == want


def test_same_seed_same_sequence():
    a = Rng(99)
    b = Rng(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = [Rng(1).next_u64() for _ in range(10)]
    b = [Rng(2).next_u64() for _ in range(10)]
    assert a != b


def test_random_unit_interval():
    rng = Rng(7)
    for _ in range(1000):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_random_granularity():
    # random() = (u >> 11) * 2**-53, so every value is a multiple of 2**-53
    rng = Rng(3)
    for _ in range(100):
        x = rng.random()
        assert x == (round(x * 2.0**53)) * 2.0**-53


def test_randrange_bounds_and_error():
    rng = Rng(5)
    for _ in range(500):
        assert 0 <= rng.randrange(17) < 17
    with pytest.raises(ValueError):
        rng.randrange(0)
    with pytest.raises(ValueError):
        rng.randrange(-2)


def test_randrange_hits_every_value():
    rng = Rng(1)
    seen = {rng.randrange(6) for _ in range(300)}
    assert seen == set(range(6))


def test_permutation_is_permutation():
    rng = Rng(9)
    for n in (1, 2, 5, 20):
        assert sorted(rng.permutation(n)) == list(range(n))


def test_permutation_is_fisher_yates_over_randrange():
    # each i from n - 1 down to 1 swaps i with randrange(i + 1)
    for seed, n in [(4, 8), (5, 1), (6, 2), (7, 41)]:
        rng, calls = Rng(seed), Rng(seed)
        want = list(range(n))
        for i in range(n - 1, 0, -1):
            j = calls.randrange(i + 1)
            want[i], want[j] = want[j], want[i]
        assert rng.permutation(n) == want
        assert rng.next_u64() == calls.next_u64()


def _per_call_draws(seed: int, n: int, k: int):
    """permutation(n), then k random() floats, then the next word, from the oracle's words."""
    words = iter(_xoshiro_oracle_sequence(seed, 2 * n + k + 1))
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        bound = i + 1
        limit = (1 << 64) - (1 << 64) % bound
        word = next(words)
        while word >= limit:
            word = next(words)
        j = word % bound
        perm[i], perm[j] = perm[j], perm[i]
    floats = [(next(words) >> 11) * 2.0**-53 for _ in range(k)]
    return perm, floats, next(words)


@given(st.integers(min_value=0, max_value=MASK64), st.integers(0, 60), st.integers(0, 130))
def test_bulk_draws_match_the_per_call_sequence(seed, n, k):
    rng = Rng(seed)
    perm = rng.permutation(n)
    floats = rng.randoms(k)
    assert (perm, floats, rng.next_u64()) == _per_call_draws(seed, n, k)


def _rotr(x: int, k: int) -> int:
    return ((x >> k) | (x << (64 - k))) & MASK64


def test_permutation_redraws_a_rejected_word():
    # the next word is rotl(s1 * 5, 7) * 9; pick s1 so that it is 2**64 - 1,
    # which bound 3 rejects (2**64 % 3 == 1, so the limit is 2**64 - 1)
    s1 = _rotr(MASK64 * pow(9, -1, 1 << 64) & MASK64, 7) * pow(5, -1, 1 << 64) & MASK64
    rng, words = Rng(8), Rng(8)
    rng._s1 = words._s1 = s1
    drawn = [words.next_u64() for _ in range(4)]
    assert drawn[0] == MASK64
    perm = [0, 1, 2]
    j = drawn[1] % 3  # the redraw, for i = 2
    perm[2], perm[j] = perm[j], perm[2]
    j = drawn[2] % 2  # i = 1
    perm[1], perm[j] = perm[j], perm[1]
    assert rng.permutation(3) == perm
    assert rng.next_u64() == drawn[3]


def test_derive_seed_key_sensitivity():
    base = derive_seed(42, "layout")
    assert derive_seed(42, "ledger") != base
    assert derive_seed(43, "layout") != base
    assert derive_seed(42, "layout", 0) != base
    # same arguments reproduce
    assert derive_seed(42, "layout") == base


def test_derive_seed_order_matters():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


def test_derive_seed_int_and_str_keys():
    a = derive_seed(7, 3)
    b = derive_seed(7, "3")
    assert a != b
    assert 0 <= a <= MASK64
    assert 0 <= b <= MASK64


def test_fnv_fold_reference():
    # FNV-1a 64-bit of "a" is the published constant; exercised through
    # derive_seed by comparing against a by-hand fold.
    h = 0xCBF29CE484222325
    h = ((h ^ ord("a")) * 0x100000001B3) & MASK64
    assert h == 0xAF63DC4C8601EC8C
    state = 5 & MASK64
    _, state2 = splitmix64_next(state ^ h)
    _, want = splitmix64_next(state2)
    assert derive_seed(5, "a") == want


@given(st.integers(min_value=0, max_value=MASK64))
def test_random_in_unit_interval_any_seed(seed):
    rng = Rng(seed)
    x = rng.random()
    assert 0.0 <= x < 1.0 and math.isfinite(x)


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=10**6))
def test_randrange_in_bounds_any_seed(seed, n):
    assert 0 <= Rng(seed).randrange(n) < n
