"""Portable deterministic random numbers.

Seeded layout and synthetic-data generation must produce byte-identical
output on every platform and Python build, so the generator is pinned here
bit for bit instead of relying on any runtime's default RNG.

Algorithm
---------
State initialisation uses the splitmix64 sequence: starting from the seed,
each step adds the constant 0x9E3779B97F4A7C15 (mod 2**64) and scrambles

    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
    output = z ^ (z >> 31)

Four consecutive splitmix64 outputs become the state of a xoshiro256**
generator (an xorshift-family generator), whose step is

    result = rotl(s1 * 5, 7) * 9               (mod 2**64)
    t = s1 << 17                               (mod 2**64)
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
    s2 ^= t
    s3 = rotl(s3, 45)

with rotl(x, k) the 64-bit left rotation. Floats in [0, 1) take the top
53 bits of one 64-bit output: (u >> 11) * 2.0**-53.

The bulk draws, permutation(n) and randoms(k), step the generator inline
in one loop each and consume the same words in the same order as n - 1
randrange calls (rejection redraws included) and k random() calls, so
drawing in bulk changes no output.

No seed gives xoshiro256** its forbidden all-zero state: splitmix64's
output is a one-to-one function of its state (each xor-shift and odd
multiplication inverts mod 2**64), and the four seeding states differ,
as the constant is odd, so at most one of the four words is zero.
"""

from __future__ import annotations

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance one splitmix64 step. Returns (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _fold_key(key: int | str) -> int:
    """Reduce a key to 64 bits; strings use FNV-1a over their UTF-8 bytes."""
    if isinstance(key, str):
        h = 0xCBF29CE484222325
        for b in key.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK64
        return h
    return int(key) & _MASK64


def derive_seed(seed: int, *keys: int | str) -> int:
    """Derive an independent child seed from a parent seed and keys.

    Each key (an integer, or a string folded to 64 bits with FNV-1a) is
    XOR-folded into the running state and passed through one splitmix64
    step; a final step decorrelates the result from the last key.
    """
    state = int(seed) & _MASK64
    for k in keys:
        _, state = splitmix64_next(state ^ _fold_key(k))
    _, out = splitmix64_next(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator with splitmix64 seeding (see module docstring)."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = int(seed) & _MASK64
        words = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            words.append(out)
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = _TWO64 - _TWO64 % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def permutation(self, n: int) -> list[int]:
        """A Fisher-Yates shuffle of range(n), drawing the words of n - 1
        randrange(i + 1) calls, i from n - 1 down to 1, rejections included."""
        out = list(range(n))
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        for i in range(n - 1, 0, -1):
            bound = i + 1
            limit = _TWO64 - _TWO64 % bound
            result = limit
            while result >= limit:
                x = (s1 * 5) & _MASK64
                result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            j = result % bound
            out[i], out[j] = out[j], out[i]
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def randoms(self, k: int) -> list[float]:
        """k floats in [0, 1): the words of k random() calls, in order."""
        out = []
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        for _ in range(k):
            x = (s1 * 5) & _MASK64
            result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
            out.append((result >> 11) * 2.0**-53)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out
