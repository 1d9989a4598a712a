"""``np.random.default_rng(seed).uniform`` in pure Python, draw for draw.

numpy's default generator is PCG64 (O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014): a 128-bit linear congruential state whose XSL-RR
output gives 64 bits per draw, seeded through ``SeedSequence``'s hash
mixing of the seed's 32-bit words.  A double is the top 53 bits of a draw
times 2**-53, and ``uniform(low, high)`` is ``low + (high - low) * double``.
Replaying those steps gives the same floats as numpy, so the seeded
``phase`` portraits need no numpy.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: int, const: list) -> int:
    value ^= const[0]
    const[0] = (const[0] * _MULT_A) & _MASK32
    value = (value * const[0]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as four 64-bit ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    const = [_INIT_A]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, const) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    const, state = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class DefaultRng:
    """The draws of ``np.random.default_rng(seed)``; only ``uniform`` is replayed."""

    def __init__(self, seed: int):
        words = _seed_words(int(seed))
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + (words[0] << 64 | words[1])) & _MASK128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        state = self._state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)
