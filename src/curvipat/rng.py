"""Deterministic random numbers: xoshiro256++ seeded through splitmix64.

The generator's stream is part of the package contract: a seed gives the
same initial fields in every version.  ``Xoshiro256pp.next_uint64`` is the
scalar reference; ``raw`` computes the same stream in vectorised lanes.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# Vectorised draws: the state update is linear over GF(2), so one step is a
# 256 x 256 bit matrix T, and its powers T^(2^i) jump a state ahead.  Lanes
# started a power-of-two stride apart then step in lockstep, and their
# outputs read lane by lane are the scalar stream.
_LANES_LOG = 8  # at most 256 lanes
# draws per raw() call in uniform/normal: one lockstep pass of 256 lanes x 64
# steps; even, so normal's pairs never straddle two blocks
_BLOCK = 1 << 14


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << k) | (x >> (64 - k))


def _step_lanes(lanes: np.ndarray) -> None:
    """One xoshiro256++ state update of every column of a 4 x L uint64
    array, in place (the arithmetic of ``next_uint64``)."""
    s0, s1, s2, s3 = lanes
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[:] = _rotl_lanes(s3, 45)


@functools.cache
def _jump_table(i: int) -> np.ndarray:
    """T^(2^i) as the images of the 256 unit states, one per column of a
    4 x 256 uint64 array (8 KiB); unit state j has only bit j % 64 of word
    j // 64 set.  Built on first use and read-only; i < 64 in practice, so
    the cache stays small."""
    if i == 0:
        bit = np.arange(256)
        table = np.zeros((4, 256), dtype=np.uint64)
        table[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        _step_lanes(table)
    else:
        table = _jump(i - 1, _jump_table(i - 1))
    table.flags.writeable = False
    return table


def _jump(i: int, lanes: np.ndarray) -> np.ndarray:
    """Every column of a 4 x L state array advanced 2^i steps: the XOR of
    the images of its set bits, looked up four bits at a time."""
    images = _jump_table(i).T.reshape(64, 4, 4)
    # lut[p, v]: image of the state whose bits 4p .. 4p+3 are v, others 0
    lut = np.zeros((64, 16, 4), dtype=np.uint64)
    for b in range(4):
        lut[:, 1 << b : 2 << b] = lut[:, : 1 << b] ^ images[:, b, None, :]
    octets = np.ascontiguousarray(lanes.T, dtype="<u8").view(np.uint8)
    nibbles = np.stack([octets & 15, octets >> 4], axis=2).reshape(-1, 64)
    looked_up = lut[np.arange(64)[:, None], nibbles.T]
    return np.bitwise_xor.reduce(looked_up, axis=0).T.copy()


def _libm(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    # libm through the math module: numpy's SIMD log (and, on some CPUs,
    # cos and sin) can differ from it in the last bit, which would change
    # seeded fields
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


class Xoshiro256pp:
    """xoshiro256++ generator, seeded through splitmix64.

    This exact algorithm (state update, output scrambler, seeding expansion
    and draw order) is part of the package contract: fields produced from a
    given seed must never change between versions.  Uniform doubles take the
    top 53 bits; normal deviates come from the Box-Muller transform applied
    to consecutive uniform pairs.  ``next_uint64`` is the scalar reference;
    ``raw`` produces the same stream many lanes at a time.
    """

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, word = _splitmix64(s)
            state.append(word)
        self._state = state

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._state
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._state = [s0, s1, s2, s3]
        return result

    def raw(self, n: int) -> np.ndarray:
        """The next n outputs as uint64: the values of n ``next_uint64``
        calls, leaving the generator in the same state."""
        if n <= 0:
            return np.empty(n, dtype=np.uint64)  # raises for n < 0
        lanes_log = min(_LANES_LOG, (n - 1).bit_length())
        stride_log = (-(-n >> lanes_log) - 1).bit_length()
        start = np.array(self._state, dtype=np.uint64).reshape(4, 1)
        lanes = start.copy()
        for i in range(lanes_log):
            lanes = np.concatenate([lanes, _jump(stride_log + i, lanes)], axis=1)
        s0, s3 = lanes[0], lanes[3]
        out = np.empty((1 << lanes_log, 1 << stride_log), dtype=np.uint64)
        for t in range(out.shape[1]):
            out[:, t] = _rotl_lanes(s0 + s3, 23) + s0
            _step_lanes(lanes)
        end = start
        for i in range(n.bit_length()):
            if n >> i & 1:
                end = _jump(i, end)
        self._state = [int(w) for w in end[:, 0]]
        return out.reshape(-1)[:n]

    def uniform(self, size: int) -> np.ndarray:
        """size iid draws from U[0, 1)."""
        out = np.empty(size)
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            out[lo:hi] = (self.raw(hi - lo) >> 11) * 2.0**-53
        return out

    def normal(self, size: int) -> np.ndarray:
        """size iid standard normal draws (Box-Muller on uniform pairs)."""
        out = np.empty(2 * ((size + 1) // 2))
        for lo in range(0, out.size, _BLOCK):
            hi = min(lo + _BLOCK, out.size)
            draws = self.raw(hi - lo)
            # u1 in (0, 1] so the logarithm is finite
            u1 = ((draws[0::2] >> 11) + 1) * 2.0**-53
            angle = (2.0 * math.pi) * ((draws[1::2] >> 11) * 2.0**-53)
            radius = np.sqrt(-2.0 * _libm(math.log, u1))
            out[lo:hi:2] = radius * _libm(math.cos, angle)
            out[lo + 1 : hi : 2] = radius * _libm(math.sin, angle)
        return out[:size]


